//! Robustness integration tests: seeded stuck-at campaigns over the
//! gate-level unit, self-checking execution with graceful degradation,
//! transient-SEU retry recovery, and IEEE edge cases delivered through
//! the self-checking path.
//!
//! Sizes scale with the build profile: debug runs a reduced campaign so
//! `cargo test` stays fast, release runs the full ≥500-site campaign of
//! the robustness study.

use mfm_repro::evalkit::faultcov::{fault_coverage, FaultCoverageConfig};
use mfm_repro::gatesim::fault::{enumerate_stuck_sites, sample_sites};
use mfm_repro::gatesim::netlist::Netlist;
use mfm_repro::gatesim::tech::TechLibrary;
use mfm_repro::mfmult::selfcheck::{check_raw, CheckError, SelfCheckingUnit};
use mfm_repro::mfmult::{
    build_pipelined_unit, build_unit, FunctionalUnit, Operation, PipelinePlacement,
};
use mfm_repro::prng::Rng;

/// Stuck-at sites for the full campaign (the acceptance floor is 500).
const CAMPAIGN_SITES: usize = if cfg!(debug_assertions) { 24 } else { 500 };
const CAMPAIGN_VECTORS: usize = if cfg!(debug_assertions) { 2 } else { 4 };

#[test]
fn seeded_campaign_is_deterministic() {
    let cfg = FaultCoverageConfig {
        seed: 0xCAFE,
        sites: if cfg!(debug_assertions) { 10 } else { 40 },
        vectors_per_format: 2,
        quad_lanes: false,
    };
    let first = fault_coverage(&cfg);
    let second = fault_coverage(&cfg);
    assert_eq!(first, second, "same seed must reproduce the same report");
    // A different seed samples different sites (the netlist has tens of
    // thousands, so a collision of the whole sample is implausible).
    let other = fault_coverage(&FaultCoverageConfig {
        seed: 0xBEEF,
        ..cfg
    });
    assert_ne!(first.blocks, other.blocks);
}

#[test]
fn campaign_classifies_per_block_with_zero_silent() {
    let cfg = FaultCoverageConfig {
        seed: 2017,
        sites: CAMPAIGN_SITES,
        vectors_per_format: CAMPAIGN_VECTORS,
        quad_lanes: false,
    };
    let report = fault_coverage(&cfg);
    assert_eq!(report.sites_run, CAMPAIGN_SITES);

    // Every vector of every site is classified exactly once.
    let totals = report.blocks.totals();
    assert_eq!(totals.ops(), (CAMPAIGN_SITES * 4 * CAMPAIGN_VECTORS) as u64);
    assert_eq!(totals.sites, CAMPAIGN_SITES);

    // The campaign decomposes over the paper's named blocks and the
    // per-format view partitions the same population.
    assert!(report.blocks.per_block.len() >= 3, "{:?}", report.blocks);
    assert_eq!(
        report.formats.values().map(|c| c.ops()).sum::<u64>(),
        totals.ops()
    );

    // The study's headline: faults corrupt results, and the checker
    // catches every corruption — zero silent, detection rate 1.
    assert!(totals.detected > 0, "campaign produced no corruptions");
    assert_eq!(report.silent(), 0, "silent corruptions:\n{report}");
    assert_eq!(report.detection_rate(), 1.0);

    // The cheap residue tier must carry most of the coverage — that is
    // the point of residue checking next to a radix-16 multiplier.
    assert!(
        report.residue_detections() * 2 > totals.detected,
        "residue tier caught {}/{}",
        report.residue_detections(),
        totals.detected
    );
}

#[test]
fn self_checking_unit_is_bit_exact_under_permanent_faults() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let sites = sample_sites(enumerate_stuck_sites(&n), 6, 0x5EED);
    let reference = FunctionalUnit::new();

    let mut degradations = 0;
    for site in &sites {
        let mut unit = SelfCheckingUnit::new(&n, ports.clone());
        site.kind.inject(unit.sim_mut(), site.net);
        let mut rng = Rng::new(0xB17 ^ site.net.index() as u64);
        for case in 0..8 {
            let op = random_op(&mut rng, case % 4);
            let got = unit.execute(op);
            let want = reference.execute(op);
            // Delivered results stay bit-exact whether they came from
            // checked hardware or the functional fallback.
            assert!(
                got.agrees_hw(&want),
                "site {site:?}, {op:?}: got {got:?}, want {want:?}"
            );
        }
        if unit.is_degraded() {
            degradations += 1;
            let s = unit.stats();
            assert_eq!(s.retry_successes, 0, "a permanent fault must not heal");
            assert!(s.fallback_ops > 0);
        }
    }
    assert!(
        degradations > 0,
        "no sampled site corrupted any vector — campaign too small"
    );
}

#[test]
fn transient_seu_recovers_without_degrading() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    let mut unit = SelfCheckingUnit::new(&n, ports);
    let op = Operation::int64(0xDEAD_BEEF, 0x1234_5678);
    let want = (0xDEAD_BEEFu128) * 0x1234_5678;
    assert_eq!(unit.execute(op).int_product(), want);

    // Strike the P0 LSB at the output-latching edge: the delivered PL is
    // corrupt, the retry runs on healed hardware.
    let last_edge = unit.ports().latency + 1;
    let victim = unit.ports().chk_p0[0];
    unit.schedule_seu(last_edge, victim);
    assert_eq!(unit.execute(op).int_product(), want);

    let s = unit.stats();
    assert_eq!((s.mismatches, s.retry_successes), (1, 1));
    assert_eq!(s.fallback_ops, 0);
    assert!(!s.degraded);
    // Subsequent operations run checked on hardware again.
    assert_eq!(
        unit.execute(Operation::int64(81, 97)).int_product(),
        81 * 97
    );
    assert_eq!(unit.stats().mismatches, 1);
}

#[test]
fn nan_propagates_through_self_checking_path() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let mut unit = SelfCheckingUnit::new(&n, ports);

    // Quiet NaN times a normal: the payload propagates, no invalid flag.
    let qnan = 0x7FF8_0000_0000_1234u64;
    let r = unit.execute(Operation::binary64(qnan, 2.5f64.to_bits()));
    assert_eq!(r.ph, qnan);
    assert!(!r.flags_lo.invalid());

    // Signaling NaN raises invalid and is delivered quieted.
    let snan = 0x7FF0_0000_0000_0001u64;
    let r = unit.execute(Operation::binary64(snan, 2.5f64.to_bits()));
    assert_eq!(r.ph, snan | (1 << 51), "sNaN must be quieted");
    assert!(r.flags_lo.invalid());

    assert_eq!(unit.stats().mismatches, 0);
    assert!(!unit.is_degraded());
}

#[test]
fn zero_times_infinity_is_invalid_through_self_checking_path() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let mut unit = SelfCheckingUnit::new(&n, ports);

    let inf = f64::INFINITY.to_bits();
    let zero = 0.0f64.to_bits();
    for (a, b) in [(zero, inf), (inf, zero), (inf, (-0.0f64).to_bits())] {
        let r = unit.execute(Operation::binary64(a, b));
        let canonical_qnan = 0x7FF8_0000_0000_0000u64;
        assert_eq!(r.ph, canonical_qnan, "{a:#x} × {b:#x}");
        assert!(r.flags_lo.invalid(), "{a:#x} × {b:#x}");
    }
    assert_eq!(unit.stats().mismatches, 0);
}

#[test]
fn subnormal_and_underflow_through_self_checking_path() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let mut unit = SelfCheckingUnit::new(&n, ports);

    // A subnormal operand is flushed: the product is an exact zero with
    // the product sign, no underflow flag (the operand was zero to the
    // unit, Sec. II).
    let subnormal = 0x000F_FFFF_FFFF_FFFFu64;
    let minus_two = (-2.0f64).to_bits();
    let r = unit.execute(Operation::binary64(subnormal, minus_two));
    assert_eq!(r.ph, (-0.0f64).to_bits());
    assert!(!r.flags_lo.underflow());

    // Two tiny normals whose product underflows: ±0 plus the underflow
    // flag.
    let tiny = 0x0010_0000_0000_0000u64; // smallest positive normal
    let r = unit.execute(Operation::binary64(tiny, tiny));
    assert_eq!(r.ph, 0.0f64.to_bits());
    assert!(r.flags_lo.underflow());

    assert_eq!(unit.stats().mismatches, 0);
    assert!(!unit.is_degraded());
}

#[test]
fn dual_lanes_fault_independently() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let op = Operation::dual_binary32_from_f32(1.5, 2.0, -3.0, 0.5);

    // A fault in the upper lane's product window is attributed to lane 1
    // and leaves the lower lane's raw product untouched, and vice versa.
    for (bit, lane) in [(70u32, 1u8), (3u32, 0u8)] {
        let mut unit = SelfCheckingUnit::new(&n, ports.clone());
        let clean = unit.execute_raw(op);
        let victim = unit.ports().chk_p0[bit as usize];
        let forced = (clean.p0 >> bit) & 1 == 0;
        unit.inject_stuck_at(victim, forced);
        let raw = unit.execute_raw(op);
        match check_raw(op, &raw) {
            Err(CheckError::Residue { lane: got, .. }) => assert_eq!(got, lane),
            other => panic!("expected a lane-{lane} residue error, got {other:?}"),
        }
        let other_window = if lane == 1 {
            (raw.p0 & ((1u128 << 64) - 1), clean.p0 & ((1u128 << 64) - 1))
        } else {
            (raw.p0 >> 64, clean.p0 >> 64)
        };
        assert_eq!(other_window.0, other_window.1, "other lane moved");
        // Delivered results still come out right: the checker refuses the
        // corrupt product and the unit degrades to the exact fallback.
        let got = unit.execute(op);
        let want = FunctionalUnit::new().execute(op);
        assert_eq!((got.ph, got.pl), (want.ph, want.pl));
        assert!(unit.is_degraded());
    }
}

fn random_op(rng: &mut Rng, which: usize) -> Operation {
    match which {
        0 => Operation::int64(rng.next_u64(), rng.next_u64()),
        1 => Operation::binary64(rng.next_u64(), rng.next_u64()),
        2 => Operation::dual_binary32(
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
        ),
        _ => Operation::single_binary32(rng.next_u32(), rng.next_u32()),
    }
}
