//! Robustness integration tests: seeded stuck-at campaigns over the
//! gate-level unit, bit-exact answers from the service under permanent
//! faults and a single-event upset, IEEE edge cases answered from the
//! checked hardware path, and per-lane fault attribution of the checks.
//!
//! Sizes scale with the build profile: debug runs a reduced campaign so
//! `cargo test` stays fast, release runs the full ≥500-site campaign of
//! the robustness study.

use mfm_repro::evalkit::faultcov::{fault_coverage, FaultCoverageConfig};
use mfm_repro::gatesim::fault::{enumerate_stuck_sites, sample_sites};
use mfm_repro::gatesim::netlist::Netlist;
use mfm_repro::gatesim::tech::TechLibrary;
use mfm_repro::gatesim::Simulator;
use mfm_repro::mfmult::selfcheck::{check_raw, run_raw, CheckError};
use mfm_repro::mfmult::{
    build_pipelined_unit, build_unit, FunctionalUnit, MultResult, Operation, PipelinePlacement,
    StructuralPorts,
};
use mfm_repro::prng::Rng;
use mfm_repro::server::service::{Service, ServiceConfig};
use mfm_repro::server::wire::{Request, Response};
use mfm_repro::softfloat::Flags;
use mfm_repro::telemetry::Registry;

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

/// A service with one serving unit and no patrol, so every batch runs
/// through unit 0's fault overlay and only client lanes charge it.
fn service<'n>(n: &'n Netlist, ports: &StructuralPorts, registry: &Registry) -> Service<'n> {
    let cfg = ServiceConfig {
        units: 1,
        ..ServiceConfig::default()
    };
    Service::new(n, ports, cfg, registry)
}

/// Admits `ops` as one batch, ticks once and returns every answer, in
/// operation order.
fn serve(svc: &mut Service<'_>, ops: &[Operation]) -> Vec<MultResult> {
    for (id, &op) in ops.iter().enumerate() {
        let req = Request {
            id: id as u64,
            op,
            deadline_micros: 0,
            critical: false,
        };
        assert!(svc.admit(0, &req).is_none(), "admitted");
    }
    svc.tick();
    let mut out = vec![None; ops.len()];
    for (_, resp) in svc.take_responses() {
        match resp {
            Response::Ok {
                id,
                ph,
                pl,
                flags_lo,
                flags_hi,
                ..
            } => {
                out[id as usize] = Some(MultResult {
                    format: ops[id as usize].format,
                    ph,
                    pl,
                    flags_lo: Flags::from_bits(flags_lo),
                    flags_hi: Flags::from_bits(flags_hi),
                })
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    out.into_iter()
        .map(|r| r.expect("every operation answered in its tick"))
        .collect()
}

/// Every lane passed its verdict and was answered from the hardware.
fn assert_served_from_hardware(registry: &Registry) {
    assert_eq!(registry.counter("service.check_failures").get(), 0);
    assert_eq!(registry.counter("service.rescues").get(), 0);
}

#[test]
fn self_checking_unit_is_bit_exact_under_permanent_faults() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let sites = sample_sites(enumerate_stuck_sites(&n), 6, 0x5EED);
    let reference = FunctionalUnit::new();

    let mut caught = 0;
    for site in &sites {
        let registry = Registry::new();
        let mut svc = service(&n, &ports, &registry);
        svc.engine_mut()
            .inject_stuck_at(0, site.net, site.value, true);
        let mut rng = Rng::new(0xB17 ^ site.net.index() as u64);
        let ops: Vec<Operation> = (0..8).map(|case| random_op(&mut rng, case % 4)).collect();
        for (op, got) in ops.iter().zip(serve(&mut svc, &ops)) {
            let want = reference.execute(*op);
            // Answers stay bit-exact whether they came from checked
            // hardware lanes or from the reference.
            assert!(
                got.agrees_hw(&want),
                "site {site:?}, {op:?}: got {got:?}, want {want:?}"
            );
        }
        assert_eq!(svc.escapes(), 0);
        if registry.counter("service.check_failures").get() > 0 {
            caught += 1;
            assert!(registry.counter("service.rescues").get() > 0);
        }
    }
    assert!(
        caught > 0,
        "no sampled site corrupted any vector — campaign too small"
    );
}

#[test]
fn transient_seu_recovers_without_degrading() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    let registry = Registry::new();
    let mut svc = service(&n, &ports, &registry);
    let op = Operation::int64(0xDEAD_BEEF, 0x1234_5678);
    let want = (0xDEAD_BEEFu128) * 0x1234_5678;
    assert_eq!(serve(&mut svc, &[op])[0].int_product(), want);
    assert_served_from_hardware(&registry);

    // Upset the P0 LSB for the unit's next pass, forced to 1 where the
    // even product has 0: the lane fails its check and is answered from
    // the reference in the same tick.
    svc.engine_mut().schedule_seu(0, ports.chk_p0[0], true);
    assert_eq!(serve(&mut svc, &[op])[0].int_product(), want);
    assert_eq!(registry.counter("service.check_failures").get(), 1);
    assert_eq!(registry.counter("service.rescues").get(), 1);
    assert!(svc.engine().overlay(0).is_empty(), "the upset struck once");
    assert!(
        svc.engine().unit_state(0).is_hw_capacity(),
        "a transient must not take the unit out of service"
    );
    // Subsequent operations run checked on hardware again.
    assert_eq!(
        serve(&mut svc, &[Operation::int64(81, 97)])[0].int_product(),
        81 * 97
    );
    assert_eq!(registry.counter("service.check_failures").get(), 1);
    assert_eq!(svc.escapes(), 0);
}

#[test]
fn nan_propagates_through_self_checking_path() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let registry = Registry::new();
    let mut svc = service(&n, &ports, &registry);

    let qnan = 0x7FF8_0000_0000_1234u64;
    let snan = 0x7FF0_0000_0000_0001u64;
    let two_and_half = 2.5f64.to_bits();
    let r = serve(
        &mut svc,
        &[
            Operation::binary64(qnan, two_and_half),
            Operation::binary64(snan, two_and_half),
        ],
    );
    // Quiet NaN times a normal: the payload propagates, no invalid flag.
    assert_eq!(r[0].ph, qnan);
    assert!(!r[0].flags_lo.invalid());
    // Signaling NaN raises invalid and is delivered quieted.
    assert_eq!(r[1].ph, snan | (1 << 51), "sNaN must be quieted");
    assert!(r[1].flags_lo.invalid());

    assert_served_from_hardware(&registry);
}

#[test]
fn zero_times_infinity_is_invalid_through_self_checking_path() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let registry = Registry::new();
    let mut svc = service(&n, &ports, &registry);

    let inf = f64::INFINITY.to_bits();
    let zero = 0.0f64.to_bits();
    let pairs = [(zero, inf), (inf, zero), (inf, (-0.0f64).to_bits())];
    let ops: Vec<Operation> = pairs
        .iter()
        .map(|&(a, b)| Operation::binary64(a, b))
        .collect();
    for ((a, b), r) in pairs.iter().zip(serve(&mut svc, &ops)) {
        let canonical_qnan = 0x7FF8_0000_0000_0000u64;
        assert_eq!(r.ph, canonical_qnan, "{a:#x} × {b:#x}");
        assert!(r.flags_lo.invalid(), "{a:#x} × {b:#x}");
    }
    assert_served_from_hardware(&registry);
}

#[test]
fn subnormal_and_underflow_through_self_checking_path() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let registry = Registry::new();
    let mut svc = service(&n, &ports, &registry);

    let subnormal = 0x000F_FFFF_FFFF_FFFFu64;
    let minus_two = (-2.0f64).to_bits();
    let tiny = 0x0010_0000_0000_0000u64; // smallest positive normal
    let r = serve(
        &mut svc,
        &[
            Operation::binary64(subnormal, minus_two),
            Operation::binary64(tiny, tiny),
        ],
    );
    // A subnormal operand is flushed: the product is an exact zero with
    // the product sign, no underflow flag (the operand was zero to the
    // unit, Sec. II).
    assert_eq!(r[0].ph, (-0.0f64).to_bits());
    assert!(!r[0].flags_lo.underflow());
    // Two tiny normals whose product underflows: ±0 plus the underflow
    // flag.
    assert_eq!(r[1].ph, 0.0f64.to_bits());
    assert!(r[1].flags_lo.underflow());

    assert_served_from_hardware(&registry);
}

#[test]
fn dual_lanes_fault_independently() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let op = Operation::dual_binary32_from_f32(1.5, 2.0, -3.0, 0.5);

    // A fault in the upper lane's product window is attributed to lane 1
    // and leaves the lower lane's raw product untouched, and vice versa.
    for (bit, lane) in [(70u32, 1u8), (3u32, 0u8)] {
        let mut sim = Simulator::new(&n);
        let clean = run_raw(&mut sim, &ports, op);
        let forced = (clean.p0 >> bit) & 1 == 0;
        sim.inject_stuck_at(ports.chk_p0[bit as usize], forced);
        let raw = run_raw(&mut sim, &ports, op);
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
