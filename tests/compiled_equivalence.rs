//! Differential tests: the compiled 256-lane bit-parallel engine against
//! the event-driven simulator and the bit-exact functional reference.
//!
//! Three claims are pinned here:
//!
//! 1. **Functional equivalence** — for int64, binary64 and dual-binary32,
//!    ≥10k seeded random vectors evaluated by the compiled engine match
//!    the functional reference's hardware view bit for bit, and a seeded
//!    subsample is additionally compared *directly* against the
//!    event-driven settled outputs (including the checker taps `p0`/`p1`).
//!    The event-driven simulator is itself held equal to the reference
//!    over random vectors in `structural_equivalence.rs`, so the two
//!    engines are pinned to each other across the full set.
//! 2. **Fault-overlay equivalence** — over the *complete* stuck-at
//!    universe of one hardware block (`SPEC`, both polarities of every
//!    cell output), the faulted compiled outputs equal the faulted
//!    event-driven outputs per site and vector.
//! 3. **Shard/thread invariance** — the sharded campaigns return
//!    bit-identical results at 1 and 4 worker threads.
//!
//! The heavyweight event-driven comparisons use fewer vectors in debug
//! builds, as everywhere else in this suite.

use mfm_repro::evalkit::faultcov::{fault_coverage_parallel, FaultCoverageConfig};
use mfm_repro::evalkit::montecarlo::measure_unit_sharded;
use mfm_repro::evalkit::workload::OperandGen;
use mfm_repro::gatesim::fault::enumerate_stuck_sites;
use mfm_repro::gatesim::{
    lane_mask, CompiledNetlist, CompiledSim, Netlist, Simulator, TechLibrary, LANES,
};
use mfm_repro::mfmult::selfcheck::{run_raw, run_raw_compiled};
use mfm_repro::mfmult::structural::build_unit;
use mfm_repro::mfmult::{Format, FunctionalUnit, Operation};

/// Vectors per format through the compiled engine (LANES = 256 per
/// pass, so this stays cheap even in debug builds).
const COMPILED_VECTORS: usize = 10_240;

/// Of those, how many are also replayed on the event-driven simulator.
fn event_driven_sample() -> usize {
    if cfg!(debug_assertions) {
        32
    } else {
        192
    }
}

/// The flag bits the functional reference exposes on the hardware bus.
fn hardware_view(r: &mfm_repro::mfmult::MultResult) -> (u64, u64, u8) {
    mfm_repro::evalkit::faultcov::hardware_view(r)
}

#[test]
fn compiled_matches_reference_and_event_driven_per_format() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let prog = CompiledNetlist::compile(&n).expect("acyclic");
    let mut compiled = CompiledSim::new(&prog);
    let mut event = Simulator::new(&n);
    let reference = FunctionalUnit::new();
    let sample_every = COMPILED_VECTORS / event_driven_sample();

    for format in [Format::Int64, Format::Binary64, Format::DualBinary32] {
        let mut gen = OperandGen::new(0xC0DE ^ format.encoding());
        let ops: Vec<Operation> = (0..COMPILED_VECTORS)
            .map(|_| gen.operation(format))
            .collect();
        let mut checked = 0usize;
        let mut direct = 0usize;
        for (chunk_idx, chunk) in ops.chunks(LANES).enumerate() {
            let raws = run_raw_compiled(&mut compiled, &ports, chunk);
            for (lane, (&op, raw)) in chunk.iter().zip(&raws).enumerate() {
                let golden = hardware_view(&reference.execute(op));
                assert_eq!(
                    (raw.ph, raw.pl, raw.flags),
                    golden,
                    "{format:?} vector {}: compiled vs reference",
                    chunk_idx * LANES + lane
                );
                checked += 1;
                if (chunk_idx * LANES + lane).is_multiple_of(sample_every) {
                    let ev = run_raw(&mut event, &ports, op);
                    assert_eq!(
                        (raw.ph, raw.pl, raw.flags, raw.p0, raw.p1),
                        (ev.ph, ev.pl, ev.flags, ev.p0, ev.p1),
                        "{format:?} vector {}: compiled vs event-driven",
                        chunk_idx * LANES + lane
                    );
                    direct += 1;
                }
            }
        }
        assert!(checked >= 10_000, "{format:?}: only {checked} vectors");
        assert!(
            direct >= event_driven_sample(),
            "{format:?}: {direct} direct"
        );
    }
}

#[test]
fn fault_overlay_matches_event_driven_on_spec_block() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let prog = CompiledNetlist::compile(&n).expect("acyclic");

    // The complete stuck-at universe of one block: every cell-output net
    // of SPEC, both polarities. In debug builds a deterministic stride
    // keeps the event-driven half of the comparison affordable; release
    // runs the whole universe.
    let sites: Vec<_> = enumerate_stuck_sites(&n)
        .into_iter()
        .filter(|s| s.block == "SPEC")
        .collect();
    assert!(sites.len() >= 300, "SPEC universe unexpectedly small");
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let sites: Vec<_> = sites.into_iter().step_by(stride).collect();

    let mut gen = OperandGen::new(0x5bec);
    let ops = [
        gen.operation(Format::Int64),
        gen.operation(Format::Binary64),
    ];
    let mut event = Simulator::new(&n);

    for chunk in sites.chunks(LANES) {
        let mut fsim = CompiledSim::new(&prog);
        for (lane, site) in chunk.iter().enumerate() {
            fsim.inject_stuck_at(site.net, lane_mask(lane), site.value);
        }
        for &op in &ops {
            // Same operation on every lane: lane k carries fault k.
            let lane_ops = vec![op; chunk.len()];
            let raws = run_raw_compiled(&mut fsim, &ports, &lane_ops);
            for (site, raw) in chunk.iter().zip(&raws) {
                event.inject_stuck_at(site.net, site.value);
                event.settle();
                let ev = run_raw(&mut event, &ports, op);
                event.clear_fault(site.net);
                event.settle();
                assert_eq!(
                    (raw.ph, raw.pl, raw.flags, raw.p0, raw.p1),
                    (ev.ph, ev.pl, ev.flags, ev.p0, ev.p1),
                    "site {:?} stuck at {} under {op:?}",
                    site.net,
                    u8::from(site.value)
                );
            }
        }
    }
}

#[test]
fn fault_campaign_is_shard_and_thread_invariant() {
    let cfg = FaultCoverageConfig {
        seed: 424242,
        sites: 130, // a single partial 256-lane shard
        vectors_per_format: 1,
        quad_lanes: false,
    };
    let one = fault_coverage_parallel(&cfg, 1);
    let four = fault_coverage_parallel(&cfg, 4);
    assert_eq!(one, four, "thread count changed the campaign report");
    assert_eq!(one.sites_run, 130);
    assert_eq!(one.blocks.totals().ops(), 130 * 4);
}

#[test]
fn fault_campaign_is_thread_invariant_across_shard_boundaries() {
    // 520 sites decompose into three 256-lane shards (256/256/8), so the
    // campaign exercises full-word shards, the partial tail shard and the
    // merge across all three — at the widened [u64; 4] lane word. The
    // campaign is all-compiled, so this stays cheap even in debug builds.
    let cfg = FaultCoverageConfig {
        seed: 515151,
        sites: 520,
        vectors_per_format: 1,
        quad_lanes: false,
    };
    let one = fault_coverage_parallel(&cfg, 1);
    let four = fault_coverage_parallel(&cfg, 4);
    assert_eq!(one, four, "thread count changed the campaign report");
    assert_eq!(one.sites_run, 520);
    assert_eq!(one.blocks.totals().ops(), 520 * 4);
}

#[test]
fn montecarlo_sharding_is_thread_invariant() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let ops = if cfg!(debug_assertions) { 12 } else { 48 };
    let one = measure_unit_sharded(&n, &ports, Format::Binary64, ops, 7, 4, 1);
    let four = measure_unit_sharded(&n, &ports, Format::Binary64, ops, 7, 4, 4);
    assert_eq!(one.dynamic_pj_per_op, four.dynamic_pj_per_op);
    assert_eq!(one.clock_pj_per_op, four.clock_pj_per_op);
    assert_eq!(one.transitions_per_op, four.transitions_per_op);
    assert_eq!(one.per_block_pj, four.per_block_pj);
    assert_eq!(one.per_kind_pj, four.per_kind_pj);
}
