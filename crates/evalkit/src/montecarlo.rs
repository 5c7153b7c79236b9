//! Monte-Carlo power measurement: drive a netlist with a workload and
//! derive activity-based power figures, optionally with a windowed
//! convergence trace ([`measure_unit_traced`]) or through the 256-lane
//! compiled activity engine ([`measure_unit_compiled_sharded`]).

use crate::calibrate::{FormatCal, GlitchCalibration};
use crate::workload::OperandGen;
use mfm_arith::MultiplierPorts;
use mfm_gatesim::{
    CompiledNetlist, CompiledSim, LivePowerTrace, Netlist, PowerBreakdown, PowerEstimator,
    Simulator, LANES,
};
use mfm_telemetry::Registry;
use mfmult::{Format, StructuralPorts};

/// Measures a 64×64 multiplier on `vectors` uniform random operand
/// pairs: one vector per settle after a one-vector warm-up
/// (combinational), or one operation per cycle after a pipeline-depth
/// warm-up (pipelined, `ports.latency > 0`). With `telemetry`, the
/// simulator also publishes its per-block toggle windows (64 vectors
/// each) on that registry; telemetry only observes, so the breakdown is
/// the same either way.
pub fn measure_multiplier(
    netlist: &Netlist,
    ports: &MultiplierPorts,
    vectors: usize,
    seed: u64,
    telemetry: Option<&Registry>,
) -> PowerBreakdown {
    let mut gen = OperandGen::new(seed);
    drive_multiplier(
        netlist,
        ports,
        vectors,
        telemetry,
        std::iter::repeat_with(|| gen.int64_pair()),
    )
}

/// The event-driven drive loop behind [`measure_multiplier`] and the
/// activity sweep: the first operand pairs of `operands` warm the unit
/// up (one settled vector, or a pipeline fill), the activity counters
/// reset, and the next `vectors` pairs are measured, one per settle or
/// one per cycle.
///
/// # Panics
///
/// Panics if `operands` ends before the warm-up and `vectors` pairs.
pub(crate) fn drive_multiplier(
    netlist: &Netlist,
    ports: &MultiplierPorts,
    vectors: usize,
    telemetry: Option<&Registry>,
    operands: impl IntoIterator<Item = (u64, u64)>,
) -> PowerBreakdown {
    let mut operands = operands.into_iter();
    let mut sim = Simulator::new(netlist);
    if let Some(registry) = telemetry {
        sim.attach_telemetry(registry, 64);
    }
    let mut step = |sim: &mut Simulator<'_>| {
        let (x, y) = operands.next().expect("operand source ran dry");
        if ports.latency > 0 {
            sim.step_cycle(&[(&ports.x, x as u128), (&ports.y, y as u128)]);
        } else {
            sim.set_bus(&ports.x, x as u128);
            sim.set_bus(&ports.y, y as u128);
            sim.settle();
        }
    };
    for _ in 0..ports.latency.max(1) {
        step(&mut sim);
    }
    sim.reset_activity();
    for _ in 0..vectors {
        step(&mut sim);
    }
    sim.flush_telemetry();
    let ops = if ports.latency > 0 {
        sim.cycles()
    } else {
        vectors as u64
    };
    PowerEstimator::from_activity(netlist, &sim, ops)
}

/// Raw activity counters from one measurement run — the merged sums of
/// several runs are valid inputs to [`PowerEstimator::from_toggles`],
/// which is how the sharded measurements combine their shards.
#[derive(Debug, Clone, Default)]
pub struct ActivityCounts {
    /// Per-net toggle counts (summed over lanes for compiled runs).
    pub toggles: Vec<u64>,
    /// Total toggles across all nets.
    pub events: u64,
    /// Clock cycles charged to the measurement (one per measured
    /// operation for pipelined units, zero for combinational ones).
    pub cycles: u64,
}

/// The event-driven counterpart of [`compiled_activity`]: warms the unit
/// up (pipeline fill, or one settled first vector that also drives the
/// format select), resets the activity counters, then issues `ops`
/// operations of `format`, one per cycle (pipelined) or one per settle
/// (combinational). `on_op(sim, done)` runs after each measured
/// operation.
fn event_activity(
    netlist: &Netlist,
    ports: &StructuralPorts,
    format: Format,
    ops: usize,
    seed: u64,
    mut on_op: impl FnMut(&Simulator<'_>, usize),
) -> ActivityCounts {
    let mut gen = OperandGen::new(seed);
    let mut sim = Simulator::new(netlist);
    let frmt = format.encoding() as u128;
    let mut step = |sim: &mut Simulator<'_>| {
        let op = gen.operation(format);
        if ports.latency > 0 {
            sim.step_cycle(&[
                (&ports.frmt, frmt),
                (&ports.xa, op.xa as u128),
                (&ports.yb, op.yb as u128),
            ]);
        } else {
            sim.set_bus(&ports.xa, op.xa as u128);
            sim.set_bus(&ports.yb, op.yb as u128);
            sim.settle();
        }
    };
    if ports.latency == 0 {
        sim.set_bus(&ports.frmt, frmt);
    }
    for _ in 0..ports.latency.max(1) {
        step(&mut sim);
    }
    sim.reset_activity();
    for done in 1..=ops {
        step(&mut sim);
        on_op(&sim, done);
    }
    ActivityCounts {
        toggles: sim.toggles().to_vec(),
        events: sim.total_events(),
        cycles: sim.cycles(),
    }
}

/// Splits `ops` over a **fixed** number of logical shards and runs
/// `measure(shard_ops, shard_seed(seed, k))` for every non-empty shard on
/// up to `threads` worker threads, returning the parts in shard order.
/// Shards `[0, ops % shards)` run one extra operation — a pure function
/// of `(ops, shards)`, independent of scheduling.
fn shard_activity(
    ops: usize,
    seed: u64,
    shards: usize,
    threads: usize,
    measure: impl Fn(usize, u64) -> ActivityCounts + Sync,
) -> Vec<ActivityCounts> {
    assert!(shards > 0, "need at least one shard");
    let (base, extra) = (ops / shards, ops % shards);
    crate::shard::run_shards(shards, threads, |k| {
        let my_ops = base + usize::from(k < extra);
        if my_ops == 0 {
            return ActivityCounts::default();
        }
        measure(my_ops, crate::shard::shard_seed(seed, k))
    })
}

/// Sums the per-net toggles, events and cycles of `parts` and derives one
/// breakdown over `ops` operations (the merged cycle count for pipelined
/// units), scaled by `cal`'s glitch-inflation factors when given.
pub(crate) fn merge_and_estimate(
    netlist: &Netlist,
    ports: &StructuralPorts,
    ops: usize,
    parts: &[ActivityCounts],
    cal: Option<&FormatCal>,
) -> PowerBreakdown {
    let mut toggles = vec![0u64; netlist.net_count()];
    let mut events = 0u64;
    let mut cycles = 0u64;
    for part in parts {
        for (sum, v) in toggles.iter_mut().zip(&part.toggles) {
            *sum += v;
        }
        events += part.events;
        cycles += part.cycles;
    }
    let measured_ops = if ports.latency > 0 {
        cycles
    } else {
        ops as u64
    };
    match cal {
        Some(fc) => PowerEstimator::from_toggles_calibrated(
            netlist,
            &toggles,
            events,
            cycles,
            measured_ops,
            &fc.per_block,
            fc.default_factor,
            fc.event_factor,
        ),
        None => PowerEstimator::from_toggles(netlist, &toggles, events, cycles, measured_ops),
    }
}

/// Measures the multi-format unit in one format: issues one operation per
/// cycle (pipelined) or one vector per step (combinational).
pub fn measure_unit(
    netlist: &Netlist,
    ports: &StructuralPorts,
    format: Format,
    ops: usize,
    seed: u64,
) -> PowerBreakdown {
    let counts = event_activity(netlist, ports, format, ops, seed, |_, _| {});
    merge_and_estimate(netlist, ports, ops, &[counts], None)
}

/// Thread-sharded [`measure_unit`]: splits the `ops` budget over a
/// **fixed** number of logical shards, measures each shard on its own
/// [`Simulator`] with its own PRNG stream
/// ([`crate::shard::shard_seed`]`(seed, k)`), and merges the per-net
/// toggle counters by integer addition before a single
/// [`PowerEstimator::from_toggles`] call.
///
/// The shard decomposition depends only on `(ops, shards)` and each
/// shard's workload only on `(seed, k)`, so the returned breakdown is
/// **bit-identical for any `threads` value** — worker threads merely
/// decide which core runs which shard. Note that the estimate differs
/// from the sequential [`measure_unit`] stream (each shard warms up and
/// draws operands independently); it is the same Monte-Carlo estimator
/// over a differently-partitioned sample.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn measure_unit_sharded(
    netlist: &Netlist,
    ports: &StructuralPorts,
    format: Format,
    ops: usize,
    seed: u64,
    shards: usize,
    threads: usize,
) -> PowerBreakdown {
    let parts = shard_activity(ops, seed, shards, threads, |n, s| {
        event_activity(netlist, ports, format, n, s, |_, _| {})
    });
    merge_and_estimate(netlist, ports, ops, &parts, None)
}

/// Measures the multi-format unit through the compiled 256-lane
/// activity engine: drives `ops` operations across [`LANES`] parallel
/// lanes (each lane carries an independent operand stream) and
/// accumulates **zero-delay** per-net toggle counts, [`LANES`] at a
/// time, in the gate sweep of each pass.
///
/// The counts see only settled-state transitions — glitches filtered by
/// real gate delays never appear — so they underestimate event-driven
/// activity by a workload-dependent factor; see
/// [`GlitchCalibration`](crate::calibrate::GlitchCalibration) for the
/// correction. Pipelined units stream one batch per clock edge after a
/// pipeline-depth warm-up and charge one clock cycle per measured
/// operation (each active lane is an independent sample of the same
/// physical unit, so lane-cycles are operation-cycles). Combinational
/// units charge no clock.
///
/// # Panics
///
/// Panics if `ops == 0`.
pub fn compiled_activity(
    prog: &CompiledNetlist,
    ports: &StructuralPorts,
    format: Format,
    ops: usize,
    seed: u64,
) -> ActivityCounts {
    assert!(ops > 0, "need at least one operation");
    let mut gen = OperandGen::new(seed);
    let mut sim = CompiledSim::new(prog);
    let width = ops.min(LANES);
    sim.set_bus_all(&ports.frmt, u128::from(format.encoding()));
    let (mut xa, mut yb) = (Vec::with_capacity(width), Vec::with_capacity(width));
    let mut drive = |sim: &mut CompiledSim<'_>, n: usize| {
        xa.clear();
        yb.clear();
        for _ in 0..n {
            let op = gen.operation(format);
            xa.push(op.xa as u128);
            yb.push(op.yb as u128);
        }
        sim.set_bus_lanes(&ports.xa, &xa);
        sim.set_bus_lanes(&ports.yb, &yb);
    };
    let pipelined = ports.latency > 0;
    // Warm-up: pipeline fill (pipelined) or one settled batch
    // (combinational), so the first measured transition set is typical —
    // the compiled analogue of `measure_unit`'s warm-up.
    if pipelined {
        for _ in 0..ports.latency {
            drive(&mut sim, width);
            sim.step_cycle();
        }
    } else {
        drive(&mut sim, width);
        sim.propagate();
    }
    sim.enable_activity(width);
    let mut active = width;
    let mut remaining = ops;
    while remaining > 0 {
        let n = remaining.min(width);
        if n != active {
            // Partial final round: stop counting the idle lanes.
            sim.set_active_lanes(n);
            active = n;
        }
        drive(&mut sim, n);
        if pipelined {
            sim.step_cycle();
        } else {
            sim.propagate();
        }
        remaining -= n;
    }
    ActivityCounts {
        toggles: sim.toggles().to_vec(),
        events: sim.activity_events(),
        cycles: if pipelined { ops as u64 } else { 0 },
    }
}

/// Compiled, thread-sharded [`measure_unit`]: the 256-lane analogue of
/// [`measure_unit_sharded`]. The `ops` budget is split over a **fixed**
/// shard count, each shard runs [`compiled_activity`] with its own PRNG
/// stream ([`crate::shard::shard_seed`]`(seed, k)`), and the per-net
/// toggle counters are merged by integer addition before a single
/// estimator call — so the result is **bit-identical for any `threads`
/// value**.
///
/// With `cal = None` the breakdown is built from raw zero-delay counts
/// ([`PowerEstimator::from_toggles`]) and underestimates glitch power;
/// pass a [`GlitchCalibration`] holding this `format` to scale each
/// block by its calibrated glitch-inflation factor
/// ([`PowerEstimator::from_toggles_calibrated`]).
///
/// # Panics
///
/// Panics if `shards == 0` or `ops == 0`.
#[allow(clippy::too_many_arguments)] // mirrors measure_unit_sharded plus the program and calibration
pub fn measure_unit_compiled_sharded(
    netlist: &Netlist,
    prog: &CompiledNetlist,
    ports: &StructuralPorts,
    format: Format,
    ops: usize,
    seed: u64,
    shards: usize,
    threads: usize,
    cal: Option<&GlitchCalibration>,
) -> PowerBreakdown {
    assert!(ops > 0, "need at least one operation");
    let parts = shard_activity(ops, seed, shards, threads, |n, s| {
        compiled_activity(prog, ports, format, n, s)
    });
    let cal = cal.and_then(|c| c.for_format(format));
    merge_and_estimate(netlist, ports, ops, &parts, cal)
}

/// One point of a Monte-Carlo convergence trace: the pJ/op observed in
/// the most recent window plus the running statistics over all windows
/// so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Total measured operations at this point.
    pub ops: u64,
    /// Energy per operation inside the last window, in picojoules.
    pub window_pj_per_op: f64,
    /// Running mean of the per-window pJ/op values.
    pub mean_pj_per_op: f64,
    /// Running sample standard deviation of the per-window values
    /// (0 while fewer than two windows exist).
    pub stddev_pj_per_op: f64,
}

/// Welford's online mean/variance accumulator — numerically stable
/// running statistics without storing the samples.
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// [`measure_unit`] plus observability: samples a
/// [`LivePowerTrace`] every `window` operations and records the
/// convergence of the Monte-Carlo estimate (running mean and stddev of
/// the per-window pJ/op). When a `registry` is given, the gauges
/// `mc.pj_per_op.{window, mean, stddev}` and the counter `mc.ops` are
/// kept live while the measurement runs.
///
/// The returned [`PowerBreakdown`] is identical to what
/// [`measure_unit`] computes for the same arguments.
pub fn measure_unit_traced(
    netlist: &Netlist,
    ports: &StructuralPorts,
    format: Format,
    ops: usize,
    seed: u64,
    window: usize,
    registry: Option<&Registry>,
) -> (PowerBreakdown, Vec<ConvergencePoint>) {
    assert!(window > 0, "window must be at least one operation");
    // The counters are reset after the warm-up, so the trace starts from
    // zero activity.
    let mut trace = LivePowerTrace::from_counts(netlist, &vec![0; netlist.net_count()], 0);
    let mut stats = Welford::default();
    let mut points = Vec::new();
    let (g_window, g_mean, g_stddev, c_ops) = match registry {
        Some(r) => (
            Some(r.gauge("mc.pj_per_op.window")),
            Some(r.gauge("mc.pj_per_op.mean")),
            Some(r.gauge("mc.pj_per_op.stddev")),
            Some(r.counter("mc.ops")),
        ),
        None => (None, None, None, None),
    };
    if let Some(g) = &g_window {
        trace = trace.with_gauge(g.clone());
    }

    let counts = event_activity(netlist, ports, format, ops, seed, |sim, done| {
        if let Some(c) = &c_ops {
            c.inc();
        }
        if done.is_multiple_of(window) || done == ops {
            if let Some(s) = trace.sample(sim, done as u64) {
                stats.push(s.pj_per_op);
                let p = ConvergencePoint {
                    ops: done as u64,
                    window_pj_per_op: s.pj_per_op,
                    mean_pj_per_op: stats.mean,
                    stddev_pj_per_op: stats.stddev(),
                };
                if let Some(g) = &g_mean {
                    g.set(p.mean_pj_per_op);
                }
                if let Some(g) = &g_stddev {
                    g.set(p.stddev_pj_per_op);
                }
                points.push(p);
            }
        }
    });
    let power = merge_and_estimate(netlist, ports, ops, &[counts], None);
    (power, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfm_arith::{build_multiplier, MultiplierConfig};
    use mfm_gatesim::TechLibrary;
    use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
    use mfmult::structural::build_unit;

    #[test]
    fn combinational_measurement_is_reproducible() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_multiplier(&mut n, MultiplierConfig::radix16());
        let p1 = measure_multiplier(&n, &ports, 10, 99, None);
        let p2 = measure_multiplier(&n, &ports, 10, 99, None);
        assert_eq!(p1.dynamic_pj_per_op, p2.dynamic_pj_per_op);
        assert!(p1.dynamic_pj_per_op > 0.0);
    }

    #[test]
    fn pipelined_measurement_includes_clock_energy() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_multiplier(&mut n, MultiplierConfig::radix16().pipelined());
        let p = measure_multiplier(&n, &ports, 10, 7, None);
        assert!(p.clock_pj_per_op > 0.0);
        assert!(p.dynamic_pj_per_op > 0.0);
    }

    #[test]
    fn instrumented_measurement_equals_the_plain_one() {
        // The Table III `--json` run: the paper's design point with the
        // simulator's telemetry attached.
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_multiplier(&mut n, MultiplierConfig::radix16().pipelined());
        let registry = Registry::new();
        let observed = measure_multiplier(&n, &ports, 70, 2017, Some(&registry));
        assert_eq!(observed, measure_multiplier(&n, &ports, 70, 2017, None));
        assert!(
            registry.prometheus().contains("sim_block_toggles"),
            "per-block toggle telemetry published"
        );
    }

    #[test]
    fn unit_formats_order_by_activity() {
        // int64 exercises the full 64×64 array; binary64 only 53×53 of it;
        // the binary32 formats even less. The energy ordering is the core
        // of the paper's Table V.
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_unit(&mut n);
        let e_int = measure_unit(&n, &u, Format::Int64, 30, 5).energy_pj_per_op();
        let e_b64 = measure_unit(&n, &u, Format::Binary64, 30, 5).energy_pj_per_op();
        let e_single = measure_unit(&n, &u, Format::SingleBinary32, 30, 5).energy_pj_per_op();
        assert!(
            e_int > e_b64,
            "int64 {e_int:.1} pJ ≤ binary64 {e_b64:.1} pJ"
        );
        assert!(
            e_b64 > e_single,
            "binary64 {e_b64:.1} pJ ≤ single b32 {e_single:.1} pJ"
        );
    }

    /// The combinational unit and the Fig. 5 pipelined unit, so both
    /// branches of the shared event-driven driver are exercised.
    fn both_units() -> Vec<(Netlist, StructuralPorts)> {
        let mut comb = Netlist::new(TechLibrary::cmos45lp());
        let cu = build_unit(&mut comb);
        let mut pipe = Netlist::new(TechLibrary::cmos45lp());
        let pu = build_pipelined_unit(&mut pipe, PipelinePlacement::Fig5);
        vec![(comb, cu), (pipe, pu)]
    }

    #[test]
    fn traced_measurement_matches_untraced_and_converges() {
        for (n, u) in both_units() {
            let registry = mfm_telemetry::Registry::new();
            let plain = measure_unit(&n, &u, Format::Binary64, 24, 5);
            let (traced, points) =
                measure_unit_traced(&n, &u, Format::Binary64, 24, 5, 6, Some(&registry));
            // Observability must not change the measurement.
            assert_eq!(plain.dynamic_pj_per_op, traced.dynamic_pj_per_op);
            assert_eq!(plain.clock_pj_per_op, traced.clock_pj_per_op);
            assert_eq!(points.len(), 4);
            let last = points.last().unwrap();
            assert_eq!(last.ops, 24);
            // The running mean over all windows equals the overall average.
            let weighted: f64 = points.iter().map(|p| p.window_pj_per_op * 6.0).sum();
            assert!((weighted / 24.0 - last.mean_pj_per_op).abs() < 1e-9);
            assert!(last.stddev_pj_per_op >= 0.0);
            // Gauges track the final point.
            assert_eq!(registry.counter("mc.ops").get(), 24);
            assert!(
                (registry.gauge("mc.pj_per_op.mean").get() - last.mean_pj_per_op).abs() < 1e-12
            );
            assert!(
                (registry.gauge("mc.pj_per_op.window").get() - last.window_pj_per_op).abs() < 1e-12
            );
        }
    }

    #[test]
    fn sharded_measurement_is_thread_invariant() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_unit(&mut n);
        let one = measure_unit_sharded(&n, &u, Format::Binary64, 22, 9, 4, 1);
        let four = measure_unit_sharded(&n, &u, Format::Binary64, 22, 9, 4, 4);
        assert_eq!(one.dynamic_pj_per_op, four.dynamic_pj_per_op);
        assert_eq!(one.transitions_per_op, four.transitions_per_op);
        assert_eq!(one.per_block_pj, four.per_block_pj);
        assert!(one.dynamic_pj_per_op > 0.0);
    }

    #[test]
    fn single_shard_equals_plain_measurement_with_derived_seed() {
        for (n, u) in both_units() {
            let sharded = measure_unit_sharded(&n, &u, Format::Int64, 12, 3, 1, 1);
            let plain = measure_unit(&n, &u, Format::Int64, 12, crate::shard::shard_seed(3, 0));
            assert_eq!(sharded.dynamic_pj_per_op, plain.dynamic_pj_per_op);
            assert_eq!(sharded.clock_pj_per_op, plain.clock_pj_per_op);
            assert_eq!(sharded.transitions_per_op, plain.transitions_per_op);
        }
    }

    #[test]
    fn sharded_pipelined_measurement_is_thread_invariant() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
        let one = measure_unit_sharded(&n, &u, Format::DualBinary32, 10, 17, 3, 1);
        let two = measure_unit_sharded(&n, &u, Format::DualBinary32, 10, 17, 3, 2);
        assert_eq!(one.dynamic_pj_per_op, two.dynamic_pj_per_op);
        assert_eq!(one.clock_pj_per_op, two.clock_pj_per_op);
        assert_eq!(one.ops, 10, "merged cycles equal the op budget");
    }

    #[test]
    fn pipelined_unit_measurement_runs() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
        let p = measure_unit(&n, &u, Format::DualBinary32, 10, 11);
        assert!(p.energy_pj_per_op() > 0.0);
        assert_eq!(p.ops, 10);
    }
}
