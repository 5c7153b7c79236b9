//! `sim_campaign`: Table V-style Monte-Carlo power on the pipelined unit
//! for the four paper formats (compiled 256-lane activity engine plus
//! glitch calibration), then a compiled, thread-sharded stuck-at fault
//! campaign. The paper's reproduction spends its time here; `lint`,
//! `server` and `resilient` do no work.

use std::time::Instant;

use mfm_evalkit::calibrate::GlitchCalibration;
use mfm_evalkit::faultcov::{fault_coverage_parallel, FaultCoverageConfig};
use mfm_evalkit::montecarlo::{measure_unit_compiled_sharded, measure_unit_sharded};
use mfm_evalkit::shard::shard_seed;
use mfm_evalkit::workload::OperandGen;
use mfm_gatesim::{CompiledNetlist, CompiledSim, Netlist, Simulator, TechLibrary, LANES};
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::selfcheck::run_raw;
use mfmult::{Format, StructuralPorts};

use crate::stats::{median, quantile, Digest};
use crate::{Measured, RunConfig};

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct SimSizes {
    /// Event-driven operations per format in the glitch calibration.
    pub cal_ops: usize,
    /// Monte-Carlo operations per format per round.
    pub mc_ops: usize,
    /// Fixed logical shard count of the Monte-Carlo measurement.
    pub shards: usize,
    /// Stuck-at sites per fault campaign.
    pub fault_sites: usize,
    /// Vectors per site and format in the fault campaign.
    pub fault_vectors: usize,
    /// Operations per format in the event-driven parity check.
    pub parity_ops: usize,
    /// Operations timed by the event-driven settle probe (traced run).
    pub settle_probe_ops: usize,
    /// 256-lane batches timed by the compiled-engine probe (traced run).
    pub batch_probe_batches: usize,
}

impl SimSizes {
    /// 256-lane shards `fault_coverage_parallel` splits the campaign into.
    pub fn fault_shards(&self) -> usize {
        self.fault_sites.div_ceil(LANES)
    }
}

/// The contract the calibrated compiled estimate is held to.
const PARITY_BUDGET: f64 = 0.05;

fn fmt_name(f: Format) -> &'static str {
    match f {
        Format::Int64 => "int64",
        Format::Binary64 => "binary64",
        Format::DualBinary32 => "dual_binary32",
        Format::SingleBinary32 => "single_binary32",
        Format::QuadBinary16 => "quad_binary16",
    }
}

struct Built {
    netlist: Netlist,
    ports: StructuralPorts,
    prog: CompiledNetlist,
    cal: GlitchCalibration,
}

/// Builds the pipelined unit, compiles it and calibrates the compiled
/// power estimate against the event-driven simulator.
fn setup(cfg: &RunConfig, rep: u64) -> Built {
    let tr = &cfg.tracer;
    let (netlist, ports) = tr.span("core.build", rep, || {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let p = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
        (n, p)
    });
    let prog = tr.span("gatesim.compile", rep, || {
        CompiledNetlist::compile(&netlist).expect("pipelined unit is acyclic")
    });
    // A shard index far above any real shard count keeps the calibration
    // stream disjoint from the measurement streams of the same seed.
    let cal = tr.span("evalkit.calibrate", rep, || {
        GlitchCalibration::run(
            &netlist,
            &prog,
            &ports,
            cfg.sizes.sim.cal_ops,
            shard_seed(cfg.seed, 1 << 32),
        )
    });
    Built {
        netlist,
        ports,
        prog,
        cal,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, m: &mut Measured) {
    let tr = &cfg.tracer;
    let sz = cfg.sizes.sim;

    // Set-ups before and after the timed phase, so that the median spans
    // the run; the first one serves it.
    let reps = cfg.sizes.setup_reps as u64;
    let mut setup_s = Vec::new();
    let mut built: Option<Built> = None;
    for rep in 0..reps {
        let t0 = if rep == 0 {
            cfg.started
        } else {
            Instant::now()
        };
        let b = tr.span("setup", rep, || setup(cfg, rep));
        setup_s.push(t0.elapsed().as_secs_f64());
        match &built {
            Some(first) => m.check("calibration repeats across set-ups", first.cal == b.cal),
            None => built = Some(b),
        }
    }
    let b = built.expect("at least one set-up");

    let fault_cfg = FaultCoverageConfig {
        seed: cfg.seed,
        sites: sz.fault_sites,
        vectors_per_format: sz.fault_vectors,
        quad_lanes: false,
    };

    // Timed rounds. Every round measures the same seeded populations, so
    // each round's digest must equal the first one's.
    let mut round_ms = Vec::new();
    let mut round_rate = Vec::new();
    let mut mc_rate = Vec::new();
    let mut fc_rate = Vec::new();
    let mut fc_ops = 0u64;
    let mut first_digest: Option<u64> = None;
    let mut last_report = None;
    let end = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut round = 0u64;
    tr.span("timed", 0, || {
        while round < 2 || Instant::now() < end {
            let mut d = Digest::default();
            let t_round = Instant::now();
            let report = tr.span("round", round, || {
                let t_mc = Instant::now();
                for f in Format::ALL {
                    let p = tr.span(&format!("evalkit.mc.{}", fmt_name(f)), round, || {
                        measure_unit_compiled_sharded(
                            &b.netlist,
                            &b.prog,
                            &b.ports,
                            f,
                            sz.mc_ops,
                            cfg.seed,
                            sz.shards,
                            cfg.threads,
                            Some(&b.cal),
                        )
                    });
                    d.str(fmt_name(f)).f64(p.energy_pj_per_op()).u64(p.ops);
                }
                let mc_s = t_mc.elapsed().as_secs_f64();
                mc_rate.push((sz.mc_ops * Format::ALL.len()) as f64 / mc_s);
                let t_fc = Instant::now();
                let report = tr.span("evalkit.faultcov", round, || {
                    fault_coverage_parallel(&fault_cfg, cfg.threads)
                });
                let fc_s = t_fc.elapsed().as_secs_f64();
                fc_ops = report.blocks.totals().ops();
                fc_rate.push(fc_ops as f64 / fc_s);
                d.str(&format!("{report:?}"));
                report
            });
            let secs = t_round.elapsed().as_secs_f64();
            round_ms.push(secs * 1e3);
            round_rate.push((sz.mc_ops * Format::ALL.len()) as f64 / secs + fc_ops as f64 / secs);
            match first_digest {
                None => first_digest = Some(d.value()),
                Some(first) => m.check("round digest repeats", d.value() == first),
            }
            last_report = Some(report);
            round += 1;
        }
    });
    let report = last_report.expect("at least one round");
    tr.span("setup_after", 0, || {
        for rep in reps..2 * reps {
            let t0 = Instant::now();
            let again = tr.span("setup", rep, || setup(cfg, rep));
            setup_s.push(t0.elapsed().as_secs_f64());
            m.check("calibration repeats across set-ups", again.cal == b.cal);
        }
    });
    m.set("setup_s", median(&setup_s));
    m.check(
        "zero silent corruptions in the fault campaign",
        report.silent() == 0,
    );

    tr.span("gates", 0, || {
        // Thread invariance: the campaign must not depend on scheduling,
        // which it only can across more than one shard.
        m.check(
            "the fault campaign spans more than one 256-lane shard",
            sz.fault_shards() > 1,
        );
        let other_threads = if cfg.threads == 1 { 2 } else { 1 };
        let again = tr.span("evalkit.faultcov_threads", other_threads as u64, || {
            fault_coverage_parallel(&fault_cfg, other_threads)
        });
        m.check("fault report identical at 1 and N threads", again == report);

        // Parity: calibrated compiled vs event-driven on one population.
        let t_par = Instant::now();
        let mut worst: f64 = 0.0;
        let mut d = Digest::default();
        for (k, f) in Format::ALL.into_iter().enumerate() {
            let (ed, compiled) = tr.span("evalkit.parity", k as u64, || {
                let ed = measure_unit_sharded(
                    &b.netlist,
                    &b.ports,
                    f,
                    sz.parity_ops,
                    cfg.seed,
                    sz.shards,
                    cfg.threads,
                );
                let compiled = measure_unit_compiled_sharded(
                    &b.netlist,
                    &b.prog,
                    &b.ports,
                    f,
                    sz.parity_ops,
                    cfg.seed,
                    sz.shards,
                    cfg.threads,
                    Some(&b.cal),
                );
                (ed, compiled)
            });
            let err = compiled.energy_pj_per_op() / ed.energy_pj_per_op() - 1.0;
            m.check(
                &format!(
                    "{} calibrated power within ±5 % of event-driven",
                    fmt_name(f)
                ),
                err.abs() <= PARITY_BUDGET,
            );
            worst = worst.max(err.abs());
            d.f64(ed.energy_pj_per_op())
                .f64(compiled.energy_pj_per_op());
        }
        m.set("evalkit.parity_ms", t_par.elapsed().as_secs_f64() * 1e3);
        m.set("power_err_pct", worst * 100.0);
        m.digest.u64(first_digest.unwrap_or(0)).u64(d.value());
    });

    if tr.enabled() {
        tr.span("probes", 0, || probes(cfg, &b, m));
    }

    m.attempted_ops = round * (sz.mc_ops * Format::ALL.len()) as u64 + round * fc_ops;
    m.set("ops_per_s", median(&round_rate));
    m.set("lat_p50_ms", median(&round_ms));
    m.set("lat_p75_ms", quantile(&round_ms, 0.75));
    m.set("lat_p90_ms", quantile(&round_ms, 0.9));
    m.set("power_ops_per_s", median(&mc_rate));
    m.set("fault_cls_per_s", median(&fc_rate));
    m.set("evalkit.faultcov.ops", fc_ops as f64);
    m.set_span_median(tr, "core.build_ms", "core.build");
    m.set_span_median(tr, "gatesim.compile_ms", "gatesim.compile");
    m.set_span_median(tr, "evalkit.calibrate_ms", "evalkit.calibrate");
    m.set_span_median(tr, "evalkit.faultcov_ms", "evalkit.faultcov");
    for f in Format::ALL {
        m.set_span_median(
            tr,
            &format!("evalkit.mc_ms.{}", fmt_name(f)),
            &format!("evalkit.mc.{}", fmt_name(f)),
        );
    }
}

/// Layer microbenchmarks on the workload's own operands: the compiled
/// 256-lane engine with activity counting on, and the event-driven
/// settle the service's rescue path runs on.
fn probes(cfg: &RunConfig, b: &Built, m: &mut Measured) {
    let sz = cfg.sizes.sim;
    let tr = &cfg.tracer;
    let mut gen = OperandGen::new(cfg.seed);
    let fmt = Format::Int64;

    let mut sim = CompiledSim::new(&b.prog);
    sim.set_bus_all(&b.ports.frmt, u128::from(fmt.encoding()));
    sim.enable_activity(LANES);
    let batches: Vec<Vec<(u64, u64)>> = (0..sz.batch_probe_batches)
        .map(|_| {
            (0..LANES)
                .map(|_| {
                    let op = gen.operation(fmt);
                    (op.xa, op.yb)
                })
                .collect()
        })
        .collect();
    let t = Instant::now();
    tr.span("gatesim.compiled.batch256", 0, || {
        for batch in &batches {
            for (lane, &(xa, yb)) in batch.iter().enumerate() {
                sim.set_bus_lane(&b.ports.xa, lane, u128::from(xa));
                sim.set_bus_lane(&b.ports.yb, lane, u128::from(yb));
            }
            sim.step_cycle();
        }
    });
    let ops = (sz.batch_probe_batches * LANES) as f64;
    m.set(
        "gatesim.compiled.batch256_ns_per_op",
        t.elapsed().as_nanos() as f64 / ops,
    );
    std::hint::black_box(sim.activity_events());

    let ops: Vec<_> = (0..sz.settle_probe_ops)
        .map(|_| gen.operation(fmt))
        .collect();
    let mut sim = Simulator::new(&b.netlist);
    let t = Instant::now();
    tr.span("gatesim.sim.settle", 0, || {
        for &op in &ops {
            std::hint::black_box(run_raw(&mut sim, &b.ports, op));
        }
    });
    m.set(
        "gatesim.sim.ns_per_op",
        t.elapsed().as_nanos() as f64 / sz.settle_probe_ops as f64,
    );
}
