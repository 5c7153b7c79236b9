//! Streams JSON-lines telemetry for a mixed-format workload on the
//! pipelined unit, every operation run on the event-driven simulator
//! (`run_raw`) and judged by the self-checks (`check_raw`): per-window
//! operation counts and live pJ/op, an incident record for every check
//! that fails, and a final registry snapshot. Halfway through the run
//! one int64 operation runs under a stuck-at on the P0 LSB, forced to
//! the complement of its exact value, so the incident path always
//! fires.
//!
//! Usage: `observe [--ops N] [--window N] [--seed S] [--compiled]
//! [--cal-ops N] [--json <path>] [--prom <path>]` (defaults: 400 ops,
//! window 50).
//!
//! `--compiled` runs the same mixed workload through the 256-lane
//! compiled activity engine instead of the event-driven simulator: the
//! live pJ/op comes from zero-delay toggle counts scaled by a
//! glitch-inflation factor calibrated on `--cal-ops` event-driven
//! operations (default 24). The compiled mode places no upset and
//! reports no incidents.
//!
//! Line shapes (one JSON object per line on stdout):
//!
//! - `{"event":"start", ...}` — run parameters and netlist size;
//! - `{"event":"incident", ...}` — a failed self-check: the 1-based op
//!   ordinal, the simulator cycle, the format, `"kind":"check_failure"`
//!   and the check that fired;
//! - `{"event":"window", ...}` — op counts per format, cycles, live
//!   window pJ/op and running mean;
//! - `{"event":"snapshot","metrics":{...}}` — final registry snapshot.

use mfm_bench::cli;
use mfm_evalkit::calibrate::GlitchCalibration;
use mfm_evalkit::runreport::RunReport;
use mfm_evalkit::workload::OperandGen;
use mfm_gatesim::{
    CompiledNetlist, CompiledSim, LivePowerTrace, Netlist, PowerEstimator, Simulator, TechLibrary,
    TimingAnalysis, LANES,
};
use mfm_telemetry::json::JsonObject;
use mfm_telemetry::Registry;
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::selfcheck::{check_raw, run_raw};
use mfmult::Format;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ops = cli::arg_value(&args, "--ops", 400);
    let window = cli::arg_value(&args, "--window", 50).max(1);
    let seed = cli::arg_value(&args, "--seed", 2017);
    if cli::has_flag(&args, "--compiled") {
        run_compiled(&args, ops, window, seed);
        return;
    }

    let registry = Registry::new();
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    let sta = TimingAnalysis::new(&n).report();
    let mut sim = Simulator::new(&n);
    sim.attach_telemetry(&registry, 64);
    let upset_net = ports.chk_p0[0];
    let mut trace =
        LivePowerTrace::new(&n, &sim).with_gauge(registry.gauge("observe.pj_per_op.window"));

    let mut start = JsonObject::new();
    start
        .field_str("event", "start")
        .field_u64("ops", ops)
        .field_u64("window", window)
        .field_u64("seed", seed)
        .field_u64("cells", n.cell_count() as u64)
        .field_u64("nets", n.net_count() as u64)
        .field_f64("area_um2", n.area_um2())
        .field_f64("max_freq_mhz", sta.max_freq_mhz());
    println!("{}", start.finish());

    let mut gen = OperandGen::new(seed);
    let mut counts = [0u64; 4];
    let mut incidents = 0u64;
    // Upset an int64 op near the middle of the run (every fourth op is
    // int64). Its P0 window is exactly xa·yb, so the P0 LSB must read
    // xa·yb's LSB: forcing the complement makes the residue check fire.
    let upset_op = (ops / 2) & !3;
    for i in 0..ops {
        let slot = (i % Format::ALL.len() as u64) as usize;
        let op = gen.operation(Format::ALL[slot]);
        let upset = i == upset_op;
        if upset {
            sim.inject_stuck_at(upset_net, op.xa & op.yb & 1 == 0);
        }
        let raw = run_raw(&mut sim, &ports, op);
        if upset {
            sim.clear_fault(upset_net);
            sim.settle();
        }
        counts[slot] += 1;
        let done = i + 1;
        if let Err(e) = check_raw(op, &raw) {
            incidents += 1;
            let mut line = JsonObject::new();
            line.field_str("event", "incident")
                .field_u64("op", done)
                .field_u64("cycle", sim.cycles())
                .field_str("format", op.format.label())
                .field_str("kind", "check_failure")
                .field_str("detail", &e.to_string());
            println!("{}", line.finish());
        }
        if done.is_multiple_of(window) || done == ops {
            let sample = trace.sample(&sim, done);
            let mut by_format = JsonObject::new();
            for (slot, f) in Format::ALL.iter().enumerate() {
                by_format.field_u64(f.label(), counts[slot]);
            }
            let mut line = JsonObject::new();
            line.field_str("event", "window")
                .field_u64("ops", done)
                .field_u64("cycles", sim.cycles())
                .field_u64("incidents", incidents)
                .field_raw("ops_by_format", &by_format.finish());
            if let Some(s) = sample {
                line.field_f64("pj_per_op_window", s.pj_per_op);
            }
            line.field_f64("pj_per_op_mean", trace.mean_pj_per_op());
            println!("{}", line.finish());
        }
    }
    sim.flush_telemetry();

    let mut snap = JsonObject::new();
    snap.field_str("event", "snapshot")
        .field_raw("metrics", &registry.snapshot_json());
    println!("{}", snap.finish());

    if let Some(path) = cli::arg_str(&args, "--prom") {
        std::fs::write(&path, registry.prometheus()).expect("write prometheus file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = cli::json_path(&args) {
        let p = PowerEstimator::from_activity(&n, &sim, ops);
        let mut report = RunReport::new("observe");
        report
            .param("ops", &ops.to_string())
            .param("window", &window.to_string())
            .param("seed", &seed.to_string())
            .with_netlist(&n)
            .with_sta(&sta)
            .add_power("mixed_format", &p)
            .with_telemetry(&registry);
        report.write(&path).expect("write JSON report");
        eprintln!("wrote {}", path.display());
    }
}

/// Uniform per-block factors for an evenly mixed workload: the mean of
/// each block's per-format glitch-inflation factor (and the mean
/// default/event factors), since every format contributes one op in
/// four.
fn mixed_factors(cal: &GlitchCalibration) -> (Vec<(String, f64)>, f64, f64) {
    let n = cal.formats.len().max(1) as f64;
    let mut blocks: Vec<(String, f64)> = Vec::new();
    for c in &cal.formats {
        for (block, f) in &c.per_block {
            match blocks.iter_mut().find(|(b, _)| b == block) {
                Some((_, sum)) => *sum += f / n,
                None => blocks.push((block.clone(), f / n)),
            }
        }
    }
    let default = cal.formats.iter().map(|c| c.default_factor).sum::<f64>() / n;
    let event = cal.formats.iter().map(|c| c.event_factor).sum::<f64>() / n;
    (blocks, default, event)
}

/// The `--compiled` mode: the same mixed-format stream, evaluated up to
/// [`LANES`] operations per clock edge on the compiled engine, with the
/// live pJ/op fed from calibrated zero-delay toggle counts.
fn run_compiled(args: &[String], ops: u64, window: u64, seed: u64) {
    let cal_ops = cli::arg_value(args, "--cal-ops", 24).max(1) as usize;
    let registry = Registry::new();
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    let sta = TimingAnalysis::new(&n).report();
    let prog = CompiledNetlist::compile(&n).expect("pipelined unit is acyclic");
    let cal_seed = mfm_evalkit::shard::shard_seed(seed, 1 << 32);
    let cal = GlitchCalibration::run(&n, &prog, &ports, cal_ops, cal_seed);
    let (blocks, default_factor, event_factor) = mixed_factors(&cal);

    let mut start = JsonObject::new();
    start
        .field_str("event", "start")
        .field_str("mode", "compiled")
        .field_u64("ops", ops)
        .field_u64("window", window)
        .field_u64("seed", seed)
        .field_u64("lanes", LANES as u64)
        .field_u64("cal_ops", cal_ops as u64)
        .field_f64("glitch_inflation", default_factor)
        .field_u64("cells", n.cell_count() as u64)
        .field_u64("nets", n.net_count() as u64)
        .field_f64("area_um2", n.area_um2())
        .field_f64("max_freq_mhz", sta.max_freq_mhz());
    println!("{}", start.finish());

    let mut gen = OperandGen::new(seed);
    let mut sim = CompiledSim::new(&prog);
    let width = (ops.min(LANES as u64)).max(1) as usize;
    let mut counts = [0u64; 4];
    // Pipeline fill (unmeasured), mixed formats per lane like the
    // event-driven stream.
    let drive = |sim: &mut CompiledSim<'_>,
                 gen: &mut OperandGen,
                 counts: &mut [u64; 4],
                 done: u64,
                 nn: usize| {
        for lane in 0..nn {
            let slot = ((done + lane as u64) % Format::ALL.len() as u64) as usize;
            let f = Format::ALL[slot];
            let op = gen.operation(f);
            sim.set_bus_lane(&ports.frmt, lane, u128::from(f.encoding()));
            sim.set_bus_lane(&ports.xa, lane, op.xa as u128);
            sim.set_bus_lane(&ports.yb, lane, op.yb as u128);
            counts[slot] += 1;
        }
    };
    for _ in 0..ports.latency {
        let mut warm = [0u64; 4];
        drive(&mut sim, &mut gen, &mut warm, 0, width);
        sim.step_cycle();
    }
    sim.enable_activity(width);
    // Clock accounting is one edge per measured op (each active lane is
    // an independent time-slice of the same machine), so the tracer is
    // fed `done` for both cycles and ops.
    let mut trace = LivePowerTrace::from_counts(&n, &vec![0; n.net_count()], 0)
        .with_scale(default_factor)
        .with_gauge(registry.gauge("observe.pj_per_op.window"));
    let ops_counter = registry.counter("observe.ops");
    let mut active = width;
    let mut done = 0u64;
    let mut next_window = window;
    while done < ops {
        let nn = (ops - done).min(width as u64) as usize;
        if nn != active {
            sim.set_active_lanes(nn);
            active = nn;
        }
        drive(&mut sim, &mut gen, &mut counts, done, nn);
        sim.step_cycle();
        done += nn as u64;
        ops_counter.add(nn as u64);
        if done >= next_window || done == ops {
            while next_window <= done {
                next_window += window;
            }
            let sample = trace.sample_counts(sim.toggles(), done, done);
            let mut by_format = JsonObject::new();
            for (slot, f) in Format::ALL.iter().enumerate() {
                by_format.field_u64(f.label(), counts[slot]);
            }
            let mut line = JsonObject::new();
            line.field_str("event", "window")
                .field_u64("ops", done)
                .field_u64("edges", sim.cycles())
                .field_u64("incidents", 0)
                .field_raw("ops_by_format", &by_format.finish());
            if let Some(s) = sample {
                line.field_f64("pj_per_op_window", s.pj_per_op);
            }
            line.field_f64("pj_per_op_mean", trace.mean_pj_per_op());
            println!("{}", line.finish());
        }
    }

    let mut snap = JsonObject::new();
    snap.field_str("event", "snapshot")
        .field_raw("metrics", &registry.snapshot_json());
    println!("{}", snap.finish());

    if let Some(path) = cli::arg_str(args, "--prom") {
        std::fs::write(&path, registry.prometheus()).expect("write prometheus file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = cli::json_path(args) {
        let p = PowerEstimator::from_toggles_calibrated(
            &n,
            sim.toggles(),
            sim.activity_events(),
            done,
            done,
            &blocks,
            default_factor,
            event_factor,
        );
        let mut report = RunReport::new("observe");
        report
            .param("ops", &ops.to_string())
            .param("window", &window.to_string())
            .param("seed", &seed.to_string())
            .param("mode", "compiled")
            .param("cal_ops", &cal_ops.to_string())
            .with_netlist(&n)
            .with_sta(&sta)
            .add_power("mixed_format", &p)
            .with_telemetry(&registry);
        report.write(&path).expect("write JSON report");
        eprintln!("wrote {}", path.display());
    }
}
