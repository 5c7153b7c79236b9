//! Performance microbenchmarks for the two gate-evaluation engines:
//! event-driven settle, compiled batch evaluation (64-vector batches on
//! the 256-lane simulator, full batches on the 256-lane and on the
//! 64-lane serving simulator, the last two with the activity engine
//! counting toggles), the serving tick's power accounting (a pass with
//! and without a counted lane, and one live-power window), the
//! fault-coverage campaign (sequential event-driven vs compiled +
//! thread-sharded), Monte-Carlo power measurement (sequential
//! event-driven vs event-driven sharded vs compiled+calibrated), and
//! the two fixed costs a Monte-Carlo or fault-campaign call pays besides
//! simulation: one calibrated power estimate on the pipelined unit, and
//! building and compiling a fresh combinational unit.
//!
//! Usage: `perf [--quick] [--threads N] [--json <path>]`
//! (defaults: full sizes, one thread per available CPU,
//! `BENCH_gatesim.json`).
//!
//! The JSON report is machine-readable. Its root records the host it
//! ran on (`available_parallelism`) and the build `profile`; it holds
//! one entry per benchmark with
//! `name`, `ns_per_op`, `throughput` (ops/s) and `threads`, plus a
//! `summary` object with the derived speedups the performance work
//! targets: the fault-campaign speedup (compiled+sharded over
//! sequential event-driven), the Monte-Carlo speedup (compiled
//! activity engine over sequential event-driven, same operand
//! population) and the thread-only Monte-Carlo speedup (event-driven
//! sharded over sequential — near 1× on a 1-CPU container). The
//! glitch-inflation calibration run is *not* timed: it is a one-time
//! cost per netlist, amortized over every measurement that follows.
//!
//! `batch.compiled`, `batch.compiled_256`, `batch.compiled_64`, the
//! `serve.*` entries, `montecarlo.compiled_sharded`, `power.estimate`
//! and `gatesim.compile_fresh` are each the median of five timed runs
//! ([`median_ns`]); the other entries time one run.
//!
//! The summary also carries the power-parity fields the `power-parity`
//! CI job gates on: calibrated-compiled vs event-driven pJ/op on the
//! identical sharded operand population, and their relative error.
//!
//! Before the timing comparison the compiled+sharded campaign report is
//! asserted equal to the sequential one — the speedup claim is only
//! meaningful if both paths compute the same answer.

use std::time::Instant;

use mfm_bench::cli;
use mfm_evalkit::calibrate::GlitchCalibration;
use mfm_evalkit::faultcov::{fault_coverage, fault_coverage_parallel, FaultCoverageConfig};
use mfm_evalkit::montecarlo::{
    compiled_activity, measure_unit, measure_unit_compiled_sharded, measure_unit_sharded,
};
use mfm_evalkit::shard::shard_seed;
use mfm_evalkit::workload::OperandGen;
use mfm_gatesim::report::Table;
use mfm_gatesim::{
    CompiledNetlist, CompiledSim, LaneSim, LivePowerTrace, Netlist, PowerEstimator, Simulator,
    TechLibrary, LANES,
};
use mfm_telemetry::json::{self, JsonArray, JsonObject};
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::selfcheck::{run_raw, run_raw_compiled, scrub_battery};
use mfmult::structural::build_unit;
use mfmult::{Format, Operation};

/// Timed runs behind each median entry.
const REPEATS: usize = 5;

/// The median wall time, in ns, of [`REPEATS`] calls of `run`. The
/// entries timed this way take only milliseconds per call, so a single
/// timing swings with scheduler noise.
fn median_ns(mut run: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[REPEATS / 2]
}

/// One measured benchmark.
struct Entry {
    name: &'static str,
    ns_per_op: f64,
    /// Operations per second (the op is named per benchmark: a vector
    /// for the engines, a classified fault×vector for the campaigns).
    throughput: f64,
    threads: usize,
}

fn entry(name: &'static str, ops: u64, elapsed_ns: f64, threads: usize) -> Entry {
    let ns_per_op = elapsed_ns / ops as f64;
    Entry {
        name,
        ns_per_op,
        throughput: 1e9 / ns_per_op,
        threads,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" | "--json" => {
                it.next();
            }
            "--quick" => {}
            other => {
                eprintln!(
                    "unknown argument {other}; usage: perf [--quick] [--threads N] [--json <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    let quick = cli::has_flag(&args, "--quick");
    let threads = cli::threads(&args);
    let path =
        cli::json_path(&args).unwrap_or_else(|| std::path::PathBuf::from("BENCH_gatesim.json"));

    // Benchmark sizes: `--quick` is the CI smoke configuration.
    let (settle_vecs, batch_vecs, mc_ops) = if quick {
        (40, 512, 24)
    } else {
        (200, 4096, 120)
    };
    let fault_cfg = FaultCoverageConfig {
        seed: 2017,
        sites: if quick { 64 } else { 192 },
        vectors_per_format: if quick { 1 } else { 2 },
        quad_lanes: false,
    };

    println!("=== Gate-evaluation performance: event-driven vs compiled 64-lane ===\n");
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let prog = CompiledNetlist::compile(&n).expect("unit netlist is acyclic");
    let mut gen = OperandGen::new(99);
    let mut entries: Vec<Entry> = Vec::new();

    // 1. Event-driven settle: one full input-to-output evaluation per
    //    random int64 vector.
    {
        let ops: Vec<Operation> = (0..settle_vecs)
            .map(|_| gen.operation(Format::Int64))
            .collect();
        let mut sim = Simulator::new(&n);
        run_raw(&mut sim, &ports, ops[0]); // warm-up
        let t0 = Instant::now();
        for &op in &ops {
            std::hint::black_box(run_raw(&mut sim, &ports, op));
        }
        let dt = t0.elapsed().as_nanos() as f64;
        entries.push(entry("settle.event_driven", settle_vecs as u64, dt, 1));
    }

    // 2. Compiled batch evaluation: the same computation, 64 vectors per
    //    propagation pass.
    {
        let ops: Vec<Operation> = (0..batch_vecs)
            .map(|_| gen.operation(Format::Int64))
            .collect();
        let mut sim = CompiledSim::new(&prog);
        run_raw_compiled(&mut sim, &ports, &ops[..64]); // warm-up
        let dt = median_ns(|| {
            for chunk in ops.chunks(64) {
                std::hint::black_box(run_raw_compiled(&mut sim, &ports, chunk));
            }
        });
        entries.push(entry("batch.compiled", batch_vecs as u64, dt, 1));
    }

    // 2b. Compiled batch at the full 256-lane word with the activity
    //     engine enabled: every gate write also counts its toggles, so
    //     this prices the toggle counting the power path rides on.
    {
        let ops: Vec<Operation> = (0..batch_vecs)
            .map(|_| gen.operation(Format::Int64))
            .collect();
        let mut sim = CompiledSim::new(&prog);
        run_raw_compiled(&mut sim, &ports, &ops[..LANES]); // warm-up
        sim.enable_activity(LANES);
        let dt = median_ns(|| {
            for chunk in ops.chunks(LANES) {
                std::hint::black_box(run_raw_compiled(&mut sim, &ports, chunk));
            }
        });
        std::hint::black_box(sim.activity_events());
        entries.push(entry("batch.compiled_256", batch_vecs as u64, dt, 1));
    }

    // 2c. The serving width: a 64-lane simulator (one chunk per net, a
    //     quarter of the words) running full 64-lane batches with the
    //     activity engine enabled, priced per op next to 2b.
    {
        let ops: Vec<Operation> = (0..batch_vecs)
            .map(|_| gen.operation(Format::Int64))
            .collect();
        let mut sim = LaneSim::<1>::new(&prog);
        let lanes = LaneSim::<1>::LANES;
        run_raw_compiled(&mut sim, &ports, &ops[..lanes]); // warm-up
        sim.enable_activity(lanes);
        let dt = median_ns(|| {
            for chunk in ops.chunks(lanes) {
                std::hint::black_box(run_raw_compiled(&mut sim, &ports, chunk));
            }
        });
        std::hint::black_box(sim.activity_events());
        entries.push(entry("batch.compiled_64", batch_vecs as u64, dt, 1));
    }

    // 2d. The serving tick's power accounting, priced per pass at the
    //     serving width on the lanes of a quiet tick: one client lane
    //     beside an 8-lane patrol slice. `serve.pass_counted` counts the
    //     client lane's toggles from the power-on state (a batch tick),
    //     `serve.pass_uncounted` masks counting to no lane and keeps the
    //     words as they are (a patrol-only tick), and
    //     `serve.power_window` adds one counted pass's toggles to a
    //     running tally and closes a live-power window over it (what a
    //     batch tick adds after its pass).
    {
        let mut lanes = vec![gen.operation(Format::Int64)];
        lanes.extend_from_slice(&scrub_battery(false)[..8]);
        let passes = batch_vecs as u64;
        let mut sim = LaneSim::<1>::new(&prog);
        let pass = |sim: &mut LaneSim<'_, 1>, counted: bool| {
            if counted {
                sim.rearm_activity(1);
            } else {
                sim.set_active_lanes(0);
            }
            std::hint::black_box(run_raw_compiled(sim, &ports, &lanes));
        };
        pass(&mut sim, true); // warm-up
        let counted = median_ns(|| (0..passes).for_each(|_| pass(&mut sim, true)));
        entries.push(entry("serve.pass_counted", passes, counted, 1));
        let uncounted = median_ns(|| (0..passes).for_each(|_| pass(&mut sim, false)));
        entries.push(entry("serve.pass_uncounted", passes, uncounted, 1));
        pass(&mut sim, true);
        let (toggles, cycles) = (sim.toggles().to_vec(), sim.cycles());
        let mut tally = vec![0u64; n.net_count()];
        let mut trace = LivePowerTrace::from_counts(&n, &tally, 0);
        let mut windows = 0;
        let window = median_ns(|| {
            for _ in 0..passes {
                for (sum, &t) in tally.iter_mut().zip(&toggles) {
                    *sum += t;
                }
                windows += 1;
                std::hint::black_box(trace.sample_counts(&tally, windows * cycles, windows));
            }
        });
        entries.push(entry("serve.power_window", passes, window, 1));
    }

    // 3. Fault-coverage campaign: sequential event-driven vs compiled +
    //    sharded. The op here is one classified (site, format, vector)
    //    triple. Equality is asserted before the timing is trusted.
    let classifications = {
        let t0 = Instant::now();
        let seq = fault_coverage(&fault_cfg);
        let seq_ns = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let par = fault_coverage_parallel(&fault_cfg, threads);
        let par_ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(
            par, seq,
            "compiled+sharded campaign must reproduce the sequential report bit for bit"
        );
        let ops = seq.blocks.totals().ops();
        entries.push(entry("faultcov.sequential", ops, seq_ns, 1));
        entries.push(entry("faultcov.compiled_sharded", ops, par_ns, threads));
        ops
    };

    // 4. Monte-Carlo power: sequential event-driven vs event-driven
    //    sharded vs compiled+calibrated, 4 logical shards, seed 5. The
    //    calibration run happens outside the timer: it is a one-time
    //    per-netlist cost (persisted alongside the netlist in real
    //    flows). The compiled entry measures many more operations than
    //    the event-driven ones — ns/op is flat in ops for the
    //    event-driven engine, while the compiled engine only amortizes
    //    its per-shard setup once the 256 lanes fill, which is exactly
    //    how it is used. The parity fields compare the two estimators
    //    on the *identical* mc_ops sharded population (untimed).
    let (ed_power, compiled_power) = {
        let cal_ops = if quick { 8 } else { 24 };
        let mc_compiled_ops = if quick { 1024 } else { 4096 };
        let cal = GlitchCalibration::run(&n, &prog, &ports, cal_ops, shard_seed(5, 1 << 32));

        let t0 = Instant::now();
        std::hint::black_box(measure_unit(&n, &ports, Format::Binary64, mc_ops, 5));
        let seq_ns = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let ed = measure_unit_sharded(&n, &ports, Format::Binary64, mc_ops, 5, 4, threads);
        let par_ns = t0.elapsed().as_nanos() as f64;
        let compiled_ns = median_ns(|| {
            std::hint::black_box(measure_unit_compiled_sharded(
                &n,
                &prog,
                &ports,
                Format::Binary64,
                mc_compiled_ops,
                5,
                4,
                threads,
                Some(&cal),
            ));
        });
        let compiled = measure_unit_compiled_sharded(
            &n,
            &prog,
            &ports,
            Format::Binary64,
            mc_ops,
            5,
            4,
            threads,
            Some(&cal),
        );
        entries.push(entry("montecarlo.sequential", mc_ops as u64, seq_ns, 1));
        entries.push(entry("montecarlo.sharded", mc_ops as u64, par_ns, threads));
        entries.push(entry(
            "montecarlo.compiled_sharded",
            mc_compiled_ops as u64,
            compiled_ns,
            threads,
        ));
        (ed, compiled)
    };

    // 5. The fixed costs around the simulation. `power.estimate` is one
    //    calibrated estimate on the Fig. 5 pipelined unit from one
    //    256-lane binary64 activity sweep: what each Monte-Carlo call
    //    pays after merging its shards. `gatesim.compile_fresh` builds
    //    the combinational unit into a fresh netlist and compiles it:
    //    what each fault-campaign call pays before simulating.
    {
        let calls = if quick { 20 } else { 100 };
        let mut pn = Netlist::new(TechLibrary::cmos45lp());
        let pports = build_pipelined_unit(&mut pn, PipelinePlacement::Fig5);
        let pprog = CompiledNetlist::compile(&pn).expect("pipelined unit is acyclic");
        let cal = GlitchCalibration::run(&pn, &pprog, &pports, 4, shard_seed(5, 1 << 32));
        let fc = cal
            .for_format(Format::Binary64)
            .expect("every format is calibrated");
        let counts = compiled_activity(&pprog, &pports, Format::Binary64, LANES, 5);
        let estimate = median_ns(|| {
            for _ in 0..calls {
                std::hint::black_box(PowerEstimator::from_toggles_calibrated(
                    &pn,
                    &counts.toggles,
                    counts.events,
                    counts.cycles,
                    counts.cycles,
                    &fc.per_block,
                    fc.default_factor,
                    fc.event_factor,
                ));
            }
        });
        entries.push(entry("power.estimate", calls, estimate, 1));

        let builds = if quick { 3 } else { 10 };
        let compile = median_ns(|| {
            for _ in 0..builds {
                let mut n = Netlist::new(TechLibrary::cmos45lp());
                build_unit(&mut n);
                std::hint::black_box(CompiledNetlist::compile(&n).expect("unit is acyclic"));
            }
        });
        entries.push(entry("gatesim.compile_fresh", builds, compile, 1));
    }

    let find = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .expect("entry recorded above")
    };
    let fault_speedup =
        find("faultcov.sequential").ns_per_op / find("faultcov.compiled_sharded").ns_per_op;
    let mc_speedup =
        find("montecarlo.sequential").ns_per_op / find("montecarlo.compiled_sharded").ns_per_op;
    let mc_threaded_speedup =
        find("montecarlo.sequential").ns_per_op / find("montecarlo.sharded").ns_per_op;
    let power_error = (compiled_power.energy_pj_per_op() - ed_power.energy_pj_per_op()).abs()
        / ed_power.energy_pj_per_op();

    let mut t = Table::new(&["benchmark", "ns/op", "ops/s", "threads"]);
    for e in &entries {
        t.row_owned(vec![
            e.name.to_string(),
            format!("{:.1}", e.ns_per_op),
            format!("{:.2e}", e.throughput),
            e.threads.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "fault campaign: {classifications} classifications, {fault_speedup:.1}x speedup (compiled+sharded over event-driven)"
    );
    println!(
        "monte-carlo:    {mc_speedup:.1}x compiled activity engine, {mc_threaded_speedup:.2}x event-driven sharded ({threads} threads)"
    );
    println!(
        "power parity:   calibrated {:.2} pJ/op vs event-driven {:.2} pJ/op ({:+.2}% error)",
        compiled_power.energy_pj_per_op(),
        ed_power.energy_pj_per_op(),
        (compiled_power.energy_pj_per_op() / ed_power.energy_pj_per_op() - 1.0) * 100.0
    );

    let mut arr = JsonArray::new();
    for e in &entries {
        let mut o = JsonObject::new();
        o.field_str("name", e.name)
            .field_f64("ns_per_op", e.ns_per_op)
            .field_f64("throughput", e.throughput)
            .field_u64("threads", e.threads as u64);
        arr.push_raw(&o.finish());
    }
    let mut summary = JsonObject::new();
    summary
        .field_f64("fault_campaign_speedup", fault_speedup)
        .field_f64("montecarlo_speedup", mc_speedup)
        .field_f64("montecarlo_threaded_speedup", mc_threaded_speedup)
        .field_f64("power_pj_per_op_event_driven", ed_power.energy_pj_per_op())
        .field_f64(
            "power_pj_per_op_compiled",
            compiled_power.energy_pj_per_op(),
        )
        .field_f64("power_error", power_error);
    let mut root = JsonObject::new();
    root.field_str("bench", "gatesim_perf")
        .field_str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field_u64(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .field_bool("quick", quick)
        .field_u64("threads", threads as u64)
        .field_raw("entries", &arr.finish())
        .field_raw("summary", &summary.finish());
    let doc = root.finish() + "\n";
    json::check(&doc).expect("perf report is valid JSON");
    std::fs::write(&path, doc).expect("write benchmark JSON");
    println!("wrote {}", path.display());
}
