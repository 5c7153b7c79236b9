//! One benchmark for the gate-level simulator, the equivalence prover
//! and the multiplication service, driven from one process through the
//! crates' public APIs.
//!
//! A run measures one workload for a fixed time. Untraced, it reports the
//! end-to-end metrics ([`END_TO_END`]); traced, it records spans around
//! every call into a layer and reports the per-layer metrics
//! ([`PER_LAYER`]). Correctness gates fail the run instead of producing a
//! number. See `benchmark/README.md` for the workloads and the layer →
//! end-to-end map.

#![forbid(unsafe_code)]

pub mod client;
pub mod prove;
pub mod provenance;
pub mod replay;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use mfm_telemetry::json::{num, JsonObject};

use crate::stats::{median, Digest};
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Monte-Carlo power plus a stuck-at campaign on the gate-level model.
    SimCampaign,
    /// Equivalence proof of a fixed subset of output cones.
    ProveCones,
    /// The service below capacity, no faults.
    ServeClean,
    /// The service above its degraded capacity under chaos.
    ServeFaults,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SimCampaign,
        Workload::ProveCones,
        Workload::ServeClean,
        Workload::ServeFaults,
    ];

    /// The workloads `BENCHMARK.json` lists. `serve_faults` runs from
    /// the command line only: its latency does not repeat between seeds
    /// at any offered load tried (see the README).
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::SimCampaign,
        Workload::ProveCones,
        Workload::ServeClean,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimCampaign => "sim_campaign",
            Workload::ProveCones => "prove_cones",
            Workload::ServeClean => "serve_clean",
            Workload::ServeFaults => "serve_faults",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. Each workload's definition is in `benchmark/README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// tracing on. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("trace.top_level_coverage", "share"),
    ("traced.ops_per_s", "1/s"),
    ("traced.lat_p50_ms", "ms"),
    ("lat_p75_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("fail_share", "share"),
    ("slo_ok_share", "share"),
    // core / gatesim / evalkit
    ("core.build_ms", "ms"),
    ("gatesim.compile_ms", "ms"),
    ("evalkit.calibrate_ms", "ms"),
    ("evalkit.mc_ms.int64", "ms"),
    ("evalkit.mc_ms.binary64", "ms"),
    ("evalkit.mc_ms.dual_binary32", "ms"),
    ("evalkit.mc_ms.single_binary32", "ms"),
    ("gatesim.compiled.batch256_ns_per_op", "ns"),
    ("evalkit.faultcov_ms", "ms"),
    ("evalkit.faultcov.ops", "count"),
    ("gatesim.sim.ns_per_op", "ns"),
    ("evalkit.parity_ms", "ms"),
    ("power_ops_per_s", "1/s"),
    ("fault_cls_per_s", "1/s"),
    ("power_err_pct", "%"),
    // lint
    ("lint.units_ms", "ms"),
    ("lint.aig_ms", "ms"),
    ("prove.mode_ms.int64", "ms"),
    ("prove.mode_ms.binary64", "ms"),
    ("prove.mode_ms.dual_binary32", "ms"),
    ("prove_s", "s"),
    ("prove.conflicts", "count"),
    ("prove.conflicts_per_cone", "count"),
    ("prove.merges_proved", "count"),
    ("prove.merges_refuted", "count"),
    ("prove.merges_unknown", "count"),
    ("prove.sweep_useful", "share"),
    ("prove.aig_nodes", "count"),
    ("prove.cases", "count"),
    ("prove.structural_proofs", "count"),
    // client / server / resilient
    ("goodput_ops_per_s", "1/s"),
    ("lat_p99_ms", "ms"),
    ("client.late_ms", "ms"),
    ("client.lat_samples", "count"),
    ("server.reported_queue_us", "us"),
    ("softfloat.ref_ns", "ns"),
    ("front_end_gap_ms", "ms"),
    ("tcp.ops_per_s", "1/s"),
    ("tcp.lat_p50_ms", "ms"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("service.admit_us", "us"),
    ("service.tick_us.p50", "us"),
    ("service.tick_us.p99", "us"),
    ("service.busy_share", "share"),
    ("service.loop_coverage", "share"),
    ("service.tick_us.patrol", "us"),
    ("service.batch_tick_us", "us"),
    ("resilient.patrol_slice_us", "us"),
    ("service.batches", "count"),
    ("service.batch_fill", "share"),
    ("pool.patrol_slices", "count"),
    ("service.speculative_checks", "count"),
    ("scrape.service.batches", "count"),
    ("scrape.service.batch_fill", "share"),
    ("scrape.pool.patrol_slices", "count"),
    ("scrape.service.speculative_checks", "count"),
];

/// Per-layer metrics only `serve_faults` exercises (rescue, voting,
/// DMR, masking, shedding, and the tick causes patrol pre-empts on a
/// fault-free pool). They read 0 on every workload `BENCHMARK.json`
/// lists, so it does not list them; `serve_faults` reports them after
/// [`PER_LAYER`] in its traced runs.
pub const FAULTS_LAYER: [(&str, &str); 18] = [
    ("service.tick_us.rescue", "us"),
    ("service.tick_us.vote", "us"),
    ("service.tick_us.batch", "us"),
    ("service.tick_us.idle", "us"),
    ("service.rescues", "count"),
    ("service.tmr_votes", "count"),
    ("service.dmr_batches", "count"),
    ("pool.dmr_shadows", "count"),
    ("pool.masked", "count"),
    ("pool.scrubs", "count"),
    ("service.shed", "count"),
    ("scrape.service.rescues", "count"),
    ("scrape.service.tmr_votes", "count"),
    ("scrape.service.dmr_batches", "count"),
    ("scrape.pool.dmr_shadows", "count"),
    ("scrape.pool.masked", "count"),
    ("scrape.pool.scrubs", "count"),
    ("scrape.service.shed", "count"),
];

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Set-ups of `sim_campaign` and the serve workloads before the
    /// timed phase, and again after it; `setup_s` is the median of all.
    pub setup_reps: usize,
    /// `sim_campaign` sizes.
    pub sim: sim::SimSizes,
    /// `prove_cones` sizes.
    pub prove: prove::ProveSizes,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Self {
        Sizes {
            setup_reps: 3,
            sim: sim::SimSizes {
                cal_ops: 48,
                mc_ops: 1024,
                shards: 4,
                fault_sites: 500,
                fault_vectors: 4,
                parity_ops: 96,
                settle_probe_ops: 16,
                batch_probe_batches: 16,
            },
            prove: prove::ProveSizes::full(),
        }
    }

    /// Small sizes for the benchmark's own tests: every gate still runs.
    pub fn tiny() -> Self {
        Sizes {
            setup_reps: 1,
            sim: sim::SimSizes {
                cal_ops: 8,
                mc_ops: 64,
                shards: 2,
                fault_sites: 300,
                fault_vectors: 1,
                parity_ops: 8,
                settle_probe_ops: 2,
                batch_probe_batches: 1,
            },
            prove: prove::ProveSizes {
                setup_reps: 2,
                cones: vec![(mfm_lint::Mode::Int64, vec!["pl[0]", "pl[1]"])],
            },
        }
    }
}

/// Everything one run needs.
#[derive(Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Worker threads (sharding) or client connections: one fewer than
    /// the host's available parallelism, at least 1.
    pub threads: usize,
    /// Workload sizes.
    pub sizes: Sizes,
    /// When the run started (process start for the command line); the
    /// first set-up is timed from here.
    pub started: Instant,
    /// The span recorder (disabled for untraced runs).
    pub tracer: Tracer,
}

impl RunConfig {
    /// A run of `workload` starting now.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Self {
        let started = Instant::now();
        RunConfig {
            workload,
            seed,
            seconds,
            threads: host_parallelism().saturating_sub(1).max(1),
            sizes,
            started,
            tracer: Tracer::new(trace, started),
        }
    }
}

/// `std::thread::available_parallelism`, 1 when unknown. Runs leave one
/// of these cores to the rest of the host: on a 2-CPU host, another
/// process on one core stalled one of two shards and halved a run's
/// throughput, while a one-thread run moved to the free core.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    values: BTreeMap<String, f64>,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Operations attempted (simulated vectors, cone proofs, requests).
    pub attempted_ops: u64,
    /// Operations that failed (unproved cones, unanswered or wrong
    /// requests).
    pub failed_ops: u64,
    /// Digest of the simulated statistics; repeats exactly per seed.
    pub digest: Digest,
}

impl Measured {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_owned(), v);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records `name` as the median duration (ms) of the spans named
    /// `span`, when tracing recorded any.
    pub fn set_span_median(&mut self, tr: &Tracer, name: &str, span: &str) {
        let d = tr.durations_ms(span);
        if !d.is_empty() {
            self.set(name, median(&d));
        }
    }

    /// Runs one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failures.push(what.to_owned());
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every gate passed.
    pub correct: bool,
    /// Operations attempted (at least 1).
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// The reported metrics `(name, value, unit)`: every end-to-end
    /// metric untraced, every per-layer metric traced; empty when a gate
    /// failed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// Traced runs: top-level span time per name (ms) plus the root's own
    /// uncovered time.
    pub top_level: Option<(Vec<(String, f64)>, f64)>,
    /// Traced runs: every span as JSON.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = JsonObject::new();
        for (name, v, unit) in &self.metrics {
            let mut o = JsonObject::new();
            o.field_raw("value", &num(*v)).field_str("unit", unit);
            metrics.field_raw(name, &o.finish());
        }
        let mut root = JsonObject::new();
        root.field_bool("correct", self.correct)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        root.finish()
    }
}

/// `VmHWM` (peak resident set) from `/proc/self/status`, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and gates its result.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut m = Measured::default();
    match cfg.workload {
        Workload::SimCampaign => sim::run(cfg, &mut m),
        Workload::ProveCones => prove::run(cfg, &mut m),
        Workload::ServeClean => serve::run(cfg, serve::Mode::Clean, &mut m),
        Workload::ServeFaults => serve::run(cfg, serve::Mode::Faults, &mut m),
    }
    let tr = &cfg.tracer;
    tr.finish();
    m.set("peak_rss_mb", peak_rss_mb());
    if m.get("slo_ok_share").is_none() {
        // Simulation and proof have no deadline: every operation that
        // passed its gates counts.
        let ok = m.attempted_ops.saturating_sub(m.failed_ops) as f64;
        m.set("slo_ok_share", ok / m.attempted_ops.max(1) as f64);
    }
    if m.get("fail_share").is_none() {
        let failed = m.failed_ops + m.failures.len() as u64;
        m.set("fail_share", failed as f64 / m.attempted_ops.max(1) as f64);
    }
    let top_level = tr.enabled().then(|| tr.top_level_ms());
    if let Some((parts, _)) = &top_level {
        let covered: f64 = parts.iter().map(|(_, ms)| ms).sum();
        m.set("trace.top_level_coverage", covered / tr.wall_ms());
        m.set("traced.ops_per_s", m.get("ops_per_s").unwrap_or(0.0));
        m.set("traced.lat_p50_ms", m.get("lat_p50_ms").unwrap_or(0.0));
    }

    let wanted: Vec<(&str, &'static str)> = match (tr.enabled(), cfg.workload) {
        (false, _) => END_TO_END.to_vec(),
        (true, Workload::ServeFaults) => [&PER_LAYER[..], &FAULTS_LAYER[..]].concat(),
        (true, _) => PER_LAYER.to_vec(),
    };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let v = match m.get(name) {
            Some(v) => v,
            // A per-layer metric of a layer this workload leaves idle.
            None if tr.enabled() => 0.0,
            None => {
                m.failures.push(format!("{name} was not measured"));
                continue;
            }
        };
        if !v.is_finite() || (!tr.enabled() && v <= 0.0) {
            m.failures
                .push(format!("{name} = {v} is not a positive finite number"));
        }
        metrics.push((name.to_owned(), v, unit));
    }
    let correct = m.failures.is_empty();
    Outcome {
        correct,
        attempted: m.attempted_ops.max(1),
        failed: m.failed_ops + m.failures.len() as u64,
        failures: m.failures,
        metrics: if correct { metrics } else { Vec::new() },
        digest: m.digest.value(),
        top_level,
        spans_json: tr.enabled().then(|| tr.to_json()),
    }
}
