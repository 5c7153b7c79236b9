//! Benchmark harness for the SOCC'17 multi-format multiplier reproduction.
//!
//! Binaries (run with `cargo run --release -p mfm-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — radix-16 64×64 latency/area/critical path |
//! | `table2` | Table II — radix-4 Booth (plus `--radix8` ablation) |
//! | `table3` | Table III — power @100 MHz, combinational vs pipelined |
//! | `table4` | Table IV — IEEE 754-2008 binary format parameters |
//! | `table5` | Table V — per-format power/throughput/efficiency |
//! | `figures` | Fig. 1–6 structural reports + ablation studies |
//! | `faults` | fault-injection campaign + residue-check coverage table |
//! | `chaos` | seeded chaos run over the resilient pool engine (zero-escape + capacity-recovery invariants) |
//! | `serve` | multiplication-as-a-service TCP front-end + Prometheus `/metrics` (optional chaos underneath) |
//! | `loadgen` | open-loop load generator/verifier against `serve` (bursts, slow clients, adversarial frames) |
//!
//! Microbenches (`cargo bench -p mfm-bench`, see [`microbench`]): software
//! throughput of the functional unit per format, the softfloat reference,
//! gate-level simulation speed, and netlist construction/STA cost.
//!
//! Each table binary prints the measured values next to the paper's
//! published numbers so the reproduced *shape* can be checked at a glance
//! (absolute values differ — our substrate is a calibrated gate-level
//! model, not the authors' synthesis flow; see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Shared command-line parsing for the table/figure/faults binaries.
///
/// Every binary takes `--json <path>` (write a
/// [`mfm_evalkit::runreport::RunReport`] there) next to its own numeric
/// flags; this module keeps the parsing in one place.
pub mod cli {
    /// The value following `name`, parsed, or `default` when absent.
    /// Exits with status 2 on an unparseable value (a typo should not
    /// silently run the default configuration).
    pub fn arg_value(args: &[String], name: &str, default: u64) -> u64 {
        match args.iter().position(|a| a == name) {
            None => default,
            Some(i) => match args.get(i + 1).map(|v| v.parse()) {
                Some(Ok(v)) => v,
                _ => {
                    eprintln!("{name} needs a numeric value");
                    std::process::exit(2);
                }
            },
        }
    }

    /// The `--threads N` worker count, defaulting to the host's available
    /// parallelism. Never less than 1.
    pub fn threads(args: &[String]) -> usize {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        (arg_value(args, "--threads", host as u64) as usize).max(1)
    }

    /// The string value following `name`, if present. Exits with status
    /// 2 when the flag is given without a value.
    pub fn arg_str(args: &[String], name: &str) -> Option<String> {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        })
    }

    /// Whether the bare flag `name` is present.
    pub fn has_flag(args: &[String], name: &str) -> bool {
        args.iter().any(|a| a == name)
    }

    /// The `--json <path>` destination, if requested.
    pub fn json_path(args: &[String]) -> Option<std::path::PathBuf> {
        arg_str(args, "--json").map(std::path::PathBuf::from)
    }
}

/// Minimal wall-clock benchmark harness.
///
/// The workspace builds in fully offline environments, so instead of an
/// external benchmark framework the `benches/` targets (all
/// `harness = false`) use this module: adaptive batch sizing, a warm-up
/// pass, best-of-N batch timing and a plain-text result table.
pub mod microbench {
    use mfm_gatesim::report::Table;
    use mfm_telemetry::json::{self, JsonObject};
    use std::time::{Duration, Instant};

    /// Target wall time per measured batch.
    const BATCH: Duration = Duration::from_millis(10);
    /// Measured batches per benchmark (the minimum is reported).
    const ROUNDS: usize = 5;

    /// A named group of benchmarks printed as one table.
    pub struct Group {
        title: String,
        rows: Vec<(String, f64)>,
    }

    impl Group {
        /// Starts a group with a title.
        pub fn new(title: &str) -> Self {
            Group {
                title: title.to_string(),
                rows: Vec::new(),
            }
        }

        /// Measures `f` and records nanoseconds per call under `label`.
        pub fn bench<R, F: FnMut() -> R>(&mut self, label: &str, f: F) {
            let ns = time_ns_per_call(f);
            self.rows.push((label.to_string(), ns));
        }

        /// Prints the result table.
        pub fn finish(self) {
            let _ = self.finish_rows();
        }

        /// Prints the result table and records the group into `report`,
        /// so the run ends up in `results/bench_report.json`.
        pub fn finish_report(self, report: &mut BenchReport) {
            let title = self.title.clone();
            let rows = self.finish_rows();
            report.groups.push((title, rows));
        }

        fn finish_rows(self) -> Vec<(String, f64)> {
            let mut t = Table::new(&["benchmark", "ns/op", "ops/s"]);
            for (label, ns) in &self.rows {
                t.row_owned(vec![
                    label.clone(),
                    format!("{ns:.1}"),
                    format!("{:.2e}", 1e9 / ns),
                ]);
            }
            println!("{}\n{t}", self.title);
            self.rows
        }
    }

    /// Collects the groups of one bench target and writes (or merges
    /// into) a machine-readable JSON report.
    ///
    /// The document has the shape
    /// `{"benches":{"<target>":{"<group>":{"<label>":ns_per_op,…},…},…}}`.
    /// Each target replaces only its own key on write, so running the
    /// full `cargo bench -p mfm-bench` suite accumulates all four
    /// targets in one file. The default path is
    /// `results/bench_report.json`; the `MFM_BENCH_JSON` environment
    /// variable overrides it.
    pub struct BenchReport {
        name: String,
        groups: Vec<(String, Vec<(String, f64)>)>,
    }

    impl BenchReport {
        /// Starts an empty report for the named bench target.
        pub fn new(name: &str) -> Self {
            BenchReport {
                name: name.to_string(),
                groups: Vec::new(),
            }
        }

        /// This target's groups as one JSON object.
        fn to_json(&self) -> String {
            let mut o = JsonObject::new();
            for (title, rows) in &self.groups {
                let mut g = JsonObject::new();
                for (label, ns) in rows {
                    g.field_f64(label, *ns);
                }
                o.field_raw(title, &g.finish());
            }
            o.finish()
        }

        /// The report path: `$MFM_BENCH_JSON` or
        /// `results/bench_report.json` at the workspace root (cargo
        /// runs bench harnesses with the package as working directory,
        /// so a relative path would land inside `crates/bench`).
        pub fn default_path() -> std::path::PathBuf {
            std::env::var_os("MFM_BENCH_JSON")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join("../../results/bench_report.json")
                })
        }

        /// Writes the report to [`BenchReport::default_path`], merging
        /// with any other targets' results already in the file (an
        /// unreadable or malformed file is overwritten).
        pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
            let path = Self::default_path();
            let mut targets: std::collections::BTreeMap<String, String> =
                std::collections::BTreeMap::new();
            if let Ok(existing) = std::fs::read_to_string(&path) {
                if let Ok(entries) = json::object_entries(&existing) {
                    for (k, v) in entries {
                        if k == "benches" {
                            if let Ok(benches) = json::object_entries(&v) {
                                targets.extend(benches);
                            }
                        }
                    }
                }
            }
            targets.insert(self.name.clone(), self.to_json());
            let mut benches = JsonObject::new();
            for (k, v) in &targets {
                benches.field_raw(k, v);
            }
            let mut root = JsonObject::new();
            root.field_raw("benches", &benches.finish());
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(&path, root.finish() + "\n")?;
            Ok(path)
        }
    }

    /// Times one closure: warm-up, pick a batch size that runs for about
    /// [`BATCH`], then report the fastest of [`ROUNDS`] batches.
    pub fn time_ns_per_call<R, F: FnMut() -> R>(mut f: F) -> f64 {
        // Warm-up and initial calibration.
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= BATCH || iters > 1 << 30 {
                break;
            }
            // Aim directly for the batch target once we have a signal.
            iters = if dt < Duration::from_micros(100) {
                iters * 16
            } else {
                let per = dt.as_nanos().max(1) / iters as u128;
                ((BATCH.as_nanos() / per).max(1) as u64).max(iters + 1)
            };
        }
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            best = best.min(ns);
        }
        best
    }
}

/// Paper-published reference values, used by the binaries to print
/// paper-vs-measured comparisons.
pub mod paper_values {
    /// Table I: radix-16 critical path (pre-comp, PPGEN, TREE, CPA) in ps.
    pub const T1_PATH_PS: [(&str, f64); 4] = [
        ("precomp", 578.0),
        ("PPGEN", 258.0),
        ("TREE", 571.0),
        ("CPA", 445.0),
    ];
    /// Table I: total latency ps / FO4 / area µm² / NAND2.
    pub const T1_TOTALS: (f64, f64, f64, f64) = (1852.0, 29.0, 50_562.0, 47_800.0);
    /// Table II: radix-4 critical path in ps.
    pub const T2_PATH_PS: [(&str, f64); 3] = [("PPGEN", 313.0), ("TREE", 739.0), ("CPA", 454.0)];
    /// Table II totals.
    pub const T2_TOTALS: (f64, f64, f64, f64) = (1506.0, 23.0, 60_204.0, 56_900.0);
    /// Table III: (config, radix-4 mW, radix-16 mW, ratio).
    pub const T3: [(&str, f64, f64, f64); 2] = [
        ("Combinational", 12.3, 11.5, 0.94),
        ("two-stage pipelined", 8.7, 7.7, 0.89),
    ];
    /// Table V rows: (format, mW@100MHz, mW@880MHz, GFLOPS, GFLOPS/W).
    pub const T5: [(&str, f64, f64, f64, f64); 4] = [
        ("int64", 8.90, 78.32, 0.88, 11.24),
        ("binary64", 7.20, 63.36, 0.88, 13.89),
        ("binary32 (dual)", 5.17, 45.50, 1.76, 38.68),
        ("binary32 (single)", 3.77, 33.18, 0.88, 26.53),
    ];
    /// Pipelined unit: paper's critical path ps and max frequency MHz.
    pub const PIPE: (f64, f64) = (1120.0, 880.0);
}
