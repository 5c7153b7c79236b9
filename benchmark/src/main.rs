//! Command line of the benchmark.
//!
//! ```text
//! mfm-benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints every metric with its unit, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when a correctness gate fails and 2 on a usage
//! error. Traced runs also write their spans to
//! `.bench_out/<workload>-seed<N>-spans.json`. `--workload all` runs every
//! workload untraced and then traced, and prints the tracing overhead.

use std::process::ExitCode;

use mfm_benchmark::{provenance, run, Outcome, RunConfig, Sizes, Workload};

const USAGE: &str =
    "usage: mfm-benchmark --workload <sim_campaign|prove_cones|serve_clean|serve_faults|all> \
     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                if v == "all" {
                    out.all = true;
                    out.workloads = Workload::ALL.to_vec();
                } else {
                    out.workloads =
                        vec![Workload::parse(v).ok_or(format!("unknown workload {v}"))?];
                }
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(out)
}

/// Runs one workload, prints its metrics and writes its spans.
fn run_one(args: &Args, w: Workload, trace: bool) -> Outcome {
    let cfg = RunConfig::new(w, args.seed, args.seconds, trace, Sizes::full());
    let outcome = run(&cfg);
    let prov = provenance::to_json(&cfg);
    println!("provenance {prov}");
    println!(
        "{} ({}): {} attempted, {} failed, digest {:016x}",
        w.name(),
        if trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        outcome.digest
    );
    for f in &outcome.failures {
        println!("  GATE FAILED: {f}");
    }
    for (name, v, unit) in &outcome.metrics {
        println!("  {name:<40} {v:>16.4} {unit}");
    }
    if let Some((parts, root_self)) = &outcome.top_level {
        println!("  top-level spans (ms):");
        for (name, ms) in parts {
            println!("    {name:<20} {ms:>12.3}");
        }
        println!("    {:<20} {root_self:>12.3}", "(run, uncovered)");
    }
    if let Some(spans) = &outcome.spans_json {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}-spans.json", w.name(), args.seed));
        let body = format!("{{\"provenance\":{prov},\"spans\":{spans}}}\n");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.all {
        let outcome = run_one(&args, args.workloads[0], args.trace);
        println!("{}", outcome.result_line());
        return if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Every workload, untraced then traced; the combined line prefixes
    // each metric with its workload.
    let mut combined: Vec<(String, f64, &'static str)> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for &w in &args.workloads {
        let plain = run_one(&args, w, false);
        let traced = run_one(&args, w, true);
        let get = |o: &Outcome, n: &str| o.metrics.iter().find(|m| m.0 == n).map(|m| m.1);
        if let (Some(a), Some(b)) = (get(&plain, "ops_per_s"), get(&traced, "traced.ops_per_s")) {
            println!(
                "{}: tracing overhead {:+.2}% on ops_per_s ({a:.4} untraced, {b:.4} traced)",
                w.name(),
                (a / b - 1.0) * 100.0
            );
        }
        for o in [plain, traced] {
            correct &= o.correct;
            attempted += o.attempted;
            failed += o.failed;
            combined.extend(
                o.metrics
                    .into_iter()
                    .map(|(n, v, u)| (format!("{}.{n}", w.name()), v, u)),
            );
        }
    }
    let all = Outcome {
        correct,
        attempted,
        failed,
        failures: Vec::new(),
        metrics: combined,
        digest: 0,
        top_level: None,
        spans_json: None,
    };
    println!("{}", all.result_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
