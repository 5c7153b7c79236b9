//! Seeded stuck-at fault-injection campaign over the structural unit,
//! classifying every vector masked/detected/silent under the
//! `mfmult::selfcheck` checker and printing per-block, per-format and
//! per-tier coverage tables.
//!
//! Usage: `faults [--sites N] [--vectors N] [--seed S] [--quad] [--threads N] [--json <path>]`
//! (defaults: 500 sites, 4 vectors per site and format, seed 2017).
//!
//! Without `--threads` the campaign runs on the event-driven simulator,
//! one site at a time ([`fault_coverage`], the reference). `--threads N`
//! runs the same campaign on the compiled bit-parallel evaluator, one
//! site per lane, sharded over N worker threads
//! ([`fault_coverage_parallel`]). The two share one site loop and
//! classifier, so the report — and the JSON file — is byte-identical for
//! any N and identical to the event-driven run for the same seed; only
//! the wall-clock changes. Both paths publish the `faultcov.*` telemetry
//! once from the final report; only the event-driven run adds a
//! wall-clock span.

use mfm_bench::cli;
use mfm_evalkit::faultcov::{fault_coverage, fault_coverage_parallel, FaultCoverageConfig};
use mfm_evalkit::runreport::RunReport;
use mfm_gatesim::report::Table;
use mfm_telemetry::Registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" | "--sites" | "--vectors" | "--threads" | "--json" => {
                it.next();
            }
            "--quad" => {}
            other => {
                eprintln!("unknown argument {other}; usage: faults [--sites N] [--vectors N] [--seed S] [--quad] [--threads N] [--json <path>]");
                std::process::exit(2);
            }
        }
    }
    let cfg = FaultCoverageConfig {
        seed: cli::arg_value(&args, "--seed", 2017),
        sites: cli::arg_value(&args, "--sites", 500) as usize,
        vectors_per_format: cli::arg_value(&args, "--vectors", 4) as usize,
        quad_lanes: cli::has_flag(&args, "--quad"),
    };
    let threads = cli::arg_str(&args, "--threads").map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--threads needs a numeric value");
            std::process::exit(2);
        })
    });
    let registry = Registry::new();
    println!("=== Fault-injection campaign: residue/self-check coverage ===\n");
    let report = match threads {
        // No span on the compiled path: a span embeds wall-clock
        // microseconds, which would break byte-identical JSON across
        // thread counts.
        Some(t) => fault_coverage_parallel(&cfg, t.max(1)),
        None => {
            let _span = registry.span("faults");
            fault_coverage(&cfg)
        }
    };
    report.publish(&registry);
    println!("{report}");
    let totals = report.blocks.totals();
    println!(
        "\n{} corrupting vectors, {} detected, {} silent (detection rate {:.3})",
        totals.detected + totals.silent,
        totals.detected,
        totals.silent,
        report.detection_rate()
    );
    if report.silent() == 0 {
        println!("self-checking delivered no silently corrupted product");
    } else {
        println!(
            "WARNING: {} silent corruptions slipped through",
            report.silent()
        );
    }

    if let Some(path) = cli::json_path(&args) {
        let mut run = RunReport::new("faults");
        run.param("sites", &cfg.sites.to_string())
            .param("vectors_per_format", &cfg.vectors_per_format.to_string())
            .param("seed", &cfg.seed.to_string())
            .param("quad", if cfg.quad_lanes { "true" } else { "false" })
            .param("sites_run", &report.sites_run.to_string())
            .param("silent", &report.silent().to_string())
            .param("detection_rate", &format!("{:.4}", report.detection_rate()));
        let mut blocks = Table::new(&["block", "sites", "masked", "detected", "silent"]);
        for (name, s) in &report.blocks.per_block {
            blocks.row_owned(vec![
                name.clone(),
                s.sites.to_string(),
                s.masked.to_string(),
                s.detected.to_string(),
                s.silent.to_string(),
            ]);
        }
        run.add_table("outcomes per hardware block", blocks);
        let mut formats = Table::new(&["format", "ops", "masked", "detected", "silent", "rate"]);
        for (name, c) in &report.formats {
            formats.row_owned(vec![
                name.to_string(),
                c.ops().to_string(),
                c.masked.to_string(),
                c.detected.to_string(),
                c.silent.to_string(),
                format!("{:.3}", c.detection_rate()),
            ]);
        }
        run.add_table("outcomes per operand format", formats);
        let mut tiers = Table::new(&["checker tier", "detections"]);
        for (name, n) in &report.detections_by_tier {
            tiers.row_owned(vec![name.to_string(), n.to_string()]);
        }
        run.add_table("detections by first checker tier", tiers)
            .with_telemetry(&registry);
        run.write(&path).expect("write JSON report");
        println!("wrote {}", path.display());
    }
}
