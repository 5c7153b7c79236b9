//! SAT equivalence-proof gate: miters every mode-visible output of a
//! multi-format unit against the bit-blasted `mfm-softfloat` reference
//! and discharges the cones with the in-tree CDCL solver.
//!
//! Usage: `prove [--unit NAME] [--mode NAME] [--outputs PREFIX]...
//!               [--budget N] [--sweep-budget N] [--rounds N] [--no-sweep]
//!               [--max-unknown N] [--json <path>]`
//!
//! - `--unit` is `full` (alias `mfmult`, the default) or `quad`
//!   (alias `mfmult-quad`).
//! - `--mode` restricts to one mode (`int64`, `binary64`,
//!   `dual-binary32`, `quad-binary16`); default: every tied mode the
//!   unit declares.
//! - `--outputs` keeps only output labels starting with the prefix
//!   (repeatable, or comma-separated).
//! - `--budget` is the total conflict budget per output cone
//!   (shared across its case-split branches).
//! - `--max-unknown` fails the gate when more than N cones end
//!   `Unknown` (default: unlimited). Any `Refuted` cone always fails.
//!
//! Exit status: 1 on any refuted cone or on exceeding `--max-unknown`;
//! 0 otherwise.

use mfm_bench::cli;
use mfm_evalkit::runreport::RunReport;
use mfm_gatesim::report::Table;
use mfm_lint::{prove_unit, standard_units, ConeVerdict, Mode, ProveOptions};
use mfm_telemetry::Registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--unit" | "--mode" | "--outputs" | "--budget" | "--sweep-budget" | "--rounds"
            | "--max-unknown" | "--json" => {
                it.next();
            }
            "--no-sweep" => {}
            other => {
                eprintln!(
                    "unknown argument {other}; usage: prove [--unit NAME] [--mode NAME] \
                     [--outputs PREFIX]... [--budget N] [--sweep-budget N] [--rounds N] \
                     [--no-sweep] [--max-unknown N] [--json <path>]"
                );
                std::process::exit(2);
            }
        }
    }

    let unit_name = match cli::arg_str(&args, "--unit").as_deref() {
        None | Some("full") | Some("mfmult") => "mfmult",
        Some("quad") | Some("mfmult-quad") => "mfmult-quad",
        Some(other) => {
            eprintln!("unknown unit {other:?}; use full (mfmult) or quad (mfmult-quad)");
            std::process::exit(2);
        }
    };

    let mut opts = ProveOptions {
        budget: cli::arg_value(&args, "--budget", ProveOptions::default().budget),
        sweep_budget: cli::arg_value(
            &args,
            "--sweep-budget",
            ProveOptions::default().sweep_budget,
        ),
        rounds: cli::arg_value(&args, "--rounds", ProveOptions::default().rounds as u64) as usize,
        sweep: !cli::has_flag(&args, "--no-sweep"),
        ..ProveOptions::default()
    };
    if let Some(m) = cli::arg_str(&args, "--mode") {
        match Mode::from_name(&m) {
            Some(mode) => opts.modes = Some(vec![mode]),
            None => {
                eprintln!(
                    "unknown mode {m:?}; use int64, binary64, dual-binary32 or quad-binary16"
                );
                std::process::exit(2);
            }
        }
    }
    let output_filters: Vec<String> = {
        let mut v = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--outputs" {
                if let Some(p) = it.next() {
                    v.extend(p.split(',').map(str::to_owned));
                }
            }
        }
        v
    };
    if !output_filters.is_empty() {
        opts.outputs = Some(output_filters);
    }
    let max_unknown = cli::arg_str(&args, "--max-unknown").map(|s| {
        s.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--max-unknown wants a number, got {s:?}");
            std::process::exit(2);
        })
    });

    let registry = Registry::new();
    println!("=== mfm-lint prove: SAT equivalence of {unit_name} against mfm-softfloat ===\n");

    let units = standard_units();
    let unit = units
        .iter()
        .find(|u| u.name == unit_name)
        .expect("standard unit");
    let report = {
        let _span = registry.span("prove");
        prove_unit(unit, &opts)
    };

    let mut t = Table::new(&[
        "mode",
        "cones",
        "proved",
        "structural",
        "refuted",
        "unknown",
        "merges",
        "sim-refuted",
        "rounds",
        "conflicts",
    ]);
    for m in &report.modes {
        t.row_owned(vec![
            m.mode.clone(),
            m.cones.len().to_string(),
            m.count(ConeVerdict::Proved).to_string(),
            m.structural_proofs.to_string(),
            m.count(ConeVerdict::Refuted).to_string(),
            m.count(ConeVerdict::Unknown).to_string(),
            m.merges_proved.to_string(),
            m.merges_sim_refuted.to_string(),
            m.sim_rounds.to_string(),
            m.conflicts.to_string(),
        ]);
        registry
            .counter(&format!("prove.conflicts.{}", m.mode))
            .add(m.conflicts);
        registry
            .counter(&format!("prove.propagations.{}", m.mode))
            .add(m.solver.propagations);
        registry
            .counter(&format!("prove.decisions.{}", m.mode))
            .add(m.solver.decisions);
        registry
            .counter(&format!("prove.rebuilds.{}", m.mode))
            .add(m.rebuilds);
    }
    println!("{t}");

    for m in &report.modes {
        for c in &m.cones {
            match c.verdict {
                ConeVerdict::Refuted => {
                    let cex = c.cex.as_ref().expect("refuted cone has a counterexample");
                    println!(
                        "REFUTED [{}] {}: xa={:#018x} yb={:#018x} netlist={} reference={} \
                         event={} compiled={} ({})",
                        m.mode,
                        c.output,
                        cex.xa,
                        cex.yb,
                        cex.netlist_value,
                        cex.reference_value,
                        cex.event_value,
                        cex.compiled_value,
                        if cex.confirmed() {
                            "confirmed on both backends"
                        } else {
                            "REPLAY DISAGREES"
                        }
                    );
                }
                ConeVerdict::Unknown => {
                    println!(
                        "unknown [{}] {}: budget exhausted after {} conflicts over {} case(s)",
                        m.mode, c.output, c.conflicts, c.cases
                    );
                }
                ConeVerdict::Proved => {}
            }
        }
    }
    println!(
        "\ntotals: {} proved, {} refuted, {} unknown",
        report.proved(),
        report.refuted(),
        report.unknown()
    );

    if let Some(path) = cli::json_path(&args) {
        let mut run = RunReport::new("prove");
        run.param("unit", &report.unit)
            .param("proved", &report.proved().to_string())
            .param("refuted", &report.refuted().to_string())
            .param("unknown", &report.unknown().to_string());
        run.add_section("prove", &report.to_json());
        run.with_telemetry(&registry);
        run.write(&path).expect("write JSON report");
        println!("wrote {}", path.display());
    }

    if report.refuted() > 0 {
        println!("prove gate FAILED: {} refuted cone(s)", report.refuted());
        std::process::exit(1);
    }
    if let Some(max) = max_unknown {
        if report.unknown() > max {
            println!(
                "prove gate FAILED: {} unknown cone(s), only {max} allowed",
                report.unknown()
            );
            std::process::exit(1);
        }
    }
    println!("prove gate PASSED: every checked cone proved (within the unknown allowance)");
}
