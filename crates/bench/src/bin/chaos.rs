//! Deterministic chaos run through the service: a seeded fault schedule
//! (SEUs, stuck-ats, Byzantine output latches, field replacements)
//! applied to the pool under an in-process `Service` mid-workload,
//! judged by the two invariants of `mfm-resilient`: **zero wrong
//! answers escape** (every `Ok` is compared against the softfloat
//! reference on the client side) and **capacity degrades and
//! recovers**. SEUs act only on the pipelined build; `--comb` drops
//! them, since a combinational unit has no register to capture one.
//!
//! Usage: `chaos [--units N] [--ops N] [--faults N] [--seed S] [--comb]
//! [--quad] [--json <path>]` (defaults: 4 units, 300 ops, 60 faults,
//! seed 2017, 3-stage pipelined build).
//!
//! The run is bit-reproducible: no scheduling decision samples a wall
//! clock and the service's wall-clock phase histograms stay out of the
//! report, so the same seed produces byte-identical output (and
//! `--json` report).
//! Exits 1 if any wrong answer escaped.

use mfm_bench::cli;
use mfm_evalkit::runreport::RunReport;
use mfm_server::chaos::{run_chaos_campaign, ChaosCampaignConfig};
use mfm_telemetry::Registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" | "--units" | "--ops" | "--faults" | "--json" => {
                it.next();
            }
            "--quad" | "--comb" => {}
            other => {
                eprintln!(
                    "unknown argument {other}; usage: chaos [--units N] [--ops N] \
                     [--faults N] [--seed S] [--comb] [--quad] [--json <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    let cfg = ChaosCampaignConfig {
        seed: cli::arg_value(&args, "--seed", 2017),
        units: cli::arg_value(&args, "--units", 4) as usize,
        ops: cli::arg_value(&args, "--ops", 300),
        faults: cli::arg_value(&args, "--faults", 60) as usize,
        pipelined: !cli::has_flag(&args, "--comb"),
        quad_lanes: cli::has_flag(&args, "--quad"),
        ..ChaosCampaignConfig::default()
    };
    println!("=== Chaos run: the service's pool under a seeded fault schedule ===\n");
    // No registry spans here: spans record wall time, which would break
    // bit-reproducibility of the --json report.
    let registry = Registry::new();
    let report = run_chaos_campaign(&cfg, Some(&registry));
    println!("{report}");
    println!(
        "\ninvariant 1 (zero escapes): {}",
        if report.escapes == 0 {
            "PASS — every Ok answer matched the softfloat reference".to_string()
        } else {
            format!("FAIL — {} wrong answer(s) escaped", report.escapes)
        }
    );
    println!(
        "invariant 2 (degrade & recover): capacity {} -> min {} -> final {} of {}, \
         {} recovery cycle(s), {} retired",
        cfg.units,
        report.min_hw_capacity(),
        report.final_hw_capacity(),
        cfg.units,
        report.recovery_cycles,
        report.retired
    );
    if report.recovery_cycles == 0 {
        println!("note: no quarantined unit completed a recovery cycle under this seed");
    }

    if let Some(path) = cli::json_path(&args) {
        let mut run = RunReport::new("chaos");
        report.to_run_report(&mut run);
        run.param("pipelined", if cfg.pipelined { "true" } else { "false" })
            .param("quad", if cfg.quad_lanes { "true" } else { "false" })
            .with_telemetry(&registry);
        run.write(&path).expect("write JSON report");
        println!("wrote {}", path.display());
    }

    if report.escapes > 0 {
        std::process::exit(1);
    }
}
