//! Regenerates Table V: power dissipation and power efficiency of the
//! 3-stage pipelined multi-format unit for each format.
//!
//! Usage: `table5 [--ops N] [--seed S] [--quad] [--compiled]
//! [--cal-ops N] [--threads N] [--json <path>]`
//! (default: 300 operations/format; `--threads` defaults to one per
//! available CPU).
//!
//! With `--compiled` the rows come from the 256-lane compiled activity
//! engine with per-block glitch-inflation calibration instead of the
//! event-driven simulator — hundreds of times faster, within the ±5 %
//! parity contract of `tests/power_parity.rs`. The calibration itself
//! runs `--cal-ops` event-driven operations per format (the one-time
//! cost), then every measured row is compiled-only.

use mfm_bench::{cli, paper_values};
use mfm_evalkit::experiments::{table5, table5_compiled};
use mfm_evalkit::montecarlo::measure_unit_traced;
use mfm_evalkit::runreport::RunReport;
use mfm_gatesim::report::Table;
use mfm_gatesim::{Netlist, TechLibrary, TimingAnalysis};
use mfm_telemetry::Registry;
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::Format;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ops = cli::arg_value(&args, "--ops", 300) as usize;
    let seed = cli::arg_value(&args, "--seed", 2017);
    let want_quad = cli::has_flag(&args, "--quad");
    let compiled = cli::has_flag(&args, "--compiled");
    let registry = Registry::new();
    let (t, cal) = {
        let _span = registry.span("table5");
        if compiled {
            let cal_ops = cli::arg_value(&args, "--cal-ops", (ops / 4).max(8) as u64) as usize;
            let (t, cal) = table5_compiled(ops, cal_ops, seed, 4, cli::threads(&args));
            (t, Some(cal))
        } else {
            (table5(ops, seed), None)
        }
    };
    println!("=== Table V: power and power efficiency per format ===\n");
    println!("{t}");
    if let Some(cal) = &cal {
        println!("--- compiled activity engine, glitch-inflation calibration ({} event-driven ops/format) ---", cal.ops);
        for fc in &cal.formats {
            println!(
                "  {:18} inflation {:.3}  (event-driven {:.2} pJ/op, zero-delay {:.2} pJ/op)",
                fc.format.label(),
                fc.default_factor,
                fc.event_driven_pj_per_op,
                fc.zero_delay_pj_per_op
            );
        }
        println!();
    }
    println!(
        "--- paper (fmax = {:.0} MHz, cycle {:.0} ps) ---",
        paper_values::PIPE.1,
        paper_values::PIPE.0
    );
    for (name, p100, pmax, gflops, eff) in paper_values::T5 {
        println!(
            "  {name:18} {p100:5.2} mW @100   {pmax:6.2} mW @fmax   {gflops:4.2} GFLOPS   {eff:6.2} GFLOPS/W"
        );
    }
    println!("\nshape check:");
    let find = |n: &str| t.rows.iter().find(|r| r.format == n).expect("row");
    let int = find("int64");
    let b64 = find("binary64");
    let dual = find("binary32 (dual)");
    let single = find("binary32 (single)");
    println!(
        "  power ordering int64 > binary64 > dual b32 > single b32: {:.2} > {:.2} > {:.2} > {:.2}",
        int.power_mw_100, b64.power_mw_100, dual.power_mw_100, single.power_mw_100
    );
    println!(
        "  binary64/int64 power ratio: {:.2} (paper 0.81)",
        b64.power_mw_100 / int.power_mw_100
    );
    println!(
        "  efficiency ordering dual >> single > binary64 > int64: {:.1} > {:.1} > {:.1} > {:.1} GFLOPS/W",
        dual.efficiency_gflops_w,
        single.efficiency_gflops_w,
        b64.efficiency_gflops_w,
        int.efficiency_gflops_w
    );
    println!(
        "  dual/single efficiency: {:.2}x (paper {:.2}x)",
        dual.efficiency_gflops_w / single.efficiency_gflops_w,
        38.68 / 26.53
    );

    if want_quad {
        use mfm_evalkit::montecarlo::measure_unit;
        use mfmult::pipeline::build_pipelined_unit_opts;
        use mfmult::UnitOptions;
        println!("\n=== Extension: quad binary16 row (quad-enabled unit build) ===");
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_pipelined_unit_opts(
            &mut n,
            PipelinePlacement::Fig5,
            UnitOptions {
                quad_lanes: true,
                ..UnitOptions::default()
            },
        );
        let fmax = TimingAnalysis::new(&n).report().max_freq_mhz();
        let p = measure_unit(&n, &u, Format::QuadBinary16, ops, seed);
        let p100 = p.total_mw_at(100.0);
        let pmax = p.total_mw_at(fmax);
        let gflops = 4.0 * fmax * 1e-3;
        println!(
            "  binary16 (quad)    {p100:5.2} mW @100   {pmax:6.2} mW @fmax   {gflops:4.2} GFLOPS   {:6.2} GFLOPS/W",
            gflops / (pmax * 1e-3)
        );
        println!(
            "  four half-precision multiplications per cycle extend the paper's\n  \
             precision/power trade-off one format further down."
        );
    }

    if let Some(path) = cli::json_path(&args) {
        // Re-measure binary64 with the convergence trace so the JSON
        // carries a full breakdown plus the Monte-Carlo mc.* telemetry.
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
        let sta = TimingAnalysis::new(&n).report();
        let window = (ops / 4).max(1);
        let (p, points) =
            measure_unit_traced(&n, &u, Format::Binary64, ops, seed, window, Some(&registry));

        let mut report = RunReport::new("table5");
        report
            .param("ops", &ops.to_string())
            .param("seed", &seed.to_string())
            .with_netlist(&n)
            .with_sta(&sta)
            .add_power("binary64", &p);
        let mut tbl = Table::new(&["format", "mW @100MHz", "mW @fmax", "GFLOPS", "GFLOPS/W"]);
        for r in &t.rows {
            tbl.row_owned(vec![
                r.format.clone(),
                format!("{:.2}", r.power_mw_100),
                format!("{:.2}", r.power_mw_fmax),
                format!("{:.2}", r.throughput_gflops),
                format!("{:.2}", r.efficiency_gflops_w),
            ]);
        }
        report.add_table("Table V power and efficiency per format", tbl);
        let mut conv = Table::new(&["ops", "window pJ/op", "mean pJ/op", "stddev"]);
        for pt in &points {
            conv.row_owned(vec![
                pt.ops.to_string(),
                format!("{:.2}", pt.window_pj_per_op),
                format!("{:.2}", pt.mean_pj_per_op),
                format!("{:.3}", pt.stddev_pj_per_op),
            ]);
        }
        report
            .add_table("Monte-Carlo convergence (binary64)", conv)
            .with_telemetry(&registry);
        report.write(&path).expect("write JSON report");
        println!("wrote {}", path.display());
    }
}
