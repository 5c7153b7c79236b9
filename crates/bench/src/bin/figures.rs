//! Structural reports for the paper's figures plus the ablation studies.
//!
//! Usage: `figures [fig1|fig2|fig3|fig4|fig5|fig6|adders|all] [--json <path>]`
//! (default: all).

use mfm_arith::adder::{build_adder, AdderKind};
use mfm_arith::tree::dadda_stage_count;
use mfm_arith::{build_multiplier, MultiplierConfig};
use mfm_bench::cli;
use mfm_evalkit::experiments::{activity_sweep, placement_study, sensitivity};
use mfm_evalkit::runreport::RunReport;
use mfm_gatesim::report::Table;
use mfm_gatesim::{Netlist, TechLibrary, TimingAnalysis};
use mfm_softfloat::paper::speculative_round;
use mfm_telemetry::Registry;
use mfmult::lanes::dual_occupancy;
use mfmult::reduce::build_reducer;
use mfmult::structural::build_unit;

fn fig1() {
    println!("=== Fig. 1: partial product generation ===\n");
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    build_multiplier(&mut n, MultiplierConfig::radix16());
    let mut t = Table::new(&["block", "area [um2]", "share"]);
    let total = n.area_um2();
    for (b, a) in n.area_by_block() {
        t.row_owned(vec![
            b,
            format!("{a:.0}"),
            format!("{:.0}%", 100.0 * a / total),
        ]);
    }
    println!("{t}");
    println!(
        "PPGEN structure per row bit: one-hot 8:1 mux (4x AOI22 + 2x NAND2 \
         + OR2) followed by the complementing XOR; 17 rows x 67 bits.\n\
         The odd multiples 3X/5X/7X are pre-computed by three CPAs; 2X, 4X, \
         6X, 8X are wiring."
    );
}

fn fig2() {
    println!("=== Fig. 2: radix-16 multiplier block diagram ===\n");
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    build_multiplier(&mut n, MultiplierConfig::radix16());
    let sta = TimingAnalysis::new(&n).report();
    let mut t = Table::new(&["critical path block", "delay [ps]", "cells"]);
    for s in &sta.segments {
        t.row_owned(vec![
            s.block.clone(),
            format!("{:.0}", s.delay_ps),
            s.cells.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "tree depths: radix-16 reduces height 17 in {} Dadda stages; \
         radix-4 reduces height 33 in {} (the paper's core argument).",
        dadda_stage_count(17),
        dadda_stage_count(33)
    );
}

fn fig3() {
    println!("=== Fig. 3: speculative normalize-and-round ===\n");
    // Demonstrate the speculation on three characteristic products.
    let cases: [(u64, u64, &str); 3] = [
        (1 << 52, 1 << 52, "1.0 x 1.0 (leading at 2p-2)"),
        ((1 << 53) - 1, (1 << 53) - 1, "max x max (leading at 2p-1)"),
        (
            1 << 52,
            (1 << 53) - 1,
            "1.0 x max (all-ones kept, guard clear)",
        ),
    ];
    let mut t = Table::new(&["case", "selected window", "exp +1", "inexact"]);
    for (ma, mb, name) in cases {
        let (_sig, inc, inexact) = speculative_round(53, ma, mb);
        t.row_owned(vec![
            name.to_owned(),
            if inc == 1 {
                "[105:53] (P1)"
            } else {
                "[104:52] (P0)"
            }
            .to_owned(),
            inc.to_string(),
            inexact.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "Both roundings are computed by two CPAs with injections R1 = 2^(p-1),\n\
         R0 = 2^(p-2); the P0 adder's MSB selects (see mfm_softfloat::paper\n\
         for why the paper's literal 'P1[105]' select would mis-round)."
    );
}

fn fig4() {
    println!("=== Fig. 4: dual binary32 array arrangement ===\n");
    let occ = dual_occupancy();
    // Render a compact columns-x-height chart, MSB left.
    println!("column occupancy (PP bits; '.' = empty), columns 127..0:");
    let max_h = occ.iter().map(|e| e.0 + e.1 + e.2).max().unwrap_or(0);
    for level in (0..max_h).rev() {
        let mut line = String::with_capacity(128);
        for col in (0..128).rev() {
            let (pp, s, k) = occ[col];
            let total = pp + s + k;
            line.push(if total > level {
                if level < pp {
                    '#'
                } else if level < pp + s {
                    's'
                } else {
                    'k'
                }
            } else {
                '.'
            });
        }
        println!("  {line}");
    }
    println!(
        "\n'#' = partial-product bits, 's' = sign handling (+s / ~s), 'k' = \
         correction constant.\nLower product occupies columns 0..47, upper \
         columns 64..111; carries across\ncolumn 63/64 are killed in dual \
         mode (the seam)."
    );
}

fn fig5() {
    println!("=== Fig. 5: pipelined multi-format unit ===\n");
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let _ = build_unit(&mut n);
    let sta = TimingAnalysis::new(&n).report();
    let mut t = Table::new(&["block (combinational path)", "delay [ps]"]);
    for s in &sta.segments {
        t.row_owned(vec![s.block.clone(), format!("{:.0}", s.delay_ps)]);
    }
    println!("{t}");
    println!("{}", placement_study());
    println!("paper: cycle 1120 ps (17.5 FO4), 880 MHz max, stage 2 critical.");
}

fn fig6() {
    println!("=== Fig. 6: binary64 -> binary32 reduction hardware ===\n");
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let _ = build_reducer(&mut n);
    let sta = TimingAnalysis::new(&n).report();
    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec!["cells".into(), n.cell_count().to_string()]);
    t.row_owned(vec!["area [um2]".into(), format!("{:.0}", n.area_um2())]);
    t.row_owned(vec![
        "area [NAND2]".into(),
        format!("{:.0}", n.area_nand2()),
    ]);
    t.row_owned(vec![
        "delay [ps]".into(),
        format!("{:.0}", sta.critical_delay_ps),
    ]);
    println!("{t}");
    println!(
        "components: 5-bit CPA (constant 11001 = (4096-896)>>7), 12-bit CPA \
         (constant 1011 1000 0001 = 4096-1151), OR tree over M[28:0], 2:1 \
         output mux — as drawn in Fig. 6."
    );
}

fn adders() {
    println!("=== Ablation A3: CPA architecture sweep ===\n");
    for width in [64usize, 128] {
        let mut t = Table::new(&["adder", "delay [ps]", "FO4", "area [um2]", "cells"]);
        for kind in AdderKind::ALL {
            let mut n = Netlist::new(TechLibrary::cmos45lp());
            let a = n.input_bus("a", width);
            let b = n.input_bus("b", width);
            let zero = n.zero();
            let ports = build_adder(&mut n, kind, &a, &b, zero);
            n.output_bus("sum", &ports.sum);
            let sta = TimingAnalysis::new(&n).report();
            t.row_owned(vec![
                format!("{kind:?}"),
                format!("{:.0}", sta.critical_delay_ps),
                format!("{:.1}", sta.critical_delay_ps / 64.0),
                format!("{:.0}", n.area_um2()),
                n.cell_count().to_string(),
            ]);
        }
        println!("{width}-bit adders:");
        println!("{t}");
    }
}

fn trees() {
    println!("=== Ablation: 3:2 (Dadda) vs 4:2 compressor trees ===\n");
    use mfm_arith::TreeStyle;
    use mfm_evalkit::montecarlo::measure_multiplier;
    let mut t = Table::new(&[
        "radix / tree",
        "delay [ps]",
        "area [um2]",
        "tree cells",
        "mW @100MHz",
    ]);
    for (name, cfg) in [
        ("r16 Dadda 3:2", MultiplierConfig::radix16()),
        (
            "r16 4:2",
            MultiplierConfig::radix16().with_tree(TreeStyle::FourTwo),
        ),
        ("r4 Dadda 3:2", MultiplierConfig::radix4()),
        (
            "r4 4:2",
            MultiplierConfig::radix4().with_tree(TreeStyle::FourTwo),
        ),
    ] {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_multiplier(&mut n, cfg);
        let sta = TimingAnalysis::new(&n).report();
        let tree_cells = n
            .cells()
            .iter()
            .filter(|c| n.top_level_block_name(c.block) == "TREE")
            .count();
        let p = measure_multiplier(&n, &ports, 120, 11, None);
        t.row_owned(vec![
            name.to_owned(),
            format!("{:.0}", sta.critical_delay_ps),
            format!("{:.0}", n.area_um2()),
            tree_cells.to_string(),
            format!("{:.2}", p.total_mw_at(100.0)),
        ]);
    }
    println!("{t}");
    println!(
        "Both styles are valid per the paper (\"3:2 or 4:2 carry-save \
         adders\"); Dadda\nminimizes compressor count, 4:2 rows give a more \
         regular structure."
    );
}

fn sensitivity_report() {
    println!("=== Ablation: calibration sensitivity of Table V ===\n");
    println!("{}", sensitivity(120, 2017));
    println!(
        "The power/efficiency orderings of Table V must hold across ±30% \
         switching-energy\nand 0.5–2x clock-energy perturbations of the \
         technology model."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Drop `--json <path>` before the positional figure selection.
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            it.next();
        } else {
            positional.push(a.clone());
        }
    }
    let which = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_owned());
    let registry = Registry::new();
    let span = registry.span(&format!("figures.{which}"));
    match which.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "adders" => adders(),
        "trees" => trees(),
        "activity" => {
            println!("=== Ablation: power vs input activity ===\n");
            println!("{}", activity_sweep(200, 2017));
        }
        "sensitivity" => sensitivity_report(),
        "all" => {
            fig1();
            println!();
            fig2();
            println!();
            fig3();
            println!();
            fig4();
            println!();
            fig5();
            println!();
            fig6();
            println!();
            adders();
            println!();
            trees();
            println!();
            sensitivity_report();
        }
        other => {
            eprintln!("unknown figure {other}; use fig1..fig6, adders, trees, sensitivity or all");
            std::process::exit(2);
        }
    }
    drop(span);

    if let Some(path) = cli::json_path(&args) {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let _ = build_unit(&mut n);
        let sta = TimingAnalysis::new(&n).report();
        let mut report = RunReport::new("figures");
        report
            .param("which", &which)
            .with_netlist(&n)
            .with_sta(&sta)
            .with_telemetry(&registry);
        report.write(&path).expect("write JSON report");
        println!("wrote {}", path.display());
    }
}
