//! Power estimator spot-check: per-block energy of the standalone
//! radix-16 vs radix-4 multipliers (event-driven), then the
//! multi-format unit through both estimators — event-driven reference
//! vs compiled zero-delay activity engine — with the per-format
//! glitch-inflation factors the calibration derives from the gap.

use mfm_arith::{build_multiplier, MultiplierConfig};
use mfm_evalkit::calibrate::GlitchCalibration;
use mfm_evalkit::montecarlo::measure_multiplier;
use mfm_gatesim::{CompiledNetlist, Netlist, TechLibrary};
use mfmult::structural::build_unit;

fn main() {
    for (name, cfg) in [
        ("r16", MultiplierConfig::radix16()),
        ("r4", MultiplierConfig::radix4()),
    ] {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_multiplier(&mut n, cfg);
        let p = measure_multiplier(&n, &ports, 150, 2017, None);
        println!(
            "{name}: {:.1} pJ/op, {:.0} transitions/op",
            p.energy_pj_per_op(),
            p.transitions_per_op
        );
        for (b, e) in &p.per_block_pj {
            println!("   {b:8} {e:7.2} pJ");
        }
    }

    println!("\nunit: event-driven vs compiled zero-delay (glitch-inflation calibration)");
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    let prog = CompiledNetlist::compile(&n).expect("unit netlist is acyclic");
    let cal = GlitchCalibration::run(&n, &prog, &ports, 40, 2017);
    for fc in &cal.formats {
        println!(
            "   {:18} event {:7.2} pJ/op  zero-delay {:7.2} pJ/op  inflation {:.3}",
            fc.format.label(),
            fc.event_driven_pj_per_op,
            fc.zero_delay_pj_per_op,
            fc.default_factor
        );
    }
    if let Some(fc) = cal.formats.first() {
        let mut blocks = fc.per_block.clone();
        blocks.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("   most glitch-prone blocks ({}):", fc.format.label());
        for (block, factor) in blocks.iter().take(3) {
            println!("      {block:8} x{factor:.3}");
        }
    }
}
