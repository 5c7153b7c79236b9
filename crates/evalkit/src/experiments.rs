//! One function per table/figure of the paper's evaluation. Each returns
//! a serializable report whose `Display` prints rows in the paper's
//! layout; the `table*` binaries in `mfm-bench` are thin wrappers.

use crate::calibrate::GlitchCalibration;
use crate::montecarlo::{
    drive_multiplier, measure_multiplier, measure_unit, measure_unit_compiled_sharded,
};
use mfm_arith::{build_multiplier, MultiplierConfig, Radix};
use mfm_gatesim::report::Table;
use mfm_gatesim::{CompiledNetlist, Netlist, PowerBreakdown, TechLibrary, TimingAnalysis};
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::Format;
use std::fmt;

/// Table I / Table II: latency, area and critical-path decomposition of a
/// 64×64 multiplier.
#[derive(Debug, Clone)]
pub struct MultiplierReport {
    /// Radix of the measured multiplier.
    pub radix: u32,
    /// Critical-path delay in ps.
    pub latency_ps: f64,
    /// Critical-path delay in FO4 units.
    pub latency_fo4: f64,
    /// Raw (unit-sized) cell area in µm².
    pub area_um2_raw: f64,
    /// Area under the slack-based sizing model, µm².
    pub area_um2_sized: f64,
    /// Sized area as NAND2-equivalent gate count.
    pub area_nand2: f64,
    /// Per-block critical-path segments `(block, ps)` in path order.
    pub critical_path: Vec<(String, f64)>,
    /// Number of cells.
    pub cells: usize,
}

impl fmt::Display for MultiplierReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "64x64 radix-{} multiplier", self.radix)?;
        let mut t = Table::new(&["critical path", "delay [ps]"]);
        for (block, ps) in &self.critical_path {
            t.row_owned(vec![block.clone(), format!("{ps:.0}")]);
        }
        t.row_owned(vec!["TOTAL".into(), format!("{:.0}", self.latency_ps)]);
        write!(f, "{t}")?;
        let mut t = Table::new(&["latency [ns]", "FO4", "area [um2]", "NAND2"]);
        t.row_owned(vec![
            format!("{:.3}", self.latency_ps / 1000.0),
            format!("{:.0}", self.latency_fo4),
            format!("{:.0}", self.area_um2_sized),
            format!("{:.1}K", self.area_nand2 / 1000.0),
        ]);
        write!(f, "{t}")
    }
}

fn multiplier_report(cfg: MultiplierConfig) -> MultiplierReport {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    build_multiplier(&mut n, cfg);
    let ta = TimingAnalysis::new(&n);
    let sta = ta.report();
    let sized = ta.sized_area_um2(sta.min_period_ps);
    MultiplierReport {
        radix: match cfg.radix {
            Radix::R4 => 4,
            Radix::R8 => 8,
            Radix::R16 => 16,
        },
        latency_ps: sta.critical_delay_ps,
        latency_fo4: sta.critical_delay_fo4(n.tech().fo4_ps),
        area_um2_raw: n.area_um2(),
        area_um2_sized: sized,
        area_nand2: n.tech().um2_to_nand2(sized),
        critical_path: sta
            .segments
            .iter()
            .map(|s| (s.block.clone(), s.delay_ps))
            .collect(),
        cells: n.cell_count(),
    }
}

/// Table I: the radix-16 baseline multiplier.
pub fn table1() -> MultiplierReport {
    multiplier_report(MultiplierConfig::radix16())
}

/// Table II: the radix-4 Booth comparison multiplier.
pub fn table2() -> MultiplierReport {
    multiplier_report(MultiplierConfig::radix4())
}

/// Ablation (the radix the paper declined to build): radix-8.
pub fn table2_radix8() -> MultiplierReport {
    multiplier_report(MultiplierConfig::radix8())
}

/// Table III: power at 100 MHz for radix-4 vs radix-16, combinational and
/// two-stage pipelined.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Monte-Carlo vectors per configuration.
    pub vectors: usize,
    /// `(configuration, radix-4 mW, radix-16 mW, ratio)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Power dissipation at 100 MHz ({} random vectors)",
            self.vectors
        )?;
        let mut t = Table::new(&["", "radix-4 [mW]", "radix-16 [mW]", "ratio"]);
        for (name, r4, r16, ratio) in &self.rows {
            t.row_owned(vec![
                name.clone(),
                format!("{r4:.2}"),
                format!("{r16:.2}"),
                format!("{ratio:.2}"),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the Table III experiment.
pub fn table3(vectors: usize, seed: u64) -> Table3 {
    let mut rows = Vec::new();
    // Combinational row.
    let mw = |cfg: MultiplierConfig| -> f64 {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_multiplier(&mut n, cfg);
        measure_multiplier(&n, &ports, vectors, seed, None).total_mw_at(100.0)
    };
    let r4c = mw(MultiplierConfig::radix4());
    let r16c = mw(MultiplierConfig::radix16());
    rows.push(("Combinational".to_owned(), r4c, r16c, r16c / r4c));
    let r4p = mw(MultiplierConfig::radix4().pipelined());
    let r16p = mw(MultiplierConfig::radix16().pipelined());
    rows.push(("two-stage pipelined".to_owned(), r4p, r16p, r16p / r4p));
    Table3 { vectors, rows }
}

/// Table IV: the IEEE 754-2008 binary format parameters.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// `(quantity, binary16, binary32, binary64, binary128)` rows.
    pub rows: Vec<(String, i64, i64, i64, i64)>,
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&["", "binary16", "binary32", "binary64", "binary128"]);
        for (q, a, b, c, d) in &self.rows {
            t.row_owned(vec![
                q.clone(),
                a.to_string(),
                b.to_string(),
                c.to_string(),
                d.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Regenerates Table IV from the softfloat format definitions.
pub fn table4() -> Table4 {
    use mfm_softfloat::{BINARY128, BINARY16, BINARY32, BINARY64};
    let fmts = [BINARY16, BINARY32, BINARY64, BINARY128];
    let row = |name: &str, f: &dyn Fn(&mfm_softfloat::BinaryFormat) -> i64| {
        (
            name.to_owned(),
            f(&fmts[0]),
            f(&fmts[1]),
            f(&fmts[2]),
            f(&fmts[3]),
        )
    };
    Table4 {
        rows: vec![
            row("storage (bits)", &|f| f.storage as i64),
            row("precision p (bits)", &|f| f.precision as i64),
            row("exponent length (bits)", &|f| f.exponent_bits as i64),
            row("Emax", &|f| f.emax as i64),
            row("bias", &|f| f.bias as i64),
            row("trailing significand f (bits)", &|f| {
                f.trailing_significand as i64
            }),
        ],
    }
}

/// Table V: power, throughput and power efficiency per format on the
/// 3-stage pipelined multi-format unit.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Operations measured per format.
    pub ops: usize,
    /// Maximum clock frequency from STA, MHz.
    pub fmax_mhz: f64,
    /// Rows in Table V order.
    pub rows: Vec<Table5Row>,
}

/// One row of Table V.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Format name as printed.
    pub format: String,
    /// Power at 100 MHz, mW.
    pub power_mw_100: f64,
    /// Power at the unit's maximum frequency, mW.
    pub power_mw_fmax: f64,
    /// Throughput at fmax in GFLOPS (multiplications/s for int64).
    pub throughput_gflops: f64,
    /// Power efficiency at fmax, GFLOPS/W.
    pub efficiency_gflops_w: f64,
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Multi-format unit, 3-stage pipeline, fmax = {:.0} MHz ({} ops/format)",
            self.fmax_mhz, self.ops
        )?;
        let mut t = Table::new(&[
            "Format",
            "Power@100MHz [mW]",
            "Power@fmax [mW]",
            "throughput [GFLOPS]",
            "Power eff. [GFLOPS/W]",
        ]);
        for r in &self.rows {
            t.row_owned(vec![
                r.format.clone(),
                format!("{:.2}", r.power_mw_100),
                format!("{:.2}", r.power_mw_fmax),
                format!("{:.2}", r.throughput_gflops),
                format!("{:.2}", r.efficiency_gflops_w),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Builds Table V from one power measurement per format of a unit whose
/// maximum clock is `fmax` MHz.
fn table5_rows(ops: usize, fmax: f64, mut measure: impl FnMut(Format) -> PowerBreakdown) -> Table5 {
    let name = |f: Format| match f {
        Format::Int64 => "int64",
        Format::Binary64 => "binary64",
        Format::DualBinary32 => "binary32 (dual)",
        Format::SingleBinary32 => "binary32 (single)",
        Format::QuadBinary16 => "binary16 (quad)",
    };
    let rows = Format::ALL
        .iter()
        .map(|&fmt| {
            let p = measure(fmt);
            let p100 = p.total_mw_at(100.0);
            let pfmax = p.total_mw_at(fmax);
            let throughput = fmt.ops_per_cycle() as f64 * fmax * 1e-3; // GFLOPS
            Table5Row {
                format: name(fmt).to_owned(),
                power_mw_100: p100,
                power_mw_fmax: pfmax,
                throughput_gflops: throughput,
                efficiency_gflops_w: throughput / (pfmax * 1e-3),
            }
        })
        .collect();
    Table5 {
        ops,
        fmax_mhz: fmax,
        rows,
    }
}

/// Runs the Table V experiment.
pub fn table5(ops: usize, seed: u64) -> Table5 {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let u = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    let fmax = TimingAnalysis::new(&n).report().max_freq_mhz();
    table5_rows(ops, fmax, |fmt| measure_unit(&n, &u, fmt, ops, seed))
}

/// Runs the Table V experiment through the compiled 256-lane activity
/// engine: calibrates per-format glitch inflation on `cal_ops`
/// event-driven operations (a PRNG stream distinct from every
/// measurement shard), then measures each format with
/// [`measure_unit_compiled_sharded`] over `shards` logical shards on up
/// to `threads` worker threads. Returns the table plus the calibration
/// used, so callers can persist it next to the results.
///
/// The row values are the calibrated compiled estimates; they agree
/// with [`table5`] to within Monte-Carlo noise (±5 % is asserted in
/// `tests/power_parity.rs`) while the measurement itself runs two
/// orders of magnitude faster.
pub fn table5_compiled(
    ops: usize,
    cal_ops: usize,
    seed: u64,
    shards: usize,
    threads: usize,
) -> (Table5, GlitchCalibration) {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let u = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    let prog = CompiledNetlist::compile(&n).expect("pipelined unit is acyclic");
    let fmax = TimingAnalysis::new(&n).report().max_freq_mhz();
    // A shard index far above any real shard count keeps the calibration
    // stream disjoint from the measurement streams for the same seed.
    let cal_seed = crate::shard::shard_seed(seed, 1 << 32);
    let cal = GlitchCalibration::run(&n, &prog, &u, cal_ops, cal_seed);
    let t = table5_rows(ops, fmax, |fmt| {
        measure_unit_compiled_sharded(&n, &prog, &u, fmt, ops, seed, shards, threads, Some(&cal))
    });
    (t, cal)
}

/// Fig. 5 ablation: per-placement minimum period and register count.
#[derive(Debug, Clone)]
pub struct PlacementStudy {
    /// `(placement, min period ps, FO4, max MHz, DFF count)` rows.
    pub rows: Vec<(String, f64, f64, f64, usize)>,
}

impl fmt::Display for PlacementStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Pipeline register placement study (Sec. III-D)")?;
        let mut t = Table::new(&["placement", "period [ps]", "FO4", "fmax [MHz]", "DFFs"]);
        for (name, ps, fo4, mhz, dffs) in &self.rows {
            t.row_owned(vec![
                name.clone(),
                format!("{ps:.0}"),
                format!("{fo4:.1}"),
                format!("{mhz:.0}"),
                dffs.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Sensitivity ablation: Table V's orderings under perturbed calibration.
///
/// The substituted technology model is the main threat to validity of
/// this reproduction, so the headline orderings are re-measured with the
/// switching energies scaled ±30 % and the clock energy halved/doubled.
#[derive(Debug, Clone)]
pub struct SensitivityStudy {
    /// `(energy scale, clock fJ, power ordering holds, efficiency
    /// ordering holds, dual/single efficiency)` rows.
    pub rows: Vec<(f64, f64, bool, bool, f64)>,
    /// Operations per measurement.
    pub ops: usize,
}

impl fmt::Display for SensitivityStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Sensitivity of Table V orderings to calibration ({} ops/point)",
            self.ops
        )?;
        let mut t = Table::new(&[
            "energy scale",
            "clock fJ/DFF",
            "power ordering",
            "efficiency ordering",
            "dual/single eff.",
        ]);
        for (e, c, p, eff, ratio) in &self.rows {
            t.row_owned(vec![
                format!("{e:.1}x"),
                format!("{c:.1}"),
                if *p { "holds" } else { "BROKEN" }.into(),
                if *eff { "holds" } else { "BROKEN" }.into(),
                format!("{ratio:.2}x"),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the sensitivity ablation over energy and clock perturbations.
pub fn sensitivity(ops: usize, seed: u64) -> SensitivityStudy {
    use crate::montecarlo::measure_unit;
    let mut rows = Vec::new();
    for &escale in &[0.7f64, 1.0, 1.3] {
        for &clock in &[2.25f64, 4.5, 9.0] {
            let tech = TechLibrary::cmos45lp()
                .with_energy_scale(escale)
                .with_clock_energy_fj(clock);
            let mut n = Netlist::new(tech);
            let u = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
            let sta = TimingAnalysis::new(&n).report();
            let fmax = sta.max_freq_mhz();
            let p: Vec<f64> = Format::ALL
                .iter()
                .map(|&f| measure_unit(&n, &u, f, ops, seed).total_mw_at(100.0))
                .collect();
            // Format::ALL order: Int64, Binary64, DualBinary32, SingleBinary32.
            let power_ok = p[0] > p[1] && p[1] > p[2] && p[2] > p[3];
            let eff: Vec<f64> = Format::ALL
                .iter()
                .zip(&p)
                .map(|(&f, &pw)| {
                    let gflops = f.ops_per_cycle() as f64 * fmax * 1e-3;
                    gflops / (pw * (fmax / 100.0) * 1e-3)
                })
                .collect();
            let eff_ok = eff[2] > eff[3] && eff[3] > eff[1] && eff[1] > eff[0];
            rows.push((escale, clock, power_ok, eff_ok, eff[2] / eff[3]));
        }
    }
    SensitivityStudy { rows, ops }
}

/// Activity sweep: power of the radix-16 multiplier versus input
/// switching activity.
///
/// The paper explains Table V's per-format differences as "different
/// activity in the multiplier"; this ablation measures the relation
/// directly by driving the combinational unit with operands whose
/// per-bit flip probability is controlled.
#[derive(Debug, Clone)]
pub struct ActivitySweep {
    /// `(bit flip probability, mW @100 MHz, transitions/op)` rows.
    pub rows: Vec<(f64, f64, f64)>,
    /// Vectors per point.
    pub vectors: usize,
}

impl fmt::Display for ActivitySweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Radix-16 multiplier power vs input activity ({} vectors/point)",
            self.vectors
        )?;
        let mut t = Table::new(&["P(bit flip)", "mW @100MHz", "transitions/op"]);
        for (p, mw, tr) in &self.rows {
            t.row_owned(vec![
                format!("{p:.2}"),
                format!("{mw:.2}"),
                format!("{tr:.0}"),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the activity sweep.
pub fn activity_sweep(vectors: usize, seed: u64) -> ActivitySweep {
    use crate::workload::OperandGen;

    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_multiplier(&mut n, MultiplierConfig::radix16());
    let mut rows = Vec::new();
    for &p_flip in &[0.05f64, 0.1, 0.25, 0.5] {
        let mut gen = OperandGen::new(seed);
        let start = (0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64);
        let mut state = start;
        let operands = std::iter::once(start).chain(std::iter::repeat_with(|| {
            gen.correlated_step(&mut state, p_flip)
        }));
        let p = drive_multiplier(&n, &ports, vectors, None, operands);
        rows.push((p_flip, p.total_mw_at(100.0), p.transitions_per_op));
    }
    ActivitySweep { rows, vectors }
}

/// Runs the pipeline-placement ablation.
pub fn placement_study() -> PlacementStudy {
    let rows = PipelinePlacement::ALL
        .iter()
        .map(|&p| {
            let mut n = Netlist::new(TechLibrary::cmos45lp());
            build_pipelined_unit(&mut n, p);
            let sta = TimingAnalysis::new(&n).report();
            (
                format!("{p:?}"),
                sta.min_period_ps,
                sta.min_period_ps / n.tech().fo4_ps,
                sta.max_freq_mhz(),
                n.dff_count(),
            )
        })
        .collect();
    PlacementStudy { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_table2_shapes() {
        let t1 = table1();
        let t2 = table2();
        // Radix-4 is faster but larger (sized), as in the paper.
        assert!(t2.latency_ps < t1.latency_ps);
        assert!(t2.area_um2_sized > t1.area_um2_sized);
        // The radix-16 critical path ends in the CPA and passes the TREE.
        let blocks: Vec<&str> = t1.critical_path.iter().map(|(b, _)| b.as_str()).collect();
        assert_eq!(blocks.last().copied(), Some("CPA"));
        assert!(blocks.contains(&"TREE"));
        // Printed reports carry the headline numbers.
        let s = t1.to_string();
        assert!(s.contains("radix-16"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn table4_matches_standard() {
        let t = table4();
        assert_eq!(t.rows[0].1, 16);
        assert_eq!(t.rows[1].3, 53); // binary64 precision
        assert_eq!(t.rows[3].4, 16383); // binary128 Emax
        let s = t.to_string();
        assert!(s.contains("1023"));
    }

    #[test]
    fn table3_small_run_shape() {
        // Tiny vector count for test speed; the full binary uses hundreds.
        let t = table3(12, 3);
        assert_eq!(t.rows.len(), 2);
        for (name, r4, r16, ratio) in &t.rows {
            assert!(r4 > &0.0 && r16 > &0.0, "{name}");
            assert!((ratio - r16 / r4).abs() < 1e-9);
        }
    }

    #[test]
    fn table5_compiled_small_run_shape() {
        let (t, cal) = table5_compiled(12, 6, 3, 2, 2);
        assert_eq!(t.rows.len(), Format::ALL.len());
        assert_eq!(cal.formats.len(), Format::ALL.len());
        assert!(t.fmax_mhz > 0.0);
        for r in &t.rows {
            assert!(r.power_mw_100 > 0.0, "{}", r.format);
            assert!(r.efficiency_gflops_w > 0.0, "{}", r.format);
        }
        // The calibration rode along so it can be persisted with the table.
        assert!(GlitchCalibration::parse(&cal.to_json()).is_ok());
    }

    #[test]
    fn placement_study_has_three_rows() {
        let s = placement_study();
        assert_eq!(s.rows.len(), 3);
        assert!(s
            .rows
            .iter()
            .all(|(_, ps, _, _, dffs)| *ps > 0.0 && *dffs > 0));
    }
}
