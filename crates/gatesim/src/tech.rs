//! Technology library: per-cell delay, area and switching energy.
//!
//! The default library, [`TechLibrary::cmos45lp`], models the 45 nm
//! low-power standard-cell library the paper uses: its FO4 inverter delay
//! is 64 ps and the NAND2 footprint is 1.06 µm². Per-cell numbers follow
//! logical-effort-style ratios under a moderate-fanout load; they are *not*
//! tuned to reproduce the paper's absolute results (see DESIGN.md §6).

/// The kinds of standard cells the netlist builder can instantiate.
///
/// The set matches what a synthesizer maps datapath logic to: simple static
/// CMOS gates, a transmission-gate mux, complex AOI/OAI gates, a majority
/// gate (the carry function of a full adder) and a D flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer; output = `sel ? a1 : a0`.
    Mux2,
    /// AND-OR-invert 2-1: output = `!((a & b) | c)`.
    Aoi21,
    /// AND-OR-invert 2-2: output = `!((a & b) | (c & d))` — the workhorse
    /// of one-hot mux structures.
    Aoi22,
    /// OR-AND-invert 2-1: output = `!((a | b) & c)`.
    Oai21,
    /// 3-input majority (full-adder carry).
    Maj3,
    /// Rising-edge D flip-flop.
    Dff,
}

impl CellKind {
    /// Number of data inputs this cell kind takes.
    pub const fn arity(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Mux2
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Maj3 => 3,
            CellKind::Aoi22 => 4,
        }
    }

    /// Evaluates the combinational function of this cell kind.
    ///
    /// For [`CellKind::Dff`] this returns the D input unchanged (the
    /// sequential behaviour lives in the simulator).
    ///
    /// For [`CellKind::Mux2`] the input order is `[a0, a1, sel]`.
    #[inline]
    pub fn eval(self, a: bool, b: bool, c: bool, d: bool) -> bool {
        match self {
            CellKind::Inv => !a,
            CellKind::Buf | CellKind::Dff => a,
            CellKind::Nand2 => !(a & b),
            CellKind::Nand3 => !(a & b & c),
            CellKind::Nor2 => !(a | b),
            CellKind::Nor3 => !(a | b | c),
            CellKind::And2 => a & b,
            CellKind::And3 => a & b & c,
            CellKind::Or2 => a | b,
            CellKind::Or3 => a | b | c,
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
            CellKind::Mux2 => {
                if c {
                    b
                } else {
                    a
                }
            }
            CellKind::Aoi21 => !((a & b) | c),
            CellKind::Aoi22 => !((a & b) | (c & d)),
            CellKind::Oai21 => !((a | b) & c),
            CellKind::Maj3 => (a & b) | (a & c) | (b & c),
        }
    }

    /// All cell kinds, for iteration in reports and tests.
    pub const ALL: [CellKind; 18] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::And2,
        CellKind::And3,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi21,
        CellKind::Aoi22,
        CellKind::Oai21,
        CellKind::Maj3,
        CellKind::Dff,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            CellKind::Inv => 0,
            CellKind::Buf => 1,
            CellKind::Nand2 => 2,
            CellKind::Nand3 => 3,
            CellKind::Nor2 => 4,
            CellKind::Nor3 => 5,
            CellKind::And2 => 6,
            CellKind::And3 => 7,
            CellKind::Or2 => 8,
            CellKind::Or3 => 9,
            CellKind::Xor2 => 10,
            CellKind::Xnor2 => 11,
            CellKind::Mux2 => 12,
            CellKind::Aoi21 => 13,
            CellKind::Aoi22 => 14,
            CellKind::Oai21 => 15,
            CellKind::Maj3 => 16,
            CellKind::Dff => 17,
        }
    }
}

/// Physical parameters of one cell kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Propagation delay input→output in picoseconds (for a DFF: clk→q).
    pub delay_ps: f64,
    /// Cell area in µm².
    pub area_um2: f64,
    /// Self energy per output transition (internal + output drain
    /// capacitance), in femtojoules.
    pub energy_fj: f64,
    /// Energy charged into one *input pin* of this cell per transition of
    /// the driving net, in femtojoules. Total dynamic energy of a net
    /// toggle = driver self energy + Σ fanout input energies.
    pub input_fj: f64,
}

/// A technology library: parameters for every [`CellKind`] plus a few
/// global quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    /// Human-readable library name.
    pub name: String,
    /// FO4 inverter delay in picoseconds; the unit the paper quotes delays in.
    pub fo4_ps: f64,
    /// NAND2 cell area in µm²; the unit the paper quotes areas in.
    pub nand2_area_um2: f64,
    /// DFF setup time in picoseconds (added to stage delay when computing
    /// the minimum clock period).
    pub dff_setup_ps: f64,
    /// Energy drawn by a DFF's internal clock buffering every clock cycle,
    /// independent of data activity, in femtojoules.
    pub dff_clock_energy_fj: f64,
    /// Leakage power density in nanowatts per µm².
    pub leakage_nw_per_um2: f64,
    params: Vec<CellParams>,
}

impl TechLibrary {
    /// The default 45 nm low-power library model (FO4 = 64 ps,
    /// NAND2 = 1.06 µm², matching the constants the paper reports).
    ///
    /// Delay ratios are logical-effort style under a fanout-of-2..3 load;
    /// energies scale roughly with input capacitance (area).
    pub fn cmos45lp() -> Self {
        use CellKind::*;
        let fo4 = 64.0;
        // (kind, delay in FO4 units, area in NAND2 units,
        //  self energy fJ/transition, input-pin energy fJ/transition)
        let table: [(CellKind, f64, f64, f64, f64); 18] = [
            (Inv, 0.35, 0.75, 0.55, 0.20),
            (Buf, 0.60, 1.10, 0.90, 0.20),
            (Nand2, 0.45, 1.00, 0.85, 0.25),
            (Nand3, 0.62, 1.50, 1.20, 0.25),
            (Nor2, 0.52, 1.00, 0.90, 0.25),
            (Nor3, 0.75, 1.55, 1.30, 0.25),
            (And2, 0.65, 1.25, 1.05, 0.25),
            (And3, 0.82, 1.75, 1.40, 0.25),
            (Or2, 0.68, 1.25, 1.10, 0.25),
            (Or3, 0.88, 1.80, 1.45, 0.25),
            // Areas follow transistor counts relative to NAND2 (4T):
            // XOR2/XNOR2 ≈ 10T, MUX2 ≈ 10T, MAJ3 (mirror carry) ≈ 12T.
            // XOR/MUX input pins drive two transistor gates each.
            (Xor2, 0.90, 2.50, 2.10, 0.45),
            (Xnor2, 0.90, 2.50, 2.10, 0.45),
            (Mux2, 0.75, 2.40, 1.90, 0.40),
            (Aoi21, 0.58, 1.50, 1.15, 0.25),
            (Aoi22, 0.62, 2.00, 1.45, 0.25),
            (Oai21, 0.58, 1.50, 1.15, 0.25),
            (Maj3, 0.95, 3.00, 2.40, 0.45),
            (Dff, 1.70, 4.25, 3.00, 0.30), // delay = clk→q
        ];
        let nand2_area = 1.06;
        let mut params = vec![
            CellParams {
                delay_ps: 0.0,
                area_um2: 0.0,
                energy_fj: 0.0,
                input_fj: 0.0,
            };
            18
        ];
        for (kind, d_fo4, a_nand2, e_fj, i_fj) in table {
            params[kind.index()] = CellParams {
                delay_ps: d_fo4 * fo4,
                area_um2: a_nand2 * nand2_area,
                energy_fj: e_fj,
                input_fj: i_fj,
            };
        }
        TechLibrary {
            name: "cmos45lp".to_owned(),
            fo4_ps: fo4,
            nand2_area_um2: nand2_area,
            dff_setup_ps: 0.85 * fo4,
            // Clock pin plus the flop's share of local clock buffering —
            // the format-independent power floor of a pipelined unit.
            dff_clock_energy_fj: 4.5,
            leakage_nw_per_um2: 2.0,
            params,
        }
    }

    /// Parameters for a cell kind.
    pub fn params(&self, kind: CellKind) -> CellParams {
        self.params[kind.index()]
    }

    /// Returns a copy of the library with every switching-energy figure
    /// (cell self energy and input-pin energy) scaled by `factor`.
    /// Used by the sensitivity ablation to show the reproduced power
    /// orderings do not hinge on the calibration constants.
    pub fn with_energy_scale(mut self, factor: f64) -> Self {
        for p in &mut self.params {
            p.energy_fj *= factor;
            p.input_fj *= factor;
        }
        self.name = format!("{} (energy x{factor})", self.name);
        self
    }

    /// Returns a copy with the per-DFF clock energy replaced.
    pub fn with_clock_energy_fj(mut self, fj: f64) -> Self {
        self.dff_clock_energy_fj = fj;
        self
    }

    /// Returns a copy with every cell delay scaled by `factor` (FO4 and
    /// setup scale along).
    pub fn with_delay_scale(mut self, factor: f64) -> Self {
        for p in &mut self.params {
            p.delay_ps *= factor;
        }
        self.fo4_ps *= factor;
        self.dff_setup_ps *= factor;
        self
    }

    /// Converts a delay in picoseconds to FO4 units.
    pub fn ps_to_fo4(&self, ps: f64) -> f64 {
        ps / self.fo4_ps
    }

    /// Converts an area in µm² to NAND2-equivalent gate count.
    pub fn um2_to_nand2(&self, um2: f64) -> f64 {
        um2 / self.nand2_area_um2
    }
}

impl Default for TechLibrary {
    fn default() -> Self {
        Self::cmos45lp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let lib = TechLibrary::cmos45lp();
        assert_eq!(lib.fo4_ps, 64.0);
        assert_eq!(lib.nand2_area_um2, 1.06);
    }

    #[test]
    fn every_kind_has_positive_params() {
        let lib = TechLibrary::cmos45lp();
        for kind in CellKind::ALL {
            let p = lib.params(kind);
            assert!(p.delay_ps > 0.0, "{kind:?}");
            assert!(p.area_um2 > 0.0, "{kind:?}");
            assert!(p.energy_fj > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn truth_tables() {
        use CellKind::*;
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    for d in [false, true] {
                        assert_eq!(Nand2.eval(a, b, c, d), !(a && b));
                        assert_eq!(Nor3.eval(a, b, c, d), !(a || b || c));
                        assert_eq!(Xor2.eval(a, b, c, d), a ^ b);
                        assert_eq!(Mux2.eval(a, b, c, d), if c { b } else { a });
                        assert_eq!(Aoi21.eval(a, b, c, d), !((a && b) || c));
                        assert_eq!(Aoi22.eval(a, b, c, d), !((a && b) || (c && d)));
                        assert_eq!(Oai21.eval(a, b, c, d), !((a || b) && c));
                        assert_eq!(Maj3.eval(a, b, c, d), (a as u8 + b as u8 + c as u8) >= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn relative_delays_are_sane() {
        let lib = TechLibrary::cmos45lp();
        // An XOR is slower than a NAND; a DFF clk→q is the slowest element.
        assert!(lib.params(CellKind::Xor2).delay_ps > lib.params(CellKind::Nand2).delay_ps);
        assert!(lib.params(CellKind::Dff).delay_ps > lib.params(CellKind::Xor2).delay_ps);
        // Pipeline overhead (clk→q + setup) is in the 2–3 FO4 range the
        // paper quotes.
        let overhead = lib.params(CellKind::Dff).delay_ps + lib.dff_setup_ps;
        let fo4 = lib.ps_to_fo4(overhead);
        assert!((2.0..=3.5).contains(&fo4), "pipeline overhead {fo4} FO4");
    }

    #[test]
    fn arity_matches_eval_signature() {
        for kind in CellKind::ALL {
            assert!(kind.arity() >= 1 && kind.arity() <= 4);
        }
        assert_eq!(CellKind::Aoi22.arity(), 4);
    }
}
