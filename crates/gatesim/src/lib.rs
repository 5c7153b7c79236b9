//! Gate-level netlist modelling for the SOCC'17 multi-format multiplier
//! reproduction.
//!
//! The paper evaluates its designs by synthesizing them into a 45 nm
//! low-power standard-cell library (FO4 = 64 ps, NAND2 = 1.06 µm²) and
//! estimating power from simulated switching activity. This crate is the
//! open substitute for that flow:
//!
//! - [`tech`] — a calibrated 45 nm-style cell library: per-cell delay,
//!   area and switching energy.
//! - [`netlist`] — a structural netlist builder with hierarchical block
//!   attribution (every cell belongs to a named block such as `PPGEN` or
//!   `TREE`, so results decompose the way the paper's tables do).
//! - [`sim`] — an event-driven two-valued simulator with per-cell
//!   transport delays. Because events propagate with real delays, **glitches
//!   are simulated**, which is what makes the paper's combinational-versus-
//!   pipelined power comparison (Table III) reproducible.
//! - [`compiled`] — a compiled bit-parallel engine: the netlist lowered
//!   once into a levelized program evaluated over `[u64; W]` words
//!   (`64 * W` lanes per pass; 256 for [`CompiledSim`], 64 on the
//!   serving path), for correctness-only workloads — fault classification,
//!   batteries and equivalence sweeps — where glitch timing is
//!   irrelevant. Differentially tested against [`sim`].
//! - [`sta`] — topological static timing analysis: critical path per
//!   pipeline stage with per-block delay decomposition.
//! - [`power`] — activity-based power: `P = Σ toggles × E_sw × f` plus
//!   leakage, attributed per block.
//! - [`vector`] — helpers for driving multi-bit buses with integers.
//!
//! # Example
//!
//! ```
//! use mfm_gatesim::netlist::Netlist;
//! use mfm_gatesim::tech::TechLibrary;
//! use mfm_gatesim::sim::Simulator;
//!
//! let mut n = Netlist::new(TechLibrary::cmos45lp());
//! let a = n.input_bus("a", 4);
//! let b = n.input_bus("b", 4);
//! let sum: Vec<_> = a.iter().zip(&b).map(|(&x, &y)| n.xor2(x, y)).collect();
//! n.output_bus("sum", &sum);
//!
//! let mut sim = Simulator::new(&n);
//! sim.set_bus(&a, 0b1100);
//! sim.set_bus(&b, 0b1010);
//! sim.settle();
//! assert_eq!(sim.read_bus(&sum), 0b0110);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compiled;
pub mod export;
pub mod fault;
pub mod netlist;
pub mod power;
pub mod report;
pub mod sim;
pub mod sta;
pub mod tech;
pub mod trace;
pub mod vector;

pub use compiled::{
    first_lanes, lane_mask, lane_range, CompiledFaultSim, CompiledNetlist, CompiledSim, LaneSim,
    LaneWord, Lanes, ALL_LANES, LANES, LANE_WORDS, NO_LANES,
};
pub use fault::{CampaignRunner, CampaignStats, FaultKind, FaultOutcome, FaultSite};
pub use netlist::{
    BlockId, Cell, CellId, Driver, Levelization, NetId, Netlist, NetlistError, UndrivenRef,
};
pub use power::{LivePowerTrace, PowerBreakdown, PowerEstimator, PowerSample};
pub use sim::{SettleWork, Simulator};
pub use sta::{StaReport, TimingAnalysis};
pub use tech::{CellKind, TechLibrary};
