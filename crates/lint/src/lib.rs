//! # mfm-lint — static netlist analysis for the multi-format multiplier
//!
//! A multi-pass linter over [`mfm_gatesim::Netlist`], reusing the cached
//! levelization (topological order, logic levels, CSR fanout) the
//! simulators share. Five passes:
//!
//! 1. [`hygiene`] — undriven nets, zero-fanout logic, dead cells,
//!    combinational-loop localization with the actual cycle path;
//! 2. [`constants`] — ternary `{0, 1, X}` abstract interpretation
//!    flagging statically-constant cells and degenerate muxes/majorities;
//! 3. [`redundancy`] — AIG hash-consing sweep (commutative operand
//!    sorting *and* inverter push-through, via [`aig`]) reporting
//!    structurally duplicate gates per block;
//! 4. [`cone`]/[`isolation`] — per-output input-support bitsets that
//!    discharge the paper's lane-isolation obligations as machine-checked
//!    facts: in dual-binary32 mode the lower lane's product cone excludes
//!    every upper-lane operand bit (and vice versa), the column-64 seam
//!    carry is provably killed, and the full-width modes retain full
//!    operand support (no over-blanking). See `mfmult::meta`.
//! 5. [`prove`] — SAT-based combinational equivalence checking: each
//!    mode's output cones are extracted into the shared AIG ([`aig`]),
//!    mitered against an independently bit-blasted `mfm-softfloat`
//!    reference datapath ([`refmodel`]), and discharged by the in-tree
//!    CDCL solver ([`sat`]) with simulation-guided sweeping and
//!    recode-digit case splits. Verdicts are `Proved` / `Refuted`
//!    (with a concrete counterexample replayed on both simulation
//!    backends) / `Unknown` (budget exhausted — never a false `Proved`).
//!
//! The [`baseline`] module implements the reasoned allowlist behind the
//! CI gate (`bench --bin lint`): every accepted finding group carries a
//! mandatory justification, and the gate fails on anything new.
//!
//! ```
//! use mfm_lint::{standard_units, lint_unit};
//!
//! let units = standard_units();
//! let mfmult = units.iter().find(|u| u.name == "mfmult").unwrap();
//! let report = lint_unit(mfmult);
//! // The dual-mode isolation facts are proved, not simulated:
//! assert!(report
//!     .proofs
//!     .iter()
//!     .any(|p| p.contains("dual-binary32 lane lower")));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aig;
pub mod baseline;
pub mod cone;
pub mod constants;
pub mod finding;
pub mod hygiene;
pub mod isolation;
pub mod prove;
pub mod redundancy;
pub mod refmodel;
pub mod sat;
pub mod ternary;
pub mod units;

pub use aig::{Aig, Lit as AigLit, NetlistAig};
pub use baseline::{diff, Baseline, BaselineEntry, GateResult, Violation};
pub use cone::SupportAnalysis;
pub use finding::{Finding, Rule, UnitReport};
pub use prove::{
    prove_unit, ConeResult, ConeVerdict, Counterexample, ModeReport, ProveOptions, ProveReport,
};
pub use refmodel::{build_reference, Mode, RefOutputs};
pub use sat::{Solver, SolverStats, Verdict};
pub use ternary::{sweep, Tern, TernaryValues};
pub use units::{lint_all, lint_unit, lint_unit_passes, standard_units, BuiltUnit, PassSet};
