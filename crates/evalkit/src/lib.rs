//! Evaluation kit for the SOCC'17 multi-format multiplier reproduction:
//! operand workloads, Monte-Carlo power measurement and one module per
//! table/figure of the paper's evaluation.
//!
//! - [`workload`] — pseudo-random operand generators per format (the
//!   paper's "Monte Carlo simulation by generating pseudo-random input
//!   patterns"), plus generators for reducible binary64 values (Sec. IV).
//! - [`montecarlo`] — drives a gate-level netlist with a workload and
//!   derives a [`mfm_gatesim::PowerBreakdown`], either event-driven or
//!   through the 256-lane compiled activity engine.
//! - [`calibrate`] — per-block glitch-inflation calibration tying the
//!   compiled zero-delay toggle counts to the event-driven reference.
//! - [`experiments`] — regenerates every table: each function returns a
//!   serializable report struct with a `Display` that prints the same
//!   rows the paper reports.
//! - [`faultcov`] — seeded stuck-at fault-coverage campaigns for the
//!   self-checking unit (`mfmult::selfcheck`): per-block and per-format
//!   masked/detected/silent classification.
//! - [`shard`] — deterministic thread sharding: fixed logical shard
//!   decomposition with per-shard PRNG streams and order-independent
//!   merge, so campaigns are bit-identical at any thread count.
//! - [`runreport`] — machine-readable JSON run reports aggregating
//!   netlist statistics, timing, power and telemetry snapshots (the
//!   `--json` output of every table/figure binary).
//!
//! # Example
//!
//! ```
//! use mfm_evalkit::workload::OperandGen;
//! use mfmult::Format;
//!
//! let mut gen = OperandGen::new(42);
//! let op = gen.operation(Format::Binary64);
//! assert_eq!(op.format, Format::Binary64);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod calibrate;
pub mod experiments;
pub mod faultcov;
pub mod montecarlo;
pub mod runreport;
pub mod shard;
pub mod workload;
