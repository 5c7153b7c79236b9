//! Lightweight, dependency-free telemetry for the mfm workspace.
//!
//! The paper's entire evaluation is observational — switching-activity
//! power, per-format energy, critical-path breakdowns — so every layer of
//! this reproduction (gate-level simulator, power estimator, self-checking
//! unit, Monte-Carlo campaigns) emits structured metrics through this
//! crate instead of only printing prose tables.
//!
//! - [`metrics`] — the instrument types: [`Counter`], [`Gauge`] and
//!   [`Histogram`]. Handles are cheap `Arc`-backed clones; recording is a
//!   relaxed atomic operation, so instrumented hot loops pay almost
//!   nothing, and components that hold *no* handle pay only an
//!   `Option` branch.
//! - [`registry`] — the [`Registry`] that names instruments (one cell
//!   per name, whichever clone or thread asks), times nested [`Span`]s,
//!   and renders everything as a JSON-lines snapshot
//!   ([`Registry::snapshot_json`]) or Prometheus-style text exposition
//!   ([`Registry::prometheus`]).
//! - [`json`] — the hand-rolled JSON writer the workspace uses for every
//!   machine-readable artifact (no serde), plus a minimal well-formedness
//!   checker used by tests and tooling.
//! - [`trace`] — request-scoped tracing: [`TraceId`]s minted at the
//!   edge, per-phase [`PhaseSpans`], and the bounded [`TraceRing`] that
//!   backs the `/tracez` endpoint.
//! - [`flight`] — the always-on [`FlightRecorder`]: a bounded ring of
//!   recent structured events snapshotted into JSON incident reports
//!   when something goes wrong.
//!
//! # Example
//!
//! ```
//! use mfm_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let ops = reg.counter("unit.ops");
//! let pj = reg.gauge("power.live_pj_per_op");
//! ops.add(3);
//! pj.set(17.25);
//! let line = reg.snapshot_json();
//! assert!(line.contains("\"unit.ops\":3"));
//! mfm_telemetry::json::check(&line).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder, IncidentTrigger};
pub use metrics::{Counter, Exemplar, Gauge, Histogram};
pub use registry::{Registry, Span};
pub use trace::{Phase, PhaseSpans, TraceId, TraceMinter, TraceRecord, TraceRing};
