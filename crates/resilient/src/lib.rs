//! Resilient multi-unit execution for the SOCC'17 multi-format
//! multiplier: a pool of self-checking units behind a bounded,
//! backpressured submission queue, with per-unit circuit breakers,
//! scrub-and-readmit recovery, a settle-work watchdog and a
//! deterministic chaos harness.
//!
//! The layer turns the one-way degradation of
//! [`mfmult::selfcheck::SelfCheckingUnit`] into a lifecycle:
//!
//! - [`health`] — the breaker state machine (`Healthy → Suspect →
//!   Quarantined → Probation → Healthy | Retired`, plus the `Spare`
//!   standby state) and its bounded, JSON-logged transition trail.
//! - [`backoff`] — caller-side truncated exponential backoff with
//!   deterministic jitter for `Busy` rejections.
//! - [`engine`] — the pool scheduler: round-robin dispatch, scrubs,
//!   the per-op watchdog, pool gauges, and the adaptive redundancy
//!   layer: a masking reference vote on every delivered result,
//!   DMR-on-suspicion shadow execution, hot-spare promotion after
//!   retirements, and patrol scrubbing on idle ticks.
//! - [`chaos`] — seeded fault schedules (SEUs, stuck-ats, induced
//!   delays, Byzantine output-latch faults, field replacements) for
//!   reproducible resilience runs.
//!
//! The two invariants every chaos run is judged by: **zero wrong
//! answers escape** (each delivered result is voted against the
//! `mfm-softfloat`-backed reference and masked on disagreement), and
//! **capacity degrades and recovers** (the timeline shows hardware
//! capacity dip under faults and return after scrubs or spare
//! promotion).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backoff;
pub mod chaos;
pub mod engine;
pub mod health;

pub use backoff::{BackoffConfig, SubmitBackoff};
pub use chaos::{apply_event, ChaosEvent, ChaosKind, ChaosPlan, ChaosPlanConfig};
pub use engine::{Busy, CapacitySample, Completed, Engine, EngineConfig, TickReport};
pub use health::{BreakerConfig, HealthState, HealthTracker, HealthTransition, TickVerdict};
