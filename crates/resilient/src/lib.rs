//! Resilient multi-unit execution for the SOCC'17 multi-format
//! multiplier: a pool of units kept as fault records behind per-unit
//! circuit breakers, with scrub-and-readmit recovery, hot-spare
//! promotion, patrol bookkeeping and a deterministic chaos harness.
//! The service core in `mfm-server` runs the pool: it serves
//! every lane on its compiled pass and judges each against the
//! `mfm-softfloat`-backed reference.
//!
//! - [`health`] — the breaker state machine (`Healthy → Suspect →
//!   Quarantined → Probation → Healthy | Retired`, plus the `Spare`
//!   standby state) and its bounded, JSON-logged transition trail.
//! - [`backoff`] — truncated exponential backoff with deterministic
//!   jitter, behind the service's `Overloaded` retry hints.
//! - [`engine`] — the pool: per-unit fault records and the overlays
//!   passes run under, breaker time, compiled scrubs, spare promotion
//!   after retirements, patrol slices and pool gauges.
//! - [`chaos`] — seeded fault schedules (SEUs, stuck-ats, Byzantine
//!   output-latch faults, field replacements) for reproducible
//!   resilience runs.
//!
//! The two invariants every chaos run is judged by: **zero wrong
//! answers escape** (every answer the service gives either passed the
//! comparison against the reference or is the reference), and
//! **capacity degrades and recovers** (hardware capacity dips under
//! faults and returns after scrubs or spare promotion).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backoff;
pub mod chaos;
pub mod engine;
pub mod health;

pub use backoff::{BackoffConfig, SubmitBackoff};
pub use chaos::{apply_event, ChaosEvent, ChaosKind, ChaosPlan, ChaosPlanConfig};
pub use engine::{Engine, EngineConfig};
pub use health::{BreakerConfig, HealthState, HealthTracker, HealthTransition, TickVerdict};
