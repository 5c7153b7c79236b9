//! Multiplication-as-a-service: an overload-safe, deadline-aware
//! server front-end over the resilient multiplier pool.
//!
//! This crate turns the workspace's resilient execution engine
//! ([`mfm_resilient`]) into a hardened network service:
//!
//! - [`wire`] — a length-prefixed, versioned binary protocol with a
//!   strict parser: every malformed, truncated or oversized frame maps
//!   to a typed [`wire::WireError`], never a panic.
//! - [`service`] — the deterministic core: admission control with a
//!   three-tier degradation ladder (degrade to single-format batching,
//!   then refuse with typed `Overloaded`), deadline propagation with expired-in-queue
//!   cancellation, per-client deterministic retry budgets, and a
//!   mixed-format compiled batch path (batches of up to 256 requests on
//!   64-lane passes) routed through the
//!   pool's circuit breakers, where one verdict — the self-check plus
//!   agreement with the bit-exact reference — judges every lane.
//! - [`server`] — the thread-per-connection TCP front-end plus a
//!   Prometheus `/metrics` endpoint, with slow-client write timeouts
//!   and strict malformed-frame teardown.
//! - [`loadgen`] — an open-loop, seeded load generator and verifier:
//!   bursts, slow clients and adversarial frames, with client-side
//!   escape detection and a full every-request-answered audit.
//! - [`chaos`] — seeded chaos campaigns through an in-process service:
//!   mixed-format traffic under scheduled SEUs, stuck-ats, Byzantine
//!   latches and field replacements, judged by the zero-escape and
//!   capacity-recovery invariants.
//!
//! The service contract, end to end: **no request is ever dropped
//! silently** (every outcome is a typed `Ok`, `Overloaded`,
//! `DeadlineExceeded` or `Malformed` response) and **no wrong answer
//! ever escapes** (a lane that passes the verdict is answered from the
//! hardware, a lane that fails is answered from the reference in the
//! same tick).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod loadgen;
pub mod server;
pub mod service;
pub mod wire;
