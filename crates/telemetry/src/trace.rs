//! Request-scoped tracing: trace ids, per-phase span accumulators, and
//! the bounded ring of finished traces behind the `/tracez` endpoint.
//!
//! A [`TraceId`] is minted once at the service edge (frame decode) and
//! rides the request through batching, compiled evaluation,
//! verification and write-back. Each phase charges
//! elapsed microseconds into a [`PhaseSpans`] accumulator; when the
//! response is written the completed [`TraceRecord`] lands in a
//! [`TraceRing`], and the request's end-to-end latency is recorded with
//! a trace-id exemplar so a p99 scrape names a concrete trace.

use crate::json::{JsonArray, JsonObject};
use std::collections::VecDeque;

/// A non-zero request trace id.
///
/// Ids are minted from a seeded SplitMix64 stream, so a deterministic
/// run (fixed seed, fixed arrival order) mints the same ids — chaos
/// failures stay replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw id. Zero means "no trace" and is remapped to 1.
    pub fn from_raw(raw: u64) -> Self {
        TraceId(if raw == 0 { 1 } else { raw })
    }

    /// The raw 64-bit id.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The canonical 16-digit lower-hex rendering used in logs,
    /// exemplars and incident reports.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A deterministic [`TraceId`] generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TraceMinter {
    state: u64,
}

impl TraceMinter {
    /// Creates a minter from a seed; equal seeds mint equal sequences.
    pub fn new(seed: u64) -> Self {
        TraceMinter { state: seed }
    }

    /// Mints the next trace id (never zero).
    pub fn mint(&mut self) -> TraceId {
        loop {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z != 0 {
                return TraceId(z);
            }
        }
    }
}

/// The span taxonomy: every phase a request passes through between
/// frame decode and response write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting in the admission queue for a batch slot.
    QueueWait,
    /// Being gathered into a batch (up to 256 requests).
    BatchFill,
    /// Compiled bit-parallel evaluation of the batch.
    CompiledEval,
    /// Residue/invariant checks plus the softfloat cross-check.
    Verify,
    /// Encoding and writing the response frame.
    WriteBack,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::QueueWait,
        Phase::BatchFill,
        Phase::CompiledEval,
        Phase::Verify,
        Phase::WriteBack,
    ];

    /// The snake_case label used in JSON and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::BatchFill => "batch_fill",
            Phase::CompiledEval => "compiled_eval",
            Phase::Verify => "verify",
            Phase::WriteBack => "write_back",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::QueueWait => 0,
            Phase::BatchFill => 1,
            Phase::CompiledEval => 2,
            Phase::Verify => 3,
            Phase::WriteBack => 4,
        }
    }
}

/// Per-phase elapsed microseconds for one request. `Copy`, six words —
/// cheap enough to live inside the service's pending-request slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSpans {
    micros: [u64; 5],
}

impl PhaseSpans {
    /// All-zero spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `micros` to `phase` (accumulates across batches).
    pub fn add(&mut self, phase: Phase, micros: u64) {
        self.micros[phase.index()] = self.micros[phase.index()].saturating_add(micros);
    }

    /// Microseconds charged to `phase` so far.
    pub fn get(&self, phase: Phase) -> u64 {
        self.micros[phase.index()]
    }

    /// Sum across all phases.
    pub fn total(&self) -> u64 {
        self.micros.iter().sum()
    }

    /// Renders `{"queue_wait":…,…}` with every phase present (zeros
    /// included, so downstream tooling has a stable schema).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for p in Phase::ALL {
            o.field_u64(p.label(), self.get(p));
        }
        o.finish()
    }
}

/// One finished request's trace: identity, timing, phase breakdown and
/// outcome.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The trace id minted at frame decode.
    pub trace: TraceId,
    /// The client-assigned request id from the wire frame.
    pub request_id: u64,
    /// Service tick at which the request was admitted.
    pub tick_admitted: u64,
    /// Service tick at which the response was produced.
    pub tick_done: u64,
    /// End-to-end latency in microseconds (decode → response ready).
    pub total_micros: u64,
    /// Per-phase breakdown.
    pub spans: PhaseSpans,
    /// Outcome label: `ok`, `rescued`, `deadline`, `overloaded`, …
    pub outcome: &'static str,
}

impl TraceRecord {
    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("trace_id", &self.trace.hex())
            .field_u64("request_id", self.request_id)
            .field_str("outcome", self.outcome)
            .field_u64("tick_admitted", self.tick_admitted)
            .field_u64("tick_done", self.tick_done)
            .field_u64("total_micros", self.total_micros)
            .field_raw("phases", &self.spans.to_json());
        o.finish()
    }
}

/// A fixed-capacity ring of recent [`TraceRecord`]s. When full, pushing
/// drops the oldest record first (deterministically), and counts it.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `cap` records (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceRing {
            cap,
            buf: VecDeque::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when at capacity.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The `n` slowest retained traces by total latency, slowest first
    /// (ties broken by recency: later traces sort first).
    pub fn slowest(&self, n: usize) -> Vec<&TraceRecord> {
        let mut v: Vec<(usize, &TraceRecord)> = self.buf.iter().enumerate().collect();
        v.sort_by(|(ia, a), (ib, b)| b.total_micros.cmp(&a.total_micros).then_with(|| ib.cmp(ia)));
        v.into_iter().take(n).map(|(_, r)| r).collect()
    }

    /// Renders `{"dropped":…,"slowest":[…]}` — the `/tracez` payload —
    /// with the `n` slowest retained traces.
    pub fn tracez_json(&self, n: usize) -> String {
        let mut arr = JsonArray::new();
        for rec in self.slowest(n) {
            arr.push_raw(&rec.to_json());
        }
        let mut o = JsonObject::new();
        o.field_u64("retained", self.len() as u64)
            .field_u64("dropped", self.dropped)
            .field_raw("slowest", &arr.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check;

    fn rec(trace: u64, total: u64) -> TraceRecord {
        TraceRecord {
            trace: TraceId::from_raw(trace),
            request_id: trace,
            tick_admitted: 1,
            tick_done: 2,
            total_micros: total,
            spans: PhaseSpans::new(),
            outcome: "ok",
        }
    }

    #[test]
    fn minter_is_deterministic_and_nonzero() {
        let mut a = TraceMinter::new(2017);
        let mut b = TraceMinter::new(2017);
        for _ in 0..1000 {
            let id = a.mint();
            assert_eq!(id, b.mint());
            assert_ne!(id.as_u64(), 0);
        }
        assert_ne!(TraceMinter::new(1).mint(), TraceMinter::new(2).mint());
    }

    #[test]
    fn phase_spans_accumulate_and_serialize() {
        let mut s = PhaseSpans::new();
        s.add(Phase::QueueWait, 100);
        s.add(Phase::Verify, 7);
        s.add(Phase::Verify, 3);
        assert_eq!(s.get(Phase::Verify), 10);
        assert_eq!(s.total(), 110);
        let j = s.to_json();
        check(&j).unwrap();
        assert!(j.contains("\"queue_wait\":100"));
        assert!(j.contains("\"verify\":10"));
        assert!(j.contains("\"write_back\":0"), "stable schema keeps zeros");
        assert!(!j.contains("rescue"), "no rescue phase: {j}");
    }

    #[test]
    fn ring_drops_oldest_first_deterministically() {
        let mut ring = TraceRing::new(3);
        for i in 1..=5 {
            ring.push(rec(i, i * 10));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.records().map(|r| r.request_id).collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest evicted first");
    }

    #[test]
    fn slowest_orders_by_latency() {
        let mut ring = TraceRing::new(8);
        ring.push(rec(1, 50));
        ring.push(rec(2, 500));
        ring.push(rec(3, 5));
        ring.push(rec(4, 500));
        let top: Vec<u64> = ring.slowest(3).iter().map(|r| r.request_id).collect();
        assert_eq!(top, vec![4, 2, 1], "ties break toward recency");
        let j = ring.tracez_json(2);
        check(&j).unwrap();
        assert!(j.contains("\"retained\":4"));
    }
}
