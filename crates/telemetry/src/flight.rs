//! The incident flight recorder: a bounded ring of recent structured
//! events, snapshotted into a JSON incident report when something goes
//! wrong.
//!
//! The recorder is always on — every notable event (check failure,
//! TMR vote, breaker transition, tier change, shed, deadline expiry) is
//! appended as it happens, evicting oldest-first when
//! the ring is full. When a trigger fires ([`IncidentTrigger`]), the
//! current ring contents plus the triggering context are rendered into
//! one self-contained JSON document: the evidence, not just a counter.
//! Per-trigger-kind throttling keeps a flapping unit from flooding the
//! incident directory.

use crate::json::{JsonArray, JsonObject};
use std::collections::VecDeque;

/// One structured event in the flight ring.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Service tick at which the event occurred.
    pub tick: u64,
    /// The trace id of the request involved, when there is one.
    pub trace: Option<u64>,
    /// Short snake_case event kind (`check_failure`, `tmr_vote`,
    /// `breaker_transition`, `tier_change`, …).
    pub kind: &'static str,
    /// Free-form human detail (unit index, reason, values).
    pub detail: String,
}

impl FlightEvent {
    /// Renders the event as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("tick", self.tick);
        if let Some(t) = self.trace {
            o.field_str("trace_id", &format!("{t:016x}"));
        }
        o.field_str("kind", self.kind)
            .field_str("detail", &self.detail);
        o.finish()
    }
}

/// What fired an incident snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentTrigger {
    /// A batch lane failed verification (residue/invariant/softfloat).
    VerifyMismatch,
    /// The admission tier escalated toward shedding.
    ShedEscalation,
}

impl IncidentTrigger {
    /// The snake_case label used in incident reports.
    pub fn label(self) -> &'static str {
        match self {
            IncidentTrigger::VerifyMismatch => "verify_mismatch",
            IncidentTrigger::ShedEscalation => "shed_escalation",
        }
    }

    fn index(self) -> usize {
        match self {
            IncidentTrigger::VerifyMismatch => 0,
            IncidentTrigger::ShedEscalation => 1,
        }
    }
}

/// The always-on flight recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    events: VecDeque<FlightEvent>,
    dropped: u64,
    incidents: u64,
    /// Tick of the last emitted incident per trigger kind.
    last_emit: [Option<u64>; 2],
    /// Minimum ticks between incidents of the same trigger kind.
    min_gap: u64,
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `cap` events (minimum 1)
    /// and emitting at most one incident per trigger kind every
    /// `min_gap_ticks` ticks (0 = no throttling).
    pub fn new(cap: usize, min_gap_ticks: u64) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            events: VecDeque::with_capacity(cap),
            dropped: 0,
            incidents: 0,
            last_emit: [None; 2],
            min_gap: min_gap_ticks,
        }
    }

    /// Appends an event, evicting the oldest when at capacity.
    pub fn record(&mut self, event: FlightEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of incident reports emitted so far.
    pub fn incidents_emitted(&self) -> u64 {
        self.incidents
    }

    /// Snapshots the ring into an incident report, unless this trigger
    /// kind fired within the last `min_gap` ticks (throttled → `None`).
    ///
    /// `context` must be a pre-rendered JSON value (object) describing
    /// the trigger site — unit index, tier, breaker state, request id.
    /// The report is self-contained: trigger, tick, the offending
    /// trace, the context, and every retained event in order.
    pub fn incident(
        &mut self,
        trigger: IncidentTrigger,
        tick: u64,
        trace: Option<u64>,
        context: &str,
    ) -> Option<String> {
        if self.min_gap > 0 {
            if let Some(last) = self.last_emit[trigger.index()] {
                if tick.saturating_sub(last) < self.min_gap {
                    return None;
                }
            }
        }
        self.last_emit[trigger.index()] = Some(tick);
        self.incidents += 1;
        let mut arr = JsonArray::new();
        for e in &self.events {
            arr.push_raw(&e.to_json());
        }
        let mut o = JsonObject::new();
        o.field_u64("incident", self.incidents)
            .field_str("trigger", trigger.label())
            .field_u64("tick", tick);
        if let Some(t) = trace {
            o.field_str("trace_id", &format!("{t:016x}"));
        }
        o.field_raw("context", context)
            .field_u64("events_dropped", self.dropped)
            .field_raw("events", &arr.finish());
        Some(o.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check;

    fn ev(tick: u64, kind: &'static str) -> FlightEvent {
        FlightEvent {
            tick,
            trace: Some(0xABC),
            kind,
            detail: format!("t{tick}"),
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_first() {
        let mut fr = FlightRecorder::new(3, 0);
        for t in 1..=5 {
            fr.record(ev(t, "e"));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let ticks: Vec<u64> = fr.events().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![3, 4, 5], "oldest evicted first");
    }

    #[test]
    fn incident_report_is_self_contained_json() {
        let mut fr = FlightRecorder::new(8, 0);
        fr.record(ev(1, "check_failure"));
        fr.record(ev(2, "breaker_transition"));
        let ctx = {
            let mut c = JsonObject::new();
            c.field_u64("unit", 1).field_str("tier", "normal");
            c.finish()
        };
        let report = fr
            .incident(IncidentTrigger::VerifyMismatch, 2, Some(0xABC), &ctx)
            .expect("not throttled");
        check(&report).unwrap();
        assert!(report.contains("\"trigger\":\"verify_mismatch\""));
        assert!(report.contains("\"trace_id\":\"0000000000000abc\""));
        assert!(report.contains("\"kind\":\"check_failure\""));
        assert!(report.contains("\"unit\":1"));
        assert_eq!(fr.incidents_emitted(), 1);
    }

    #[test]
    fn incidents_throttle_per_trigger_kind() {
        let mut fr = FlightRecorder::new(4, 10);
        assert!(fr
            .incident(IncidentTrigger::ShedEscalation, 5, None, "{}")
            .is_some());
        // Same kind inside the gap: suppressed.
        assert!(fr
            .incident(IncidentTrigger::ShedEscalation, 9, None, "{}")
            .is_none());
        // A different kind is not throttled by the first.
        assert!(fr
            .incident(IncidentTrigger::VerifyMismatch, 9, None, "{}")
            .is_some());
        // Past the gap: allowed again.
        assert!(fr
            .incident(IncidentTrigger::ShedEscalation, 15, None, "{}")
            .is_some());
        assert_eq!(fr.incidents_emitted(), 3);
    }
}
