//! Per-unit health tracking: a circuit-breaker lifecycle over the
//! incident stream of one pool unit.
//!
//! ```text
//!            incident                 open_after incidents
//! Healthy ────────────▶ Suspect ──────────────────────────▶ Quarantined
//!    ▲                     │ heal_after clean ops                │
//!    │                     ▼                                     │ cooldown_ticks
//!    │                  Healthy                                  ▼
//!    └───── scrub pass ──────────────────────────────────── Probation
//!                                                                │ scrub fail
//!                                                                ▼
//!                             ◀ max_scrub_failures ▶        Quarantined … Retired
//! ```
//!
//! The tracker is pure bookkeeping: it never touches the unit. The
//! engine feeds it events (`on_incidents`, `on_clean_op`, `on_tick`,
//! `on_scrub`) and obeys its verdicts (its state, which decides whether
//! the unit carries traffic, and [`TickVerdict::ScrubDue`]). Every state change is appended to a
//! transition log rendered through the RFC 8259 writer of
//! [`mfm_telemetry::json`].

use mfm_telemetry::json::JsonObject;

/// Upper bound on the per-unit transition log. Like the service's
/// `TraceRing`, the log evicts oldest-first once full; the monotone
/// [`HealthTracker::transitions_logged`] total keeps delta-based
/// consumers (gauge mirroring, flight-recorder feeds) correct across
/// evictions.
pub const TRANSITION_LOG_CAP: usize = 64;

/// Lifecycle state of one pool unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Serving traffic, no recent incidents.
    Healthy,
    /// Serving traffic, but the breaker has counted recent incidents.
    Suspect,
    /// Breaker open: out of rotation, cooling down before a scrub.
    Quarantined,
    /// Cooldown elapsed: the unit is being scrubbed (repair + battery).
    Probation,
    /// Scrubbing gave up after `max_scrub_failures` failures; the unit
    /// takes no traffic, forever.
    Retired,
    /// A provisioned cold standby: powered but out of rotation, waiting
    /// to be promoted when a serving unit retires.
    Spare,
}

impl HealthState {
    /// Stable lower-snake-case label used in metrics and JSON.
    pub const fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
            HealthState::Retired => "retired",
            HealthState::Spare => "spare",
        }
    }

    /// Whether a unit in this state carries traffic and counts as
    /// hardware capacity.
    pub const fn is_hw_capacity(self) -> bool {
        matches!(self, HealthState::Healthy | HealthState::Suspect)
    }

    /// Whether a unit in this state is a cold standby awaiting
    /// promotion.
    pub const fn is_spare(self) -> bool {
        matches!(self, HealthState::Spare)
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Circuit-breaker policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Incidents (within one suspect episode) that open the breaker.
    pub open_after: u32,
    /// Consecutive clean operations that clear a suspect back to healthy.
    pub heal_after: u32,
    /// Ticks a quarantined unit cools down before its scrub runs.
    pub cooldown_ticks: u32,
    /// Failed scrubs after which the unit is retired for good.
    pub max_scrub_failures: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            open_after: 3,
            heal_after: 8,
            cooldown_ticks: 4,
            max_scrub_failures: 3,
        }
    }
}

/// One logged state change of a [`HealthTracker`].
#[derive(Debug, Clone)]
pub struct HealthTransition {
    /// Engine tick at which the transition happened.
    pub tick: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Why (breaker counters, scrub outcome, …).
    pub reason: String,
    /// The trace id of the request whose incident caused this
    /// transition, when the caller knows it. Heal/scrub transitions
    /// have no single offending request and carry `None`.
    pub trace: Option<u64>,
}

impl HealthTransition {
    /// Renders the transition as a single-line JSON object via the
    /// validated writer (escaping handled by [`mfm_telemetry::json`]).
    /// A known offending trace id is appended as a 16-digit hex
    /// `trace_id` field; transitions without one render exactly as
    /// before the field existed.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("event", "health_transition")
            .field_u64("tick", self.tick)
            .field_str("from", self.from.label())
            .field_str("to", self.to.label())
            .field_str("reason", &self.reason);
        if let Some(t) = self.trace {
            o.field_str("trace_id", &format!("{t:016x}"));
        }
        o.finish()
    }
}

/// What [`HealthTracker::on_tick`] asks the engine to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickVerdict {
    /// Nothing; carry on.
    None,
    /// The cooldown elapsed: run a scrub now and report the outcome via
    /// [`HealthTracker::on_scrub`].
    ScrubDue,
}

/// The breaker state machine for one unit (see the module docs).
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: BreakerConfig,
    state: HealthState,
    /// Incidents counted in the current suspect episode.
    incident_count: u32,
    /// Consecutive clean ops while suspect.
    clean_streak: u32,
    /// Remaining cooldown ticks while quarantined.
    cooldown_left: u32,
    /// Failed scrubs since the unit last left `Healthy`.
    scrub_failures: u32,
    /// Bounded transition ring, oldest first (see [`TRANSITION_LOG_CAP`]).
    transitions: Vec<HealthTransition>,
    /// Monotone count of every transition ever logged, including ones
    /// the ring has since evicted.
    logged: u64,
}

impl HealthTracker {
    /// A fresh (healthy) tracker under the given policy.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self::with_state(cfg, HealthState::Healthy)
    }

    /// A tracker born as a cold standby ([`HealthState::Spare`]): out of
    /// rotation and out of hardware capacity until promoted.
    pub fn new_spare(cfg: BreakerConfig) -> Self {
        Self::with_state(cfg, HealthState::Spare)
    }

    fn with_state(cfg: BreakerConfig, state: HealthState) -> Self {
        HealthTracker {
            cfg,
            state,
            incident_count: 0,
            clean_streak: 0,
            cooldown_left: 0,
            scrub_failures: 0,
            transitions: Vec::new(),
            logged: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Failed scrubs since the unit last left `Healthy`.
    pub fn scrub_failures(&self) -> u32 {
        self.scrub_failures
    }

    /// The retained transition log, oldest first. Bounded at
    /// [`TRANSITION_LOG_CAP`] entries; use
    /// [`HealthTracker::transitions_logged`] for the all-time total.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Monotone total of transitions ever logged, including entries the
    /// bounded ring has evicted. Consumers that mirror "fresh"
    /// transitions must diff against this total, never against
    /// `transitions().len()`.
    pub fn transitions_logged(&self) -> u64 {
        self.logged
    }

    /// Promote a spare into service. Only meaningful from
    /// [`HealthState::Spare`]; any other state is left untouched.
    pub fn promote(&mut self, tick: u64, reason: String) {
        if self.state == HealthState::Spare {
            self.incident_count = 0;
            self.clean_streak = 0;
            self.scrub_failures = 0;
            self.go(tick, HealthState::Healthy, reason);
        }
    }

    /// Retire a spare that failed its activation scrub. Only meaningful
    /// from [`HealthState::Spare`].
    pub fn retire_spare(&mut self, tick: u64, reason: String) {
        if self.state == HealthState::Spare {
            self.go(tick, HealthState::Retired, reason);
        }
    }

    fn go(&mut self, tick: u64, to: HealthState, reason: String) {
        self.go_traced(tick, to, reason, None);
    }

    fn go_traced(&mut self, tick: u64, to: HealthState, reason: String, trace: Option<u64>) {
        let from = std::mem::replace(&mut self.state, to);
        if self.transitions.len() == TRANSITION_LOG_CAP {
            self.transitions.remove(0);
        }
        self.transitions.push(HealthTransition {
            tick,
            from,
            to,
            reason,
            trace,
        });
        self.logged += 1;
    }

    /// Feed `n ≥ 1` check incidents observed while serving one operation.
    pub fn on_incidents(&mut self, tick: u64, n: u32) {
        self.on_incidents_traced(tick, n, None);
    }

    /// Like [`HealthTracker::on_incidents`], tagging any transitions it
    /// causes with the trace id of the offending request, so the JSON
    /// transition log links a breaker trip back to a replayable trace.
    pub fn on_incidents_traced(&mut self, tick: u64, n: u32, trace: Option<u64>) {
        debug_assert!(n >= 1);
        match self.state {
            HealthState::Healthy => {
                self.incident_count = n;
                self.clean_streak = 0;
                self.go_traced(
                    tick,
                    HealthState::Suspect,
                    format!("{n} check incident(s)"),
                    trace,
                );
                self.maybe_open(tick, trace);
            }
            HealthState::Suspect => {
                self.incident_count += n;
                self.clean_streak = 0;
                self.maybe_open(tick, trace);
            }
            // Quarantined/probation/spare units receive no traffic;
            // retired is absorbing — nothing to count.
            HealthState::Quarantined
            | HealthState::Probation
            | HealthState::Retired
            | HealthState::Spare => {}
        }
    }

    fn maybe_open(&mut self, tick: u64, trace: Option<u64>) {
        if self.state == HealthState::Suspect && self.incident_count >= self.cfg.open_after {
            self.cooldown_left = self.cfg.cooldown_ticks;
            self.go_traced(
                tick,
                HealthState::Quarantined,
                format!(
                    "breaker opened after {} incident(s); cooling down {} tick(s)",
                    self.incident_count, self.cfg.cooldown_ticks
                ),
                trace,
            );
        }
    }

    /// Feed one operation that completed with every check passing.
    pub fn on_clean_op(&mut self, tick: u64) {
        if self.state == HealthState::Suspect {
            self.clean_streak += 1;
            if self.clean_streak >= self.cfg.heal_after {
                self.incident_count = 0;
                self.clean_streak = 0;
                self.scrub_failures = 0;
                self.go(
                    tick,
                    HealthState::Healthy,
                    format!("healed after {} clean op(s)", self.cfg.heal_after),
                );
            }
        }
    }

    /// Advance one engine tick. Returns [`TickVerdict::ScrubDue`] exactly
    /// when a quarantined unit's cooldown elapses (the tracker moves to
    /// `Probation`; the engine must scrub and call
    /// [`HealthTracker::on_scrub`]).
    pub fn on_tick(&mut self, tick: u64) -> TickVerdict {
        if self.state == HealthState::Quarantined {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.go(
                    tick,
                    HealthState::Probation,
                    "cooldown elapsed; scrub due".to_string(),
                );
                return TickVerdict::ScrubDue;
            }
        }
        TickVerdict::None
    }

    /// Report the outcome of the scrub requested by
    /// [`HealthTracker::on_tick`]. A pass readmits the unit to `Healthy`;
    /// a failure re-quarantines it, or retires it for good once
    /// `max_scrub_failures` scrubs have failed.
    pub fn on_scrub(&mut self, tick: u64, pass: bool) {
        if self.state != HealthState::Probation {
            return;
        }
        if pass {
            self.incident_count = 0;
            self.clean_streak = 0;
            self.scrub_failures = 0;
            self.go(
                tick,
                HealthState::Healthy,
                "scrub battery passed; readmitted".to_string(),
            );
        } else {
            self.scrub_failures += 1;
            if self.scrub_failures >= self.cfg.max_scrub_failures {
                self.go(
                    tick,
                    HealthState::Retired,
                    format!(
                        "retired after {}/{} failed scrub(s)",
                        self.scrub_failures, self.cfg.max_scrub_failures
                    ),
                );
            } else {
                self.cooldown_left = self.cfg.cooldown_ticks;
                self.go(
                    tick,
                    HealthState::Quarantined,
                    format!(
                        "scrub failed ({}/{}); re-quarantined",
                        self.scrub_failures, self.cfg.max_scrub_failures
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfm_prng::Rng;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            open_after: 3,
            heal_after: 4,
            cooldown_ticks: 2,
            max_scrub_failures: 3,
        }
    }

    #[test]
    fn breaker_opens_and_scrub_readmits() {
        let mut h = HealthTracker::new(cfg());
        h.on_incidents(1, 1);
        assert_eq!(h.state(), HealthState::Suspect);
        h.on_incidents(2, 2);
        assert_eq!(h.state(), HealthState::Quarantined);
        assert_eq!(h.on_tick(3), TickVerdict::None);
        assert_eq!(h.on_tick(4), TickVerdict::ScrubDue);
        assert_eq!(h.state(), HealthState::Probation);
        h.on_scrub(4, true);
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.scrub_failures(), 0);
        let labels: Vec<_> = h
            .transitions()
            .iter()
            .map(|t| (t.from.label(), t.to.label()))
            .collect();
        assert_eq!(
            labels,
            [
                ("healthy", "suspect"),
                ("suspect", "quarantined"),
                ("quarantined", "probation"),
                ("probation", "healthy"),
            ]
        );
    }

    #[test]
    fn clean_streak_heals_a_suspect() {
        let mut h = HealthTracker::new(cfg());
        h.on_incidents(1, 1);
        for t in 0..3 {
            h.on_clean_op(2 + t);
            assert_eq!(h.state(), HealthState::Suspect);
        }
        h.on_clean_op(5);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn repeated_scrub_failures_retire() {
        let mut h = HealthTracker::new(cfg());
        h.on_incidents(1, 3);
        let mut tick = 1;
        for fail in 1..=3u32 {
            loop {
                tick += 1;
                if h.on_tick(tick) == TickVerdict::ScrubDue {
                    break;
                }
            }
            h.on_scrub(tick, false);
            assert_eq!(h.scrub_failures(), fail);
        }
        assert_eq!(h.state(), HealthState::Retired);
        // Retired is absorbing: no event moves the unit again.
        let n = h.transitions().len();
        h.on_incidents(tick + 1, 5);
        h.on_clean_op(tick + 2);
        assert_eq!(h.on_tick(tick + 3), TickVerdict::None);
        h.on_scrub(tick + 4, true);
        assert_eq!(h.state(), HealthState::Retired);
        assert_eq!(h.transitions().len(), n);
    }

    #[test]
    fn transition_json_round_trips_the_checker() {
        let mut h = HealthTracker::new(cfg());
        h.on_incidents(7, 3);
        for t in h.transitions() {
            let line = t.to_json();
            mfm_telemetry::json::check(&line).expect("well-formed transition JSON");
            let fields = mfm_telemetry::json::object_entries(&line).expect("object");
            let get = |k: &str| {
                fields
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
                    .unwrap()
            };
            // Values come back as raw JSON slices: strip the quotes and
            // decode the escapes to round-trip the original text.
            let text = |v: String| {
                mfm_telemetry::json::unescape(
                    v.strip_prefix('"').unwrap().strip_suffix('"').unwrap(),
                )
            };
            assert_eq!(get("event"), "\"health_transition\"");
            assert_eq!(text(get("from")), t.from.label());
            assert_eq!(text(get("to")), t.to.label());
            assert_eq!(text(get("reason")), t.reason);
        }
    }

    #[test]
    fn traced_incident_tags_the_transition_json() {
        let mut h = HealthTracker::new(cfg());
        // One traced incident: healthy → suspect carries the trace.
        h.on_incidents_traced(3, 1, Some(0xFEED_FACE));
        // Enough more to open the breaker, traced differently.
        h.on_incidents_traced(4, 2, Some(0x0123_4567_89AB_CDEF));
        let t = h.transitions();
        assert_eq!(t[0].trace, Some(0xFEED_FACE));
        assert_eq!(t[1].trace, Some(0x0123_4567_89AB_CDEF));
        let line0 = t[0].to_json();
        mfm_telemetry::json::check(&line0).unwrap();
        assert!(
            line0.contains("\"trace_id\":\"00000000feedface\""),
            "{line0}"
        );
        assert!(t[1].to_json().contains("\"trace_id\":\"0123456789abcdef\""));
        // Untraced transitions render without the field — schema
        // unchanged for pre-existing consumers.
        let mut h2 = HealthTracker::new(cfg());
        h2.on_incidents(1, 1);
        assert!(!h2.transitions()[0].to_json().contains("trace_id"));
    }

    #[test]
    fn transition_log_is_bounded_and_keeps_a_monotone_total() {
        let mut h = HealthTracker::new(cfg());
        // Flap Healthy <-> Suspect forever: two transitions per cycle
        // (suspect on incident, healthy after the clean streak).
        let mut tick = 0u64;
        for _ in 0..3 * TRANSITION_LOG_CAP as u64 {
            tick += 1;
            h.on_incidents(tick, 1);
            for _ in 0..4 {
                tick += 1;
                h.on_clean_op(tick);
            }
        }
        let expected_total = 2 * 3 * TRANSITION_LOG_CAP as u64;
        assert_eq!(h.transitions_logged(), expected_total);
        assert_eq!(
            h.transitions().len(),
            TRANSITION_LOG_CAP,
            "ring never exceeds the cap"
        );
        // Oldest-first: the retained window is the most recent entries,
        // in chronological order.
        let ticks: Vec<u64> = h.transitions().iter().map(|t| t.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "chronological");
        // JSON shape unchanged for the entries that remain.
        for t in h.transitions() {
            mfm_telemetry::json::check(&t.to_json()).unwrap();
        }
    }

    #[test]
    fn spare_lifecycle_promotes_or_retires() {
        let mut s = HealthTracker::new_spare(cfg());
        assert_eq!(s.state(), HealthState::Spare);
        assert!(!s.state().is_hw_capacity(), "spares take no traffic");
        // Events addressed to a spare are ignored.
        s.on_incidents(1, 5);
        s.on_clean_op(2);
        assert_eq!(s.on_tick(3), TickVerdict::None);
        s.on_scrub(3, false);
        assert_eq!(s.state(), HealthState::Spare);
        assert_eq!(s.transitions_logged(), 0);
        // Promotion moves it into service with a logged transition.
        s.promote(7, "promoted to replace retired unit 0".to_string());
        assert_eq!(s.state(), HealthState::Healthy);
        let t = &s.transitions()[0];
        assert_eq!((t.from, t.to), (HealthState::Spare, HealthState::Healthy));
        assert!(t.to_json().contains("\"from\":\"spare\""));
        // Promote is a no-op from any non-spare state.
        s.promote(8, "again".to_string());
        assert_eq!(s.transitions_logged(), 1);

        // A spare that fails its activation scrub is retired instead.
        let mut bad = HealthTracker::new_spare(cfg());
        bad.retire_spare(9, "activation scrub failed".to_string());
        assert_eq!(bad.state(), HealthState::Retired);
        bad.retire_spare(10, "again".to_string());
        assert_eq!(bad.transitions_logged(), 1, "retired is absorbing");
    }

    /// Property: from ANY reachable state except `Retired`, a fault-free
    /// protocol (clean ops + passing scrubs) returns the tracker to
    /// `Healthy` within a bounded number of steps; from `Retired` it
    /// never leaves. States are reached by a random event walk.
    #[test]
    fn fault_free_protocol_always_heals_within_bound() {
        let c = cfg();
        // Worst case: quarantined with a full cooldown, then a scrub, or
        // a suspect needing the full clean streak.
        let bound = (c.cooldown_ticks + c.heal_after + 2) as usize;
        let mut rng = Rng::new(0xc1ea_7e57);
        for case in 0..500 {
            let mut h = HealthTracker::new(c);
            let mut tick = 0u64;
            // Random walk of incidents/cleans/ticks/scrub outcomes to
            // land in an arbitrary reachable state.
            for _ in 0..rng.range_u64(0, 40) {
                tick += 1;
                match rng.range_u64(0, 4) {
                    0 => h.on_incidents(tick, 1 + rng.range_u64(0, 3) as u32),
                    1 => h.on_clean_op(tick),
                    // A scrub due this tick always gets an outcome — the
                    // engine runs scrubs synchronously, so `Probation`
                    // is never a resting state.
                    2 => {
                        if h.on_tick(tick) == TickVerdict::ScrubDue {
                            h.on_scrub(tick, false);
                        }
                    }
                    _ => {
                        if h.on_tick(tick) == TickVerdict::ScrubDue {
                            h.on_scrub(tick, rng.next_bool(0.5));
                        }
                    }
                }
            }
            if h.state() == HealthState::Retired {
                // Absorbing: the fault-free protocol never resurrects it.
                for _ in 0..bound {
                    tick += 1;
                    if h.on_tick(tick) == TickVerdict::ScrubDue {
                        h.on_scrub(tick, true);
                    }
                    h.on_clean_op(tick);
                }
                assert_eq!(h.state(), HealthState::Retired, "case {case}");
                continue;
            }
            // Fault-free from here: every op is clean, every scrub passes.
            let mut steps = 0;
            while h.state() != HealthState::Healthy {
                tick += 1;
                steps += 1;
                assert!(steps <= bound, "case {case}: stuck in {:?}", h.state());
                if h.on_tick(tick) == TickVerdict::ScrubDue {
                    h.on_scrub(tick, true);
                }
                if h.state().is_hw_capacity() {
                    h.on_clean_op(tick);
                }
            }
            assert_eq!(h.scrub_failures(), 0, "healing resets the scrub count");
        }
    }
}
