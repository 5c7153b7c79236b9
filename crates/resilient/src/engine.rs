//! The resilient pool engine: per-unit fault records behind circuit
//! breakers, with scrub-and-readmit recovery, hot-spare promotion and
//! patrol bookkeeping, run by the service core
//! (`mfm_server::service::Service`), in whose compiled passes every lane
//! runs, scrub lanes included.
//!
//! The engine holds no simulator and no netlist. For each pool slot it
//! holds the unit's *fault record* (its stuck-ats, the sticky subset of
//! them that models physical defects, a Byzantine output latch and
//! pending single-event upsets) and the breaker that tracks the unit.
//! The service evaluates each lane in its own compiled pass under the
//! overlay of the unit the lane is routed through ([`Engine::overlay`]),
//! ends the pass with [`Engine::end_pass`] and feeds the verdicts back
//! through [`Engine::note_external_service`]. All pool units share the
//! service's one netlist.
//!
//! Time is counted in *ticks*: one [`Engine::tick`] advances breaker
//! time, runs due scrubs, answers retirements with spare promotions and
//! refreshes the pool gauges. A scrub clears the faults that are not
//! sticky and any pending SEUs and keeps the sticky ones; the tick then
//! hands the overlay left and the scrub battery to its caller, which
//! replays the battery on its own simulator and returns the verdict.
//! Settled values are a pure function of the inputs and the stuck-at
//! overlay, so that replay is the scrub's verdict. There is no wall
//! clock anywhere, so a seeded run is bit-reproducible.
//!
//! Patrol bookkeeping has one code path: [`Engine::take_patrol`] picks
//! the least-recently-verified serving unit and the next battery slice,
//! the service replays the slice in lanes of its own pass, and
//! [`Engine::finish_patrol`] lands the verdict.

use std::collections::BTreeMap;

use mfm_gatesim::{LaneWord, NetId, LANES, NO_LANES};
use mfm_telemetry::{Counter, Gauge, Registry, TraceId};
use mfmult::selfcheck::scrub_battery;
use mfmult::Operation;

use crate::health::{BreakerConfig, HealthState, HealthTracker, HealthTransition, TickVerdict};

/// Engine policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Read by nothing: the engine has no queue. `benchmark/src/serve.rs`
    /// still assigns it, and it goes when the benchmark is next brought
    /// up to the tree (see ROADMAP.md).
    pub queue_depth: usize,
    /// Per-unit circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Whether the pool's units were built with the quad-binary16
    /// extension (selects the wider scrub battery).
    pub quad_lanes: bool,
    /// Cold standby units provisioned beyond the serving pool. A spare
    /// takes no traffic and counts toward no capacity until a serving
    /// unit retires, at which point the spare runs an activation scrub
    /// and is promoted into the vacated role — so `hw_capacity` never
    /// degrades permanently while standbys remain.
    pub spares: usize,
    /// Scrub-battery operations per patrol slice, replayed each tick
    /// against the least-recently-verified serving unit (patrol
    /// scrubbing). 0 disables patrol.
    pub patrol_slice: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_depth: 8,
            breaker: BreakerConfig::default(),
            quad_lanes: false,
            spares: 0,
            patrol_slice: 0,
        }
    }
}

/// Pool-level counters and gauges (see [`Engine::attach_telemetry`]).
struct PoolTelemetry {
    state_gauges: [Gauge; 6],
    hw_capacity: Gauge,
    promotions: Counter,
    patrol_slices: Counter,
    patrol_failures: Counter,
    scrubs: Counter,
    scrub_passes: Counter,
    transitions: Counter,
}

const STATE_SLOTS: [HealthState; 6] = [
    HealthState::Healthy,
    HealthState::Suspect,
    HealthState::Quarantined,
    HealthState::Probation,
    HealthState::Retired,
    HealthState::Spare,
];

/// A modelled Byzantine defect: the unit's *output latch* flips bits
/// after every self-check has run, so the corruption is invisible to
/// the residue/recompute checks and to scrub batteries (which replay
/// through the checked datapath). Only a comparison against another
/// result — the reference or a TMR replica — can catch it.
#[derive(Debug, Clone, Copy)]
struct ByzantineFault {
    /// Every `period`-th served result is corrupted.
    period: u64,
    /// XOR pattern applied to the high product word.
    mask: u64,
    /// Results served through the latch so far.
    served: u64,
}

/// What the environment has done to one unit: the record its passes
/// read their overlay from and its scrubs repair.
#[derive(Debug, Default)]
struct FaultRecord {
    /// Forced nets with their values, the newest value per net.
    stuck: BTreeMap<NetId, bool>,
    /// The physical defects among them, which a scrub cannot clear.
    sticky: BTreeMap<NetId, bool>,
    /// Single-event upsets for the unit's next pass only.
    seus: BTreeMap<NetId, bool>,
    /// An intermittent output-latch fault beyond check coverage.
    byzantine: Option<ByzantineFault>,
}

impl FaultRecord {
    /// The repair half of a scrub: transient damage and pending SEUs
    /// go, the sticky defects stay.
    fn repair(&mut self) {
        self.stuck = self.sticky.clone();
        self.seus.clear();
    }
}

/// Runs one scrub for [`Engine::tick`]: replays the battery (second
/// argument) under the stuck-at overlay (first argument) and returns
/// whether every vector passed.
type ScrubRunner<'r> = dyn FnMut(&[(NetId, bool)], &[Operation]) -> bool + 'r;

/// One pool slot: the unit's fault record and its breaker.
struct PoolUnit {
    faults: FaultRecord,
    health: HealthTracker,
    /// Transitions already mirrored into the telemetry counter
    /// (a `transitions_logged` watermark, immune to ring eviction).
    mirrored_transitions: u64,
    /// Tick of the last successful verification (scrub or patrol slice).
    last_verified: u64,
    /// Whether this unit's retirement has already been answered with a
    /// spare promotion attempt.
    retirement_handled: bool,
}

/// The pool engine (see the module docs).
pub struct Engine {
    units: Vec<PoolUnit>,
    battery: Vec<Operation>,
    breaker: BreakerConfig,
    tick: u64,
    promotions: u64,
    patrol_slice: usize,
    patrol_cursor: usize,
    patrol_slices: u64,
    patrol_failures: u64,
    scrubs: u64,
    scrub_passes: u64,
    telemetry: Option<PoolTelemetry>,
}

impl Engine {
    /// Builds a pool of `units` serving slots plus `cfg.spares` cold
    /// standbys, all fault-free.
    pub fn new(units: usize, cfg: EngineConfig) -> Self {
        assert!(units > 0, "a pool needs at least one unit");
        let pool = (0..units + cfg.spares)
            .map(|k| PoolUnit {
                faults: FaultRecord::default(),
                // Slots past the serving pool are cold standbys.
                health: if k < units {
                    HealthTracker::new(cfg.breaker)
                } else {
                    HealthTracker::new_spare(cfg.breaker)
                },
                mirrored_transitions: 0,
                last_verified: 0,
                retirement_handled: false,
            })
            .collect();
        Engine {
            units: pool,
            battery: scrub_battery(cfg.quad_lanes),
            breaker: cfg.breaker,
            tick: 0,
            promotions: 0,
            patrol_slice: cfg.patrol_slice,
            patrol_cursor: 0,
            patrol_slices: 0,
            patrol_failures: 0,
            scrubs: 0,
            scrub_passes: 0,
            telemetry: None,
        }
    }

    /// Registers pool gauges and counters: `pool.units.<state>`,
    /// `pool.hw_capacity`, plus `pool.{promotions, patrol_slices,
    /// patrol_failures, scrubs, scrub_passes, transitions}`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(PoolTelemetry {
            state_gauges: STATE_SLOTS.map(|s| registry.gauge(&format!("pool.units.{}", s.label()))),
            hw_capacity: registry.gauge("pool.hw_capacity"),
            promotions: registry.counter("pool.promotions"),
            patrol_slices: registry.counter("pool.patrol_slices"),
            patrol_failures: registry.counter("pool.patrol_failures"),
            scrubs: registry.counter("pool.scrubs"),
            scrub_passes: registry.counter("pool.scrub_passes"),
            transitions: registry.counter("pool.transitions"),
        });
    }

    /// Pool size, spares included.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Current health state of unit `i`.
    pub fn unit_state(&self, i: usize) -> HealthState {
        self.units[i].health.state()
    }

    /// Retained transition log of unit `i`, oldest first (bounded ring;
    /// see [`crate::health::TRANSITION_LOG_CAP`]).
    pub fn transitions(&self, i: usize) -> &[HealthTransition] {
        self.units[i].health.transitions()
    }

    /// Monotone total of transitions unit `i` ever logged, including
    /// entries evicted from the bounded ring. Delta-based consumers
    /// (gauge mirrors, flight-recorder feeds) must diff against this,
    /// never against `transitions().len()`.
    pub fn transitions_logged(&self, i: usize) -> u64 {
        self.units[i].health.transitions_logged()
    }

    /// The stuck-at overlay unit `i`'s next pass runs under, in net
    /// order: its pending SEUs, then its stuck-ats, which win on a net
    /// both force.
    pub fn overlay(&self, i: usize) -> Vec<(NetId, bool)> {
        let f = &self.units[i].faults;
        let mut all = f.seus.clone();
        all.extend(&f.stuck);
        all.into_iter().collect()
    }

    /// Ends a pass that carried unit `i`'s lanes: its pending SEUs have
    /// struck and leave the overlay.
    pub fn end_pass(&mut self, i: usize) {
        self.units[i].faults.seus.clear();
    }

    /// Spares promoted into service after a retirement.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Cold standbys still available for promotion.
    pub fn spares_available(&self) -> u32 {
        self.units
            .iter()
            .filter(|u| u.health.state().is_spare())
            .count() as u32
    }

    /// Patrol battery slices handed out, and how many of them failed
    /// (charging the patrolled unit's breaker).
    pub fn patrol_stats(&self) -> (u64, u64) {
        (self.patrol_slices, self.patrol_failures)
    }

    /// Scrubs run and scrubs passed so far, spare activations included.
    pub fn scrubs(&self) -> (u64, u64) {
        (self.scrubs, self.scrub_passes)
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Units currently delivering gate-level results: healthy or
    /// suspect. A failed scrub always leaves its unit quarantined or
    /// retired, so no unit counted here failed its last scrub.
    pub fn hw_capacity(&self) -> u32 {
        self.units
            .iter()
            .filter(|u| u.health.state().is_hw_capacity())
            .count() as u32
    }

    /// Charges unit `i` with the outcome of work served through its
    /// overlay: `incidents > 0` counts against the unit,
    /// `incidents == 0` is a clean-operation heal credit. Any breaker
    /// transition the incidents cause is tagged with `trace`, the request
    /// that surfaced them, so the JSON transition log points back at a
    /// replayable trace.
    pub fn note_external_service(&mut self, i: usize, incidents: u32, trace: Option<TraceId>) {
        let u = &mut self.units[i];
        if incidents > 0 {
            u.health
                .on_incidents_traced(self.tick, incidents, trace.map(TraceId::as_u64));
        } else {
            u.health.on_clean_op(self.tick);
        }
    }

    // ---- chaos hooks -------------------------------------------------

    /// Injects a stuck-at fault into unit `i`. A `sticky` fault models a
    /// physical defect: every scrub keeps it, so only
    /// [`Engine::clear_unit_faults`] (or retirement) ends it. A
    /// non-sticky fault models latched transient damage that a scrub's
    /// repair clears.
    pub fn inject_stuck_at(&mut self, i: usize, net: NetId, value: bool, sticky: bool) {
        let f = &mut self.units[i].faults;
        f.stuck.insert(net, value);
        if sticky {
            f.sticky.insert(net, value);
        }
    }

    /// Clears every fault (sticky, Byzantine and pending SEUs included)
    /// from unit `i` — the chaos plan's "field replacement" event.
    pub fn clear_unit_faults(&mut self, i: usize) {
        self.units[i].faults = FaultRecord::default();
    }

    /// Arms a Byzantine output-latch fault on unit `i`: every
    /// `period`-th result the unit serves has its high product word
    /// XORed with `mask`, *after* the unit's self-checks ran. Scrub
    /// batteries replay through the checked datapath and pass — the
    /// fault is intentionally beyond check coverage, so only a
    /// comparison against the reference or a TMR replica catches it.
    pub fn inject_byzantine(&mut self, i: usize, period: u64, mask: u64) {
        self.units[i].faults.byzantine = Some(ByzantineFault {
            period: period.max(1),
            mask: if mask == 0 { 1 } else { mask },
            served: 0,
        });
    }

    /// Advances unit `i`'s Byzantine latch across `lanes` served
    /// results, returning the lane mask (bit k = lane k of the batch of
    /// up to 256 lanes) of lanes the latch corrupts. All-zero when the
    /// unit carries no Byzantine fault.
    pub fn byzantine_lane_mask(&mut self, i: usize, lanes: usize) -> LaneWord {
        let Some(b) = &mut self.units[i].faults.byzantine else {
            return NO_LANES;
        };
        let mut hit = NO_LANES;
        for k in 0..lanes.min(LANES) {
            b.served += 1;
            if b.served % b.period == 0 {
                hit[k / 64] |= 1 << (k % 64);
            }
        }
        hit
    }

    /// The XOR pattern unit `i`'s Byzantine latch applies (0 = none),
    /// to the lanes flagged by [`Engine::byzantine_lane_mask`].
    pub fn byzantine_pattern(&self, i: usize) -> u64 {
        self.units[i].faults.byzantine.map_or(0, |b| b.mask)
    }

    /// Arms a single-event upset on unit `i`: `net` is forced to
    /// `value` on the unit's lanes of its next pass only (see
    /// [`Engine::end_pass`]). A scrub that runs first clears it.
    pub fn schedule_seu(&mut self, i: usize, net: NetId, value: bool) {
        self.units[i].faults.seus.insert(net, value);
    }

    // ---- the scheduler ----------------------------------------------

    /// Runs one round: breaker time advances and due scrubs run, every
    /// retirement not yet answered is met by a spare promotion, and the
    /// gauges are refreshed. `scrub` runs each scrub and spare
    /// activation, in order: it replays the battery (second argument)
    /// under the stuck-at overlay (first argument) and returns whether
    /// every vector passed its checks.
    pub fn tick(&mut self, mut scrub: impl FnMut(&[(NetId, bool)], &[Operation]) -> bool) {
        self.tick += 1;
        for i in 0..self.units.len() {
            if self.units[i].health.on_tick(self.tick) == TickVerdict::ScrubDue {
                let pass = self.scrub(i, &mut scrub);
                self.units[i].health.on_scrub(self.tick, pass);
            }
        }
        // Hot-spare promotion: the pool's hardware capacity never
        // degrades permanently while spares remain.
        for i in 0..self.units.len() {
            if self.units[i].health.state() == HealthState::Retired
                && !self.units[i].retirement_handled
            {
                self.units[i].retirement_handled = true;
                self.promote_spare_for(i, &mut scrub);
            }
        }
        self.update_gauges();
    }

    /// Scrub-and-readmit for unit `i`: repair its fault record, then
    /// have `run` replay the battery under the overlay left (the sticky
    /// defects) and count the scrub. Returns whether the unit passed.
    fn scrub(&mut self, i: usize, run: &mut ScrubRunner<'_>) -> bool {
        self.units[i].faults.repair();
        let pass = run(&self.overlay(i), &self.battery);
        self.scrubs += 1;
        if pass {
            self.scrub_passes += 1;
            self.units[i].last_verified = self.tick;
        }
        if let Some(t) = &self.telemetry {
            t.scrubs.inc();
            if pass {
                t.scrub_passes.inc();
            }
        }
        pass
    }

    /// Answers the retirement of unit `retired` by activating a spare:
    /// each standby in slot order runs a full activation scrub; the
    /// first one that passes is promoted into service (logged as a
    /// `spare → healthy` transition naming the replaced slot), and a
    /// standby that fails its activation scrub is retired on the spot
    /// and the next one tried.
    fn promote_spare_for(&mut self, retired: usize, run: &mut ScrubRunner<'_>) {
        for s in 0..self.units.len() {
            if self.units[s].health.state() != HealthState::Spare {
                continue;
            }
            if self.scrub(s, run) {
                self.promotions += 1;
                if let Some(t) = &self.telemetry {
                    t.promotions.inc();
                }
                self.units[s].health.promote(
                    self.tick,
                    format!("activation scrub passed; promoted to replace retired unit {retired}"),
                );
                return;
            }
            self.units[s].retirement_handled = true;
            self.units[s].health.retire_spare(
                self.tick,
                "activation scrub failed; spare retired".to_string(),
            );
        }
    }

    /// Starts one patrol round: picks the least-recently-verified
    /// serving unit (healthy or suspect — the states that carry
    /// traffic), advances the rolling window over the battery and
    /// counts the slice. Returns that unit and the `patrol_slice`
    /// battery operations to replay under its overlay, or `None` when
    /// patrol is off or no unit serves. [`Engine::finish_patrol`] lands
    /// the verdict.
    pub fn take_patrol(&mut self) -> Option<(usize, Vec<Operation>)> {
        if self.patrol_slice == 0 {
            return None;
        }
        let i = (0..self.units.len())
            .filter(|&i| self.units[i].health.state().is_hw_capacity())
            .min_by_key(|&i| self.units[i].last_verified)?;
        let len = self.battery.len();
        let a = self.patrol_cursor.min(len.saturating_sub(1));
        let b = (a + self.patrol_slice).min(len);
        self.patrol_cursor = if b >= len { 0 } else { b };
        self.patrol_slices += 1;
        if let Some(t) = &self.telemetry {
            t.patrol_slices.inc();
        }
        Some((i, self.battery[a..b].to_vec()))
    }

    /// Lands the verdict on a slice from [`Engine::take_patrol`]: a
    /// failing slice charges unit `i`'s breaker — the normal quarantine
    /// → scrub machinery takes it from there; a passing slice refreshes
    /// the unit's verification stamp.
    pub fn finish_patrol(&mut self, i: usize, passed: bool) {
        if passed {
            self.units[i].last_verified = self.tick;
            return;
        }
        self.patrol_failures += 1;
        if let Some(t) = &self.telemetry {
            t.patrol_failures.inc();
        }
        self.units[i].health.on_incidents(self.tick, 1);
    }

    fn update_gauges(&mut self) {
        // Mirror freshly logged transitions into the counter first (this
        // also works when telemetry is attached mid-run). The watermark
        // diffs against the monotone logged total, so ring eviction in
        // the bounded transition log never undercounts.
        let mut fresh = 0u64;
        for u in &mut self.units {
            let now = u.health.transitions_logged();
            fresh += now - u.mirrored_transitions;
            u.mirrored_transitions = now;
        }
        if let Some(t) = &self.telemetry {
            if fresh > 0 {
                t.transitions.add(fresh);
            }
            for (slot, gauge) in STATE_SLOTS.iter().zip(&t.state_gauges) {
                let count = self
                    .units
                    .iter()
                    .filter(|u| u.health.state() == *slot)
                    .count();
                gauge.set(count as f64);
            }
            t.hw_capacity.set(self.hw_capacity() as f64);
        }
    }

    /// The breaker policy the pool runs under.
    pub fn breaker(&self) -> &BreakerConfig {
        &self.breaker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfm_gatesim::tech::TechLibrary;
    use mfm_gatesim::Netlist;
    use mfmult::selfcheck::run_scrub_compiled;
    use mfmult::structural::{build_unit, StructuralPorts};

    fn build() -> (Netlist, StructuralPorts) {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        (n, ports)
    }

    /// The scrub runner these tests tick with: the battery on a fresh
    /// compiled simulator.
    fn scrub_on<'n>(
        n: &'n Netlist,
        ports: &'n StructuralPorts,
    ) -> impl FnMut(&[(NetId, bool)], &[Operation]) -> bool + 'n {
        let prog = n.compiled().expect("the unit is acyclic");
        move |faults, battery| run_scrub_compiled(prog, ports, faults, battery).is_ok()
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            queue_depth: 4,
            breaker: BreakerConfig {
                open_after: 2,
                heal_after: 4,
                cooldown_ticks: 2,
                max_scrub_failures: 2,
            },
            quad_lanes: false,
            spares: 0,
            patrol_slice: 0,
        }
    }

    /// Ticks `engine` `ticks` times, opening unit `victim`'s breaker
    /// (`open_after` incidents) on every tick it carries traffic, as a
    /// caller whose lanes keep failing on it would. Returns each tick's
    /// `hw_capacity`.
    fn tick_failing(
        engine: &mut Engine,
        scrub: &mut ScrubRunner<'_>,
        victim: usize,
        ticks: usize,
    ) -> Vec<u32> {
        (0..ticks)
            .map(|_| {
                if engine.unit_state(victim).is_hw_capacity() {
                    let open_after = engine.breaker().open_after;
                    engine.note_external_service(victim, open_after, None);
                }
                engine.tick(&mut *scrub);
                engine.hw_capacity()
            })
            .collect()
    }

    fn trail(engine: &Engine, i: usize) -> Vec<(HealthState, HealthState)> {
        engine
            .transitions(i)
            .iter()
            .map(|t| (t.from, t.to))
            .collect()
    }

    #[test]
    fn external_incidents_feed_the_breaker() {
        let mut engine = Engine::new(2, small_cfg());
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        engine.note_external_service(0, 1, None);
        assert_eq!(engine.unit_state(0), HealthState::Suspect);
        // Clean served lanes are heal credits (heal_after 4).
        for _ in 0..4 {
            engine.note_external_service(0, 0, None);
        }
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        // Enough failures open the breaker.
        engine.note_external_service(0, 2, None);
        assert_eq!(engine.unit_state(0), HealthState::Quarantined);
        assert_eq!(
            engine.unit_state(1),
            HealthState::Healthy,
            "scoped to the slot"
        );
    }

    #[test]
    fn faulty_unit_quarantines_scrubs_and_readmits() {
        let (n, ports) = build();
        let mut scrub = scrub_on(&n, &ports);
        let mut engine = Engine::new(2, small_cfg());
        let registry = Registry::new();
        engine.attach_telemetry(&registry);
        // Latched transient damage (non-sticky): a scrub's repair clears
        // it, so the unit must come back.
        let lsb = ports.chk_p0[0];
        engine.inject_stuck_at(0, lsb, true, false);
        assert_eq!(engine.overlay(0), vec![(lsb, true)]);
        // The served lanes fail on the unit once: the breaker opens.
        engine.note_external_service(0, 2, None);
        let caps: Vec<u32> = (0..8)
            .map(|_| {
                engine.tick(&mut scrub);
                engine.hw_capacity()
            })
            .collect();
        let trail = trail(&engine, 0);
        assert!(
            trail.contains(&(HealthState::Quarantined, HealthState::Probation))
                && trail.contains(&(HealthState::Probation, HealthState::Healthy)),
            "expected a full recovery cycle, got {trail:?}"
        );
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        assert!(engine.overlay(0).is_empty(), "the repair cleared it");
        assert_eq!(engine.hw_capacity(), 2);
        assert!(registry.counter("pool.scrub_passes").get() >= 1);
        assert!(registry.counter("pool.transitions").get() >= 4);
        // The capacity series saw the dip and the recovery.
        assert!(caps.iter().any(|&c| c < 2), "capacity dipped: {caps:?}");
        assert_eq!(*caps.last().unwrap(), 2, "capacity recovered");
    }

    #[test]
    fn sticky_fault_retires_after_k_failed_scrubs() {
        let (n, ports) = build();
        let mut scrub = scrub_on(&n, &ports);
        let mut engine = Engine::new(2, small_cfg());
        // A physical defect: survives every repair.
        let lsb = ports.chk_p0[0];
        engine.inject_stuck_at(0, lsb, true, true);
        tick_failing(&mut engine, &mut scrub, 0, 30);
        assert_eq!(engine.unit_state(0), HealthState::Retired);
        assert_eq!(engine.hw_capacity(), 1);
        // Both scrubs failed on the compiled battery, and the defect is
        // still in the record.
        assert_eq!(engine.scrubs(), (2, 0));
        assert_eq!(engine.overlay(0), vec![(lsb, true)]);
    }

    #[test]
    fn external_service_trace_tags_breaker_transitions() {
        let mut engine = Engine::new(1, small_cfg());
        let trace = TraceId::from_raw(0xCAFE_F00D);
        engine.note_external_service(0, 2, Some(trace));
        // The healthy→suspect transition names the offending trace.
        let t = engine.transitions(0);
        assert!(!t.is_empty(), "incident must log a transition");
        assert_eq!(t[0].trace, Some(trace.as_u64()));
        assert!(t[0].to_json().contains("\"trace_id\":\"00000000cafef00d\""));
    }

    #[test]
    fn retirement_promotes_a_spare_and_restores_capacity() {
        let (n, ports) = build();
        let mut scrub = scrub_on(&n, &ports);
        let mut cfg = small_cfg();
        cfg.spares = 1;
        let mut engine = Engine::new(2, cfg);
        assert_eq!(engine.unit_count(), 3, "2 serving + 1 standby slots");
        assert_eq!(engine.hw_capacity(), 2, "spares are not capacity");
        assert_eq!(engine.spares_available(), 1);
        assert_eq!(engine.unit_state(2), HealthState::Spare);
        // A physical defect retires unit 0 after max_scrub_failures.
        engine.inject_stuck_at(0, ports.chk_p0[0], true, true);
        let caps = tick_failing(&mut engine, &mut scrub, 0, 30);
        assert_eq!(engine.unit_state(0), HealthState::Retired);
        // The standby was promoted in the same tick the retirement was
        // observed: capacity is back at its pre-fault value.
        assert_eq!(engine.unit_state(2), HealthState::Healthy);
        assert_eq!(engine.hw_capacity(), 2, "capacity fully restored");
        assert_eq!(engine.promotions(), 1);
        assert_eq!(engine.spares_available(), 0);
        let promo = engine
            .transitions(2)
            .iter()
            .find(|t| t.from == HealthState::Spare && t.to == HealthState::Healthy)
            .expect("promotion is a logged health transition");
        assert!(
            promo.reason.contains("retired unit 0"),
            "the transition names the replaced slot: {}",
            promo.reason
        );
        // The capacity series shows dip and restoration.
        assert!(caps.iter().any(|&c| c < 2), "capacity dipped: {caps:?}");
        assert_eq!(*caps.last().unwrap(), 2, "and recovered via promotion");
    }

    #[test]
    fn seus_last_one_pass_and_a_scrub_clears_them() {
        let (n, ports) = build();
        let mut scrub = scrub_on(&n, &ports);
        let mut engine = Engine::new(1, small_cfg());
        let (stuck, upset) = (ports.pl[3], ports.ph[7]);
        engine.inject_stuck_at(0, stuck, false, true);
        engine.schedule_seu(0, upset, true);
        // A stuck-at wins over an upset on the same net.
        engine.schedule_seu(0, stuck, true);
        let mut want = vec![(stuck, false), (upset, true)];
        want.sort();
        assert_eq!(engine.overlay(0), want);
        engine.end_pass(0);
        assert_eq!(engine.overlay(0), vec![(stuck, false)], "one pass only");
        // A scrub that runs before the unit's next pass clears a pending
        // upset, and keeps the sticky defect.
        engine.schedule_seu(0, upset, true);
        engine.note_external_service(0, 2, None);
        while engine.unit_state(0) == HealthState::Quarantined {
            engine.tick(&mut scrub);
        }
        assert_eq!(engine.overlay(0), vec![(stuck, false)]);
        engine.clear_unit_faults(0);
        assert!(
            engine.overlay(0).is_empty(),
            "a field replacement clears all"
        );
    }
}
