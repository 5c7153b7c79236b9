//! The resilient execution engine: a pool of self-checking units behind
//! a bounded submission queue, with per-unit circuit breakers,
//! scrub-and-readmit recovery, a per-operation settle-work watchdog and
//! an escape cross-check against the bit-exact functional model.
//!
//! All pool units share one [`Netlist`] (the netlist is immutable under
//! simulation; faults are per-[`Simulator`] overlays), so an N-unit pool
//! costs N simulators, not N netlists.
//!
//! Time is counted in *ticks*: one [`Engine::tick`] call runs due
//! scrubs, dispatches at most one queued operation per dispatchable
//! unit (round-robin), runs a patrol slice when it dispatched nothing,
//! samples the capacity timeline and updates the pool gauges. There is
//! no wall-clock anywhere, so a seeded run is bit-reproducible.
//!
//! Patrol bookkeeping has one code path: [`Engine::take_patrol`] picks
//! the least-recently-verified serving unit and the next battery slice,
//! and [`Engine::finish_patrol`] lands the verdict. An engine-only tick
//! replays the slice on the engine's own compiled simulator; a
//! front-end that packs the slice into lanes of its own pass ticks with
//! [`Engine::tick_leaving_patrol`] and calls both itself.

use mfm_gatesim::{CompiledSim, LaneWord, NetId, Netlist, ALL_LANES, LANES, NO_LANES};
use mfm_telemetry::{Counter, Gauge, Registry, TraceId};
use mfmult::selfcheck::{scrub_battery, scrub_compiled, SelfCheckingUnit};
use mfmult::structural::StructuralPorts;
use mfmult::{FunctionalUnit, MultResult, Operation};

use crate::health::{BreakerConfig, HealthState, HealthTracker, HealthTransition, TickVerdict};

/// Structured rejection returned by [`Engine::submit`] when the bounded
/// queue is full — the backpressure signal callers answer with
/// [`crate::backoff::SubmitBackoff`].
///
/// The rejection is never a silent drop: it carries the queue depth the
/// caller collided with and a retry-after hint derived from the recent
/// [`CapacitySample`] timeline (queue occupancy over the observed drain
/// rate), so a well-behaved client knows exactly how long to stay away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Queue occupancy at the moment of rejection.
    pub queued: u32,
    /// Estimated ticks until a queue slot frees up, computed from the
    /// completion rate over the recent capacity timeline. At least 1.
    pub retry_after: u64,
}

impl std::fmt::Display for Busy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission queue full ({} queued, retry after {} tick(s))",
            self.queued, self.retry_after
        )
    }
}

impl std::error::Error for Busy {}

/// Engine policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Capacity of the submission queue; a full queue rejects with
    /// [`Busy`].
    pub queue_depth: usize,
    /// Per-unit circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Watchdog headroom: the per-op settle-event budget is this factor
    /// times the worst op observed while replaying the scrub battery at
    /// construction.
    pub watchdog_margin: u64,
    /// Whether the pool's units were built with the quad-binary16
    /// extension (selects the wider scrub battery).
    pub quad_lanes: bool,
    /// Cold standby units provisioned beyond the serving pool. A spare
    /// takes no traffic and counts toward no capacity until a serving
    /// unit retires, at which point the spare runs an activation scrub
    /// and is promoted into the vacated role — so `hw_capacity` never
    /// degrades permanently while standbys remain.
    pub spares: usize,
    /// Scrub-battery operations replayed per *idle* tick against the
    /// least-recently-verified healthy unit (patrol scrubbing). 0
    /// disables patrol.
    pub patrol_slice: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_depth: 8,
            breaker: BreakerConfig::default(),
            watchdog_margin: 4,
            quad_lanes: false,
            spares: 0,
            patrol_slice: 0,
        }
    }
}

/// One delivered result, tagged with its submission id and the unit
/// that served it.
#[derive(Debug, Clone)]
pub struct Completed {
    /// Submission id returned by [`Engine::submit`].
    pub id: u64,
    /// The operation.
    pub op: Operation,
    /// Pool index of the serving unit.
    pub unit: usize,
    /// Tick at which the result was produced.
    pub tick: u64,
    /// The (checked or fallback) result.
    pub result: MultResult,
}

/// Capacity samples the engine keeps: the window
/// [`Busy::retry_after`] is estimated over.
const TIMELINE_WINDOW: usize = 16;

/// One point of the capacity timeline: [`Engine::tick`] takes one per
/// tick, reports it in its [`TickReport`] and keeps the last
/// [`TIMELINE_WINDOW`] (16) in a fixed ring, for the retry hint.
/// A caller that wants the whole series records the reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacitySample {
    /// Tick the sample was taken at.
    pub tick: u64,
    /// Units delivering gate-level (checked hardware) results.
    pub hw_capacity: u32,
    /// Units accepting work at all (includes retired fallback service).
    pub dispatchable: u32,
    /// Queue occupancy after this tick's dispatch.
    pub queued: u32,
    /// Operations completed during this tick.
    pub completed: u32,
}

/// What one [`Engine::tick`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickReport {
    /// Operations dispatched (and completed — service is synchronous
    /// within a tick).
    pub dispatched: u32,
    /// Scrubs run this tick.
    pub scrubs: u32,
    /// Of those, scrubs that passed and readmitted their unit.
    pub scrub_passes: u32,
    /// The capacity sample taken at the end of the tick.
    pub sample: CapacitySample,
}

/// Pool-level counters and gauges (see [`Engine::attach_telemetry`]).
struct PoolTelemetry {
    state_gauges: [Gauge; 6],
    hw_capacity: Gauge,
    queue_depth: Gauge,
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    masked: Counter,
    dmr_shadows: Counter,
    dmr_mismatches: Counter,
    promotions: Counter,
    patrol_slices: Counter,
    patrol_failures: Counter,
    scrubs: Counter,
    scrub_passes: Counter,
    watchdog_trips: Counter,
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
/// through the checked datapath). Only redundant execution — the DMR
/// shadow, a TMR vote or the reference cross-check — can catch it.
#[derive(Debug, Clone, Copy)]
struct ByzantineFault {
    /// Every `period`-th served result is corrupted.
    period: u64,
    /// XOR pattern applied to the high product word.
    mask: u64,
    /// Results served through the latch so far.
    served: u64,
}

/// One pool slot: the unit, its breaker, and the chaos-environment
/// faults that must survive a scrub's repair step.
struct PoolUnit<'a> {
    unit: SelfCheckingUnit<'a>,
    health: HealthTracker,
    /// Environment faults re-asserted after every repair: a scrub can
    /// clear transient damage, but not the (modelled) physical defect.
    sticky: Vec<(NetId, bool)>,
    /// Nets to hit with a glitch storm immediately before the next
    /// dispatched operation (induced-delay chaos).
    pending_delay: Vec<NetId>,
    /// Chaos: an intermittent output-latch fault beyond check coverage.
    byzantine: Option<ByzantineFault>,
    /// Transitions already mirrored into the telemetry counter
    /// (a `transitions_logged` watermark, immune to ring eviction).
    mirrored_transitions: u64,
    /// Tick of the last successful verification (scrub or patrol slice).
    last_verified: u64,
    /// Whether this unit's retirement has already been answered with a
    /// spare promotion attempt.
    retirement_handled: bool,
    watchdog_trips: u64,
}

/// The pool engine (see the module docs).
pub struct Engine<'a> {
    units: Vec<PoolUnit<'a>>,
    reference: FunctionalUnit,
    battery: Vec<Operation>,
    /// One settled bit-parallel simulator over the shared netlist's
    /// compiled program, re-armed with the overlay of whichever unit a
    /// scrub prefilter or an engine-run patrol slice checks: the
    /// prefilter replays the whole battery in one 256-lane pass before
    /// committing to the event-driven replay. A front-end that packs
    /// patrol into its own pass ([`Engine::tick_leaving_patrol`]) leaves
    /// only scrubs to it.
    sim: CompiledSim<'a>,
    ports: StructuralPorts,
    /// Submitted operations awaiting dispatch, as `(id, op)`.
    queue: std::collections::VecDeque<(u64, Operation)>,
    queue_depth: usize,
    breaker: BreakerConfig,
    /// Per-op settle-event ceiling (calibrated at construction).
    watchdog_budget: u64,
    tick: u64,
    next_id: u64,
    completed: Vec<Completed>,
    /// The last [`TIMELINE_WINDOW`] capacity samples, oldest first.
    timeline: std::collections::VecDeque<CapacitySample>,
    rr_cursor: usize,
    escapes: u64,
    masked: u64,
    dmr_shadows: u64,
    dmr_mismatches: u64,
    promotions: u64,
    patrol_slice: usize,
    patrol_cursor: usize,
    patrol_slices: u64,
    patrol_failures: u64,
    submitted: u64,
    rejected: u64,
    done: u64,
    scrubs: u64,
    scrub_passes: u64,
    telemetry: Option<PoolTelemetry>,
}

impl<'a> Engine<'a> {
    /// Builds a pool of `units` self-checking units over one shared
    /// netlist and calibrates the watchdog budget by replaying the scrub
    /// battery once (the per-op ceiling is `watchdog_margin` times the
    /// worst battery vector, read from the `sim.settle_events`
    /// histogram).
    pub fn new(
        netlist: &'a Netlist,
        ports: &StructuralPorts,
        units: usize,
        cfg: EngineConfig,
    ) -> Self {
        assert!(units > 0, "a pool needs at least one unit");
        let battery = scrub_battery(cfg.quad_lanes);
        let mut pool: Vec<PoolUnit<'a>> = (0..units + cfg.spares)
            .map(|k| PoolUnit {
                unit: SelfCheckingUnit::new(netlist, ports.clone()),
                // Slots past the serving pool are cold standbys.
                health: if k < units {
                    HealthTracker::new(cfg.breaker)
                } else {
                    HealthTracker::new_spare(cfg.breaker)
                },
                sticky: Vec::new(),
                pending_delay: Vec::new(),
                byzantine: None,
                mirrored_transitions: 0,
                last_verified: 0,
                retirement_handled: false,
                watchdog_trips: 0,
            })
            .collect();
        // Calibrate: replay the battery on unit 0 with the settle
        // histogram attached; the observed worst case times the margin
        // becomes every unit's per-op budget.
        let cal = Registry::new();
        pool[0].unit.sim_mut().attach_telemetry(&cal, u64::MAX);
        pool[0]
            .unit
            .run_scrub(&battery)
            .expect("clean hardware must pass its own scrub battery");
        let worst = cal
            .histogram("sim.settle_events")
            .max()
            .expect("battery settles at least once") as u64;
        let watchdog_budget = worst.saturating_mul(cfg.watchdog_margin.max(1)).max(1);
        // Detach the calibration registry and arm the hard settle stop
        // on every unit (a single settle pass can never legitimately
        // exceed the whole op's ceiling).
        for pu in &mut pool {
            pu.unit.sim_mut().detach_telemetry();
            pu.unit.sim_mut().set_settle_budget(Some(watchdog_budget));
        }
        let prog = netlist.compiled().expect("pool netlist must be acyclic");
        Engine {
            units: pool,
            reference: FunctionalUnit::new(),
            battery,
            sim: CompiledSim::new(prog),
            ports: ports.clone(),
            queue: std::collections::VecDeque::new(),
            queue_depth: cfg.queue_depth.max(1),
            breaker: cfg.breaker,
            watchdog_budget,
            tick: 0,
            next_id: 0,
            completed: Vec::new(),
            timeline: std::collections::VecDeque::with_capacity(TIMELINE_WINDOW),
            rr_cursor: 0,
            escapes: 0,
            masked: 0,
            dmr_shadows: 0,
            dmr_mismatches: 0,
            promotions: 0,
            patrol_slice: cfg.patrol_slice,
            patrol_cursor: 0,
            patrol_slices: 0,
            patrol_failures: 0,
            submitted: 0,
            rejected: 0,
            done: 0,
            scrubs: 0,
            scrub_passes: 0,
            telemetry: None,
        }
    }

    /// Registers pool gauges and counters: `pool.units.<state>`,
    /// `pool.hw_capacity`, `pool.queue_depth`, plus `pool.{submitted,
    /// rejected, completed, escapes, masked, dmr_shadows,
    /// dmr_mismatches, promotions, patrol_slices, patrol_failures,
    /// scrubs, scrub_passes, watchdog_trips, transitions}`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        // `pool.escapes` stays registered (at zero) as the zero-escape
        // contract's scrapeable witness; the masking reference vote
        // leaves nothing that could increment it.
        let _ = registry.counter("pool.escapes");
        self.telemetry = Some(PoolTelemetry {
            state_gauges: STATE_SLOTS.map(|s| registry.gauge(&format!("pool.units.{}", s.label()))),
            hw_capacity: registry.gauge("pool.hw_capacity"),
            queue_depth: registry.gauge("pool.queue_depth"),
            submitted: registry.counter("pool.submitted"),
            rejected: registry.counter("pool.rejected"),
            completed: registry.counter("pool.completed"),
            masked: registry.counter("pool.masked"),
            dmr_shadows: registry.counter("pool.dmr_shadows"),
            dmr_mismatches: registry.counter("pool.dmr_mismatches"),
            promotions: registry.counter("pool.promotions"),
            patrol_slices: registry.counter("pool.patrol_slices"),
            patrol_failures: registry.counter("pool.patrol_failures"),
            scrubs: registry.counter("pool.scrubs"),
            scrub_passes: registry.counter("pool.scrub_passes"),
            watchdog_trips: registry.counter("pool.watchdog_trips"),
            transitions: registry.counter("pool.transitions"),
        });
    }

    /// Pool size.
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

    /// The wrapped unit at slot `i` (stats, incident log).
    pub fn unit(&self, i: usize) -> &SelfCheckingUnit<'a> {
        &self.units[i].unit
    }

    /// The calibrated per-op settle-event ceiling.
    pub fn watchdog_budget(&self) -> u64 {
        self.watchdog_budget
    }

    /// Watchdog trips observed on unit `i`.
    pub fn watchdog_trips(&self, i: usize) -> u64 {
        self.units[i].watchdog_trips
    }

    /// Results wrongly delivered (disagreeing with the bit-exact
    /// reference). Since the reference vote substitutes the correct
    /// answer before delivery (see [`Engine::masked`]), this stays zero
    /// by construction; the counter remains as the contract's witness.
    pub fn escapes(&self) -> u64 {
        self.escapes
    }

    /// Wrong hardware results caught by the reference vote and replaced
    /// before delivery — each one also charged the serving unit's
    /// breaker. A nonzero count with zero [`Engine::escapes`] is fault
    /// *masking* working as designed.
    pub fn masked(&self) -> u64 {
        self.masked
    }

    /// Operations shadow-executed on a healthy peer because the serving
    /// unit was under suspicion (DMR-on-suspicion).
    pub fn dmr_shadows(&self) -> u64 {
        self.dmr_shadows
    }

    /// DMR shadow pairs that disagreed and went to the reference for
    /// the deciding vote.
    pub fn dmr_mismatches(&self) -> u64 {
        self.dmr_mismatches
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

    /// Patrol battery slices run on idle ticks, and how many of them
    /// failed (charging the patrolled unit's breaker).
    pub fn patrol_stats(&self) -> (u64, u64) {
        (self.patrol_slices, self.patrol_failures)
    }

    /// Operations accepted, rejected and completed so far, and scrubs
    /// run / passed.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.submitted,
            self.rejected,
            self.done,
            self.scrubs,
            self.scrub_passes,
        )
    }

    /// Queue occupancy.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Drains the completed-results buffer.
    pub fn take_completed(&mut self) -> Vec<Completed> {
        std::mem::take(&mut self.completed)
    }

    /// Units currently delivering gate-level results.
    pub fn hw_capacity(&self) -> u32 {
        self.units
            .iter()
            .filter(|u| u.health.state().is_hw_capacity() && !u.unit.is_degraded())
            .count() as u32
    }

    /// Submits one operation. A full queue answers a structured
    /// [`Busy`] carrying the queue depth and a retry-after hint; the
    /// caller backs off and retries (see
    /// [`crate::backoff::SubmitBackoff`]) or sheds the request with a
    /// typed overload response.
    pub fn submit(&mut self, op: Operation) -> Result<u64, Busy> {
        if self.queue.len() >= self.queue_depth {
            self.rejected += 1;
            if let Some(t) = &self.telemetry {
                t.rejected.inc();
            }
            return Err(Busy {
                queued: self.queue.len() as u32,
                retry_after: self.retry_after_hint(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.submitted += 1;
        if let Some(t) = &self.telemetry {
            t.submitted.inc();
        }
        self.queue.push_back((id, op));
        Ok(id)
    }

    /// Estimated ticks until a queue slot frees up, derived from the
    /// recent [`CapacitySample`] timeline: current queue occupancy over
    /// the mean completion rate of the retained (up to 16) samples. When no
    /// completions have been observed yet the hint falls back to one
    /// tick per queued operation per dispatchable unit. Always ≥ 1.
    fn retry_after_hint(&self) -> u64 {
        let queued = self.queue.len() as u64;
        let window = &self.timeline;
        let served: u64 = window.iter().map(|s| s.completed as u64).sum();
        if served > 0 {
            // Ticks to drain the whole queue at the observed rate,
            // rounded up; an empty queue still asks for one tick.
            queued
                .saturating_mul(window.len() as u64)
                .div_ceil(served)
                .max(1)
        } else {
            let lanes = self
                .units
                .iter()
                .filter(|u| u.health.is_dispatchable())
                .count()
                .max(1) as u64;
            queued.div_ceil(lanes).max(1)
        }
    }

    /// Credits unit `i` with externally served work. A front-end that
    /// batches requests through this unit's fault overlay (e.g. the
    /// serving front-end's compiled batch path) feeds its observations
    /// into the unit's breaker exactly like in-pool dispatch does:
    /// `incidents > 0` counts against the unit, `incidents == 0` is a
    /// clean-operation heal credit. This keeps the circuit breaker
    /// authoritative for *all* traffic a unit carries, not just the
    /// operations the pool scheduler dispatched itself.
    pub fn note_external_service(&mut self, i: usize, incidents: u32) {
        self.note_external_service_traced(i, incidents, None);
    }

    /// Like [`Engine::note_external_service`], tagging any breaker
    /// transition the incidents cause with the trace id of the request
    /// that surfaced them, so the JSON transition log points back at a
    /// replayable trace.
    pub fn note_external_service_traced(
        &mut self,
        i: usize,
        incidents: u32,
        trace: Option<TraceId>,
    ) {
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
    /// physical defect: it is re-asserted after every scrub's repair
    /// step, so only [`Engine::clear_unit_faults`] (or retirement) ends
    /// it. A non-sticky fault models latched transient damage that a
    /// scrub's repair clears.
    pub fn inject_stuck_at(&mut self, i: usize, net: NetId, value: bool, sticky: bool) {
        let u = &mut self.units[i];
        u.unit.inject_stuck_at(net, value);
        if sticky {
            u.sticky.push((net, value));
        }
    }

    /// Clears every fault (including sticky and Byzantine ones) from
    /// unit `i` — the chaos plan's "field replacement" event.
    pub fn clear_unit_faults(&mut self, i: usize) {
        let u = &mut self.units[i];
        u.sticky.clear();
        u.byzantine = None;
        u.unit.clear_faults();
    }

    /// Arms a Byzantine output-latch fault on unit `i`: every
    /// `period`-th result the unit serves (pool dispatch or external
    /// batch lane) has its high product word XORed with `mask`, *after*
    /// the unit's self-checks ran. Scrub batteries replay through the
    /// checked datapath and pass — the fault is intentionally beyond
    /// check coverage, so only redundant execution (the DMR shadow, a
    /// TMR vote, or the reference cross-check) catches it.
    pub fn inject_byzantine(&mut self, i: usize, period: u64, mask: u64) {
        self.units[i].byzantine = Some(ByzantineFault {
            period: period.max(1),
            mask: if mask == 0 { 1 } else { mask },
            served: 0,
        });
    }

    /// Advances unit `i`'s Byzantine latch across `lanes` externally
    /// served results, returning the lane mask (bit k = lane k of the
    /// batch of up to 256 lanes) of lanes the latch corrupts. All-zero when
    /// the unit carries no Byzantine fault. External batch paths call
    /// this once per batch so latch wear is shared between pool
    /// dispatch and batched service.
    pub fn byzantine_lane_mask(&mut self, i: usize, lanes: usize) -> LaneWord {
        let Some(b) = &mut self.units[i].byzantine else {
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

    /// The XOR pattern unit `i`'s Byzantine latch applies (0 = none);
    /// external batch paths apply it to the lanes flagged by
    /// [`Engine::byzantine_lane_mask`].
    pub fn byzantine_pattern(&self, i: usize) -> u64 {
        self.units[i].byzantine.map_or(0, |b| b.mask)
    }

    /// Arms a single-event upset on unit `i` for its next dispatched
    /// operation (see [`SelfCheckingUnit::schedule_seu`]).
    pub fn schedule_seu(&mut self, i: usize, edge: u32, net: NetId) {
        self.units[i].unit.schedule_seu(edge, net);
    }

    /// Queues a glitch storm on unit `i`: each net is pulsed immediately
    /// before the next dispatched operation, inflating that op's settle
    /// work so the watchdog sees a runaway simulation.
    pub fn induce_delay(&mut self, i: usize, nets: Vec<NetId>) {
        self.units[i].pending_delay.extend(nets);
    }

    // ---- the scheduler ----------------------------------------------

    /// Runs one scheduling round: due scrubs and spare promotion, then
    /// at most one queued operation per dispatchable
    /// unit (round-robin, starting after the last unit served first in
    /// the previous round), then — on a tick that dispatched nothing —
    /// one patrol slice on the engine's own simulator, then the capacity
    /// sample and gauge refresh.
    pub fn tick(&mut self) -> TickReport {
        let mut report = self.schedule();
        // Patrol scrubbing: an idle tick is spent replaying a bounded
        // slice of the compiled scrub battery against the
        // least-recently-verified healthy unit, so latent faults are
        // caught before live traffic finds them.
        if report.dispatched == 0 {
            if let Some((i, slice)) = self.take_patrol() {
                let faults = self.units[i].unit.sim().stuck_faults();
                self.sim.arm_overlays(&[(ALL_LANES, &faults)]);
                let passed = scrub_compiled(&mut self.sim, &self.ports, &slice).is_ok();
                self.finish_patrol(i, passed);
            }
        }
        report.sample = self.observe(report.dispatched);
        report
    }

    /// [`Engine::tick`] for a front-end that replays the patrol slice in
    /// lanes of its own compiled pass: the same round without the
    /// patrol slice. The caller takes the slice with
    /// [`Engine::take_patrol`] when the report shows an idle tick and
    /// lands its verdict with [`Engine::finish_patrol`], so the patrol
    /// bookkeeping has one code path. The capacity sample is taken
    /// before that verdict lands.
    pub fn tick_leaving_patrol(&mut self) -> TickReport {
        let mut report = self.schedule();
        report.sample = self.observe(report.dispatched);
        report
    }

    /// Steps 1–2 of a round: breaker time and due scrubs, spare
    /// promotion, round-robin dispatch.
    fn schedule(&mut self) -> TickReport {
        self.tick += 1;
        let mut report = TickReport::default();
        // 1. Breaker time advances; elapsed cooldowns trigger scrubs.
        for i in 0..self.units.len() {
            if self.units[i].health.on_tick(self.tick) == TickVerdict::ScrubDue {
                let pass = self.scrub(i);
                report.scrubs += 1;
                self.scrubs += 1;
                if pass {
                    report.scrub_passes += 1;
                    self.scrub_passes += 1;
                    self.units[i].last_verified = self.tick;
                }
                if let Some(t) = &self.telemetry {
                    t.scrubs.inc();
                    if pass {
                        t.scrub_passes.inc();
                    }
                }
                self.units[i].health.on_scrub(self.tick, pass);
            }
        }
        // 1b. Hot-spare promotion: every retirement not yet answered is
        // met by activating a standby, so the pool's hardware capacity
        // never degrades permanently while spares remain.
        for i in 0..self.units.len() {
            if self.units[i].health.state() == HealthState::Retired
                && !self.units[i].retirement_handled
            {
                self.units[i].retirement_handled = true;
                self.promote_spare_for(i, &mut report);
            }
        }
        // 2. Round-robin dispatch: one op per dispatchable unit.
        let n = self.units.len();
        for k in 0..n {
            if self.queue.is_empty() {
                break;
            }
            let i = (self.rr_cursor + k) % n;
            if !self.units[i].health.is_dispatchable() {
                continue;
            }
            let (id, op) = self.queue.pop_front().expect("checked non-empty");
            self.dispatch_one(i, id, op);
            report.dispatched += 1;
        }
        self.rr_cursor = (self.rr_cursor + 1) % n;
        report
    }

    /// Step 3 of a round: the capacity sample and gauge refresh, with
    /// `completed` operations served this tick. The sample replaces the
    /// oldest one once the ring holds [`TIMELINE_WINDOW`].
    fn observe(&mut self, completed: u32) -> CapacitySample {
        let sample = CapacitySample {
            tick: self.tick,
            hw_capacity: self.hw_capacity(),
            dispatchable: self
                .units
                .iter()
                .filter(|u| u.health.is_dispatchable())
                .count() as u32,
            queued: self.queue.len() as u32,
            completed,
        };
        if self.timeline.len() == TIMELINE_WINDOW {
            self.timeline.pop_front();
        }
        self.timeline.push_back(sample);
        self.update_gauges(&sample);
        sample
    }

    /// Scrub-and-readmit for unit `i`: repair the hardware, re-assert
    /// the sticky environment faults (a scrub cannot fix a physical
    /// defect), then replay the battery. Returns whether the unit passed.
    ///
    /// The battery is first replayed through the compiled bit-parallel
    /// engine against the unit's stuck-at overlay (one 256-lane pass for
    /// the whole battery). Settled values are a pure function of the
    /// inputs plus that overlay, so a compiled *failure* is conclusive
    /// and fast-fails the scrub without the event-driven replay; a
    /// compiled *pass* is not sufficient (the watchdog verdict is
    /// timing-dependent), so it falls through to the full replay.
    fn scrub(&mut self, i: usize) -> bool {
        let u = &mut self.units[i];
        u.unit.repair();
        u.pending_delay.clear();
        for &(net, value) in &u.sticky {
            u.unit.inject_stuck_at(net, value);
        }
        self.sim
            .arm_overlays(&[(ALL_LANES, &u.unit.sim().stuck_faults())]);
        if let Err(fail) = scrub_compiled(&mut self.sim, &self.ports, &self.battery) {
            return u.unit.note_scrub_outcome(Err(fail));
        }
        u.unit.try_recover_with(&self.battery)
    }

    /// Answers the retirement of unit `retired` by activating a spare:
    /// each standby in slot order runs a full activation scrub; the
    /// first one that passes is promoted into service (logged as a
    /// `spare → healthy` transition naming the replaced slot), and a
    /// standby that fails its activation scrub is retired on the spot
    /// and the next one tried.
    fn promote_spare_for(&mut self, retired: usize, report: &mut TickReport) {
        for s in 0..self.units.len() {
            if self.units[s].health.state() != HealthState::Spare {
                continue;
            }
            let pass = self.scrub(s);
            report.scrubs += 1;
            self.scrubs += 1;
            if let Some(t) = &self.telemetry {
                t.scrubs.inc();
            }
            if pass {
                report.scrub_passes += 1;
                self.scrub_passes += 1;
                self.promotions += 1;
                if let Some(t) = &self.telemetry {
                    t.scrub_passes.inc();
                    t.promotions.inc();
                }
                self.units[s].last_verified = self.tick;
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
    /// serving unit (healthy or suspect — the states that carry hardware
    /// traffic — and not degraded), advances the rolling window over
    /// the compiled battery and counts the slice. Returns that unit and
    /// the `patrol_slice` battery operations to replay under its
    /// stuck-at overlay, or `None` when patrol is off or no unit serves.
    /// [`Engine::finish_patrol`] lands the verdict.
    pub fn take_patrol(&mut self) -> Option<(usize, Vec<Operation>)> {
        if self.patrol_slice == 0 {
            return None;
        }
        let i = (0..self.units.len())
            .filter(|&i| {
                self.units[i].health.state().is_hw_capacity() && !self.units[i].unit.is_degraded()
            })
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

    /// Serves one operation on unit `i`: glitch storms, execution, the
    /// per-op watchdog, the DMR shadow when the unit is under
    /// suspicion, health accounting and the masking reference vote.
    fn dispatch_one(&mut self, i: usize, id: u64, op: Operation) {
        let dmr_due = self.units[i].health.state() == HealthState::Suspect;
        let (mut result, delta, mut incidents) = {
            let u = &mut self.units[i];
            let ev0 = u.unit.sim().total_events();
            let inc0 = u.unit.incidents().len();
            // Induced-delay chaos: pulse the queued nets so the settle
            // work for this op balloons.
            let storm = std::mem::take(&mut u.pending_delay);
            for net in storm {
                let cur = u.unit.sim().read_bus(&[net]) & 1 == 1;
                u.unit.sim_mut().inject_stuck_at(net, !cur);
                u.unit.sim_mut().settle();
                u.unit.sim_mut().clear_fault(net);
            }
            let mut result = u.unit.execute(op);
            // Byzantine chaos: the output latch corrupts every Nth
            // served result *after* the self-checks ran.
            if let Some(b) = &mut u.byzantine {
                b.served += 1;
                if b.served % b.period == 0 {
                    result.ph ^= b.mask;
                }
            }
            let delta = u.unit.sim().total_events().saturating_sub(ev0);
            let incidents = (u.unit.incidents().len() - inc0) as u32;
            (result, delta, incidents)
        };
        // Per-op watchdog: the settle-event delta of this dispatch
        // (including any storm) against the calibrated ceiling. The
        // in-simulator budget already hard-stops a single runaway
        // settle; this catches death-by-many-settles too.
        if delta > self.watchdog_budget {
            incidents += 1;
            self.units[i].watchdog_trips += 1;
            if let Some(t) = &self.telemetry {
                t.watchdog_trips.inc();
            }
        }
        let want = self.reference.execute(op);
        // DMR-on-suspicion: work routed to a suspect unit is shadowed
        // on a healthy peer in the same tick. A disagreeing pair goes
        // to the bit-exact reference for the deciding vote; the losing
        // replica's unit is charged an incident. The client never sees
        // any of this — the masking vote below guarantees the answer.
        if dmr_due {
            let peer = (0..self.units.len()).find(|&j| {
                j != i
                    && self.units[j].health.state() == HealthState::Healthy
                    && !self.units[j].unit.is_degraded()
            });
            if let Some(j) = peer {
                self.dmr_shadows += 1;
                if let Some(t) = &self.telemetry {
                    t.dmr_shadows.inc();
                }
                let pu = &mut self.units[j];
                let jinc0 = pu.unit.incidents().len();
                let shadow = pu.unit.execute(op);
                let jinc = (pu.unit.incidents().len() - jinc0) as u32;
                if jinc > 0 {
                    // The shadow surfaced the peer's own problems: feed
                    // its breaker exactly like dispatched work would.
                    pu.health.on_incidents(self.tick, jinc);
                }
                if !shadow.agrees_hw(&result) {
                    self.dmr_mismatches += 1;
                    if let Some(t) = &self.telemetry {
                        t.dmr_mismatches.inc();
                    }
                    if !shadow.agrees_hw(&want) {
                        // The healthy peer was the wrong one: vote
                        // against it. (A wrong suspect is charged by
                        // the masking vote below.)
                        self.units[j].health.on_incidents(self.tick, 1);
                    }
                }
            }
        }
        // A degraded unit serves correct (fallback) results but has no
        // business staying in rotation unexamined: force the breaker
        // towards quarantine so a scrub decides recovery vs retirement.
        if self.units[i].unit.is_degraded() && self.units[i].health.state() != HealthState::Retired
        {
            incidents = incidents.max(1);
        }
        // The masking reference vote: every delivered result is
        // compared against the bit-exact reference (the hardware flag
        // bus has no inexact wire, so flags compare under the hardware
        // mask). A disagreement is *masked* — the reference result is
        // substituted and the unit charged — so a wrong answer never
        // reaches a caller and `escapes` stays zero by construction.
        if !result.agrees_hw(&want) {
            self.masked += 1;
            incidents += 1;
            if let Some(t) = &self.telemetry {
                t.masked.inc();
            }
            result = want;
        }
        if incidents > 0 {
            self.units[i].health.on_incidents(self.tick, incidents);
        } else {
            self.units[i].health.on_clean_op(self.tick);
        }
        self.done += 1;
        if let Some(t) = &self.telemetry {
            t.completed.inc();
        }
        self.completed.push(Completed {
            id,
            op,
            unit: i,
            tick: self.tick,
            result,
        });
    }

    fn update_gauges(&mut self, sample: &CapacitySample) {
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
            t.hw_capacity.set(sample.hw_capacity as f64);
            t.queue_depth.set(sample.queued as f64);
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
    use mfmult::structural::build_unit;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            queue_depth: 4,
            breaker: BreakerConfig {
                open_after: 2,
                heal_after: 4,
                cooldown_ticks: 2,
                max_scrub_failures: 2,
            },
            watchdog_margin: 4,
            quad_lanes: false,
            spares: 0,
            patrol_slice: 0,
        }
    }

    #[test]
    fn clean_pool_serves_and_checks_everything() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 2, small_cfg());
        for k in 0..6u64 {
            engine.submit(Operation::int64(k + 1, 3)).unwrap();
            engine.tick();
        }
        while engine.pending() > 0 {
            engine.tick();
        }
        let done = engine.take_completed();
        assert_eq!(done.len(), 6);
        for c in &done {
            assert_eq!(c.result.int_product(), ((c.id + 1) * 3) as u128);
        }
        assert_eq!(engine.escapes(), 0);
        assert_eq!(engine.hw_capacity(), 2);
        // Round-robin used both units.
        assert!(done.iter().any(|c| c.unit == 0) && done.iter().any(|c| c.unit == 1));
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 1, small_cfg());
        for _ in 0..4 {
            engine.submit(Operation::int64(2, 2)).unwrap();
        }
        let busy = engine.submit(Operation::int64(2, 2)).unwrap_err();
        assert_eq!(busy.queued, 4, "rejection reports queue occupancy");
        assert!(busy.retry_after >= 1, "retry-after hint is always ≥ 1");
        engine.tick();
        assert!(
            engine.submit(Operation::int64(2, 2)).is_ok(),
            "drained one slot"
        );
        let (submitted, rejected, ..) = engine.totals();
        assert_eq!((submitted, rejected), (5, 1));
    }

    #[test]
    fn retry_after_tracks_the_observed_drain_rate() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 1, small_cfg());
        // Serve a few ops so the timeline has a completion rate of one
        // op per tick on the single unit.
        for k in 0..4u64 {
            engine.submit(Operation::int64(k + 1, 2)).unwrap();
            engine.tick();
        }
        // Fill the queue: 4 queued at ~1 op/tick should hint ≈ 4 ticks.
        for _ in 0..4 {
            engine.submit(Operation::int64(3, 3)).unwrap();
        }
        let busy = engine.submit(Operation::int64(3, 3)).unwrap_err();
        assert!(
            (2..=16).contains(&busy.retry_after),
            "hint {} not in the plausible drain window",
            busy.retry_after
        );
    }

    #[test]
    fn capacity_timeline_stays_bounded_over_many_ticks() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 1, small_cfg());
        for tick in 1..=10_000u64 {
            if tick % 100 == 0 {
                engine.submit(Operation::int64(tick, 3)).unwrap();
            }
            let sample = engine.tick().sample;
            assert_eq!(sample.tick, tick);
            assert_eq!(engine.timeline.len(), (tick as usize).min(16));
            assert_eq!(engine.timeline.back(), Some(&sample), "newest last");
        }
        assert_eq!(engine.timeline.front().map(|s| s.tick), Some(10_000 - 15));
    }

    #[test]
    fn external_incidents_feed_the_breaker_like_dispatch() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 2, small_cfg());
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        engine.note_external_service(0, 1);
        assert_eq!(engine.unit_state(0), HealthState::Suspect);
        // Clean externally served lanes are heal credits (heal_after 4).
        for _ in 0..4 {
            engine.note_external_service(0, 0);
        }
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        // Enough failures open the breaker exactly like dispatch would.
        engine.note_external_service(0, 2);
        assert_eq!(engine.unit_state(0), HealthState::Quarantined);
        assert_eq!(
            engine.unit_state(1),
            HealthState::Healthy,
            "scoped to the slot"
        );
    }

    #[test]
    fn faulty_unit_quarantines_scrubs_and_readmits() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 2, small_cfg());
        let registry = Registry::new();
        engine.attach_telemetry(&registry);
        // Latched transient damage (non-sticky): a scrub's repair clears
        // it, so the unit must come back.
        let lsb = ports.chk_p0[0];
        engine.inject_stuck_at(0, lsb, true, false);
        let mut sent = 0u64;
        // The test records its own capacity series from the tick reports.
        let mut caps = Vec::new();
        while sent < 40 || engine.pending() > 0 {
            if sent < 40 && engine.submit(Operation::int64(sent + 2, 7)).is_ok() {
                sent += 1;
            }
            caps.push(engine.tick().sample.hw_capacity);
        }
        assert_eq!(engine.escapes(), 0, "no wrong answers escape");
        let trail: Vec<_> = engine
            .transitions(0)
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert!(
            trail.contains(&(HealthState::Quarantined, HealthState::Probation))
                && trail.contains(&(HealthState::Probation, HealthState::Healthy)),
            "expected a full recovery cycle, got {trail:?}"
        );
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        assert_eq!(engine.hw_capacity(), 2);
        assert!(registry.counter("pool.scrub_passes").get() >= 1);
        assert!(registry.counter("pool.transitions").get() >= 4);
        // The timeline saw the capacity dip and the recovery.
        assert!(caps.iter().any(|&c| c < 2), "capacity dipped: {caps:?}");
        assert_eq!(*caps.last().unwrap(), 2, "capacity recovered");
    }

    #[test]
    fn sticky_fault_retires_after_k_failed_scrubs() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 2, small_cfg());
        // A physical defect: survives every repair.
        let lsb = ports.chk_p0[0];
        engine.inject_stuck_at(0, lsb, true, true);
        let mut sent = 0u64;
        while sent < 60 || engine.pending() > 0 {
            if sent < 60 && engine.submit(Operation::int64(sent + 2, 9)).is_ok() {
                sent += 1;
            }
            engine.tick();
        }
        assert_eq!(engine.unit_state(0), HealthState::Retired);
        assert_eq!(engine.escapes(), 0, "retired unit serves via fallback");
        assert_eq!(engine.hw_capacity(), 1);
        // Retired units still serve traffic.
        let done = engine.take_completed();
        assert!(
            done.iter().any(|c| c.unit == 0),
            "retired slot kept serving"
        );
        assert_eq!(done.len() as u64, 60);
    }

    #[test]
    fn external_service_trace_tags_breaker_transitions() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 1, small_cfg());
        let trace = TraceId::from_raw(0xCAFE_F00D);
        engine.note_external_service_traced(0, 2, Some(trace));
        // The healthy→suspect transition names the offending trace.
        let t = engine.transitions(0);
        assert!(!t.is_empty(), "incident must log a transition");
        assert_eq!(t[0].trace, Some(trace.as_u64()));
        assert!(t[0].to_json().contains("\"trace_id\":\"00000000cafef00d\""));
        // Pool dispatch carries no trace: its log stays trace-free.
        let mut engine2 = Engine::new(&n, &ports, 1, small_cfg());
        engine2.inject_stuck_at(0, ports.chk_p0[0], true, false);
        engine2.submit(Operation::int64(3, 4)).unwrap();
        engine2.tick();
        assert_eq!(engine2.take_completed()[0].result.int_product(), 12);
        assert_eq!(engine2.transitions(0)[0].trace, None);
    }

    #[test]
    fn byzantine_unit_is_outvoted_masked_and_never_escapes() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut engine = Engine::new(&n, &ports, 2, small_cfg());
        // An output-latch defect beyond check coverage: every 3rd
        // result served by unit 0 has a product bit flipped after the
        // self-checks ran. Scrubs replay the checked datapath and pass.
        engine.inject_byzantine(0, 3, 1 << 7);
        let mut sent = 0u64;
        while sent < 60 || engine.pending() > 0 {
            if sent < 60 && engine.submit(Operation::int64(sent + 2, 5)).is_ok() {
                sent += 1;
            }
            engine.tick();
        }
        // The contract: wrong answers were produced, every one was
        // masked before delivery, none escaped.
        assert_eq!(engine.escapes(), 0, "no wrong answer ever delivered");
        assert!(engine.masked() >= 3, "the latch did corrupt results");
        let done = engine.take_completed();
        assert_eq!(done.len() as u64, 60);
        for c in &done {
            assert_eq!(c.result.int_product(), ((c.id + 2) * 5) as u128);
        }
        // The masking votes charged the breaker: the unit was
        // quarantined, its scrub passed (the battery sees a clean
        // datapath — that is what makes the fault Byzantine), and it
        // was readmitted to flap again.
        let trail: Vec<_> = engine
            .transitions(0)
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert!(
            trail.contains(&(HealthState::Suspect, HealthState::Quarantined)),
            "breaker opened on the byzantine unit: {trail:?}"
        );
        assert!(
            trail.contains(&(HealthState::Probation, HealthState::Healthy)),
            "scrubs pass — the fault is beyond battery coverage: {trail:?}"
        );
        // While suspect, dispatches were DMR-shadowed on the healthy
        // peer, and corrupted ones lost the vote.
        assert!(engine.dmr_shadows() >= 1, "suspicion triggered shadows");
        assert_eq!(
            engine.unit_state(1),
            HealthState::Healthy,
            "the honest peer is never blamed"
        );
    }

    #[test]
    fn retirement_promotes_a_spare_and_restores_capacity() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut cfg = small_cfg();
        cfg.spares = 1;
        let mut engine = Engine::new(&n, &ports, 2, cfg);
        assert_eq!(engine.unit_count(), 3, "2 serving + 1 standby slots");
        assert_eq!(engine.hw_capacity(), 2, "spares are not capacity");
        assert_eq!(engine.spares_available(), 1);
        assert_eq!(engine.unit_state(2), HealthState::Spare);
        // A physical defect retires unit 0 after max_scrub_failures.
        engine.inject_stuck_at(0, ports.chk_p0[0], true, true);
        let mut sent = 0u64;
        // The test records its own capacity series from the tick reports.
        let mut caps = Vec::new();
        while sent < 60 || engine.pending() > 0 {
            if sent < 60 && engine.submit(Operation::int64(sent + 2, 9)).is_ok() {
                sent += 1;
            }
            caps.push(engine.tick().sample.hw_capacity);
        }
        assert_eq!(engine.unit_state(0), HealthState::Retired);
        // The standby was promoted in the same tick the retirement was
        // observed: capacity is back at its pre-fault value.
        assert_eq!(engine.unit_state(2), HealthState::Healthy);
        assert_eq!(engine.hw_capacity(), 2, "capacity fully restored");
        assert_eq!(engine.promotions(), 1);
        assert_eq!(engine.spares_available(), 0);
        assert_eq!(engine.escapes(), 0);
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
        // The capacity timeline shows dip and restoration.
        assert!(caps.iter().any(|&c| c < 2), "capacity dipped: {caps:?}");
        assert_eq!(*caps.last().unwrap(), 2, "and recovered via promotion");
    }

    #[test]
    fn patrol_scrubbing_catches_a_latent_fault_without_traffic() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut cfg = small_cfg();
        cfg.patrol_slice = 8;
        let mut engine = Engine::new(&n, &ports, 2, cfg);
        // Latent (non-sticky) damage on an idle unit: no operation is
        // ever submitted, so only patrol can find it.
        engine.inject_stuck_at(0, ports.chk_p0[0], true, false);
        let mut caught = false;
        for _ in 0..200 {
            engine.tick();
            if engine.unit_state(0) != HealthState::Healthy {
                caught = true;
            }
        }
        let (slices, failures) = engine.patrol_stats();
        assert!(caught, "patrol surfaced the latent fault");
        assert!(slices >= 2, "idle ticks ran patrol slices: {slices}");
        assert!(failures >= 1, "the faulty slice failed: {failures}");
        // The breaker machinery took over: quarantine, scrub (repair
        // clears the latched damage), readmission.
        assert_eq!(engine.unit_state(0), HealthState::Healthy);
        let trail: Vec<_> = engine
            .transitions(0)
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert!(
            trail.contains(&(HealthState::Probation, HealthState::Healthy)),
            "repaired and readmitted: {trail:?}"
        );
        assert_eq!(engine.escapes(), 0);
    }

    #[test]
    fn induced_delay_storm_trips_the_watchdog() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut cfg = small_cfg();
        cfg.watchdog_margin = 1;
        let mut engine = Engine::new(&n, &ports, 1, cfg);
        // Each pulse commits at least one settle event, so budget + 2
        // pulses push the op's settle-work delta past the ceiling no
        // matter how the budget was calibrated.
        let victim = ports.flags[0];
        let victims: Vec<NetId> =
            std::iter::repeat_n(victim, engine.watchdog_budget() as usize + 2).collect();
        engine.induce_delay(0, victims);
        engine.submit(Operation::int64(3, 5)).unwrap();
        engine.tick();
        assert!(
            engine.watchdog_trips(0) >= 1,
            "storm must trip the watchdog"
        );
        assert_eq!(engine.escapes(), 0);
        let c = engine.take_completed();
        assert_eq!(c[0].result.int_product(), 15, "the answer is still right");
    }
}
