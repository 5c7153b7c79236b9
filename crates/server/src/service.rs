//! The deterministic service core: admission control, degradation
//! tiers, deadline bookkeeping, 256-lane batch execution through the
//! circuit-breaker pool, and typed responses for everything.
//!
//! The core is tick-driven and samples no wall clock, so it is testable
//! (and replayable) without sockets; the TCP front-end in
//! [`crate::server`] owns one instance on its service thread and calls
//! [`Service::tick`] on a fixed cadence, translating microseconds to
//! ticks with its configured tick length.
//!
//! # The overload ladder
//!
//! Load is the front-end backlog over its capacity. Rather than one
//! accept/refuse cliff, the service degrades in tiers, shedding its own
//! speculative work before it sheds anyone's requests:
//!
//! | tier | backlog | behaviour |
//! |---|---|---|
//! | `Normal` | < 50 % | batch every format, run speculative self-checks |
//! | `ShedSpeculative` | < 75 % | drop the speculative battery sampling |
//! | `SingleFormat` | < 90 % | batch only the deepest format queue per tick |
//! | `Shed` | ≥ 90 % | refuse new work with typed `Overloaded` |
//!
//! Nothing is ever dropped silently: a shed request gets `Overloaded`
//! with a retry hint from the client's own deterministic backoff
//! escalated by consecutive rejections, a stale request gets
//! `DeadlineExceeded`, a bad frame gets `Malformed`, and an answered
//! request's result has always been cross-checked against the bit-exact
//! reference — a lane that fails its check is *rescued* through the
//! engine's event-driven path, never answered from the failed batch.
//!
//! # Adaptive redundancy
//!
//! On top of the per-lane checks the batch path runs *redundant-lane
//! execution*: a request carrying the wire-v3 `critical` flag is
//! replicated across up to three units' fault overlays and the replicas
//! vote, with the `mfm-softfloat`-backed reference breaking ties; a
//! replica outvoted by the majority is charged to its unit's breaker
//! without the wrong answer ever surfacing. The same voting tier
//! engages automatically for a whole batch when its routed unit is
//! `Suspect` (DMR-on-suspicion) and for every lane during a recovery
//! window after any caught would-be escape. Byzantine output-latch
//! faults armed on the engine corrupt batch lanes *after* their
//! self-checks — exactly the fault class only redundancy can catch.
//!
//! # Tracing and the flight recorder
//!
//! Every admitted request carries a [`TraceId`] (minted at frame decode
//! by the front-end, or internally for in-process callers) through the
//! batch path, the verification loop, and the engine rescue path. The
//! service accumulates per-phase spans (queue-wait, batch-fill,
//! compiled-eval, verify, rescue, write-back) into a [`TraceRecord`]
//! that lands in a fixed-size [`TraceRing`] served by `/tracez`.
//! Scheduling decisions stay tick-driven and wall-clock-free; only the
//! span *annotations* for the execution phases sample a monotonic
//! clock, so responses remain deterministic while latency attribution
//! is real.
//!
//! A bounded [`FlightRecorder`] keeps the most recent structured events
//! (check failures, rescues, tier changes, breaker transitions,
//! watchdog trips) and snapshots them into a self-contained JSON
//! incident report when a verification mismatch, engine rescue,
//! watchdog trip, or shed-tier escalation fires — drain reports with
//! [`Service::take_incidents`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use mfm_gatesim::{CompiledSim, LivePowerTrace, Netlist, LANES};
use mfm_resilient::backoff::{BackoffConfig, SubmitBackoff};
use mfm_resilient::{Engine, EngineConfig, HealthState};
use mfm_softfloat::Flags;
use mfm_telemetry::{
    Counter, FlightEvent, FlightRecorder, Gauge, Histogram, IncidentTrigger, Phase, PhaseSpans,
    Registry, TraceId, TraceMinter, TraceRecord, TraceRing,
};
use mfmult::selfcheck::{check_raw, result_from_raw, run_raw_compiled, scrub_battery};
use mfmult::structural::StructuralPorts;
use mfmult::{Format, FunctionalUnit, Operation};

use crate::wire::{Request, Response};

/// Degradation tier the service is currently operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full service: every format batched, speculative checks on.
    Normal,
    /// Speculative self-checks shed; all request work continues.
    ShedSpeculative,
    /// Only the deepest format queue is batched each tick.
    SingleFormat,
    /// New arrivals are refused with typed `Overloaded`.
    Shed,
}

impl Tier {
    /// Stable label for logs and metrics.
    pub const fn label(self) -> &'static str {
        match self {
            Tier::Normal => "normal",
            Tier::ShedSpeculative => "shed_speculative",
            Tier::SingleFormat => "single_format",
            Tier::Shed => "shed",
        }
    }

    /// Numeric encoding exported on the `service.tier` gauge.
    pub const fn level(self) -> u32 {
        match self {
            Tier::Normal => 0,
            Tier::ShedSpeculative => 1,
            Tier::SingleFormat => 2,
            Tier::Shed => 3,
        }
    }
}

/// Service policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Seed for the per-client backoff jitter streams.
    pub seed: u64,
    /// Pool size handed to the engine.
    pub units: usize,
    /// Front-end backlog capacity (requests admitted but not yet
    /// answered, across all format queues and the rescue path).
    pub pending_cap: usize,
    /// Microseconds one service tick represents — converts request
    /// deadlines and retry hints between wire time and tick time.
    pub micros_per_tick: u64,
    /// Deadline applied to requests that carry none (`0` on the wire),
    /// in ticks from admission.
    pub default_deadline_ticks: u64,
    /// Run the speculative battery sample every this many ticks in
    /// `Normal` tier (0 disables).
    pub speculative_every: u64,
    /// Engine (pool) policy.
    pub engine: EngineConfig,
    /// Per-client retry-budget backoff policy (delays in ticks).
    pub backoff: BackoffConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 2017,
            units: 4,
            pending_cap: 256,
            micros_per_tick: 500,
            default_deadline_ticks: 400,
            speculative_every: 16,
            engine: EngineConfig::default(),
            backoff: BackoffConfig {
                base_ticks: 2,
                factor: 2,
                max_ticks: 64,
                max_retries: u32::MAX,
            },
        }
    }
}

/// Completed traces retained for `/tracez`.
const TRACE_RING_CAP: usize = 256;
/// Flight-recorder event ring capacity.
const FLIGHT_RING_CAP: usize = 128;
/// Minimum ticks between incident reports of the same trigger kind.
const INCIDENT_MIN_GAP_TICKS: u64 = 32;
/// Ticks the TMR voting tier stays engaged for *every* lane after any
/// caught would-be escape (a masked engine result, a DMR mismatch, a
/// lost vote, or the belt-and-braces escape guard firing).
const TMR_RECOVERY_TICKS: u64 = 64;

/// One admitted request waiting for a batch slot.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    client: u64,
    id: u64,
    op: Operation,
    /// Absolute deadline tick.
    deadline: u64,
    /// Deadline the client asked for, echoed in expiry responses.
    deadline_micros: u32,
    arrived: u64,
    /// End-to-end trace id minted at decode (or admission).
    trace: TraceId,
    /// Per-phase latency attribution accumulated as the request moves.
    spans: PhaseSpans,
    /// Tick the request entered the rescue path (0 = never rescued).
    rescued_at: u64,
    /// Whether the client asked for TMR voting (wire-v3 flag).
    critical: bool,
}

struct ServiceMetrics {
    accepted: Counter,
    answered: Counter,
    shed: Counter,
    deadline_exceeded: Counter,
    malformed: Counter,
    check_failures: Counter,
    rescues: Counter,
    speculative: Counter,
    votes: Counter,
    vote_mismatches: Counter,
    dmr_batches: Counter,
    tier: Gauge,
    pending: Gauge,
    latency_ticks: Histogram,
    batch_fill: Histogram,
    /// One histogram per [`Phase`], indexed by phase order in
    /// [`Phase::ALL`]; fed when a trace record is finalized.
    phase_micros: Vec<Histogram>,
}

/// The service core (see the module docs). Borrows the netlist like the
/// engine does; one instance per serving thread.
pub struct Service<'a> {
    cfg: ServiceConfig,
    engine: Engine<'a>,
    ports: StructuralPorts,
    /// One settled simulator over the netlist's compiled program for the
    /// primary batch pass, TMR replicas and speculative checks, re-armed
    /// with the routed unit's overlay only when that overlay changes.
    sim: CompiledSim<'a>,
    reference: FunctionalUnit,
    battery: Vec<Operation>,
    /// Per-format admission queues; one batch pass takes up to 256 lanes
    /// across all of them.
    queues: HashMap<Format, VecDeque<PendingReq>>,
    /// Lanes whose batch check failed, awaiting event-driven rescue.
    rescue: VecDeque<PendingReq>,
    /// Rescues in flight inside the engine: engine id → request.
    in_engine: HashMap<u64, PendingReq>,
    /// Per-client consecutive-rejection backoff state.
    backoffs: HashMap<u64, SubmitBackoff>,
    /// Round-robin cursor over pool units for batch routing.
    batch_cursor: usize,
    responses: Vec<(u64, Response, TraceId)>,
    metrics: ServiceMetrics,
    answered: u64,
    shed: u64,
    escape_guard_failures: u64,
    /// Mints trace ids for callers that did not bring one.
    minter: TraceMinter,
    /// Recently completed traces, served by `/tracez`.
    traces: TraceRing,
    /// Bounded ring of recent structured events + incident snapshots.
    flight: FlightRecorder,
    /// Incident reports produced since the last [`Service::take_incidents`].
    incidents: Vec<String>,
    /// Records awaiting the front-end's write-back timing; flushed to
    /// the trace ring on the next tick if the front-end never reports.
    awaiting_write_back: BTreeMap<u64, TraceRecord>,
    /// Tier at the end of the previous tick, for escalation detection.
    last_tier: Tier,
    /// Watchdog-trip counts seen per unit, for edge detection.
    seen_watchdog: Vec<u64>,
    /// Per-unit watermark of breaker transitions already forwarded to
    /// the flight recorder, measured against the tracker's *monotone
    /// logged total* (the in-memory trail is a bounded ring).
    seen_transitions: Vec<u64>,
    /// Tick the post-escape TMR recovery window runs until (exclusive).
    tmr_until: u64,
    /// TMR votes held so far.
    votes: u64,
    /// Votes where at least one replica disagreed with the majority.
    vote_mismatches: u64,
    /// Batches escalated to whole-batch voting because their routed
    /// unit was `Suspect` (DMR-on-suspicion).
    dmr_batches: u64,
    /// Engine `masked` count at the last tick, for escape-edge detection.
    seen_masked: u64,
    /// Engine DMR-mismatch count at the last tick, same purpose.
    seen_dmr_mismatches: u64,
    /// Per-net zero-delay toggle counts accumulated over every primary
    /// compiled batch evaluation (active lanes only) — the service's
    /// power accounting runs on the compiled activity engine, with no
    /// event-driven simulation alongside the serving path.
    power_toggles: Vec<u64>,
    /// Clock edges charged to the accumulator (per batch, shared by all
    /// lanes of that batch).
    power_cycles: u64,
    /// Operations measured through the accumulator.
    power_ops: u64,
    /// Windowed pJ/op tracer over the accumulator; mirrors each tick's
    /// window into the `service.pj_per_op` gauge.
    power_trace: LivePowerTrace,
}

impl<'a> Service<'a> {
    /// Builds the service over a netlist: an engine pool plus the
    /// service's own compiled batch simulator and reference unit.
    /// Registers its metrics (and the engine's) on `registry`.
    pub fn new(
        netlist: &'a Netlist,
        ports: &StructuralPorts,
        cfg: ServiceConfig,
        registry: &Registry,
    ) -> Self {
        let mut engine = Engine::new(netlist, ports, cfg.units.max(1), cfg.engine);
        engine.attach_telemetry(registry);
        let prog = netlist.compiled().expect("service netlist must be acyclic");
        let lat_bounds: Vec<f64> = (0..12).map(|i| (1u64 << i) as f64).collect();
        let fill_bounds: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0, 128.0, 256.0];
        let phase_bounds: Vec<f64> = (0..9).map(|i| 4f64.powi(i)).collect();
        let phase_micros = Phase::ALL
            .iter()
            .map(|p| {
                registry.histogram_with(
                    &format!("service.phase_micros.{}", p.label()),
                    &phase_bounds,
                )
            })
            .collect();
        let metrics = ServiceMetrics {
            accepted: registry.counter("service.accepted"),
            answered: registry.counter("service.answered"),
            shed: registry.counter("service.shed"),
            deadline_exceeded: registry.counter("service.deadline_exceeded"),
            malformed: registry.counter("service.malformed"),
            check_failures: registry.counter("service.check_failures"),
            rescues: registry.counter("service.rescues"),
            speculative: registry.counter("service.speculative_checks"),
            votes: registry.counter("service.tmr_votes"),
            vote_mismatches: registry.counter("service.tmr_vote_mismatches"),
            dmr_batches: registry.counter("service.dmr_batches"),
            tier: registry.gauge("service.tier"),
            pending: registry.gauge("service.pending"),
            latency_ticks: registry.histogram_with("service.latency_ticks", &lat_bounds),
            batch_fill: registry.histogram_with("service.batch_fill", &fill_bounds),
            phase_micros,
        };
        // The pool holds the active units *plus* any cold spares.
        let units_built = engine.unit_count();
        Service {
            engine,
            ports: ports.clone(),
            sim: CompiledSim::new(prog),
            reference: FunctionalUnit::new(),
            battery: scrub_battery(cfg.engine.quad_lanes),
            queues: HashMap::new(),
            rescue: VecDeque::new(),
            in_engine: HashMap::new(),
            backoffs: HashMap::new(),
            batch_cursor: 0,
            responses: Vec::new(),
            metrics,
            answered: 0,
            shed: 0,
            escape_guard_failures: 0,
            minter: TraceMinter::new(cfg.seed ^ 0x7261_6365_5F69_6421),
            traces: TraceRing::new(TRACE_RING_CAP),
            flight: FlightRecorder::new(FLIGHT_RING_CAP, INCIDENT_MIN_GAP_TICKS),
            incidents: Vec::new(),
            awaiting_write_back: BTreeMap::new(),
            last_tier: Tier::Normal,
            seen_watchdog: vec![0; units_built],
            seen_transitions: vec![0; units_built],
            tmr_until: 0,
            votes: 0,
            vote_mismatches: 0,
            dmr_batches: 0,
            seen_masked: 0,
            seen_dmr_mismatches: 0,
            power_toggles: vec![0; netlist.net_count()],
            power_cycles: 0,
            power_ops: 0,
            power_trace: LivePowerTrace::from_counts(netlist, &vec![0; netlist.net_count()], 0)
                .with_gauge(registry.gauge("service.pj_per_op")),
            cfg,
        }
    }

    /// Current tick (the engine's clock).
    pub fn now(&self) -> u64 {
        self.engine.now()
    }

    /// Requests admitted but not yet answered.
    pub fn backlog(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum::<usize>()
            + self.rescue.len()
            + self.in_engine.len()
    }

    /// The degradation tier the *next* admission decision will use.
    pub fn tier(&self) -> Tier {
        let cap = self.cfg.pending_cap.max(1);
        let load = self.backlog();
        if load * 10 >= cap * 9 {
            Tier::Shed
        } else if load * 4 >= cap * 3 {
            Tier::SingleFormat
        } else if load * 2 >= cap {
            Tier::ShedSpeculative
        } else {
            Tier::Normal
        }
    }

    /// Requests answered with a checked `Ok` so far.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// Requests refused with `Overloaded` so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Wrong answers that reached a response. The service's invariant is
    /// that this stays zero: the batch path answers only cross-checked
    /// lanes and the engine path is escape-checked internally.
    pub fn escapes(&self) -> u64 {
        self.engine.escapes() + self.escape_guard_failures
    }

    /// The pool engine (chaos hooks, health inspection).
    pub fn engine_mut(&mut self) -> &mut Engine<'a> {
        &mut self.engine
    }

    /// TMR votes held on batch lanes so far.
    pub fn votes(&self) -> u64 {
        self.votes
    }

    /// Votes where at least one replica disagreed with the majority.
    pub fn vote_mismatches(&self) -> u64 {
        self.vote_mismatches
    }

    /// Whether the post-escape TMR recovery window is currently open.
    pub fn tmr_window_active(&self) -> bool {
        self.engine.now() < self.tmr_until
    }

    /// Admission control for one well-formed request from `client`,
    /// minting a fresh trace id. See [`Service::admit_traced`].
    pub fn admit(&mut self, client: u64, req: &Request) -> Option<Response> {
        let trace = self.minter.mint();
        self.admit_traced(client, req, trace)
    }

    /// Admission control for one well-formed request from `client`
    /// carrying a trace id minted at frame decode. Returns `None` when
    /// admitted (the response is produced by a later [`Service::tick`])
    /// or `Some` with the immediate typed refusal.
    pub fn admit_traced(&mut self, client: u64, req: &Request, trace: TraceId) -> Option<Response> {
        if self.tier() == Tier::Shed {
            self.shed += 1;
            self.metrics.shed.inc();
            let backlog = self.backlog() as u32;
            self.flight.record(FlightEvent {
                tick: self.engine.now(),
                trace: Some(trace.as_u64()),
                kind: "shed",
                detail: format!("client {client} id {} refused at backlog {backlog}", req.id),
            });
            let retry_ticks = self.overload_retry_ticks(client);
            return Some(Response::Overloaded {
                id: req.id,
                retry_after_micros: retry_ticks.saturating_mul(self.cfg.micros_per_tick),
                queued: backlog,
            });
        }
        // Admission resets the client's consecutive-rejection escalation.
        if let Some(b) = self.backoffs.get_mut(&client) {
            b.reset();
        }
        let deadline_ticks = if req.deadline_micros == 0 {
            self.cfg.default_deadline_ticks
        } else {
            (req.deadline_micros as u64)
                .div_ceil(self.cfg.micros_per_tick.max(1))
                .max(1)
        };
        let pending = PendingReq {
            client,
            id: req.id,
            op: req.op,
            deadline: self.engine.now() + deadline_ticks,
            deadline_micros: req.deadline_micros,
            arrived: self.engine.now(),
            trace,
            spans: PhaseSpans::default(),
            rescued_at: 0,
            critical: req.critical,
        };
        self.queues
            .entry(req.op.format)
            .or_default()
            .push_back(pending);
        self.metrics.accepted.inc();
        None
    }

    /// The typed response for a malformed frame from `client` (`id` is
    /// the salvaged correlation id, 0 when unreadable).
    pub fn reject_malformed(&mut self, _client: u64, id: u64, code: u8) -> Response {
        self.metrics.malformed.inc();
        Response::Malformed { id, code }
    }

    /// Forgets a client's backoff state (connection closed).
    pub fn forget_client(&mut self, client: u64) {
        self.backoffs.remove(&client);
    }

    /// Drains the responses produced since the last call, as
    /// `(client, response)` pairs in production order.
    pub fn take_responses(&mut self) -> Vec<(u64, Response)> {
        self.take_responses_traced()
            .into_iter()
            .map(|(client, resp, _)| (client, resp))
            .collect()
    }

    /// Like [`Service::take_responses`] but keeps each response's trace
    /// id so the front-end can report write-back timing through
    /// [`Service::note_write_back`].
    pub fn take_responses_traced(&mut self) -> Vec<(u64, Response, TraceId)> {
        std::mem::take(&mut self.responses)
    }

    /// Reports the transport write-back duration for a response drained
    /// via [`Service::take_responses_traced`]; completes that trace's
    /// record with its final span. Unreported records self-complete on
    /// the next tick with a zero write-back span.
    pub fn note_write_back(&mut self, trace: TraceId, micros: u64) {
        if let Some(mut rec) = self.awaiting_write_back.remove(&trace.as_u64()) {
            rec.spans.add(Phase::WriteBack, micros);
            rec.total_micros = rec.total_micros.saturating_add(micros);
            self.finish_record(rec);
        }
    }

    /// Drains the incident reports produced since the last call.
    pub fn take_incidents(&mut self) -> Vec<String> {
        std::mem::take(&mut self.incidents)
    }

    /// The `/healthz` payload: liveness plus the one invariant that
    /// matters (zero escapes).
    pub fn healthz_json(&self) -> String {
        format!(
            "{{\"status\":\"{}\",\"tick\":{},\"tier\":\"{}\",\"escapes\":{}}}",
            if self.escapes() == 0 { "ok" } else { "failing" },
            self.engine.now(),
            self.tier().label(),
            self.escapes()
        )
    }

    /// The `/statusz` payload: degradation tier, per-format queue
    /// depths, per-unit breaker states and the flight-recorder gauges.
    pub fn statusz_json(&self) -> String {
        let mut queues: Vec<(&str, usize)> = self
            .queues
            .iter()
            .map(|(f, q)| (f.label(), q.len()))
            .collect();
        queues.sort_by_key(|&(label, _)| label);
        let queues_json: Vec<String> = queues
            .iter()
            .map(|(label, depth)| format!("\"{label}\":{depth}"))
            .collect();
        let units_json: Vec<String> = (0..self.engine.unit_count())
            .map(|i| {
                format!(
                    "{{\"unit\":{i},\"state\":\"{}\",\"watchdog_trips\":{},\"transitions\":{}}}",
                    self.engine.unit_state(i).label(),
                    self.engine.watchdog_trips(i),
                    self.engine.transitions_logged(i)
                )
            })
            .collect();
        let (patrol_slices, patrol_failures) = self.engine.patrol_stats();
        format!(
            "{{\"tick\":{},\"tier\":\"{}\",\"backlog\":{},\"pending_cap\":{},\
             \"queues\":{{{}}},\"rescue_depth\":{},\"in_engine\":{},\
             \"answered\":{},\"shed\":{},\"units\":[{}],\
             \"redundancy\":{{\"votes\":{},\"vote_mismatches\":{},\"dmr_batches\":{},\
             \"dmr_shadows\":{},\"dmr_mismatches\":{},\"masked\":{},\"promotions\":{},\
             \"spares_available\":{},\"hw_capacity\":{},\"patrol_slices\":{},\
             \"patrol_failures\":{},\"tmr_window_active\":{}}},\
             \"flight\":{{\"events\":{},\"dropped\":{},\"incidents\":{}}}}}",
            self.engine.now(),
            self.tier().label(),
            self.backlog(),
            self.cfg.pending_cap,
            queues_json.join(","),
            self.rescue.len(),
            self.in_engine.len(),
            self.answered,
            self.shed,
            units_json.join(","),
            self.votes,
            self.vote_mismatches,
            self.dmr_batches,
            self.engine.dmr_shadows(),
            self.engine.dmr_mismatches(),
            self.engine.masked(),
            self.engine.promotions(),
            self.engine.spares_available(),
            self.engine.hw_capacity(),
            patrol_slices,
            patrol_failures,
            self.tmr_window_active(),
            self.flight.len(),
            self.flight.dropped(),
            self.flight.incidents_emitted(),
        )
    }

    /// The `/tracez` payload: the slowest recent traces with per-phase
    /// breakdowns.
    pub fn tracez_json(&self) -> String {
        self.traces.tracez_json(16)
    }

    /// Escalating retry hint for one shed request: the client's own
    /// deterministic jittered backoff (consecutive rejections widen the
    /// window; any admission resets it), floored by the engine's
    /// capacity-timeline drain estimate so the hint never promises a
    /// slot sooner than the pool can plausibly free one.
    fn overload_retry_ticks(&mut self, client: u64) -> u64 {
        let seed = self.cfg.seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = self
            .backoffs
            .entry(client)
            .or_insert_with(|| SubmitBackoff::new(self.cfg.backoff, seed));
        let delay = b.next_delay().unwrap_or(self.cfg.backoff.max_ticks);
        delay.max(self.engine.retry_after_hint())
    }

    /// One scheduling round: engine tick (scrubs, rescue dispatch,
    /// breaker time), engine completion/expiry harvest, front-end
    /// deadline sweep, rescue resubmission, the batch pass for this
    /// tick's tier, and the speculative self-check.
    pub fn tick(&mut self) {
        self.flush_unacked_records();
        self.engine.tick();
        self.observe_engine_health();
        self.note_caught_escapes();
        self.harvest_engine();
        self.expire_stale();
        self.pump_rescue();
        let tier = self.tier();
        self.run_batches(tier);
        if tier == Tier::Normal
            && self.cfg.speculative_every > 0
            && self.engine.now().is_multiple_of(self.cfg.speculative_every)
        {
            self.speculative_check();
        }
        self.note_tier_change();
        self.metrics.tier.set(self.tier().level() as f64);
        self.metrics.pending.set(self.backlog() as f64);
        // Close this tick's power window from the compiled-toggle
        // accumulator (no-op when no batch ran since the last tick).
        self.power_trace
            .sample_counts(&self.power_toggles, self.power_cycles, self.power_ops);
    }

    /// Completes records whose write-back the front-end never reported
    /// (in-process callers, dropped connections).
    fn flush_unacked_records(&mut self) {
        let pending = std::mem::take(&mut self.awaiting_write_back);
        for (_, rec) in pending {
            self.finish_record(rec);
        }
    }

    /// Observes each finalized record's phase spans and retires it into
    /// the `/tracez` ring.
    fn finish_record(&mut self, rec: TraceRecord) {
        for (idx, &p) in Phase::ALL.iter().enumerate() {
            let v = rec.spans.get(p);
            if v > 0 {
                self.metrics.phase_micros[idx].observe(v as f64);
            }
        }
        self.traces.push(rec);
    }

    /// Opens (or extends) the TMR recovery window when the redundancy
    /// layer caught a would-be escape since the last tick — a masked
    /// engine result or a DMR shadow mismatch. For the next
    /// [`TMR_RECOVERY_TICKS`] every batch lane is voted, critical or
    /// not.
    fn note_caught_escapes(&mut self) {
        let masked = self.engine.masked();
        let dmr = self.engine.dmr_mismatches();
        if masked > self.seen_masked || dmr > self.seen_dmr_mismatches {
            self.open_tmr_window("engine caught a would-be escape");
        }
        self.seen_masked = masked;
        self.seen_dmr_mismatches = dmr;
    }

    fn open_tmr_window(&mut self, why: &str) {
        let now = self.engine.now();
        let until = now + TMR_RECOVERY_TICKS;
        if until > self.tmr_until {
            self.flight.record(FlightEvent {
                tick: now,
                trace: None,
                kind: "tmr_window",
                detail: format!("{why}; voting every lane until tick {until}"),
            });
            self.tmr_until = until;
        }
    }

    /// Forwards new breaker transitions and watchdog trips from the
    /// engine into the flight recorder; a fresh watchdog trip raises an
    /// incident. Transition watermarks are kept against the tracker's
    /// monotone logged total, so eviction from the bounded trail never
    /// replays or skips events.
    fn observe_engine_health(&mut self) {
        let now = self.engine.now();
        for i in 0..self.engine.unit_count() {
            let logged = self.engine.transitions_logged(i);
            let fresh = logged.saturating_sub(self.seen_transitions[i]);
            let transitions = self.engine.transitions(i);
            let tail = (fresh as usize).min(transitions.len());
            for tr in &transitions[transitions.len() - tail..] {
                self.flight.record(FlightEvent {
                    tick: now,
                    trace: tr.trace,
                    kind: "breaker_transition",
                    detail: tr.to_json(),
                });
            }
            self.seen_transitions[i] = logged;
            let trips = self.engine.watchdog_trips(i);
            if trips > self.seen_watchdog[i] {
                self.flight.record(FlightEvent {
                    tick: now,
                    trace: None,
                    kind: "watchdog_trip",
                    detail: format!("unit {i} trips {trips}"),
                });
                let context = format!("{{\"unit\":{i},\"trips\":{trips}}}");
                if let Some(report) =
                    self.flight
                        .incident(IncidentTrigger::WatchdogTrip, now, None, &context)
                {
                    self.incidents.push(report);
                }
                self.seen_watchdog[i] = trips;
            }
        }
    }

    /// Records tier movement; escalation into `Shed` raises an incident.
    fn note_tier_change(&mut self) {
        let now_tier = self.tier();
        if now_tier != self.last_tier {
            let tick = self.engine.now();
            self.flight.record(FlightEvent {
                tick,
                trace: None,
                kind: "tier_change",
                detail: format!("{} -> {}", self.last_tier.label(), now_tier.label()),
            });
            if now_tier == Tier::Shed && self.last_tier < Tier::Shed {
                let context = format!(
                    "{{\"from\":\"{}\",\"to\":\"shed\",\"backlog\":{}}}",
                    self.last_tier.label(),
                    self.backlog()
                );
                if let Some(report) =
                    self.flight
                        .incident(IncidentTrigger::ShedEscalation, tick, None, &context)
                {
                    self.incidents.push(report);
                }
            }
            self.last_tier = now_tier;
        }
    }

    /// Turns engine completions and expirations into responses. A
    /// completed rescue closes its trace's rescue span and raises an
    /// `engine_rescue` incident so the whole path is reconstructable.
    fn harvest_engine(&mut self) {
        let now = self.engine.now();
        for done in self.engine.take_completed() {
            if let Some(mut p) = self.in_engine.remove(&done.id) {
                p.spans.add(
                    Phase::Rescue,
                    now.saturating_sub(p.rescued_at)
                        .saturating_mul(self.cfg.micros_per_tick),
                );
                self.flight.record(FlightEvent {
                    tick: now,
                    trace: Some(p.trace.as_u64()),
                    kind: "rescue_completed",
                    detail: format!("engine id {} request {}", done.id, p.id),
                });
                let context = format!(
                    "{{\"request_id\":{},\"engine_id\":{},\"rescue_micros\":{}}}",
                    p.id,
                    done.id,
                    p.spans.get(Phase::Rescue)
                );
                if let Some(report) = self.flight.incident(
                    IncidentTrigger::EngineRescue,
                    now,
                    Some(p.trace.as_u64()),
                    &context,
                ) {
                    self.incidents.push(report);
                }
                self.answer_checked(p, done.result);
            }
        }
        for exp in self.engine.take_expired() {
            if let Some(p) = self.in_engine.remove(&exp.id) {
                self.push_deadline_exceeded(p);
            }
        }
    }

    /// Emits the `Ok` for a request served by the engine path. The
    /// engine already escape-checked the result; this keeps its own
    /// belt-and-braces comparison so a service bug can never downgrade
    /// the invariant silently.
    fn answer_checked(&mut self, p: PendingReq, result: mfmult::MultResult) {
        let want = self.reference.execute(p.op);
        if !results_agree(&result, &want) {
            // The engine substitutes the checked fallback before
            // delivery, so this should be unreachable; if it ever fires
            // we answer from the reference, count the guard, and vote
            // everything for a recovery window.
            self.escape_guard_failures += 1;
            self.open_tmr_window("escape guard fired on an engine result");
            self.push_ok(p, &want);
            return;
        }
        self.push_ok(p, &result);
    }

    fn push_ok(&mut self, p: PendingReq, result: &mfmult::MultResult) {
        self.answered += 1;
        self.metrics.answered.inc();
        let lat_ticks = self.engine.now().saturating_sub(p.arrived);
        // The latency exemplar links a scrape's p99 bucket to a trace.
        self.metrics
            .latency_ticks
            .observe_exemplar(lat_ticks as f64, p.trace.as_u64());
        let queue_micros = p
            .spans
            .get(Phase::QueueWait)
            .saturating_add(p.spans.get(Phase::Rescue))
            .min(u32::MAX as u64) as u32;
        let exec_micros = p
            .spans
            .get(Phase::BatchFill)
            .saturating_add(p.spans.get(Phase::CompiledEval))
            .saturating_add(p.spans.get(Phase::Verify))
            .min(u32::MAX as u64) as u32;
        self.responses.push((
            p.client,
            Response::from_result(p.id, result, queue_micros, exec_micros),
            p.trace,
        ));
        self.open_record(p, if p.rescued_at > 0 { "rescued" } else { "ok" });
    }

    fn push_deadline_exceeded(&mut self, p: PendingReq) {
        self.metrics.deadline_exceeded.inc();
        self.flight.record(FlightEvent {
            tick: self.engine.now(),
            trace: Some(p.trace.as_u64()),
            kind: "deadline_exceeded",
            detail: format!("request {} client {}", p.id, p.client),
        });
        self.responses.push((
            p.client,
            Response::DeadlineExceeded {
                id: p.id,
                deadline_micros: p.deadline_micros,
            },
            p.trace,
        ));
        self.open_record(p, "deadline");
    }

    /// Opens a trace record awaiting the front-end's write-back report;
    /// it self-completes on the next tick if none arrives.
    fn open_record(&mut self, p: PendingReq, outcome: &'static str) {
        let now = self.engine.now();
        let rec = TraceRecord {
            trace: p.trace,
            request_id: p.id,
            tick_admitted: p.arrived,
            tick_done: now,
            total_micros: now
                .saturating_sub(p.arrived)
                .saturating_mul(self.cfg.micros_per_tick),
            spans: p.spans,
            outcome,
        };
        self.awaiting_write_back.insert(p.trace.as_u64(), rec);
    }

    /// Cancels every queued request whose deadline has passed — they
    /// never reach a batch lane or the engine.
    fn expire_stale(&mut self) {
        let now = self.engine.now();
        let mut expired = Vec::new();
        for q in self.queues.values_mut() {
            let mut kept = VecDeque::with_capacity(q.len());
            for p in q.drain(..) {
                if p.deadline < now {
                    expired.push(p);
                } else {
                    kept.push_back(p);
                }
            }
            *q = kept;
        }
        let mut kept = VecDeque::with_capacity(self.rescue.len());
        for p in self.rescue.drain(..) {
            if p.deadline < now {
                expired.push(p);
            } else {
                kept.push_back(p);
            }
        }
        self.rescue = kept;
        for p in expired {
            self.push_deadline_exceeded(p);
        }
    }

    /// Resubmits rescued lanes through the engine's event-driven path,
    /// respecting its bounded queue (a full queue retries next tick —
    /// the deadline sweep bounds how long a rescue can wait).
    fn pump_rescue(&mut self) {
        while let Some(p) = self.rescue.front().copied() {
            match self
                .engine
                .submit_traced(p.op, Some(p.deadline), Some(p.trace))
            {
                Ok(engine_id) => {
                    self.rescue.pop_front();
                    self.flight.record(FlightEvent {
                        tick: self.engine.now(),
                        trace: Some(p.trace.as_u64()),
                        kind: "rescue_submitted",
                        detail: format!("request {} engine id {engine_id}", p.id),
                    });
                    self.in_engine.insert(engine_id, p);
                }
                Err(_busy) => break,
            }
        }
    }

    /// Pool units the batch path may route through right now.
    fn batch_units(&self) -> Vec<usize> {
        (0..self.engine.unit_count())
            .filter(|&i| {
                self.engine.unit_state(i).is_hw_capacity() && !self.engine.unit(i).is_degraded()
            })
            .collect()
    }

    /// Runs this tick's batch passes. In `Normal`/`ShedSpeculative` each
    /// pass fills up to [`LANES`] lanes from every non-empty format queue
    /// (the unit takes its format per lane), and a tick runs at most one
    /// pass per queue that was non-empty when it began. `SingleFormat`
    /// runs one pass from the deepest queue only.
    fn run_batches(&mut self, tier: Tier) {
        let mut formats: Vec<(Format, usize)> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&f, q)| (f, q.len()))
            .collect();
        // Deterministic order: deepest first, label breaks ties.
        formats.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.label().cmp(b.0.label())));
        if tier >= Tier::SingleFormat {
            formats.truncate(1);
        }
        for _ in 0..formats.len() {
            let mut batch: Vec<PendingReq> = Vec::with_capacity(LANES);
            for (format, _) in &formats {
                let q = self.queues.get_mut(format).expect("non-empty queue");
                let n = q.len().min(LANES - batch.len());
                batch.extend(q.drain(..n));
            }
            if batch.is_empty() {
                break;
            }
            self.run_one_batch(&batch);
        }
    }

    /// Executes up to [`LANES`] lanes, of any formats, through the compiled
    /// bit-parallel engine under one pool unit's fault overlay. Every
    /// lane is self-checked (`check_raw`) *and* cross-checked against
    /// the bit-exact reference before it may answer; a failing lane is
    /// rescued through the engine, and the outcome — clean or not — is
    /// fed back into the routed unit's circuit breaker.
    fn run_one_batch(&mut self, batch: &[PendingReq]) {
        if batch.is_empty() {
            return;
        }
        self.metrics.batch_fill.observe(batch.len() as f64);
        let now = self.engine.now();
        let mpt = self.cfg.micros_per_tick;
        let queue_micros = move |p: &PendingReq| now.saturating_sub(p.arrived).saturating_mul(mpt);
        let units = self.batch_units();
        let unit = if units.is_empty() {
            None
        } else {
            let u = units[self.batch_cursor % units.len()];
            self.batch_cursor = self.batch_cursor.wrapping_add(1);
            Some(u)
        };
        let Some(unit) = unit else {
            // No healthy hardware lane: route everything through the
            // engine, whose retired-fallback service still answers.
            for &p in batch {
                let mut p = p;
                p.spans.add(Phase::QueueWait, queue_micros(&p));
                p.rescued_at = now;
                self.metrics.rescues.inc();
                self.rescue.push_back(p);
            }
            self.flight.record(FlightEvent {
                tick: now,
                trace: None,
                kind: "no_healthy_unit",
                detail: format!("{} lanes routed to engine rescue", batch.len()),
            });
            return;
        };
        // Batch-fill: the routed unit's fault overlay plus the activity
        // re-arm. Wall time annotates spans only — never scheduling.
        let t_fill = Instant::now();
        let ops: Vec<Operation> = batch.iter().map(|p| p.op).collect();
        self.sim
            .arm_overlay(&self.engine.unit(unit).sim().stuck_faults());
        // Count this batch's zero-delay toggles in the occupied lanes
        // only, from the fault-free power-on state: the power gauge
        // rides on the same evaluation pass.
        self.sim.rearm_activity(batch.len());
        let fill_micros = t_fill.elapsed().as_micros() as u64;
        let t_eval = Instant::now();
        let raws = run_raw_compiled(&mut self.sim, &self.ports, &ops);
        let eval_micros = t_eval.elapsed().as_micros() as u64;
        for (sum, &t) in self.power_toggles.iter_mut().zip(self.sim.toggles()) {
            *sum += t;
        }
        self.power_cycles += self.sim.cycles();
        self.power_ops += batch.len() as u64;
        // A Byzantine output latch corrupts results *after* the compiled
        // eval produced its self-checkable raw image: flagged lanes get
        // the armed pattern XORed into the high product word downstream
        // of `check_raw`, exactly like the engine's dispatch path.
        let byz = self.engine.byzantine_lane_mask(unit, batch.len());
        let byz_pattern = self.engine.byzantine_pattern(unit);
        let t_verify = Instant::now();
        // Redundant-lane batching: a lane is voted when its request is
        // critical, when the post-escape recovery window is open, or
        // when the whole batch routed through a Suspect unit
        // (DMR-on-suspicion).
        let dmr_batch = self.engine.unit_state(unit) == HealthState::Suspect;
        if dmr_batch {
            self.dmr_batches += 1;
            self.metrics.dmr_batches.inc();
        }
        let vote_all = dmr_batch || now < self.tmr_until;
        let replicas = if vote_all || batch.iter().any(|p| p.critical) {
            self.run_replicas(unit, &units, &ops)
        } else {
            Vec::new()
        };
        let mut incidents = 0u32;
        let mut verified: Vec<(PendingReq, Option<mfmult::MultResult>)> =
            Vec::with_capacity(batch.len());
        for (idx, (&p, raw)) in batch.iter().zip(&raws).enumerate() {
            let mut p = p;
            p.spans.add(Phase::QueueWait, queue_micros(&p));
            p.spans.add(Phase::BatchFill, fill_micros);
            p.spans.add(Phase::CompiledEval, eval_micros);
            let mut got = check_raw(p.op, raw).ok().map(|()| {
                let mut r = result_from_raw(p.op, raw);
                if byz[idx / 64] >> (idx % 64) & 1 == 1 {
                    r.ph ^= byz_pattern;
                }
                r
            });
            let want = self.reference.execute(p.op);
            if (p.critical || vote_all) && !replicas.is_empty() {
                got = self.vote_lane(&p, idx, unit, got, &replicas, &want, &mut incidents, now);
            }
            let ok = got.filter(|g| results_agree(g, &want));
            verified.push((p, ok));
        }
        // The whole batch shares one verification pass; every lane
        // experienced its full duration.
        let verify_micros = t_verify.elapsed().as_micros() as u64;
        for (mut p, outcome) in verified {
            p.spans.add(Phase::Verify, verify_micros);
            match outcome {
                Some(got) => self.push_ok(p, &got),
                None => {
                    // Residue check or reference cross-check failed: the
                    // lane is poisoned. Never answer from it — rescue
                    // through the event-driven path and charge the
                    // routed unit.
                    incidents += 1;
                    self.metrics.check_failures.inc();
                    self.metrics.rescues.inc();
                    self.flight.record(FlightEvent {
                        tick: now,
                        trace: Some(p.trace.as_u64()),
                        kind: "check_failure",
                        detail: format!(
                            "unit {unit} request {} format {}",
                            p.id,
                            p.op.format.label()
                        ),
                    });
                    let context = format!(
                        "{{\"unit\":{unit},\"request_id\":{},\"format\":\"{}\"}}",
                        p.id,
                        p.op.format.label()
                    );
                    if let Some(report) = self.flight.incident(
                        IncidentTrigger::VerifyMismatch,
                        now,
                        Some(p.trace.as_u64()),
                        &context,
                    ) {
                        self.incidents.push(report);
                    }
                    p.rescued_at = now;
                    self.rescue.push_back(p);
                }
            }
        }
        self.engine.note_external_service_traced(
            unit,
            incidents,
            (incidents > 0)
                .then(|| self.rescue.back().map(|p| p.trace))
                .flatten(),
        );
    }

    /// Executes the batch's operations under up to two additional
    /// units' fault overlays, returning per-replica lane results
    /// (`None` where the replica's own self-check failed). A Byzantine
    /// latch armed on a replica corrupts its results the same way the
    /// primary's does, so no single faulty unit can sway a vote
    /// undetected.
    fn run_replicas(
        &mut self,
        primary: usize,
        units: &[usize],
        ops: &[Operation],
    ) -> Vec<(usize, Vec<Option<mfmult::MultResult>>)> {
        let mut out = Vec::new();
        for &ru in units.iter().filter(|&&u| u != primary).take(2) {
            self.sim
                .arm_overlay(&self.engine.unit(ru).sim().stuck_faults());
            let raws = run_raw_compiled(&mut self.sim, &self.ports, ops);
            let byz = self.engine.byzantine_lane_mask(ru, ops.len());
            let pattern = self.engine.byzantine_pattern(ru);
            let results = ops
                .iter()
                .zip(&raws)
                .enumerate()
                .map(|(k, (&op, raw))| {
                    check_raw(op, raw).ok().map(|()| {
                        let mut r = result_from_raw(op, raw);
                        if byz[k / 64] >> (k % 64) & 1 == 1 {
                            r.ph ^= pattern;
                        }
                        r
                    })
                })
                .collect();
            out.push((ru, results));
        }
        out
    }

    /// Holds the vote for one redundant lane: the primary's result plus
    /// each replica's, majority wins, and the softfloat-backed reference
    /// breaks ties. Outvoted replicas are charged to their unit's
    /// breaker (the primary through this batch's aggregate incident
    /// count) and every vote leaves a flight-recorder event.
    #[allow(clippy::too_many_arguments)]
    fn vote_lane(
        &mut self,
        p: &PendingReq,
        idx: usize,
        unit: usize,
        primary: Option<mfmult::MultResult>,
        replicas: &[(usize, Vec<Option<mfmult::MultResult>>)],
        want: &mfmult::MultResult,
        incidents: &mut u32,
        now: u64,
    ) -> Option<mfmult::MultResult> {
        self.votes += 1;
        self.metrics.votes.inc();
        let mut ballots: Vec<(usize, Option<mfmult::MultResult>)> = vec![(unit, primary)];
        for (ru, res) in replicas {
            ballots.push((*ru, res[idx]));
        }
        let mut winner = None;
        for (_, cand) in &ballots {
            if let Some(c) = cand {
                let agree = ballots
                    .iter()
                    .filter(|(_, o)| o.as_ref().is_some_and(|v| results_agree(v, c)))
                    .count();
                if agree * 2 > ballots.len() {
                    winner = Some(*c);
                    break;
                }
            }
        }
        let tiebreak = winner.is_none();
        let winner = winner.unwrap_or(*want);
        let mut outvoted = 0u32;
        for (bu, cand) in &ballots {
            if cand.as_ref().is_some_and(|v| results_agree(v, &winner)) {
                continue;
            }
            outvoted += 1;
            if *bu == unit {
                *incidents += 1;
            } else {
                self.engine
                    .note_external_service_traced(*bu, 1, Some(p.trace));
            }
        }
        if outvoted > 0 || tiebreak {
            self.vote_mismatches += 1;
            self.metrics.vote_mismatches.inc();
            self.open_tmr_window("a replica lost a TMR vote");
        }
        self.flight.record(FlightEvent {
            tick: now,
            trace: Some(p.trace.as_u64()),
            kind: "tmr_vote",
            detail: format!(
                "request {} lane {idx} ballots {} outvoted {outvoted}{}",
                p.id,
                ballots.len(),
                if tiebreak { " tiebreak=reference" } else { "" }
            ),
        });
        Some(winner)
    }

    /// Speculative self-check: replays a sliding sample of the scrub
    /// battery through the next batch unit's overlay, charging failures
    /// to its breaker *before* client lanes hit the fault. This is the
    /// first work shed under load (`ShedSpeculative`).
    fn speculative_check(&mut self) {
        let units = self.batch_units();
        if units.is_empty() {
            return;
        }
        let unit = units[self.batch_cursor % units.len()];
        let window = 8usize.min(self.battery.len());
        let start = (self.engine.now() as usize).wrapping_mul(window) % self.battery.len();
        let sample: Vec<Operation> = (0..window)
            .map(|k| self.battery[(start + k) % self.battery.len()])
            .collect();
        self.sim
            .arm_overlay(&self.engine.unit(unit).sim().stuck_faults());
        let raws = run_raw_compiled(&mut self.sim, &self.ports, &sample);
        let incidents = sample
            .iter()
            .zip(&raws)
            .filter(|(&op, raw)| check_raw(op, raw).is_err())
            .count() as u32;
        self.metrics.speculative.inc();
        self.engine.note_external_service(unit, incidents);
    }
}

/// Result agreement under the hardware flag mask (the flag bus carries
/// no inexact wire, exactly like the engine's escape check).
fn results_agree(got: &mfmult::MultResult, want: &mfmult::MultResult) -> bool {
    let hw = Flags::INVALID | Flags::OVERFLOW | Flags::UNDERFLOW;
    got.ph == want.ph
        && got.pl == want.pl
        && got.flags_lo.bits() & hw.bits() == want.flags_lo.bits() & hw.bits()
        && got.flags_hi.bits() & hw.bits() == want.flags_hi.bits() & hw.bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfm_gatesim::tech::TechLibrary;
    use mfm_resilient::health::BreakerConfig;
    use mfmult::structural::build_unit;

    fn build() -> (Netlist, StructuralPorts) {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        (n, ports)
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            seed: 11,
            units: 2,
            pending_cap: 16,
            micros_per_tick: 100,
            default_deadline_ticks: 50,
            speculative_every: 4,
            engine: EngineConfig {
                queue_depth: 8,
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
            },
            backoff: BackoffConfig {
                base_ticks: 2,
                factor: 2,
                max_ticks: 32,
                max_retries: u32::MAX,
            },
        }
    }

    fn req(id: u64, op: Operation) -> Request {
        Request {
            id,
            op,
            deadline_micros: 0,
            critical: false,
        }
    }

    #[test]
    fn admitted_requests_are_answered_with_checked_results() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, small_cfg(), &reg);
        for k in 0..10u64 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 1, 7))).is_none());
        }
        for _ in 0..6 {
            svc.tick();
        }
        let out = svc.take_responses();
        assert_eq!(out.len(), 10);
        for (client, resp) in out {
            assert_eq!(client, 1);
            match resp {
                Response::Ok { id, ph, pl, .. } => {
                    let want = (id + 1) as u128 * 7;
                    assert_eq!(((ph as u128) << 64) | pl as u128, want);
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        assert_eq!(svc.escapes(), 0);
        assert_eq!(reg.counter("service.answered").get(), 10);
        // The power gauge rode along on the compiled batch evaluations:
        // no event-driven simulation ran, yet pJ/op is live.
        assert!(
            reg.gauge("service.pj_per_op").get() > 0.0,
            "compiled-toggle power gauge never sampled"
        );
    }

    /// One request per paper format, all admitted before the first tick.
    fn mixed_ops() -> [Operation; 4] {
        [
            Operation::int64(3, 5),
            Operation::binary64_from_f64(1.5, 2.0),
            Operation::dual_binary32_from_f32(1.0, 2.0, 3.0, 0.5),
            Operation::single_binary32_from_f32(4.0, 0.25),
        ]
    }

    fn admit_mixed(svc: &mut Service<'_>) {
        for (k, op) in mixed_ops().into_iter().enumerate() {
            assert!(svc.admit(k as u64, &req(k as u64, op)).is_none());
        }
    }

    #[test]
    fn mixed_formats_share_one_batch_and_all_answer() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, small_cfg(), &reg);
        admit_mixed(&mut svc);
        for _ in 0..4 {
            svc.tick();
        }
        let out = svc.take_responses();
        assert_eq!(out.len(), 4, "every format answered: {out:?}");
        assert!(out.iter().all(|(_, r)| matches!(r, Response::Ok { .. })));
        assert_eq!(
            reg.histogram("service.batch_fill").count(),
            1,
            "four formats, one pass"
        );
        assert_eq!(svc.escapes(), 0);
    }

    #[test]
    fn mixed_batch_power_equals_per_format_runs_on_fresh_sims() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, small_cfg(), &reg);
        admit_mixed(&mut svc);
        svc.tick();
        assert_eq!(reg.histogram("service.batch_fill").count(), 1);
        let prog = n.compiled().unwrap();
        let mut want = vec![0u64; n.net_count()];
        for op in mixed_ops() {
            let mut sim = CompiledSim::new(prog);
            sim.enable_activity(1);
            run_raw_compiled(&mut sim, &ports, &[op]);
            for (w, &t) in want.iter_mut().zip(sim.toggles()) {
                *w += t;
            }
        }
        assert!(want.iter().any(|&t| t > 0));
        assert_eq!(svc.power_toggles, want);
        assert_eq!(svc.power_ops, 4);
    }

    #[test]
    fn fault_injected_after_a_clean_batch_is_seen_by_the_next_batch() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 1;
        cfg.speculative_every = 0;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // The first batch arms the service's simulator with unit 0's
        // clean overlay.
        for k in 0..4u64 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 1, 2))).is_none());
        }
        svc.tick();
        assert_eq!(svc.take_responses().len(), 4);
        assert_eq!(reg.counter("service.check_failures").get(), 0);
        // Even products keep bit 0 of the low word at 0: stuck at 1, the
        // fault shows in every lane.
        svc.engine_mut().inject_stuck_at(0, ports.pl[0], true, true);
        for k in 4..8u64 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 1, 2))).is_none());
        }
        svc.tick();
        assert_eq!(
            reg.counter("service.check_failures").get(),
            4,
            "every lane of the next batch ran under the new overlay"
        );
        assert_eq!(reg.counter("service.rescues").get(), 4);
        for _ in 0..40 {
            svc.tick();
        }
        let out = svc.take_responses();
        assert_eq!(out.len(), 4, "every rescued lane answered: {out:?}");
        for (_, r) in &out {
            match r {
                Response::Ok { id, ph, pl, .. } => {
                    let want = (*id + 1) as u128 * 2;
                    assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
                }
                other => panic!("expected a rescued Ok, got {other:?}"),
            }
        }
        assert_eq!(svc.escapes(), 0);
    }

    #[test]
    fn overload_sheds_with_escalating_typed_retry_hints() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.pending_cap = 10;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Fill to the shed threshold (90 % of 10 = 9) without ticking.
        let mut shed_hints = Vec::new();
        for k in 0..30u64 {
            if let Some(resp) = svc.admit(7, &req(k, Operation::int64(k, 3))) {
                match resp {
                    Response::Overloaded {
                        id,
                        retry_after_micros,
                        queued,
                    } => {
                        assert_eq!(id, k);
                        assert!(queued >= 9, "shed at ≥90% backlog, queued {queued}");
                        shed_hints.push(retry_after_micros);
                    }
                    other => panic!("expected Overloaded, got {other:?}"),
                }
            }
        }
        assert!(shed_hints.len() >= 20, "everything past the cap was shed");
        assert!(
            shed_hints.iter().all(|&h| h >= cfg.micros_per_tick),
            "hints are at least one tick: {shed_hints:?}"
        );
        // Consecutive rejections escalate: the late hints' window is
        // wider than the first hint's.
        let last = *shed_hints.last().unwrap();
        assert!(
            last >= shed_hints[0],
            "backoff escalates across consecutive rejections: {shed_hints:?}"
        );
        assert_eq!(svc.shed(), shed_hints.len() as u64);
        assert_eq!(reg.counter("service.shed").get(), shed_hints.len() as u64);
        // The admitted work still drains and answers.
        for _ in 0..12 {
            svc.tick();
        }
        let ok = svc
            .take_responses()
            .iter()
            .filter(|(_, r)| matches!(r, Response::Ok { .. }))
            .count();
        assert_eq!(ok, 9, "admitted requests all answered");
    }

    #[test]
    fn degradation_ladder_walks_the_tiers() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.pending_cap = 20;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        assert_eq!(svc.tier(), Tier::Normal);
        let mut k = 0u64;
        let mut fill = |svc: &mut Service<'_>, upto: usize| {
            while svc.backlog() < upto {
                assert!(svc.admit(1, &req(k, Operation::int64(k, 2))).is_none());
                k += 1;
            }
        };
        fill(&mut svc, 10);
        assert_eq!(
            svc.tier(),
            Tier::ShedSpeculative,
            "50% sheds speculative work"
        );
        fill(&mut svc, 15);
        assert_eq!(
            svc.tier(),
            Tier::SingleFormat,
            "75% degrades to single-format"
        );
        fill(&mut svc, 18);
        assert_eq!(svc.tier(), Tier::Shed, "90% refuses new work");
        assert!(svc.admit(1, &req(999, Operation::int64(1, 1))).is_some());
    }

    #[test]
    fn stale_requests_get_typed_deadline_responses_and_never_run() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        // One unit; the cap is sized so the burst below lands in the
        // SingleFormat tier (admitted, but only the deepest format
        // batches) without ever reaching the Shed tier.
        cfg.units = 1;
        cfg.pending_cap = 90;
        cfg.micros_per_tick = 100;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Deadline of 100 µs = 1 tick: expires before its batch turn if
        // queued behind a burst.
        let mut doomed = Request {
            id: 500,
            op: Operation::int64(9, 9),
            deadline_micros: 100,
            critical: false,
        };
        // Occupy the single-format batch with 64+ lanes so the doomed
        // request (different format) waits a tick.
        for k in 0..70u64 {
            let _ = svc.admit(1, &req(k, Operation::int64(k, 2)));
        }
        doomed.op = Operation::binary64_from_f64(2.0, 4.0);
        assert!(svc.admit(2, &doomed).is_none());
        for _ in 0..8 {
            svc.tick();
        }
        let out = svc.take_responses();
        let exceeded: Vec<_> = out
            .iter()
            .filter(|(c, r)| *c == 2 && matches!(r, Response::DeadlineExceeded { .. }))
            .collect();
        assert_eq!(exceeded.len(), 1, "doomed request expired typed: {out:?}");
        match exceeded[0].1 {
            Response::DeadlineExceeded {
                id,
                deadline_micros,
            } => {
                assert_eq!(id, 500);
                assert_eq!(deadline_micros, 100);
            }
            _ => unreachable!(),
        }
        assert!(
            !out.iter()
                .any(|(c, r)| *c == 2 && matches!(r, Response::Ok { .. })),
            "an expired request is never also answered"
        );
        assert_eq!(reg.counter("service.deadline_exceeded").get(), 1);
    }

    #[test]
    fn poisoned_unit_lanes_are_rescued_not_answered_wrong() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 2;
        cfg.speculative_every = 0; // only client lanes feed the breaker
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Poison unit 0's hardware with a sticky output fault: batches
        // routed through its overlay fail their checks.
        let victim = ports.chk_p0[0];
        svc.engine_mut().inject_stuck_at(0, victim, true, true);
        let mut admitted = 0usize;
        // Even products keep bit 0 of p0 at 0, so the stuck-at-true
        // fault is observable on every lane routed through unit 0.
        for k in 0..40u64 {
            if svc.admit(1, &req(k, Operation::int64(k + 1, 2))).is_none() {
                admitted += 1;
            }
            svc.tick();
        }
        for _ in 0..60 {
            svc.tick();
        }
        let out = svc.take_responses();
        let ok = out
            .iter()
            .filter(|(_, r)| matches!(r, Response::Ok { .. }))
            .count();
        let exceeded = out
            .iter()
            .filter(|(_, r)| matches!(r, Response::DeadlineExceeded { .. }))
            .count();
        assert!(
            admitted >= 30,
            "most of the trickle was admitted: {admitted}"
        );
        assert_eq!(
            ok + exceeded,
            admitted,
            "every admitted request got a typed outcome"
        );
        // Every Ok is bit-correct (the cross-check guarantees it).
        for (_, r) in &out {
            if let Response::Ok { id, ph, pl, .. } = r {
                let want = (*id + 1) as u128 * 2;
                assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
            }
        }
        assert_eq!(svc.escapes(), 0, "zero escapes under a poisoned unit");
        assert!(
            reg.counter("service.check_failures").get() > 0,
            "the poisoned lanes were caught"
        );
        assert!(
            reg.counter("service.rescues").get() > 0,
            "caught lanes were rescued through the engine"
        );
    }

    #[test]
    fn traces_flow_from_admission_to_tracez_with_phase_spans() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, small_cfg(), &reg);
        for k in 0..6u64 {
            let trace = TraceId::from_raw(0xAA00 + k);
            assert!(svc
                .admit_traced(1, &req(k, Operation::int64(k + 2, 9)), trace)
                .is_none());
        }
        for _ in 0..4 {
            svc.tick();
        }
        let out = svc.take_responses_traced();
        assert_eq!(out.len(), 6);
        for (_, resp, trace) in &out {
            assert!(trace.as_u64() >= 0xAA00, "trace rides to the response");
            match resp {
                Response::Ok { exec_micros, .. } => {
                    // Wall-clock annotated: non-deterministic but the
                    // batch must have taken *some* time.
                    assert!(*exec_micros > 0, "exec span annotated");
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        // Report write-back for one trace; the rest self-complete on
        // the next tick.
        svc.note_write_back(out[0].2, 42);
        svc.tick();
        let tz = svc.tracez_json();
        mfm_telemetry::json::check(&tz).unwrap();
        assert!(tz.contains("\"trace_id\":\"000000000000aa00\""), "{tz}");
        assert!(tz.contains("\"compiled_eval\":"), "phase breakdown: {tz}");
        // The latency histogram carries a trace-id exemplar.
        let prom = reg.prometheus();
        assert!(prom.contains("# {trace_id="), "exemplar rendered: {prom}");
        // Phase histograms registered and fed.
        assert!(
            prom.contains("service_phase_micros_compiled_eval"),
            "{prom}"
        );
        // The endpoint payloads are well-formed.
        mfm_telemetry::json::check(&svc.healthz_json()).unwrap();
        mfm_telemetry::json::check(&svc.statusz_json()).unwrap();
        assert!(svc.healthz_json().contains("\"status\":\"ok\""));
        assert!(svc.statusz_json().contains("\"tier\":\"normal\""));
    }

    #[test]
    fn poisoned_unit_raises_incidents_that_reconstruct_the_rescue_path() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 2;
        cfg.speculative_every = 0;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        let victim = ports.chk_p0[0];
        svc.engine_mut().inject_stuck_at(0, victim, true, true);
        for k in 0..40u64 {
            let trace = TraceId::from_raw(0xBB00 + k);
            let _ = svc.admit_traced(1, &req(k, Operation::int64(k + 1, 2)), trace);
            svc.tick();
        }
        for _ in 0..60 {
            svc.tick();
        }
        let incidents = svc.take_incidents();
        assert!(
            !incidents.is_empty(),
            "a poisoned unit must raise at least one incident"
        );
        let verify = incidents
            .iter()
            .find(|r| r.contains("\"trigger\":\"verify_mismatch\""))
            .expect("a verify_mismatch incident fired");
        mfm_telemetry::json::check(verify).unwrap();
        assert!(
            verify.contains("\"trace_id\":\"000000000000bb"),
            "the incident names the offending trace: {verify}"
        );
        assert!(
            verify.contains("check_failure"),
            "the event ring reconstructs the failure: {verify}"
        );
        // A completed rescue links back to the originating trace too.
        if let Some(rescue) = incidents
            .iter()
            .find(|r| r.contains("\"trigger\":\"engine_rescue\""))
        {
            assert!(rescue.contains("rescue_submitted"), "{rescue}");
            assert!(rescue.contains("\"rescue_micros\":"), "{rescue}");
        }
        // Breaker transitions observed by the flight recorder carry the
        // trace of the offending request into /statusz accounting.
        let sz = svc.statusz_json();
        assert!(sz.contains("\"incidents\":"), "{sz}");
    }

    #[test]
    fn critical_requests_vote_and_a_byzantine_unit_is_outvoted() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 3;
        cfg.speculative_every = 0;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // A Byzantine output latch on unit 0: every 2nd served result is
        // corrupted *after* its self-checks, so only the vote can see it.
        svc.engine_mut().inject_byzantine(0, 2, 1 << 17);
        for k in 0..24u64 {
            let mut r = req(k, Operation::int64(k + 1, 6));
            r.critical = true;
            assert!(svc.admit(1, &r).is_none());
            svc.tick();
        }
        for _ in 0..20 {
            svc.tick();
        }
        let out = svc.take_responses();
        let mut answered = 0;
        for (_, r) in &out {
            if let Response::Ok { id, ph, pl, .. } = r {
                let want = (*id + 1) as u128 * 6;
                assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
                answered += 1;
            }
        }
        assert!(answered >= 20, "critical traffic answered: {answered}");
        assert_eq!(svc.escapes(), 0, "the corrupted replicas never escaped");
        assert!(svc.votes() > 0, "critical lanes were voted");
        assert!(
            svc.vote_mismatches() > 0,
            "the byzantine replica lost votes"
        );
        assert!(
            reg.counter("service.tmr_votes").get() >= svc.votes(),
            "votes are scrapeable"
        );
        // The lost votes charged unit 0's breaker out of Healthy. The
        // fault is scrub-clean, so the unit may have already cycled
        // through quarantine and a passing scrub back to Healthy —
        // judge the transition log, not the momentary state.
        assert!(
            svc.engine_mut().transitions_logged(0) > 0,
            "unit 0's breaker was charged"
        );
        assert!(
            svc.engine_mut()
                .transitions(0)
                .iter()
                .any(|t| t.from == HealthState::Healthy && t.to == HealthState::Suspect),
            "the byzantine unit left Healthy at least once"
        );
        let sz = svc.statusz_json();
        mfm_telemetry::json::check(&sz).unwrap();
        assert!(sz.contains("\"redundancy\":{"), "{sz}");
        assert!(sz.contains("\"votes\":"), "{sz}");
        assert!(sz.contains("\"tmr_window_active\":"), "{sz}");
    }

    #[test]
    fn recovery_window_votes_every_lane_after_a_caught_escape() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 3;
        cfg.speculative_every = 0;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        assert!(!svc.tmr_window_active());
        // A byzantine latch that trips on non-critical traffic: the
        // first corrupted batch lane loses its reference cross-check,
        // gets rescued, and the engine's masking vote (on the rescue
        // path) opens the recovery window; from then on even plain
        // lanes are voted.
        svc.engine_mut().inject_byzantine(0, 2, 1 << 9);
        for k in 0..30u64 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 1, 4))).is_none());
            svc.tick();
        }
        for _ in 0..30 {
            svc.tick();
        }
        assert_eq!(svc.escapes(), 0);
        assert!(
            svc.votes() > 0,
            "plain lanes were voted once the window opened"
        );
        let out = svc.take_responses();
        for (_, r) in &out {
            if let Response::Ok { id, ph, pl, .. } = r {
                let want = (*id + 1) as u128 * 4;
                assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
            }
        }
    }

    #[test]
    fn speculative_checks_quarantine_a_poisoned_unit_early() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 2;
        cfg.speculative_every = 1;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        let victim = ports.chk_p0[0];
        svc.engine_mut().inject_stuck_at(0, victim, true, true);
        // No client traffic at all: the speculative battery sampling
        // alone must drive the poisoned unit out of rotation.
        for _ in 0..16 {
            svc.tick();
        }
        use mfm_resilient::health::HealthState;
        assert_ne!(
            svc.engine_mut().unit_state(0),
            HealthState::Healthy,
            "speculative checks caught the fault without client exposure"
        );
        assert!(reg.counter("service.speculative_checks").get() > 0);
    }
}
