//! The deterministic service core: admission control, degradation
//! tiers, deadline bookkeeping, batches of up to 256 requests executed
//! on 64-lane compiled passes under the circuit-breaker pool's fault
//! overlays, and typed responses for everything.
//!
//! The core is tick-driven — no scheduling decision samples a wall
//! clock — so it is testable (and replayable) without sockets; the TCP
//! front-end in
//! [`crate::server`] owns one instance on its service thread and calls
//! [`Service::tick`] on a fixed cadence, translating microseconds to
//! ticks with its configured tick length.
//!
//! # The overload ladder
//!
//! Load is the front-end backlog over its capacity. Rather than one
//! accept/refuse cliff, the service degrades in tiers, narrowing its
//! batches before it sheds anyone's requests:
//!
//! | tier | backlog | behaviour |
//! |---|---|---|
//! | `Normal` | < 75 % | batch every format |
//! | `SingleFormat` | < 90 % | batch only the deepest format queue per tick |
//! | `Shed` | ≥ 90 % | refuse new work with typed `Overloaded` |
//!
//! Nothing is ever dropped silently: a shed request gets `Overloaded`
//! with a retry hint from the client's own deterministic backoff
//! escalated by consecutive rejections, a stale request gets
//! `DeadlineExceeded`, a bad frame gets `Malformed`, and every admitted
//! request that reaches a batch is answered `Ok` in that batch's tick.
//!
//! # One verdict per served lane
//!
//! The unit's flag bus carries only invalid/overflow/underflow, so every
//! served lane is judged the same way: its raw image must pass
//! `check_raw` (residue and invariant checks) *and* its product words
//! plus masked flags must agree with the bit-exact [`FunctionalUnit`]
//! (`MultResult::agrees_hw`). The batch pass computes that reference
//! once per operation. A lane that passes is answered from the
//! hardware; a lane that fails is answered in the same tick from the
//! reference, its unit is charged, and the failure is counted
//! (`service.check_failures`, `service.rescues`), recorded in the flight
//! ring and raised as a `verify_mismatch` incident. A batch with no
//! healthy unit to route through is answered from the reference too.
//!
//! # Adaptive redundancy
//!
//! A request carrying the wire-v3 `critical` flag is also replicated
//! across up to two more units' fault overlays. Each replica's lane is a
//! ballot judged by the same verdict, and every failing ballot charges
//! its unit's breaker. The answer never depends on the replicas — the
//! reference already decides it — so what voting buys is *detection*:
//! it exercises units the batch was not routed through, and finds their
//! faults before live traffic does. The same voting engages for a whole
//! batch when its routed unit is `Suspect` (DMR-on-suspicion) and for
//! every lane during a recovery window opened by any ballot that passed
//! its self-check yet disagreed with the reference (a would-be escape).
//! Byzantine output-latch faults armed on the engine corrupt batch lanes
//! *after* their self-checks — the fault class only the reference
//! comparison catches.
//!
//! The service is the engine's only client: the engine keeps each
//! unit's fault record and supplies its overlay, breaker, scrubs, spares
//! and patrol slices, and every lane runs in the service's passes. A chaos
//! single-event upset forces its net on the victim unit's lanes of the
//! next pass that carries any (a batch spilling past one pass keeps it
//! for all of them), and then leaves the overlay ([`Engine::end_pass`]).
//!
//! # One compiled pass per tick
//!
//! A pass over the compiled netlist costs about the same however few of
//! its lanes carry work, so a tick packs all of its compiled work into
//! one lane-partitioned pass ([`LaneSim::arm_overlays`]), laid out in
//! this order:
//!
//! | lanes | overlay | judged by |
//! |---|---|---|
//! | `0..n`: the batch | the routed unit's | the verdict; answers clients |
//! | one copy of the batch per TMR replica | that replica's | the verdict; a ballot |
//! | the engine's patrol slice | the patrolled unit's | `check_raw`; [`Engine::finish_patrol`] |
//!
//! The service's simulator is 64 lanes wide (`PASS_WORDS` chunk per
//! net, a quarter of the 256-lane [`mfm_gatesim::CompiledSim`] words):
//! a clean tick carries a client lane or two and an 8-lane patrol
//! slice, and every pass walks the whole word array, so the narrow word
//! is what a tick costs. Work spills into further passes only when the
//! lanes overflow 64 (a deep batch, replica copies of a voted batch, or
//! a tick that drains more than one batch).
//! A batch still takes up to 256 requests: it just spans up to four
//! passes. That makes a full batch cost about twice the one 256-lane
//! pass it would take at width 4, and a full voted batch 13 passes
//! instead of 4; the served loads rarely come near (under the chaos load
//! fewer than 1 % of ticks spill, and none past two passes). Toggles are counted over the batch lanes only, each pass that
//! holds some counting its batch prefix from the power-on state, so the
//! power gauge sees client lanes alone, equal at any width (toggle
//! counts are lane-separable); a pass with no batch lanes counts none,
//! and a batch's clock edges are charged once.
//! The batch is routed before the tick's patrol verdict lands:
//! [`Engine::take_patrol`] hands the slice over after the engine's tick,
//! and its verdict is landed once the pass has run.
//!
//! Scrubs and spare activations are the exception. [`Engine::tick`]
//! hands each one to the service, which replays the battery under the
//! unit's repaired overlay in a pass of its own on the same simulator,
//! before the tick's batch, so the verdict lands before the batch is
//! routed. A clean tick has no scrub. Scrub passes count no toggles.
//! `service.passes` and
//! `service.pass_lanes.{batch,replica,patrol,scrub}` count
//! every pass on the simulator and what filled them, and `/statusz`
//! shows passes per tick.
//!
//! # Tracing and the flight recorder
//!
//! Every admitted request carries a [`TraceId`] (minted at frame decode
//! by the front-end, or internally for in-process callers) through the
//! batch path and the verdict. The service accumulates per-phase spans
//! (queue-wait, batch-fill, compiled-eval, verify, write-back) into a
//! [`TraceRecord`] that lands in a fixed-size [`TraceRing`] served by
//! `/tracez`. Scheduling decisions stay tick-driven and wall-clock-free;
//! only the span *annotations* sample a monotonic clock — queue wait
//! from an admission stamp to the start of the batch's pass, then the
//! execution phases — so the answers remain deterministic while latency
//! attribution is real.
//!
//! A bounded [`FlightRecorder`] keeps the most recent structured events
//! (check failures, votes, tier changes, breaker transitions) and
//! snapshots them into a self-contained JSON incident report when a
//! verification mismatch or a shed-tier escalation fires — drain
//! reports with [`Service::take_incidents`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use mfm_gatesim::{lane_range, LaneSim, LivePowerTrace, NetId, Netlist, LANES};
use mfm_resilient::backoff::{BackoffConfig, SubmitBackoff};
use mfm_resilient::{Engine, EngineConfig, HealthState};
use mfm_telemetry::{
    Counter, FlightEvent, FlightRecorder, Gauge, Histogram, IncidentTrigger, Phase, PhaseSpans,
    Registry, TraceId, TraceMinter, TraceRecord, TraceRing,
};
use mfmult::selfcheck::{check_raw, result_from_raw, run_raw_compiled, RawOutputs};
use mfmult::structural::StructuralPorts;
use mfmult::{Format, FunctionalUnit, MultResult, Operation};

use crate::wire::{Request, Response};

/// Degradation tier the service is currently operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full service: every format batched.
    Normal,
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
            Tier::SingleFormat => "single_format",
            Tier::Shed => "shed",
        }
    }

    /// Numeric encoding exported on the `service.tier` gauge.
    pub const fn level(self) -> u32 {
        match self {
            Tier::Normal => 0,
            Tier::SingleFormat => 1,
            Tier::Shed => 2,
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
    /// answered, across all format queues).
    pub pending_cap: usize,
    /// Microseconds one service tick represents — converts request
    /// deadlines and retry hints between wire time and tick time.
    pub micros_per_tick: u64,
    /// Deadline applied to requests that carry none (`0` on the wire),
    /// in ticks from admission.
    pub default_deadline_ticks: u64,
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

/// `u64` chunks per net in the service's compiled passes: 64 lanes, the
/// width a tick's work fills (see the module docs).
const PASS_WORDS: usize = 1;
/// Completed traces retained for `/tracez`.
const TRACE_RING_CAP: usize = 256;
/// Flight-recorder event ring capacity.
const FLIGHT_RING_CAP: usize = 128;
/// Minimum ticks between incident reports of the same trigger kind.
const INCIDENT_MIN_GAP_TICKS: u64 = 32;
/// Ticks the TMR voting tier stays engaged for *every* lane after any
/// ballot passed its self-check yet disagreed with the reference.
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
    /// Wall-clock admission stamp: queue wait is measured from it.
    admitted_at: Instant,
    /// End-to-end trace id minted at decode (or admission).
    trace: TraceId,
    /// Per-phase latency attribution accumulated as the request moves.
    spans: PhaseSpans,
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
    /// `pool.escapes`: the zero-escape contract's scrapeable witness.
    escapes: Counter,
    votes: Counter,
    vote_mismatches: Counter,
    dmr_batches: Counter,
    /// Compiled passes run, and the lanes each [`Role`] filled in them.
    passes: Counter,
    pass_lanes: [Counter; 4],
    tier: Gauge,
    pending: Gauge,
    latency_ticks: Histogram,
    batch_fill: Histogram,
    /// One histogram per [`Phase`], indexed by phase order in
    /// [`Phase::ALL`]; fed when a trace record is finalized.
    phase_micros: Vec<Histogram>,
}

/// The service core (see the module docs). Borrows the netlist; one
/// instance per serving thread.
pub struct Service<'a> {
    cfg: ServiceConfig,
    engine: Engine,
    ports: StructuralPorts,
    /// One settled simulator over the netlist's compiled program for
    /// each tick's packed pass — batch, TMR replicas and patrol slice
    /// side by side in one 64-lane word — and for the engine's scrubs,
    /// re-armed only when the pass's overlay plan changes.
    sim: LaneSim<'a, PASS_WORDS>,
    reference: FunctionalUnit,
    /// Per-format admission queues; one batch takes up to [`LANES`]
    /// (256) requests across all of them.
    queues: HashMap<Format, VecDeque<PendingReq>>,
    /// Per-client consecutive-rejection backoff state.
    backoffs: HashMap<u64, SubmitBackoff>,
    /// Round-robin cursor over pool units for batch routing.
    batch_cursor: usize,
    responses: Vec<(u64, Response, TraceId)>,
    metrics: ServiceMetrics,
    answered: u64,
    shed: u64,
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
    /// Per-unit watermark of breaker transitions already forwarded to
    /// the flight recorder, measured against the tracker's *monotone
    /// logged total* (the in-memory trail is a bounded ring).
    seen_transitions: Vec<u64>,
    /// Tick the post-escape TMR recovery window runs until (exclusive).
    tmr_until: u64,
    /// TMR votes held so far.
    votes: u64,
    /// Votes where at least one ballot failed the verdict.
    vote_mismatches: u64,
    /// Batches escalated to whole-batch voting because their routed
    /// unit was `Suspect` (DMR-on-suspicion).
    dmr_batches: u64,
    /// Toggles, clock edges and operations of every batch evaluated.
    power: PowerTally,
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
        let mut engine = Engine::new(cfg.units.max(1), cfg.engine);
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
            escapes: registry.counter("pool.escapes"),
            votes: registry.counter("service.tmr_votes"),
            vote_mismatches: registry.counter("service.tmr_vote_mismatches"),
            dmr_batches: registry.counter("service.dmr_batches"),
            passes: registry.counter("service.passes"),
            pass_lanes: Role::ALL
                .map(|role| registry.counter(&format!("service.pass_lanes.{}", role.label()))),
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
            sim: LaneSim::new(prog),
            reference: FunctionalUnit::new(),
            queues: HashMap::new(),
            backoffs: HashMap::new(),
            batch_cursor: 0,
            responses: Vec::new(),
            metrics,
            answered: 0,
            shed: 0,
            minter: TraceMinter::new(cfg.seed ^ 0x7261_6365_5F69_6421),
            traces: TraceRing::new(TRACE_RING_CAP),
            flight: FlightRecorder::new(FLIGHT_RING_CAP, INCIDENT_MIN_GAP_TICKS),
            incidents: Vec::new(),
            awaiting_write_back: BTreeMap::new(),
            last_tier: Tier::Normal,
            seen_transitions: vec![0; units_built],
            tmr_until: 0,
            votes: 0,
            vote_mismatches: 0,
            dmr_batches: 0,
            power: PowerTally::new(netlist.net_count()),
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
        self.queues.values().map(|q| q.len()).sum()
    }

    /// The degradation tier the *next* admission decision will use.
    pub fn tier(&self) -> Tier {
        let cap = self.cfg.pending_cap.max(1);
        let load = self.backlog();
        if load * 10 >= cap * 9 {
            Tier::Shed
        } else if load * 4 >= cap * 3 {
            Tier::SingleFormat
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

    /// Wrong answers that reached a response, read from the
    /// `pool.escapes` witness. Zero by construction: every `Ok` either
    /// passed the verdict against the reference or is the reference.
    pub fn escapes(&self) -> u64 {
        self.metrics.escapes.get()
    }

    /// The pool engine (health inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The pool engine (chaos hooks).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// TMR votes held on batch lanes so far.
    pub fn votes(&self) -> u64 {
        self.votes
    }

    /// Votes where at least one ballot failed the verdict.
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
            admitted_at: Instant::now(),
            trace,
            spans: PhaseSpans::default(),
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
    /// depths, per-unit breaker states, compiled passes (total, per tick
    /// and lanes by role) and the flight-recorder gauges.
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
                    "{{\"unit\":{i},\"state\":\"{}\",\"transitions\":{}}}",
                    self.engine.unit_state(i).label(),
                    self.engine.transitions_logged(i)
                )
            })
            .collect();
        let (patrol_slices, patrol_failures) = self.engine.patrol_stats();
        let passes = self.metrics.passes.get();
        let pass_lanes: Vec<String> = Role::ALL
            .iter()
            .zip(&self.metrics.pass_lanes)
            .map(|(role, lanes)| format!("\"{}\":{}", role.label(), lanes.get()))
            .collect();
        format!(
            "{{\"tick\":{},\"tier\":\"{}\",\"backlog\":{},\"pending_cap\":{},\
             \"queues\":{{{}}},\"answered\":{},\"shed\":{},\"units\":[{}],\
             \"redundancy\":{{\"votes\":{},\"vote_mismatches\":{},\"dmr_batches\":{},\
             \"promotions\":{},\"spares_available\":{},\"hw_capacity\":{},\"patrol_slices\":{},\
             \"patrol_failures\":{},\"tmr_window_active\":{}}},\
             \"passes\":{{\"total\":{},\"per_tick\":{:.3},\"lanes\":{{{}}}}},\
             \"flight\":{{\"events\":{},\"dropped\":{},\"incidents\":{}}}}}",
            self.engine.now(),
            self.tier().label(),
            self.backlog(),
            self.cfg.pending_cap,
            queues_json.join(","),
            self.answered,
            self.shed,
            units_json.join(","),
            self.votes,
            self.vote_mismatches,
            self.dmr_batches,
            self.engine.promotions(),
            self.engine.spares_available(),
            self.engine.hw_capacity(),
            patrol_slices,
            patrol_failures,
            self.tmr_window_active(),
            passes,
            passes as f64 / self.engine.now().max(1) as f64,
            pass_lanes.join(","),
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
    /// window; any admission resets it), at least one tick.
    fn overload_retry_ticks(&mut self, client: u64) -> u64 {
        let seed = self.cfg.seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = self
            .backoffs
            .entry(client)
            .or_insert_with(|| SubmitBackoff::new(self.cfg.backoff, seed));
        // The jitter can draw 0; a hint never asks for an immediate retry.
        b.next_delay().unwrap_or(self.cfg.backoff.max_ticks).max(1)
    }

    /// One scheduling round: engine tick (breaker time, scrubs and spare
    /// activations, each in a pass of its own), front-end deadline
    /// sweep, then this tick's compiled work — the batch for this tier,
    /// its TMR replicas and the engine's patrol slice — packed into one
    /// pass (see the module docs).
    pub fn tick(&mut self) {
        self.flush_unacked_records();
        self.engine.tick(|faults, battery| {
            run_scrub(
                &mut self.sim,
                &self.ports,
                &mut self.power,
                &self.metrics,
                faults,
                battery,
            )
        });
        self.forward_transitions();
        self.expire_stale();
        let patrol = self.engine.take_patrol();
        self.run_batches(self.tier(), patrol);
        self.note_tier_change();
        self.metrics.tier.set(self.tier().level() as f64);
        self.metrics.pending.set(self.backlog() as f64);
        // Close the power window once a batch has run since the last
        // sample. The tally never decreases, so the trace never rebases
        // and its last sample ends at the ops it last saw; on a tick with
        // no new ops, `sample_counts` would return `None` and change
        // nothing, so the scan over every net is skipped.
        let sampled = self.power_trace.last_sample().map_or(0, |s| s.ops_end);
        if self.power.ops != sampled {
            self.power_trace
                .sample_counts(&self.power.toggles, self.power.cycles, self.power.ops);
        }
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

    /// Opens (or extends) the TMR recovery window: for the next
    /// [`TMR_RECOVERY_TICKS`] every batch lane is voted, critical or
    /// not.
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

    /// Forwards new breaker transitions from the engine into the flight
    /// recorder. Watermarks are kept against the tracker's monotone
    /// logged total, so eviction from the bounded trail never replays or
    /// skips events.
    fn forward_transitions(&mut self) {
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

    /// Answers `p` with `result`; `outcome` labels its trace record
    /// (`ok` from the hardware, `rescued` from the reference).
    fn push_ok(&mut self, p: PendingReq, result: &MultResult, outcome: &'static str) {
        self.answered += 1;
        self.metrics.answered.inc();
        let lat_ticks = self.engine.now().saturating_sub(p.arrived);
        // The latency exemplar links a scrape's p99 bucket to a trace.
        self.metrics
            .latency_ticks
            .observe_exemplar(lat_ticks as f64, p.trace.as_u64());
        let queue_micros = p.spans.get(Phase::QueueWait).min(u32::MAX as u64) as u32;
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
        self.open_record(p, outcome);
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
    /// never reach a batch lane.
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
        for p in expired {
            self.push_deadline_exceeded(p);
        }
    }

    /// Pool units the batch path may route through right now.
    fn batch_units(&self) -> Vec<usize> {
        (0..self.engine.unit_count())
            .filter(|&i| self.engine.unit_state(i).is_hw_capacity())
            .collect()
    }

    /// Runs this tick's batches. In `Normal` each batch takes up to
    /// [`LANES`] requests from every non-empty format queue (the unit
    /// takes its format per lane), and a tick runs at most one batch per
    /// queue that was non-empty when it began. `SingleFormat` runs one
    /// batch from the deepest queue only. The `patrol` slice shares the
    /// last batch's passes, or runs alone when no batch does.
    fn run_batches(&mut self, tier: Tier, patrol: Option<(usize, Vec<Operation>)>) {
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
        let mut batches: Vec<Vec<PendingReq>> = Vec::new();
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
            batches.push(batch);
        }
        let last = batches.pop().unwrap_or_default();
        for batch in &batches {
            self.run_pass(batch, None);
        }
        self.run_pass(&last, patrol);
    }

    /// Runs one batch of up to [`LANES`] requests, of any formats, and the
    /// work riding with it as packed compiled passes (one unless the
    /// lanes overflow 64): the batch under
    /// the routed unit's fault overlay, its TMR replica copies under the
    /// replica units' overlays and the patrol slice under the patrolled
    /// unit's.
    /// Every batch lane is answered in this tick: from the hardware when
    /// it passes the verdict, from the reference when it fails. Failing
    /// lanes are charged to the routed unit's circuit breaker, and a
    /// clean batch is a heal credit.
    fn run_pass(&mut self, batch: &[PendingReq], patrol: Option<(usize, Vec<Operation>)>) {
        // Queue wait ends here. Wall time annotates spans only — never
        // scheduling.
        let t_fill = Instant::now();
        let now = self.engine.now();
        let mut units = self.batch_units();
        let mut routed = None;
        if !batch.is_empty() {
            self.metrics.batch_fill.observe(batch.len() as f64);
            routed = units.get(self.batch_cursor % units.len().max(1)).copied();
            if routed.is_some() {
                self.batch_cursor = self.batch_cursor.wrapping_add(1);
            } else {
                self.answer_from_reference(batch, t_fill);
            }
        }
        let ops: Vec<Operation> = batch.iter().map(|p| p.op).collect();
        let mut segments = Vec::new();
        let mut vote_all = false;
        if let Some(unit) = routed {
            segments.push(Segment {
                role: Role::Batch,
                unit,
                ops: ops.clone(),
            });
            // Redundant-lane batching: a lane is voted when its request
            // is critical, when the post-escape recovery window is open,
            // or when the whole batch routed through a Suspect unit
            // (DMR-on-suspicion).
            let dmr_batch = self.engine.unit_state(unit) == HealthState::Suspect;
            if dmr_batch {
                self.dmr_batches += 1;
                self.metrics.dmr_batches.inc();
            }
            vote_all = dmr_batch || now < self.tmr_until;
            if vote_all || batch.iter().any(|p| p.critical) {
                // Up to two other healthy units cast the replica ballots.
                units.retain(|&u| u != unit);
                units.truncate(2);
                for &ru in &units {
                    segments.push(Segment {
                        role: Role::Replica,
                        unit: ru,
                        ops: ops.clone(),
                    });
                }
            }
        }
        if let Some((unit, slice)) = patrol {
            segments.push(Segment {
                role: Role::Patrol,
                unit,
                ops: slice,
            });
        }
        let (raws, fill_micros, eval_micros) = self.run_packed(&segments);
        let mut batch_raws = Vec::new();
        let mut replicas = Vec::new();
        for (seg, raws) in segments.into_iter().zip(raws) {
            match seg.role {
                Role::Batch => batch_raws = raws,
                Role::Replica => replicas.push((seg.unit, raws)),
                // Verdicts land in the order the breakers saw the work:
                // patrol, then the batch.
                Role::Patrol => self
                    .engine
                    .finish_patrol(seg.unit, all_pass(&seg.ops, &raws)),
                Role::Scrub => unreachable!("scrubs run in passes of their own"),
            }
        }
        if let Some(unit) = routed {
            let spans = [
                (Phase::BatchFill, fill_micros),
                (Phase::CompiledEval, eval_micros),
            ];
            self.answer_batch(
                unit,
                batch,
                &ops,
                &batch_raws,
                &replicas,
                vote_all,
                t_fill,
                spans,
            );
        }
    }

    /// Runs `segments` through the service's simulator ([`run_passes`])
    /// under each segment unit's fault overlay, ends the pass on every
    /// unit it carried, and counts the passes and the lanes each role
    /// filled. Returns every segment's raw outputs with the wall time
    /// spent arming (batch fill) and evaluating.
    fn run_packed(&mut self, segments: &[Segment]) -> (Vec<Vec<RawOutputs>>, u64, u64) {
        let faults: Vec<Vec<(NetId, bool)>> = segments
            .iter()
            .map(|seg| self.engine.overlay(seg.unit))
            .collect();
        let laid: Vec<Laid<'_>> = segments
            .iter()
            .zip(&faults)
            .map(|(seg, faults)| (&seg.ops[..], &faults[..]))
            .collect();
        let batch = segments
            .first()
            .filter(|seg| seg.role == Role::Batch)
            .map_or(0, |seg| seg.ops.len());
        let run = run_passes(&mut self.sim, &self.ports, &laid, batch, &mut self.power);
        self.metrics.passes.add(run.passes);
        for seg in segments {
            self.engine.end_pass(seg.unit);
            self.metrics.pass_lanes[seg.role as usize].add(seg.ops.len() as u64);
        }
        (run.raws, run.fill_micros, run.eval_micros)
    }

    /// Answers a batch that found no healthy unit to route through from
    /// the reference.
    fn answer_from_reference(&mut self, batch: &[PendingReq], t_fill: Instant) {
        for mut p in batch.iter().copied() {
            p.spans.add(Phase::QueueWait, queue_micros(&p, t_fill));
            self.metrics.rescues.inc();
            let want = self.reference.execute(p.op);
            self.push_ok(p, &want, "rescued");
        }
        self.flight.record(FlightEvent {
            tick: self.engine.now(),
            trace: None,
            kind: "no_healthy_unit",
            detail: format!("{} lanes answered from the reference", batch.len()),
        });
    }

    /// Judges the routed unit's batch lanes (`raws`) and the replicas'
    /// ballots against the reference, holds the votes, and answers every
    /// lane. `spans` are the pass's batch-fill and compiled-eval times,
    /// which every lane experienced in full.
    #[allow(clippy::too_many_arguments)]
    fn answer_batch(
        &mut self,
        unit: usize,
        batch: &[PendingReq],
        ops: &[Operation],
        raws: &[RawOutputs],
        replicas: &[(usize, Vec<RawOutputs>)],
        vote_all: bool,
        t_fill: Instant,
        spans: [(Phase, u64); 2],
    ) {
        let now = self.engine.now();
        let t_verify = Instant::now();
        let wants: Vec<MultResult> = ops.iter().map(|&op| self.reference.execute(op)).collect();
        let verdicts = self.judge_unit(unit, ops, raws, &wants);
        if !replicas.is_empty() {
            self.hold_votes(replicas, batch, ops, &verdicts, vote_all, &wants);
        }
        if verdicts.iter().any(|v| matches!(v, Verdict::Escape)) {
            self.open_tmr_window("a lane passed its self-check but disagreed with the reference");
        }
        // The whole batch shares one verification pass; every lane
        // experienced its full duration.
        let verify_micros = t_verify.elapsed().as_micros() as u64;
        let mut incidents = 0u32;
        let mut failed_trace = None;
        for ((mut p, verdict), want) in batch.iter().copied().zip(verdicts).zip(&wants) {
            p.spans.add(Phase::QueueWait, queue_micros(&p, t_fill));
            for (phase, micros) in spans {
                p.spans.add(phase, micros);
            }
            p.spans.add(Phase::Verify, verify_micros);
            if let Verdict::Pass(got) = verdict {
                self.push_ok(p, &got, "ok");
                continue;
            }
            // The lane failed its verdict: never answer from it. The
            // reference answers, and the routed unit is charged.
            incidents += 1;
            failed_trace = Some(p.trace);
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
            self.push_ok(p, want, "rescued");
        }
        self.engine
            .note_external_service(unit, incidents, failed_trace);
    }

    /// Judges unit `unit`'s lanes: `raws` are its compiled results for
    /// `ops`, and any Byzantine output latch armed on the unit corrupts
    /// its flagged lanes after the self-check.
    fn judge_unit(
        &mut self,
        unit: usize,
        ops: &[Operation],
        raws: &[RawOutputs],
        wants: &[MultResult],
    ) -> Vec<Verdict> {
        let byz = self.engine.byzantine_lane_mask(unit, ops.len());
        let pattern = self.engine.byzantine_pattern(unit);
        ops.iter()
            .zip(raws)
            .zip(wants)
            .enumerate()
            .map(|(k, ((&op, raw), want))| {
                let corrupt = if byz[k / 64] >> (k % 64) & 1 == 1 {
                    pattern
                } else {
                    0
                };
                Verdict::judge(op, raw, corrupt, want)
            })
            .collect()
    }

    /// Holds the TMR vote on the batch's voted lanes (every lane when
    /// `vote_all`, else the critical ones): each replica unit re-executed
    /// the whole batch under its own fault overlay in the packed pass
    /// (`replicas` holds its raw lanes), and every replica ballot is
    /// judged by the same verdict as the routed unit's lane
    /// (`verdicts`). A failing replica ballot charges its own unit; the
    /// routed unit's failures are charged with its batch.
    fn hold_votes(
        &mut self,
        replicas: &[(usize, Vec<RawOutputs>)],
        batch: &[PendingReq],
        ops: &[Operation],
        verdicts: &[Verdict],
        vote_all: bool,
        wants: &[MultResult],
    ) {
        let replicas: Vec<(usize, Vec<Verdict>)> = replicas
            .iter()
            .map(|(ru, raws)| (*ru, self.judge_unit(*ru, ops, raws, wants)))
            .collect();
        let now = self.engine.now();
        for (idx, p) in batch.iter().enumerate() {
            if !(p.critical || vote_all) {
                continue;
            }
            self.votes += 1;
            self.metrics.votes.inc();
            let mut failed = u32::from(!verdicts[idx].passed());
            for (ru, ballots) in &replicas {
                let ballot = &ballots[idx];
                if ballot.passed() {
                    continue;
                }
                failed += 1;
                self.engine.note_external_service(*ru, 1, Some(p.trace));
                if matches!(ballot, Verdict::Escape) {
                    self.open_tmr_window(
                        "a replica passed its self-check but disagreed with the reference",
                    );
                }
            }
            if failed > 0 {
                self.vote_mismatches += 1;
                self.metrics.vote_mismatches.inc();
            }
            self.flight.record(FlightEvent {
                tick: now,
                trace: Some(p.trace.as_u64()),
                kind: "tmr_vote",
                detail: format!(
                    "request {} lane {idx} ballots {} failed {failed}",
                    p.id,
                    replicas.len() + 1
                ),
            });
        }
    }
}

/// Microseconds `p` waited from admission until its batch began filling
/// at `t_fill`.
fn queue_micros(p: &PendingReq, t_fill: Instant) -> u64 {
    t_fill.saturating_duration_since(p.admitted_at).as_micros() as u64
}

/// Zero-delay toggle counts accumulated over every client lane the
/// service evaluated: the service's power accounting runs on the
/// compiled activity engine, with no event-driven simulation alongside
/// the serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PowerTally {
    /// Per-net toggles summed over batch lanes, each pass counted from
    /// the fault-free power-on state.
    toggles: Vec<u64>,
    /// Clock edges, charged once per batch (shared by all its lanes).
    cycles: u64,
    /// Operations measured.
    ops: u64,
}

impl PowerTally {
    fn new(nets: usize) -> Self {
        PowerTally {
            toggles: vec![0; nets],
            cycles: 0,
            ops: 0,
        }
    }
}

/// One segment of a packed pass: its operations and the stuck-at faults
/// they run under.
type Laid<'s> = (&'s [Operation], &'s [(NetId, bool)]);

/// What [`run_passes`] produced.
struct PackedRun {
    /// Each segment's raw outputs, in segment order.
    raws: Vec<Vec<RawOutputs>>,
    /// Passes run.
    passes: u64,
    /// Wall time spent arming the passes (batch fill).
    fill_micros: u64,
    /// Wall time spent evaluating them.
    eval_micros: u64,
}

/// Lays `segments` (operations and the fault set they run under) out
/// back to back over as few passes of `sim`'s width as they fill, each
/// lane under its segment's faults. The first `batch` lanes are a batch
/// (a leading segment): every pass that holds batch lanes restarts
/// toggle counting from the fault-free power-on state over its batch
/// prefix and adds its toggles to `power`, which also charges the
/// batch's clock edges and operations once. A pass with no batch lanes
/// counts none. Toggle counts are lane-separable, so `power` and every
/// raw output are the same at any width.
fn run_passes<const W: usize>(
    sim: &mut LaneSim<'_, W>,
    ports: &StructuralPorts,
    segments: &[Laid<'_>],
    batch: usize,
    power: &mut PowerTally,
) -> PackedRun {
    let width = LaneSim::<W>::LANES;
    let ops: Vec<Operation> = segments
        .iter()
        .flat_map(|(ops, _)| ops.iter().copied())
        .collect();
    let (mut passes, mut fill_micros, mut eval_micros) = (0, 0, 0);
    let mut raws = Vec::with_capacity(ops.len());
    for start in (0..ops.len()).step_by(width) {
        let end = (start + width).min(ops.len());
        let t_fill = Instant::now();
        let mut plan = Vec::with_capacity(segments.len());
        let mut base = 0;
        for (seg_ops, faults) in segments {
            let (lo, hi) = (base.max(start), (base + seg_ops.len()).min(end));
            if lo < hi {
                plan.push((lane_range(lo - start, hi - start), *faults));
            }
            base += seg_ops.len();
        }
        sim.arm_overlays(&plan);
        let batch_lanes = batch.saturating_sub(start).min(width);
        if batch_lanes > 0 {
            sim.rearm_activity(batch_lanes);
        } else if sim.activity_enabled() {
            sim.set_active_lanes(0);
        }
        fill_micros += t_fill.elapsed().as_micros() as u64;
        let t_eval = Instant::now();
        raws.extend(run_raw_compiled(sim, ports, &ops[start..end]));
        eval_micros += t_eval.elapsed().as_micros() as u64;
        if batch_lanes > 0 {
            for (sum, &t) in power.toggles.iter_mut().zip(sim.toggles()) {
                *sum += t;
            }
            if start == 0 {
                power.cycles += sim.cycles();
                power.ops += batch as u64;
            }
        }
        passes += 1;
    }
    let mut rest = raws.into_iter();
    PackedRun {
        raws: segments
            .iter()
            .map(|(ops, _)| rest.by_ref().take(ops.len()).collect())
            .collect(),
        passes,
        fill_micros,
        eval_micros,
    }
}

/// Whether every one of `ops` passed `check_raw` on its raw outputs.
fn all_pass(ops: &[Operation], raws: &[RawOutputs]) -> bool {
    ops.iter()
        .zip(raws)
        .all(|(&op, raw)| check_raw(op, raw).is_ok())
}

/// Runs one of the engine's scrubs on the service's simulator: the
/// `battery` under the unit's repaired overlay `faults`, in passes of
/// its own ([`run_passes`] with no batch, so no toggles are counted).
/// Counts the passes and the scrub lanes, and returns whether every
/// vector passed.
fn run_scrub(
    sim: &mut LaneSim<'_, PASS_WORDS>,
    ports: &StructuralPorts,
    power: &mut PowerTally,
    metrics: &ServiceMetrics,
    faults: &[(NetId, bool)],
    battery: &[Operation],
) -> bool {
    let run = run_passes(sim, ports, &[(battery, faults)], 0, power);
    metrics.passes.add(run.passes);
    metrics.pass_lanes[Role::Scrub as usize].add(battery.len() as u64);
    all_pass(battery, &run.raws[0])
}

/// What a run of lanes in a compiled pass carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Client lanes under the routed unit's overlay.
    Batch,
    /// A TMR replica's copy of the batch.
    Replica,
    /// The engine's patrol slice.
    Patrol,
    /// A scrub or spare activation, in a pass of its own.
    Scrub,
}

impl Role {
    /// Every role, in `service.pass_lanes.*` counter order.
    const ALL: [Role; 4] = [Role::Batch, Role::Replica, Role::Patrol, Role::Scrub];

    fn label(self) -> &'static str {
        match self {
            Role::Batch => "batch",
            Role::Replica => "replica",
            Role::Patrol => "patrol",
            Role::Scrub => "scrub",
        }
    }
}

/// One run of lanes in a packed pass: `ops` under `unit`'s fault overlay.
struct Segment {
    role: Role,
    unit: usize,
    ops: Vec<Operation>,
}

/// The one verdict on a served lane (a *ballot*), whether the routed
/// unit's or a TMR replica's.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// The self-check passed and the result agrees with the reference.
    Pass(MultResult),
    /// The residue/invariant self-check failed.
    CheckFailed,
    /// The self-check passed but the result disagrees with the
    /// reference: a would-be escape.
    Escape,
}

impl Verdict {
    /// Judges one lane: `raw` must pass `check_raw`, and its result, with
    /// `corrupt` XORed into the high product word by an output latch
    /// downstream of the checks, must agree with `want` under the
    /// hardware flag mask.
    fn judge(op: Operation, raw: &RawOutputs, corrupt: u64, want: &MultResult) -> Verdict {
        if check_raw(op, raw).is_err() {
            return Verdict::CheckFailed;
        }
        let mut got = result_from_raw(op, raw);
        got.ph ^= corrupt;
        if got.agrees_hw(want) {
            Verdict::Pass(got)
        } else {
            Verdict::Escape
        }
    }

    fn passed(&self) -> bool {
        matches!(self, Verdict::Pass(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfm_gatesim::tech::TechLibrary;
    use mfm_gatesim::{CompiledSim, PowerSample};
    use mfm_resilient::health::BreakerConfig;
    use mfmult::selfcheck::{run_scrub_compiled, scrub_battery};
    use mfmult::structural::{build_unit, build_unit_quad};

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
            engine: EngineConfig {
                queue_depth: 8,
                breaker: BreakerConfig {
                    open_after: 2,
                    heal_after: 4,
                    cooldown_ticks: 2,
                    max_scrub_failures: 2,
                },
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
        assert_eq!(svc.power.toggles, want);
        assert_eq!(svc.power.ops, 4);
    }

    #[test]
    fn scrubs_on_the_service_sim_match_fresh_sims_and_leave_batch_power_alone() {
        for quad in [false, true] {
            let mut n = Netlist::new(TechLibrary::cmos45lp());
            let ports = if quad {
                build_unit_quad(&mut n)
            } else {
                build_unit(&mut n)
            };
            let reg = Registry::new();
            let mut cfg = small_cfg();
            cfg.units = 1;
            cfg.engine.quad_lanes = quad;
            // The unit keeps serving through its failed lanes.
            cfg.engine.breaker.open_after = 100;
            let mut svc = Service::new(&n, &ports, cfg, &reg);
            let prog = n.compiled().unwrap();
            let battery = scrub_battery(quad);
            // What the mixed batch counts on fresh simulators, one per op.
            let mut fresh = PowerTally::new(n.net_count());
            for op in mixed_ops() {
                let mut sim = CompiledSim::new(prog);
                sim.enable_activity(1);
                run_raw_compiled(&mut sim, &ports, &[op]);
                for (w, &t) in fresh.toggles.iter_mut().zip(sim.toggles()) {
                    *w += t;
                }
                fresh.cycles = sim.cycles();
                fresh.ops += 1;
            }
            let clean: Vec<(NetId, bool)> = Vec::new();
            let sticky = vec![(ports.chk_p0[0], true)];
            for faults in [clean, sticky] {
                // A faulted batch pass counts activity on the simulator
                // (the binary64 product 3.0 has bit 62 set)...
                let failed = reg.counter("service.check_failures").get();
                svc.engine_mut()
                    .inject_stuck_at(0, ports.ph[62], false, false);
                admit_mixed(&mut svc);
                svc.tick();
                assert_eq!(svc.take_responses().len(), 4);
                assert!(reg.counter("service.check_failures").get() > failed);
                // ...then a scrub runs on it...
                let passes = reg.counter("service.passes").get();
                let lanes = reg.counter("service.pass_lanes.scrub").get();
                let pass = run_scrub(
                    &mut svc.sim,
                    &svc.ports,
                    &mut svc.power,
                    &svc.metrics,
                    &faults,
                    &battery,
                );
                let want = run_scrub_compiled(prog, &ports, &faults, &battery).is_ok();
                assert_eq!(pass, want, "quad {quad}, faults {faults:?}");
                assert_eq!(pass, faults.is_empty(), "quad {quad}: the defect shows");
                assert_eq!(reg.counter("service.passes").get(), passes + 1);
                assert_eq!(
                    reg.counter("service.pass_lanes.scrub").get(),
                    lanes + battery.len() as u64
                );
                // ...and the next clean batch counts what fresh
                // simulators count.
                svc.engine_mut().clear_unit_faults(0);
                let before = svc.power.clone();
                admit_mixed(&mut svc);
                svc.tick();
                assert_eq!(svc.take_responses().len(), 4);
                let got = PowerTally {
                    toggles: svc
                        .power
                        .toggles
                        .iter()
                        .zip(&before.toggles)
                        .map(|(a, b)| a - b)
                        .collect(),
                    cycles: svc.power.cycles - before.cycles,
                    ops: svc.power.ops - before.ops,
                };
                assert_eq!(got, fresh, "quad {quad}, faults {faults:?}");
            }
            assert_eq!(svc.escapes(), 0);
        }
    }

    /// A tick's segments (operations and their faults) and its batch
    /// length.
    type Round = (Vec<(Vec<Operation>, Vec<(NetId, bool)>)>, usize);

    /// Runs `rounds` of packed segments through one simulator of width
    /// `W`, returning every round's raw outputs, the power tally and
    /// the passes run.
    fn packed_rounds<const W: usize>(
        n: &Netlist,
        ports: &StructuralPorts,
        rounds: &[Round],
    ) -> (Vec<Vec<Vec<RawOutputs>>>, PowerTally, u64) {
        let mut sim = LaneSim::<W>::new(n.compiled().unwrap());
        let mut power = PowerTally::new(n.net_count());
        let mut passes = 0;
        let raws = rounds
            .iter()
            .map(|(segments, batch)| {
                let laid: Vec<Laid<'_>> = segments.iter().map(|(o, f)| (&o[..], &f[..])).collect();
                let run = run_passes(&mut sim, ports, &laid, *batch, &mut power);
                passes += run.passes;
                run.raws
            })
            .collect();
        (raws, power, passes)
    }

    /// Tick-shaped segment sequences over `ports`: a small batch with
    /// two battery riders, a full batch with two TMR replica
    /// copies that spills across passes, the same plan again, a pass
    /// with no batch, and a batch whose overlay changes.
    fn packed_round_plan(ports: &StructuralPorts, batch_len: usize) -> Vec<Round> {
        let mut gen = mfm_evalkit::workload::OperandGen::new(21);
        let formats = [
            Format::Int64,
            Format::Binary64,
            Format::DualBinary32,
            Format::SingleBinary32,
        ];
        let mut ops = |len: usize| -> Vec<Operation> {
            (0..len).map(|k| gen.operation(formats[k % 4])).collect()
        };
        let battery = scrub_battery(false);
        let patrol: Vec<Operation> = battery[..8].to_vec();
        let clean: Vec<(NetId, bool)> = Vec::new();
        let stuck_p0 = vec![(ports.chk_p0[0], true)];
        let stuck_ph = vec![(ports.ph[7], false), (ports.pl[3], true)];
        let small = ops(4);
        let full = ops(batch_len);
        vec![
            (
                vec![
                    (small.clone(), clean.clone()),
                    (patrol.clone(), stuck_p0.clone()),
                    (battery[8..16].to_vec(), clean.clone()),
                ],
                4,
            ),
            (
                vec![
                    (full.clone(), stuck_ph.clone()),
                    (full.clone(), clean.clone()),
                    (full.clone(), stuck_p0.clone()),
                    (patrol.clone(), clean.clone()),
                ],
                batch_len,
            ),
            (
                vec![
                    (full.clone(), stuck_ph.clone()),
                    (full.clone(), clean.clone()),
                    (full, stuck_p0.clone()),
                    (patrol.clone(), clean.clone()),
                ],
                batch_len,
            ),
            (vec![(patrol, stuck_ph.clone())], 0),
            (vec![(small, stuck_p0), (ops(8), stuck_ph)], 4),
        ]
    }

    #[test]
    fn packed_passes_agree_at_64_and_256_lanes() {
        let (n, ports) = build();
        let rounds = packed_round_plan(&ports, LANES);
        let (narrow, narrow_power, narrow_passes) =
            packed_rounds::<PASS_WORDS>(&n, &ports, &rounds);
        let (wide, wide_power, wide_passes) = packed_rounds::<4>(&n, &ports, &rounds);
        assert_eq!(narrow, wide, "raw outputs");
        assert_eq!(narrow_power, wide_power, "toggles, cycles and ops");
        assert_eq!(narrow_power.ops, 4 + 2 * LANES as u64 + 4);
        assert!(narrow_power.toggles.iter().any(|&t| t > 0));
        // Lanes per round: 20, 776, 776, 8 and 12.
        assert_eq!(
            (wide_passes, narrow_passes),
            (1 + 4 + 4 + 1 + 1, 1 + 13 + 13 + 1 + 1)
        );
        // The faults reached their lanes: the stuck check bit shows.
        assert!(narrow[1][2].iter().zip(&narrow[1][1]).any(|(a, b)| a != b));
    }

    #[test]
    fn packed_passes_agree_at_64_and_256_lanes_on_the_pipelined_unit() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = mfmult::pipeline::build_pipelined_unit(
            &mut n,
            mfmult::pipeline::PipelinePlacement::Fig5,
        );
        assert!(ports.latency > 0);
        let batch = if cfg!(debug_assertions) { 100 } else { LANES };
        let rounds = packed_round_plan(&ports, batch);
        let (narrow, narrow_power, _) = packed_rounds::<PASS_WORDS>(&n, &ports, &rounds);
        let (wide, wide_power, _) = packed_rounds::<4>(&n, &ports, &rounds);
        assert_eq!(narrow, wide, "raw outputs");
        assert_eq!(narrow_power, wide_power, "toggles, cycles and ops");
        // Each batch charges its clock edges once, at any width.
        assert_eq!(narrow_power.cycles, 4 * (ports.latency as u64 + 1));
    }

    #[test]
    fn riders_share_the_batch_pass_and_leave_its_power_untouched() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.engine.patrol_slice = 8;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        admit_mixed(&mut svc);
        svc.tick();
        let lanes = |role: &str| reg.counter(&format!("service.pass_lanes.{role}")).get();
        assert_eq!(reg.counter("service.passes").get(), 1, "one pass per tick");
        assert_eq!(
            [lanes("batch"), lanes("replica"), lanes("patrol")],
            [4, 0, 8]
        );
        assert_eq!(reg.counter("pool.patrol_slices").get(), 1);
        // The patrol lanes ran beside the batch, yet the power
        // accumulator saw the four client lanes alone.
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
        assert_eq!(svc.power.toggles, want);
        assert_eq!(svc.power.ops, 4);
        let sz = svc.statusz_json();
        mfm_telemetry::json::check(&sz).unwrap();
        assert!(
            sz.contains("\"passes\":{\"total\":1,\"per_tick\":1.000,"),
            "{sz}"
        );
    }

    #[test]
    fn sampling_power_after_batches_only_equals_sampling_every_tick() {
        let (n, ports) = build();
        let mut cfg = small_cfg();
        cfg.engine.patrol_slice = 8;
        let (reg_after, reg_every) = (Registry::new(), Registry::new());
        let mut after = Service::new(&n, &ports, cfg, &reg_after);
        let mut every = Service::new(&n, &ports, cfg, &reg_every);
        let mut gen = mfm_evalkit::workload::OperandGen::new(0x7E57);
        let mut rng = mfm_prng::Rng::new(0x7E57);
        let (mut id, mut ticks, mut batches) = (0u64, 0u64, 0u64);
        // Every sample each service takes, collected as it is taken: a
        // sample ends at more ops than the one before it.
        let (mut after_samples, mut every_samples) = (Vec::new(), Vec::new());
        let taken = |svc: &Service<'_>, into: &mut Vec<PowerSample>| {
            if let Some(s) = svc.power_trace.last_sample() {
                if into
                    .last()
                    .is_none_or(|l: &PowerSample| l.ops_end != s.ops_end)
                {
                    into.push(s);
                }
            }
        };
        for _ in 0..12 {
            // A mixed-format batch, then patrol-only ticks until the next.
            for _ in 0..rng.range_u64(1, 7) {
                let format = Format::ALL[rng.range_u64(0, 4) as usize];
                let r = req(id, gen.operation(format));
                assert!(after.admit(1, &r).is_none());
                assert!(every.admit(1, &r).is_none());
                id += 1;
            }
            batches += 1;
            for _ in 0..rng.range_u64(2, 6) {
                after.tick();
                taken(&after, &mut after_samples);
                every.tick();
                taken(&every, &mut every_samples);
                // Sample after every tick, idle ones included.
                let p = &every.power;
                let extra = every.power_trace.sample_counts(&p.toggles, p.cycles, p.ops);
                every_samples.extend(extra);
                ticks += 1;
            }
        }
        assert_eq!(reg_after.histogram("service.batch_fill").count(), batches);
        assert_eq!(reg_after.counter("pool.patrol_slices").get(), ticks);
        assert_eq!(after.power, every.power);
        let bits = |samples: &[PowerSample]| -> Vec<(u64, u64, u64)> {
            samples
                .iter()
                .map(|s| (s.ops_end, s.window_ops, s.pj_per_op.to_bits()))
                .collect()
        };
        assert_eq!(after_samples.len() as u64, batches, "one sample per batch");
        assert_eq!(bits(&after_samples), bits(&every_samples));
        assert_eq!(
            after.power_trace.mean_pj_per_op().to_bits(),
            every.power_trace.mean_pj_per_op().to_bits()
        );
        assert_eq!(
            reg_after.gauge("service.pj_per_op").get().to_bits(),
            reg_every.gauge("service.pj_per_op").get().to_bits()
        );
    }

    #[test]
    fn packed_patrol_lanes_catch_a_latent_fault_beside_live_traffic() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 2;
        cfg.engine.patrol_slice = 8;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Latent (non-sticky) damage on unit 0 that no client lane can
        // see: bit 0 of an odd product is already 1. Batches still route
        // through the unit, so only the patrol lanes packed beside them
        // can find it.
        svc.engine_mut()
            .inject_stuck_at(0, ports.chk_p0[0], true, false);
        let mut caught = false;
        let ticks = 200u64;
        for k in 0..ticks {
            assert!(svc
                .admit(1, &req(k, Operation::int64(2 * k + 1, 3)))
                .is_none());
            svc.tick();
            caught |= svc.engine_mut().unit_state(0) != HealthState::Healthy;
        }
        let out = svc.take_responses();
        assert_eq!(out.len(), ticks as usize, "every request answered");
        for (_, r) in &out {
            match r {
                Response::Ok { id, ph, pl, .. } => {
                    let want = (2 * *id + 1) as u128 * 3;
                    assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        assert_eq!(
            reg.counter("service.check_failures").get(),
            0,
            "no client lane saw the fault"
        );
        let (slices, failures) = svc.engine_mut().patrol_stats();
        assert!(caught, "patrol surfaced the latent fault");
        assert!(failures >= 1, "the faulty slice failed: {failures}");
        assert_eq!(slices, ticks, "a patrol slice every tick");
        // Each tick's batch and patrol slice shared one pass; each scrub
        // ran in a pass of its own.
        let (scrubs, _) = svc.engine().scrubs();
        assert!(scrubs >= 1, "the quarantined unit was scrubbed");
        assert_eq!(reg.counter("service.passes").get(), ticks + scrubs);
        assert_eq!(reg.counter("service.pass_lanes.batch").get(), ticks);
        assert_eq!(reg.counter("service.pass_lanes.patrol").get(), 8 * ticks);
        assert_eq!(
            reg.counter("service.pass_lanes.scrub").get(),
            scrubs * scrub_battery(false).len() as u64
        );
        // The breaker machinery took over: quarantine, scrub (repair
        // clears the latched damage), readmission.
        assert_eq!(svc.engine_mut().unit_state(0), HealthState::Healthy);
        let trail: Vec<_> = svc
            .engine_mut()
            .transitions(0)
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert!(
            trail.contains(&(HealthState::Probation, HealthState::Healthy)),
            "repaired and readmitted: {trail:?}"
        );
        assert_eq!(svc.escapes(), 0);
    }

    #[test]
    fn fault_injected_after_a_clean_batch_is_seen_by_the_next_batch() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 1;
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
        let out = svc.take_responses();
        assert_eq!(
            out.len(),
            4,
            "every failed lane answered in its tick: {out:?}"
        );
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
        // Each trace record names where its answer came from: the clean
        // batch from the hardware, the faulted batch from the reference.
        svc.flush_unacked_records();
        let mut outcomes: Vec<(u64, &str)> = svc
            .traces
            .records()
            .map(|r| (r.request_id, r.outcome))
            .collect();
        outcomes.sort_unstable();
        assert_eq!(
            outcomes,
            (0..8u64)
                .map(|k| (k, if k < 4 { "ok" } else { "rescued" }))
                .collect::<Vec<_>>()
        );
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
    fn first_shed_hint_is_at_least_one_tick_for_every_client() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.pending_cap = 10;
        // A one-tick base: the first rejection's jittered delay spans 0..=1.
        cfg.backoff.base_ticks = 1;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        for k in 0..9u64 {
            assert!(svc.admit(0, &req(k, Operation::int64(k, 3))).is_none());
        }
        for client in 1..=64u64 {
            match svc.admit(client, &req(client, Operation::int64(client, 3))) {
                Some(Response::Overloaded {
                    retry_after_micros, ..
                }) => assert!(
                    retry_after_micros >= cfg.micros_per_tick,
                    "client {client}: first hint {retry_after_micros} µs"
                ),
                other => panic!("client {client}: expected Overloaded, got {other:?}"),
            }
        }
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
        assert_eq!(svc.tier(), Tier::Normal, "50% still batches every format");
        fill(&mut svc, 15);
        assert_eq!(
            svc.tier(),
            Tier::SingleFormat,
            "75% degrades to single-format"
        );
        fill(&mut svc, 18);
        assert_eq!(svc.tier(), Tier::Shed, "90% refuses new work");
        assert!(svc.admit(1, &req(999, Operation::int64(1, 1))).is_some());
        // The `service.tier` gauge levels.
        assert_eq!(
            [Tier::Normal, Tier::SingleFormat, Tier::Shed].map(Tier::level),
            [0, 1, 2]
        );
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
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Poison unit 0's hardware with a sticky output fault: batches
        // routed through its overlay fail their checks.
        let victim = ports.chk_p0[0];
        svc.engine_mut().inject_stuck_at(0, victim, true, true);
        // Even products keep bit 0 of p0 at 0, so the stuck-at-true
        // fault is observable on every lane routed through unit 0.
        for k in 0..40u64 {
            assert!(
                svc.admit(1, &req(k, Operation::int64(k + 1, 2))).is_none(),
                "request {k} admitted"
            );
            svc.tick();
            // Every admitted request is answered Ok, bit-exact, in the
            // tick that batches it — a failed lane included.
            let out = svc.take_responses();
            assert_eq!(out.len(), 1, "request {k} answered in its tick: {out:?}");
            match out[0].1 {
                Response::Ok { id, ph, pl, .. } => {
                    assert_eq!(id, k);
                    let want = (k + 1) as u128 * 2;
                    assert_eq!(((ph as u128) << 64) | pl as u128, want, "id {id}");
                }
                ref other => panic!("expected Ok for {k}, got {other:?}"),
            }
        }
        assert_eq!(svc.escapes(), 0, "zero escapes under a poisoned unit");
        assert_eq!(reg.counter("service.answered").get(), 40);
        assert!(
            reg.counter("service.check_failures").get() > 0,
            "the poisoned lanes were caught"
        );
        assert_eq!(
            reg.counter("service.rescues").get(),
            reg.counter("service.check_failures").get(),
            "every caught lane was answered from the reference"
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
        assert_eq!(
            reg.counter("service.rescues").get(),
            reg.counter("service.check_failures").get(),
            "every failed lane was answered from the reference"
        );
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
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        assert!(!svc.tmr_window_active());
        // A byzantine latch that trips on non-critical traffic: the
        // first corrupted batch lane passes its self-check but disagrees
        // with the reference, which opens the recovery window; from then
        // on even plain lanes are voted.
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
        assert_eq!(out.len(), 30, "every request answered");
        for (_, r) in &out {
            if let Response::Ok { id, ph, pl, .. } = r {
                let want = (*id + 1) as u128 * 4;
                assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
            }
        }
    }

    #[test]
    fn replicas_agreeing_on_a_wrong_product_are_charged_not_followed() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 3;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Units 1 and 2 corrupt every result the same way: a majority of
        // the three ballots agrees on one wrong product.
        svc.engine_mut().inject_byzantine(1, 1, 1 << 5);
        svc.engine_mut().inject_byzantine(2, 1, 1 << 5);
        let mut r = req(7, Operation::int64(1234, 5678));
        r.critical = true;
        assert!(svc.admit(1, &r).is_none());
        // The first batch routes through unit 0, which is fault-free.
        svc.tick();
        let out = svc.take_responses();
        assert_eq!(out.len(), 1, "answered in the tick it was batched: {out:?}");
        match out[0].1 {
            Response::Ok { id, ph, pl, .. } => {
                assert_eq!(id, 7);
                assert_eq!(((ph as u128) << 64) | pl as u128, 1234 * 5678);
            }
            ref other => panic!("expected Ok, got {other:?}"),
        }
        assert_eq!(svc.votes(), 1);
        assert_eq!(svc.vote_mismatches(), 1);
        assert_eq!(reg.counter("service.check_failures").get(), 0);
        assert_eq!(
            svc.engine_mut().transitions_logged(0),
            0,
            "the correct routed unit is never charged"
        );
        for u in [1, 2] {
            assert!(
                svc.engine_mut()
                    .transitions(u)
                    .iter()
                    .any(|t| t.from == HealthState::Healthy && t.to == HealthState::Suspect),
                "wrong replica {u} was charged"
            );
        }
        assert_eq!(svc.escapes(), 0);
    }

    /// Answers of `out` that disagree with `want(id)`.
    fn wrong_answers(out: &[(u64, Response)], want: impl Fn(u64) -> u128) -> Vec<u64> {
        out.iter()
            .filter_map(|(_, r)| match *r {
                Response::Ok { id, ph, pl, .. } => {
                    (((ph as u128) << 64) | pl as u128 != want(id)).then_some(id)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn patrol_scrubbing_catches_a_latent_fault_without_traffic() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.engine.patrol_slice = 8;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // Latent (non-sticky) damage on an idle unit: no request is ever
        // admitted, so only patrol can find it.
        svc.engine_mut()
            .inject_stuck_at(0, ports.chk_p0[0], true, false);
        let mut caught = false;
        for _ in 0..200 {
            svc.tick();
            caught |= svc.engine().unit_state(0) != HealthState::Healthy;
        }
        let (slices, failures) = svc.engine().patrol_stats();
        assert!(caught, "patrol surfaced the latent fault");
        assert!(slices >= 2, "ticks ran patrol slices: {slices}");
        assert!(failures >= 1, "the faulty slice failed: {failures}");
        // The breaker machinery took over: quarantine, scrub (repair
        // clears the latched damage), readmission.
        assert_eq!(svc.engine().unit_state(0), HealthState::Healthy);
        let trail: Vec<_> = svc
            .engine()
            .transitions(0)
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert!(
            trail.contains(&(HealthState::Probation, HealthState::Healthy)),
            "repaired and readmitted: {trail:?}"
        );
        assert_eq!(svc.escapes(), 0);
    }

    #[test]
    fn byzantine_unit_is_outvoted_masked_and_never_escapes() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, small_cfg(), &reg);
        // An output-latch defect beyond check coverage: every 3rd result
        // served by unit 0 has a product bit flipped after the
        // self-checks ran. Scrubs replay the checked datapath and pass.
        svc.engine_mut().inject_byzantine(0, 3, 1 << 7);
        for k in 0..60u64 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 2, 5))).is_none());
            svc.tick();
        }
        for _ in 0..20 {
            svc.tick();
        }
        // The contract: wrong answers were produced, every one was
        // answered from the reference instead, none escaped.
        let out = svc.take_responses();
        assert_eq!(out.len(), 60);
        assert_eq!(wrong_answers(&out, |id| (id + 2) as u128 * 5), vec![]);
        assert_eq!(svc.escapes(), 0, "no wrong answer ever delivered");
        assert!(
            reg.counter("service.check_failures").get() >= 3,
            "the latch did corrupt results"
        );
        // The failed verdicts charged the breaker: the unit was
        // quarantined, its scrub passed (the battery sees a clean
        // datapath — that is what makes the fault Byzantine), and it
        // was readmitted to flap again.
        let trail: Vec<_> = svc
            .engine()
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
        // While suspect, its batches were voted on the healthy peer.
        assert!(svc.dmr_batches >= 1, "suspicion triggered voting");
        assert_eq!(
            svc.engine().unit_state(1),
            HealthState::Healthy,
            "the honest peer is never blamed"
        );
    }

    /// Applies a chaos SEU on unit 0 aimed at the low product bit,
    /// forcing it to 1: even products keep it at 0, so the upset shows
    /// in every lane of the pass it strikes.
    fn apply_seu(svc: &mut Service<'_>, ports: &StructuralPorts) {
        let ev = mfm_resilient::ChaosEvent {
            at_op: 0,
            unit: 0,
            net_pick: 0,
            edge_pick: 1,
            kind: mfm_resilient::ChaosKind::Seu,
        };
        mfm_resilient::apply_event(svc.engine_mut(), &ev, &[ports.pl[0]], ports.latency);
    }

    /// One unit whose breaker tolerates a whole failed batch.
    fn seu_cfg() -> ServiceConfig {
        let mut cfg = small_cfg();
        cfg.units = 1;
        cfg.engine.breaker.open_after = 100;
        cfg
    }

    /// Admits four even products and ticks once.
    fn even_batch(svc: &mut Service<'_>, first: u64) {
        for k in first..first + 4 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 1, 2))).is_none());
        }
        svc.tick();
    }

    #[test]
    fn seu_charges_at_most_the_victims_next_pass_on_the_pipelined_unit() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = mfmult::pipeline::build_pipelined_unit(
            &mut n,
            mfmult::pipeline::PipelinePlacement::Fig5,
        );
        assert!(ports.latency > 0);
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, seu_cfg(), &reg);
        apply_seu(&mut svc, &ports);
        assert_eq!(svc.engine().overlay(0), vec![(ports.pl[0], true)]);
        even_batch(&mut svc, 0);
        let failures = reg.counter("service.check_failures").get();
        assert!(
            (1..=4).contains(&failures),
            "the upset showed in its pass only: {failures}"
        );
        assert!(svc.engine().overlay(0).is_empty(), "gone after one pass");
        assert_eq!(
            svc.engine().transitions(0)[0].reason,
            format!("{failures} check incident(s)"),
            "the victim was charged for that pass"
        );
        even_batch(&mut svc, 4);
        assert_eq!(
            reg.counter("service.check_failures").get(),
            failures,
            "the pass after runs clean"
        );
        let out = svc.take_responses();
        assert_eq!(out.len(), 8);
        assert_eq!(wrong_answers(&out, |id| (id + 1) as u128 * 2), vec![]);
    }

    #[test]
    fn seu_is_dropped_on_the_combinational_unit() {
        let (n, ports) = build();
        assert_eq!(ports.latency, 0);
        let reg = Registry::new();
        let mut svc = Service::new(&n, &ports, seu_cfg(), &reg);
        apply_seu(&mut svc, &ports);
        assert!(svc.engine().overlay(0).is_empty(), "nothing to capture it");
        even_batch(&mut svc, 0);
        assert_eq!(reg.counter("service.check_failures").get(), 0);
        assert_eq!(svc.engine().transitions_logged(0), 0, "nothing charged");
        assert_eq!(svc.take_responses().len(), 4);
    }

    #[test]
    fn a_unit_whose_last_scrub_failed_never_serves_patrols_or_counts() {
        let (n, ports) = build();
        let reg = Registry::new();
        let mut cfg = small_cfg();
        cfg.units = 3;
        cfg.engine.patrol_slice = 8;
        let mut svc = Service::new(&n, &ports, cfg, &reg);
        // A physical defect: every scrub of unit 0 fails until it retires.
        svc.engine_mut()
            .inject_stuck_at(0, ports.chk_p0[0], true, true);
        let mut failed_scrubs_seen = 0;
        for k in 0..60u64 {
            assert!(svc.admit(1, &req(k, Operation::int64(k + 1, 2))).is_none());
            svc.tick();
            let last_scrub_failed = svc
                .engine()
                .transitions(0)
                .iter()
                .rev()
                .find(|t| t.from == HealthState::Probation)
                .is_some_and(|t| t.to != HealthState::Healthy);
            if !last_scrub_failed {
                continue;
            }
            failed_scrubs_seen += 1;
            assert!(!svc.batch_units().contains(&0), "tick {k}: routed");
            let others = (1..3)
                .filter(|&i| svc.engine().unit_state(i).is_hw_capacity())
                .count() as u32;
            assert_eq!(svc.engine().hw_capacity(), others, "tick {k}: counted");
            if let Some((unit, _)) = svc.engine_mut().take_patrol() {
                assert_ne!(unit, 0, "tick {k}: patrolled");
            }
        }
        assert!(failed_scrubs_seen > 0, "no scrub of unit 0 failed");
        assert_eq!(svc.engine().unit_state(0), HealthState::Retired);
        let out = svc.take_responses();
        assert_eq!(out.len(), 60);
        assert_eq!(wrong_answers(&out, |id| (id + 1) as u128 * 2), vec![]);
    }
}
