//! Open-loop load generator and verifier for the serving front-end.
//!
//! Arrivals are pre-generated from a seeded [`Arrivals`] process (so
//! offered load is independent of how the server responds — the honest
//! overload model) with a seeded [`FormatMix`], then split round-robin
//! across connections. Alongside the clean traffic the generator can
//! run **slow clients** (dribbling writes a byte at a time) and
//! **garbage connections** (one adversarial frame each, drawn from a
//! seeded corpus), so one run exercises the batcher, the shedder, the
//! deadline sweep, the strict parser and the slow-client write path at
//! once.
//!
//! Every `Ok` response is re-verified against the bit-exact
//! [`FunctionalUnit`] — the client-side escape detector — and every
//! request is accounted for: the run fails its contract if any request
//! went *unanswered* (no typed response of any kind before the drain
//! timeout).

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mfm_evalkit::workload::{ArrivalConfig, Arrivals, FormatMix, OperandGen};
use mfm_telemetry::json::JsonObject;
use mfmult::{FunctionalUnit, Operation};

use crate::wire::{
    decode_response, encode_request, read_frame, FrameError, Request, Response, MAX_BODY,
};

/// Load-generation knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Seed for operands, format mix and the adversarial corpus.
    pub seed: u64,
    /// Clean requests to send in total.
    pub requests: u64,
    /// Connections the clean traffic is split across.
    pub conns: usize,
    /// Of those, connections that write their frames one byte at a time
    /// (slow-client stress on the server's write path).
    pub slow_conns: usize,
    /// Extra one-shot connections that each send one malformed frame
    /// and expect a typed `Malformed` response.
    pub garbage_conns: usize,
    /// Arrival process (bursts included).
    pub arrivals: ArrivalConfig,
    /// Per-request relative deadline in microseconds (0 = server
    /// default).
    pub deadline_micros: u32,
    /// Mark every N-th clean request `critical` (wire v3 flag), opting
    /// it into server-side TMR voting. 0 sends no critical requests.
    pub critical_every: u64,
    /// Metrics address (`host:port`) to scrape `/statusz` from after
    /// the run, folding the server's redundancy counters (votes, DMR
    /// hedges, patrol slices) into the report. `None` skips the scrape.
    pub statusz_addr: Option<String>,
    /// How long to keep draining responses after the last send.
    pub drain: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            seed: 2017,
            requests: 512,
            conns: 4,
            slow_conns: 1,
            garbage_conns: 2,
            arrivals: ArrivalConfig::default(),
            deadline_micros: 0,
            critical_every: 0,
            statusz_addr: None,
            drain: Duration::from_secs(60),
        }
    }
}

/// What one load-generation run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Clean requests sent.
    pub sent: u64,
    /// Typed `Ok` responses (all re-verified client-side).
    pub ok: u64,
    /// Typed `Overloaded` refusals.
    pub overloaded: u64,
    /// Typed `DeadlineExceeded` responses.
    pub deadline_exceeded: u64,
    /// Typed `Malformed` responses to clean requests (should be 0).
    pub malformed_on_clean: u64,
    /// Garbage frames sent.
    pub garbage_sent: u64,
    /// Garbage frames answered with a typed `Malformed` before close.
    pub garbage_acked: u64,
    /// Clean requests with *no* typed response before the drain
    /// timeout. The service contract is that this is zero.
    pub unanswered: u64,
    /// `Ok` responses whose payload disagreed with the bit-exact
    /// reference. The invariant is zero.
    pub escapes: u64,
    /// Clean requests sent with the wire-v3 `critical` flag.
    pub critical_sent: u64,
    /// Server-side redundancy counters scraped from `/statusz` after
    /// the run (when [`LoadgenConfig::statusz_addr`] is set).
    pub redundancy: Option<RedundancyStats>,
    /// Wall time from first send to last response, microseconds.
    pub elapsed_micros: u64,
    /// Exact client-observed latency quantiles over `Ok` responses,
    /// microseconds (0 when nothing completed).
    pub p50_micros: u64,
    /// 90th percentile latency.
    pub p90_micros: u64,
    /// 99th percentile latency.
    pub p99_micros: u64,
    /// Mean latency.
    pub mean_micros: u64,
    /// Per-phase breakdown of `Ok` latency (server-reported queue and
    /// execution time, transport inferred) plus per-class end-to-end
    /// latency for refused and expired requests.
    pub phases: PhaseBreakdown,
}

/// Exact quantiles over one latency component, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatSummary {
    /// Samples summarized.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Mean.
    pub mean: u64,
}

impl LatSummary {
    /// Exact quantiles of `v` (sorted in place); zeros when empty.
    fn from_samples(v: &mut [u64]) -> Self {
        if v.is_empty() {
            return LatSummary::default();
        }
        v.sort_unstable();
        let q = |p: f64| {
            let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
            v[rank - 1]
        };
        LatSummary {
            count: v.len() as u64,
            p50: q(0.50),
            p99: q(0.99),
            mean: (v.iter().sum::<u64>() as f64 / v.len() as f64) as u64,
        }
    }

    /// Renders `{"count":…,"p50":…,"p99":…,"mean":…}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("count", self.count)
            .field_u64("p50", self.p50)
            .field_u64("p99", self.p99)
            .field_u64("mean", self.mean);
        o.finish()
    }
}

/// The queue-time vs service-time split the wire's v2 `Ok` payload
/// makes possible, plus per-class end-to-end latencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Server-reported time queued before dispatch (`Ok` only).
    pub queue: LatSummary,
    /// Server-reported batch execution + verification time (`Ok` only).
    pub exec: LatSummary,
    /// End-to-end minus queue minus exec: wire transport, framing and
    /// scheduling slack.
    pub transport: LatSummary,
    /// End-to-end latency of `Overloaded` refusals (how fast the shed
    /// signal reaches the client).
    pub overloaded: LatSummary,
    /// End-to-end latency of `DeadlineExceeded` responses.
    pub deadline: LatSummary,
}

impl PhaseBreakdown {
    /// Renders the nested `{"queue":…,…}` object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw("queue", &self.queue.to_json())
            .field_raw("exec", &self.exec.to_json())
            .field_raw("transport", &self.transport.to_json())
            .field_raw("overloaded", &self.overloaded.to_json())
            .field_raw("deadline_exceeded", &self.deadline.to_json());
        o.finish()
    }
}

/// The server's redundancy counters as exposed by the `/statusz`
/// `"redundancy"` object, scraped once after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RedundancyStats {
    /// TMR ballots held (critical lanes plus recovery-window lanes).
    pub votes: u64,
    /// Votes where at least one ballot failed the verdict.
    pub vote_mismatches: u64,
    /// Whole batches voted because their routed unit was Suspect.
    pub dmr_batches: u64,
    /// Spares promoted into retired units' slots.
    pub promotions: u64,
    /// Patrol-scrub slices run on idle ticks.
    pub patrol_slices: u64,
    /// Patrol slices that caught a fault.
    pub patrol_failures: u64,
}

impl RedundancyStats {
    /// Parses the counters out of a `/statusz` JSON body; counters the
    /// body lacks read as zero.
    fn from_statusz(body: &str) -> RedundancyStats {
        let get = |key: &str| -> u64 {
            let pat = format!("\"{key}\":");
            body.find(&pat)
                .map(|at| {
                    body[at + pat.len()..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .unwrap_or(0)
                })
                .unwrap_or(0)
        };
        RedundancyStats {
            votes: get("votes"),
            vote_mismatches: get("vote_mismatches"),
            dmr_batches: get("dmr_batches"),
            promotions: get("promotions"),
            patrol_slices: get("patrol_slices"),
            patrol_failures: get("patrol_failures"),
        }
    }

    /// Renders the scraped counters plus derived overhead rates.
    fn to_json(self, ok: u64) -> String {
        let denom = ok.max(1) as f64;
        let mut o = JsonObject::new();
        o.field_u64("votes", self.votes)
            .field_u64("vote_mismatches", self.vote_mismatches)
            .field_u64("dmr_batches", self.dmr_batches)
            .field_u64("promotions", self.promotions)
            .field_u64("patrol_slices", self.patrol_slices)
            .field_u64("patrol_failures", self.patrol_failures)
            .field_f64("vote_rate", self.votes as f64 / denom)
            .field_f64("hedge_rate", self.dmr_batches as f64 / denom);
        o.finish()
    }
}

/// One plain-HTTP `GET /statusz` against the metrics listener,
/// returning the response body (headers stripped).
fn scrape_statusz(addr: &str) -> Option<String> {
    use std::io::Read;
    let mut s = TcpStream::connect(addr).ok()?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    s.write_all(b"GET /statusz HTTP/1.0\r\n\r\n").ok()?;
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    body.filter(|b| !b.is_empty())
}

impl LoadReport {
    /// Completed operations per second of wall time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_micros == 0 {
            return 0.0;
        }
        self.ok as f64 * 1e6 / self.elapsed_micros as f64
    }

    /// Fraction of clean requests refused with `Overloaded`.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.overloaded as f64 / self.sent as f64
    }

    /// Whether every request was answered with *some* typed response
    /// and no wrong answer escaped — the run's pass condition.
    pub fn contract_holds(&self) -> bool {
        self.unanswered == 0
            && self.escapes == 0
            && self.malformed_on_clean == 0
            && self.garbage_acked == self.garbage_sent
    }

    /// The report as one JSON object (the `BENCH_service.json` shape).
    pub fn to_json(&self, cfg: &LoadgenConfig) -> String {
        let mut c = JsonObject::new();
        c.field_u64("seed", cfg.seed)
            .field_u64("requests", cfg.requests)
            .field_u64("conns", cfg.conns as u64)
            .field_u64("slow_conns", cfg.slow_conns as u64)
            .field_u64("garbage_conns", cfg.garbage_conns as u64)
            .field_f64("mean_gap_micros", cfg.arrivals.mean_gap_micros)
            .field_u64("burst_every", cfg.arrivals.burst_every)
            .field_u64("burst_len", cfg.arrivals.burst_len)
            .field_f64("burst_factor", cfg.arrivals.burst_factor)
            .field_u64("deadline_micros", cfg.deadline_micros as u64)
            .field_u64("critical_every", cfg.critical_every);
        let mut t = JsonObject::new();
        t.field_u64("sent", self.sent)
            .field_u64("ok", self.ok)
            .field_u64("overloaded", self.overloaded)
            .field_u64("deadline_exceeded", self.deadline_exceeded)
            .field_u64("malformed_on_clean", self.malformed_on_clean)
            .field_u64("garbage_sent", self.garbage_sent)
            .field_u64("garbage_acked", self.garbage_acked)
            .field_u64("unanswered", self.unanswered)
            .field_u64("escapes", self.escapes)
            .field_u64("critical_sent", self.critical_sent);
        let mut l = JsonObject::new();
        l.field_u64("p50", self.p50_micros)
            .field_u64("p90", self.p90_micros)
            .field_u64("p99", self.p99_micros)
            .field_u64("mean", self.mean_micros);
        let mut root = JsonObject::new();
        root.field_str("bench", "service")
            .field_raw("config", &c.finish())
            .field_raw("totals", &t.finish())
            .field_f64("ops_per_sec", self.ops_per_sec())
            .field_f64("shed_rate", self.shed_rate())
            .field_raw("latency_micros", &l.finish())
            .field_raw("phase_micros", &self.phases.to_json())
            .field_u64("elapsed_micros", self.elapsed_micros);
        if let Some(r) = self.redundancy {
            root.field_raw("redundancy", &r.to_json(self.ok));
        }
        root.field_str(
            "zero_escape",
            if self.escapes == 0 { "PASS" } else { "FAIL" },
        );
        root.finish()
    }
}

/// One pre-generated request with its send offset.
#[derive(Debug, Clone, Copy)]
struct Planned {
    at_micros: u64,
    req: Request,
}

/// Runs one load-generation campaign against `cfg.addr`, blocking until
/// every response is in (or the drain timeout expires).
pub fn run(cfg: &LoadgenConfig) -> LoadReport {
    // Pre-generate the whole schedule so the offered load is a pure
    // function of the seed.
    let mut arrivals = Arrivals::new(ArrivalConfig {
        seed: cfg.seed,
        ..cfg.arrivals
    });
    let mut gen = OperandGen::new(cfg.seed ^ 0x5e11_ce11_ab1e_0001);
    let mix = FormatMix::serving_default();
    let mut clock = 0u64;
    let schedule: Vec<Planned> = (0..cfg.requests)
        .map(|id| {
            clock += arrivals.next_gap_micros();
            Planned {
                at_micros: clock,
                req: Request {
                    id,
                    op: gen.mixed_operation(&mix),
                    deadline_micros: cfg.deadline_micros,
                    critical: cfg.critical_every > 0 && id % cfg.critical_every == 0,
                },
            }
        })
        .collect();
    // Round-robin split across connections.
    let conns = cfg.conns.max(1);
    let mut per_conn: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    for (k, p) in schedule.iter().enumerate() {
        per_conn[k % conns].push(*p);
    }

    let started = Instant::now();
    let mut workers = Vec::new();
    for (ci, plan) in per_conn.into_iter().enumerate() {
        let addr = cfg.addr.clone();
        let slow = ci < cfg.slow_conns;
        let drain = cfg.drain;
        workers.push(std::thread::spawn(move || {
            run_conn(&addr, plan, slow, drain, started)
        }));
    }
    // Garbage connections run alongside the clean traffic.
    let garbage = std::thread::spawn({
        let addr = cfg.addr.clone();
        let n = cfg.garbage_conns;
        let seed = cfg.seed;
        move || run_garbage(&addr, n, seed)
    });

    let mut report = LoadReport::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut queue: Vec<u64> = Vec::new();
    let mut exec: Vec<u64> = Vec::new();
    let mut transport: Vec<u64> = Vec::new();
    let mut lat_overloaded: Vec<u64> = Vec::new();
    let mut lat_deadline: Vec<u64> = Vec::new();
    for w in workers {
        let conn = w.join().expect("connection worker panicked");
        report.sent += conn.sent;
        report.ok += conn.ok;
        report.overloaded += conn.overloaded;
        report.deadline_exceeded += conn.deadline_exceeded;
        report.malformed_on_clean += conn.malformed;
        report.unanswered += conn.unanswered;
        report.escapes += conn.escapes;
        report.critical_sent += conn.critical_sent;
        latencies.extend(conn.latencies);
        queue.extend(conn.queue_micros);
        exec.extend(conn.exec_micros);
        transport.extend(conn.transport_micros);
        lat_overloaded.extend(conn.lat_overloaded);
        lat_deadline.extend(conn.lat_deadline);
        report.elapsed_micros = report.elapsed_micros.max(conn.elapsed_micros);
    }
    report.phases = PhaseBreakdown {
        queue: LatSummary::from_samples(&mut queue),
        exec: LatSummary::from_samples(&mut exec),
        transport: LatSummary::from_samples(&mut transport),
        overloaded: LatSummary::from_samples(&mut lat_overloaded),
        deadline: LatSummary::from_samples(&mut lat_deadline),
    };
    let (garbage_sent, garbage_acked) = garbage.join().expect("garbage worker panicked");
    report.garbage_sent = garbage_sent;
    report.garbage_acked = garbage_acked;
    latencies.sort_unstable();
    if !latencies.is_empty() {
        let q = |p: f64| {
            let rank = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
            latencies[rank - 1]
        };
        report.p50_micros = q(0.50);
        report.p90_micros = q(0.90);
        report.p99_micros = q(0.99);
        report.mean_micros = (latencies.iter().sum::<u64>() as f64 / latencies.len() as f64) as u64;
    }
    if let Some(addr) = &cfg.statusz_addr {
        report.redundancy = scrape_statusz(addr).map(|b| RedundancyStats::from_statusz(&b));
    }
    report
}

#[derive(Debug, Default)]
struct ConnReport {
    sent: u64,
    ok: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    malformed: u64,
    unanswered: u64,
    escapes: u64,
    critical_sent: u64,
    latencies: Vec<u64>,
    queue_micros: Vec<u64>,
    exec_micros: Vec<u64>,
    transport_micros: Vec<u64>,
    lat_overloaded: Vec<u64>,
    lat_deadline: Vec<u64>,
    elapsed_micros: u64,
}

/// Drives one connection: a sender thread paces the schedule while this
/// thread reads, timestamps and verifies responses until every sent id
/// is accounted for (or the drain timeout expires).
fn run_conn(
    addr: &str,
    plan: Vec<Planned>,
    slow: bool,
    drain: Duration,
    campaign_start: Instant,
) -> ConnReport {
    let mut report = ConnReport::default();
    if plan.is_empty() {
        return report;
    }
    let ops: HashMap<u64, Operation> = plan.iter().map(|p| (p.req.id, p.req.op)).collect();
    let critical_ids: std::collections::HashSet<u64> = plan
        .iter()
        .filter(|p| p.req.critical)
        .map(|p| p.req.id)
        .collect();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            report.sent = plan.len() as u64;
            report.unanswered = plan.len() as u64;
            return report;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            report.sent = plan.len() as u64;
            report.unanswered = plan.len() as u64;
            return report;
        }
    };

    // Sender thread: open-loop pacing off the shared campaign clock, so
    // bursts land simultaneously across connections.
    let sender = std::thread::spawn(move || {
        let mut w = stream;
        let mut sent_at: Vec<(u64, Instant)> = Vec::with_capacity(plan.len());
        for p in plan {
            let due = campaign_start + Duration::from_micros(p.at_micros);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let frame = encode_request(&p.req);
            let now = Instant::now();
            let ok = if slow {
                // Dribble the frame a byte at a time: the server's
                // reader must reassemble split writes without ever
                // treating a partial frame as malformed.
                frame.iter().all(|&b| {
                    std::thread::sleep(Duration::from_micros(50));
                    w.write_all(&[b]).is_ok()
                })
            } else {
                w.write_all(&frame).is_ok()
            };
            if !ok {
                break;
            }
            sent_at.push((p.req.id, now));
        }
        let _ = w.flush();
        sent_at
    });

    // Read loop: responses are timestamped on arrival.
    let mut answered: HashMap<u64, (Response, Instant)> = HashMap::new();
    let mut sender = Some(sender);
    let mut sender_done: Option<Vec<(u64, Instant)>> = None;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if sender_done.is_none() && sender.as_ref().is_some_and(|s| s.is_finished()) {
            let h = sender.take().expect("handle present");
            sender_done = Some(h.join().expect("sender panicked"));
            drain_deadline = Some(Instant::now() + drain);
        }
        if let Some(d) = drain_deadline {
            let all_in = sender_done
                .as_ref()
                .is_some_and(|s| s.iter().all(|(id, _)| answered.contains_key(id)));
            if all_in || Instant::now() > d {
                break;
            }
        }
        match read_frame(&mut read_half) {
            Ok(Some(body)) => {
                if let Ok(resp) = decode_response(&body) {
                    answered.insert(resp.id(), (resp, Instant::now()));
                } else {
                    break; // the server itself sent garbage — stop here
                }
            }
            Ok(None) => {
                // Server closed the stream. Anything still outstanding
                // will score as unanswered once the sender finishes.
                if sender_done.is_some() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(FrameError::Idle) => {}      // nothing yet: poll again
            Err(FrameError::Io(_)) => break, // reset or desynced stream
            Err(FrameError::Wire(_)) => break,
        }
    }
    let sent_at = match sender_done {
        Some(s) => s,
        None => sender
            .take()
            .expect("handle present")
            .join()
            .expect("sender panicked"),
    };
    report.sent = sent_at.len() as u64;

    // Score every sent id against its (timestamped, typed) response.
    let reference = FunctionalUnit::new();
    for (id, at) in &sent_at {
        if critical_ids.contains(id) {
            report.critical_sent += 1;
        }
        match answered.get(id) {
            Some((
                resp @ Response::Ok {
                    queue_micros,
                    exec_micros,
                    ..
                },
                arrived,
            )) => {
                report.ok += 1;
                let e2e = arrived.saturating_duration_since(*at).as_micros() as u64;
                report.latencies.push(e2e);
                // Queue-time vs service-time split: the server reports
                // its queue and execution shares; everything left is
                // wire transport plus scheduling slack.
                report.queue_micros.push(*queue_micros as u64);
                report.exec_micros.push(*exec_micros as u64);
                report.transport_micros.push(
                    e2e.saturating_sub(*queue_micros as u64)
                        .saturating_sub(*exec_micros as u64),
                );
                let op = ops[id];
                let got = resp.result(op.format).expect("an Ok answer");
                if !got.agrees_hw(&reference.execute(op)) {
                    report.escapes += 1;
                }
            }
            Some((Response::Overloaded { .. }, arrived)) => {
                report.overloaded += 1;
                report
                    .lat_overloaded
                    .push(arrived.saturating_duration_since(*at).as_micros() as u64);
            }
            Some((Response::DeadlineExceeded { .. }, arrived)) => {
                report.deadline_exceeded += 1;
                report
                    .lat_deadline
                    .push(arrived.saturating_duration_since(*at).as_micros() as u64);
            }
            Some((Response::Malformed { .. }, _)) => report.malformed += 1,
            None => report.unanswered += 1,
        }
    }
    report.elapsed_micros = campaign_start.elapsed().as_micros() as u64;
    report
}

/// Sends `n` adversarial frames on dedicated connections; each expects
/// a typed `Malformed` response before the server closes.
fn run_garbage(addr: &str, n: usize, seed: u64) -> (u64, u64) {
    let corpus = adversarial_frames(seed);
    let mut sent = 0u64;
    let mut acked = 0u64;
    for k in 0..n {
        let Ok(mut s) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = s.set_read_timeout(Some(Duration::from_secs(3)));
        let frame = &corpus[k % corpus.len()];
        if s.write_all(frame).is_err() {
            continue;
        }
        // Half-close so truncation-class frames are detectable at EOF —
        // the server must still answer on the open read half.
        let _ = s.shutdown(std::net::Shutdown::Write);
        sent += 1;
        let mut r = match s.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        let patience = Instant::now() + Duration::from_secs(10);
        loop {
            match read_frame(&mut r) {
                Ok(Some(body)) => {
                    if matches!(decode_response(&body), Ok(Response::Malformed { .. })) {
                        acked += 1;
                    }
                    break;
                }
                Err(FrameError::Idle) if Instant::now() < patience => {}
                _ => break,
            }
        }
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
    (sent, acked)
}

/// A deterministic corpus of malformed frames: truncated header,
/// oversized length prefix, zero-length body, wrong magic, wrong
/// version, bad format tag, trailing garbage, plus the v2→v3
/// negotiation edge cases (a truncated v2 body, a v2 frame dragging a
/// stray v3 flags byte, and a v3 frame missing its flags byte).
fn adversarial_frames(seed: u64) -> Vec<Vec<u8>> {
    let good = encode_request(&Request {
        id: seed,
        op: Operation::int64(seed, 3),
        deadline_micros: 0,
        critical: false,
    });
    let mut out = Vec::new();
    // Truncated header (2 of 4 length bytes, then close).
    out.push(good[..2].to_vec());
    // Oversized length prefix.
    let mut f = Vec::new();
    f.extend_from_slice(&(MAX_BODY + 1 + (seed as u32 % 1000)).to_le_bytes());
    out.push(f);
    // Zero-length body.
    out.push(0u32.to_le_bytes().to_vec());
    // Wrong magic.
    let mut f = good.clone();
    f[4] ^= 0xFF;
    out.push(f);
    // Wrong version.
    let mut f = good.clone();
    f[6] = 0x7E;
    out.push(f);
    // Bad format tag.
    let mut f = good.clone();
    f[16] = 0xEE;
    out.push(f);
    // Trailing garbage inside a consistent frame.
    let mut f = good.clone();
    f.extend_from_slice(b"zzz");
    let len = (f.len() - 4) as u32;
    f[..4].copy_from_slice(&len.to_le_bytes());
    out.push(f);
    // A valid v2 frame (v3 minus the flags byte) truncated mid-body:
    // the negotiation path must still salvage the id and answer.
    let mut v2 = good.clone();
    v2.truncate(good.len() - 1);
    let v2_len = (v2.len() - 4) as u32;
    v2[..4].copy_from_slice(&v2_len.to_le_bytes());
    v2[6] = 2;
    let mut f = v2.clone();
    f.truncate(4 + 20);
    f[..4].copy_from_slice(&20u32.to_le_bytes());
    out.push(f);
    // A v2 frame dragging a stray v3 flags byte (trailing garbage for
    // that version).
    let mut f = good.clone();
    f[6] = 2;
    out.push(f);
    // A v3 frame missing its flags byte (truncated body for v3).
    let mut f = v2;
    f[6] = 3;
    out.push(f);
    out
}
