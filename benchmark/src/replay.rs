//! In-process replay of a serve schedule: the serve workloads' timed
//! phase, and the source of the `server` and `resilient` per-layer
//! numbers.
//!
//! The same schedule the TCP client sends goes through
//! `wire::decode_request` → `Service::admit_traced` → `Service::tick` →
//! `take_responses_traced` → `wire::encode_response` on a wall-clock tick
//! loop that mirrors the server's service loop, with chaos applied through
//! `mfm_resilient::chaos::apply_event` keyed by admitted-request ordinal,
//! as the server does. Every span is taken from outside the crates.
//!
//! Each tick is charged to one cause from the registry-counter deltas it
//! produced, in a fixed priority order: rescue > vote > patrol > batch >
//! idle. Tick time, admission time and the loop's waits add up to the
//! loop's wall time.

use std::time::{Duration, Instant};

use mfm_gatesim::{NetId, Netlist, TechLibrary};
use mfm_resilient::chaos::{apply_event, ChaosPlan};
use mfm_server::server::ServerConfig;
use mfm_server::service::Service;
use mfm_server::wire::{decode_request, encode_request, encode_response, Response};
use mfm_telemetry::{Registry, TraceMinter};
use mfmult::{structural, FunctionalUnit, StructuralPorts};

use crate::client::{Outcomes, Planned};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Measured;

/// Tick causes in charging priority order.
pub const CAUSES: [&str; 5] = ["rescue", "vote", "patrol", "batch", "idle"];

/// Registry counters the benchmark reports, by registry name.
pub const COUNTERS: [&str; 9] = [
    "service.rescues",
    "service.tmr_votes",
    "service.dmr_batches",
    "pool.dmr_shadows",
    "pool.masked",
    "pool.patrol_slices",
    "pool.scrubs",
    "service.speculative_checks",
    "service.shed",
];

/// Counter groups whose deltas decide a tick's cause (index into
/// [`CAUSES`]); batches are read from the `service.batch_fill` count.
const CAUSE_COUNTERS: [(&str, usize); 8] = [
    ("service.rescues", 0),
    ("service.tmr_votes", 1),
    ("service.dmr_batches", 1),
    ("pool.dmr_shadows", 1),
    ("pool.masked", 1),
    ("pool.patrol_slices", 2),
    ("pool.scrubs", 2),
    ("service.speculative_checks", 2),
];

/// Builds the unit the server builds (the combinational one).
pub fn build_unit() -> (Netlist, StructuralPorts) {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let p = structural::build_unit(&mut n);
    (n, p)
}

/// Replays `plan` against an in-process service over `netlist` with
/// `server`'s configuration, recording spans on `tr` and per-layer values
/// on `m`. Returns the client-side view of every request.
#[allow(clippy::too_many_arguments)]
pub fn run(
    server: &ServerConfig,
    netlist: &Netlist,
    ports: &StructuralPorts,
    plan: &[Planned],
    deadline_ms: f64,
    drain: Duration,
    tr: &Tracer,
    m: &mut Measured,
) -> Outcomes {
    let registry = Registry::with_shards(1);
    let mut service = tr.span("server.service_new", 0, || {
        Service::new(netlist, ports, server.service, &registry)
    });
    let sites: Vec<NetId> = netlist.cells().iter().map(|c| c.output).collect();
    let chaos = server.chaos.map(|c| ChaosPlan::generate(&c));
    let counters: Vec<_> = CAUSE_COUNTERS
        .iter()
        .map(|(name, cause)| (registry.counter(name), *cause))
        .collect();
    let batches = registry.histogram("service.batch_fill");
    let frames: Vec<Vec<u8>> = plan.iter().map(|p| encode_request(&p.req)).collect();
    let mut minter = TraceMinter::new(0x7265_706c_6179);

    let tick_len = Duration::from_micros(server.service.micros_per_tick.max(1));
    let mut answered: Vec<Option<(Response, Instant)>> = vec![None; plan.len()];
    let mut outstanding = plan.len();
    let mut next_chaos = 0usize;
    let mut admitted = 0u64;
    let mut next = 0usize;
    let mut tick_no = 0u64;
    let mut tick_us: Vec<f64> = Vec::new();
    let mut cause_us = [0f64; 5];
    let (mut batch_tick_us, mut batch_ticks) = (0f64, 0u64);
    let (mut admit_ns, mut decode_ns, mut encode_ns) = (0u64, 0u64, 0u64);
    let (mut encodes, mut wait_ns, mut front_ns) = (0u64, 0u64, 0u64);

    let loop_span = tr.open("replay.loop", 0);
    let start = Instant::now();
    let mut next_tick = start + tick_len;
    let mut last_due = start;
    loop {
        let front = Instant::now();
        if let Some(plan) = &chaos {
            while next_chaos < plan.events.len() && plan.events[next_chaos].at_op <= admitted {
                apply_event(
                    service.engine_mut(),
                    &plan.events[next_chaos],
                    &sites,
                    ports.latency,
                );
                next_chaos += 1;
            }
        }
        // Admit everything due, as the server drains its event channel
        // before considering a tick.
        let now = Instant::now();
        while let Some(p) = plan.get(next) {
            let due = start + Duration::from_micros(p.at_micros);
            if due > now {
                break;
            }
            last_due = due;
            let id = p.req.id;
            let body = &frames[next][4..];
            let t0 = Instant::now();
            let req = tr
                .span("wire.decode", id, || decode_request(body))
                .expect("well-formed frame");
            let t1 = Instant::now();
            let refusal = tr.span("service.admit", id, || {
                service.admit_traced(0, &req, minter.mint())
            });
            let t2 = Instant::now();
            decode_ns += (t1 - t0).as_nanos() as u64;
            admit_ns += (t2 - t1).as_nanos() as u64;
            match refusal {
                Some(resp) => {
                    let t = Instant::now();
                    std::hint::black_box(tr.span("wire.encode", id, || encode_response(&resp)));
                    encode_ns += t.elapsed().as_nanos() as u64;
                    encodes += 1;
                    answered[next] = Some((resp, Instant::now()));
                    outstanding -= 1;
                }
                None => admitted += 1,
            }
            next += 1;
        }
        front_ns += front.elapsed().as_nanos() as u64;
        if next == plan.len() && (outstanding == 0 || Instant::now() > last_due + drain) {
            break;
        }
        let now = Instant::now();
        if now < next_tick {
            let wake = match plan.get(next) {
                Some(p) => next_tick.min(start + Duration::from_micros(p.at_micros)),
                None => next_tick,
            };
            let w = tr.open("replay.wait", 0);
            std::thread::sleep(wake.saturating_duration_since(now));
            tr.close(w);
            wait_ns += now.elapsed().as_nanos() as u64;
            continue;
        }
        let before: Vec<u64> = counters.iter().map(|(c, _)| c.get()).collect();
        let batches_before = batches.count();
        let t = Instant::now();
        let span = tr.open("service.tick", tick_no);
        service.tick();
        for (_, resp, _) in service.take_responses_traced() {
            let te = Instant::now();
            std::hint::black_box(tr.span("wire.encode", resp.id(), || encode_response(&resp)));
            encode_ns += te.elapsed().as_nanos() as u64;
            encodes += 1;
            let idx = resp.id() as usize;
            if answered[idx].is_none() {
                answered[idx] = Some((resp, Instant::now()));
                outstanding -= 1;
            }
        }
        tr.close(span);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let cause = counters
            .iter()
            .zip(&before)
            .filter(|((c, _), &b)| c.get() > b)
            .map(|((_, cause), _)| *cause)
            .min()
            .unwrap_or(if batches.count() > batches_before {
                3
            } else {
                4
            });
        cause_us[cause] += us;
        if batches.count() > batches_before {
            batch_tick_us += us;
            batch_ticks += 1;
        }
        tick_us.push(us);
        tick_no += 1;
        next_tick += tick_len;
        let now = Instant::now();
        if next_tick < now {
            next_tick = now + tick_len;
        }
    }
    let loop_ns = start.elapsed().as_nanos() as u64;
    tr.close(loop_span);

    let reference = FunctionalUnit::new();
    let mut out = Outcomes::default();
    let mut last = start;
    for (p, a) in plan.iter().zip(&answered) {
        let answered_s = a.as_ref().map_or(f64::INFINITY, |(_, t)| {
            last = last.max(*t);
            t.saturating_duration_since(start).as_secs_f64()
        });
        let due_s = p.at_micros as f64 / 1e6;
        out.score(
            &reference,
            p.req.op,
            a.as_ref().map(|(r, _)| r),
            due_s,
            answered_s,
            deadline_ms,
        );
    }
    out.elapsed_s = last.saturating_duration_since(start).as_secs_f64();

    let n = plan.len().max(1) as f64;
    let tick_total_us: f64 = tick_us.iter().sum();
    let loop_us = loop_ns as f64 / 1e3;
    m.set("wire.decode_ns", decode_ns as f64 / n);
    m.set("wire.encode_ns", encode_ns as f64 / encodes.max(1) as f64);
    m.set("service.admit_us", admit_ns as f64 / 1e3 / n);
    m.set("service.tick_us.p50", median(&tick_us));
    m.set("service.tick_us.p99", quantile(&tick_us, 0.99));
    m.set("service.busy_share", 1.0 - wait_ns as f64 / 1e3 / loop_us);
    m.set(
        "service.loop_coverage",
        (tick_total_us + (front_ns + wait_ns) as f64 / 1e3) / loop_us,
    );
    for (name, us) in CAUSES.iter().zip(cause_us) {
        m.set(&format!("service.tick_us.{name}"), us);
    }
    m.set("service.batch_tick_us", batch_tick_us / batch_ticks.max(1) as f64);
    m.set("service.batches", batches.count() as f64);
    m.set(
        "service.batch_fill",
        batches.sum() / batches.count().max(1) as f64 / mfm_gatesim::LANES as f64,
    );
    for name in COUNTERS {
        m.set(name, registry.counter(name).get() as f64);
    }
    m.set(
        "softfloat.ref_ns",
        out.verify_ns as f64 / out.verified.max(1) as f64,
    );
    m.check("service: zero escapes", service.escapes() == 0);
    out
}
