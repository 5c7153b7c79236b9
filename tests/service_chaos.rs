//! End-to-end service contract under chaos: a real TCP server (the
//! `mfm-server` front-end over the resilient pool) serving a live
//! loadgen campaign — bursts, a deliberately slow client and
//! adversarial garbage frames — while a seeded chaos plan injects
//! hardware faults underneath the traffic.
//!
//! The service contract is asserted from the *client's* side of the
//! wire, which is the only side that matters:
//!
//! 1. **Zero escapes** — every `Ok` response is verified bit-for-bit
//!    against the softfloat reference by the loadgen itself.
//! 2. **No silent drops** — every request sent got a typed response
//!    (`Ok`, `Overloaded`, `DeadlineExceeded`), and every garbage frame
//!    got a typed `Malformed`.
//! 3. **The server survives** — after the campaign (faults included)
//!    the `/metrics` endpoint still scrapes and carries the service
//!    counters, and the `/healthz`, `/statusz` and `/tracez` views
//!    answer.
//! 4. **Incidents are reconstructable** — a seeded fault that fails
//!    batch lanes produces at least one self-contained incident report
//!    whose event ring links the failure back to the originating
//!    request's trace, and every failed lane is still answered, exactly,
//!    in the tick that batched it.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use mfm_repro::gatesim::tech::TechLibrary;
use mfm_repro::gatesim::Netlist;
use mfm_repro::mfmult::structural::build_unit;
use mfm_repro::mfmult::Operation;
use mfm_repro::resilient::chaos::ChaosPlanConfig;
use mfm_repro::server::loadgen::{run, LoadgenConfig};
use mfm_repro::server::server::{spawn, ServerConfig};
use mfm_repro::server::service::{Service, ServiceConfig};
use mfm_repro::server::wire::{Request, Response};
use mfm_repro::telemetry::{json, Registry, TraceId};

#[test]
fn service_contract_holds_under_chaos_and_abuse() {
    let mut cfg = ServerConfig::default();
    cfg.service.seed = 2017;
    cfg.service.units = 2;
    cfg.service.micros_per_tick = 300;
    cfg.service.default_deadline_ticks = 2_000;
    cfg.chaos = Some(ChaosPlanConfig {
        seed: 2017,
        units: 2,
        ops: 96,
        faults: 12,
        ..ChaosPlanConfig::default()
    });
    let handle = spawn(cfg);

    let load = LoadgenConfig {
        addr: handle.addr.to_string(),
        seed: 2017,
        requests: 128,
        conns: 3,
        slow_conns: 1,
        garbage_conns: 2,
        deadline_micros: 0, // server default: generous, this is a debug build
        drain: Duration::from_secs(30),
        ..LoadgenConfig::default()
    };
    let report = run(&load);

    assert_eq!(
        report.escapes, 0,
        "wrong answers escaped to a client: {report:?}"
    );
    assert_eq!(
        report.unanswered, 0,
        "silently dropped requests: {report:?}"
    );
    assert_eq!(
        report.malformed_on_clean, 0,
        "clean traffic flagged malformed: {report:?}"
    );
    assert_eq!(report.sent, 128, "every scheduled request was sent");
    assert_eq!(
        report.garbage_acked, report.garbage_sent,
        "every adversarial frame must get a typed Malformed: {report:?}"
    );
    assert!(report.garbage_sent >= 2, "garbage connections ran");
    assert!(
        report.contract_holds(),
        "service contract violated: {report:?}"
    );

    // The server is still alive and observable: scrape /metrics over TCP.
    let mut sock = TcpStream::connect(handle.metrics_addr).expect("metrics endpoint reachable");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    sock.read_to_string(&mut body).expect("metrics scrape");
    assert!(
        body.starts_with("HTTP/1.0 200 OK"),
        "metrics served: {body:.100}"
    );
    for metric in [
        "service_accepted",
        "service_answered",
        "service_latency_ticks",
        "service_phase_micros_compiled_eval",
        "pool_escapes",
    ] {
        assert!(
            body.contains(metric),
            "{metric} missing from scrape:\n{body}"
        );
    }
    assert!(
        body.contains("# {trace_id="),
        "the latency histogram carries trace-id exemplars:\n{body}"
    );

    // The observability views answer with well-formed JSON.
    for (path, needle) in [
        ("/healthz", "\"status\":\"ok\""),
        ("/statusz", "\"tier\":"),
        ("/tracez", "\"slowest\":"),
    ] {
        let mut sock = TcpStream::connect(handle.metrics_addr).expect("endpoint reachable");
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        sock.read_to_string(&mut reply).expect("endpoint scrape");
        let json_body = reply.split("\r\n\r\n").nth(1).unwrap_or("");
        json::check(json_body)
            .unwrap_or_else(|e| panic!("{path} returned invalid JSON ({e}): {json_body}"));
        assert!(reply.contains(needle), "{path} payload: {reply}");
    }

    handle.stop();
}

/// A seeded chaos run that *guarantees* rescues: one pool unit's check
/// port is pinned stuck-at-true, so every batch routed through it fails
/// verification and every affected lane is answered from the reference.
/// The flight recorder must emit at least one incident report that
/// reconstructs the failure and names the originating request's trace.
#[test]
fn seeded_chaos_produces_reconstructable_incident_reports() {
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut netlist);
    let registry = Registry::new();
    let cfg = ServiceConfig {
        seed: 2017,
        units: 2,
        pending_cap: 64,
        ..ServiceConfig::default()
    };
    let mut svc = Service::new(&netlist, &ports, cfg, &registry);
    // Deterministic "chaos": pin unit 0's low product check bit. Even
    // products keep that bit at 0, so the stuck-at-true fault is
    // observable on every lane batched through unit 0.
    svc.engine_mut()
        .inject_stuck_at(0, ports.chk_p0[0], true, true);

    for k in 0..48u64 {
        let trace = TraceId::from_raw(0xC0DE_0000 + k);
        let req = Request {
            id: k,
            op: Operation::int64(k + 1, 2),
            deadline_micros: 0,
            critical: false,
        };
        assert!(svc.admit_traced(9, &req, trace).is_none());
        svc.tick();
        // Answered, exactly, in the tick that batched it.
        match svc.take_responses().as_slice() {
            [(9, Response::Ok { id, ph, pl, .. })] => {
                assert_eq!(*id, k);
                assert_eq!(((*ph as u128) << 64) | *pl as u128, (k + 1) as u128 * 2);
            }
            other => panic!("request {k}: expected one Ok, got {other:?}"),
        }
    }

    assert_eq!(svc.escapes(), 0, "no wrong answer under the pinned fault");
    let incidents = svc.take_incidents();
    assert!(
        !incidents.is_empty(),
        "the pinned fault must raise at least one incident report"
    );
    // Every report is self-contained, valid JSON with an event ring.
    for report in &incidents {
        json::check(report).unwrap_or_else(|e| panic!("invalid incident JSON ({e}): {report}"));
        assert!(
            report.contains("\"events\":["),
            "event ring present: {report}"
        );
    }
    // At least one report reconstructs the failure: the verify-mismatch
    // trigger and the check-failure event, tagged with the originating
    // request's trace id.
    let reconstructed = incidents.iter().any(|r| {
        r.contains("\"trace_id\":\"00000000c0de")
            && r.contains("\"trigger\":\"verify_mismatch\"")
            && r.contains("check_failure")
    });
    assert!(
        reconstructed,
        "an incident links the failure back to its originating trace: {incidents:#?}"
    );
    // Every failed lane was answered from the reference, and no lane
    // outlived its batch's tick.
    let failures = registry.counter("service.check_failures").get();
    assert!(failures > 0, "the pinned fault failed batch lanes");
    assert_eq!(registry.counter("service.rescues").get(), failures);
    assert_eq!(registry.counter("service.answered").get(), 48);
    let tracez = svc.tracez_json();
    json::check(&tracez).unwrap();
    assert!(
        !tracez.contains("\"rescue\""),
        "no rescue phase is left to report: {tracez}"
    );
}
