//! Open-loop load generator and contract verifier for the
//! multiplication service.
//!
//! Usage: `loadgen [--addr A] [--requests N] [--conns N] [--slow N]
//! [--garbage N] [--seed S] [--mean-gap MICROS] [--deadline MICROS]
//! [--critical N] [--statusz A] [--json <path>]` (defaults:
//! 127.0.0.1:7117, 512 requests over 4 connections, 1 slow client,
//! 2 adversarial-frame connections, seed 2017, 200 µs mean gap with
//! bursts, 0 = server-default deadline, no critical requests, no
//! statusz scrape).
//!
//! `--critical N` marks every N-th request with the wire-v3 `critical`
//! flag (server-side TMR voting); `--statusz A` scrapes the server's
//! `/statusz` redundancy counters from metrics address `A` after the
//! run, folding vote/hedge/patrol overhead into the report and JSON.
//!
//! Replays a seeded mixed-format arrival schedule against a running
//! `serve` instance, verifies **every** `Ok` bit-for-bit against the
//! softfloat reference, audits that every sent request got a typed
//! response, and that every adversarial frame got a typed `Malformed`.
//! Exits 1 if the service contract does not hold.

use mfm_bench::cli;
use mfm_server::loadgen::{run, LoadgenConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" | "--requests" | "--conns" | "--slow" | "--garbage" | "--seed"
            | "--mean-gap" | "--deadline" | "--critical" | "--statusz" | "--json" => {
                it.next();
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: loadgen [--addr A] [--requests N] \
                     [--conns N] [--slow N] [--garbage N] [--seed S] [--mean-gap MICROS] \
                     [--deadline MICROS] [--critical N] [--statusz A] [--json <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    let mut cfg = LoadgenConfig {
        addr: cli::arg_str(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7117".to_string()),
        seed: cli::arg_value(&args, "--seed", 2017),
        requests: cli::arg_value(&args, "--requests", 512),
        conns: cli::arg_value(&args, "--conns", 4) as usize,
        slow_conns: cli::arg_value(&args, "--slow", 1) as usize,
        garbage_conns: cli::arg_value(&args, "--garbage", 2) as usize,
        deadline_micros: cli::arg_value(&args, "--deadline", 0) as u32,
        critical_every: cli::arg_value(&args, "--critical", 0),
        statusz_addr: cli::arg_str(&args, "--statusz"),
        ..LoadgenConfig::default()
    };
    cfg.arrivals.seed = cfg.seed;
    cfg.arrivals.mean_gap_micros = cli::arg_value(&args, "--mean-gap", 200) as f64;

    println!("=== Service load run: open-loop mixed-format arrivals ===\n");
    let report = run(&cfg);
    println!(
        "sent {} | ok {} | overloaded {} | deadline-exceeded {} | unanswered {}",
        report.sent, report.ok, report.overloaded, report.deadline_exceeded, report.unanswered
    );
    println!(
        "garbage frames: {} sent, {} answered with typed Malformed",
        report.garbage_sent, report.garbage_acked
    );
    println!(
        "throughput {:.0} ops/s | shed rate {:.4} | latency p50 {} µs, p90 {} µs, p99 {} µs",
        report.ops_per_sec(),
        report.shed_rate(),
        report.p50_micros,
        report.p90_micros,
        report.p99_micros
    );
    println!(
        "phase split (Ok): queue p50 {} / p99 {} µs | exec p50 {} / p99 {} µs | transport p50 {} / p99 {} µs",
        report.phases.queue.p50,
        report.phases.queue.p99,
        report.phases.exec.p50,
        report.phases.exec.p99,
        report.phases.transport.p50,
        report.phases.transport.p99
    );
    if let Some(r) = report.redundancy {
        println!(
            "redundancy: {} votes ({} mismatched) | {} DMR batches | \
             {} promotions | patrol {}/{} slices failed",
            r.votes,
            r.vote_mismatches,
            r.dmr_batches,
            r.promotions,
            r.patrol_failures,
            r.patrol_slices
        );
    }
    println!(
        "zero escapes: {}",
        if report.escapes == 0 {
            "PASS — every Ok matched the softfloat reference bit-for-bit".to_string()
        } else {
            format!(
                "FAIL — {} wrong answer(s) escaped to a client",
                report.escapes
            )
        }
    );

    if let Some(path) = cli::json_path(&args) {
        std::fs::write(&path, report.to_json(&cfg)).expect("write JSON report");
        println!("wrote {}", path.display());
    }

    if !report.contract_holds() {
        eprintln!("service contract VIOLATED");
        std::process::exit(1);
    }
    println!("service contract holds: no silent drops, no escapes");
}
