//! Multiplication-as-a-service front-end: binds the TCP request and
//! Prometheus metrics listeners and serves until killed.
//!
//! Usage: `serve [--addr A] [--metrics-addr A] [--units N] [--spares N]
//! [--patrol N] [--pending N] [--tick-micros N] [--deadline-ticks N]
//! [--seed S] [--chaos N] [--byzantine P] [--incident-dir D]
//! [--pipelined]` (defaults: 127.0.0.1:7117 requests, 127.0.0.1:7118
//! metrics, 4 units, 1 hot spare, patrol slices of 8 battery ops,
//! pending cap 256, 500 µs/tick, 400-tick default deadline, seed 2017,
//! no chaos, incident reports kept in-memory only, combinational
//! build).
//!
//! The metrics listener also serves `/healthz`, `/statusz` and
//! `/tracez`; `--incident-dir D` persists every flight-recorder
//! incident report as `D/incident_<n>.json`.
//!
//! `--chaos N` arms a seeded plan of N fault events (stuck-ats, SEUs,
//! glitch storms, field replacements) injected underneath live traffic,
//! keyed by admitted-request ordinal — the service must keep its
//! zero-escape and no-silent-drop contract while the hardware misbehaves.
//! SEUs and glitch storms act only on the engine's own dispatch path,
//! which the service does not use, so they are inert here.
//! `--byzantine P` makes P percent of those fault events scrub-clean
//! Byzantine output latches that only the reference comparison catches.
//!
//! The process prints the bound addresses on stdout (`listening <addr>` /
//! `metrics <addr>`) so scripts can scrape them, then parks; stop it with
//! a signal.

use mfm_bench::cli;
use mfm_resilient::chaos::ChaosPlanConfig;
use mfm_server::server::{spawn, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" | "--metrics-addr" | "--units" | "--spares" | "--patrol" | "--pending"
            | "--tick-micros" | "--deadline-ticks" | "--seed" | "--chaos" | "--byzantine"
            | "--incident-dir" => {
                it.next();
            }
            "--pipelined" => {}
            other => {
                eprintln!(
                    "unknown argument {other}; usage: serve [--addr A] [--metrics-addr A] \
                     [--units N] [--spares N] [--patrol N] [--pending N] \
                     [--tick-micros N] [--deadline-ticks N] [--seed S] [--chaos N] \
                     [--byzantine P] [--incident-dir D] [--pipelined]"
                );
                std::process::exit(2);
            }
        }
    }
    let mut cfg = ServerConfig {
        addr: cli::arg_str(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7117".to_string()),
        metrics_addr: cli::arg_str(&args, "--metrics-addr")
            .unwrap_or_else(|| "127.0.0.1:7118".to_string()),
        pipelined: cli::has_flag(&args, "--pipelined"),
        incident_dir: cli::arg_str(&args, "--incident-dir").map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    cfg.service.seed = cli::arg_value(&args, "--seed", 2017);
    cfg.service.units = cli::arg_value(&args, "--units", 4) as usize;
    cfg.service.engine.spares = cli::arg_value(&args, "--spares", 1) as usize;
    cfg.service.engine.patrol_slice = cli::arg_value(&args, "--patrol", 8) as usize;
    cfg.service.pending_cap = cli::arg_value(&args, "--pending", 256) as usize;
    cfg.service.micros_per_tick = cli::arg_value(&args, "--tick-micros", 500);
    cfg.service.default_deadline_ticks = cli::arg_value(&args, "--deadline-ticks", 400);
    let faults = cli::arg_value(&args, "--chaos", 0) as usize;
    if faults > 0 {
        cfg.chaos = Some(ChaosPlanConfig {
            seed: cfg.service.seed ^ 0x00c4_a055,
            units: cfg.service.units,
            ops: 512,
            faults,
            byzantine_fraction: cli::arg_value(&args, "--byzantine", 0).min(100) as f64 / 100.0,
            ..ChaosPlanConfig::default()
        });
    }
    let handle = spawn(cfg);
    println!("listening {}", handle.addr);
    println!("metrics {}", handle.metrics_addr);
    // Park until killed; the listeners run on their own threads.
    loop {
        std::thread::park();
    }
}
