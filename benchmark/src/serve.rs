//! `serve_clean` and `serve_faults`: the multiplication service with the
//! `serve` binary's defaults (4 units, 1 hot spare, patrol slices of 8,
//! pending cap 256, engine queue 8, 500 µs ticks, 400-tick default
//! deadline, seed 2017, combinational build) under a seeded open-loop
//! schedule.
//!
//! - `serve_clean`: no chaos, mean gap 1000 µs — below capacity, so
//!   latency shows the happy-path service-thread layers (batching, the
//!   reference vote, patrol, ticks).
//! - `serve_faults`: `--chaos 6 --byzantine 34`, every 8th request
//!   critical, mean gap 5000 µs — above the degraded capacity, so goodput
//!   measures capacity under faults and rescue, DMR, TMR and masking do
//!   most of the work.
//!
//! The timed phase replays the schedule through the service core on the
//! wall clock, in process ([`crate::replay`]): the same tick loop the
//! server's service thread runs, without sockets. Through TCP the median
//! latency flips between two levels from run to run on a 2-CPU host (one
//! service tick apart), so the end-to-end figures come from the replay.
//! The traced run also sends the schedule through `server::spawn` and the
//! benchmark's own TCP client, scrapes `/metrics`, and reports the
//! client-side figures and the front-end gap per layer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mfm_gatesim::{CompiledNetlist, Netlist};
use mfm_resilient::chaos::ChaosPlanConfig;
use mfm_server::server::{spawn, ServerConfig, ServerHandle};
use mfm_server::service::Service;
use mfm_telemetry::Registry;
use mfmult::selfcheck::{run_scrub_compiled, scrub_battery};
use mfmult::StructuralPorts;

use crate::client::{self, Outcomes, Planned, Profile};
use crate::replay::{self, COUNTERS};
use crate::stats::{median, quantile};
use crate::{Measured, RunConfig};

/// The server's own default deadline: 400 ticks of 500 µs.
pub const DEADLINE_MS: f64 = 200.0;

/// How long the client waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(30);

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No chaos, below capacity.
    Clean,
    /// Chaos and Byzantine faults, above the degraded capacity.
    Faults,
}

impl Mode {
    /// The client's traffic shape.
    pub fn profile(self) -> Profile {
        match self {
            Mode::Clean => Profile {
                mean_gap_micros: 1000.0,
                critical_every: 0,
            },
            Mode::Faults => Profile {
                mean_gap_micros: 5000.0,
                critical_every: 8,
            },
        }
    }
}

/// The server configuration `serve` ships with (`--chaos 6 --byzantine
/// 34` added for [`Mode::Faults`]), on ephemeral local ports.
pub fn server_config(mode: Mode) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    cfg.service.seed = 2017;
    cfg.service.units = 4;
    cfg.service.engine.spares = 1;
    cfg.service.engine.patrol_slice = 8;
    cfg.service.pending_cap = 256;
    cfg.service.engine.queue_depth = 8;
    cfg.service.micros_per_tick = 500;
    cfg.service.default_deadline_ticks = 400;
    if mode == Mode::Faults {
        cfg.chaos = Some(ChaosPlanConfig {
            seed: cfg.service.seed ^ 0x00c4_a055,
            units: cfg.service.units,
            ops: 512,
            faults: 6,
            byzantine_fraction: 0.34,
            ..ChaosPlanConfig::default()
        });
    }
    cfg
}

/// One `GET path` against the metrics listener; the body, if any.
fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .ok()?;
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .filter(|b| !b.is_empty())
}

/// Spawns the server and waits until its service thread answers a
/// `/healthz` scrape (the netlist and pool are built by then).
fn spawn_ready(cfg: &ServerConfig) -> ServerHandle {
    let handle = spawn(cfg.clone());
    let give_up = Instant::now() + Duration::from_secs(60);
    while http_get(handle.metrics_addr, "/healthz").is_none() {
        assert!(Instant::now() < give_up, "server never became ready");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle
}

/// The value of a Prometheus sample line `name value`.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// The share of the schedule treated as warm-up: the chaos plan lands
/// within its first 384 admissions (about 1.5 s of `serve_faults`
/// traffic), and the degraded pool settles after that.
const WARM_UP: f64 = 0.3;

/// Width of the windows, by due instant, that the steady latency
/// quantiles are taken over. The host's speed shifts for seconds at a
/// time and service latency follows it, so each quantile is the median
/// of its per-window values: a slow spell shorter than half the steady
/// part moves it little.
const WINDOW_S: f64 = 1.0;

/// The steady part of a run: requests due, and answers arriving, after
/// the warm-up share of the schedule and before its end.
#[derive(Debug, Clone, Copy)]
pub struct Steady {
    /// `Ok` answers per second.
    pub ops_per_s: f64,
    /// Median `Ok` latency from the due instant, ms (median over
    /// windows).
    pub lat_p50_ms: f64,
    /// 90th-percentile `Ok` latency from the due instant, ms (median
    /// over windows).
    pub lat_p90_ms: f64,
    /// 75th-percentile `Ok` latency from the due instant, ms (median
    /// over windows).
    pub lat_p75_ms: f64,
    /// Share of sent requests answered `Ok` within the deadline.
    pub slo_ok_share: f64,
}

/// See [`Steady`].
pub fn steady(o: &Outcomes, seconds: f64) -> Steady {
    let from = seconds * WARM_UP;
    let windows = (((seconds - from) / WINDOW_S) as usize).max(1);
    let (mut answered, mut sent, mut in_slo) = (0u64, 0u64, 0u64);
    let mut lat = vec![Vec::new(); windows];
    for s in &o.samples {
        if s.ok && s.answered_s >= from && s.answered_s < seconds {
            answered += 1;
        }
        if s.due_s >= from {
            sent += 1;
            if s.ok {
                let w = (((s.due_s - from) / WINDOW_S) as usize).min(windows - 1);
                lat[w].push((s.answered_s - s.due_s) * 1e3);
                in_slo += u64::from(s.in_slo);
            }
        }
    }
    let windowed = |q: f64| {
        let per: Vec<f64> = lat
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        median(&per)
    };
    Steady {
        ops_per_s: answered as f64 / (seconds - from),
        lat_p50_ms: windowed(0.5),
        lat_p90_ms: windowed(0.9),
        lat_p75_ms: windowed(0.75),
        slo_ok_share: in_slo as f64 / sent.max(1) as f64,
    }
}

/// Runs one serve workload.
pub fn run(cfg: &RunConfig, mode: Mode, m: &mut Measured) {
    let tr = &cfg.tracer;
    let server_cfg = server_config(mode);
    let plan = tr.span("schedule", 0, || {
        client::schedule(cfg.seed, mode.profile(), cfg.seconds)
    });

    // Set-up, repeated before and after the timed phase, so that the
    // median spans the run: the unit netlist and the service core the
    // server builds. The first netlist serves the run.
    let setup_once = |rep: u64| {
        tr.span("setup", rep, || {
            let (n, p) = tr.span("core.build", rep, replay::build_unit);
            tr.span("server.service_new", rep, || {
                drop(Service::new(
                    &n,
                    &p,
                    server_cfg.service,
                    &Registry::with_shards(1),
                ))
            });
            (n, p)
        })
    };
    let reps = cfg.sizes.setup_reps as u64;
    let mut setup_s = Vec::new();
    let mut unit = None;
    for rep in 0..reps {
        let t0 = if rep == 0 {
            cfg.started
        } else {
            Instant::now()
        };
        let u = setup_once(rep);
        setup_s.push(t0.elapsed().as_secs_f64());
        unit.get_or_insert(u);
    }
    let (netlist, ports) = unit.expect("at least one set-up");

    let replayed = tr.span("timed", 0, || {
        replay::run(
            &server_cfg,
            &netlist,
            &ports,
            &plan,
            DEADLINE_MS,
            DRAIN,
            tr,
            m,
        )
    });
    tr.span("setup_after", 0, || {
        for rep in reps..2 * reps {
            let t0 = Instant::now();
            drop(setup_once(rep));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    });
    m.set("setup_s", median(&setup_s));

    m.attempted_ops += replayed.sent;
    m.failed_ops += replayed.unanswered + replayed.wrong;
    m.check("every request answered", replayed.unanswered == 0);
    m.check("zero wrong answers", replayed.wrong == 0);
    m.check("the schedule is not empty", replayed.sent > 0);
    let w = steady(&replayed, cfg.seconds);
    m.set("ops_per_s", w.ops_per_s);
    m.set("lat_p50_ms", w.lat_p50_ms);
    m.set("lat_p75_ms", w.lat_p75_ms);
    m.set("lat_p90_ms", w.lat_p90_ms);

    if tr.enabled() {
        tr.span("probes", 0, || patrol_probe(cfg, &server_cfg, &netlist, &ports, m));
        tr.span("tcp", 0, || tcp(cfg, &server_cfg, &plan, w.lat_p50_ms, m));
    }
}

/// Rounds of the patrol probe: each replays every slice of the battery.
const PATROL_PROBE_ROUNDS: usize = 16;

/// What one patrol slice costs on the service thread: the engine's
/// compiled scrub (`run_scrub_compiled`) of `patrol_slice` battery
/// operations against a healthy unit's empty fault overlay, timed over
/// every slice of the battery. Reported next to the cost of a tick that
/// batches, because the tick-by-cause split charges a tick that does
/// both to patrol.
fn patrol_probe(
    cfg: &RunConfig,
    server_cfg: &ServerConfig,
    netlist: &Netlist,
    ports: &StructuralPorts,
    m: &mut Measured,
) {
    let tr = &cfg.tracer;
    let prog = CompiledNetlist::compile(netlist).expect("the unit is acyclic");
    let battery = scrub_battery(false);
    let slice = server_cfg.service.engine.patrol_slice.max(1);
    let mut us = Vec::new();
    for round in 0..PATROL_PROBE_ROUNDS as u64 {
        for part in battery.chunks(slice) {
            let t = Instant::now();
            let ok = tr.span("resilient.patrol_slice", round, || {
                run_scrub_compiled(&prog, ports, &[], part)
            });
            us.push(t.elapsed().as_secs_f64() * 1e6);
            m.check("clean patrol slices pass", ok.is_ok());
        }
    }
    m.set("resilient.patrol_slice_us", median(&us));
}

/// The same schedule through `server::spawn` and the TCP client: the
/// client-side figures, the `/metrics` scrape and the front-end gap.
fn tcp(
    cfg: &RunConfig,
    server_cfg: &ServerConfig,
    plan: &[Planned],
    replay_p50: f64,
    m: &mut Measured,
) {
    let tr = &cfg.tracer;
    let handle = tr.span("server.spawn", 0, || spawn_ready(server_cfg));
    let outcomes = tr.span("client", 0, || {
        client::run(handle.addr, plan, cfg.threads, DEADLINE_MS, DRAIN)
    });
    let scrape = tr.span("scrape", 0, || http_get(handle.metrics_addr, "/metrics"));
    tr.span("server.stop", 0, || handle.stop());
    let o = match outcomes {
        Ok(o) => o,
        Err(e) => {
            m.check(&format!("client I/O: {e}"), false);
            return;
        }
    };
    m.attempted_ops += o.sent;
    m.failed_ops += o.unanswered + o.wrong;
    m.check("tcp: every request answered", o.unanswered == 0);
    m.check("tcp: zero wrong answers (escapes)", o.wrong == 0);
    let w = steady(&o, cfg.seconds);
    let sent = o.sent.max(1) as f64;
    m.set("tcp.ops_per_s", w.ops_per_s);
    m.set("tcp.lat_p50_ms", w.lat_p50_ms);
    m.set("slo_ok_share", w.slo_ok_share);
    m.set("goodput_ops_per_s", o.ok as f64 / o.elapsed_s.max(1e-9));
    let lat = o.ok_latencies_ms();
    m.set("lat_p99_ms", quantile(&lat, 0.99));
    m.set(
        "fail_share",
        (o.refused + o.expired + o.unanswered + o.wrong) as f64 / sent,
    );
    m.set("front_end_gap_ms", w.lat_p50_ms - replay_p50);
    m.set("client.late_ms", quantile(&o.late_ms, 0.99));
    m.set("client.lat_samples", lat.len() as f64);
    m.set("server.reported_queue_us", median(&o.reported_queue_us));

    let scrape = scrape.unwrap_or_default();
    m.check("metrics scrape answered", !scrape.is_empty());
    let prom = |name: &str| prom_value(&scrape, &name.replace('.', "_"));
    let batches = prom("service.batch_fill_count");
    m.set("scrape.service.batches", batches);
    m.set(
        "scrape.service.batch_fill",
        prom("service.batch_fill_sum") / batches.max(1.0) / mfm_gatesim::LANES as f64,
    );
    for name in COUNTERS {
        m.set(&format!("scrape.{name}"), prom(name));
    }
    m.check("server: zero escapes", prom("pool.escapes") == 0.0);
}
