//! The hardened TCP front-end: hand-rolled thread-per-connection server
//! speaking the [`crate::wire`] protocol, with one *service thread*
//! owning all non-`Send` state (the netlist, the engine pool and the
//! metrics registry) behind an event channel.
//!
//! Connection life cycle:
//!
//! - The accept loop assigns each connection a client id and spawns a
//!   **reader** thread (strict frame parsing with an idle read timeout)
//!   and a **writer** thread (response fan-out with a write timeout —
//!   a slow client that stops draining its socket is disconnected, it
//!   cannot stall the service thread).
//! - A malformed frame is answered with a typed `Malformed` response
//!   and then the connection is closed: after a framing error the
//!   stream position cannot be trusted, so strict teardown *is* the
//!   leak-avoidance strategy.
//! - The service thread multiplexes protocol events with the tick
//!   cadence: it waits on the event channel with a timeout equal to the
//!   time remaining in the current tick, so request admission is
//!   immediate while [`Service::tick`] keeps its fixed beat.
//! - A tiny HTTP listener serves `GET /metrics` (Prometheus text with
//!   trace-id exemplars), `GET /healthz` (liveness + escape invariant),
//!   `GET /statusz` (tier, queue depths, breaker states) and
//!   `GET /tracez` (slowest recent traces) by round-tripping a scrape
//!   request through the service thread — the registry itself is
//!   `Send + Sync`, but the service state it describes lives there.
//! - Every request frame is stamped with a [`TraceId`] at decode, in
//!   the reader thread, and the id rides the request through admission,
//!   batching, verification and write-back. Incident reports snapshotted by
//!   the service's flight recorder are persisted to
//!   [`ServerConfig::incident_dir`] as they are produced.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfm_gatesim::tech::TechLibrary;
use mfm_gatesim::{NetId, Netlist};
use mfm_resilient::chaos::{apply_event, ChaosPlan, ChaosPlanConfig};
use mfm_telemetry::{Registry, TraceId, TraceMinter};
use mfmult::pipeline::{build_pipelined_unit_opts, PipelinePlacement};
use mfmult::structural::{build_unit, UnitOptions};

use crate::service::{Service, ServiceConfig};
use crate::wire::{
    self, decode_request, encode_response, read_frame, salvage_id, FrameError, Response,
};

/// Server policy knobs on top of the [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request listener bind address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Metrics listener bind address (port 0 for ephemeral).
    pub metrics_addr: String,
    /// The deterministic core's policy.
    pub service: ServiceConfig,
    /// Pipelined (`true`) or combinational unit build.
    pub pipelined: bool,
    /// Per-read timeout on connection sockets. Between frames it acts
    /// as a poll interval (a quiet client stays connected — it may be
    /// waiting on responses); *mid-frame* it is a stall bound, and a
    /// client that dribbles a partial frame then hangs past it is torn
    /// down.
    pub read_timeout: Duration,
    /// Per-connection write timeout; a client that stops draining its
    /// socket is disconnected instead of backing the server up.
    pub write_timeout: Duration,
    /// Optional chaos plan injected underneath live traffic, keyed by
    /// admitted-request ordinal.
    pub chaos: Option<ChaosPlanConfig>,
    /// Directory incident reports are written into (one
    /// `incident_<n>.json` per report). `None` keeps them in-memory
    /// only (visible through `/statusz` counts).
    pub incident_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig::default(),
            pipelined: false,
            read_timeout: Duration::from_secs(1),
            write_timeout: Duration::from_secs(2),
            chaos: None,
            incident_dir: None,
        }
    }
}

/// Which view a scrape connection asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScrapeKind {
    /// `GET /metrics` — Prometheus text (also the fallback for any
    /// unrecognized path, preserving the historical behaviour).
    Metrics,
    /// `GET /healthz` — liveness JSON.
    Healthz,
    /// `GET /statusz` — degradation/queue/breaker JSON.
    Statusz,
    /// `GET /tracez` — slowest recent traces JSON.
    Tracez,
}

impl ScrapeKind {
    fn from_request_line(line: &str) -> ScrapeKind {
        let path = line.split_whitespace().nth(1).unwrap_or("/metrics");
        match path.split('?').next().unwrap_or(path) {
            "/healthz" => ScrapeKind::Healthz,
            "/statusz" => ScrapeKind::Statusz,
            "/tracez" => ScrapeKind::Tracez,
            _ => ScrapeKind::Metrics,
        }
    }

    const fn content_type(self) -> &'static str {
        match self {
            ScrapeKind::Metrics => "text/plain; version=0.0.4",
            _ => "application/json",
        }
    }
}

/// Events flowing into the service thread.
enum Event {
    /// A connection opened; the sender fans responses back to its
    /// writer thread.
    Connected { client: u64, tx: Sender<Vec<u8>> },
    /// A well-formed request arrived, already stamped with the trace id
    /// minted at frame decode.
    Request {
        client: u64,
        req: wire::Request,
        trace: TraceId,
    },
    /// A frame failed strict parsing (`id` salvaged when possible); the
    /// reader answers and closes after this.
    Malformed { client: u64, id: u64, code: u8 },
    /// The connection is gone (EOF, error or timeout).
    Disconnected { client: u64 },
    /// An HTTP scrape wants one of the observability views.
    Scrape {
        kind: ScrapeKind,
        reply: SyncSender<String>,
    },
}

/// Handle to a running server. Dropping it does *not* stop the server;
/// call [`ServerHandle::stop`].
pub struct ServerHandle {
    /// Bound request-listener address.
    pub addr: SocketAddr,
    /// Bound metrics-listener address.
    pub metrics_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Stops accepting, winds down the service thread and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.service_thread.take() {
            let _ = h.join();
        }
    }
}

/// Starts the server and returns once both listeners are bound.
///
/// # Panics
///
/// Panics if either listener cannot bind.
pub fn spawn(cfg: ServerConfig) -> ServerHandle {
    let listener = TcpListener::bind(&cfg.addr).expect("bind request listener");
    let metrics_listener = TcpListener::bind(&cfg.metrics_addr).expect("bind metrics listener");
    let addr = listener.local_addr().expect("listener addr");
    let metrics_addr = metrics_listener.local_addr().expect("metrics addr");
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Event>();

    // Accept loop for request connections.
    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        let read_timeout = cfg.read_timeout;
        let write_timeout = cfg.write_timeout;
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        std::thread::spawn(move || {
            accept_loop(listener, tx, stop, read_timeout, write_timeout);
        });
    }

    // Metrics HTTP listener.
    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        metrics_listener
            .set_nonblocking(true)
            .expect("nonblocking metrics listener");
        std::thread::spawn(move || {
            metrics_loop(metrics_listener, tx, stop);
        });
    }

    // The service thread: owns the netlist, the engine and the registry.
    let service_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || service_loop(cfg, rx, stop))
    };

    ServerHandle {
        addr,
        metrics_addr,
        stop,
        service_thread: Some(service_thread),
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
    write_timeout: Duration,
) {
    let mut next_client = 1u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let client = next_client;
                next_client += 1;
                spawn_connection(
                    client,
                    stream,
                    tx.clone(),
                    Arc::clone(&stop),
                    read_timeout,
                    write_timeout,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Spawns the reader and writer threads for one accepted connection.
fn spawn_connection(
    client: u64,
    stream: TcpStream,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
    write_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (resp_tx, resp_rx) = mpsc::channel::<Vec<u8>>();
    if tx
        .send(Event::Connected {
            client,
            tx: resp_tx,
        })
        .is_err()
    {
        return;
    }
    // Writer: drains encoded responses. A write timeout or error tears
    // the connection down (slow-client protection).
    std::thread::spawn(move || {
        let mut w = write_half;
        for frame in resp_rx {
            if w.write_all(&frame).is_err() {
                let _ = w.shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        let _ = w.shutdown(std::net::Shutdown::Both);
    });
    // Reader: strict parse loop; every deviation is answered typed and
    // the connection is closed. Each decoded frame is stamped with a
    // trace id right here, before it enters the service at all, so the
    // trace covers the full in-server lifetime of the request.
    std::thread::spawn(move || {
        let mut r = stream;
        let mut minter =
            TraceMinter::new(0x6D66_6D74_7263 ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        loop {
            match read_frame(&mut r) {
                Ok(Some(body)) => match decode_request(&body) {
                    Ok(req) => {
                        let trace = minter.mint();
                        if tx.send(Event::Request { client, req, trace }).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Event::Malformed {
                            client,
                            id: salvage_id(&body),
                            code: e.code(),
                        });
                        break;
                    }
                },
                Ok(None) => break, // clean EOF
                Err(FrameError::Wire(e)) => {
                    let _ = tx.send(Event::Malformed {
                        client,
                        id: 0,
                        code: e.code(),
                    });
                    break;
                }
                // A quiet client is NOT a dead client: it may simply be
                // waiting on responses the service is still computing.
                // Keep polling; teardown comes from EOF, a real error,
                // a mid-frame stall, or server shutdown.
                Err(FrameError::Idle) => {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(FrameError::Io(_)) => break, // reset or mid-frame stall
            }
        }
        let _ = tx.send(Event::Disconnected { client });
        let _ = r.shutdown(std::net::Shutdown::Read);
    });
}

/// Minimal HTTP/1.0 exposition endpoint. The request line's path picks
/// the view — `/metrics`, `/healthz`, `/statusz` or `/tracez` — and any
/// unrecognized path falls back to the Prometheus text, preserving the
/// historical "anything gets metrics" behaviour.
fn metrics_loop(listener: TcpListener, tx: Sender<Event>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut buf = [0u8; 512];
                let n = stream.read(&mut buf).unwrap_or(0);
                let head = String::from_utf8_lossy(&buf[..n]);
                let kind = ScrapeKind::from_request_line(head.lines().next().unwrap_or(""));
                let (reply_tx, reply_rx) = mpsc::sync_channel::<String>(1);
                let body = if tx
                    .send(Event::Scrape {
                        kind,
                        reply: reply_tx,
                    })
                    .is_ok()
                {
                    reply_rx
                        .recv_timeout(Duration::from_secs(2))
                        .unwrap_or_default()
                } else {
                    String::new()
                };
                let _ = write!(
                    stream,
                    "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\n\r\n{}",
                    kind.content_type(),
                    body.len(),
                    body
                );
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// The service thread body: builds the non-`Send` state locally, then
/// multiplexes protocol events with the tick cadence.
fn service_loop(cfg: ServerConfig, rx: Receiver<Event>, stop: Arc<AtomicBool>) {
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = if cfg.pipelined {
        build_pipelined_unit_opts(
            &mut netlist,
            PipelinePlacement::Fig5,
            UnitOptions {
                quad_lanes: cfg.service.engine.quad_lanes,
                ..UnitOptions::default()
            },
        )
    } else {
        build_unit(&mut netlist)
    };
    let registry = Registry::new();
    let mut service = Service::new(&netlist, &ports, cfg.service, &registry);
    let sites: Vec<NetId> = netlist.cells().iter().map(|c| c.output).collect();
    let chaos = cfg.chaos.map(|c| ChaosPlan::generate(&c));
    let mut next_chaos = 0usize;
    let mut admitted_ops = 0u64;

    let mut writers: HashMap<u64, Sender<Vec<u8>>> = HashMap::new();
    let tick_len = Duration::from_micros(cfg.service.micros_per_tick.max(1));
    let mut next_tick = Instant::now() + tick_len;
    let mut incident_seq = 0u64;
    let mut flush = |service: &mut Service<'_>, writers: &mut HashMap<u64, Sender<Vec<u8>>>| {
        for (client, resp, trace) in service.take_responses_traced() {
            let t = Instant::now();
            send_to(writers, client, &resp);
            service.note_write_back(trace, t.elapsed().as_micros() as u64);
        }
        for report in service.take_incidents() {
            if let Some(dir) = &cfg.incident_dir {
                let _ = std::fs::create_dir_all(dir);
                let path = dir.join(format!("incident_{incident_seq}.json"));
                let _ = std::fs::write(path, &report);
            }
            incident_seq += 1;
        }
    };

    loop {
        // Apply chaos events scheduled at or before the current ordinal.
        if let Some(plan) = &chaos {
            while next_chaos < plan.events.len() && plan.events[next_chaos].at_op <= admitted_ops {
                apply_event(
                    service.engine_mut(),
                    &plan.events[next_chaos],
                    &sites,
                    ports.latency,
                );
                next_chaos += 1;
            }
        }
        // Drain everything already queued before considering a tick.
        // Admission must never wait on tick work: when a degraded pool
        // makes ticks slow, refusals still have to go out promptly or
        // an `Overloaded` arrives too late to be a useful signal. The
        // cap bounds tick jitter under a flood (event handling is
        // µs-scale, so even a full burst costs a few ms).
        let mut drained = 0u32;
        while drained < 4096 {
            match rx.try_recv() {
                Ok(ev) => {
                    handle_event(ev, &mut service, &mut writers, &registry, &mut admitted_ops);
                    drained += 1;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => return,
            }
        }
        // Then: block until the next event or the next tick edge.
        let now = Instant::now();
        let due = if now >= next_tick {
            true
        } else {
            match rx.recv_timeout(next_tick - now) {
                Ok(ev) => {
                    handle_event(ev, &mut service, &mut writers, &registry, &mut admitted_ops);
                    false
                }
                Err(mpsc::RecvTimeoutError::Timeout) => true,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        if due {
            service.tick();
            flush(&mut service, &mut writers);
            next_tick += tick_len;
            // Never let a stall cause a burst of catch-up ticks:
            // re-anchor if we fell behind a whole tick.
            let now = Instant::now();
            if next_tick < now {
                next_tick = now + tick_len;
            }
            if stop.load(Ordering::SeqCst) {
                // Final flush so already-admitted work answers
                // before teardown.
                for _ in 0..4 {
                    service.tick();
                    flush(&mut service, &mut writers);
                }
                break;
            }
        }
    }
}

/// Applies one protocol event to the service state.
fn handle_event(
    ev: Event,
    service: &mut Service<'_>,
    writers: &mut HashMap<u64, Sender<Vec<u8>>>,
    registry: &Registry,
    admitted_ops: &mut u64,
) {
    match ev {
        Event::Connected { client, tx } => {
            writers.insert(client, tx);
        }
        Event::Request { client, req, trace } => {
            if let Some(refusal) = service.admit_traced(client, &req, trace) {
                send_to(writers, client, &refusal);
            } else {
                *admitted_ops += 1;
            }
        }
        Event::Malformed { client, id, code } => {
            let resp = service.reject_malformed(client, id, code);
            send_to(writers, client, &resp);
        }
        Event::Disconnected { client } => {
            // The writer drains what is already queued, then its
            // channel closes with the removed sender.
            writers.remove(&client);
            service.forget_client(client);
        }
        Event::Scrape { kind, reply } => {
            let body = match kind {
                ScrapeKind::Metrics => registry.prometheus(),
                ScrapeKind::Healthz => service.healthz_json(),
                ScrapeKind::Statusz => service.statusz_json(),
                ScrapeKind::Tracez => service.tracez_json(),
            };
            let _ = reply.try_send(body);
        }
    }
}

fn send_to(writers: &mut HashMap<u64, Sender<Vec<u8>>>, client: u64, resp: &Response) {
    if let Some(tx) = writers.get(&client) {
        if tx.send(encode_response(resp)).is_err() {
            writers.remove(&client);
        }
    }
}
