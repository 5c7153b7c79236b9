//! The benchmark's own open-loop client, built on `mfm_server::wire` and
//! `mfm_evalkit::workload`.
//!
//! The schedule is a pure function of the seed. Each connection is driven
//! by one thread that both sends and receives: it writes every request
//! whose due instant has passed, then reads with a timeout that ends at
//! the next due instant. Latency runs from the *due* instant, so a stall
//! that delays later sends is charged to them; how late the client itself
//! sent is reported separately as `client.late_ms`. Every `Ok` answer is
//! verified bit for bit against [`FunctionalUnit`]; refused, expired,
//! unanswered and wrong answers all miss the SLO.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mfm_evalkit::workload::{ArrivalConfig, Arrivals, FormatMix, OperandGen};
use mfm_server::wire::{decode_response, encode_request, Request, Response, MAX_BODY};
use mfm_softfloat::Flags;
use mfmult::{FunctionalUnit, Operation};

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due instant, microseconds after the schedule's start.
    pub at_micros: u64,
    /// The request.
    pub req: Request,
}

/// The open-loop traffic shape of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Mean gap between arrivals outside bursts, microseconds.
    pub mean_gap_micros: f64,
    /// Mark every n-th request critical (TMR voting); 0 marks none.
    pub critical_every: u64,
}

/// Builds the schedule for `seconds` of traffic: `loadgen`'s burst shape
/// (16 of every 64 arrivals at 8× rate) at the profile's mean gap, with
/// operands drawn from [`FormatMix::serving_default`].
pub fn schedule(seed: u64, profile: Profile, seconds: f64) -> Vec<Planned> {
    let mut arrivals = Arrivals::new(ArrivalConfig {
        seed,
        mean_gap_micros: profile.mean_gap_micros,
        ..ArrivalConfig::default()
    });
    let mut gen = OperandGen::new(seed ^ 0x5e11_ce11_ab1e_0001);
    let mix = FormatMix::serving_default();
    let horizon = (seconds * 1e6) as u64;
    let mut clock = 0u64;
    let mut out = Vec::new();
    for id in 0.. {
        clock += arrivals.next_gap_micros();
        if clock > horizon {
            break;
        }
        out.push(Planned {
            at_micros: clock,
            req: Request {
                id,
                op: gen.mixed_operation(&mix),
                deadline_micros: 0,
                critical: profile.critical_every > 0 && id % profile.critical_every == 0,
            },
        });
    }
    out
}

/// Whether `resp` carries the bit-exact product of `op` (flags compared
/// under the hardware mask the unit reports).
pub fn verify(reference: &FunctionalUnit, op: Operation, resp: &Response) -> bool {
    let Response::Ok {
        ph,
        pl,
        flags_lo,
        flags_hi,
        ..
    } = *resp
    else {
        return false;
    };
    let want = reference.execute(op);
    let hw = (Flags::INVALID | Flags::OVERFLOW | Flags::UNDERFLOW).bits();
    ph == want.ph
        && pl == want.pl
        && flags_lo & hw == want.flags_lo.bits() & hw
        && flags_hi & hw == want.flags_hi.bits() & hw
}

/// One scored request, for windowed statistics.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due instant, seconds after the schedule's start.
    pub due_s: f64,
    /// Answer instant, seconds after the schedule's start (infinite when
    /// unanswered).
    pub answered_s: f64,
    /// A verified `Ok` answer.
    pub ok: bool,
    /// A verified `Ok` answer within the deadline.
    pub in_slo: bool,
}

/// How every sent request ended, plus the client-side timings.
#[derive(Debug, Clone, Default)]
pub struct Outcomes {
    /// Requests sent.
    pub sent: u64,
    /// `Ok` answers that verified.
    pub ok: u64,
    /// `Ok` answers that verified and arrived within the deadline.
    pub ok_in_slo: u64,
    /// `Overloaded` refusals.
    pub refused: u64,
    /// `DeadlineExceeded` answers.
    pub expired: u64,
    /// No answer before the drain timeout.
    pub unanswered: u64,
    /// `Ok` answers with a wrong product, and `Malformed` answers to
    /// well-formed requests.
    pub wrong: u64,
    /// Send instant minus due instant, milliseconds, per sent request.
    pub late_ms: Vec<f64>,
    /// Server-reported queue time of `Ok` answers, microseconds
    /// (tick-derived by the service).
    pub reported_queue_us: Vec<f64>,
    /// Schedule start to the last answer, seconds.
    pub elapsed_s: f64,
    /// Time spent verifying against the reference, nanoseconds.
    pub verify_ns: u64,
    /// Answers verified.
    pub verified: u64,
    /// Every scored request.
    pub samples: Vec<Sample>,
}

impl Outcomes {
    /// Scores one request given its answer (if any), its due instant and
    /// its answer instant (seconds after the schedule's start; infinite
    /// when unanswered).
    pub fn score(
        &mut self,
        reference: &FunctionalUnit,
        op: Operation,
        answer: Option<&Response>,
        due_s: f64,
        answered_s: f64,
        deadline_ms: f64,
    ) {
        self.sent += 1;
        let latency_ms = (answered_s - due_s) * 1e3;
        let ok_before = self.ok;
        let slo_before = self.ok_in_slo;
        match answer {
            Some(resp @ Response::Ok { queue_micros, .. }) => {
                let t = Instant::now();
                let good = verify(reference, op, resp);
                self.verify_ns += t.elapsed().as_nanos() as u64;
                self.verified += 1;
                if good {
                    self.ok += 1;
                    self.reported_queue_us.push(f64::from(*queue_micros));
                    if latency_ms <= deadline_ms {
                        self.ok_in_slo += 1;
                    }
                } else {
                    self.wrong += 1;
                }
            }
            Some(Response::Overloaded { .. }) => self.refused += 1,
            Some(Response::DeadlineExceeded { .. }) => self.expired += 1,
            Some(Response::Malformed { .. }) => self.wrong += 1,
            None => self.unanswered += 1,
        }
        self.samples.push(Sample {
            due_s,
            answered_s,
            ok: self.ok > ok_before,
            in_slo: self.ok_in_slo > slo_before,
        });
    }

    /// Due-to-answer latency of every verified `Ok` answer, ms.
    pub fn ok_latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.answered_s - s.due_s) * 1e3)
            .collect()
    }

    /// Folds another connection's outcomes into this one.
    pub fn merge(&mut self, o: Outcomes) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.ok_in_slo += o.ok_in_slo;
        self.refused += o.refused;
        self.expired += o.expired;
        self.unanswered += o.unanswered;
        self.wrong += o.wrong;
        self.late_ms.extend(o.late_ms);
        self.reported_queue_us.extend(o.reported_queue_us);
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
        self.verify_ns += o.verify_ns;
        self.verified += o.verified;
        self.samples.extend(o.samples);
    }
}

/// Sends `plan` over `conns` connections (round-robin split) and scores
/// every answer. Blocks until every request is answered or `drain` has
/// passed since the last send.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    conns: usize,
    deadline_ms: f64,
    drain: Duration,
) -> std::io::Result<Outcomes> {
    let conns = conns.max(1);
    let mut per_conn: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    for (k, p) in plan.iter().enumerate() {
        per_conn[k % conns].push(*p);
    }
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    // Give the server's accept loop time to register the connections
    // before the first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(per_conn)
            .map(|(s, p)| scope.spawn(move || drive(s, &p, start, deadline_ms, drain)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = Outcomes::default();
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

/// Drives one connection; see the module docs.
fn drive(
    mut stream: TcpStream,
    plan: &[Planned],
    start: Instant,
    deadline_ms: f64,
    drain: Duration,
) -> std::io::Result<Outcomes> {
    let mut sent_at: Vec<Instant> = Vec::with_capacity(plan.len());
    let mut answers: HashMap<u64, (Response, Instant)> = HashMap::with_capacity(plan.len());
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut last_send = start;
    loop {
        let now = Instant::now();
        while let Some(p) = plan.get(sent_at.len()) {
            if start + Duration::from_micros(p.at_micros) > now {
                break;
            }
            stream.write_all(&encode_request(&p.req))?;
            last_send = Instant::now();
            sent_at.push(last_send);
        }
        let done_sending = sent_at.len() == plan.len();
        if done_sending && (answers.len() == plan.len() || now > last_send + drain) {
            break;
        }
        let wait = match plan.get(sent_at.len()) {
            Some(p) => (start + Duration::from_micros(p.at_micros)).saturating_duration_since(now),
            None => Duration::from_millis(10),
        };
        stream.set_read_timeout(Some(
            wait.clamp(Duration::from_micros(50), Duration::from_millis(10)),
        ))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let arrived = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                parse_frames(&mut buf, arrived, &mut answers)?;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    let reference = FunctionalUnit::new();
    let mut out = Outcomes::default();
    let mut last_answer = start;
    for (p, &at) in plan.iter().zip(&sent_at) {
        let due = start + Duration::from_micros(p.at_micros);
        out.late_ms
            .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
        let answer = answers.get(&p.req.id);
        let answered_s = answer.map_or(f64::INFINITY, |(_, t)| {
            last_answer = last_answer.max(*t);
            t.saturating_duration_since(start).as_secs_f64()
        });
        let due_s = p.at_micros as f64 / 1e6;
        out.score(
            &reference,
            p.req.op,
            answer.map(|(r, _)| r),
            due_s,
            answered_s,
            deadline_ms,
        );
    }
    // Requests never sent (the connection broke) are unanswered too.
    out.sent += (plan.len() - sent_at.len()) as u64;
    out.unanswered += (plan.len() - sent_at.len()) as u64;
    out.elapsed_s = last_answer.saturating_duration_since(start).as_secs_f64();
    Ok(out)
}

/// Moves every complete frame out of `buf` into `answers`, stamped with
/// `arrived`. A frame that does not decode is a protocol failure.
fn parse_frames(
    buf: &mut Vec<u8>,
    arrived: Instant,
    answers: &mut HashMap<u64, (Response, Instant)>,
) -> std::io::Result<()> {
    let mut at = 0;
    while buf.len() - at >= 4 {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_BODY as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("server sent a frame of {len} bytes"),
            ));
        }
        if buf.len() - at < 4 + len {
            break;
        }
        let resp = decode_response(&buf[at + 4..at + 4 + len])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
        answers.entry(resp.id()).or_insert((resp, arrived));
        at += 4 + len;
    }
    buf.drain(..at);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let p = Profile {
            mean_gap_micros: 1000.0,
            critical_every: 8,
        };
        let a = schedule(7, p, 0.2);
        let b = schedule(7, p, 0.2);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at_micros == y.at_micros && x.req == y.req));
        assert!(a.iter().all(|p| p.at_micros <= 200_000));
        assert!(a[0].req.critical && !a[1].req.critical);
    }

    #[test]
    fn partial_frames_wait_for_the_rest() {
        let frame = mfm_server::wire::encode_response(&Response::Overloaded {
            id: 9,
            retry_after_micros: 5,
            queued: 1,
        });
        let mut answers = HashMap::new();
        let mut buf = frame[..7].to_vec();
        parse_frames(&mut buf, Instant::now(), &mut answers).unwrap();
        assert!(answers.is_empty());
        buf.extend_from_slice(&frame[7..]);
        parse_frames(&mut buf, Instant::now(), &mut answers).unwrap();
        assert!(answers.contains_key(&9) && buf.is_empty());
    }
}
