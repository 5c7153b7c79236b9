//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the crates'
//! public APIs (tracing inside the crates is not this module's job). Each
//! span has a name, a start and end relative to the tracer's origin, the
//! span that was open when it started (its parent) and an id shared by
//! every span of one request, cone, shard or round. Nothing is written
//! until the run ends: [`Tracer::to_json`] renders the whole set.
//!
//! With tracing off, [`Tracer::span`] only calls the closure: no clock
//! read, no allocation.

use std::cell::{Ref, RefCell};
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `evalkit.faultcov`.
    pub name: String,
    /// Request, cone, shard or round id shared by related spans.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (equal to the start
    /// while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// The span recorder. Single-threaded: spans nest on the thread that
/// drives the workload.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`. When `on`, a root span
    /// named `run` opens at the origin; [`Tracer::finish`] closes it.
    pub fn new(on: bool, origin: Instant) -> Self {
        let t = Tracer {
            on,
            origin,
            inner: RefCell::new(Inner::default()),
        };
        if on {
            let mut i = t.inner.borrow_mut();
            i.spans.push(Span {
                name: "run".to_owned(),
                id: 0,
                parent: None,
                start_ns: 0,
                end_ns: 0,
            });
            i.stack.push(0);
        }
        t
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` with id `id`.
    pub fn span<T>(&self, name: &str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.open(name, id);
        let out = f();
        self.close(idx);
        out
    }

    /// Opens a span and returns its index; pair with [`Tracer::close`].
    /// Returns `usize::MAX` (and records nothing) when tracing is off.
    pub fn open(&self, name: &str, id: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        let mut i = self.inner.borrow_mut();
        let parent = i.stack.last().copied();
        let idx = i.spans.len();
        i.spans.push(Span {
            name: name.to_owned(),
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        i.stack.push(idx);
        idx
    }

    /// Closes the span `open` returned.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not the innermost open span (spans must nest).
    pub fn close(&self, idx: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let mut i = self.inner.borrow_mut();
        assert_eq!(
            i.stack.pop(),
            Some(idx),
            "spans must close in nesting order"
        );
        i.spans[idx].end_ns = end_ns;
    }

    /// Closes the root span. Call once, after the last measured work.
    pub fn finish(&self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let mut i = self.inner.borrow_mut();
        assert_eq!(
            i.stack.as_slice(),
            &[0],
            "every span but the root is closed"
        );
        i.stack.clear();
        i.spans[0].end_ns = end_ns;
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> Ref<'_, Vec<Span>> {
        Ref::map(self.inner.borrow(), |i| &i.spans)
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered_ns(kids))
            .collect()
    }

    /// Durations, in milliseconds, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration in milliseconds of the top-level spans (direct
    /// children of the root) per name, plus the root's self time. The
    /// two add up to the traced wall time exactly.
    pub fn top_level_ms(&self) -> (Vec<(String, f64)>, f64) {
        let root_self = self.self_times_ns().first().copied().unwrap_or(0) as f64 / 1e6;
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for s in self.spans().iter().filter(|s| s.parent == Some(0)) {
            let ms = s.duration_ns() as f64 / 1e6;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += ms,
                None => by_name.push((s.name.clone(), ms)),
            }
        }
        (by_name, root_self)
    }

    /// Wall time of the root span in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.spans()
            .first()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
    }

    /// All spans as a JSON array of
    /// `{"name","id","parent","start_ns","end_ns","self_ns"}` objects.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 96 + 2);
        out.push('[');
        for (k, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
            if k > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns, own
            ));
        }
        out.push(']');
        out
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true, Instant::now());
        t.span("outer", 1, || {
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.finish();
        let own = t.self_times_ns();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
        assert!(own[2] >= 5_000_000);
    }

    #[test]
    fn union_merges_overlaps() {
        let mut v = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(covered_ns(&mut v), 25);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, || 7), 7);
        t.finish();
        assert!(t.spans().is_empty());
    }
}
