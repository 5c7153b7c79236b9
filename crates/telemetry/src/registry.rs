//! The metrics registry: named instruments, nested timed spans, and the
//! two export encodings (JSON-lines snapshots and Prometheus-style text).
//!
//! The registry keeps one mutex-guarded map per instrument kind, so a
//! name resolves to the same [`Counter`], [`Gauge`] or [`Histogram`]
//! cell from every clone and every thread, and a handle's `get()` is the
//! value a scrape renders. The locks guard only create-or-lookup and
//! rendering; recording goes through the handle's atomics. Every program
//! in the workspace writes a registry from one thread: the server
//! creates its registry inside the service thread (connection threads
//! reach it through a channel), each chaos campaign and each bench bin
//! owns a private one, and the sharded campaign workers record nothing.

use crate::json::{num, JsonArray, JsonObject};
use crate::metrics::{Counter, Gauge, Histogram};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The quantile estimates every histogram exports, as `(JSON field,
/// quantile)` pairs — p50/p90/p99, the service-level triple.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

#[derive(Debug, Default)]
struct Shared {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    /// A histogram's bounds are fixed by the entry its name's first
    /// registration creates.
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

thread_local! {
    /// Open span names per registry (keyed by the shared-state
    /// address), so nested span paths are tracked per thread without a
    /// registry-wide lock.
    static SPAN_STACKS: RefCell<HashMap<usize, Vec<String>>> = RefCell::new(HashMap::new());
}

/// A registry of named metrics.
///
/// Cloning is cheap (an `Arc` handle) and all clones share the same
/// instruments. Instrument getters are create-or-lookup: asking twice
/// for the same name, from any clone or thread, returns handles to the
/// same underlying cell. Registered names are rendered in sorted order,
/// so snapshots are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    shared: Arc<Shared>,
}

// Compile-time proof that the registry can cross threads: the server
// builds it inside the service thread it spawns.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
};

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The same as [`Registry::new`]: the argument is read by nothing.
    /// `benchmark/src/serve.rs` and `benchmark/src/replay.rs` still call
    /// it, and it goes when the benchmark is next brought up to the tree
    /// (see ROADMAP.md).
    pub fn with_shards(_shards: usize) -> Self {
        Self::new()
    }

    /// Returns (creating if necessary) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut c = lock(&self.shared.counters);
        c.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if necessary) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = lock(&self.shared.gauges);
        g.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if necessary) the histogram named `name`, with
    /// the default 1-2-5 decade buckets (or the bounds fixed by an
    /// earlier `histogram_with`).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut h = lock(&self.shared.histograms);
        h.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if necessary) the histogram named `name` with
    /// explicit bucket bounds. Bounds are fixed at the name's first
    /// registration; later calls return the instrument with the
    /// original bounds.
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut h = lock(&self.shared.histograms);
        h.entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Opens a timed span. The elapsed wall time in microseconds is
    /// recorded into a histogram when the returned guard drops; nested
    /// spans record under their '.'-joined path:
    ///
    /// ```
    /// use mfm_telemetry::Registry;
    /// let reg = Registry::new();
    /// {
    ///     let _outer = reg.span("build");
    ///     let _inner = reg.span("sta"); // records as "span.build.sta"
    /// }
    /// assert!(reg.snapshot_json().contains("span.build.sta"));
    /// ```
    ///
    /// Span nesting is tracked per thread: spans opened on different
    /// threads do not see each other as parents.
    pub fn span(&self, name: &str) -> Span {
        let key = Arc::as_ptr(&self.shared) as usize;
        let path = SPAN_STACKS.with(|stacks| {
            let mut stacks = stacks.borrow_mut();
            let stack = stacks.entry(key).or_default();
            let path = if stack.is_empty() {
                name.to_owned()
            } else {
                format!("{}.{}", stack.join("."), name)
            };
            stack.push(name.to_owned());
            path
        });
        let hist = self.histogram(&format!("span.{path}"));
        Span {
            registry: self.clone(),
            hist,
            started: Instant::now(),
        }
    }

    /// Adds every counter's total to the same-named counter of `to` and
    /// sets `to`'s same-named gauges to this registry's values.
    /// Histograms are not copied: a caller that keeps wall-clock
    /// histograms out of a report records into a private registry and
    /// copies the rest across.
    pub fn copy_scalars_into(&self, to: &Registry) {
        // Read out before writing, so copying a registry into itself
        // takes no lock twice.
        let counters: Vec<(String, u64)> = lock(&self.shared.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges: Vec<(String, f64)> = lock(&self.shared.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        for (name, total) in counters {
            to.counter(&name).add(total);
        }
        for (name, v) in gauges {
            to.gauge(&name).set(v);
        }
    }

    /// Renders every metric as one JSON object on a single line —
    /// suitable for JSON-lines streaming.
    pub fn snapshot_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, c) in lock(&self.shared.counters).iter() {
            counters.field_u64(name, c.get());
        }
        let mut gauges = JsonObject::new();
        for (name, g) in lock(&self.shared.gauges).iter() {
            gauges.field_f64(name, g.get());
        }
        let mut hists = JsonObject::new();
        for (name, h) in lock(&self.shared.histograms).iter() {
            let mut o = JsonObject::new();
            o.field_u64("count", h.count())
                .field_f64("sum", h.sum())
                .field_f64("mean", h.mean())
                .field_f64("min", h.min().unwrap_or(0.0))
                .field_f64("max", h.max().unwrap_or(0.0));
            for (label, q) in QUANTILES {
                o.field_f64(label, h.quantile(q).unwrap_or(0.0));
            }
            let exemplars = h.exemplars();
            let mut buckets = JsonArray::new();
            for (i, n) in h.bucket_counts().into_iter().enumerate() {
                if n == 0 {
                    continue; // sparse encoding: only occupied buckets
                }
                let mut b = JsonObject::new();
                match h.bounds().get(i) {
                    Some(&le) => b.field_f64("le", le),
                    None => b.field_str("le", "+Inf"),
                };
                b.field_u64("n", n);
                if let Some(ex) = exemplars.get(i).copied().flatten() {
                    b.field_str("trace_id", &format!("{:016x}", ex.trace_id));
                }
                buckets.push_raw(&b.finish());
            }
            o.field_raw("buckets", &buckets.finish());
            hists.field_raw(name, &o.finish());
        }
        let mut root = JsonObject::new();
        root.field_raw("counters", &counters.finish())
            .field_raw("gauges", &gauges.finish())
            .field_raw("histograms", &hists.finish());
        root.finish()
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Metric names are sanitized to `[a-zA-Z0-9_]` (dots become
    /// underscores). Buckets that captured a trace-id exemplar carry an
    /// OpenMetrics-style `# {trace_id="…"} value` suffix.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, c) in lock(&self.shared.counters).iter() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {}", c.get());
        }
        for (name, g) in lock(&self.shared.gauges).iter() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", num(g.get()));
        }
        for (name, h) in lock(&self.shared.histograms).iter() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            // Summary-style quantile estimates next to the buckets, so
            // a scrape reads tail latency without a PromQL
            // histogram_quantile round-trip.
            if h.count() > 0 {
                for (_, q) in QUANTILES {
                    if let Some(v) = h.quantile(q) {
                        let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", num(v));
                    }
                }
            }
            let exemplars = h.exemplars();
            let mut cumulative = 0u64;
            for (i, cnt) in h.bucket_counts().into_iter().enumerate() {
                cumulative += cnt;
                let le = match h.bounds().get(i) {
                    Some(&b) => num(b),
                    None => "+Inf".to_owned(),
                };
                let _ = write!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
                if let Some(ex) = exemplars.get(i).copied().flatten() {
                    let _ = write!(
                        out,
                        " # {{trace_id=\"{:016x}\"}} {}",
                        ex.trace_id,
                        num(ex.value)
                    );
                }
                out.push('\n');
            }
            let _ = writeln!(out, "{n}_sum {}", num(h.sum()));
            let _ = writeln!(out, "{n}_count {}", h.count());
        }
        out
    }

    /// Number of distinct registered instrument names (all kinds).
    pub fn len(&self) -> usize {
        lock(&self.shared.counters).len()
            + lock(&self.shared.gauges).len()
            + lock(&self.shared.histograms).len()
    }

    /// Whether no instrument has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it — metrics must keep flowing during incident forensics.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Guard for a timed span opened with [`Registry::span`]. Records the
/// elapsed microseconds into the span's histogram on drop.
#[derive(Debug)]
pub struct Span {
    registry: Registry,
    hist: Histogram,
    started: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist
            .observe(self.started.elapsed().as_secs_f64() * 1e6);
        let key = Arc::as_ptr(&self.registry.shared) as usize;
        SPAN_STACKS.with(|stacks| {
            let mut stacks = stacks.borrow_mut();
            if let Some(stack) = stacks.get_mut(&key) {
                stack.pop();
                if stack.is_empty() {
                    // Drop the entry so a recycled allocation address
                    // never inherits a stale stack.
                    stacks.remove(&key);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check;

    #[test]
    fn instruments_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("ops").add(2);
        reg.counter("ops").add(3);
        assert_eq!(reg.counter("ops").get(), 5);
        reg.gauge("pj").set(1.5);
        assert_eq!(reg.gauge("pj").get(), 1.5);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn copy_scalars_into_moves_counters_and_gauges_but_no_histograms() {
        let from = Registry::new();
        from.counter("ops").add(7);
        from.gauge("cap").set(3.0);
        from.histogram("wall").observe(1.0);
        let to = Registry::new();
        to.counter("ops").add(1);
        from.copy_scalars_into(&to);
        assert_eq!(to.counter("ops").get(), 8, "totals, added");
        assert_eq!(to.gauge("cap").get(), 3.0);
        assert_eq!(to.len(), 2, "no histogram copied");
        // Copying a registry into itself doubles its counters.
        from.copy_scalars_into(&from);
        assert_eq!(from.counter("ops").get(), 14);
    }

    #[test]
    fn snapshot_is_valid_sorted_json() {
        let reg = Registry::new();
        reg.counter("b.count").inc();
        reg.counter("a.count").add(7);
        reg.gauge("g\"quoted").set(0.25);
        reg.histogram("h").observe(3.0);
        let s = reg.snapshot_json();
        check(&s).unwrap();
        assert!(!s.contains('\n'), "snapshot must be one line");
        // BTreeMap ordering: a.count before b.count.
        assert!(s.find("a.count").unwrap() < s.find("b.count").unwrap());
        assert!(s.contains("\"a.count\":7"));
        assert!(s.contains("g\\\"quoted"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("sim.events").add(42);
        reg.gauge("power.pj").set(2.5);
        let h = reg.histogram_with("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let p = reg.prometheus();
        assert!(p.contains("# TYPE sim_events counter"));
        assert!(p.contains("sim_events 42"));
        assert!(p.contains("power_pj 2.5"));
        // Buckets are cumulative.
        assert!(p.contains("lat_bucket{le=\"1.0\"} 1"));
        assert!(p.contains("lat_bucket{le=\"10.0\"} 2"));
        assert!(p.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(p.contains("lat_count 3"));
    }

    #[test]
    fn quantiles_export_in_json_and_prometheus() {
        let reg = Registry::new();
        // Known distribution: the integers 1..=1000 observed once each
        // into decade-resolution buckets. True quantiles: p50 = 500,
        // p90 = 900, p99 = 990.
        let bounds: Vec<f64> = (1..=20).map(|i| i as f64 * 50.0).collect();
        let h = reg.histogram_with("svc.latency", &bounds);
        for v in 1..=1000 {
            h.observe(v as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 500.0).abs() <= 25.0, "p50 {p50}");
        assert!((p90 - 900.0).abs() <= 25.0, "p90 {p90}");
        assert!((p99 - 990.0).abs() <= 25.0, "p99 {p99}");
        assert!(p50 < p90 && p90 < p99, "quantiles are ordered");
        // JSON snapshot carries the estimates...
        let s = reg.snapshot_json();
        check(&s).unwrap();
        for key in ["\"p50\":", "\"p90\":", "\"p99\":"] {
            assert!(s.contains(key), "snapshot missing {key}: {s}");
        }
        // ...and the Prometheus text carries summary-style lines.
        let p = reg.prometheus();
        assert!(p.contains("svc_latency{quantile=\"0.5\"}"), "{p}");
        assert!(p.contains("svc_latency{quantile=\"0.9\"}"), "{p}");
        assert!(p.contains("svc_latency{quantile=\"0.99\"}"), "{p}");
        // An empty histogram exports no quantile lines and a 0 estimate
        // in JSON (count 0 disambiguates).
        reg.histogram("empty");
        assert!(!reg.prometheus().contains("empty{quantile"));
    }

    #[test]
    fn quantile_interpolation_on_a_point_mass() {
        // All mass in one bucket: clamping to [min, max] collapses the
        // estimate to the exact observed value.
        let h = Histogram::with_bounds(&[10.0, 100.0]);
        for _ in 0..50 {
            h.observe(42.0);
        }
        assert_eq!(h.quantile(0.5), Some(42.0));
        assert_eq!(h.quantile(0.99), Some(42.0));
        // +Inf bucket ranks report the maximum observation.
        h.observe(5000.0);
        assert_eq!(h.quantile(1.0), Some(5000.0));
    }

    #[test]
    fn spans_nest_by_path() {
        let reg = Registry::new();
        {
            let _a = reg.span("outer");
            {
                let _b = reg.span("inner");
            }
            {
                let _c = reg.span("inner");
            }
        }
        {
            let _d = reg.span("outer");
        }
        let s = reg.snapshot_json();
        check(&s).unwrap();
        assert!(s.contains("span.outer"));
        assert!(s.contains("span.outer.inner"));
        assert_eq!(reg.histogram("span.outer.inner").count(), 2);
        assert_eq!(reg.histogram("span.outer").count(), 2);
        // The stack unwound fully: a new span is top-level again.
        {
            let _e = reg.span("after");
        }
        assert_eq!(reg.histogram("span.after").count(), 1);
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn takes<T: Send + Sync + 'static>(_: T) {}
        takes(Registry::new());
    }

    #[test]
    fn clones_and_threads_share_one_cell() {
        let reg = Registry::new();
        reg.counter("ops").add(3);
        reg.clone().counter("ops").add(4);
        let r = reg.clone();
        std::thread::spawn(move || r.counter("ops").add(5))
            .join()
            .unwrap();
        assert_eq!(reg.counter("ops").get(), 12);
        assert!(reg.snapshot_json().contains("\"ops\":12"));
        assert!(reg.prometheus().contains("ops 12"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn histogram_bounds_are_fixed_at_first_registration() {
        let reg = Registry::new();
        reg.histogram_with("lat", &[1.0, 10.0]); // fixes bounds
        reg.histogram("lat").observe(0.5);
        reg.histogram_with("lat", &[2.0]).observe(5.0);
        reg.histogram("lat").observe(100.0);
        assert_eq!(reg.histogram("lat").bounds(), &[1.0, 10.0]);
        let p = reg.prometheus();
        assert!(p.contains("lat_bucket{le=\"1.0\"} 1"), "{p}");
        assert!(p.contains("lat_bucket{le=\"10.0\"} 2"), "{p}");
        assert!(p.contains("lat_bucket{le=\"+Inf\"} 3"), "{p}");
        assert!(p.contains("lat_count 3"), "{p}");
    }

    #[test]
    fn exemplars_render_in_both_encodings() {
        let reg = Registry::new();
        let h = reg.histogram_with("svc.lat", &[10.0, 100.0]);
        h.observe(3.0); // no exemplar on this bucket
        h.observe_exemplar(50.0, 0xDEAD_BEEF);
        let p = reg.prometheus();
        assert!(
            p.contains("svc_lat_bucket{le=\"100.0\"} 2 # {trace_id=\"00000000deadbeef\"} 50"),
            "{p}"
        );
        // The bucket without an exemplar is rendered exactly as before.
        assert!(p.contains("svc_lat_bucket{le=\"10.0\"} 1\n"), "{p}");
        let s = reg.snapshot_json();
        check(&s).unwrap();
        assert!(s.contains("\"trace_id\":\"00000000deadbeef\""), "{s}");
    }
}
