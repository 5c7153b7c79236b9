//! The metrics registry: named instruments, nested timed spans, and the
//! two export encodings (JSON-lines snapshots and Prometheus-style text).
//!
//! The registry is sharded: instrument writes land on a per-thread
//! shard (selected by hashing the thread id) behind a mutex-per-shard,
//! and a scrape merges all shards into one logical view. This makes
//! `Registry` `Send + Sync` — the blocker that used to pin the service
//! loop to one core — while keeping the single-threaded fast path a
//! single uncontended lock. Rendering is byte-compatible with the old
//! single-map registry for any metric that only ever touched one shard
//! (in particular, everything recorded by a single-threaded program).

use crate::json::{num, JsonArray, JsonObject};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The quantile estimates every histogram exports, as `(JSON field,
/// quantile)` pairs — p50/p90/p99, the service-level triple.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

/// Default shard count; a power of two so thread-id hashes spread well.
const DEFAULT_SHARDS: usize = 8;

/// One shard's worth of instruments. Counters and histograms shard
/// (their merges are well-defined sums); gauges do not — last-write-wins
/// has no meaningful cross-shard merge, so they live in one global map.
#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Debug)]
struct Shared {
    shards: Vec<Mutex<Shard>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    /// Histogram bounds are fixed registry-wide at a name's first
    /// registration, so every shard's copy of `name` merges cleanly.
    hist_bounds: Mutex<BTreeMap<String, Vec<f64>>>,
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
/// for the same name *from the same thread* returns handles to the same
/// underlying cell; different threads may get per-shard cells whose
/// values are summed on scrape. Registered names are rendered in sorted
/// order, so snapshots are deterministic.
#[derive(Debug, Clone)]
pub struct Registry {
    shared: Arc<Shared>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

// Compile-time proof of the property ROADMAP item 5 needs: the
// registry can cross threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
};

impl Registry {
    /// Creates an empty registry with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with exactly `shards` shards
    /// (minimum 1). Useful for tests that pin writes to known shards.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        Registry {
            shared: Arc::new(Shared {
                shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
                gauges: Mutex::new(BTreeMap::new()),
                hist_bounds: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Number of shards in this registry.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The shard index the current thread's writes land on.
    pub fn current_shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() % self.shared.shards.len() as u64) as usize
    }

    fn shard(&self) -> &Mutex<Shard> {
        &self.shared.shards[self.current_shard()]
    }

    /// Returns (creating if necessary) the counter named `name` on the
    /// current thread's shard.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_on(self.current_shard(), name)
    }

    /// Returns (creating if necessary) the counter named `name` pinned
    /// to shard `shard` (modulo the shard count). Scrapes sum the
    /// per-shard cells, so tests can model arbitrary interleavings.
    pub fn counter_on(&self, shard: usize, name: &str) -> Counter {
        let mut s = lock(&self.shared.shards[shard % self.shared.shards.len()]);
        s.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if necessary) the gauge named `name`. Gauges
    /// are global (not sharded): last-write-wins across all threads.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = lock(&self.shared.gauges);
        g.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if necessary) the histogram named `name` on
    /// the current thread's shard, with the default 1-2-5 decade
    /// buckets (or the bounds fixed by an earlier `histogram_with`).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_on(self.current_shard(), name)
    }

    /// Returns (creating if necessary) the histogram named `name` with
    /// explicit bucket bounds. Bounds are fixed registry-wide at the
    /// name's first registration; later calls (on any shard) return an
    /// instrument with the original bounds.
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Histogram {
        let fixed = self.bounds_for(name, Some(bounds));
        let mut s = lock(self.shard());
        s.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(&fixed))
            .clone()
    }

    /// Returns (creating if necessary) the histogram named `name`
    /// pinned to shard `shard` (modulo the shard count).
    pub fn histogram_on(&self, shard: usize, name: &str) -> Histogram {
        let fixed = self.bounds_for(name, None);
        let mut s = lock(&self.shared.shards[shard % self.shared.shards.len()]);
        s.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(&fixed))
            .clone()
    }

    /// Resolves the registry-wide bounds for histogram `name`,
    /// registering `proposed` (or the default ladder) on first use.
    fn bounds_for(&self, name: &str, proposed: Option<&[f64]>) -> Vec<f64> {
        let mut map = lock(&self.shared.hist_bounds);
        map.entry(name.to_owned())
            .or_insert_with(|| match proposed {
                Some(b) => b.to_vec(),
                None => Histogram::new().bounds().to_vec(),
            })
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

    /// Merged per-name counter totals across all shards.
    fn merged_counters(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for shard in &self.shared.shards {
            let s = lock(shard);
            for (name, c) in &s.counters {
                *out.entry(name.clone()).or_insert(0) += c.get();
            }
        }
        out
    }

    /// Adds every counter's total to the same-named counter of `to` and
    /// sets `to`'s same-named gauges to this registry's values.
    /// Histograms are not copied: a caller that keeps wall-clock
    /// histograms out of a report records into a private registry and
    /// copies the rest across.
    pub fn copy_scalars_into(&self, to: &Registry) {
        for (name, total) in self.merged_counters() {
            to.counter(&name).add(total);
        }
        let gauges: Vec<(String, f64)> = lock(&self.shared.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        for (name, v) in gauges {
            to.gauge(&name).set(v);
        }
    }

    /// Merged per-name histogram snapshots across all shards, folded in
    /// shard order so repeated scrapes of the same state are identical.
    fn merged_histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        let mut out: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for shard in &self.shared.shards {
            let s = lock(shard);
            for (name, h) in &s.histograms {
                let snap = h.snapshot();
                match out.get_mut(name) {
                    Some(acc) => acc.merge(&snap),
                    None => {
                        out.insert(name.clone(), snap);
                    }
                }
            }
        }
        out
    }

    /// Renders every metric as one JSON object on a single line —
    /// suitable for JSON-lines streaming. Sharded instruments appear
    /// merged (counters summed, histogram buckets added element-wise).
    pub fn snapshot_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, total) in &self.merged_counters() {
            counters.field_u64(name, *total);
        }
        let mut gauges = JsonObject::new();
        for (name, g) in lock(&self.shared.gauges).iter() {
            gauges.field_f64(name, g.get());
        }
        let mut hists = JsonObject::new();
        for (name, h) in &self.merged_histograms() {
            let mut o = JsonObject::new();
            o.field_u64("count", h.count)
                .field_f64("sum", h.sum)
                .field_f64("mean", h.mean())
                .field_f64("min", h.min.unwrap_or(0.0))
                .field_f64("max", h.max.unwrap_or(0.0));
            for (label, q) in QUANTILES {
                o.field_f64(label, h.quantile(q).unwrap_or(0.0));
            }
            let mut buckets = JsonArray::new();
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue; // sparse encoding: only occupied buckets
                }
                let mut b = JsonObject::new();
                match h.bounds.get(i) {
                    Some(&le) => b.field_f64("le", le),
                    None => b.field_str("le", "+Inf"),
                };
                b.field_u64("n", n);
                if let Some(ex) = h.exemplars.get(i).copied().flatten() {
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
        for (name, total) in &self.merged_counters() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {total}");
        }
        for (name, g) in lock(&self.shared.gauges).iter() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", num(g.get()));
        }
        for (name, h) in &self.merged_histograms() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            // Summary-style quantile estimates next to the buckets, so
            // a scrape reads tail latency without a PromQL
            // histogram_quantile round-trip.
            if h.count > 0 {
                for (_, q) in QUANTILES {
                    if let Some(v) = h.quantile(q) {
                        let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", num(v));
                    }
                }
            }
            let mut cumulative = 0u64;
            for (i, &cnt) in h.buckets.iter().enumerate() {
                cumulative += cnt;
                let le = match h.bounds.get(i) {
                    Some(&b) => num(b),
                    None => "+Inf".to_owned(),
                };
                let _ = write!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
                if let Some(ex) = h.exemplars.get(i).copied().flatten() {
                    let _ = write!(
                        out,
                        " # {{trace_id=\"{:016x}\"}} {}",
                        ex.trace_id,
                        num(ex.value)
                    );
                }
                out.push('\n');
            }
            let _ = writeln!(out, "{n}_sum {}", num(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }

    /// Number of distinct registered instrument names (all kinds);
    /// a name registered on several shards counts once.
    pub fn len(&self) -> usize {
        let mut counters = BTreeSet::new();
        let mut hists = BTreeSet::new();
        for shard in &self.shared.shards {
            let s = lock(shard);
            counters.extend(s.counters.keys().cloned());
            hists.extend(s.histograms.keys().cloned());
        }
        counters.len() + lock(&self.shared.gauges).len() + hists.len()
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
        let from = Registry::with_shards(4);
        from.counter_on(0, "ops").add(2);
        from.counter_on(3, "ops").add(5);
        from.gauge("cap").set(3.0);
        from.histogram("wall").observe(1.0);
        let to = Registry::new();
        to.counter("ops").add(1);
        from.copy_scalars_into(&to);
        assert_eq!(to.counter("ops").get(), 8, "shard totals, added");
        assert_eq!(to.gauge("cap").get(), 3.0);
        assert_eq!(to.len(), 2, "no histogram copied");
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
    fn sharded_counters_merge_on_scrape() {
        let reg = Registry::with_shards(4);
        reg.counter_on(0, "ops").add(3);
        reg.counter_on(1, "ops").add(4);
        reg.counter_on(3, "ops").add(5);
        // Per-shard cells are distinct, but the scrape sums them.
        assert!(reg.snapshot_json().contains("\"ops\":12"));
        assert!(reg.prometheus().contains("ops 12"));
        assert_eq!(reg.len(), 1, "one logical instrument across shards");
    }

    #[test]
    fn sharded_histograms_merge_and_fix_bounds() {
        let reg = Registry::with_shards(3);
        reg.histogram_with("lat", &[1.0, 10.0]); // fixes bounds
        reg.histogram_on(1, "lat").observe(0.5);
        reg.histogram_on(2, "lat").observe(5.0);
        reg.histogram_on(2, "lat").observe(100.0);
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
