//! The instrument types: counters, gauges and histograms.
//!
//! Handles are `Arc`-backed clones sharing one atomic cell, so a
//! component can keep its handle across the lifetime of a run while the
//! registry snapshots concurrently. All updates use relaxed atomics —
//! the workspace's simulators are single-threaded and only need the
//! cheapest possible record path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` value (stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates a gauge starting at 0.0.
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` to the current value.
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A trace-id exemplar: one concrete observation pinned to the bucket
/// it landed in, so a scrape of (say) the p99 bucket names an actual
/// request a human can go look up in `/tracez` or an incident report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The trace id of the observation (see `mfm_telemetry::trace`).
    pub trace_id: u64,
    /// The observed value itself.
    pub value: f64,
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bucket bounds (inclusive, ascending); an implicit +Inf
    /// bucket follows.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ observed values, f64 bits updated by CAS.
    sum: AtomicU64,
    /// Minimum observed value, f64 bits.
    min: AtomicU64,
    /// Maximum observed value, f64 bits.
    max: AtomicU64,
    /// Last exemplar per bucket (same indexing as `buckets`). Only the
    /// exemplar-observe path touches the lock; plain `observe` stays
    /// atomic-only.
    exemplars: Mutex<Vec<Option<Exemplar>>>,
}

/// A fixed-bucket histogram of `f64` observations.
///
/// The default bounds form a 1-2-5 decade ladder from 1 to 5·10⁸, which
/// suits the workspace's typical observations (events per settle,
/// span microseconds, toggles per window).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram with the default 1-2-5 decade bounds.
    pub fn new() -> Self {
        let mut bounds = Vec::new();
        let mut decade = 1.0f64;
        for _ in 0..9 {
            for m in [1.0, 2.0, 5.0] {
                bounds.push(m * decade);
            }
            decade *= 10.0;
        }
        Self::with_bounds(&bounds)
    }

    /// Creates a histogram with explicit ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n_buckets = bounds.len() + 1;
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exemplars: Mutex::new(vec![None; n_buckets]),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let h = &*self.0;
        let idx = h.bounds.partition_point(|&b| b < v);
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&h.sum, |s| s + v);
        cas_f64(&h.min, |m| m.min(v));
        cas_f64(&h.max, |m| m.max(v));
    }

    /// Records one observation and pins a trace-id exemplar to the
    /// bucket it lands in (last writer wins per bucket).
    pub fn observe_exemplar(&self, v: f64, trace_id: u64) {
        self.observe(v);
        let h = &*self.0;
        let idx = h.bounds.partition_point(|&b| b < v);
        if let Ok(mut ex) = h.exemplars.lock() {
            ex[idx] = Some(Exemplar { trace_id, value: v });
        }
    }

    /// Per-bucket exemplars, same indexing as [`Histogram::bucket_counts`].
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.0
            .exemplars
            .lock()
            .map(|e| e.clone())
            .unwrap_or_default()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum.load(Ordering::Relaxed))
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.0.min.load(Ordering::Relaxed)))
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.0.max.load(Ordering::Relaxed)))
    }

    /// The configured upper bounds (the +Inf bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts, one per bound plus the final +Inf bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1), or `None` when empty.
    ///
    /// The estimate interpolates linearly inside the bucket containing
    /// the target rank (the standard Prometheus `histogram_quantile`
    /// rule): the bucket's lower edge is the previous bound (0 below
    /// the first bound), its upper edge the bound itself. The +Inf
    /// bucket has no upper edge, so ranks landing there report the
    /// maximum observation. The result is clamped to the observed
    /// `[min, max]`, which sharpens the estimate when all mass sits in
    /// one bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let (min, max) = (self.min().unwrap_or(0.0), self.max().unwrap_or(0.0));
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= rank {
                let est = match self.0.bounds.get(i) {
                    None => max, // +Inf bucket: best estimate is the max
                    Some(&hi) => {
                        let lo = if i == 0 { 0.0 } else { self.0.bounds[i - 1] };
                        lo + (hi - lo) * ((rank - cum as f64) / n as f64)
                    }
                };
                return Some(est.clamp(min, max));
            }
            cum += n;
        }
        Some(max)
    }
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.add(1.0);
        assert_eq!(g.get(), 3.5);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 3.0, 50.0, 1000.0] {
            h.observe(v);
        }
        // ≤1: {0.5, 1.0}; ≤10: {3.0}; ≤100: {50.0}; +Inf: {1000.0}.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1054.5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1000.0));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::with_bounds(&[2.0, 1.0]);
    }
}
