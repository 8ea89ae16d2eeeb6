//! Zero-dependency observability: named counters, gauges, fixed-bucket
//! histograms with a global enable switch.
//!
//! Design constraints (these are load-bearing for the SPICE hot path):
//!
//! - **Disabled path is branch-only.** Every recording call starts with a
//!   relaxed load of one global `AtomicBool`; when metrics are off the call
//!   returns immediately — no allocation, no locking, no atomic RMW.
//! - **Hot path is lock-free when enabled.** Counters and histograms are
//!   relaxed `AtomicU64` operations. The registry mutex is taken only once
//!   per metric (lazy self-registration on first enabled touch) and by
//!   [`snapshot`]/[`reset_all`].
//! - **`const`-constructible.** Metrics are declared as `static` items in
//!   the crates they instrument; no init-order or registration boilerplate.
//!
//! ```
//! static SOLVES: obd_metrics::Counter = obd_metrics::Counter::new("demo.solves");
//! obd_metrics::enable();
//! SOLVES.add(3);
//! let snap = obd_metrics::snapshot();
//! assert_eq!(snap.counter("demo.solves"), Some(3));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Global switch. Off by default so library users pay one branch per call.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn metric recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn metric recording off (process-wide).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

fn register(m: MetricRef) {
    REGISTRY.lock().expect("metrics registry poisoned").push(m);
}

/// Monotonic event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Increment by `n`. Branch-only when metrics are disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one. Branch-only when metrics are disabled.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            register(MetricRef::Counter(self));
        }
    }
}

/// Last-value gauge storing an `f64` (bit-cast into an `AtomicU64`).
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            bits: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record the latest value. Branch-only when metrics are disabled.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            register(MetricRef::Gauge(self));
        }
    }
}

/// Maximum number of finite buckets a histogram may declare.
pub(crate) const MAX_BUCKETS: usize = 24;

/// Fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper edges in ascending order; samples above the
/// last bound land in an implicit overflow bucket. Count, sum, min and max
/// are tracked exactly; percentiles are bucket-resolution estimates.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    counts: [AtomicU64; MAX_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// `bounds` must be ascending and hold at most `MAX_BUCKETS` (24) edges.
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        assert!(bounds.len() <= MAX_BUCKETS);
        Self {
            name,
            bounds,
            counts: [ZERO; MAX_BUCKETS],
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one sample. Branch-only when metrics are disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.counts[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            register(MetricRef::Histogram(self));
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, self.counts[i].load(Ordering::Relaxed)))
            .collect();
        let overflow = self.overflow.load(Ordering::Relaxed);
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = (q * count as f64).ceil() as u64;
            let mut cum = 0u64;
            for &(bound, c) in &buckets {
                cum += c;
                if cum >= target {
                    return bound;
                }
            }
            max
        };
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
            buckets,
            overflow,
        }
    }
}

/// Point-in-time copy of one histogram, with bucket-resolution percentiles.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    pub(crate) p50: u64,
    pub(crate) p90: u64,
    pub(crate) p99: u64,
    /// `(inclusive_upper_bound, count)` pairs in ascending bound order.
    pub(crate) buckets: Vec<(u64, u64)>,
    /// Samples above the last bound.
    pub(crate) overflow: u64,
}

/// Point-in-time copy of every metric touched while enabled.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub(crate) counters: Vec<(String, u64)>,
    pub(crate) gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by name, if it was touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by name, if it was touched.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serialize as a deterministic (name-sorted) JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        let mut counters = self.counters.clone();
        counters.sort();
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            out.push_str(&format!("\n    \"{name}\": {v:?}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut hists = self.histograms.clone();
        hists.sort_by(|a, b| a.name.cmp(&b.name));
        for (i, h) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.name, h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            ));
            for (j, (bound, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"le\": {bound}, \"count\": {c}}}"));
            }
            out.push_str(&format!("], \"overflow\": {}}}", h.overflow));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Copy every registered metric's current value.
pub fn snapshot() -> MetricsSnapshot {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    let mut snap = MetricsSnapshot::default();
    for m in reg.iter() {
        match m {
            MetricRef::Counter(c) => snap.counters.push((c.name.to_string(), c.get())),
            MetricRef::Gauge(g) => snap.gauges.push((g.name.to_string(), g.get())),
            MetricRef::Histogram(h) => snap.histograms.push(h.snapshot()),
        }
    }
    snap
}

/// Zero every registered metric (registration itself is retained).
pub fn reset_all() {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    for m in reg.iter() {
        match m {
            MetricRef::Counter(c) => c.reset(),
            MetricRef::Gauge(g) => g.reset(),
            MetricRef::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share the process-wide enable flag and registry, so they
    // funnel through one lock to avoid cross-test interference.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap();
        enable();
        reset_all();
        let r = f();
        disable();
        r
    }

    #[test]
    fn disabled_counter_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        static C: Counter = Counter::new("test.disabled_counter");
        disable();
        C.add(5);
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        static C: Counter = Counter::new("test.concurrent");
        with_enabled(|| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(|| {
                        for _ in 0..10_000 {
                            C.inc();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(C.get(), 80_000);
        });
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        static H: Histogram = Histogram::new("test.bounds", &[1, 10, 100]);
        with_enabled(|| {
            for v in [0, 1, 2, 10, 11, 100, 101, 5000] {
                H.record(v);
            }
            let snap = snapshot();
            let h = snap
                .histograms
                .iter()
                .find(|h| h.name == "test.bounds")
                .unwrap();
            // 0,1 -> le=1; 2,10 -> le=10; 11,100 -> le=100; 101,5000 -> overflow
            assert_eq!(h.buckets, vec![(1, 2), (10, 2), (100, 2)]);
            assert_eq!(h.overflow, 2);
            assert_eq!(h.count, 8);
            assert_eq!(h.min, 0);
            assert_eq!(h.max, 5000);
            assert_eq!(h.sum, 1 + 2 + 10 + 11 + 100 + 101 + 5000);
        });
    }

    #[test]
    fn histogram_percentiles_track_buckets() {
        static H: Histogram = Histogram::new("test.pcts", &[1, 2, 4, 8, 16]);
        with_enabled(|| {
            for v in 1..=16u64 {
                H.record(v);
            }
            let snap = snapshot();
            let h = snap
                .histograms
                .iter()
                .find(|h| h.name == "test.pcts")
                .unwrap();
            assert_eq!(h.p50, 8); // 8 of 16 samples are <= 8
            assert_eq!(h.p99, 16);
        });
    }

    #[test]
    fn gauge_stores_last_value() {
        static G: Gauge = Gauge::new("test.gauge");
        with_enabled(|| {
            G.set(2.5);
            G.set(-7.25);
            assert_eq!(G.get(), -7.25);
            assert_eq!(snapshot().gauge("test.gauge"), Some(-7.25));
        });
    }

    #[test]
    fn reset_all_zeroes_but_keeps_registration() {
        static C: Counter = Counter::new("test.reset");
        with_enabled(|| {
            C.add(9);
            reset_all();
            assert_eq!(C.get(), 0);
            assert_eq!(snapshot().counter("test.reset"), Some(0));
        });
    }

    #[test]
    fn json_is_balanced_and_contains_names() {
        static C: Counter = Counter::new("test.json_counter");
        static H: Histogram = Histogram::new("test.json_hist", &[10, 20]);
        with_enabled(|| {
            C.add(3);
            H.record(15);
            let json = snapshot().to_json();
            assert!(json.contains("\"test.json_counter\": 3"));
            assert!(json.contains("\"test.json_hist\""));
            let mut depth = 0i32;
            for ch in json.chars() {
                match ch {
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0);
            }
            assert_eq!(depth, 0);
        });
    }
}
