//! Typed metrics: gauges and the log-bucketed timing histogram, plus the
//! unified JSON / Prometheus-style exposition of every metric type.
//!
//! Where [`crate::telemetry::counters`] counts *how much work* ran, the
//! timings answer distribution questions — "what is the p99 of an
//! `euler_step` right now?" — the way a serving daemon must:
//!
//! * **Timings**: every [`crate::trace::span`] label. Spans record each
//!   duration into a [`Histogram`] (log-bucketed `u64` nanoseconds, 8
//!   sub-buckets per octave, ≤ ~9 % relative bucket width); [`snapshot`]
//!   reads them through [`crate::trace::stats`].
//! * **Gauges** ([`Gauge`]): last-write-wins `f64` values (current CFL
//!   scale, sweep worker utilization) stored as atomic bit patterns.
//! * **Counters**: the existing [`crate::telemetry::counters`] registry,
//!   folded into this module's snapshot and exposition so one endpoint
//!   serves all three metric types.
//!
//! # Determinism
//!
//! Histograms merge by bucket-wise `u64` addition and min/max folds — all
//! commutative and associative, so any partition of the same observations
//! across any number of threads merges to the identical [`Histogram`]
//! (property-tested). Quantiles are computed from fixed bucket upper
//! bounds, never by interpolation, so summaries are deterministic
//! functions of the merged buckets.
//!
//! Wall-clock *values* are of course nondeterministic; timing data is
//! therefore kept out of every bitwise-compared payload (sweep stores,
//! feature-parity reports) and surfaced only in observability sections.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::write_string;
use crate::telemetry::counters;
use crate::trace::{self, SpanStats};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` ns get exact unit buckets; above, octave × sub-bucket.
/// Top octave 63 ends at index `SUB + (63 - SUB_BITS) * SUB + 7` = 487.
const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Map a duration in nanoseconds to its histogram bucket index.
#[inline]
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros(); // >= SUB_BITS
    let sub = ((ns >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + (top - SUB_BITS) as usize * SUB + sub
}

/// Inclusive upper bound (ns) of histogram bucket `idx` — the value
/// reported by [`Histogram::quantile_ns`]; deterministic by construction.
#[must_use]
pub fn bucket_upper_ns(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let rel = idx - SUB;
    let top = SUB_BITS + (rel / SUB) as u32;
    let sub = (rel % SUB) as u64;
    let lower = (1u64 << top) | (sub << (top - SUB_BITS));
    // Parenthesized so the top bucket (upper == u64::MAX) cannot overflow.
    lower + ((1u64 << (top - SUB_BITS)) - 1)
}

/// A log-bucketed duration histogram over `u64` nanoseconds.
///
/// Merging ([`Histogram::merge`]) is bucket-wise addition plus min/max
/// folds, so any merge order (or sharding) of the same observations yields
/// a bitwise-identical result.
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; N_BUCKETS]>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded durations \[ns\].
    pub sum_ns: u64,
    /// Smallest recorded duration \[ns\] (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest recorded duration \[ns\].
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .field("min_ns", &self.min_ns)
            .field("max_ns", &self.max_ns)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum_ns == other.sum_ns
            && self.min_ns == other.min_ns
            && self.max_ns == other.max_ns
            && self.buckets[..] == other.buckets[..]
    }
}
impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; N_BUCKETS]),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one duration \[ns\].
    pub fn observe_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one (commutative, associative).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean recorded duration \[ns\] (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest observation; 0 when empty.
    /// Deterministic: depends only on merged bucket counts.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ns(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Non-empty buckets as `(upper_bound_ns, cumulative_count)` pairs —
    /// the shape Prometheus `le` histogram series want.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_upper_ns(idx), cum));
            }
        }
        out
    }
}

/// Last-write-wins scalar gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Current adaptive CFL scale of the most recent controlled run.
    CflScale,
    /// Sweep workers currently executing a case.
    SweepWorkersBusy,
    /// Cases finished (any status) in the current sweep.
    SweepCasesDone,
    /// Cases planned in the current sweep.
    SweepCasesTotal,
}

/// Number of [`Gauge`] variants.
pub const N_GAUGES: usize = 4;

impl Gauge {
    /// Every gauge, in declaration (and exposition) order.
    pub const ALL: [Gauge; N_GAUGES] = [
        Gauge::CflScale,
        Gauge::SweepWorkersBusy,
        Gauge::SweepCasesDone,
        Gauge::SweepCasesTotal,
    ];

    /// Stable snake_case name used in JSON and Prometheus exposition.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::CflScale => "cfl_scale",
            Gauge::SweepWorkersBusy => "sweep_workers_busy",
            Gauge::SweepCasesDone => "sweep_cases_done",
            Gauge::SweepCasesTotal => "sweep_cases_total",
        }
    }
}

/// Gauge storage: f64 bit patterns in relaxed atomics (0.0 initially).
static GAUGES: [AtomicU64; N_GAUGES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Set a gauge to `value`.
pub fn set_gauge(g: Gauge, value: f64) {
    GAUGES[g as usize].store(value.to_bits(), Ordering::Relaxed);
}

/// Current value of a gauge.
#[must_use]
pub fn gauge(g: Gauge) -> f64 {
    f64::from_bits(GAUGES[g as usize].load(Ordering::Relaxed))
}

/// Zero all gauges. Timings live in [`crate::trace`] (see
/// [`crate::trace::reset`]); counters in [`crate::telemetry::counters`].
pub fn reset_gauges() {
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time view of every metric: span timings, all gauges, and
/// the full telemetry counter set.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-label span timings, as [`crate::trace::stats`] orders them
    /// (total time descending).
    pub timings: Vec<SpanStats>,
    /// `(name, value)` for every gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, value)` for every telemetry counter, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
}

/// Take a [`MetricsSnapshot`]. Order-invariant: the timings are
/// independent of thread registration or recording order.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        timings: trace::stats(),
        gauges: Gauge::ALL.iter().map(|&g| (g.name(), gauge(g))).collect(),
        counters: counters::CounterSnapshot::take().iter().collect(),
    }
}

/// The one timing writer: a JSON object keyed by span label, each entry
/// carrying `calls`, `samples` (histogram count), `p50_ns`, `p90_ns`,
/// `p95_ns`, `p99_ns`, `min_ns`, `max_ns`, `mean_ns` and `total_ns`.
/// Timing values are wall-clock and must stay out of bitwise-compared
/// payloads.
#[must_use]
pub fn timings_json(timings: &[SpanStats]) -> String {
    let mut s = String::with_capacity(256 * timings.len() + 2);
    s.push('{');
    for (k, t) in timings.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let h = &t.hist;
        s.push_str(&format!(
            "{}: {{\"calls\": {}, \"samples\": {}, \"p50_ns\": {}, \
             \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"mean_ns\": {}, \"total_ns\": {}}}",
            write_string(t.label),
            t.count,
            h.count,
            h.quantile_ns(0.50),
            h.quantile_ns(0.90),
            h.quantile_ns(0.95),
            h.quantile_ns(0.99),
            if h.count == 0 { 0 } else { h.min_ns },
            h.max_ns,
            h.mean_ns(),
            h.sum_ns,
        ));
    }
    s.push('}');
    s
}

impl MetricsSnapshot {
    /// The timing for span `label`, if it recorded anything.
    #[must_use]
    pub fn timing(&self, label: &str) -> Option<&SpanStats> {
        self.timings.iter().find(|s| s.label == label)
    }

    /// JSON object: `{"timings": {...}, "gauges": {...}, "counters": {...}}`
    /// with the timings as [`timings_json`] writes them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1 << 12);
        s.push_str("{\"timings\": ");
        s.push_str(&timings_json(&self.timings));
        s.push_str(", \"gauges\": {");
        for (k, (name, v)) in self.gauges.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{name}\": {}", crate::json::write_f64(*v)));
        }
        s.push_str("}, \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if *v == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{name}\": {v}"));
        }
        s.push_str("}}");
        s
    }

    /// Prometheus-style text exposition (durations in seconds, cumulative
    /// `le` buckets at non-empty boundaries, `+Inf` terminal).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut s = String::with_capacity(1 << 12);
        for (name, v) in &self.counters {
            s.push_str(&format!(
                "# TYPE aerothermo_{name}_total counter\naerothermo_{name}_total {v}\n"
            ));
        }
        for (name, v) in &self.gauges {
            s.push_str(&format!(
                "# TYPE aerothermo_{name} gauge\naerothermo_{name} "
            ));
            if v.is_finite() {
                s.push_str(&format!("{v}"));
            } else {
                s.push_str("NaN");
            }
            s.push('\n');
        }
        for t in &self.timings {
            let name = t.label;
            s.push_str(&format!("# TYPE aerothermo_{name}_seconds histogram\n"));
            for (upper_ns, cum) in t.hist.cumulative_buckets() {
                s.push_str(&format!(
                    "aerothermo_{name}_seconds_bucket{{le=\"{}\"}} {cum}\n",
                    upper_ns as f64 / 1e9
                ));
            }
            s.push_str(&format!(
                "aerothermo_{name}_seconds_bucket{{le=\"+Inf\"}} {}\n",
                t.hist.count
            ));
            s.push_str(&format!(
                "aerothermo_{name}_seconds_sum {}\n",
                t.hist.sum_ns as f64 / 1e9
            ));
            s.push_str(&format!(
                "aerothermo_{name}_seconds_count {}\n",
                t.hist.count
            ));
            s.push_str(&format!("aerothermo_{name}_calls_total {}\n", t.count));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_lock as lock;

    #[test]
    fn bucket_roundtrip_monotone() {
        let mut prev_upper = 0u64;
        for idx in 0..N_BUCKETS {
            let upper = bucket_upper_ns(idx);
            if idx > 0 {
                assert!(upper > prev_upper, "bucket {idx} upper not monotone");
            }
            prev_upper = upper;
        }
        for ns in [0u64, 1, 7, 8, 9, 100, 999, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(ns);
            assert!(ns <= bucket_upper_ns(idx), "ns={ns} above bucket upper");
            if idx > 0 {
                assert!(
                    ns > bucket_upper_ns(idx - 1),
                    "ns={ns} not above previous bucket"
                );
            }
        }
    }

    #[test]
    fn bucket_width_stays_under_ten_percent() {
        for idx in SUB..N_BUCKETS - 1 {
            let lo = bucket_upper_ns(idx - 1) + 1;
            let hi = bucket_upper_ns(idx);
            let width = (hi - lo + 1) as f64 / hi as f64;
            assert!(width <= 0.126, "bucket {idx}: width {width}");
        }
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.observe_ns(ns);
        }
        assert_eq!(h.count, 1000);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        // Bucket upper bounds over-estimate by at most one bucket width.
        assert!((450..=600).contains(&p50), "p50={p50}");
        assert!((900..=1100).contains(&p99), "p99={p99}");
        assert!(h.quantile_ns(1.0) == h.max_ns);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let values: Vec<u64> = (0..500).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.observe_ns(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 3 == 0 {
                a.observe_ns(v);
            } else {
                b.observe_ns(v);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, whole);
    }

    #[test]
    fn every_span_call_is_a_timing() {
        let _g = lock();
        for _ in 0..8 {
            let _sp = trace::span("metrics_test_kernel");
            std::hint::black_box(1.0_f64.sqrt());
        }
        let snap = snapshot();
        let t = snap.timing("metrics_test_kernel").unwrap();
        assert_eq!(t.count, 8);
        assert_eq!(t.hist.count, 8, "every call is timed, none sampled away");
        trace::reset();
    }

    #[test]
    fn gauges_roundtrip() {
        let _g = lock();
        set_gauge(Gauge::CflScale, 0.25);
        assert_eq!(gauge(Gauge::CflScale), 0.25);
        reset_gauges();
        assert_eq!(gauge(Gauge::CflScale), 0.0);
    }

    #[test]
    fn json_and_prometheus_expositions_are_well_formed() {
        let _g = lock();
        trace::reset();
        for _ in 0..2 {
            let _sp = trace::span("euler_step");
            std::hint::black_box(1.0_f64.sqrt());
        }
        set_gauge(Gauge::CflScale, 1.0);
        let snap = snapshot();
        let json = snap.to_json();
        let v = crate::json::parse(&json).expect("snapshot JSON parses");
        let timings = v.get("timings").unwrap();
        let es = timings.get("euler_step").unwrap();
        assert_eq!(es.get("calls").unwrap().as_f64(), Some(2.0));
        assert!(
            es.get("p99_ns").unwrap().as_f64().unwrap()
                >= es.get("p50_ns").unwrap().as_f64().unwrap()
        );
        let text = snap.prometheus_text();
        assert!(text.contains("# TYPE aerothermo_euler_step_seconds histogram"));
        assert!(text.contains("aerothermo_euler_step_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("aerothermo_euler_step_seconds_count 2"));
        assert!(text.contains("aerothermo_cfl_scale 1"));
        trace::reset();
        reset_gauges();
    }
}
