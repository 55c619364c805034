//! Hierarchical RAII span profiler: the workspace's one timing primitive.
//!
//! Where [`crate::telemetry::counters`] answers *how much work* a run did,
//! this module answers *where the time went*: spans opened around the hot
//! kernels (Newton solves, tridiagonal sweeps, chemistry substeps,
//! equilibrium lookups, spectrum integration, solver step loops) count
//! every call and record every duration into a per-label log-bucketed
//! [`Histogram`], so each label carries calls, min/max/total and
//! p50/p90/p99 at once. [`crate::metrics::snapshot`] exposes these as its
//! `timings`.
//!
//! Counting and histograms are always on. The Chrome trace-event timeline
//! is opt-in: while [`enable`] is in force every span also appends one
//! complete event, exportable with [`chrome_trace_json`] — a
//! `--trace=PATH` run opens directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Design constraints, in order:
//!
//! 1. **Cheap enough to leave on.** A span costs two `Instant::now` reads
//!    and one uncontended lock of the calling thread's buffer; the CI perf
//!    ratchet holds with every call timed.
//! 2. **Thread-aware.** Every thread (rayon workers included) records into
//!    its own buffer; buffers register themselves in a global list so
//!    [`stats`] and [`chrome_trace_json`] can merge them. A thread that
//!    exits folds its histograms into the registry, so short-lived workers
//!    leave no buffer behind (a thread holding timeline events keeps its
//!    buffer, and its Perfetto track, until [`reset`]).
//! 3. **Order-invariant merges.** Histogram merging is bucket-wise
//!    addition plus min/max folds, so the merged statistics do not depend
//!    on how observations were spread across threads.
//! 4. **Dependency-free**, like the rest of the telemetry layer.
//!
//! Nesting needs no explicit bookkeeping: RAII scopes produce properly
//! contained `[start, start+dur]` intervals per thread, which is exactly
//! what the trace-event `"X"` (complete-event) phase encodes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::metrics::Histogram;

/// Per-thread event cap: beyond this the timeline drops events (stats keep
/// accumulating) so a pathological run cannot exhaust memory. 2^20 complete
/// events ≈ 48 MiB of JSON — ample for every figure run.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Lock ignoring poison: a panic inside a traced kernel must not disable
/// the profiler for the rest of the process.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One completed span occurrence on one thread.
#[derive(Debug, Clone)]
struct SpanEvent {
    label: &'static str,
    /// Start offset from the profiler epoch \[ns\].
    start_ns: u64,
    /// Duration \[ns\].
    dur_ns: u64,
}

/// Per-label duration histograms, in first-seen order.
type LabelHists = Vec<(&'static str, Histogram)>;

fn merge_hists(into: &mut LabelHists, from: &LabelHists) {
    for (label, h) in from {
        match into.iter_mut().find(|(l, _)| l == label) {
            Some((_, acc)) => acc.merge(h),
            None => into.push((label, h.clone())),
        }
    }
}

#[derive(Debug, Default)]
struct ThreadBuf {
    tid: usize,
    events: Vec<SpanEvent>,
    dropped: u64,
    hists: LabelHists,
}

impl ThreadBuf {
    fn record(&mut self, label: &'static str, dur_ns: u64) {
        match self.hists.iter_mut().find(|(l, _)| *l == label) {
            Some((_, h)) => h.observe_ns(dur_ns),
            None => {
                let mut h = Histogram::new();
                h.observe_ns(dur_ns);
                self.hists.push((label, h));
            }
        }
    }

    fn push_event(&mut self, label: &'static str, start_ns: u64, dur_ns: u64) {
        if self.events.len() < MAX_EVENTS_PER_THREAD {
            self.events.push(SpanEvent {
                label,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Append this buffer's timeline as `"X"` complete events (timestamps
    /// in µs). Labels are static identifiers (no quotes or escapes).
    fn write_events(&self, s: &mut String) {
        for e in &self.events {
            s.push_str(&format!(
                ",\n{{\"name\": \"{}\", \"cat\": \"aerothermo\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}",
                e.label,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                self.tid
            ));
        }
    }
}

/// Live thread buffers plus the histograms of threads that have exited.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Mutex<ThreadBuf>>>,
    retired: LabelHists,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// The calling thread's buffer; on thread exit its histograms move into
/// [`Registry::retired`] so spawn-per-call workers do not pile up buffers.
struct Local(Arc<Mutex<ThreadBuf>>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut reg = lock(registry());
        let buf = lock(&self.0);
        if !buf.events.is_empty() {
            return;
        }
        merge_hists(&mut reg.retired, &buf.hists);
        reg.live.retain(|b| !Arc::ptr_eq(b, &self.0));
    }
}

thread_local! {
    static LOCAL: Local = {
        let buf = Arc::new(Mutex::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ..ThreadBuf::default()
        }));
        lock(registry()).live.push(Arc::clone(&buf));
        Local(buf)
    };
}

/// Turn the timeline on (spans start appending Chrome trace events). Sets
/// the trace epoch on first call. Counts and histograms record regardless.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the timeline off; spans opened afterwards append no events. Already
/// recorded events are retained until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently appending timeline events.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop all recorded events, counts and histograms on every thread.
pub fn reset() {
    let mut reg = lock(registry());
    reg.retired.clear();
    // Buffers only the registry still holds belong to exited threads that
    // kept theirs for the timeline; with the events gone they can go too.
    reg.live.retain(|b| Arc::strong_count(b) > 1);
    for buf in &reg.live {
        let mut b = lock(buf);
        b.events.clear();
        b.hists.clear();
        b.dropped = 0;
    }
}

/// RAII guard returned by [`span`]; records the span on drop.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
pub struct Span {
    label: &'static str,
    start: Instant,
    timeline: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        // `try_with`: a span closing during thread teardown is not counted.
        let _ = LOCAL.try_with(|local| {
            let mut b = lock(&local.0);
            b.record(self.label, dur_ns);
            if self.timeline {
                let start_ns = self.start.duration_since(epoch()).as_nanos() as u64;
                b.push_event(self.label, start_ns, dur_ns);
            }
        });
    }
}

/// Open a span; it closes (and records) when the guard drops. Labels must
/// be static strings — they are the aggregation key.
#[inline]
pub fn span(label: &'static str) -> Span {
    Span {
        label,
        timeline: is_enabled(),
        start: Instant::now(),
    }
}

/// Run `f` under a span (convenience wrapper for non-lexical scopes).
#[inline]
pub fn spanned<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    let _sp = span(label);
    f()
}

/// Merged per-label statistics across all threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span label.
    pub label: &'static str,
    /// Completed occurrences.
    pub count: u64,
    /// Summed duration \[ns\].
    pub total_ns: u64,
    /// Shortest occurrence \[ns\].
    pub min_ns: u64,
    /// Longest occurrence \[ns\].
    pub max_ns: u64,
    /// Every occurrence's duration.
    pub hist: Histogram,
}

impl SpanStats {
    fn from_hist(label: &'static str, hist: Histogram) -> Self {
        Self {
            label,
            count: hist.count,
            total_ns: hist.sum_ns,
            min_ns: hist.min_ns,
            max_ns: hist.max_ns,
            hist,
        }
    }

    /// Mean duration per occurrence \[ns\] (0 when never recorded).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.hist.mean_ns()
    }
}

/// Aggregate statistics over every thread, sorted by total time descending.
#[must_use]
pub fn stats() -> Vec<SpanStats> {
    let reg = lock(registry());
    let mut merged = reg.retired.clone();
    for buf in &reg.live {
        merge_hists(&mut merged, &lock(buf).hists);
    }
    drop(reg);
    let mut out: Vec<SpanStats> = merged
        .into_iter()
        .map(|(label, h)| SpanStats::from_hist(label, h))
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    out
}

const CHROME_HEADER: &str = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\
     {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": \"aerothermo\"}}";
const CHROME_FOOTER: &str = "\n]}\n";

/// Drain the *calling thread's* timeline events into a standalone Chrome
/// trace-event JSON document, clearing those events (counts and histograms
/// are kept). Returns `None` when the thread has no events.
///
/// This is the per-case export the sweep engine uses for `--trace`: each
/// case runs pinned to one thread, so at case end the calling thread's
/// timeline holds exactly that case's spans, and draining it keeps the
/// next case on the same worker from inheriting them.
#[must_use]
pub fn drain_thread_chrome_json() -> Option<String> {
    LOCAL.with(|local| {
        let mut b = lock(&local.0);
        if b.events.is_empty() {
            return None;
        }
        let mut s = String::with_capacity(1 << 12);
        s.push_str(CHROME_HEADER);
        b.write_events(&mut s);
        s.push_str(CHROME_FOOTER);
        b.events.clear();
        b.dropped = 0;
        Some(s)
    })
}

/// Timeline events dropped because a thread hit its event cap.
#[must_use]
pub fn dropped_events() -> u64 {
    lock(registry()).live.iter().map(|b| lock(b).dropped).sum()
}

/// Export every recorded event as Chrome trace-event JSON (the
/// `traceEvents` array of `"X"` complete events, timestamps in µs). The
/// output loads directly in `chrome://tracing` and Perfetto.
#[must_use]
pub fn chrome_trace_json() -> String {
    let mut s = String::with_capacity(1 << 16);
    s.push_str(CHROME_HEADER);
    for buf in &lock(registry()).live {
        lock(buf).write_events(&mut s);
    }
    s.push_str(CHROME_FOOTER);
    s
}

/// Serializes the tests (here and in [`crate::metrics`]) that reset or
/// toggle the process-global profiler state.
#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(label: &str) -> Option<SpanStats> {
        stats().into_iter().find(|s| s.label == label)
    }

    #[test]
    fn disabled_timeline_still_counts() {
        let _g = test_lock();
        disable();
        {
            let _sp = span("trace_test_disabled");
        }
        assert_eq!(stat("trace_test_disabled").unwrap().count, 1);
        assert!(!chrome_trace_json().contains("trace_test_disabled"));
        reset();
    }

    #[test]
    fn nested_spans_aggregate_per_label() {
        let _g = test_lock();
        for _ in 0..3 {
            let _outer = span("trace_test_outer");
            for _ in 0..4 {
                let _inner = span("trace_test_inner");
                std::hint::black_box(1.0_f64.sqrt());
            }
        }
        let outer = stat("trace_test_outer").unwrap();
        let inner = stat("trace_test_inner").unwrap();
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 12);
        assert_eq!(inner.hist.count, 12);
        assert_eq!(inner.hist.sum_ns, inner.total_ns);
        assert!(outer.min_ns <= outer.max_ns);
        assert!(outer.total_ns >= outer.max_ns);
        assert!(inner.mean_ns() <= inner.max_ns);
        reset();
    }

    #[test]
    fn chrome_export_is_balanced_json_with_events() {
        let _g = test_lock();
        enable();
        spanned("trace_test_export", || std::hint::black_box(2 + 2));
        disable();
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"trace_test_export\""));
        assert!(json.contains("\"ph\": \"X\""));
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
        reset();
    }

    #[test]
    fn drain_clears_events_but_keeps_counts() {
        let _g = test_lock();
        enable();
        spanned("trace_test_drain", || std::hint::black_box(3 + 3));
        disable();
        let doc = drain_thread_chrome_json().expect("this thread recorded an event");
        assert!(doc.contains("\"trace_test_drain\""));
        assert!(drain_thread_chrome_json().is_none());
        assert_eq!(stat("trace_test_drain").unwrap().count, 1);
        reset();
    }

    #[test]
    fn exited_threads_fold_into_the_registry() {
        let _g = test_lock();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    spanned("trace_test_worker", || std::hint::black_box(1 + 1));
                    LOCAL.with(|local| Arc::downgrade(&local.0))
                })
            })
            .collect();
        for h in handles {
            let buf = h.join().unwrap();
            assert!(buf.upgrade().is_none(), "exited thread left its buffer");
        }
        assert_eq!(stat("trace_test_worker").unwrap().count, 2);
        reset();
    }
}
