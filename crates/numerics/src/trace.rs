//! Hierarchical RAII span profiler: the workspace's one timing primitive,
//! and the per-thread registry that also stores the kernel counters.
//!
//! Spans count *calls* and time them; [`crate::telemetry::counters`]
//! count *work* (iterations, faces, cache hits) and keep their values in
//! the same per-thread buffers, so counts and timings come from one
//! registry walk. Spans opened around the hot kernels (Newton solves,
//! tridiagonal sweeps, chemistry substeps, equilibrium lookups, spectrum
//! integration, solver step loops) count every call and record every
//! duration into a per-label log-bucketed [`Histogram`], so each label
//! carries calls, min/max/total and p50/p90/p99 at once. A span's call
//! count is the count of that kernel: there is no separate "solves"
//! counter. [`crate::metrics::snapshot`] exposes these as its `timings`.
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
//!    exits folds its histograms and counters into the registry, so
//!    short-lived workers leave no buffer behind (a thread holding
//!    timeline events keeps its buffer, and its Perfetto track, until
//!    [`reset`]). Counter adds take no lock: each thread's counters are
//!    atomics only that thread writes.
//! 3. **Order-invariant merges.** Histogram merging is bucket-wise
//!    addition plus min/max folds, so the merged statistics do not depend
//!    on how observations were spread across threads.
//! 4. **Dependency-free**, like the rest of the telemetry layer.
//!
//! Nesting needs no explicit bookkeeping: RAII scopes produce properly
//! contained `[start, start+dur]` intervals per thread, which is exactly
//! what the trace-event `"X"` (complete-event) phase encodes.
//!
//! Each thread counts its open spans: one opened while none is open is a
//! *root*, and its duration also adds to the thread's per-label root
//! totals ([`thread_root_ns`]). Roots on one thread never overlap, so they
//! sum to at most its wall time: the account a run report's `phases`
//! reconcile against `elapsed_secs`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::metrics::Histogram;
use crate::telemetry::counters::{CounterSnapshot, N_COUNTERS};

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
    /// Summed duration of this thread's root spans per label \[ns\].
    roots: Vec<(&'static str, u64)>,
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

    fn record_root(&mut self, label: &'static str, dur_ns: u64) {
        match self.roots.iter_mut().find(|(l, _)| *l == label) {
            Some((_, ns)) => *ns += dur_ns,
            None => self.roots.push((label, dur_ns)),
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

/// One thread's registry entry: its kernel counters, written only by the
/// owning thread (so a relaxed load + store is an increment) and read by
/// registry walks, beside its locked span buffer.
#[derive(Default)]
struct Slot {
    counts: [AtomicU64; N_COUNTERS],
    buf: Mutex<ThreadBuf>,
}

impl Slot {
    fn counts(&self) -> CounterSnapshot {
        CounterSnapshot {
            values: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
        }
    }
}

/// Live thread slots plus the histograms and counters of threads that have
/// exited.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Slot>>,
    retired: LabelHists,
    retired_counts: CounterSnapshot,
}

impl Registry {
    fn counts(&self) -> CounterSnapshot {
        let mut total = self.retired_counts.clone();
        for slot in &self.live {
            total.add(&slot.counts());
        }
        total
    }
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// The calling thread's slot; on thread exit its histograms and counters
/// move into the registry so spawn-per-call workers do not pile up slots.
struct Local(Arc<Slot>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut reg = lock(registry());
        let buf = lock(&self.0.buf);
        if !buf.events.is_empty() {
            return;
        }
        merge_hists(&mut reg.retired, &buf.hists);
        reg.retired_counts.add(&self.0.counts());
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    /// Spans open on this thread; a span opened at depth 0 is a root.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static LOCAL: Local = {
        let slot = Arc::new(Slot {
            buf: Mutex::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ..ThreadBuf::default()
            }),
            ..Slot::default()
        });
        lock(registry()).live.push(Arc::clone(&slot));
        Local(slot)
    };
}

/// Add `n` to counter `idx` of the calling thread. Counts made during
/// thread teardown are dropped.
#[inline]
pub(crate) fn add_count(idx: usize, n: u64) {
    let _ = LOCAL.try_with(|local| {
        let c = &local.0.counts[idx];
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    });
}

/// The calling thread's counters (zero during thread teardown).
pub(crate) fn thread_counts() -> CounterSnapshot {
    LOCAL.try_with(|local| local.0.counts()).unwrap_or_default()
}

/// Counter totals over every thread, live and exited.
pub(crate) fn counts() -> CounterSnapshot {
    lock(registry()).counts()
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

/// Drop all recorded events, span counts, histograms and root totals on
/// every thread.
/// Kernel counters are monotone and stay.
pub fn reset() {
    let mut reg = lock(registry());
    reg.retired.clear();
    // Slots only the registry still holds belong to exited threads that
    // kept theirs for the timeline; with the events gone they can go too,
    // their counters folded into the retired totals.
    let Registry {
        live,
        retired_counts,
        ..
    } = &mut *reg;
    live.retain(|s| {
        let alive = Arc::strong_count(s) > 1;
        if !alive {
            retired_counts.add(&s.counts());
        }
        alive
    });
    for slot in &reg.live {
        let mut b = lock(&slot.buf);
        b.events.clear();
        b.hists.clear();
        b.roots.clear();
        b.dropped = 0;
    }
}

/// RAII guard returned by [`span`]; records the span on drop. `!Send`: it
/// closes on the thread that opened it, whose open-span count it holds.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
pub struct Span {
    label: &'static str,
    start: Instant,
    timeline: bool,
    root: bool,
    _thread: PhantomData<*const ()>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        DEPTH.set(DEPTH.get() - 1);
        // `try_with`: a span closing during thread teardown is not counted.
        let _ = LOCAL.try_with(|local| {
            let mut b = lock(&local.0.buf);
            b.record(self.label, dur_ns);
            if self.root {
                b.record_root(self.label, dur_ns);
            }
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
    let depth = DEPTH.get();
    DEPTH.set(depth + 1);
    Span {
        label,
        timeline: is_enabled(),
        root: depth == 0,
        _thread: PhantomData,
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
    stats_and_counts().0
}

/// [`stats`] and the counter totals, read in one registry walk.
pub(crate) fn stats_and_counts() -> (Vec<SpanStats>, CounterSnapshot) {
    let reg = lock(registry());
    let mut merged = reg.retired.clone();
    for slot in &reg.live {
        merge_hists(&mut merged, &lock(&slot.buf).hists);
    }
    let counts = reg.counts();
    drop(reg);
    let mut out: Vec<SpanStats> = merged
        .into_iter()
        .map(|(label, h)| SpanStats::from_hist(label, h))
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    (out, counts)
}

/// Completed `label` spans on the calling thread since its last
/// [`reset`] (0 during thread teardown). The per-thread counterpart of a
/// [`stats`] count, for attribution that concurrent threads cannot skew.
#[must_use]
pub fn thread_span_count(label: &str) -> u64 {
    LOCAL
        .try_with(|local| {
            let b = lock(&local.0.buf);
            b.hists
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0, |(_, h)| h.count)
        })
        .unwrap_or(0)
}

/// The calling thread's root-span time \[ns\] per label since its last
/// [`reset`], in first-seen order (empty during thread teardown).
#[must_use]
pub fn thread_root_ns() -> Vec<(&'static str, u64)> {
    LOCAL
        .try_with(|local| lock(&local.0.buf).roots.clone())
        .unwrap_or_default()
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
        let mut b = lock(&local.0.buf);
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
    lock(registry())
        .live
        .iter()
        .map(|s| lock(&s.buf).dropped)
        .sum()
}

/// Export every recorded event as Chrome trace-event JSON (the
/// `traceEvents` array of `"X"` complete events, timestamps in µs). The
/// output loads directly in `chrome://tracing` and Perfetto.
#[must_use]
pub fn chrome_trace_json() -> String {
    let mut s = String::with_capacity(1 << 16);
    s.push_str(CHROME_HEADER);
    for slot in &lock(registry()).live {
        lock(&slot.buf).write_events(&mut s);
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
            let slot = h.join().unwrap();
            assert!(slot.upgrade().is_none(), "exited thread left its buffer");
        }
        assert_eq!(stat("trace_test_worker").unwrap().count, 2);
        reset();
    }

    fn root_ns(label: &str) -> Option<u64> {
        thread_root_ns()
            .into_iter()
            .find_map(|(l, ns)| (l == label).then_some(ns))
    }

    #[test]
    fn a_nested_span_is_not_a_root() {
        let _g = test_lock();
        {
            let _outer = span("trace_test_root_outer");
            let _inner = span("trace_test_root_inner");
        }
        assert!(root_ns("trace_test_root_outer").is_some());
        assert_eq!(root_ns("trace_test_root_inner"), None);
        // Closing the root reopens depth 0: the next span is a root again.
        spanned("trace_test_root_inner", || std::hint::black_box(1));
        assert!(root_ns("trace_test_root_inner").is_some());
        reset();
        assert!(thread_root_ns().is_empty(), "reset clears root totals");
    }

    #[test]
    fn spawned_thread_roots_are_not_the_callers() {
        let _g = test_lock();
        let outer = span("trace_test_caller");
        let theirs = std::thread::spawn(|| {
            spanned("trace_test_spawned", || std::hint::black_box(1));
            thread_root_ns()
        })
        .join()
        .unwrap();
        assert_eq!(theirs.len(), 1, "a fresh thread's first span is its root");
        assert_eq!(theirs[0].0, "trace_test_spawned");
        assert_eq!(root_ns("trace_test_spawned"), None);
        drop(outer);
        reset();
    }

    #[test]
    fn roots_sum_to_at_most_the_wall_time() {
        let _g = test_lock();
        reset();
        let t0 = Instant::now();
        for _ in 0..50 {
            let _a = span("trace_test_wall_a");
            for _ in 0..3 {
                spanned("trace_test_wall_b", || std::hint::black_box(2.0_f64.sqrt()));
            }
        }
        spanned("trace_test_wall_b", || std::hint::black_box(1));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let roots = thread_root_ns();
        assert_eq!(roots.len(), 2);
        let sum: u64 = roots.iter().map(|(_, ns)| ns).sum();
        assert!(sum <= wall_ns, "roots {sum} ns > wall {wall_ns} ns");
        assert_eq!(
            root_ns("trace_test_wall_a"),
            Some(stat("trace_test_wall_a").unwrap().total_ns),
            "every `a` span was a root"
        );
        reset();
    }

    #[test]
    fn reset_keeps_the_counters_of_pruned_threads() {
        use crate::telemetry::{counters, Counter};
        let _g = test_lock();
        let before = CounterSnapshot::take();
        enable();
        std::thread::spawn(|| {
            // The timeline event keeps this thread's slot alive past exit.
            spanned("trace_test_pruned", || std::hint::black_box(4 + 4));
            counters::add(Counter::SurrogateExactFallbacks, 3);
        })
        .join()
        .unwrap();
        disable();
        reset();
        assert_eq!(stat("trace_test_pruned"), None, "reset clears span counts");
        let delta = CounterSnapshot::take().delta_since(&before);
        assert_eq!(delta.get(Counter::SurrogateExactFallbacks), 3);
    }
}
