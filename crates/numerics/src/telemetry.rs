//! Solver telemetry and convergence observability.
//!
//! Dependency-free instrumentation threaded through every solver and hot
//! kernel in the workspace:
//!
//! - [`counters`]: named work counters (Newton iterations, faces
//!   evaluated, chemistry substeps, cache hits, rejected ODE steps, …).
//!   Counters count *work*; how many times a kernel was *called* is its
//!   [`crate::trace::span`] count. Each thread's counters live in its
//!   [`crate::trace`] buffer: an add takes no lock and touches no shared
//!   cache line.
//! - [`RunTelemetry`]: a per-run sink collecting monotonic wall-clock phase
//!   timings, residual convergence histories, and audit findings.
//! - [`ResidualMonitor`]: per-iteration residual recording with early
//!   NaN/Inf detection and sliding-window divergence detection, so an
//!   unstable run terminates with [`SolverError::Diverged`] instead of
//!   spinning to the iteration cap.
//! - [`AuditFinding`]: the record type produced by the in-situ physics
//!   auditors in `aerothermo-solvers` (flux budgets, element conservation,
//!   positivity, …) and surfaced in `--report` JSON; hard failures escalate
//!   to [`SolverError::AuditFailed`].
//! - [`SolverError`]: the typed error shared by all equation-set solvers,
//!   replacing the previous bare `String` errors. `Display` output keeps
//!   the wording of the old messages (lower-level `String` diagnostics pass
//!   through [`SolverError::Numerical`] verbatim).

use std::time::Instant;

/// Named, monotone work counters incremented by the numerical kernels.
pub mod counters {
    /// The fixed set of instrumented kernel events. A kernel's call count
    /// is its span count ([`crate::trace::stats`]), so no counter merely
    /// counts calls — except `TridiagSolves`, which the benchmark reads.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(usize)]
    pub enum Counter {
        /// Total Newton iterations across all solves.
        NewtonIterations,
        /// Scalar tridiagonal (Thomas) solves; equals the `tridiag_solve`
        /// span count.
        TridiagSolves,
        /// Chemistry operator-split substeps (reacting solver).
        ChemistrySubsteps,
        /// Accepted adaptive ODE steps (RKF45 + stiff backward Euler).
        OdeStepsAccepted,
        /// Rejected (error-controlled retry) adaptive ODE steps.
        OdeStepsRejected,
        /// Spectrum wavelength-point evaluations (radiation).
        SpectrumPoints,
        /// Face fluxes evaluated by the face-based residual assembly.
        FacesEvaluated,
        /// Equilibrium solves seeded from the warm-start cache.
        EquilibriumCacheHits,
        /// Equilibrium solves with no usable cached neighbor.
        EquilibriumCacheMisses,
        /// Newton iterations started from a cached element-potential
        /// vector instead of the cold pre-balance sweep.
        NewtonWarmStarts,
        /// Run-control checkpoints serialized to disk.
        CheckpointsWritten,
        /// Run-control rollback/retry events (checkpoint restores and
        /// single-shot backoff retries).
        RunRollbacks,
        /// States evaluated through the micro-batched equilibrium path.
        EquilibriumBatchStates,
        /// Equilibrium batches that ran with exactly 1 lane.
        EquilibriumBatchLanes1,
        /// Equilibrium batches that ran with exactly 2 lanes.
        EquilibriumBatchLanes2,
        /// Equilibrium batches that ran with exactly 3 lanes.
        EquilibriumBatchLanes3,
        /// Equilibrium batches that ran with the full 4 lanes.
        EquilibriumBatchLanes4,
        /// Faces evaluated by the four-wide vectorized flux kernel (the
        /// remainder of [`Counter::FacesEvaluated`] went through the scalar
        /// boundary/tail path).
        FluxSimdFaces,
        /// Stagnation-heating queries answered by the surrogate fast path
        /// (single and batched).
        SurrogateQueries,
        /// Surrogate response-surface tables built (each build walks the
        /// exact path over the whole grid, so a resident table should pin
        /// this at 1 while `SurrogateQueries` grows).
        SurrogateBuilds,
        /// Stagnation-heating queries that fell back to the exact
        /// `StagnationResponse` path because the point lay outside the
        /// resident table's corridor.
        SurrogateExactFallbacks,
    }

    /// Number of distinct counters.
    pub const N_COUNTERS: usize = 21;

    impl Counter {
        /// Every counter, in declaration order.
        pub const ALL: [Counter; N_COUNTERS] = [
            Counter::NewtonIterations,
            Counter::TridiagSolves,
            Counter::ChemistrySubsteps,
            Counter::OdeStepsAccepted,
            Counter::OdeStepsRejected,
            Counter::SpectrumPoints,
            Counter::FacesEvaluated,
            Counter::EquilibriumCacheHits,
            Counter::EquilibriumCacheMisses,
            Counter::NewtonWarmStarts,
            Counter::CheckpointsWritten,
            Counter::RunRollbacks,
            Counter::EquilibriumBatchStates,
            Counter::EquilibriumBatchLanes1,
            Counter::EquilibriumBatchLanes2,
            Counter::EquilibriumBatchLanes3,
            Counter::EquilibriumBatchLanes4,
            Counter::FluxSimdFaces,
            Counter::SurrogateQueries,
            Counter::SurrogateBuilds,
            Counter::SurrogateExactFallbacks,
        ];

        /// Stable snake_case name (used as the JSON report key).
        #[must_use]
        pub fn name(self) -> &'static str {
            match self {
                Counter::NewtonIterations => "newton_iterations",
                Counter::TridiagSolves => "tridiag_solves",
                Counter::ChemistrySubsteps => "chemistry_substeps",
                Counter::OdeStepsAccepted => "ode_steps_accepted",
                Counter::OdeStepsRejected => "ode_steps_rejected",
                Counter::SpectrumPoints => "spectrum_points",
                Counter::FacesEvaluated => "faces_evaluated",
                Counter::EquilibriumCacheHits => "equilibrium_cache_hits",
                Counter::EquilibriumCacheMisses => "equilibrium_cache_misses",
                Counter::NewtonWarmStarts => "newton_warm_starts",
                Counter::CheckpointsWritten => "checkpoints_written",
                Counter::RunRollbacks => "run_rollbacks",
                Counter::EquilibriumBatchStates => "equilibrium_batch_states",
                Counter::EquilibriumBatchLanes1 => "equilibrium_batch_lanes_1",
                Counter::EquilibriumBatchLanes2 => "equilibrium_batch_lanes_2",
                Counter::EquilibriumBatchLanes3 => "equilibrium_batch_lanes_3",
                Counter::EquilibriumBatchLanes4 => "equilibrium_batch_lanes_4",
                Counter::FluxSimdFaces => "flux_simd_faces",
                Counter::SurrogateQueries => "surrogate_queries",
                Counter::SurrogateBuilds => "surrogate_builds",
                Counter::SurrogateExactFallbacks => "surrogate_exact_fallbacks",
            }
        }
    }

    /// Add `n` to a counter of the calling thread (see
    /// [`super::TelemetryScope`]); safe from any thread.
    #[inline]
    pub fn add(counter: Counter, n: u64) {
        crate::trace::add_count(counter as usize, n);
    }

    /// Snapshot the *calling thread's* counters (counts attributed to
    /// kernels that executed on this thread since it started).
    #[must_use]
    pub fn thread_snapshot() -> CounterSnapshot {
        crate::trace::thread_counts()
    }

    /// Process-wide total of one counter.
    #[must_use]
    pub fn get(counter: Counter) -> u64 {
        CounterSnapshot::take().get(counter)
    }

    /// A point-in-time copy of all counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CounterSnapshot {
        pub(crate) values: [u64; N_COUNTERS],
    }

    impl CounterSnapshot {
        /// Snapshot the process-wide totals: every live thread plus every
        /// thread that has exited.
        #[must_use]
        pub fn take() -> Self {
            crate::trace::counts()
        }

        pub(crate) fn add(&mut self, other: &Self) {
            for (v, o) in self.values.iter_mut().zip(other.values) {
                *v = v.wrapping_add(o);
            }
        }

        /// Counters accumulated since `earlier` (saturating).
        #[must_use]
        pub fn delta_since(&self, earlier: &Self) -> Self {
            Self {
                values: std::array::from_fn(|i| self.values[i].saturating_sub(earlier.values[i])),
            }
        }

        /// Value of one counter in this snapshot.
        #[must_use]
        pub fn get(&self, counter: Counter) -> u64 {
            self.values[counter as usize]
        }

        /// Iterate `(name, value)` pairs in declaration order.
        pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
            Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.values[c as usize]))
        }
    }
}

pub use counters::{Counter, CounterSnapshot};

/// Thread-scoped counter window for per-run attribution.
///
/// Two solver runs executing concurrently (sweep-engine cases, parallel
/// tests) interleave their work in the process-wide totals, so a global
/// before/after delta lies about both. A `TelemetryScope` instead deltas
/// the calling thread's own counters, which only ever accumulate work
/// executed on that thread.
///
/// # Attribution semantics
///
/// Counts are attributed to the thread that *executes* the instrumented
/// kernel, not the thread that requested it. Work a solver offloads to
/// rayon pool threads therefore lands on those threads' counters and is
/// **not** folded back into the calling scope. Callers that need complete
/// attribution must pin the run to the calling thread — e.g. wrap it in
/// `rayon::ThreadPoolBuilder::new().num_threads(1)...install(..)`, which
/// is exactly what the sweep engine's worker pool does: inter-case
/// parallelism comes from the pool's workers, each case runs its kernels
/// single-threaded, and every count lands in the case's scope.
///
/// Scopes on the same thread may nest (each holds its own baseline), and
/// the process-wide totals are untouched — totals and per-scope windows
/// coexist.
#[derive(Debug, Clone)]
pub struct TelemetryScope {
    baseline: CounterSnapshot,
}

impl TelemetryScope {
    /// Open a scope: snapshot the calling thread's counters.
    #[must_use]
    pub fn begin() -> Self {
        Self {
            baseline: counters::thread_snapshot(),
        }
    }

    /// Counters accumulated *on this thread* since [`TelemetryScope::begin`].
    /// Call from the same thread that opened the scope; from any other
    /// thread the delta is against that thread's unrelated counters and is
    /// meaningless.
    #[must_use]
    pub fn thread_delta(&self) -> CounterSnapshot {
        counters::thread_snapshot().delta_since(&self.baseline)
    }
}

/// Outcome class of one physics-audit evaluation.
///
/// The auditors in `aerothermo-solvers::audit` grade every invariant check
/// into one of three bands: within tolerance, suspicious but survivable, or
/// bad enough that continuing the solve would only propagate garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditSeverity {
    /// The invariant holds within its soft tolerance.
    Pass,
    /// The invariant is violated beyond the soft tolerance but under the
    /// hard threshold — recorded and surfaced, the solve continues.
    Warn,
    /// The invariant is violated beyond the hard threshold; the solve
    /// aborts with [`SolverError::AuditFailed`].
    Fail,
}

impl AuditSeverity {
    /// Stable lowercase name (used as the JSON report value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AuditSeverity::Pass => "pass",
            AuditSeverity::Warn => "warn",
            AuditSeverity::Fail => "fail",
        }
    }
}

/// One evaluated physics invariant: which audit ran, how badly the
/// invariant was violated, and against what threshold.
///
/// `value` is always the *violation measure* (relative imbalance, deficit
/// magnitude, …) so that `value <= threshold` ⇒ pass regardless of which
/// physical quantity the audit inspects.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// Stable audit identifier, e.g. `"mass_flux_budget"`.
    pub audit: &'static str,
    /// Graded outcome.
    pub severity: AuditSeverity,
    /// Measured violation (dimensionless unless `detail` says otherwise).
    pub value: f64,
    /// The threshold the severity was graded against: the warn threshold
    /// for `Pass`/`Warn` findings, the fail threshold for `Fail`.
    pub threshold: f64,
    /// Solver step (or station/point index) at which the audit ran.
    pub step: usize,
    /// Human-readable context: what was measured and where.
    pub detail: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at step {}: {:.3e} (threshold {:.3e}) — {}",
            self.severity.name(),
            self.audit,
            self.step,
            self.value,
            self.threshold,
            self.detail
        )
    }
}

/// Typed error shared by every equation-set solver and instrumented kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The residual grew past the divergence threshold; the run was cut
    /// short instead of spinning to the iteration cap.
    Diverged {
        /// Iteration at which divergence was detected.
        iter: usize,
        /// Residual value at detection.
        residual: f64,
    },
    /// A NaN/Inf appeared in the named field at cell `(i, j)` (for
    /// residual-level detection without a cell, `i` is the iteration and
    /// `j` is 0).
    NonFinite {
        /// Field or quantity that went non-finite.
        field: &'static str,
        /// First affected i-index (or iteration).
        i: usize,
        /// First affected j-index.
        j: usize,
    },
    /// An iteration budget ran out without meeting the tolerance.
    IterationLimit {
        /// What was iterating (e.g. "VSL standoff iteration").
        context: String,
        /// The budget that was exhausted.
        iters: usize,
        /// Residual when the budget ran out (NaN if unknown).
        residual: f64,
    },
    /// A physics audit measured an invariant violation past its hard
    /// threshold (mass leaking from the domain, negative temperatures, …).
    AuditFailed {
        /// Stable audit identifier, e.g. `"mass_flux_budget"`.
        audit: String,
        /// Measured violation.
        value: f64,
        /// Hard threshold that was exceeded.
        threshold: f64,
    },
    /// The problem specification itself is invalid.
    BadInput(String),
    /// A lower-level numerical routine failed; the message is preserved
    /// verbatim (this is the compatibility path for the old `String`
    /// errors).
    Numerical(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Diverged { iter, residual } => {
                write!(
                    f,
                    "solver diverged at iteration {iter} (residual {residual:.3e})"
                )
            }
            SolverError::NonFinite { field, i, j } => {
                if *field == "residual" && *j == 0 {
                    // Residual-level detection has no cell: `i` is the
                    // iteration index, and printing it as a coordinate pair
                    // misleads whoever reads the log.
                    write!(f, "non-finite residual at iteration {i}")
                } else {
                    write!(f, "non-finite {field} at ({i}, {j})")
                }
            }
            SolverError::AuditFailed {
                audit,
                value,
                threshold,
            } => {
                write!(
                    f,
                    "physics audit '{audit}' failed: {value:.3e} exceeds hard threshold {threshold:.3e}"
                )
            }
            SolverError::IterationLimit {
                context,
                iters,
                residual,
            } => {
                if residual.is_finite() {
                    write!(f, "{context} did not converge in {iters} iterations (residual {residual:.3e})")
                } else {
                    write!(f, "{context} did not converge in {iters} iterations")
                }
            }
            SolverError::BadInput(msg) | SolverError::Numerical(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<String> for SolverError {
    fn from(msg: String) -> Self {
        SolverError::Numerical(msg)
    }
}

impl From<&str> for SolverError {
    fn from(msg: &str) -> Self {
        SolverError::Numerical(msg.to_string())
    }
}

/// Tuning for [`ResidualMonitor`]'s divergence detection.
#[derive(Debug, Clone)]
pub struct MonitorOptions {
    /// Iterations ignored before divergence checks arm (startup transients
    /// legitimately grow the residual while the flow field forms).
    pub grace: usize,
    /// Declare divergence when the residual exceeds `growth_ratio` × the
    /// best residual seen so far (after `grace`).
    pub growth_ratio: f64,
    /// Sliding-window length: divergence also triggers when the residual
    /// has grown monotonically across this many consecutive iterations by
    /// at least `window_growth` overall.
    pub window: usize,
    /// Minimum overall growth across the window to call it divergence.
    pub window_growth: f64,
}

impl Default for MonitorOptions {
    fn default() -> Self {
        Self {
            grace: 50,
            growth_ratio: 1e6,
            window: 25,
            window_growth: 1e3,
        }
    }
}

/// Per-iteration residual recorder with early NaN/Inf and divergence
/// detection.
///
/// Feed it the residual each solver iteration already computes; it returns
/// `Err` as soon as the history is demonstrably diverging so the caller can
/// abort with a typed [`SolverError`] instead of running to the cap.
#[derive(Debug, Clone)]
pub struct ResidualMonitor {
    history: Vec<f64>,
    /// Divergence reference: best residual *after* the grace window (see
    /// the comment in [`ResidualMonitor::record`]). Kept as a bare f64
    /// sentinel because it is only ever compared against, never reported.
    best: f64,
    /// Reporting value: best finite residual over the whole history, or
    /// `None` when nothing finite was ever recorded. Kept separate from
    /// `best` so that the JSON report never renders the `INFINITY`
    /// sentinel as the invalid token `inf`.
    best_finite: Option<f64>,
    opts: MonitorOptions,
}

impl ResidualMonitor {
    /// Monitor with default options.
    #[must_use]
    pub fn new() -> Self {
        Self::with_options(MonitorOptions::default())
    }

    /// Monitor with explicit divergence tuning.
    #[must_use]
    pub fn with_options(opts: MonitorOptions) -> Self {
        Self {
            history: Vec::new(),
            best: f64::INFINITY,
            best_finite: None,
            opts,
        }
    }

    /// Record one residual; `Err` on NaN/Inf or detected divergence.
    ///
    /// # Errors
    /// [`SolverError::NonFinite`] when the residual is NaN/Inf (with `i` =
    /// iteration index), [`SolverError::Diverged`] when the growth criteria
    /// trip.
    pub fn record(&mut self, residual: f64) -> Result<(), SolverError> {
        let iter = self.history.len();
        self.history.push(residual);
        if residual.is_finite() {
            self.best_finite = Some(match self.best_finite {
                Some(b) => b.min(residual),
                None => residual,
            });
        }
        if !residual.is_finite() {
            return Err(SolverError::NonFinite {
                field: "residual",
                i: iter,
                j: 0,
            });
        }
        if iter >= self.opts.grace {
            if residual > self.opts.growth_ratio * self.best {
                return Err(SolverError::Diverged { iter, residual });
            }
            let w = self.opts.window;
            if iter + 1 >= w.max(2) {
                let window = &self.history[iter + 1 - w..=iter];
                let monotone = window.windows(2).all(|p| p[1] >= p[0]);
                if monotone && residual > self.opts.window_growth * window[0].max(1e-300) {
                    return Err(SolverError::Diverged { iter, residual });
                }
            }
            // `best` deliberately excludes the grace window: impulsive
            // starts from uniform flow begin at a near-zero residual that
            // would make legitimate transient growth look like divergence.
            self.best = self.best.min(residual);
        }
        Ok(())
    }

    /// Residual history so far (index = iteration).
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Consume the monitor, returning the history.
    #[must_use]
    pub fn into_history(self) -> Vec<f64> {
        self.history
    }

    /// Iterations recorded.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.history.len()
    }

    /// Best (smallest) finite residual seen, or `None` when no finite
    /// residual was ever recorded.
    ///
    /// Previously this returned the raw `f64::INFINITY` sentinel for an
    /// empty history, which downstream JSON writers rendered as the
    /// invalid token `inf`; the `Option` makes "never recorded" a state
    /// the type system forces callers to handle (reports emit `null`).
    #[must_use]
    pub fn best(&self) -> Option<f64> {
        self.best_finite
    }
}

impl Default for ResidualMonitor {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-run telemetry sink: wall-clock phases, residual histories and audit
/// findings.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    started: Instant,
    phases: Vec<(String, f64)>,
    histories: Vec<(String, Vec<f64>)>,
    audits: Vec<AuditFinding>,
}

impl RunTelemetry {
    /// Start a telemetry scope now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            phases: Vec::new(),
            histories: Vec::new(),
            audits: Vec::new(),
        }
    }

    /// Time a phase with the monotonic clock and record it.
    pub fn time_phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add_phase_secs(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Record a phase timing measured externally (accumulates on repeat).
    pub fn add_phase_secs(&mut self, name: &str, secs: f64) {
        if let Some(p) = self.phases.iter_mut().find(|(n, _)| n == name) {
            p.1 += secs;
        } else {
            self.phases.push((name.to_string(), secs));
        }
    }

    /// Attach a residual convergence history (replaces an existing history
    /// of the same name — reruns overwrite, they don't append).
    pub fn record_history(&mut self, name: &str, history: Vec<f64>) {
        if let Some(h) = self.histories.iter_mut().find(|(n, _)| n == name) {
            h.1 = history;
        } else {
            self.histories.push((name.to_string(), history));
        }
    }

    /// Record a physics-audit finding (appends; a run accumulates findings
    /// across its audit cadence).
    pub fn record_audit(&mut self, finding: AuditFinding) {
        self.audits.push(finding);
    }

    /// Recorded audit findings, in the order the auditors produced them.
    #[must_use]
    pub fn audits(&self) -> &[AuditFinding] {
        &self.audits
    }

    /// Worst severity among recorded audit findings (`None` when no audit
    /// has run).
    #[must_use]
    pub fn worst_audit_severity(&self) -> Option<AuditSeverity> {
        self.audits.iter().map(|a| a.severity).max()
    }

    /// Wall-clock seconds since the scope started (monotonic).
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Recorded `(name, seconds)` phases.
    #[must_use]
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// Recorded `(name, residuals)` histories.
    #[must_use]
    pub fn histories(&self) -> &[(String, Vec<f64>)] {
        &self.histories
    }
}

impl Default for RunTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_deltas() {
        let before = CounterSnapshot::take();
        counters::add(Counter::TridiagSolves, 3);
        counters::add(Counter::NewtonIterations, 7);
        let delta = CounterSnapshot::take().delta_since(&before);
        assert!(delta.get(Counter::TridiagSolves) >= 3);
        assert!(delta.get(Counter::NewtonIterations) >= 7);
        assert_eq!(delta.iter().count(), counters::N_COUNTERS);
    }

    #[test]
    fn telemetry_scope_counts_only_this_thread() {
        // Two threads, each with its own scope and a distinct add pattern:
        // each scope must see exactly its own thread's counts no matter
        // how the adds interleave — the property the global atomics cannot
        // provide and the sweep engine's per-case attribution relies on.
        let handles: Vec<_> = (1..=2u64)
            .map(|k| {
                std::thread::spawn(move || {
                    let scope = TelemetryScope::begin();
                    for _ in 0..10 * k {
                        counters::add(Counter::ChemistrySubsteps, 1);
                    }
                    counters::add(Counter::SpectrumPoints, 100 * k);
                    scope.thread_delta()
                })
            })
            .collect();
        let deltas: Vec<CounterSnapshot> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (k, delta) in (1..=2u64).zip(&deltas) {
            assert_eq!(delta.get(Counter::ChemistrySubsteps), 10 * k);
            assert_eq!(delta.get(Counter::SpectrumPoints), 100 * k);
            assert_eq!(delta.get(Counter::NewtonIterations), 0);
        }
    }

    #[test]
    fn exited_threads_keep_their_counts() {
        // No numerics kernel adds `SurrogateBuilds`, so sibling tests
        // cannot move it: the delta is exactly this thread's adds.
        let before = CounterSnapshot::take();
        std::thread::spawn(|| counters::add(Counter::SurrogateBuilds, 5))
            .join()
            .unwrap();
        let delta = CounterSnapshot::take().delta_since(&before);
        assert_eq!(delta.get(Counter::SurrogateBuilds), 5);
        assert_eq!(
            counters::get(Counter::SurrogateBuilds),
            CounterSnapshot::take().get(Counter::SurrogateBuilds)
        );
    }

    #[test]
    fn telemetry_scopes_nest_on_one_thread() {
        std::thread::spawn(|| {
            let outer = TelemetryScope::begin();
            counters::add(Counter::TridiagSolves, 2);
            let inner = TelemetryScope::begin();
            counters::add(Counter::TridiagSolves, 5);
            assert_eq!(inner.thread_delta().get(Counter::TridiagSolves), 5);
            assert_eq!(outer.thread_delta().get(Counter::TridiagSolves), 7);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn monitor_accepts_converging_history() {
        let mut m = ResidualMonitor::new();
        for k in 0..500 {
            let r = 1.0 * (0.99_f64).powi(k);
            m.record(r).unwrap();
        }
        assert_eq!(m.iterations(), 500);
        assert!(m.best().expect("finite residuals recorded") < 1e-2);
    }

    #[test]
    fn monitor_best_is_none_until_a_finite_residual_arrives() {
        let mut m = ResidualMonitor::new();
        assert_eq!(m.best(), None, "fresh monitor has no best residual");
        let _ = m.record(f64::INFINITY);
        assert_eq!(m.best(), None, "Inf must not become the reported best");
        let mut m2 = ResidualMonitor::new();
        m2.record(0.25).unwrap();
        assert_eq!(m2.best(), Some(0.25));
    }

    #[test]
    fn monitor_tolerates_startup_transient() {
        // Residual grows 100x while the flow forms, then converges — the
        // grace window must keep this from tripping as divergence.
        let mut m = ResidualMonitor::new();
        for k in 0..40 {
            m.record(1e-3 * 1.2_f64.powi(k)).unwrap();
        }
        for k in 0..200 {
            m.record(0.15 * 0.95_f64.powi(k)).unwrap();
        }
    }

    #[test]
    fn monitor_detects_nan() {
        let mut m = ResidualMonitor::new();
        m.record(1.0).unwrap();
        let err = m.record(f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            SolverError::NonFinite {
                field: "residual",
                i: 1,
                j: 0
            }
        ));
    }

    #[test]
    fn monitor_detects_explosive_growth() {
        let mut m = ResidualMonitor::with_options(MonitorOptions {
            grace: 10,
            ..MonitorOptions::default()
        });
        let mut r = 1e-2;
        let mut tripped = None;
        for iter in 0..200 {
            r *= 2.0;
            if let Err(e) = m.record(r) {
                tripped = Some((iter, e));
                break;
            }
        }
        let (iter, err) = tripped.expect("divergence not detected");
        assert!(iter < 60, "detection too slow: iter {iter}");
        assert!(matches!(err, SolverError::Diverged { .. }));
    }

    #[test]
    fn solver_error_display_preserves_strings() {
        let e: SolverError = String::from("freestream state: bad T").into();
        assert_eq!(e.to_string(), "freestream state: bad T");
        let d = SolverError::Diverged {
            iter: 42,
            residual: 3.0e9,
        };
        assert!(d.to_string().contains("iteration 42"));
        let nf = SolverError::NonFinite {
            field: "rho",
            i: 3,
            j: 9,
        };
        assert_eq!(nf.to_string(), "non-finite rho at (3, 9)");
    }

    #[test]
    fn nonfinite_residual_display_names_the_iteration() {
        // Residual-level NaN detection stores the iteration in `i`; the
        // message must say so rather than printing a bogus cell pair.
        let mut m = ResidualMonitor::new();
        m.record(1.0).unwrap();
        m.record(0.5).unwrap();
        let err = m.record(f64::NAN).unwrap_err();
        assert_eq!(err.to_string(), "non-finite residual at iteration 2");
    }

    #[test]
    fn audit_failed_display_carries_measurement() {
        let e = SolverError::AuditFailed {
            audit: "mass_flux_budget".to_string(),
            value: 0.5,
            threshold: 0.1,
        };
        let msg = e.to_string();
        assert!(msg.contains("mass_flux_budget"), "{msg}");
        assert!(msg.contains("5.000e-1"), "{msg}");
        assert!(msg.contains("1.000e-1"), "{msg}");
    }

    #[test]
    fn telemetry_accumulates_audit_findings() {
        let mut t = RunTelemetry::new();
        assert_eq!(t.worst_audit_severity(), None);
        t.record_audit(AuditFinding {
            audit: "positivity",
            severity: AuditSeverity::Pass,
            value: 0.0,
            threshold: 0.0,
            step: 10,
            detail: "all densities positive".to_string(),
        });
        t.record_audit(AuditFinding {
            audit: "mass_flux_budget",
            severity: AuditSeverity::Warn,
            value: 3e-3,
            threshold: 1e-3,
            step: 10,
            detail: "net/gross mass imbalance".to_string(),
        });
        assert_eq!(t.audits().len(), 2);
        assert_eq!(t.worst_audit_severity(), Some(AuditSeverity::Warn));
        let shown = t.audits()[1].to_string();
        assert!(shown.contains("[warn]"), "{shown}");
        assert!(shown.contains("mass_flux_budget"), "{shown}");
    }

    #[test]
    fn telemetry_records_phases_and_histories() {
        let mut t = RunTelemetry::new();
        let x = t.time_phase("setup", || 41 + 1);
        assert_eq!(x, 42);
        t.add_phase_secs("setup", 0.0);
        t.record_history("res", vec![1.0, 0.5]);
        t.record_history("res", vec![1.0, 0.5, 0.25]);
        assert_eq!(t.phases().len(), 1);
        assert_eq!(t.histories().len(), 1);
        assert_eq!(t.histories()[0].1.len(), 3);
        assert!(t.elapsed_secs() >= 0.0);
    }
}
