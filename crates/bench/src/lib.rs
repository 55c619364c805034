//! Figure-regeneration harness for the paper's evaluation.
//!
//! One binary per figure of Deiwert & Green (NASA TM-89450); each prints
//! the figure's series as an aligned table (pass `--csv` for CSV) plus the
//! qualitative checks the reproduction asserts. The experiment index lives
//! in `DESIGN.md`; measured-vs-paper notes in `EXPERIMENTS.md`.
//!
//! Shared helpers: CLI parsing and standard flow conditions used by several
//! figures.
#![warn(missing_docs)]
// Indexed loops over parallel arrays are the clearest idiom for the
// numerical kernels here; spelled-out spectroscopic constants keep their
// literature precision.
#![allow(
    clippy::needless_range_loop,
    clippy::excessive_precision,
    clippy::type_complexity
)]

use aerothermo_core::tables::Table;
use aerothermo_numerics::json::{write_f64 as json_f64, write_string};
use aerothermo_numerics::telemetry::{AuditFinding, AuditSeverity, CounterSnapshot, RunTelemetry};
use std::time::Instant;

pub mod cli;

pub use aerothermo_numerics::json;
pub use cli::{
    audit_cadence, checkpoint_every, checkpoint_file, halt_after, inject_nan_at, max_retries,
    output_mode, report_path, restart_path, trace_path, OutputMode,
};

/// JSON string literal with minimal escaping (the numerics writer, by its
/// historical local name).
fn json_string(s: &str) -> String {
    write_string(s)
}

/// Exit code for a deliberate `--halt-after` stop, distinguishable from
/// success (0) and panics (101) so CI can assert the drill actually halted.
pub const HALT_EXIT_CODE: i32 = 3;

/// Assemble [`aerothermo_solvers::runctl::RunOptions`] from the shared
/// run-control flags plus the figure's loop parameters (`max_units`, the
/// convergence tolerance, and the reference-residual grace period).
#[must_use]
pub fn run_options(
    figure: &str,
    max_units: usize,
    tol: f64,
    grace: usize,
) -> aerothermo_solvers::runctl::RunOptions {
    let mut opts = aerothermo_solvers::runctl::RunOptions {
        max_units,
        tol,
        grace,
        max_retries: max_retries(),
        ..Default::default()
    };
    if let Some(every) = checkpoint_every() {
        opts.checkpoint_every = every;
        opts.checkpoint_path = Some(checkpoint_file(figure).into());
    }
    opts.restart_from = restart_path().map(Into::into);
    opts.inject_nan_at = inject_nan_at();
    opts.halt_after = halt_after();
    // Arm the flight-recorder black box in every figure binary: the dump
    // is only written when a run dies or --inject-nan fires, so a clean
    // run never creates the file.
    opts.blackbox_path = Some(cli::blackbox_file(figure).into());
    opts
}

/// Machine-readable run summary for a figure binary.
///
/// Collects qualitative-check verdicts, named scalar metrics, kernel
/// counter deltas, solver phase timings, and residual histories; `finish`
/// writes them as JSON when `--report[=PATH]` was passed (CI parses and
/// gates on this file).
pub struct Report {
    figure: String,
    started: Instant,
    counters_at_start: CounterSnapshot,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(String, f64)>,
    phases: Vec<(String, f64)>,
    histories: Vec<(String, Vec<f64>)>,
    audits: Vec<(String, AuditFinding)>,
}

impl Report {
    /// Start a report scope for the named figure (snapshots the global
    /// kernel counters). Honors the shared observability flags: `--trace`
    /// enables the span profiler and `--audit` arms the in-situ physics
    /// audits at the requested cadence, so every figure binary inherits
    /// both without per-binary wiring.
    #[must_use]
    pub fn new(figure: &str) -> Self {
        if trace_path().is_some() {
            aerothermo_numerics::trace::enable();
        }
        if let Some(every) = audit_cadence() {
            aerothermo_solvers::audit::enable(every);
        }
        Self {
            figure: figure.to_string(),
            started: Instant::now(),
            counters_at_start: CounterSnapshot::take(),
            checks: Vec::new(),
            metrics: Vec::new(),
            phases: Vec::new(),
            histories: Vec::new(),
            audits: Vec::new(),
        }
    }

    /// Record a qualitative check; returns `passed` so the caller can keep
    /// its hard `assert!(report.check(..))` behavior.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) -> bool {
        self.checks.push((name.to_string(), passed, detail.into()));
        passed
    }

    /// Record a named scalar metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Fold a solver's [`RunTelemetry`] into the report: its phases and
    /// residual histories, prefixed with `label`.
    pub fn absorb_telemetry(&mut self, label: &str, telemetry: &RunTelemetry) {
        for (name, secs) in telemetry.phases() {
            self.phases.push((format!("{label}.{name}"), *secs));
        }
        for (name, hist) in telemetry.histories() {
            self.histories
                .push((format!("{label}.{name}"), hist.clone()));
        }
        for finding in telemetry.audits() {
            self.audits.push((label.to_string(), finding.clone()));
        }
    }

    /// Fold a controlled run's outcome into the report: progress units,
    /// retry/rollback counts, and the final CFL (backoff scale × nominal) —
    /// the resilience metrics CI gates on.
    pub fn record_run_outcome(
        &mut self,
        label: &str,
        outcome: &aerothermo_solvers::runctl::RunOutcome,
        nominal_cfl: f64,
    ) {
        self.metric(&format!("{label}.run_units"), outcome.units as f64);
        self.metric(&format!("{label}.retries"), outcome.retries as f64);
        self.metric(&format!("{label}.rollbacks"), outcome.rollbacks as f64);
        self.metric(&format!("{label}.final_cfl_scale"), outcome.final_cfl_scale);
        self.metric(
            &format!("{label}.final_cfl"),
            outcome.final_cfl_scale * nominal_cfl,
        );
    }

    /// Number of absorbed audit findings at [`AuditSeverity::Fail`].
    #[must_use]
    pub fn hard_audit_failures(&self) -> usize {
        self.audits
            .iter()
            .filter(|(_, f)| f.severity == AuditSeverity::Fail)
            .count()
    }

    /// True when every recorded check passed and no absorbed audit finding
    /// reached [`AuditSeverity::Fail`].
    #[must_use]
    pub fn all_green(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok) && self.hard_audit_failures() == 0
    }

    /// Serialize to JSON (counters are deltas since the report started).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"figure\": {},\n", json_string(&self.figure)));
        s.push_str(&format!(
            "  \"elapsed_secs\": {},\n",
            json_f64(self.started.elapsed().as_secs_f64())
        ));
        s.push_str(&format!("  \"all_green\": {},\n", self.all_green()));
        s.push_str("  \"checks\": [");
        for (k, (name, ok, detail)) in self.checks.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                json_string(name),
                ok,
                json_string(detail)
            ));
        }
        s.push_str("\n  ],\n");
        let counters = CounterSnapshot::take().delta_since(&self.counters_at_start);
        s.push_str("  \"counters\": {");
        for (k, (name, v)) in counters.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {v}", json_string(name)));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"metrics\": {");
        for (k, (name, v)) in self.metrics.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_string(name), json_f64(*v)));
        }
        s.push_str("\n  },\n");
        // Every span label's call count and duration histogram (all
        // threads merged, ns).
        s.push_str(&format!(
            "  \"timings\": {},\n",
            aerothermo_numerics::metrics::timings_json(&aerothermo_numerics::trace::stats())
        ));
        s.push_str("  \"phases\": {");
        for (k, (name, v)) in self.phases.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_string(name), json_f64(*v)));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"histories\": {");
        for (k, (name, hist)) in self.histories.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: [", json_string(name)));
            for (m, v) in hist.iter().enumerate() {
                if m > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_f64(*v));
            }
            s.push(']');
        }
        s.push_str("\n  },\n");
        // Per-history roll-up: `best` is the smallest finite value and is
        // JSON null for histories that never recorded a finite residual —
        // consumers must treat null as "no data", not as zero.
        s.push_str("  \"history_summaries\": {");
        for (k, (name, hist)) in self.histories.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let best = hist
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(f64::INFINITY, f64::min);
            let best = if best.is_finite() { best } else { f64::NAN };
            let last = hist.last().copied().unwrap_or(f64::NAN);
            s.push_str(&format!(
                "\n    {}: {{\"len\": {}, \"best\": {}, \"last\": {}}}",
                json_string(name),
                hist.len(),
                json_f64(best),
                json_f64(last)
            ));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"audits\": [");
        for (k, (label, f)) in self.audits.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"solver\": {}, \"audit\": {}, \"severity\": {}, \
                 \"value\": {}, \"threshold\": {}, \"step\": {}, \"detail\": {}}}",
                json_string(label),
                json_string(f.audit),
                json_string(f.severity.name()),
                json_f64(f.value),
                json_f64(f.threshold),
                f.step,
                json_string(&f.detail)
            ));
        }
        s.push_str("\n  ],\n");
        let count = |sev: AuditSeverity| {
            self.audits
                .iter()
                .filter(|(_, f)| f.severity == sev)
                .count()
        };
        s.push_str(&format!(
            "  \"audit_summary\": {{\"pass\": {}, \"warn\": {}, \"fail\": {}}}\n}}\n",
            count(AuditSeverity::Pass),
            count(AuditSeverity::Warn),
            count(AuditSeverity::Fail)
        ));
        s
    }

    /// Write the JSON report when `--report[=PATH]` was passed and the
    /// Chrome trace-event profile when `--trace[=PATH]` was passed; always
    /// a no-op otherwise. Returns [`Report::all_green`].
    ///
    /// # Panics
    /// Panics when the report or trace file cannot be written (CI must
    /// fail loudly, not silently skip its gate).
    pub fn finish(self) -> bool {
        if let Some(path) = report_path() {
            std::fs::write(&path, self.to_json())
                .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
            eprintln!("# run report written to {path}");
        }
        if let Some(path) = trace_path() {
            std::fs::write(&path, aerothermo_numerics::trace::chrome_trace_json())
                .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
            eprintln!("# chrome trace written to {path} (load in Perfetto / chrome://tracing)");
        }
        self.all_green()
    }
}

/// Terminate the binary with [`HALT_EXIT_CODE`] when the controlled run
/// stopped at `--halt-after`, writing the report/trace first so the resume
/// drill has the restart file *and* a parseable partial report.
pub fn exit_if_halted(outcome: &aerothermo_solvers::runctl::RunOutcome, report: Report) -> Report {
    if outcome.halted {
        eprintln!(
            "# halted after {} units (--halt-after); resume with --restart",
            outcome.units
        );
        report.finish();
        std::process::exit(HALT_EXIT_CODE);
    }
    report
}

/// Print a table in the selected mode with a heading.
pub fn emit(title: &str, table: &Table, mode: OutputMode) {
    match mode {
        OutputMode::Text => {
            println!("\n== {title} ==");
            println!("{}", table.to_text());
        }
        OutputMode::Csv => {
            println!("# {title}");
            println!("{}", table.to_csv());
        }
    }
}

/// The paper's Fig. 4 flight condition: Shuttle Orbiter at V∞ = 6.7 km/s,
/// h = 65.5 km (US76), returned as `(rho, v, p, T)`.
#[must_use]
pub fn orbiter_fig4_condition() -> (f64, f64, f64, f64) {
    use aerothermo_atmosphere::us76::Us76;
    use aerothermo_atmosphere::Atmosphere;
    let atm = Us76;
    let h = 65_500.0;
    (atm.density(h), 6_700.0, atm.pressure(h), atm.temperature(h))
}

/// The paper's Fig. 6 flight condition: STS-3 at V∞ = 6.74 km/s,
/// h = 71.3 km, α = 40°; returned as `(rho, v, p, T)`.
#[must_use]
pub fn sts3_fig6_condition() -> (f64, f64, f64, f64) {
    use aerothermo_atmosphere::us76::Us76;
    use aerothermo_atmosphere::Atmosphere;
    let atm = Us76;
    let h = 71_300.0;
    (atm.density(h), 6_740.0, atm.pressure(h), atm.temperature(h))
}

/// The paper's Fig. 7/8 shock-tube condition: V = 10 km/s into 0.1 torr
/// air at 300 K; returned as `(u1, t1, p1)`.
#[must_use]
pub fn shock_tube_fig7_condition() -> (f64, f64, f64) {
    (10_000.0, 300.0, 0.1 * aerothermo_numerics::constants::TORR)
}

/// Equivalent axisymmetric body for the Orbiter windward pitch plane at
/// entry attitude: a hyperboloid with the Orbiter effective nose radius and
/// an asymptotic half-angle close to the body angle-of-attack (the standard
/// reduction of the era; see DESIGN.md §2).
#[must_use]
pub fn orbiter_equivalent_body(alpha_deg: f64) -> aerothermo_grid::bodies::Hyperboloid {
    // Effective nose radius ~1.3 m; asymptote slightly below α.
    aerothermo_grid::bodies::Hyperboloid::new(1.3, (alpha_deg - 5.0).to_radians(), 25.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_sane() {
        let (rho, v, p, t) = orbiter_fig4_condition();
        assert!(rho > 1e-5 && rho < 1e-3);
        assert!(v == 6700.0 && p > 1.0 && t > 150.0);
        let (rho6, ..) = sts3_fig6_condition();
        assert!(rho6 < rho, "71.3 km is thinner than 65.5 km");
        let (u1, t1, p1) = shock_tube_fig7_condition();
        assert!(u1 == 10_000.0 && t1 == 300.0 && (p1 - 13.33).abs() < 0.1);
    }

    #[test]
    fn report_json_well_formed() {
        let mut r = Report::new("test_fig");
        r.metric("peak", 1.5e6);
        r.metric("bad", f64::NAN);
        assert!(r.check("positive", true, "peak = 1.5e6"));
        assert!(!r.check("quoted \"name\"", false, "line\nbreak"));
        r.histories
            .push(("res".to_string(), vec![1.0, 0.5, f64::INFINITY]));
        aerothermo_numerics::trace::spanned("report_test_kernel", || std::hint::black_box(1));
        let json = r.to_json();
        assert!(json.contains("\"figure\": \"test_fig\""));
        assert!(json.contains("\"timings\""));
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"report_test_kernel\""));
        assert!(json.contains("\"all_green\": false"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\\\"name\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("[1, 0.5, null]"));
        assert!(json.contains("\"newton_iterations\""));
        // The whole report must parse with the workspace JSON reader.
        let doc = json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").and_then(json::Value::as_str),
            Some("test_fig")
        );
        assert_eq!(doc.get("all_green"), Some(&json::Value::Bool(false)));
    }

    #[test]
    fn report_history_summary_null_best_roundtrips() {
        // A history that never recorded a finite residual must surface
        // `best: null` (not 0, not +inf) — the machine-readable analogue
        // of `ResidualMonitor::best() == None`.
        let mut r = Report::new("test_fig");
        let mut t = RunTelemetry::new();
        t.record_history("never_finite", vec![f64::NAN, f64::INFINITY]);
        t.record_history("empty", Vec::new());
        t.record_history("ok", vec![3.0, 1.0, 2.0]);
        r.absorb_telemetry("solver", &t);
        let doc = json::parse(&r.to_json()).unwrap();
        let summaries = doc.get("history_summaries").unwrap();
        let nf = summaries.get("solver.never_finite").unwrap();
        assert!(nf.get("best").unwrap().is_null());
        assert!(nf.get("last").unwrap().is_null());
        assert_eq!(nf.get("len").and_then(json::Value::as_f64), Some(2.0));
        let empty = summaries.get("solver.empty").unwrap();
        assert!(empty.get("best").unwrap().is_null());
        let ok = summaries.get("solver.ok").unwrap();
        assert_eq!(ok.get("best").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(ok.get("last").and_then(json::Value::as_f64), Some(2.0));
    }

    #[test]
    fn report_surfaces_audit_findings() {
        use aerothermo_numerics::telemetry::AuditSeverity;
        let mut r = Report::new("test_fig");
        let mut t = RunTelemetry::new();
        t.record_audit(AuditFinding {
            audit: "mass_flux_budget",
            severity: AuditSeverity::Warn,
            value: 1e-2,
            threshold: 5e-3,
            step: 40,
            detail: "net/gross during transient".to_string(),
        });
        r.absorb_telemetry("euler", &t);
        assert!(r.all_green(), "warn findings must not flip the gate");
        t.record_audit(AuditFinding {
            audit: "density_positivity",
            severity: AuditSeverity::Fail,
            value: 1.0,
            threshold: 0.0,
            step: 41,
            detail: "rho < 0 at (3, 4)".to_string(),
        });
        let mut r2 = Report::new("test_fig");
        r2.absorb_telemetry("euler", &t);
        assert_eq!(r2.hard_audit_failures(), 1);
        assert!(!r2.all_green(), "a Fail audit must flip the gate");
        let doc = json::parse(&r2.to_json()).unwrap();
        assert_eq!(doc.get("all_green"), Some(&json::Value::Bool(false)));
        let audits = doc.get("audits").unwrap().as_array().unwrap();
        assert_eq!(audits.len(), 2);
        assert_eq!(
            audits[1].get("severity").and_then(json::Value::as_str),
            Some("fail")
        );
        let summary = doc.get("audit_summary").unwrap();
        assert_eq!(summary.get("warn").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(summary.get("fail").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn equivalent_body_shape() {
        use aerothermo_grid::bodies::Body;
        let b = orbiter_equivalent_body(40.0);
        assert!((b.nose_radius() - 1.3).abs() < 1e-12);
        let angle = b.body_angle(b.arc_length() * 0.99).to_degrees();
        assert!(angle > 25.0 && angle < 40.0, "asymptote {angle}");
    }
}
