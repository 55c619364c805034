//! End-of-sweep aggregate report, schema-compatible with the figure
//! binaries' `--report` JSON (same top-level keys: `figure`,
//! `elapsed_secs`, `all_green`, `checks`, `counters`, `metrics`, `phases`,
//! `histories`, `history_summaries`, `audits`, `audit_summary`), so the CI
//! tooling that parses figure reports parses sweep reports unchanged.

use crate::store::{CaseOutcome, CaseStatus};
use aerothermo_numerics::json::{write_f64, write_string};
use aerothermo_numerics::telemetry::Counter;
use std::collections::HashMap;

/// Exit code for a sweep that finished with failed/timed-out cases under
/// `--strict`. Distinct from success (0), the figure binaries' deliberate
/// halt (3), and a panic (101).
pub const STRICT_EXIT_CODE: i32 = 4;

/// Terminal-status tallies for a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Cases that ran to completion this run.
    pub completed: usize,
    /// Cases that failed (retry exhaustion, hard error, panic).
    pub failed: usize,
    /// Cases that exceeded their wall-clock timeout.
    pub timed_out: usize,
    /// Cases skipped because a prior run's store completed them.
    pub resumed: usize,
}

/// Aggregate result of one [`crate::pool::run_sweep`] call.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Plan name (the report's `figure` field).
    pub figure: String,
    /// Whole-sweep wall-clock seconds.
    pub elapsed_secs: f64,
    /// Worker threads used.
    pub workers: usize,
    /// True when the sweep stopped at `halt_after_cases`.
    pub halted: bool,
    /// Cases in the plan (recorded + never-reached).
    pub planned: usize,
    /// Per-case outcomes in plan order (executed + resumed; cases never
    /// reached by a halted sweep are absent).
    pub outcomes: Vec<CaseOutcome>,
}

impl SweepReport {
    /// Tally outcomes by terminal status.
    #[must_use]
    pub fn counts(&self) -> StatusCounts {
        let mut c = StatusCounts::default();
        for o in &self.outcomes {
            match o.status {
                CaseStatus::Completed => c.completed += 1,
                CaseStatus::Failed => c.failed += 1,
                CaseStatus::TimedOut => c.timed_out += 1,
                CaseStatus::Resumed => c.resumed += 1,
            }
        }
        c
    }

    /// Look up an outcome by case ID.
    #[must_use]
    pub fn outcome(&self, id: &str) -> Option<&CaseOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }

    /// True when nothing failed or timed out and the sweep wasn't halted.
    #[must_use]
    pub fn all_green(&self) -> bool {
        let c = self.counts();
        c.failed == 0 && c.timed_out == 0 && !self.halted
    }

    /// The sweep's process exit code: failures degrade to records, so the
    /// default is 0 even with failed cases; `--strict` turns a non-green
    /// sweep into [`STRICT_EXIT_CODE`].
    #[must_use]
    pub fn exit_code(&self, strict: bool) -> i32 {
        if strict && !self.all_green() {
            STRICT_EXIT_CODE
        } else {
            0
        }
    }

    /// Cases recorded this run (not resumed) per wall-clock second.
    #[must_use]
    pub fn throughput_cases_per_sec(&self) -> f64 {
        let ran = self.outcomes.len() - self.counts().resumed;
        if self.elapsed_secs > 0.0 {
            ran as f64 / self.elapsed_secs
        } else {
            f64::NAN
        }
    }

    /// Sum of per-case thread-attributed counter deltas, in `Counter::ALL`
    /// order (zeros included, matching the figure reports).
    #[must_use]
    pub fn summed_counters(&self) -> Vec<(&'static str, u64)> {
        let mut by_name: HashMap<&'static str, u64> = HashMap::new();
        for o in &self.outcomes {
            for (name, v) in &o.counters {
                *by_name.entry(name).or_insert(0) += v;
            }
        }
        Counter::ALL
            .iter()
            .map(|c| (c.name(), by_name.get(c.name()).copied().unwrap_or(0)))
            .collect()
    }

    /// Serialize to the `--report`-schema JSON document.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_json(&self) -> String {
        let c = self.counts();
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"figure\": {},\n", write_string(&self.figure)));
        s.push_str(&format!(
            "  \"elapsed_secs\": {},\n",
            write_f64(self.elapsed_secs)
        ));
        s.push_str(&format!("  \"all_green\": {},\n", self.all_green()));

        // Checks: the sweep-level gates CI parses.
        s.push_str("  \"checks\": [");
        let checks = [
            (
                "no_failed_cases",
                c.failed == 0,
                format!("{} failed of {} recorded", c.failed, self.outcomes.len()),
            ),
            (
                "no_timed_out_cases",
                c.timed_out == 0,
                format!("{} timed out", c.timed_out),
            ),
            (
                "all_cases_recorded",
                self.outcomes.len() == self.planned,
                format!(
                    "{} recorded of {} planned",
                    self.outcomes.len(),
                    self.planned
                ),
            ),
        ];
        for (k, (name, ok, detail)) in checks.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"passed\": {ok}, \"detail\": {}}}",
                write_string(name),
                write_string(detail)
            ));
        }
        s.push_str("\n  ],\n");

        s.push_str("  \"counters\": {");
        for (k, (name, v)) in self.summed_counters().iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {v}", write_string(name)));
        }
        s.push_str("\n  },\n");

        // Metrics: sweep aggregates, then per-case metrics as `<id>.<name>`.
        s.push_str("  \"metrics\": {");
        let mut metrics: Vec<(String, f64)> = vec![
            ("cases_planned".into(), self.planned as f64),
            ("cases_completed".into(), c.completed as f64),
            ("cases_failed".into(), c.failed as f64),
            ("cases_timed_out".into(), c.timed_out as f64),
            ("cases_resumed".into(), c.resumed as f64),
            ("workers".into(), self.workers as f64),
            ("halted".into(), f64::from(u8::from(self.halted))),
            (
                "total_retries".into(),
                self.outcomes.iter().map(|o| o.retries as f64).sum(),
            ),
            (
                "throughput_cases_per_sec".into(),
                self.throughput_cases_per_sec(),
            ),
        ];
        for o in &self.outcomes {
            for (name, v) in &o.metrics {
                metrics.push((format!("{}.{name}", o.id), *v));
            }
            metrics.push((format!("{}.retries", o.id), o.retries as f64));
        }
        for (k, (name, v)) in metrics.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", write_string(name), write_f64(*v)));
        }
        s.push_str("\n  },\n");

        // Phases: per-case wall time on its worker (the sweep's analogue of
        // solver phase timings).
        s.push_str("  \"phases\": {");
        for (k, o) in self.outcomes.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {}",
                write_string(&format!("case.{}", o.id)),
                write_f64(o.wall_secs)
            ));
        }
        s.push_str("\n  },\n");

        s.push_str("  \"histories\": {\n  },\n");
        s.push_str("  \"history_summaries\": {\n  },\n");

        // Audits: failed/timed-out cases surface as findings so report
        // consumers that only look at audits still see the damage.
        s.push_str("  \"audits\": [");
        let mut k = 0;
        for o in &self.outcomes {
            if matches!(o.status, CaseStatus::Completed | CaseStatus::Resumed) {
                continue;
            }
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"solver\": {}, \"audit\": \"case_outcome\", \"severity\": \"fail\", \
                 \"value\": 1, \"threshold\": 0, \"step\": 0, \"detail\": {}}}",
                write_string(&o.id),
                write_string(o.error.as_deref().unwrap_or(o.status.name()))
            ));
            k += 1;
        }
        s.push_str("\n  ],\n");
        s.push_str(&format!(
            "  \"audit_summary\": {{\"pass\": {}, \"warn\": 0, \"fail\": {}}}\n}}\n",
            c.completed + c.resumed,
            c.failed + c.timed_out
        ));
        s
    }

    /// Write the JSON document to a file.
    ///
    /// # Errors
    /// [`aerothermo_numerics::telemetry::SolverError::BadInput`] on I/O
    /// failure.
    pub fn write(&self, path: &str) -> Result<(), aerothermo_numerics::telemetry::SolverError> {
        std::fs::write(path, self.to_json()).map_err(|e| {
            aerothermo_numerics::telemetry::SolverError::BadInput(format!(
                "writing sweep report '{path}': {e}"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_numerics::json::{self, Value};

    fn outcome(id: &str, status: CaseStatus) -> CaseOutcome {
        CaseOutcome {
            id: id.to_string(),
            status,
            wall_secs: 0.25,
            retries: 1,
            worker: 0,
            note: String::new(),
            error: match status {
                CaseStatus::Failed => Some("diverged".to_string()),
                _ => None,
            },
            metrics: vec![("q_conv_w_m2".to_string(), 2e5)],
            counters: vec![("newton_iterations", 7)],
            postmortem: None,
        }
    }

    fn report(outcomes: Vec<CaseOutcome>) -> SweepReport {
        SweepReport {
            figure: "test_sweep".to_string(),
            elapsed_secs: 1.0,
            workers: 2,
            halted: false,
            planned: outcomes.len(),
            outcomes,
        }
    }

    #[test]
    fn json_is_report_schema_compatible() {
        let r = report(vec![
            outcome("a", CaseStatus::Completed),
            outcome("b", CaseStatus::Failed),
        ]);
        assert!(!r.all_green());
        let doc = json::parse(&r.to_json()).expect("sweep report parses");
        for key in [
            "figure",
            "elapsed_secs",
            "all_green",
            "checks",
            "counters",
            "metrics",
            "phases",
            "histories",
            "history_summaries",
            "audits",
            "audit_summary",
        ] {
            assert!(doc.get(key).is_some(), "missing report key '{key}'");
        }
        assert_eq!(doc.get("all_green"), Some(&Value::Bool(false)));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics.get("cases_failed").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            metrics.get("a.q_conv_w_m2").and_then(Value::as_f64),
            Some(2e5)
        );
        // Failed case surfaces as an audit finding.
        let audits = doc.get("audits").unwrap().as_array().unwrap();
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].get("solver").and_then(Value::as_str), Some("b"));
        // Summed counters include zero entries like the figure reports.
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("newton_iterations"))
                .and_then(Value::as_f64),
            Some(14.0)
        );
    }

    #[test]
    fn exit_codes() {
        let green = report(vec![outcome("a", CaseStatus::Completed)]);
        assert_eq!(green.exit_code(false), 0);
        assert_eq!(green.exit_code(true), 0);
        let red = report(vec![outcome("a", CaseStatus::TimedOut)]);
        assert_eq!(red.exit_code(false), 0);
        assert_eq!(red.exit_code(true), STRICT_EXIT_CODE);
        let mut halted = report(vec![outcome("a", CaseStatus::Completed)]);
        halted.halted = true;
        halted.planned = 3;
        assert!(!halted.all_green());
    }

    #[test]
    fn resumed_cases_count_toward_green_but_not_throughput() {
        let mut r = report(vec![
            outcome("a", CaseStatus::Resumed),
            outcome("b", CaseStatus::Completed),
        ]);
        r.elapsed_secs = 2.0;
        assert!(r.all_green());
        assert!((r.throughput_cases_per_sec() - 0.5).abs() < 1e-12);
    }
}
