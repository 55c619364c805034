//! Timing reconciliation: `trace::span` is the one timing primitive, so
//! for every label the metrics snapshot's `timings` calls, the span count
//! and the number of Chrome timeline events must agree exactly, and each
//! label's duration histogram must sum to its span total. Counters and
//! timings share one registry, so the one counter that mirrors a span
//! (`tridiag_solves`) must equal that span's calls in the same snapshot.
//!
//! The solver phases are spans too: the outermost ones on the calling
//! thread are its roots, which fit inside the calls' wall time.
//!
//! One test in its own binary: the profiler state is process-global, and
//! a concurrent test would record spans between the three reads.

use std::collections::BTreeMap;
use std::time::Instant;

use aerothermo::numerics::json::{self, Value};
use aerothermo::numerics::{metrics, trace};
use aerothermo_sweep::runner::run_case;
use aerothermo_sweep::{CaseSpec, FlowSpec, GasSpec, LevelSpec};

#[test]
fn timings_spans_and_timeline_agree_per_label() {
    // A small equilibrium-air E+BL case: euler2d steps (row-parallel
    // face sweeps on short-lived threads) plus equilibrium states; then a
    // VSL case for tridiagonal solves.
    let level = LevelSpec::EulerBl {
        ni: 9,
        nj: 17,
        max_steps: 400,
        tol: 1e-2,
    };
    let (t_inf, p_inf) = (230.0, 300.0);
    let u_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
    let flow = FlowSpec::new(p_inf / (287.05 * t_inf), u_inf, t_inf, p_inf, 0.15, 300.0);
    trace::enable();
    let t0 = Instant::now();
    run_case(&CaseSpec::new("recon", GasSpec::Air9, level, flow.clone())).expect("case runs");
    let vsl = LevelSpec::Vsl {
        n_points: 20,
        radiating: false,
    };
    run_case(&CaseSpec::new("recon-vsl", GasSpec::Air9, vsl, flow)).expect("VSL case runs");
    let wall_ns = t0.elapsed().as_nanos() as u64;
    trace::disable();

    // The solver phases are spans: the outermost ones on this thread are
    // its roots, the kernels they enclose are not, and the roots never
    // overlap, so they fit inside the wall time of the two calls.
    let roots = trace::thread_root_ns();
    let is_root = |label: &str| roots.iter().any(|&(l, _)| l == label);
    for phase in ["runctl", "vsl_relax"] {
        assert!(is_root(phase), "'{phase}' is not a root: {roots:?}");
    }
    for kernel in ["euler_step", "newton_solve"] {
        assert!(!is_root(kernel), "'{kernel}' runs inside a phase");
    }
    let root_sum: u64 = roots.iter().map(|&(_, ns)| ns).sum();
    assert!(
        root_sum <= wall_ns,
        "roots {root_sum} ns > wall {wall_ns} ns"
    );

    let doc = json::parse(&metrics::snapshot().to_json()).expect("metrics JSON parses");
    let timings = doc.get("timings").and_then(Value::as_object).unwrap();
    let spans = trace::stats();
    let timeline = json::parse(&trace::chrome_trace_json()).expect("trace JSON parses");
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    for e in timeline
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
    {
        if e.get("ph").and_then(Value::as_str) == Some("X") {
            *events
                .entry(e.get("name").and_then(Value::as_str).unwrap())
                .or_default() += 1;
        }
    }
    assert_eq!(trace::dropped_events(), 0);

    for label in [
        "euler_step",
        "face_sweep",
        "equilibrium_state",
        "newton_solve",
        "tridiag_solve",
    ] {
        assert!(spans.iter().any(|s| s.label == label), "no '{label}' span");
    }
    assert_eq!(spans.len(), timings.len(), "one timing per span label");
    assert_eq!(spans.len(), events.len(), "one timeline track per label");
    for s in &spans {
        let t = timings.get(s.label).expect("every span label is a timing");
        let field = |k: &str| t.get(k).and_then(Value::as_f64).unwrap() as u64;
        assert_eq!(field("calls"), s.count, "{}: timings calls", s.label);
        assert_eq!(events.get(s.label), Some(&s.count), "{}: events", s.label);
        assert_eq!(s.hist.count, s.count, "{}: histogram count", s.label);
        assert_eq!(s.hist.sum_ns, s.total_ns, "{}: histogram sum", s.label);
        assert_eq!(field("total_ns"), s.total_ns, "{}: timings total", s.label);
    }

    let tridiag_solves = doc
        .get("counters")
        .and_then(|c| c.get("tridiag_solves"))
        .and_then(Value::as_f64)
        .expect("tridiag_solves counter");
    let tridiag_calls = timings
        .get("tridiag_solve")
        .and_then(|t| t.get("calls"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(tridiag_solves > 0.0);
    assert_eq!(
        tridiag_solves, tridiag_calls,
        "counter vs span calls, one snapshot"
    );
}
