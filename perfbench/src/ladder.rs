//! `solve_ladder`: the fig10 four-method ladder (VSL, E+BL, PNS, NS on the
//! Mach-8 hemisphere) through `run_case`, first inside a rayon pool of
//! `nproc` threads, then again at 1 thread.

use std::collections::BTreeMap;
use std::time::Instant;

use aerothermo_gas::reset_thread_warm_cache;
use aerothermo_numerics::telemetry::{Counter, TelemetryScope};
use aerothermo_sweep::plan::method_matrix_plan;
use aerothermo_sweep::runner::run_case;
use aerothermo_sweep::SweepPlan;
use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::report::{Check, Metric, Outcome};
use crate::rng::Rng;
use crate::spans::SpanId;
use crate::stats::Samples;
use crate::Ctx;

/// The VSL case's q_stag differs in its last bits between the `nproc` and
/// 1-thread passes: `VslProblem`'s property table solves its equilibrium
/// states through the thread-local warm-start cache inside a `par_iter`,
/// so each thread count seeds Newton differently.
const VSL_THREAD_DEFECT: &str = "VSL q_stag depends on the intra-case thread count \
     (thread-local equilibrium warm-start cache inside par_iter)";

pub struct Setup {
    plan: SweepPlan,
    /// `(label, pool)`: the `nproc` pool first, then the 1-thread pool.
    pools: Vec<(String, ThreadPool)>,
}

/// The plan is fixed; the seed only permutes the order the methods run in.
pub fn setup(ctx: &Ctx) -> Setup {
    let json = method_matrix_plan().to_json();
    let mut plan = SweepPlan::parse(&json).expect("the fig10 preset plan parses");
    Rng::new(ctx.seed).shuffle(&mut plan.cases);
    let pool = |n: usize| {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("building a rayon pool")
    };
    Setup {
        plan,
        pools: vec![
            (format!("{}t", ctx.nproc), pool(ctx.nproc)),
            ("1t".into(), pool(1)),
        ],
    }
}

/// The solver layer a ladder case exercises.
pub fn solver_of(case_id: &str) -> &'static str {
    match case_id {
        "vsl" => "vsl",
        "euler_bl" => "euler2d",
        "pns" => "pns",
        _ => "ns2d",
    }
}

/// One pass of the ladder on one pool.
pub struct Pass {
    pub wall_s: f64,
    /// `(case id, wall [s], q_stag bits or the error)`.
    pub cases: Vec<(String, f64, Result<u64, String>)>,
    /// `(case id, faces_evaluated, tridiag_solves, newton_iterations)`,
    /// attributed on the calling thread (exact at 1 thread).
    pub counts: Vec<(String, u64, u64, u64)>,
}

pub fn run_pass(ctx: &Ctx, setup: &Setup, pool: usize, parent: SpanId, request: u64) -> Pass {
    let (label, pool) = &setup.pools[pool];
    let tr = &ctx.tracer;
    let sp = tr.begin(&format!("ladder.{label}"), parent, request);
    let t0 = Instant::now();
    let mut cases = Vec::new();
    let mut counts = Vec::new();
    for case in &setup.plan.cases {
        let scope = TelemetryScope::begin();
        let c0 = Instant::now();
        let res = tr.span(
            &format!("run_case.{}", solver_of(&case.id)),
            sp,
            request,
            || {
                pool.install(|| {
                    reset_thread_warm_cache();
                    run_case(case)
                })
            },
        );
        let wall = c0.elapsed().as_secs_f64();
        let d = scope.thread_delta();
        counts.push((
            case.id.clone(),
            d.get(Counter::FacesEvaluated),
            d.get(Counter::TridiagSolves),
            d.get(Counter::NewtonIterations),
        ));
        let q = match res {
            Ok(r) => r
                .get("q_stag_w_m2")
                .map(f64::to_bits)
                .ok_or_else(|| "no q_stag_w_m2 metric".to_string()),
            Err(f) => Err(f.error.to_string()),
        };
        cases.push((case.id.clone(), wall, q));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tr.end(sp);
    Pass {
        wall_s,
        cases,
        counts,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let setup = setup(ctx);
    let mut o = Outcome {
        setup_s: ctx.start.elapsed().as_secs_f64(),
        workers: format!("intra-case threads {} then 1", ctx.nproc),
        ..Outcome::default()
    };
    let root = ctx.tracer.begin("solve_ladder", None, 0);
    let t0 = Instant::now();
    let mut passes: Vec<Vec<Pass>> = vec![Vec::new(), Vec::new()];
    let mut iter = 0u64;
    while ctx.another_round(t0, iter) {
        // Alternate which pass goes first so a drift in machine speed
        // does not land on one thread count.
        let order = if iter.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for k in order {
            passes[k].push(run_pass(ctx, &setup, k, root, iter));
        }
        iter += 1;
    }
    ctx.tracer.end(root);
    judge(ctx, &setup, &passes, &mut o);
    o
}

/// Metrics and checks for a set of passes (`passes[0]` at `nproc`,
/// `passes[1]` at 1 thread).
fn judge(ctx: &Ctx, setup: &Setup, passes: &[Vec<Pass>], o: &mut Outcome) {
    let n_cases = setup.plan.cases.len();
    let mut walls = [Samples::default(), Samples::default()];
    for (k, runs) in passes.iter().enumerate() {
        for p in runs {
            o.attempted += n_cases as u64;
            let failed = p.cases.iter().filter(|c| c.2.is_err()).count();
            o.failed += failed as u64;
            if failed == 0 {
                walls[k].push(p.wall_s);
            } else {
                walls[k].miss();
            }
        }
    }
    let [full, single] = &walls;
    // The gated metrics come from the 1-thread pass: on a shared 2-vCPU
    // host the `nproc` pass (a thread spawn per parallel call) ranged
    // 11.8-32.6 s over ten runs, too wide for any bound. `ladder_s` is
    // still measured and reported in every run.
    o.e2e.extend([
        Metric::new(
            "p50_ms",
            "ms",
            1e3 * single.median(),
            single.len(),
            "ladder at 1 thread (ladder_1t_s)",
        ),
        Metric::new(
            "throughput_per_s",
            "1/s",
            n_cases as f64 / single.median(),
            single.len(),
            "ladder cases per second at 1 thread",
        ),
    ]);
    o.detail.extend([
        Metric::new(
            "ladder_s",
            "s",
            full.median(),
            full.len(),
            format!("four-case ladder at {} threads", ctx.nproc),
        ),
        Metric::new(
            "ladder_1t_s",
            "s",
            single.median(),
            single.len(),
            "the same ladder at 1 thread",
        ),
        Metric::new(
            "ladder_speedup",
            "x",
            single.median() / full.median(),
            full.len().min(single.len()),
            "ladder_1t_s / ladder_s (>1 means the extra threads help)",
        ),
    ]);
    for (k, (label, _)) in setup.pools.iter().enumerate() {
        for case in &setup.plan.cases {
            let mut s = Samples::default();
            for p in &passes[k] {
                if let Some(c) = p.cases.iter().find(|c| c.0 == case.id) {
                    s.push(c.1);
                }
            }
            let suffix = if k == 0 { String::new() } else { ".1t".into() };
            o.detail.push(Metric::new(
                format!("solvers.{}.case_s{suffix}", solver_of(&case.id)),
                "s",
                s.median(),
                s.len(),
                format!("{} case at {label}", case.id),
            ));
        }
    }
    checks(passes, o);
    if ctx.tracer.enabled() {
        layers(passes, o);
    }
}

fn checks(passes: &[Vec<Pass>], o: &mut Outcome) {
    // Every case solved, with a finite positive q_stag.
    let mut bad = Vec::new();
    for p in passes.iter().flatten() {
        for (id, _, q) in &p.cases {
            match q {
                Ok(bits) if f64::from_bits(*bits).is_finite() && f64::from_bits(*bits) > 0.0 => {}
                Ok(bits) => bad.push(format!("{id}: q_stag {}", f64::from_bits(*bits))),
                Err(e) => bad.push(format!("{id}: {e}")),
            }
        }
    }
    o.check(
        "ladder cases solve",
        bad.is_empty(),
        if bad.is_empty() {
            "all methods returned a finite positive q_stag".into()
        } else {
            bad.join("; ")
        },
    );

    // Repeats of one pass are bitwise identical.
    let q_of = |p: &Pass, id: &str| {
        p.cases
            .iter()
            .find(|c| c.0 == id)
            .and_then(|c| c.2.clone().ok())
    };
    let mut drift = Vec::new();
    for runs in passes {
        for p in runs.iter().skip(1) {
            for (id, _, q) in &p.cases {
                if q.clone().ok() != q_of(&runs[0], id) {
                    drift.push(id.clone());
                }
            }
        }
    }
    o.check(
        "repeat passes are bitwise identical",
        drift.is_empty(),
        if drift.is_empty() {
            "q_stag repeats exactly".into()
        } else {
            format!("drift in {}", drift.join(", "))
        },
    );

    // nproc vs 1 thread: bitwise per method.
    let mut per_method: BTreeMap<String, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for (id, _, q) in &passes[0][0].cases {
        per_method.entry(id.clone()).or_default().0 = q.clone().ok();
    }
    for (id, _, q) in &passes[1][0].cases {
        per_method.entry(id.clone()).or_default().1 = q.clone().ok();
    }
    for (id, (a, b)) in per_method {
        let ok = a.is_some() && a == b;
        let show = |x: Option<u64>| {
            x.map_or("none".into(), |b| {
                format!("{:?} ({b:#018x})", f64::from_bits(b))
            })
        };
        let mut c = Check::new(
            format!("{id} q_stag bitwise equal at nproc and 1 thread"),
            ok,
            format!("nproc {} vs 1t {}", show(a), show(b)),
        );
        if id == "vsl" && !ok && a.is_some() && b.is_some() {
            c.known_defect = Some(VSL_THREAD_DEFECT);
        }
        o.checks.push(c);
    }
}

fn layers(passes: &[Vec<Pass>], o: &mut Outcome) {
    for m in o.detail.iter().filter(|m| m.name.starts_with("solvers.")) {
        o.layers
            .push(Metric::new(m.name.clone(), "s", m.value, m.samples, ""));
    }
    // Work counts from the first 1-thread pass, where every kernel runs on
    // the calling thread and the thread-scoped delta is exact.
    let counts = &passes[1][0].counts;
    let sum = |f: fn(&(String, u64, u64, u64)) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    o.layer("solvers.faces_evaluated", "count", sum(|c| c.1), 1);
    o.layer("solvers.tridiag_solves", "count", sum(|c| c.2), 1);
    o.layer("numerics.newton_iterations", "count", sum(|c| c.3), 1);
    for (id, faces, tri, newton) in counts {
        let s = solver_of(id);
        for (what, n) in [
            ("faces_evaluated", faces),
            ("tridiag_solves", tri),
            ("newton_iterations", newton),
        ] {
            o.detail.push(Metric::new(
                format!("solvers.{s}.{what}"),
                "count",
                *n as f64,
                1,
                "per case, 1 thread",
            ));
        }
    }
}

/// One full ladder (both passes) for the ledger of another workload.
pub fn replay_layers(ctx: &Ctx, o: &mut Outcome) {
    let setup = setup(ctx);
    let root = ctx.tracer.begin("ledger.solve_ladder", None, 0);
    let passes: Vec<Vec<Pass>> = (0..setup.pools.len())
        .map(|k| vec![run_pass(ctx, &setup, k, root, 0)])
        .collect();
    ctx.tracer.end(root);
    let mut scratch = Outcome::default();
    judge(ctx, &setup, &passes, &mut scratch);
    o.layers.extend(scratch.layers);
    o.checks.extend(scratch.checks.into_iter().map(|mut c| {
        c.name = format!("ledger replay: {}", c.name);
        c
    }));
}
