//! `sweep_mix`: a seeded ~50-case parametric study (correlations, air9
//! VSL with and without radiation, Titan VSL, small air9 E+BL), emitted
//! as JSON, read back through `SweepPlan::parse`, and run by `run_sweep`
//! repeatedly at `nproc` workers, 1 intra-case thread each.

use std::time::Instant;

use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::reset_thread_warm_cache;
use aerothermo_numerics::telemetry::{Counter, TelemetryScope};
use aerothermo_sweep::runner::run_case;
use aerothermo_sweep::store::JsonlWriter;
use aerothermo_sweep::{
    load_records, normalized_fingerprint, run_sweep, CaseOutcome, CaseSpec, CaseStatus, FlowSpec,
    GasSpec, LevelSpec, SweepOptions, SweepPlan,
};
use rayon::ThreadPoolBuilder;

use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::stats::{median, time_median, Samples};
use crate::Ctx;

/// Titan-class freestream used by the VSL and correlation cases.
pub fn titan_flow(rng: &mut Rng) -> FlowSpec {
    FlowSpec::new(
        rng.log_range(5e-5, 2e-4),
        rng.range(6_500.0, 8_500.0),
        165.0,
        f64::NAN,
        0.6,
        1800.0,
    )
}

fn air_flow(rng: &mut Rng) -> FlowSpec {
    FlowSpec::new(
        rng.log_range(5e-5, 3e-4),
        rng.range(6_000.0, 8_500.0),
        220.0,
        f64::NAN,
        0.5,
        1500.0,
    )
}

/// The seeded plan. Its composition is fixed (only conditions vary with
/// the seed), so every seed asks for the same kind and amount of work.
pub fn make_plan(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed ^ 0x005E_ED0F_5EE9);
    let mut plan = SweepPlan::new(format!("sweep_mix_seed{seed}"));
    let vsl = |radiating| LevelSpec::Vsl {
        n_points: 40,
        radiating,
    };
    for k in 0..12 {
        let f = air_flow(&mut rng);
        plan.push(CaseSpec::new(
            format!("corr-air-{k:02}"),
            GasSpec::Air9,
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            f,
        ));
        let f = titan_flow(&mut rng);
        plan.push(CaseSpec::new(
            format!("corr-titan-{k:02}"),
            GasSpec::Titan { ch4: 0.05 },
            LevelSpec::Correlation { k_sg: 1.7e-4 },
            f,
        ));
    }
    for k in 0..8 {
        let f = air_flow(&mut rng);
        plan.push(CaseSpec::new(
            format!("vsl-air9-{k:02}"),
            GasSpec::Air9,
            vsl(false),
            f,
        ));
    }
    for k in 0..4 {
        let f = air_flow(&mut rng);
        plan.push(CaseSpec::new(
            format!("vsl-air9-rad-{k:02}"),
            GasSpec::Air9,
            vsl(true),
            f,
        ));
    }
    for k in 0..6 {
        let f = titan_flow(&mut rng);
        plan.push(CaseSpec::new(
            format!("vsl-titan-{k:02}"),
            GasSpec::Titan { ch4: 0.05 },
            vsl(false),
            f,
        ));
    }
    for k in 0..8 {
        // Mach 7-9 at 230 K over a 0.15 m hemisphere, 9x17 cells.
        let t_inf = 230.0;
        let p_inf = rng.range(200.0, 400.0);
        let u_inf = rng.range(7.0, 9.0) * (1.4_f64 * 287.05 * t_inf).sqrt();
        let f = FlowSpec::new(p_inf / (287.05 * t_inf), u_inf, t_inf, p_inf, 0.15, 300.0);
        let level = LevelSpec::EulerBl {
            ni: 9,
            nj: 17,
            max_steps: 400,
            tol: 1e-2,
        };
        plan.push(CaseSpec::new(
            format!("ebl-air9-{k:02}"),
            GasSpec::Air9,
            level,
            f,
        ));
    }
    plan
}

/// The per-level bucket a case's replay time lands in.
fn level_key(case: &CaseSpec) -> &'static str {
    match (&case.level, &case.gas) {
        (LevelSpec::Correlation { .. }, _) => "correlation",
        (
            LevelSpec::Vsl {
                radiating: true, ..
            },
            _,
        ) => "vsl_air9_radiating",
        (LevelSpec::Vsl { .. }, GasSpec::Titan { .. }) => "vsl_titan",
        (LevelSpec::Vsl { .. }, _) => "vsl_air9",
        (LevelSpec::EulerBl { .. }, _) => "euler_bl_air9",
        _ => "other",
    }
}

const LEVELS: [&str; 5] = [
    "correlation",
    "vsl_air9",
    "vsl_air9_radiating",
    "vsl_titan",
    "euler_bl_air9",
];

pub struct Setup {
    plan: SweepPlan,
    json: String,
}

/// Plan generation, the JSON round trip, and the lazy air9 table.
pub fn setup(ctx: &Ctx) -> Setup {
    let json = make_plan(ctx.seed).to_json();
    let plan = SweepPlan::parse(&json).expect("the generated plan parses");
    let _ = air9_table();
    Setup { plan, json }
}

/// `normalized_fingerprint` of records in the form a store round trip
/// leaves them (zero counters elided, metrics and counters by name), so
/// in-memory and stored records compare equal exactly when their values do.
pub fn fingerprint(records: &[CaseOutcome]) -> Vec<(String, String)> {
    let stored: Vec<CaseOutcome> = records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.counters.retain(|(_, v)| *v != 0);
            r.counters.sort_unstable();
            r.metrics.sort_by(|a, b| a.0.cmp(&b.0));
            r
        })
        .collect();
    normalized_fingerprint(&stored)
}

/// One timed `run_sweep` and what it left in its store.
struct Sweep {
    wall_s: f64,
    failed: usize,
    finite: bool,
    fingerprint: Vec<(String, String)>,
    store_matches: bool,
    /// Σ case wall / (workers × sweep wall).
    busy_ratio: f64,
    store: String,
}

fn sweep(ctx: &Ctx, plan: &SweepPlan, tag: &str, request: u64) -> Sweep {
    let workers = ctx.nproc;
    let store = ctx.path(&format!("store-{tag}.jsonl"));
    std::fs::remove_file(&store).ok();
    let opts = SweepOptions {
        workers,
        intra_case_threads: 1,
        store_path: Some(store.clone()),
        ..SweepOptions::default()
    };
    let sp = ctx
        .tracer
        .begin(&format!("run_sweep.w{workers}"), None, request);
    let t0 = Instant::now();
    let report = run_sweep(plan, &opts);
    let wall_s = t0.elapsed().as_secs_f64();
    ctx.tracer.end(sp);
    let Ok(report) = report else {
        return Sweep {
            wall_s,
            failed: plan.cases.len(),
            finite: false,
            fingerprint: Vec::new(),
            store_matches: false,
            busy_ratio: f64::NAN,
            store,
        };
    };
    let outcomes = &report.outcomes;
    let completed = outcomes
        .iter()
        .filter(|r| r.status == CaseStatus::Completed)
        .count();
    let finite = outcomes
        .iter()
        .all(|r| r.metrics.iter().all(|(_, v)| v.is_finite()));
    let fingerprint = fingerprint(outcomes);
    let store_matches = ctx.tracer.span("check.store", None, request, || {
        load_records(&store).is_ok_and(|r| self::fingerprint(&r) == fingerprint)
    });
    let busy: f64 = outcomes.iter().map(|r| r.wall_secs).sum();
    Sweep {
        wall_s,
        failed: plan.cases.len() - completed,
        finite,
        fingerprint,
        store_matches,
        busy_ratio: busy / (workers as f64 * wall_s),
        store,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let s = setup(ctx);
    let mut o = Outcome {
        setup_s: ctx.start.elapsed().as_secs_f64(),
        workers: format!("sweep workers {}, intra-case threads 1", ctx.nproc),
        ..Outcome::default()
    };
    let n = s.plan.cases.len();
    let t0 = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut iter = 0u64;
    while ctx.another_round(t0, iter) {
        let sw = sweep(ctx, &s.plan, &iter.to_string(), iter);
        // Keep only the first store, for the ledger replay.
        if iter > 0 {
            std::fs::remove_file(&sw.store).ok();
        }
        sweeps.push(sw);
        iter += 1;
    }

    let mut walls = Samples::default();
    for sw in &sweeps {
        o.attempted += n as u64;
        o.failed += sw.failed as u64;
        if sw.failed == 0 {
            walls.push(sw.wall_s);
        } else {
            walls.miss();
        }
    }
    // A sweep with a failed case is a miss, so the rate is the plan's
    // cases per median sweep.
    let rate = n as f64 / walls.median();
    o.e2e.extend([
        Metric::new(
            "p50_ms",
            "ms",
            1e3 * walls.median(),
            walls.len(),
            format!("{n}-case plan at {} workers", ctx.nproc),
        ),
        Metric::new(
            "throughput_per_s",
            "1/s",
            rate,
            walls.len(),
            format!(
                "cases per second at {} workers (sweep_cases_per_s)",
                ctx.nproc
            ),
        ),
    ]);
    o.detail.push(Metric::new(
        "sweep_cases_per_s",
        "1/s",
        rate,
        walls.len(),
        format!("cases / median sweep wall, {} workers", ctx.nproc),
    ));

    let bad: Vec<String> = sweeps
        .iter()
        .filter(|s| s.failed > 0 || !s.finite)
        .map(|s| format!("{} failed, finite metrics {}", s.failed, s.finite))
        .collect();
    o.check(
        "every case completes with finite metrics",
        bad.is_empty(),
        if bad.is_empty() {
            format!("{} sweeps of {n} cases", sweeps.len())
        } else {
            bad.join("; ")
        },
    );
    o.check(
        "each store matches its sweep report",
        sweeps.iter().all(|s| s.store_matches),
        "normalized_fingerprint of load_records(store) vs the in-memory report",
    );
    let same = sweeps
        .iter()
        .all(|s| s.fingerprint == sweeps[0].fingerprint);
    o.check(
        "results are bitwise identical across sweeps",
        same,
        format!("{} sweeps compared by normalized_fingerprint", sweeps.len()),
    );

    if ctx.tracer.enabled() {
        let busy: Vec<f64> = sweeps.iter().map(|s| s.busy_ratio).collect();
        o.layer("sweep.pool.busy_ratio", "ratio", median(&busy), busy.len());
        ledger(ctx, &s, &sweeps[0].store, &mut o);
    }
    std::fs::remove_file(&sweeps[0].store).ok();
    o
}

/// Serial `run_case` replay of every plan case (pinned like a pool worker)
/// checked against the pool's store, plus the sweep-layer probes.
fn ledger(ctx: &Ctx, s: &Setup, store: &str, o: &mut Outcome) {
    let tr = &ctx.tracer;
    let root = tr.begin("ledger.sweep_replay", None, 0);
    let pinned = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    let mut replayed = Vec::new();
    let mut per_level: Vec<(&str, Samples)> =
        LEVELS.iter().map(|l| (*l, Samples::default())).collect();
    let (mut hits, mut misses) = (0u64, 0u64);
    for case in &s.plan.cases {
        let key = level_key(case);
        let (res, wall, delta) = tr.span(&format!("run_case.{key}"), root, 0, || {
            pinned.install(|| {
                reset_thread_warm_cache();
                let scope = TelemetryScope::begin();
                let t0 = Instant::now();
                let res = run_case(case);
                (res, t0.elapsed().as_secs_f64(), scope.thread_delta())
            })
        });
        hits += delta.get(Counter::EquilibriumCacheHits);
        misses += delta.get(Counter::EquilibriumCacheMisses);
        if let Some((_, smp)) = per_level.iter_mut().find(|(l, _)| *l == key) {
            smp.push(wall);
        }
        match res {
            Ok(r) => replayed.push(CaseOutcome {
                id: case.id.clone(),
                status: CaseStatus::Completed,
                wall_secs: wall,
                retries: r.retries,
                worker: 0,
                note: r.note,
                error: None,
                metrics: r.metrics,
                counters: delta.iter().collect(),
                postmortem: None,
            }),
            Err(f) => o.check(format!("replay of {}", case.id), false, f.error.to_string()),
        }
    }
    tr.end(root);
    let pool = load_records(store)
        .map(|r| fingerprint(&r))
        .unwrap_or_default();
    let replay = fingerprint(&replayed);
    let differing = replay.iter().zip(&pool).filter(|(a, b)| a != b).count();
    o.check(
        "serial run_case replay matches the pool's store",
        replay == pool,
        format!(
            "{} replayed vs {} stored records, {differing} differ",
            replay.len(),
            pool.len()
        ),
    );
    for (level, smp) in &per_level {
        o.layer(
            format!("sweep.runner.case_ms.{level}"),
            "ms",
            1e3 * smp.median(),
            smp.len(),
        );
    }
    o.layer(
        "gas.eq_cache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    o.detail.push(Metric::new(
        "gas.eq_cache_hits",
        "count",
        hits as f64,
        1,
        format!(
            "of {} warm-cache lookups in the serial replay",
            hits + misses
        ),
    ));

    let parse_s = tr.span("probe.plan_parse", None, 0, || {
        time_median(20, || {
            std::hint::black_box(
                SweepPlan::parse(std::hint::black_box(&s.json)).expect("plan parses"),
            );
        })
    });
    o.layer("sweep.plan.parse_ms", "ms", 1e3 * parse_s, 20);

    let probe = ctx.path("append-probe.jsonl");
    let records = load_records(store).unwrap_or_default();
    let mut per_record = Vec::new();
    tr.span("probe.store_append", None, 0, || {
        for _ in 0..4 {
            std::fs::remove_file(&probe).ok();
            let mut w = JsonlWriter::append(&probe).expect("opening the append probe store");
            for r in &records {
                let t0 = Instant::now();
                w.record(r).expect("appending a record");
                per_record.push(t0.elapsed().as_secs_f64());
            }
        }
    });
    std::fs::remove_file(&probe).ok();
    o.layer(
        "sweep.store.append_us",
        "us",
        1e6 * median(&per_record),
        per_record.len(),
    );
}

/// The sweep-layer ledger for another workload's traced run: one
/// full-width sweep of this seed's plan, then the replay and probes.
pub fn replay_layers(ctx: &Ctx, o: &mut Outcome) {
    let s = setup(ctx);
    let sw = sweep(ctx, &s.plan, "ledger", 0);
    o.layer("sweep.pool.busy_ratio", "ratio", sw.busy_ratio, 1);
    ledger(ctx, &s, &sw.store, o);
    std::fs::remove_file(&sw.store).ok();
}
