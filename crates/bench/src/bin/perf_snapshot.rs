//! Deterministic performance snapshot of the workspace's hot kernels (the
//! one kernel harness).
//!
//! Runs a fixed suite of the kernels the figure binaries spend their time
//! in — tridiagonal and block-tridiagonal sweeps, damped-Newton solves,
//! stiff chemistry integration, direct equilibrium-composition solves,
//! spectrum integration, Euler blunt-body steps, and the distributed-sweep
//! bookkeeping (plan partitioning, shard-store federation) — under the
//! span profiler. Then, on reset spans, a cost suite (experiment E11)
//! times the NS step and the spectrum at 1 and 2 threads, Park rates,
//! table lookups and the spectrum at three resolutions under labels of its
//! own. The span statistics plus the first suite's kernel counter totals
//! are written as `BENCH_<label>.json`.
//!
//! ```text
//! perf_snapshot --label=baseline            # writes BENCH_baseline.json
//! perf_snapshot --label=pr --out=new.json   # custom path
//! perf_snapshot --compare BENCH_baseline.json new.json --tol=0.25
//! ```
//!
//! Cross-machine comparability: every snapshot also times a fixed
//! floating-point calibration loop (the `calibration` span); the
//! comparator divides each span's fastest occurrence by its snapshot's
//! fastest calibration loop, so a uniformly faster machine does not
//! masquerade as a perf improvement, nor a slower one as a regression
//! (minima, not means — preemption noise only ever inflates a timing).
//! The comparison exits 1 when any kernel's normalized minimum regresses
//! beyond `--tol` (default 0.25), which is how CI gates on
//! `BENCH_baseline.json`, and 2 on a usage error. It exits 3 ("not
//! comparable") when `rayon_threads` or `features` differ, or when a span
//! both snapshots gate has a different `count`; `num_cpus` may differ.

use aerothermo_atmosphere::trajectory::{EntryConditions, StopConditions, Vehicle};
use aerothermo_atmosphere::us76::Us76;
use aerothermo_bench::json::{self, Value};
use aerothermo_core::correlations::HeatingModel;
use aerothermo_core::surrogate::{
    fly_heating_history, ExactResponse, RadiativeModel, SurrogateBuilder, SurrogateQuery,
};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::equilibrium::air9_equilibrium;
use aerothermo_gas::kinetics::park_air9;
use aerothermo_gas::GasModel;
use aerothermo_grid::bodies::Hemisphere;
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_numerics::metrics;
use aerothermo_numerics::newton::{newton_solve, NewtonOptions};
use aerothermo_numerics::ode::{stiff_integrate, AdaptiveOptions};
use aerothermo_numerics::telemetry::CounterSnapshot;
use aerothermo_numerics::trace;
use aerothermo_numerics::tridiag::{solve_block_tridiag, solve_tridiag};
use aerothermo_radiation::spectra::spectrum;
use aerothermo_radiation::{wavelength_grid, GasSample};
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo_solvers::ns2d::{NsSolver, Transport};
use aerothermo_sweep::shard::{federate, partition};
use aerothermo_sweep::spec::{FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::store::{CaseOutcome, CaseStatus, JsonlWriter};
use aerothermo_sweep::{CaseSpec, ShardStrategy, SweepPlan};
use std::collections::BTreeMap;
use std::hint::black_box;

fn arg_value(prefix: &str) -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))
}

fn main() {
    aerothermo_bench::cli::announce("perf_snapshot");
    let args: Vec<String> = std::env::args().collect();
    if let Some(k) = args.iter().position(|a| a == "--compare") {
        let (Some(base), Some(cand)) = (args.get(k + 1), args.get(k + 2)) else {
            eprintln!("usage: perf_snapshot --compare BASELINE.json CANDIDATE.json [--tol=0.25]");
            std::process::exit(2);
        };
        let tol = arg_value("--tol=")
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.25);
        std::process::exit(compare(base, cand, tol));
    }

    let label = arg_value("--label=").unwrap_or_else(|| "snapshot".to_string());
    let out = arg_value("--out=").unwrap_or_else(|| format!("BENCH_{label}.json"));
    let counters0 = CounterSnapshot::take();
    trace::enable();
    trace::reset();

    run_suite();

    let mut stats = trace::stats();
    let counters = CounterSnapshot::take().delta_since(&counters0);
    // The cost suite runs after the gated statistics and counters are
    // taken, on reset spans, and only its own labels are kept: the solver
    // spans it opens (`ns_step`, `spectrum_integration`, ...) gain no
    // occurrence, so no gated minimum can move.
    trace::reset();
    run_cost_suite();
    let cost: Vec<_> = trace::stats()
        .into_iter()
        .filter(|st| COST_LABELS.contains(&st.label))
        .collect();
    assert_eq!(cost.len(), COST_LABELS.len(), "every cost label is timed");
    stats.extend(cost);
    // The calibration reference is the *fastest* loop occurrence: minima
    // are far more stable than means under scheduler noise, and the
    // comparator uses the same estimator for every span.
    let calib = stats
        .iter()
        .find(|s| s.label == "calibration")
        .map_or(0, |s| s.min_ns);

    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"label\": \"{label}\",\n"));
    s.push_str(&format!(
        "  \"unix_time_secs\": {},\n",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs())
    ));
    let features = aerothermo_numerics::simd::active_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    s.push_str(&format!(
        "  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"num_cpus\": {}, \
         \"rayon_threads\": {}, \"features\": [{features}]}},\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        rayon::current_num_threads()
    ));
    s.push_str(&format!("  \"calibration_ns\": {calib},\n"));
    s.push_str("  \"spans\": {");
    for (k, st) in stats.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"mean_ns\": {}}}",
            st.label,
            st.count,
            st.total_ns,
            st.min_ns,
            st.max_ns,
            st.mean_ns()
        ));
    }
    s.push_str("\n  },\n");
    // The same spans' duration quantiles. Schema-additive: the ratchet
    // comparator reads only calibration_ns/spans, so these inform without
    // gating.
    s.push_str(&format!(
        "  \"metrics_timings\": {},\n",
        metrics::timings_json(&stats)
    ));
    s.push_str("  \"counters\": {");
    for (k, (name, v)) in counters.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{name}\": {v}"));
    }
    s.push_str("\n  }\n}\n");

    std::fs::write(&out, s).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("perf snapshot '{label}' written to {out}");
    for st in &stats {
        println!(
            "  {:<24} count {:>8}  mean {:>10} ns  total {:>12} ns",
            st.label,
            st.count,
            st.mean_ns(),
            st.total_ns
        );
    }
}

/// The fixed kernel suite. Workloads are sized so the whole suite runs in
/// a few seconds yet every span accumulates enough occurrences for a
/// stable mean.
fn run_suite() {
    // Calibration: a fixed serial FP workload timed like any other span.
    for _ in 0..8 {
        let _sp = trace::span("calibration");
        let mut acc = 0.0_f64;
        for i in 1..2_000_000u64 {
            #[allow(clippy::cast_precision_loss)]
            let x = i as f64;
            acc += (x.sqrt() + 1.0 / x).sin();
        }
        assert!(acc.is_finite());
    }

    // Scalar tridiagonal sweeps (Thomas algorithm), n = 2000.
    {
        let n = 2000;
        let a = vec![-1.0; n];
        let b = vec![2.5; n];
        let c = vec![-1.0; n];
        for _ in 0..200 {
            let mut d = vec![1.0; n];
            solve_tridiag(&a, &b, &c, &mut d).expect("tridiag");
        }
    }

    // Block-tridiagonal sweeps, 200 blocks of 4×4.
    {
        let (n, m) = (200, 4);
        let mut a = vec![0.0; n * m * m];
        let mut b = vec![0.0; n * m * m];
        let mut c = vec![0.0; n * m * m];
        for i in 0..n {
            for k in 0..m {
                b[i * m * m + k * m + k] = 4.0;
                a[i * m * m + k * m + k] = -1.0;
                c[i * m * m + k * m + k] = -1.0;
            }
        }
        for _ in 0..100 {
            let mut d = vec![1.0; n * m];
            solve_block_tridiag(&a, &b, &c, &mut d, n, m).expect("block tridiag");
        }
    }

    // Damped-Newton solves of a 4-dimensional nonlinear system.
    {
        let opts = NewtonOptions::default();
        for _ in 0..400 {
            let mut x = [0.5, 0.5, 0.5, 0.5];
            newton_solve(
                |x, f| {
                    // Mildly coupled contraction: a well-conditioned system
                    // Newton polishes in a handful of iterations.
                    f[0] = x[0] - 0.5 * x[1].cos();
                    f[1] = x[1] - 0.4 * x[2].cos();
                    f[2] = x[2] - 0.3 * x[3].cos();
                    f[3] = x[3] - 0.2 * x[0].cos();
                },
                &mut x,
                &opts,
            )
            .expect("newton");
        }
    }

    // Stiff integration: a two-rate linear relaxation system (the shape of
    // the chemistry operator-split substep).
    {
        let sys = |_x: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -1e4 * (y[0] - y[1]);
            dy[1] = -1e2 * (y[1] - y[2]);
            dy[2] = -y[2];
        };
        let opts = AdaptiveOptions {
            rtol: 1e-6,
            atol: 1e-10,
            h0: 1e-6,
            ..AdaptiveOptions::default()
        };
        for _ in 0..50 {
            let mut y = [1.0, 0.5, 0.2];
            stiff_integrate(&sys, 0.0, 0.1, &mut y, &opts, |_, _| {}).expect("stiff");
        }
    }

    // Direct equilibrium-composition solves over a (T, p) sweep.
    {
        let gas = air9_equilibrium();
        for kt in 0..24 {
            for kp in 0..6 {
                let t = 1500.0 + 450.0 * f64::from(kt);
                let p = 100.0 * 10.0_f64.powf(0.5 * f64::from(kp));
                let st = gas.at_tp(t, p).expect("equilibrium state");
                assert!(st.density > 0.0);
            }
        }
    }

    // Micro-batched equilibrium solves: the same composition kernel driven
    // through `at_trho_batch` (shared Newton scratch, 4-lane chunks) over
    // density-major (T, rho) sweeps — the table-build access pattern.
    {
        let gas = air9_equilibrium();
        for kr in 0..6 {
            let rho = 1e-4 * 10.0_f64.powf(0.5 * f64::from(kr));
            let states: Vec<(f64, f64)> = (0..24)
                .map(|kt| (1500.0 + 450.0 * f64::from(kt), rho))
                .collect();
            for st in gas.at_trho_batch(&states) {
                assert!(st.expect("equilibrium batch state").pressure > 0.0);
            }
        }
    }

    // Spectrum integration on a 4000-point wavelength grid.
    {
        let sample = GasSample::equilibrium(
            9000.0,
            vec![
                ("N2".into(), 1e22),
                ("N".into(), 5e22),
                ("O".into(), 2e22),
                ("NO".into(), 1e20),
                ("N2+".into(), 1e19),
                ("e-".into(), 1e19),
            ],
        );
        let lambda: Vec<f64> = (0..4000)
            .map(|k| 200e-9 + 800e-9 * f64::from(k) / 4000.0)
            .collect();
        for _ in 0..3 {
            let sp = spectrum(&sample, &lambda, 0.5e-9);
            assert!(sp.total_emission() > 0.0);
        }
    }

    // Euler blunt-body steps on the E10 hemisphere problem (ideal gas and
    // equilibrium-table gas paths).
    {
        let fs = freestream(230.0, 300.0, 8.0);
        let bc = hemisphere_bc(fs);
        let body = Hemisphere::new(0.15);
        let dist = stretch::uniform(49);
        let grid = StructuredGrid::blunt_body(&body, 25, 49, &|sb| (0.3 + 0.2 * sb) * 0.15, &dist);
        let gas = aerothermo_gas::IdealGas::air();
        let mut solver = EulerSolver::new(&grid, &gas, bc, EulerOptions::default(), fs);
        for _ in 0..150 {
            solver.step();
        }
        let table = air9_table();
        let mut solver_eq = EulerSolver::new(&grid, table, bc, EulerOptions::default(), fs);
        for _ in 0..50 {
            solver_eq.step();
        }
    }

    // Surrogate fast path: build the Earth heating response surfaces once
    // (`surrogate_build`), then serve fixed 4096-point batches through the
    // allocation-free query engine (`surrogate_query` — each occurrence is
    // one whole batch, so queries/sec = 4096 / min_ns · 1e9), and resolve
    // a full entry heating history through the table
    // (`trajectory_history`).
    {
        let mut response = ExactResponse {
            atmosphere: &Us76,
            gas: air9_table(),
            model: HeatingModel::earth_sutton_graves(),
            radiative: RadiativeModel::TauberSuttonEarthSmooth,
            nose_radius: 0.6,
        };
        let table = {
            let _sp = trace::span("surrogate_build");
            SurrogateBuilder::new((30_000.0, 90_000.0), (3_000.0, 13_000.0))
                .initial_grid(25, 25)
                .tolerance(0.02)
                .build(&mut response)
                .expect("surrogate build")
        };

        const BATCH: usize = 4096;
        // Deterministic low-discrepancy scatter over the table domain.
        let mut hs = vec![0.0f64; BATCH];
        let mut vs = vec![0.0f64; BATCH];
        for k in 0..BATCH {
            #[allow(clippy::cast_precision_loss)]
            let u = (k as f64 * 0.618_033_988_749_895).fract();
            #[allow(clippy::cast_precision_loss)]
            let w = (k as f64 * 0.754_877_666_246_693).fract();
            hs[k] = 30_000.0 + 60_000.0 * u;
            vs[k] = 3_000.0 + 10_000.0 * w;
        }
        let mut out = vec![SurrogateQuery::default(); BATCH];
        let mut acc = 0.0f64;
        for _ in 0..200 {
            let _sp = trace::span("surrogate_query");
            table.query_batch(&hs, &vs, &mut out);
            acc += out[BATCH - 1].q_conv;
        }
        assert!(acc.is_finite() && acc > 0.0);

        let entry = EntryConditions {
            altitude: 90_000.0,
            velocity: 7_800.0,
            gamma: -1.2f64.to_radians(),
        };
        let stop = StopConditions {
            min_velocity: 3_100.0,
            max_time: 1_500.0,
            ..StopConditions::default()
        };
        for _ in 0..10 {
            let _sp = trace::span("trajectory_history");
            let pulse = fly_heating_history(&Us76, &Vehicle::shuttle_like(), entry, stop, &table);
            assert!(pulse.len() > 10);
        }
    }

    // Navier-Stokes blunt-body steps (inviscid assembly + viscous j-face
    // sweep + conduction wall) on a boundary-layer-stretched grid.
    {
        let fs = freestream(220.0, 500.0, 6.0);
        let bc = hemisphere_bc(fs);
        let rn = 0.1;
        let body = Hemisphere::new(rn);
        let dist = stretch::tanh_one_sided(33, 3.5);
        let grid =
            StructuredGrid::blunt_body(&body, 17, 33, &|sb| (0.035 + 0.03 * sb) * rn / 0.1, &dist);
        let gas = aerothermo_gas::IdealGas::air();
        let mut solver = NsSolver::new(
            &grid,
            &gas,
            bc,
            EulerOptions::default(),
            fs,
            Transport::air(),
            300.0,
        );
        for _ in 0..120 {
            solver.step();
        }
    }

    // Distributed-sweep bookkeeping: cost-balanced plan partitioning
    // (`shard_partition`) and shard-store federation (`federate`) over a
    // synthetic 512-case plan — the sharding layer's only hot paths.
    {
        let mut cases = Vec::with_capacity(512);
        for k in 0..512usize {
            #[allow(clippy::cast_precision_loss)]
            let rho = 1e-5 * (1.0 + (k % 37) as f64);
            let level = if k % 3 == 0 {
                LevelSpec::Vsl {
                    n_points: 20 + (k % 5) * 10,
                    radiating: false,
                }
            } else {
                LevelSpec::Correlation { k_sg: 1.74e-4 }
            };
            cases.push(CaseSpec::new(
                format!("case-{k:03}"),
                GasSpec::Air9,
                level,
                FlowSpec::new(rho, 7_000.0, 220.0, f64::NAN, 0.5, 1500.0),
            ));
        }
        let plan = SweepPlan {
            name: "perf_shard".into(),
            cases,
        };
        let mut assigned = 0usize;
        for _ in 0..100 {
            let shards = partition(&plan, 8, ShardStrategy::CostBalanced);
            assigned += shards.iter().map(Vec::len).sum::<usize>();
        }
        assert_eq!(assigned, 512 * 100);

        // Synthetic shard stores on disk (federation is an I/O + merge
        // path; the records never run a solver here).
        let dir = std::env::temp_dir().join(format!("perf-federate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp shard dir");
        let shards = partition(&plan, 4, ShardStrategy::RoundRobin);
        let stores: Vec<String> = shards
            .iter()
            .enumerate()
            .map(|(i, idxs)| {
                let path = dir
                    .join(format!("shard-{i}.jsonl"))
                    .to_str()
                    .unwrap()
                    .to_string();
                let mut w = JsonlWriter::append(&path).expect("shard store opens");
                for &k in idxs {
                    #[allow(clippy::cast_precision_loss)]
                    let q = 1e5 + k as f64;
                    w.record(&CaseOutcome {
                        id: plan.cases[k].id.clone(),
                        status: CaseStatus::Completed,
                        wall_secs: 0.01,
                        retries: 0,
                        worker: 0,
                        note: String::new(),
                        error: None,
                        metrics: vec![("q_conv_w_m2".into(), q)],
                        counters: Vec::new(),
                        postmortem: None,
                    })
                    .expect("record written");
                }
                path
            })
            .collect();
        for _ in 0..50 {
            let (records, report) = federate(&plan, &stores).expect("federation runs");
            assert_eq!(records.len(), 512);
            assert!(report.complete());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Ideal-air freestream `(rho, u, v, p)` at temperature `t`, pressure `p`
/// and Mach number `mach`.
fn freestream(t: f64, p: f64, mach: f64) -> (f64, f64, f64, f64) {
    let rho = p / (287.05 * t);
    let a = (1.4_f64 * 287.05 * t).sqrt();
    (rho, mach * a, 0.0, p)
}

/// Blunt-body boundary conditions: slip axis and wall, outflow, and the
/// freestream `fs` entering through the outer boundary.
fn hemisphere_bc(fs: (f64, f64, f64, f64)) -> BcSet {
    BcSet {
        i_lo: Bc::SlipWall,
        i_hi: Bc::Outflow,
        j_lo: Bc::SlipWall,
        j_hi: Bc::Inflow {
            rho: fs.0,
            ux: fs.1,
            ur: fs.2,
            p: fs.3,
        },
    }
}

/// The cost suite's span labels, the only ones kept from its run.
const COST_LABELS: [&str; 9] = [
    "ns_step_threads_1",
    "ns_step_threads_2",
    "spectrum_threads_1",
    "spectrum_threads_2",
    "spectrum_bins_500",
    "spectrum_bins_2000",
    "spectrum_bins_8000",
    "park_rates_x100",
    "eq_table_lookup_x1000",
];

/// Thread scaling and kernel costs (experiment E11): the NS step and the
/// spectrum at 1 and 2 rayon threads whatever the host, Park rates and
/// equilibrium-table lookups in batches that lift each span well above
/// [`MIN_COMPARABLE_NS`], and the spectrum at three resolutions.
fn run_cost_suite() {
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("rayon pool")
    };

    // NS step on a 41x65 hemisphere grid, a fresh solver per thread count
    // started past the impulsive start.
    let fs = freestream(230.0, 300.0, 8.0);
    let body = Hemisphere::new(0.15);
    let dist = stretch::tanh_one_sided(65, 3.0);
    let grid = StructuredGrid::blunt_body(&body, 41, 65, &|sb| (0.3 + 0.2 * sb) * 0.15, &dist);
    let gas = aerothermo_gas::IdealGas::air();
    for (threads, label) in [(1, "ns_step_threads_1"), (2, "ns_step_threads_2")] {
        let mut solver = NsSolver::new(
            &grid,
            &gas,
            hemisphere_bc(fs),
            EulerOptions::default(),
            fs,
            Transport::air(),
            300.0,
        );
        pool(threads).install(|| {
            for _ in 0..200 {
                solver.step();
            }
            for _ in 0..50 {
                let _sp = trace::span(label);
                black_box(solver.step());
            }
        });
    }

    // Spectrum of hot air: 4000 bins at 1 and 2 threads, then 500, 2000
    // and 8000 bins on the ambient pool (0 threads).
    for (threads, t, bins, label) in [
        (1, 12_000.0, 4000, "spectrum_threads_1"),
        (2, 12_000.0, 4000, "spectrum_threads_2"),
        (0, 11_000.0, 500, "spectrum_bins_500"),
        (0, 11_000.0, 2000, "spectrum_bins_2000"),
        (0, 11_000.0, 8000, "spectrum_bins_8000"),
    ] {
        let densities = [("N2", 5e21), ("N2+", 5e18), ("N", 2e22), ("O", 6e21)];
        let sample = GasSample::equilibrium(t, densities.map(|(sp, n)| (sp.into(), n)).to_vec());
        let lam = wavelength_grid(0.2e-6, 1.0e-6, bins);
        pool(threads).install(|| {
            for _ in 0..10 {
                let _sp = trace::span(label);
                black_box(spectrum(&sample, &lam, 1e-9).total_emission());
            }
        });
    }

    // Park production rates of 9-species air, 100 evaluations per span.
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let conc = [1e-3, 2e-4, 5e-5, 4e-4, 3e-4, 1e-6, 2e-6, 5e-6, 8e-6];
    let mut wdot = [0.0; 9];
    for _ in 0..20 {
        let _sp = trace::span("park_rates_x100");
        for _ in 0..100 {
            set.production_rates(black_box(9000.0), black_box(7000.0), &conc, &mut wdot);
            black_box(wdot[0]);
        }
    }

    // Equilibrium-air table lookups (pressure, temperature and sound speed
    // of one state), 1000 per span.
    let table = air9_table();
    for _ in 0..20 {
        let _sp = trace::span("eq_table_lookup_x1000");
        for _ in 0..1000 {
            let (rho, e) = (black_box(0.01), black_box(5e6));
            black_box(
                table.pressure(rho, e) + table.temperature(rho, e) + table.sound_speed(rho, e),
            );
        }
    }
}

/// Span labels whose baseline minimum is below this are skipped by the
/// comparator: at sub-microsecond scales the span overhead itself and
/// scheduler noise dominate any real change.
const MIN_COMPARABLE_NS: f64 = 500.0;

/// Exit code of a comparison between snapshots that are not like for like.
const NOT_COMPARABLE: i32 = 3;

/// The parts of a snapshot the comparator reads.
struct Snapshot {
    calib: f64,
    machine: Value,
    /// `label -> (min_ns, count)` of every span but the calibration loop.
    spans: BTreeMap<String, (f64, f64)>,
}

fn load_snapshot(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("bad snapshot {path}: {e}"));
    let calib = doc
        .get("calibration_ns")
        .and_then(Value::as_f64)
        .filter(|c| *c > 0.0)
        .unwrap_or_else(|| panic!("snapshot {path} has no usable calibration_ns"));
    let mut spans = BTreeMap::new();
    if let Some(map) = doc.get("spans").and_then(Value::as_object) {
        for (label, st) in map {
            if label == "calibration" {
                continue;
            }
            // Compare fastest occurrences (same estimator as the
            // calibration reference): minima filter out preemption noise.
            if let Some(min) = st.get("min_ns").and_then(Value::as_f64) {
                let count = st.get("count").and_then(Value::as_f64).unwrap_or(0.0);
                spans.insert(label.clone(), (min, count));
            }
        }
    }
    let machine = doc.get("machine").cloned().unwrap_or(Value::Null);
    Snapshot {
        calib,
        machine,
        spans,
    }
}

/// A machine-block field as it reads in the snapshot.
fn show(v: Option<&Value>) -> String {
    match v {
        Some(Value::Number(x)) => x.to_string(),
        Some(Value::Array(xs)) => format!(
            "{:?}",
            xs.iter().filter_map(Value::as_str).collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    }
}

/// Why two snapshots cannot be compared: a different rayon thread count
/// or feature set, or a gated span timed a different number of times (a
/// different suite). Host core counts may differ: the calibration span
/// divides out host speed.
fn unlike(base: &Snapshot, cand: &Snapshot) -> Vec<String> {
    let mut why = Vec::new();
    for field in ["rayon_threads", "features"] {
        let (b, c) = (base.machine.get(field), cand.machine.get(field));
        if b != c {
            why.push(format!(
                "machine.{field} differs: {} vs {}",
                show(b),
                show(c)
            ));
        }
    }
    for (label, (base_min, base_count)) in &base.spans {
        if *base_min < MIN_COMPARABLE_NS {
            continue;
        }
        if let Some((_, cand_count)) = cand.spans.get(label) {
            if cand_count != base_count {
                why.push(format!(
                    "span {label} count differs: {base_count} vs {cand_count}"
                ));
            }
        }
    }
    why
}

/// Compare two snapshots; returns the process exit code (0 = within
/// tolerance, 1 = regression, [`NOT_COMPARABLE`] = unlike snapshots).
fn compare(base_path: &str, cand_path: &str, tol: f64) -> i32 {
    let base = load_snapshot(base_path);
    let cand = load_snapshot(cand_path);
    let (base_calib, cand_calib) = (base.calib, cand.calib);
    println!(
        "perf comparison: {base_path} -> {cand_path} (tol {:.0}%, calibration {base_calib:.0} -> {cand_calib:.0} ns, num_cpus {} -> {})",
        tol * 100.0,
        show(base.machine.get("num_cpus")),
        show(cand.machine.get("num_cpus"))
    );
    let why = unlike(&base, &cand);
    if !why.is_empty() {
        for w in &why {
            eprintln!("  {w}");
        }
        eprintln!("NOT COMPARABLE: the snapshots were taken under different configurations");
        return NOT_COMPARABLE;
    }
    let mut regressions = 0usize;
    for (label, (base_min, _)) in &base.spans {
        if *base_min < MIN_COMPARABLE_NS {
            println!("  {label:<24} skipped (baseline min {base_min:.0} ns below noise floor)");
            continue;
        }
        let Some((cand_min, _)) = cand.spans.get(label) else {
            println!("  {label:<24} MISSING from candidate snapshot");
            regressions += 1;
            continue;
        };
        let ratio = (cand_min / cand_calib) / (base_min / base_calib);
        let verdict = if ratio > 1.0 + tol {
            regressions += 1;
            "REGRESSION"
        } else if ratio < 1.0 / (1.0 + tol) {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {label:<24} {base_min:>10.0} -> {cand_min:>10.0} ns  normalized x{ratio:.2}  {verdict}"
        );
    }
    for label in cand.spans.keys() {
        if !base.spans.contains_key(label) {
            println!("  {label:<24} new span (no baseline; not gated)");
        }
    }
    if regressions > 0 {
        eprintln!(
            "FAIL: {regressions} kernel(s) regressed beyond {:.0}%",
            tol * 100.0
        );
        1
    } else {
        println!("PASS: no kernel regressed beyond {:.0}%", tol * 100.0);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal snapshot file with one gated span.
    fn write_snapshot(name: &str, cpus: u32, threads: u32, features: &str, count: u32) -> String {
        let path = std::env::temp_dir()
            .join(format!("perf-compare-{}-{name}.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string();
        let doc = format!(
            "{{\"machine\": {{\"num_cpus\": {cpus}, \"rayon_threads\": {threads}, \
             \"features\": [{features}]}}, \"calibration_ns\": 1000000, \"spans\": {{\
             \"ns_step\": {{\"count\": {count}, \"min_ns\": 100000}}}}}}"
        );
        std::fs::write(&path, doc).unwrap();
        path
    }

    #[test]
    fn unlike_snapshots_are_not_comparable() {
        let base = write_snapshot("base", 1, 1, "", 120);
        let cases = [
            (
                "threads",
                write_snapshot("threads", 1, 2, "", 120),
                NOT_COMPARABLE,
            ),
            (
                "simd",
                write_snapshot("simd", 1, 1, "\"sse2\"", 120),
                NOT_COMPARABLE,
            ),
            (
                "count",
                write_snapshot("count", 1, 1, "", 121),
                NOT_COMPARABLE,
            ),
            ("cpus", write_snapshot("cpus", 2, 1, "", 120), 0),
        ];
        for (what, cand, code) in &cases {
            assert_eq!(compare(&base, cand, 0.25), *code, "{what}");
            std::fs::remove_file(cand).ok();
        }
        std::fs::remove_file(&base).ok();
    }
}
