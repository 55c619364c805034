//! The per-layer ledger of a traced run. Layers the workload itself
//! loaded were already measured from its spans; every other layer is
//! measured here by replaying calls into that crate's public API, so each
//! traced run reports the whole ledger.

use std::time::Instant;

use aerothermo_core::heating::tangent_slab_over_stations;
use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::{
    air9_equilibrium, reset_thread_warm_cache, titan_equilibrium, EquilibriumGas, GasModel,
};
use aerothermo_solvers::vsl::{solve_with_retry, VslProblem};
use aerothermo_sweep::{CaseSpec, LevelSpec};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, time_median};
use crate::{ladder, serve, sweep_mix, Ctx};

/// NS grid of the fig10 ladder: rows of `NS_NJ` cells × 4 conserved
/// variables, `NS_NI` rows.
const NS_NI: usize = 21;
const NS_NJ: usize = 57;

/// Spectral band and resolution of the radiating-VSL tangent-slab
/// transport in the sweep runner.
const SLAB_BAND: (f64, f64, usize) = (0.25e-6, 1.0e-6, 400);

pub fn complete(ctx: &Ctx, o: &mut Outcome) {
    if !o.has_layer("solvers.ns2d.case_s") {
        ladder::replay_layers(ctx, o);
    }
    if !o.has_layer("sweep.runner.case_ms.vsl_titan") {
        sweep_mix::replay_layers(ctx, o);
    }
    serve::replay_layers(ctx, o);
    let plan = sweep_mix::make_plan(ctx.seed);
    let first = |prefix: &str| {
        plan.cases
            .iter()
            .find(|c| c.id.starts_with(prefix))
            .expect("the sweep plan has every case kind")
    };
    ctx.tracer
        .span("probe.rayon", None, 0, || rayon_dispatch(ctx, o));
    ctx.tracer.span("probe.gas", None, 0, || {
        gas_states(o, "titan", &titan_equilibrium(0.05), first("vsl-titan-"));
        gas_states(o, "air9", &air9_equilibrium(), first("vsl-air9-"));
        table_lookup(ctx, o);
    });
    ctx.tracer.span("probe.radiation", None, 0, || {
        radiation(o, first("vsl-air9-rad-"))
    });
}

/// One `par_chunks_mut` over an NS-sized row set with a trivial body.
fn rayon_dispatch(ctx: &Ctx, o: &mut Outcome) {
    let mut rows = vec![0.0f64; NS_NI * NS_NJ * 4];
    for (threads, name) in [
        (ctx.nproc, "rayon.dispatch_us"),
        (1, "rayon.dispatch_us.1t"),
    ] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("rayon pool");
        let t = pool.install(|| {
            time_median(500, || {
                std::hint::black_box(&mut rows)
                    .par_chunks_mut(NS_NJ * 4)
                    .for_each(|row| row[0] += 1.0);
            })
        });
        o.layer(name, "us", 1e6 * t, 500);
    }
}

/// Direct equilibrium solves along a 96-point temperature sweep at the
/// stagnation pressure of the plan's first case of this gas, starting
/// from a cold warm-start cache like a fresh VSL property table.
fn gas_states(o: &mut Outcome, label: &str, gas: &EquilibriumGas, case: &CaseSpec) {
    let p = case.flow.rho_inf * case.flow.u_inf * case.flow.u_inf;
    let n = 96;
    let temps: Vec<f64> = (0..n)
        .map(|i| 1000.0 * 10f64.powf(f64::from(i) / f64::from(n - 1)))
        .collect();
    let per_sweep = time_median(5, || {
        reset_thread_warm_cache();
        for &t in &temps {
            std::hint::black_box(gas.at_tp(t, p).expect("equilibrium state"));
        }
    });
    o.layer(
        format!("gas.equilibrium.{label}_state_us"),
        "us",
        1e6 * per_sweep / f64::from(n),
        5,
    );
}

/// Table-backed EOS lookups (`pressure_sound_speed`, the call the CFD
/// flux kernels make) at seeded states.
fn table_lookup(ctx: &Ctx, o: &mut Outcome) {
    let table = air9_table();
    let mut rng = Rng::new(ctx.seed ^ 0x7AB1E);
    let states: Vec<(f64, f64)> = (0..100_000)
        .map(|_| (rng.log_range(1e-4, 1.0), rng.log_range(2e5, 3e7)))
        .collect();
    let per_pass = time_median(10, || {
        for &(rho, e) in &states {
            std::hint::black_box(table.pressure_sound_speed(std::hint::black_box(rho), e));
        }
    });
    o.layer(
        "gas.eq_table.air9_lookup_ns",
        "ns",
        1e9 * per_pass / states.len() as f64,
        10,
    );
}

/// Tangent-slab transport over the converged layer of the plan's first
/// radiating case.
fn radiation(o: &mut Outcome, case: &CaseSpec) {
    let LevelSpec::Vsl { n_points, .. } = case.level else {
        return;
    };
    let f = &case.flow;
    let problem = VslProblem {
        u_inf: f.u_inf,
        rho_inf: f.rho_inf,
        t_inf: f.t_inf,
        nose_radius: f.nose_radius,
        t_wall: f.t_wall,
        n_points,
        radiating: true,
    };
    let gas = air9_equilibrium();
    reset_thread_warm_cache();
    let sol = match solve_with_retry(&gas, &problem, case.max_retries) {
        Ok(out) => out.value,
        Err(e) => {
            o.check(
                "radiating VSL layer for the spectrum probe",
                false,
                e.to_string(),
            );
            return;
        }
    };
    let mut times = Vec::new();
    for _ in 0..5 {
        let mut s = sol.clone();
        let t0 = Instant::now();
        std::hint::black_box(tangent_slab_over_stations(
            &mut s,
            SLAB_BAND.0,
            SLAB_BAND.1,
            SLAB_BAND.2,
        ));
        times.push(t0.elapsed().as_secs_f64());
    }
    o.layer(
        "radiation.spectrum_ms",
        "ms",
        1e3 * median(&times),
        times.len(),
    );
}
