//! Parabolized Navier-Stokes (PNS) space marching.
//!
//! When the inviscid streamwise flow is supersonic and there is no flow
//! reversal, the steady equations parabolize: the solution can be *marched*
//! station by station along the body at a fraction of the cost of a full NS
//! relaxation — the paper's slender-body workhorse (its Fig. 6 windward
//! heating came from such a code). Two classic ingredients:
//!
//! * **Vigneron splitting** — inside the subsonic wall layer only the
//!   fraction `ω = min(1, σγM_ξ²/(1+(γ−1)M_ξ²))` of the streamwise pressure
//!   is retained in the marching flux, keeping the march well-posed,
//! * **station relaxation** — each cross-flow column is converged by local
//!   pseudo-time iteration with the upstream column frozen (single sweep).
//!
//! The cross-flow (j) faces use the same flux functions as the full-field
//! solvers — [`crate::euler2d`]'s AUSM+ and `Transport::thin_layer_flux`
//! — so PNS heating is directly comparable with the full-NS result.
//!
//! Cost: a station's frozen upstream flux is built once; each relaxation
//! iteration decodes the column once (one temperature per cell), evaluates
//! every j-face once and then gathers the per-cell residuals. A station
//! costs at most `max_station_iters` such iterations, so the march costs
//! O(stations × iterations × ncj) against NS's O(steps × nci × ncj).

use crate::euler2d::{EulerOptions, EulerSolver, Primitive, NEQ};
use crate::ns2d::Transport;
use aerothermo_gas::GasModel;
use aerothermo_grid::{Geometry, Metrics, StructuredGrid};
use aerothermo_numerics::telemetry::{RunTelemetry, SolverError};
use aerothermo_numerics::{trace, Field3};

/// PNS options.
#[derive(Debug, Clone)]
pub struct PnsOptions {
    /// Pseudo-time CFL for the station relaxation.
    pub cfl: f64,
    /// Maximum pseudo-time iterations per station.
    pub max_station_iters: usize,
    /// Relative residual drop per station.
    pub station_tol: f64,
    /// Vigneron safety factor σ.
    pub sigma: f64,
    /// Isothermal wall temperature \[K\]; `None` = inviscid march.
    pub t_wall: Option<f64>,
}

impl Default for PnsOptions {
    fn default() -> Self {
        Self {
            cfl: 0.35,
            max_station_iters: 4000,
            station_tol: 1e-6,
            sigma: 0.85,
            t_wall: None,
        }
    }
}

/// Result of a PNS march.
#[derive(Debug, Clone, Default)]
pub struct PnsSolution {
    /// Arc-length-ish station coordinate: x of the wall-cell centroid.
    pub station_x: Vec<f64>,
    /// Wall pressure per station \[Pa\].
    pub wall_pressure: Vec<f64>,
    /// Wall heat flux per station \[W/m²\] (0 for inviscid marches).
    pub wall_heat_flux: Vec<f64>,
    /// Iterations used per station.
    pub iterations: Vec<usize>,
}

/// PNS marching solver bound to a grid and gas model.
pub struct PnsSolver<'a> {
    grid: &'a StructuredGrid,
    metrics: Metrics,
    gas: &'a dyn GasModel,
    transport: Transport,
    opts: PnsOptions,
    freestream: (f64, f64, f64, f64),
    /// Conserved state for all cells (station columns filled as the march
    /// proceeds).
    pub u: Field3<f64>,
    /// Next station the march will relax (run-control cursor).
    next_station: usize,
    /// Wall data accumulated by the march so far.
    solution: PnsSolution,
    /// Run-control CFL scale (1.0 = nominal; halved on rollback).
    cfl_scale: f64,
    /// Run observability: per-station iteration history.
    pub telemetry: RunTelemetry,
}

impl<'a> PnsSolver<'a> {
    /// Create a marching solver; all columns start at the freestream
    /// `(ρ, u_x, u_r, p)` (the usual sharp-body starter).
    #[must_use]
    pub fn new(
        grid: &'a StructuredGrid,
        gas: &'a dyn GasModel,
        opts: PnsOptions,
        freestream: (f64, f64, f64, f64),
    ) -> Self {
        let (rho, ux, ur, p) = freestream;
        let e = gas.energy(rho, p);
        let mut u = Field3::zeros(grid.nci(), grid.ncj(), NEQ);
        for i in 0..grid.nci() {
            for j in 0..grid.ncj() {
                let c = u.vector_mut(i, j);
                c[0] = rho;
                c[1] = rho * ux;
                c[2] = rho * ur;
                c[3] = rho * (e + 0.5 * (ux * ux + ur * ur));
            }
        }
        let metrics = Metrics::new(grid);
        Self {
            grid,
            metrics,
            gas,
            transport: Transport::air(),
            opts,
            freestream,
            u,
            next_station: 1,
            solution: PnsSolution::default(),
            cfl_scale: 1.0,
            telemetry: RunTelemetry::new(),
        }
    }

    /// Replace the starter column at station `i` with primitive states (one
    /// per j cell) — e.g. extracted from a nose NS/VSL solution.
    ///
    /// # Panics
    /// Panics when the column length mismatches.
    pub fn set_station(&mut self, i: usize, column: &[Primitive]) {
        assert_eq!(column.len(), self.grid.ncj());
        for (j, q) in column.iter().enumerate() {
            let e = self.gas.energy(q.rho, q.p);
            let c = self.u.vector_mut(i, j);
            c[0] = q.rho;
            c[1] = q.rho * q.ux;
            c[2] = q.rho * q.ur;
            c[3] = q.rho * (e + 0.5 * (q.ux * q.ux + q.ur * q.ur));
        }
    }

    fn primitive_of(&self, c: &[f64]) -> Primitive {
        let rho = c[0].max(1e-12);
        let ux = c[1] / rho;
        let ur = c[2] / rho;
        let e_tot = c[3] / rho;
        let e = (e_tot - 0.5 * (ux * ux + ur * ur)).max(1e-6 * e_tot.abs().max(1e-300));
        let (p_raw, a_raw) = self.gas.pressure_sound_speed(rho, e);
        let p = p_raw.max(1e-8);
        let a = a_raw.max(1.0);
        Primitive {
            rho,
            ux,
            ur,
            p,
            a,
            h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
        }
    }

    /// Primitive state of a cell.
    #[must_use]
    pub fn primitive(&self, i: usize, j: usize) -> Primitive {
        self.primitive_of(self.u.vector(i, j))
    }

    fn temperature(&self, q: &Primitive) -> f64 {
        let e = self.gas.energy(q.rho, q.p);
        self.gas.temperature(q.rho, e)
    }

    /// Vigneron-weighted streamwise flux through an i-face with
    /// area-weighted normal `(sx, sr)`, fully upwinded on the given state.
    fn vigneron_flux(&self, q: &Primitive, sx: f64, sr: f64) -> [f64; NEQ] {
        let area = (sx * sx + sr * sr).sqrt().max(1e-300);
        let nx = sx / area;
        let nr = sr / area;
        let un = q.ux * nx + q.ur * nr;
        let m_xi = un / q.a;
        let gamma = self.gas.gamma_eff(q.rho, self.gas.energy(q.rho, q.p));
        let omega = if m_xi >= 1.0 {
            1.0
        } else {
            (self.opts.sigma * gamma * m_xi * m_xi / (1.0 + (gamma - 1.0) * m_xi * m_xi)).min(1.0)
        };
        let pv = omega * q.p;
        let mdot = q.rho * un;
        [
            mdot * area,
            (mdot * q.ux + pv * nx) * area,
            (mdot * q.ur + pv * nr) * area,
            (mdot * q.h0) * area,
        ]
    }

    /// Distance from the wall-face midpoint of column `i` to the wall-cell
    /// centre along the wall-face normal.
    fn wall_distance(&self, i: usize) -> f64 {
        let m = &self.metrics;
        let sx = m.sj_x[(i, 0)];
        let sr = m.sj_r[(i, 0)];
        let area = (sx * sx + sr * sr).sqrt().max(1e-300);
        let nx = sx / area;
        let nr = sr / area;
        let wx = 0.5 * (self.grid.x[(i, 0)] + self.grid.x[(i + 1, 0)]);
        let wr = 0.5 * (self.grid.r[(i, 0)] + self.grid.r[(i + 1, 0)]);
        ((m.xc[(i, 0)] - wx) * nx + (m.rc[(i, 0)] - wr) * nr)
            .abs()
            .max(1e-12)
    }

    /// Fill the cross-flow face fluxes of column `i` from its decoded cells:
    /// AUSM+ `fj[jf]` for every j-face (slip-wall ghost at `jf = 0`,
    /// freestream ghost at `jf = ncj`) and, for a viscous march, the
    /// thin-layer `gj[jf]` for every face below the outer boundary (which
    /// carries none). Each face is evaluated once.
    fn cross_flow_fluxes(
        &self,
        i: usize,
        col: &[Primitive],
        temp: &[f64],
        fs_ghost: &Primitive,
        fj: &mut [[f64; NEQ]],
        gj: &mut [[f64; NEQ]],
    ) {
        let m = &self.metrics;
        let ncj = col.len();
        for (jf, f) in fj.iter_mut().enumerate() {
            let sx = m.sj_x[(i, jf)];
            let sr = m.sj_r[(i, jf)];
            *f = if jf == 0 {
                let qc = col[0];
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let nx = -sx / area;
                let nr = -sr / area;
                let un = qc.ux * nx + qc.ur * nr;
                let ghost = Primitive {
                    ux: qc.ux - 2.0 * un * nx,
                    ur: qc.ur - 2.0 * un * nr,
                    ..qc
                };
                EulerSolver::ausm_flux(&ghost, &qc, sx, sr)
            } else if jf == ncj {
                EulerSolver::ausm_flux(&col[ncj - 1], fs_ghost, sx, sr)
            } else {
                EulerSolver::ausm_flux(&col[jf - 1], &col[jf], sx, sr)
            };
        }
        let Some(t_wall) = self.opts.t_wall else {
            return;
        };
        for (jf, g) in gj.iter_mut().enumerate() {
            let sx = m.sj_x[(i, jf)];
            let sr = m.sj_r[(i, jf)];
            *g = if jf == 0 {
                let wall = Primitive {
                    ux: 0.0,
                    ur: 0.0,
                    ..col[0]
                };
                let dn = self.wall_distance(i);
                let no_slip = Some((0.0, 0.0));
                self.transport
                    .thin_layer_flux(&wall, t_wall, &col[0], temp[0], dn, sx, sr, no_slip)
            } else {
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let nx = sx / area;
                let nr = sr / area;
                let dn = ((m.xc[(i, jf)] - m.xc[(i, jf - 1)]) * nx
                    + (m.rc[(i, jf)] - m.rc[(i, jf - 1)]) * nr)
                    .abs()
                    .max(1e-12);
                let (ql, qr) = (&col[jf - 1], &col[jf]);
                self.transport
                    .thin_layer_flux(ql, temp[jf - 1], qr, temp[jf], dn, sx, sr, None)
            };
        }
    }

    /// Relax station `i` to convergence; returns iterations used.
    ///
    /// The upstream i-face flux (Vigneron flux of the frozen column `i−1`)
    /// and the freestream ghost are built once per station; every
    /// iteration decodes the column and its temperatures once, evaluates
    /// each cross-flow face once, then gathers each cell's residual. The
    /// local pseudo-time update is Jacobi: all residuals first, then all
    /// updates. Signs: dU/dt·V = −∮F·n̂ + ∮G·n̂.
    fn relax_station(&mut self, i: usize) -> usize {
        let _sp = trace::span("pns_station");
        let ncj = self.grid.ncj();
        let viscous = self.opts.t_wall.is_some();
        let axisymmetric = self.grid.geometry == Geometry::Axisymmetric;
        let f_up: Vec<[f64; NEQ]> = (0..ncj)
            .map(|j| {
                let m = &self.metrics;
                self.vigneron_flux(&self.primitive(i - 1, j), m.si_x[(i, j)], m.si_r[(i, j)])
            })
            .collect();
        let fs_ghost = {
            let (rho, ux, ur, p) = self.freestream;
            let e = self.gas.energy(rho, p);
            Primitive {
                rho,
                ux,
                ur,
                p,
                a: self.gas.sound_speed(rho, e).max(1.0),
                h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
            }
        };
        let mut col = vec![fs_ghost; ncj];
        let mut temp = vec![0.0; ncj];
        let mut fj = vec![[0.0; NEQ]; ncj + 1];
        let mut gj = vec![[0.0; NEQ]; ncj];
        let mut updates = vec![([0.0; NEQ], 0.0); ncj];
        let mut ref_res = f64::NAN;
        for it in 0..self.opts.max_station_iters {
            for (j, q) in col.iter_mut().enumerate() {
                *q = self.primitive(i, j);
            }
            if viscous {
                for (t, q) in temp.iter_mut().zip(&col) {
                    *t = self.temperature(q);
                }
            }
            self.cross_flow_fluxes(i, &col, &temp, &fs_ghost, &mut fj, &mut gj);
            let m = &self.metrics;
            let mut resnorm = 0.0_f64;
            for (j, update) in updates.iter_mut().enumerate() {
                let q = &col[j];
                let f_down = self.vigneron_flux(q, m.si_x[(i + 1, j)], m.si_r[(i + 1, j)]);
                // Accumulated in the per-cell order every golden bit was
                // captured with: +upstream, −downstream, +bottom, −top
                // convective; −bottom, +top viscous.
                let mut res = [0.0; NEQ];
                for k in 0..NEQ {
                    res[k] += f_up[j][k];
                    res[k] -= f_down[k];
                    res[k] += fj[j][k];
                    res[k] -= fj[j + 1][k];
                    if viscous {
                        res[k] -= gj[j][k];
                        if j + 1 < ncj {
                            res[k] += gj[j + 1][k];
                        }
                    }
                }
                if axisymmetric {
                    res[2] += q.p * m.plane_area[(i, j)];
                }
                // Local pseudo-time step.
                let spectral = |sx: f64, sr: f64| -> f64 {
                    let area = (sx * sx + sr * sr).sqrt();
                    (q.ux * sx + q.ur * sr).abs() + q.a * area
                };
                let mut lam = spectral(m.si_x[(i, j)], m.si_r[(i, j)])
                    + spectral(m.si_x[(i + 1, j)], m.si_r[(i + 1, j)])
                    + spectral(m.sj_x[(i, j)], m.sj_r[(i, j)])
                    + spectral(m.sj_x[(i, j + 1)], m.sj_r[(i, j + 1)]);
                if viscous {
                    let mu = (self.transport.viscosity)(temp[j]);
                    let sj = {
                        let sx = m.sj_x[(i, j)];
                        let sr = m.sj_r[(i, j)];
                        (sx * sx + sr * sr).sqrt()
                    };
                    lam += 4.0 * mu / q.rho * sj * sj / m.volume[(i, j)];
                }
                let dt = self.cfl_scale * self.opts.cfl * m.volume[(i, j)] / lam.max(1e-300);
                resnorm += (res[0] / m.volume[(i, j)]).powi(2);
                *update = (res, dt);
            }
            for (j, (res, dt)) in updates.iter().enumerate() {
                let v = self.metrics.volume[(i, j)];
                let cell = self.u.vector_mut(i, j);
                for k in 0..NEQ {
                    cell[k] += dt / v * res[k];
                }
                if cell[0] < 1e-12 {
                    cell[0] = 1e-12;
                }
            }
            let resnorm = (resnorm / ncj as f64).sqrt();
            if it == 10 {
                ref_res = resnorm.max(1e-300);
            }
            if ref_res.is_finite() && resnorm / ref_res < self.opts.station_tol {
                return it + 1;
            }
        }
        self.opts.max_station_iters
    }

    /// March stations `i_start..nci`, columns before `i_start` taken as
    /// given (freestream or user starter). Returns per-station wall data.
    ///
    /// A station that merely exhausts its relaxation budget is tolerated
    /// (the iteration count is recorded in the solution and telemetry); the
    /// march only aborts on state contamination.
    ///
    /// # Errors
    /// [`SolverError::NonFinite`] with the first affected cell when NaN/Inf
    /// appears in a relaxed station column.
    pub fn march(&mut self, i_start: usize) -> Result<PnsSolution, SolverError> {
        let span = trace::span("pns_march");
        let nci = self.grid.nci();
        self.next_station = i_start.max(1);
        self.solution = PnsSolution::default();
        let mut failure: Option<SolverError> = None;
        while self.next_station < nci {
            if let Err(e) = self.advance_station() {
                failure = Some(e);
                break;
            }
        }
        drop(span);
        self.telemetry.record_history(
            "station_iterations",
            self.solution.iterations.iter().map(|&n| n as f64).collect(),
        );
        match failure {
            Some(e) => Err(e),
            None => Ok(self.solution.clone()),
        }
    }

    /// Relax the next station and append its wall data to the accumulated
    /// solution. Returns the relaxation iteration count for the station.
    ///
    /// # Errors
    /// [`SolverError::NonFinite`] on state contamination; audit failures as
    /// surfaced by [`crate::audit::apply`].
    pub fn advance_station(&mut self) -> Result<usize, SolverError> {
        let i = self.next_station;
        // Initialize from the upstream column (marching continuation).
        for j in 0..self.grid.ncj() {
            let up: Vec<f64> = self.u.vector(i - 1, j).to_vec();
            self.u.vector_mut(i, j).copy_from_slice(&up);
        }
        let iters = self.relax_station(i);
        const FIELD_NAMES: [&str; NEQ] = ["rho", "rho_ux", "rho_ur", "rho_E"];
        for j in 0..self.grid.ncj() {
            let cell = self.u.vector(i, j);
            for (k, name) in FIELD_NAMES.iter().enumerate() {
                if !cell[k].is_finite() {
                    return Err(SolverError::NonFinite { field: name, i, j });
                }
            }
        }
        if crate::audit::due(i) {
            let findings = crate::audit::station_positivity(&self.u, i, i);
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        let q0 = self.primitive(i, 0);
        self.solution.station_x.push(self.metrics.xc[(i, 0)]);
        self.solution.wall_pressure.push(q0.p);
        self.solution.wall_heat_flux.push(self.wall_heat_flux(i));
        self.solution.iterations.push(iters);
        self.next_station = i + 1;
        Ok(iters)
    }

    /// Wall data accumulated by the march so far.
    #[must_use]
    pub fn solution(&self) -> &PnsSolution {
        &self.solution
    }

    /// Snapshot the march state: the conserved field plus the accumulated
    /// wall rows (4 values per completed station), cursor in `step`.
    #[must_use]
    pub fn save_state(&self) -> crate::runctl::Snapshot {
        let mut data = self.u.as_slice().to_vec();
        for k in 0..self.solution.station_x.len() {
            data.push(self.solution.station_x[k]);
            data.push(self.solution.wall_pressure[k]);
            data.push(self.solution.wall_heat_flux[k]);
            data.push(self.solution.iterations[k] as f64);
        }
        crate::runctl::Snapshot {
            step: self.next_station,
            cfl_scale: self.cfl_scale,
            data,
        }
    }

    /// Restore a snapshot taken by [`PnsSolver::save_state`].
    ///
    /// # Errors
    /// [`SolverError::BadInput`] when the payload shape does not match this
    /// solver's field plus a whole number of wall rows.
    pub fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        let field_len = self.u.as_slice().len();
        if snap.data.len() < field_len || !(snap.data.len() - field_len).is_multiple_of(4) {
            return Err(SolverError::BadInput(format!(
                "pns restore: state length {} incompatible with field length {field_len}",
                snap.data.len()
            )));
        }
        self.u
            .as_mut_slice()
            .copy_from_slice(&snap.data[..field_len]);
        let rows = (snap.data.len() - field_len) / 4;
        self.solution = PnsSolution::default();
        for row in snap.data[field_len..].chunks_exact(4) {
            self.solution.station_x.push(row[0]);
            self.solution.wall_pressure.push(row[1]);
            self.solution.wall_heat_flux.push(row[2]);
            self.solution.iterations.push(row[3] as usize);
        }
        debug_assert_eq!(self.solution.station_x.len(), rows);
        self.next_station = snap.step;
        self.cfl_scale = snap.cfl_scale;
        Ok(())
    }

    /// Wall heat flux at station `i` \[W/m²\] (0 for inviscid marches).
    #[must_use]
    pub fn wall_heat_flux(&self, i: usize) -> f64 {
        let Some(t_wall) = self.opts.t_wall else {
            return 0.0;
        };
        let dn = self.wall_distance(i);
        let q = self.primitive(i, 0);
        let t1 = self.temperature(&q);
        let k = self.transport.conductivity(0.5 * (t1 + t_wall));
        k * (t1 - t_wall) / dn
    }

    /// Extract a starter column from an Euler/NS field at station `i` of a
    /// matching grid.
    #[must_use]
    pub fn column_from_euler(solver: &EulerSolver<'_>, i: usize) -> Vec<Primitive> {
        (0..solver.ncj()).map(|j| solver.primitive(i, j)).collect()
    }

    /// Default Euler-style options bridge (CFL reuse).
    #[must_use]
    pub fn options_from_euler(opts: &EulerOptions) -> PnsOptions {
        PnsOptions {
            cfl: opts.cfl,
            ..PnsOptions::default()
        }
    }
}

impl crate::runctl::Steppable for PnsSolver<'_> {
    fn advance(&mut self) -> Result<f64, SolverError> {
        if self.next_station >= self.grid.nci() {
            return Ok(0.0);
        }
        self.advance_station()?;
        // Stations either converge or exhaust a bounded budget; the
        // controller's progress unit is the station itself, so report a flat
        // residual and let the non-finite/audit checks drive rollback.
        Ok(1.0)
    }

    fn progress(&self) -> usize {
        self.next_station
    }

    fn save_state(&self) -> crate::runctl::Snapshot {
        self.save_state()
    }

    fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        self.restore_state(snap)
    }

    fn cfl_scale(&self) -> f64 {
        self.cfl_scale
    }

    fn set_cfl_scale(&mut self, scale: f64) {
        self.cfl_scale = scale;
    }

    fn meta(&self) -> crate::runctl::RunMeta {
        crate::runctl::RunMeta {
            tag: "pns".to_string(),
            gas: self.gas.describe(),
            shape: self.u.shape(),
        }
    }

    fn telemetry_mut(&mut self) -> &mut RunTelemetry {
        &mut self.telemetry
    }

    fn finalize(&mut self, _converged: bool) -> Result<(), SolverError> {
        if crate::audit::cadence() != 0 && self.next_station > 1 {
            let findings = crate::audit::station_positivity(&self.u, 1, self.next_station - 1);
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        self.telemetry.record_history(
            "station_iterations",
            self.solution.iterations.iter().map(|&n| n as f64).collect(),
        );
        Ok(())
    }

    fn poison(&mut self) {
        // Contaminate the upstream column the next station will copy from,
        // so the very next advance trips the non-finite scan.
        let i = self.next_station.saturating_sub(1);
        let j = self.grid.ncj() / 2;
        self.u.vector_mut(i, j)[0] = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_gas::IdealGas;
    use aerothermo_grid::bodies::SphereCone;
    use aerothermo_grid::stretch;

    fn cone_grid(half_angle_deg: f64, length: f64, ni: usize, nj: usize) -> StructuredGrid {
        let body = SphereCone {
            rn: 0.01,
            half_angle: half_angle_deg.to_radians(),
            length,
        };
        let dist = stretch::tanh_one_sided(nj, 2.5);
        StructuredGrid::blunt_body(&body, ni, nj, &|sb| 0.02 + 0.35 * sb * length, &dist)
    }

    /// March a small sphere-cone with a reduced station budget, so the
    /// golden test runs in milliseconds.
    fn golden_march(t_wall: Option<f64>) -> PnsSolution {
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 2000.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
        let grid = cone_grid(12.0, 0.5, 16, 18);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall,
                max_station_iters: 1000,
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
        );
        solver.march(4).expect("clean march")
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bits captured from the per-cell residual implementation; every later
    /// rewrite of the station relaxation must reproduce them exactly.
    #[test]
    fn golden_march_bits() {
        const P_INVISCID: [u64; 11] = [
            0x40c6adad40af8197,
            0x40c6da096ad9adc7,
            0x40c66eab6fff073c,
            0x40c5f90ba36c0da3,
            0x40c5ae76110a473b,
            0x40c5811c61461e75,
            0x40c55e38da58fdfa,
            0x40c53e2fa851b533,
            0x40c51fbc207b3e39,
            0x40c50365f2163f93,
            0x40c4e9c53318c3bd,
        ];
        const P_VISCOUS: [u64; 11] = [
            0x40c87e152d5e6c4c,
            0x40c7c2e76734e0b6,
            0x40c6e179eb62d929,
            0x40c65abcfa8a2f2c,
            0x40c615695339b14d,
            0x40c5e43f63e89951,
            0x40c5b7f0aaf7f9aa,
            0x40c58e39715fdcef,
            0x40c567e9797ef1b7,
            0x40c546a7b441d48d,
            0x40c52c9f95ff239d,
        ];
        const Q_VISCOUS: [u64; 11] = [
            0x410dbf929c0d27ae,
            0x41102588f40bc103,
            0x410ba33e99a067fb,
            0x410743ac2b1a1bbf,
            0x410440056b2af012,
            0x4102077c97427ae1,
            0x41004587f9ec92ab,
            0x40fda02fd951c11d,
            0x40fb20be31f9a3f4,
            0x40f8f0ef9d1df846,
            0x40f6fdf28fa05b26,
        ];
        // The inviscid march converges its downstream stations inside the
        // budget, so both relaxation exits are pinned.
        let it_inviscid = [1000, 1000, 1000, 953, 870, 807, 757, 714, 675, 637, 602];
        let cases = [
            (None, P_INVISCID, [0; 11], it_inviscid),
            (Some(300.0), P_VISCOUS, Q_VISCOUS, [1000; 11]),
        ];
        for (t_wall, p_want, q_want, it_want) in cases {
            let sol = golden_march(t_wall);
            assert_eq!(
                bits(&sol.wall_pressure),
                p_want,
                "wall_pressure, t_wall {t_wall:?}"
            );
            assert_eq!(
                bits(&sol.wall_heat_flux),
                q_want,
                "wall_heat_flux, t_wall {t_wall:?}"
            );
            assert_eq!(sol.iterations, it_want, "iterations, t_wall {t_wall:?}");
        }
    }

    #[test]
    fn cone_surface_pressure_near_taylor_maccoll() {
        // 15° sharp-ish cone at M∞ = 8: Taylor-Maccoll gives β = 17.93°,
        // p_c/p∞ = 7.55, surface Cp = 0.1461 (computed by integrating the
        // Taylor-Maccoll equation for these exact conditions).
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
        let v_inf = 8.0 * a_inf;
        let grid = cone_grid(15.0, 1.5, 90, 40);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall: None,
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
        );
        let sol = solver.march(6).expect("clean march");
        // Use the last quarter of stations (conical asymptote).
        let nst = sol.wall_pressure.len();
        let p_cone: f64 =
            sol.wall_pressure[3 * nst / 4..].iter().sum::<f64>() / (nst - 3 * nst / 4) as f64;
        let cp = (p_cone - p_inf) / (0.5 * rho_inf * v_inf * v_inf);
        assert!(
            (cp - 0.1461).abs() < 0.015,
            "cone Cp = {cp:.4} (Taylor-Maccoll = 0.1461)"
        );
    }

    #[test]
    fn march_is_cheap_per_station() {
        // The whole point of PNS: station cost bounded; iterations should
        // decay once the conical flow is established.
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
        let grid = cone_grid(15.0, 1.0, 50, 30);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall: None,
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
        );
        let sol = solver.march(6).expect("clean march");
        let tail_iters = *sol.iterations.last().unwrap();
        assert!(
            tail_iters < solver.opts.max_station_iters,
            "station failed to converge"
        );
    }

    #[test]
    fn viscous_cone_heating_decays_downstream() {
        // Laminar cone heating ~ s^{-1/2}: the PNS wall heat flux must decay
        // monotonically (after the start-up stations) along the cone.
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 2000.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
        let grid = cone_grid(10.0, 1.2, 70, 44);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall: Some(300.0),
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
        );
        let sol = solver.march(8).expect("clean march");
        let n = sol.wall_heat_flux.len();
        let q_quarter = sol.wall_heat_flux[n / 4];
        let q_end = sol.wall_heat_flux[n - 1];
        assert!(q_quarter > 0.0 && q_end > 0.0, "heating must be positive");
        assert!(
            q_end < q_quarter,
            "heating should decay: {q_quarter:.3e} -> {q_end:.3e}"
        );
        // x^-1/2 scaling between the two probes, loosely.
        let x_q = sol.station_x[n / 4];
        let x_e = sol.station_x[n - 1];
        let expected = (x_q / x_e).sqrt(); // q ∝ x^{-1/2}
        let actual = q_end / q_quarter;
        assert!(
            (actual / expected - 1.0).abs() < 0.3,
            "decay exponent off: actual ratio {actual:.3}, x^-1/2 gives {expected:.3}"
        );
    }
}
