//! Tabulated equilibrium equation of state.
//!
//! The era's real-gas NS/PNS codes coupled equilibrium air through curve
//! fits of `p(ρ, e)` and `T(ρ, e)` (Tannehill et al.); here the same role is
//! played by a bilinear table in `(ln ρ, ln e)` generated from our own
//! element-potential equilibrium solver — self-consistent with the rest of
//! the thermochemistry by construction.
//!
//! The equilibrium sound speed is precomputed at the nodes from the
//! thermodynamic identity `a² = (∂p/∂ρ)|_e + (p/ρ²)(∂p/∂e)|_ρ` using finite
//! differences of the `ln p` table, and the full equilibrium composition is
//! tabulated per species so that post-processing (the paper's Fig. 9 N₂
//! contours) is a table lookup.

use crate::equilibrium::EquilibriumGas;
use crate::model::GasModel;
use aerothermo_numerics::interp::BilinearTable;
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_numerics::trace;
use rayon::prelude::*;

/// Resolution and range options for [`EqTable::build`].
#[derive(Debug, Clone)]
pub struct EqTableOptions {
    /// Number of density nodes.
    pub n_rho: usize,
    /// Number of energy nodes.
    pub n_e: usize,
    /// Density range \[kg/m³\].
    pub rho_range: (f64, f64),
    /// Specific-internal-energy range \[J/kg\] (formation-energy reference of
    /// [`crate::thermo::Mixture::e_total`]).
    pub e_range: (f64, f64),
    /// Temperature sweep used to parameterize each density row \[K\].
    pub t_range: (f64, f64),
    /// Points in the temperature sweep.
    pub n_t: usize,
}

impl Default for EqTableOptions {
    fn default() -> Self {
        Self {
            n_rho: 56,
            n_e: 104,
            rho_range: (1e-7, 20.0),
            e_range: (1.0e5, 2.5e8),
            t_range: (100.0, 55_000.0),
            n_t: 200,
        }
    }
}

/// Direct inverse of the `ln p(ln ρ, ln e)` table: given `(ln ρ, ln p)`,
/// recover `ln e` by bisecting the density-blended pressure row — an
/// *exact* inversion of the bilinear forward lookup (the forward is
/// piecewise linear in `ln e` at fixed `ln ρ` once the two bracketing
/// density rows are blended), so it agrees with the bracketed root find it
/// replaces without the per-call Brent iteration that dominated the MUSCL
/// reconstruction cost of equilibrium-gas Euler steps.
#[derive(Debug, Clone)]
struct InvEnergyTable {
    /// Density axis (`ln ρ`), ascending.
    ln_rho: Vec<f64>,
    /// Energy axis (`ln e`), ascending.
    ln_e: Vec<f64>,
    /// `ln p` values, row-major `[i_rho * ne + j_e]` (a copy of the
    /// forward table's payload, kept so the inversion can blend rows
    /// without re-deriving bilinear weights per probe).
    lnp: Vec<f64>,
}

impl InvEnergyTable {
    /// `ln e` such that the bilinear forward table gives `lnp` at
    /// `(ln_rho, ln e)`, clamped to the energy axis when `lnp` falls
    /// outside the blended row's span.
    fn eval(&self, ln_rho: f64, lnp: f64) -> f64 {
        let nr = self.ln_rho.len();
        let ne = self.ln_e.len();
        // Bracket the density axis exactly like the forward lookup.
        let i = self
            .ln_rho
            .partition_point(|&x| x <= ln_rho)
            .clamp(1, nr - 1)
            - 1;
        let f = ((ln_rho - self.ln_rho[i]) / (self.ln_rho[i + 1] - self.ln_rho[i])).clamp(0.0, 1.0);
        let lo_row = &self.lnp[i * ne..(i + 1) * ne];
        let hi_row = &self.lnp[(i + 1) * ne..(i + 2) * ne];
        let blended = |j: usize| lo_row[j] + f * (hi_row[j] - lo_row[j]);
        // The blended row is nondecreasing in energy (each source row is,
        // up to clamp-flattened ends); clamp outside its span.
        if lnp <= blended(0) {
            return self.ln_e[0];
        }
        if lnp >= blended(ne - 1) {
            return self.ln_e[ne - 1];
        }
        // Bisect for the segment with blended(lo) <= lnp < blended(hi).
        let (mut lo, mut hi) = (0usize, ne - 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if blended(mid) <= lnp {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p0 = blended(lo);
        let p1 = blended(hi);
        // Flat (clamped) segments invert to their low-energy end.
        let t = if p1 > p0 { (lnp - p0) / (p1 - p0) } else { 0.0 };
        self.ln_e[lo] + t * (self.ln_e[hi] - self.ln_e[lo])
    }
}

/// Tabulated equilibrium EOS implementing [`GasModel`].
#[derive(Debug, Clone)]
pub struct EqTable {
    lnp: BilinearTable,
    temp: BilinearTable,
    a2: BilinearTable,
    /// Inverse lookup `ln e(ln ρ, ln p)` backing [`GasModel::energy`].
    lne_inv: InvEnergyTable,
    /// One mass-fraction table per species (mixture order).
    y: Vec<BilinearTable>,
    species_names: Vec<String>,
    e_range: (f64, f64),
    rho_range: (f64, f64),
}

impl EqTable {
    /// Build the table from an equilibrium-gas model.
    ///
    /// Rows (fixed density) are generated in parallel; each row sweeps the
    /// temperature range, then reinterpolates the sweep onto the common
    /// energy axis.
    ///
    /// # Errors
    /// Propagates equilibrium-solver failures with the offending `(T, ρ)`.
    pub fn build(gas: &EquilibriumGas, opts: &EqTableOptions) -> Result<Self, SolverError> {
        if opts.n_rho < 2 || opts.n_e < 2 || opts.n_t < 2 {
            return Err(SolverError::BadInput(format!(
                "eq_table: need at least 2 nodes per axis (n_rho={}, n_e={}, n_t={})",
                opts.n_rho, opts.n_e, opts.n_t
            )));
        }
        let ns = gas.mixture().len();
        let nr = opts.n_rho;
        let ne = opts.n_e;
        let ln_rho: Vec<f64> = (0..nr)
            .map(|i| {
                let t = i as f64 / (nr - 1) as f64;
                opts.rho_range.0.ln() + t * (opts.rho_range.1.ln() - opts.rho_range.0.ln())
            })
            .collect();
        let ln_e: Vec<f64> = (0..ne)
            .map(|j| {
                let t = j as f64 / (ne - 1) as f64;
                opts.e_range.0.ln() + t * (opts.e_range.1.ln() - opts.e_range.0.ln())
            })
            .collect();
        let ln_t_sweep: Vec<f64> = (0..opts.n_t)
            .map(|k| {
                let t = k as f64 / (opts.n_t - 1) as f64;
                opts.t_range.0.ln() + t * (opts.t_range.1.ln() - opts.t_range.0.ln())
            })
            .collect();

        // Per-row result: (lnp, T, y[ns]) on the common energy axis.
        type Row = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>);
        let rows: Result<Vec<Row>, String> = trace::spanned("eq_table_rows", || {
            ln_rho
                .par_iter()
                .map(|&lr| {
                    let rho = lr.exp();
                    // Sweep temperature via the micro-batched solver (4-lane
                    // chunks share scratch and warm-cache seeds; lanes stay
                    // sequential so results match per-state solves bitwise),
                    // then collect (ln e, ln p, T, y).
                    let sweep: Vec<(f64, f64)> =
                        ln_t_sweep.iter().map(|&lt| (lt.exp(), rho)).collect();
                    let mut se = Vec::with_capacity(opts.n_t);
                    let mut sp = Vec::with_capacity(opts.n_t);
                    let mut st = Vec::with_capacity(opts.n_t);
                    let mut sy = vec![Vec::with_capacity(opts.n_t); ns];
                    for (&(t, _), result) in sweep.iter().zip(gas.at_trho_batch(&sweep)) {
                        let state = result
                            .map_err(|e| format!("table row rho={rho:.3e}, T={t:.1}: {e}"))?;
                        // Guard: energy must increase along the sweep for the
                        // reinterpolation to be well-posed.
                        if let Some(&last) = se.last() {
                            if state.energy.ln() <= last {
                                continue;
                            }
                        }
                        se.push(state.energy.ln());
                        sp.push(state.pressure.ln());
                        st.push(state.temperature);
                        for (s, ys) in sy.iter_mut().enumerate() {
                            ys.push(state.mass_fractions[s]);
                        }
                    }
                    // Reinterpolate onto the common ln_e axis (linear in ln e,
                    // clamped at the sweep ends). A sweep that collapsed to
                    // fewer than two monotone points (pathological range
                    // options) would make the lookup panic; surface it as a
                    // table-build error instead.
                    if aerothermo_numerics::interp::try_bracket(&se, ln_e[0]).is_none() {
                        return Err(format!(
                            "table row rho={rho:.3e}: degenerate energy sweep \
                             ({} monotone points; widen t_range)",
                            se.len()
                        ));
                    }
                    let mut row_lnp = Vec::with_capacity(ne);
                    let mut row_t = Vec::with_capacity(ne);
                    let mut row_y = vec![Vec::with_capacity(ne); ns];
                    for &le in &ln_e {
                        row_lnp.push(aerothermo_numerics::interp::lerp(&se, &sp, le));
                        row_t.push(aerothermo_numerics::interp::lerp(&se, &st, le));
                        for (s, ys) in sy.iter().enumerate() {
                            row_y[s].push(aerothermo_numerics::interp::lerp(&se, ys, le));
                        }
                    }
                    Ok((row_lnp, row_t, row_y))
                })
                .collect()
        });
        let rows = rows?;

        // Assemble row-major tables.
        let mut lnp_v = vec![0.0; nr * ne];
        let mut t_v = vec![0.0; nr * ne];
        let mut y_v = vec![vec![0.0; nr * ne]; ns];
        for (i, (rp, rt, ry)) in rows.iter().enumerate() {
            for j in 0..ne {
                lnp_v[i * ne + j] = rp[j];
                t_v[i * ne + j] = rt[j];
                for s in 0..ns {
                    y_v[s][i * ne + j] = ry[s][j];
                }
            }
        }

        // Equilibrium sound speed at the nodes from the lnp table.
        let mut a2_v = vec![0.0; nr * ne];
        let d = |v: &[f64], i: usize, n: usize, h: f64, idx: &dyn Fn(usize) -> usize| -> f64 {
            // central/one-sided difference along an axis of length n.
            if i == 0 {
                (v[idx(1)] - v[idx(0)]) / h
            } else if i == n - 1 {
                (v[idx(n - 1)] - v[idx(n - 2)]) / h
            } else {
                (v[idx(i + 1)] - v[idx(i - 1)]) / (2.0 * h)
            }
        };
        let h_r = ln_rho[1] - ln_rho[0];
        let h_e = ln_e[1] - ln_e[0];
        for i in 0..nr {
            for j in 0..ne {
                let p = lnp_v[i * ne + j].exp();
                let rho = ln_rho[i].exp();
                let e = ln_e[j].exp();
                let dlnp_dlnrho = d(&lnp_v, i, nr, h_r, &|k| k * ne + j);
                let dlnp_dlne = d(&lnp_v, j, ne, h_e, &|k| i * ne + k);
                // a² = (∂p/∂ρ)|e + (p/ρ²)(∂p/∂e)|ρ
                //    = (p/ρ)·dlnp/dlnρ + (p/ρ²)·(p/e)·dlnp/dlne
                let a2 = p / rho * dlnp_dlnrho + (p / (rho * rho)) * (p / e) * dlnp_dlne;
                a2_v[i * ne + j] = a2.max(1e3);
            }
        }

        // Inverse energy lookup: keep a copy of the ln p payload and axes so
        // `energy(ρ, p)` can bisect the density-blended pressure row — an
        // exact inversion of the forward bilinear, with no per-call Brent.
        let lne_inv = InvEnergyTable {
            ln_rho: ln_rho.clone(),
            ln_e: ln_e.clone(),
            lnp: lnp_v.clone(),
        };

        let species_names = gas
            .mixture()
            .species()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        Ok(Self {
            lnp: BilinearTable::new(ln_rho.clone(), ln_e.clone(), lnp_v),
            temp: BilinearTable::new(ln_rho.clone(), ln_e.clone(), t_v),
            a2: BilinearTable::new(ln_rho.clone(), ln_e.clone(), a2_v),
            lne_inv,
            y: y_v
                .into_iter()
                .map(|v| BilinearTable::new(ln_rho.clone(), ln_e.clone(), v))
                .collect(),
            species_names,
            e_range: opts.e_range,
            rho_range: opts.rho_range,
        })
    }

    /// Species names, table order.
    #[must_use]
    pub fn species_names(&self) -> &[String] {
        self.species_names.iter().as_slice()
    }

    /// Equilibrium mass fractions at `(ρ, e)`.
    #[must_use]
    pub fn mass_fractions(&self, rho: f64, e: f64) -> Vec<f64> {
        let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
        let le = e.clamp(self.e_range.0, self.e_range.1).ln();
        let mut y: Vec<f64> = self.y.iter().map(|t| t.eval(lr, le).max(0.0)).collect();
        let s: f64 = y.iter().sum();
        if s > 0.0 {
            for v in &mut y {
                *v /= s;
            }
        }
        y
    }

    /// Mass fraction of one species by name (0 if unknown).
    #[must_use]
    pub fn mass_fraction_of(&self, name: &str, rho: f64, e: f64) -> f64 {
        match self.species_names.iter().position(|n| n == name) {
            Some(i) => {
                let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
                let le = e.clamp(self.e_range.0, self.e_range.1).ln();
                self.y[i].eval(lr, le).max(0.0)
            }
            None => 0.0,
        }
    }

    /// Mole fractions at `(ρ, e)` (renormalized from the mass-fraction
    /// tables with the tabulated molar masses).
    #[must_use]
    pub fn mole_fractions(&self, rho: f64, e: f64, molar_masses: &[f64]) -> Vec<f64> {
        let y = self.mass_fractions(rho, e);
        let inv: f64 = y.iter().zip(molar_masses).map(|(yi, m)| yi / m).sum();
        y.iter()
            .zip(molar_masses)
            .map(|(yi, m)| (yi / m) / inv)
            .collect()
    }
}

impl GasModel for EqTable {
    fn describe(&self) -> String {
        format!("eq-table({} species)", self.species_names.len())
    }

    fn pressure(&self, rho: f64, e: f64) -> f64 {
        let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
        let le = e.clamp(self.e_range.0, self.e_range.1).ln();
        self.lnp.eval(lr, le).exp()
    }

    fn temperature(&self, rho: f64, e: f64) -> f64 {
        let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
        let le = e.clamp(self.e_range.0, self.e_range.1).ln();
        self.temp.eval(lr, le)
    }

    fn sound_speed(&self, rho: f64, e: f64) -> f64 {
        let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
        let le = e.clamp(self.e_range.0, self.e_range.1).ln();
        self.a2.eval(lr, le).max(0.0).sqrt()
    }

    fn energy(&self, rho: f64, p: f64) -> f64 {
        // Direct lookup in the prebuilt ln e(ln ρ, ln p) inverse table;
        // clamped to the table range like the root-find fallback was.
        let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
        let lp = p.max(1e-300).ln();
        self.lne_inv
            .eval(lr, lp)
            .exp()
            .clamp(self.e_range.0, self.e_range.1)
    }

    fn pressure_sound_speed(&self, rho: f64, e: f64) -> (f64, f64) {
        // One clamp/ln per axis for both lookups; each expression matches
        // the standalone method bit-for-bit.
        let lr = rho.clamp(self.rho_range.0, self.rho_range.1).ln();
        let le = e.clamp(self.e_range.0, self.e_range.1).ln();
        (
            self.lnp.eval(lr, le).exp(),
            self.a2.eval(lr, le).max(0.0).sqrt(),
        )
    }
}

/// Process-wide cached 9-species equilibrium-air table at default
/// resolution. The first call builds it (parallel, a few seconds); later
/// calls are free.
pub fn air9_table() -> &'static EqTable {
    use std::sync::OnceLock;
    static TABLE: OnceLock<EqTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let gas = crate::equilibrium::air9_equilibrium();
        EqTable::build(&gas, &EqTableOptions::default())
            .expect("equilibrium air table build failed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::air9_equilibrium;

    fn small_table() -> (EquilibriumGas, EqTable) {
        let gas = air9_equilibrium();
        let opts = EqTableOptions {
            n_rho: 16,
            n_e: 24,
            n_t: 48,
            ..EqTableOptions::default()
        };
        let table = EqTable::build(&gas, &opts).unwrap();
        (gas, table)
    }

    #[test]
    fn table_matches_direct_solver() {
        let (gas, table) = small_table();
        for (t, rho) in [(300.0, 1.0), (3000.0, 0.01), (9000.0, 1e-4)] {
            let st = gas.at_trho(t, rho).unwrap();
            let p_tab = table.pressure(rho, st.energy);
            let t_tab = table.temperature(rho, st.energy);
            assert!(
                (p_tab - st.pressure).abs() / st.pressure < 0.08,
                "p at T={t}, rho={rho}: {p_tab} vs {}",
                st.pressure
            );
            assert!(
                (t_tab - t).abs() / t < 0.08,
                "T at T={t}, rho={rho}: {t_tab}"
            );
        }
    }

    #[test]
    fn cold_sound_speed_is_ideal() {
        let (gas, table) = small_table();
        let st = gas.at_trho(300.0, 1.0).unwrap();
        let a = table.sound_speed(1.0, st.energy);
        let ideal = (1.4 * 287.0 * 300.0_f64).sqrt();
        assert!((a - ideal).abs() / ideal < 0.08, "a = {a} vs {ideal}");
    }

    #[test]
    fn composition_lookup_cold_vs_hot() {
        let (gas, table) = small_table();
        let cold = gas.at_trho(300.0, 1.0).unwrap();
        let y_n2_cold = table.mass_fraction_of("N2", 1.0, cold.energy);
        assert!(y_n2_cold > 0.7, "cold N2: {y_n2_cold}");

        let hot = gas.at_trho(10_000.0, 1e-3).unwrap();
        let y_n2_hot = table.mass_fraction_of("N2", 1e-3, hot.energy);
        let y_n_hot = table.mass_fraction_of("N", 1e-3, hot.energy);
        assert!(y_n2_hot < 0.3, "hot N2: {y_n2_hot}");
        assert!(y_n_hot > 0.3, "hot N: {y_n_hot}");
    }

    #[test]
    fn energy_inversion_roundtrip() {
        let (_, table) = small_table();
        let rho = 0.05;
        let e = 2e6;
        let p = table.pressure(rho, e);
        let e2 = table.energy(rho, p);
        assert!((e2 - e).abs() / e < 0.02, "e = {e} -> {e2}");
    }

    #[test]
    fn energy_lookup_matches_root_solve() {
        // The prebuilt inverse table must agree with a bracketed root find
        // on the forward pressure table (the pre-lookup implementation).
        let (_, table) = small_table();
        for (rho, e_true) in [
            (1.0, 3e5),
            (0.05, 2e6),
            (1e-3, 1.2e7),
            (1e-5, 6e7),
            (5.0, 8e5),
        ] {
            let p = table.pressure(rho, e_true);
            let e_root = aerothermo_numerics::roots::brent_expanding(
                |e| table.pressure(rho, e) - p,
                1e6,
                8e5,
                1.0e5,
                2.5e8,
                1e-3,
                80,
            )
            .unwrap();
            let e_tab = table.energy(rho, p);
            // The bisection inverts the same bilinear surface the root find
            // probes, so agreement is limited only by the Brent tolerance.
            assert!(
                (e_tab - e_root).abs() / e_root < 1e-3,
                "rho={rho} e={e_true}: lookup {e_tab} vs root {e_root}"
            );
        }
    }

    #[test]
    fn pressure_sound_speed_pair_is_bitwise() {
        let (_, table) = small_table();
        for (rho, e) in [(1.0, 3e5), (0.01, 5e6), (1e-4, 4e7), (30.0, 5e4)] {
            let (p, a) = table.pressure_sound_speed(rho, e);
            assert_eq!(p.to_bits(), table.pressure(rho, e).to_bits());
            assert_eq!(a.to_bits(), table.sound_speed(rho, e).to_bits());
        }
    }

    #[test]
    fn mass_fractions_normalized() {
        let (_, table) = small_table();
        let y = table.mass_fractions(0.01, 5e6);
        let s: f64 = y.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(y.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn build_is_bitwise_independent_of_thread_count() {
        let gas = air9_equilibrium();
        let opts = EqTableOptions {
            n_rho: 16,
            n_e: 24,
            n_t: 48,
            ..EqTableOptions::default()
        };
        // Every mass fraction, pressure and temperature on a 40×40 grid
        // spanning the table, as raw bits.
        let lookups = |threads: usize| -> Vec<u64> {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let table = pool.install(|| EqTable::build(&gas, &opts)).unwrap();
            let axis = |(lo, hi): (f64, f64), k: usize| lo * (hi / lo).powf(k as f64 / 39.0);
            let mut bits = Vec::new();
            for i in 0..40 {
                for j in 0..40 {
                    let (rho, e) = (axis(opts.rho_range, i), axis(opts.e_range, j));
                    bits.extend(table.mass_fractions(rho, e).iter().map(|y| y.to_bits()));
                    bits.push(table.pressure(rho, e).to_bits());
                    bits.push(table.temperature(rho, e).to_bits());
                }
            }
            bits
        };
        let serial = lookups(1);
        for threads in [2, 4] {
            assert!(
                lookups(threads) == serial,
                "{threads}-thread build differs from serial"
            );
        }
    }

    #[test]
    fn pressure_monotone_in_energy() {
        let (_, table) = small_table();
        let rho = 0.1;
        let mut prev = 0.0;
        for k in 0..30 {
            let e = 2e5 * (1.25_f64).powi(k);
            let p = table.pressure(rho, e);
            assert!(p > prev, "p not monotone at e={e}");
            prev = p;
        }
    }
}
