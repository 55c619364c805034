//! Sample sets and order statistics.
//!
//! A failed operation enters a sample set as `+inf`, so it counts as a
//! miss in every percentile instead of being dropped.

/// Percentiles tried for the tail, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples beyond a reported tail percentile (choosing-metrics rule).
const TAIL_MIN_BEYOND: usize = 10;

/// One timing series.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Record a failed operation: a miss in every percentile.
    pub fn miss(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Nearest-rank percentile `p` in (0, 100].
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(label, value)`. With too few samples for any percentile the
    /// maximum is reported and labelled `max`.
    pub fn tail(&self) -> (String, f64) {
        let n = self.values.len();
        for p in TAIL_PERCENTILES {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            if n >= rank + TAIL_MIN_BEYOND {
                return (format!("p{p}"), self.percentile(p));
            }
        }
        (
            "max".into(),
            self.sorted().last().copied().unwrap_or(f64::NAN),
        )
    }
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Median wall time per call of `f` \[s\] over `reps` calls.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for k in 1..=100 {
            s.push(f64::from(k));
        }
        assert_eq!(s.tail(), ("p90".into(), 90.0));
        for k in 101..=1100 {
            s.push(f64::from(k));
        }
        assert_eq!(s.tail().0, "p99");
        let mut few = Samples::default();
        few.push(3.0);
        few.push(1.0);
        assert_eq!(few.tail(), ("max".into(), 3.0));
    }

    #[test]
    fn misses_count_against_percentiles() {
        let mut s = Samples::default();
        s.push(1.0);
        s.miss();
        s.miss();
        assert!(s.median().is_infinite());
        assert_eq!(s.percentile(30.0), 1.0);
    }
}
