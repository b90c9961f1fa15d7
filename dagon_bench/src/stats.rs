//! Order statistics over host-time samples.

/// A sample's median and quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// A single exact value (a count, or a derived quantity).
    pub fn exact(v: f64) -> Self {
        Self {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// Median and quartiles of `xs`, which must not be empty. Quartiles
    /// use the same exclusive method as Python's
    /// `statistics.quantiles(xs, n=4)`, so the numbers printed here match
    /// the ones a script computes from the same samples.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "no samples");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Self { median, q1, q3, n }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of three quartile cut points of sorted `v` (`len >= 2`).
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `xs` (which must not be empty).
pub fn median(xs: &[f64]) -> f64 {
    Stat::of(xs).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stat::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stat::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
