//! Order statistics for the samples of one process, and the name rule of
//! the benchmark contract.

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that is exact (a count, or a simulated-clock result that
    /// repeats bit for bit): no spread.
    pub fn exact(v: f64) -> Summary {
        Summary { median: v, q1: v, q3: v, n: 1 }
    }

    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary { median: median(&sorted), q1, q3, n: sorted.len() }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The same summary of `f(sample)` for a monotone increasing `f`.
    pub fn mapped(&self, f: impl Fn(f64) -> f64) -> Summary {
        Summary { median: f(self.median), q1: f(self.q1), q3: f(self.q3), n: self.n }
    }

    /// The same summary of `f(sample)` for a monotone decreasing `f`
    /// such as `work / seconds`: quartiles swap.
    pub fn inverted(&self, f: impl Fn(f64) -> f64) -> Summary {
        Summary { median: f(self.median), q1: f(self.q3), q3: f(self.q1), n: self.n }
    }
}

/// Median of an ascending slice (0 if empty).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending slice, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so spreads printed here match the ones the driver derives.
/// With fewer than two samples both are the median.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len();
    if m < 2 {
        let v = median(sorted);
        return (v, v);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The contract's rule for metric and workload names.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 10.0]), (1.5, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_and_inversion() {
        let s = Summary { median: 2.0, q1: 1.0, q3: 4.0, n: 5 };
        assert_eq!(s.spread(), 1.5);
        let r = s.inverted(|x| 8.0 / x);
        assert_eq!((r.q1, r.median, r.q3), (2.0, 4.0, 8.0));
        let m = s.mapped(|x| x - 1.0);
        assert_eq!((m.q1, m.median, m.q3, m.n), (0.0, 1.0, 3.0, 5));
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn name_rule() {
        for good in ["setup_s", "core.daemon.hop_ns_4k", "a", "9lives", "x-y"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "per/s", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
