//! Compensated (Kahan–Babuška) summation.

/// A compensated accumulator for `f64`.
///
/// Naive summation of many values loses precision as the running sum
/// grows; `KahanSum` keeps the error of the running sum below a few ULPs
/// regardless of length. The fairness metrics use it; the solver does not
/// (it sums plainly through [`sum`](crate::sum)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// A fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value (Neumaier's variant: robust when `value` exceeds the
    /// running sum in magnitude).
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = KahanSum::new();
        for v in iter {
            acc.add(v);
        }
        acc
    }
}

impl Extend<f64> for KahanSum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_on_benign_input() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let k: KahanSum = xs.iter().copied().collect();
        assert_eq!(k.total(), 10.0);
    }

    #[test]
    fn beats_naive_on_cancellation() {
        // 1 + 1e100 - 1e100 == 1 exactly with Neumaier; naive gives 0.
        let mut k = KahanSum::new();
        k.add(1.0);
        k.add(1e100);
        k.add(-1e100);
        assert_eq!(k.total(), 1.0);
        let naive = 1.0 + 1e100 + (-1e100);
        assert_eq!(naive, 0.0);
    }

    #[test]
    fn many_small_terms_stay_accurate() {
        let n = 1_000_000;
        let mut k = KahanSum::new();
        for _ in 0..n {
            k.add(0.1);
        }
        assert!((k.total() - n as f64 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn extend_and_default() {
        let mut k = KahanSum::default();
        k.extend([0.5, 0.25, 0.25]);
        assert_eq!(k.total(), 1.0);
    }
}
