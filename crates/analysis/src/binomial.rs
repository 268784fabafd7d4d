//! Log-space combinatorics helpers used by the infection Markov chains.
//!
//! The transition probabilities of Equations 9 and 16 involve binomial
//! coefficients of the form `C(n·p_d − j, k − j)` together with powers of
//! probabilities close to 0 or 1; computing them in log space keeps the
//! recursion numerically stable for groups of thousands of processes.

/// Memoised table of `ln(k!)` values.
///
/// The table grows on demand; lookups are `O(1)` after the first computation
/// of a given size.
#[derive(Debug, Clone, Default)]
pub struct LnFactorial {
    table: Vec<f64>,
}

impl LnFactorial {
    /// Creates an empty table (only `ln 0! = 0` precomputed).
    pub fn new() -> Self {
        Self { table: vec![0.0] }
    }

    /// Returns `ln(k!)`, extending the memo table if needed.
    pub fn ln_factorial(&mut self, k: usize) -> f64 {
        while self.table.len() <= k {
            let next = self.table.len();
            let last = *self.table.last().expect("table starts non-empty");
            self.table.push(last + (next as f64).ln());
        }
        self.table[k]
    }

    /// Returns `ln C(n, k)`; zero-probability cases (`k > n`) return
    /// negative infinity.
    pub fn ln_choose(&mut self, n: usize, k: usize) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        self.ln_factorial(n) - self.ln_factorial(k) - self.ln_factorial(n - k)
    }
}

/// Computes `ln(x^k)` treating `0^0 = 1` (so the result is 0) and clamping
/// `x` away from negative values caused by floating point noise.
pub fn ln_pow(x: f64, k: f64) -> f64 {
    if k == 0.0 {
        return 0.0;
    }
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    k * x.ln()
}

/// Numerically stable binomial probability mass function
/// `C(n, k) p^k (1-p)^(n-k)`.
pub fn binomial_pmf(lnf: &mut LnFactorial, n: usize, k: usize, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = lnf.ln_choose(n, k) + ln_pow(p, k as f64) + ln_pow(1.0 - p, (n - k) as f64);
    ln.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorials_match_direct_computation() {
        let mut lnf = LnFactorial::new();
        assert_eq!(lnf.ln_factorial(0), 0.0);
        assert!((lnf.ln_factorial(1) - 0.0).abs() < 1e-12);
        assert!((lnf.ln_factorial(5) - (120.0f64).ln()).abs() < 1e-9);
        assert!((lnf.ln_factorial(10) - (3_628_800.0f64).ln()).abs() < 1e-9);
        // Repeat lookups hit the memo table.
        assert_eq!(lnf.ln_factorial(5), lnf.ln_factorial(5));
    }

    #[test]
    fn choose_matches_pascals_triangle() {
        let mut lnf = LnFactorial::new();
        assert!((lnf.ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((lnf.ln_choose(10, 5).exp() - 252.0).abs() < 1e-6);
        assert!((lnf.ln_choose(0, 0).exp() - 1.0).abs() < 1e-12);
        assert_eq!(lnf.ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn choose_is_symmetric() {
        let mut lnf = LnFactorial::new();
        for n in 0..30usize {
            for k in 0..=n {
                let a = lnf.ln_choose(n, k);
                let b = lnf.ln_choose(n, n - k);
                assert!((a - b).abs() < 1e-9, "C({n},{k}) symmetry");
            }
        }
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let mut lnf = LnFactorial::new();
        for &(n, p) in &[(10usize, 0.3f64), (50, 0.01), (200, 0.7), (500, 0.999)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(&mut lnf, n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} sums to {total}");
        }
    }

    #[test]
    fn binomial_pmf_degenerate_probabilities() {
        let mut lnf = LnFactorial::new();
        assert_eq!(binomial_pmf(&mut lnf, 10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(&mut lnf, 10, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(&mut lnf, 10, 10, 1.0), 1.0);
        assert_eq!(binomial_pmf(&mut lnf, 10, 9, 1.0), 0.0);
        assert_eq!(binomial_pmf(&mut lnf, 5, 7, 0.5), 0.0);
        // Out-of-range probabilities are clamped rather than propagating NaN.
        assert_eq!(binomial_pmf(&mut lnf, 5, 5, 1.5), 1.0);
    }

    #[test]
    fn ln_pow_handles_corner_cases() {
        assert_eq!(ln_pow(0.0, 0.0), 0.0);
        assert_eq!(ln_pow(0.0, 3.0), f64::NEG_INFINITY);
        assert_eq!(ln_pow(-1.0, 2.0), f64::NEG_INFINITY);
        assert!((ln_pow(2.0, 3.0) - (8.0f64).ln()).abs() < 1e-12);
    }
}
