//! Pittel's asymptote for rumour spreading (Equation 3) and its
//! loss/crash-adjusted form (Equation 11).
//!
//! According to Pittel \[10\], the number of rounds needed to infect an
//! entire group of (large) size `n`, where every infected process gossips to
//! `F` others per round, is
//!
//! ```text
//! T(n, F) = log n · (1/F + 1/log(F + 1)) + c + O(1)
//! ```
//!
//! `pmcast` uses this expression at *every depth* of the tree to bound the
//! number of rounds an event keeps being gossiped in a subgroup ("bound
//! gossiping", Section 3.3): both the group size and the fanout are scaled
//! by the matching rate at that depth, and Equation 11 additionally scales
//! them by `(1 − ε)(1 − τ)` to account for message loss and crashes.

use crate::EnvParams;

/// Pittel's round estimate `T(n, F)` (Equation 3) with additive constant `c`.
///
/// Degenerate inputs are handled conservatively: a group of one (or fewer)
/// processes needs 0 rounds, and a non-positive fanout can never complete,
/// returning infinity.
pub fn rounds_estimate(group_size: f64, fanout: f64, constant: f64) -> f64 {
    if group_size <= 1.0 {
        return 0.0;
    }
    if fanout <= 0.0 {
        return f64::INFINITY;
    }
    group_size.ln() * (1.0 / fanout + 1.0 / (fanout + 1.0).ln()) + constant
}

/// The loss/crash-adjusted round estimate `T_f(n, F)` of Equation 11: both
/// the effective group size and the effective fanout are multiplied by the
/// survival factor `(1 − ε)(1 − τ)`.
pub fn rounds_estimate_faulty(group_size: f64, fanout: f64, env: &EnvParams) -> f64 {
    let survival = env.survival_factor();
    rounds_estimate(group_size * survival, fanout * survival, env.pittel_constant)
}

/// The integer round budget used by the protocol: the estimate rounded up,
/// never less than 1 for a group of at least 2 processes.
pub fn round_budget(group_size: f64, fanout: f64, env: &EnvParams) -> u32 {
    let estimate = rounds_estimate_faulty(group_size, fanout, env);
    if estimate <= 0.0 {
        return 0;
    }
    if !estimate.is_finite() {
        return u32::MAX;
    }
    estimate.ceil().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No losses, no crashes: Pittel's original model.
    const LOSSLESS: EnvParams = EnvParams {
        loss_probability: 0.0,
        crash_probability: 0.0,
        pittel_constant: 1.0,
    };

    #[test]
    fn matches_the_closed_form() {
        // T(n, F) = ln n (1/F + 1/ln(F+1)) + c
        let n: f64 = 10_000.0;
        let f = 2.0;
        let expected = n.ln() * (0.5 + 1.0 / (3.0f64).ln()) + 0.0;
        assert!((rounds_estimate(n, f, 0.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn grows_logarithmically_with_group_size() {
        let f = 3.0;
        let t1 = rounds_estimate(1_000.0, f, 0.0);
        let t2 = rounds_estimate(1_000_000.0, f, 0.0);
        // Squaring the group size doubles the estimate (pure log growth).
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decreases_with_fanout() {
        let n = 10_000.0;
        let low = rounds_estimate(n, 1.0, 0.0);
        let mid = rounds_estimate(n, 3.0, 0.0);
        let high = rounds_estimate(n, 10.0, 0.0);
        assert!(low > mid && mid > high);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(rounds_estimate(1.0, 3.0, 5.0), 0.0);
        assert_eq!(rounds_estimate(0.5, 3.0, 5.0), 0.0);
        assert_eq!(rounds_estimate(100.0, 0.0, 5.0), f64::INFINITY);
        assert_eq!(rounds_estimate(100.0, -1.0, 5.0), f64::INFINITY);
    }

    #[test]
    fn constant_is_additive() {
        let base = rounds_estimate(500.0, 2.0, 0.0);
        assert!((rounds_estimate(500.0, 2.0, 2.5) - base - 2.5).abs() < 1e-12);
    }

    #[test]
    fn faulty_environment_needs_more_rounds() {
        let env_bad = EnvParams {
            loss_probability: 0.2,
            crash_probability: 0.05,
            ..LOSSLESS
        };
        let clean = rounds_estimate_faulty(10_000.0, 3.0, &LOSSLESS);
        let faulty = rounds_estimate_faulty(10_000.0, 3.0, &env_bad);
        assert!(faulty > clean);
    }

    #[test]
    fn round_budget_is_a_positive_integer_ceiling() {
        let env = LOSSLESS;
        let budget = round_budget(10_000.0, 2.0, &env);
        let estimate = rounds_estimate_faulty(10_000.0, 2.0, &env);
        assert_eq!(budget, estimate.ceil() as u32);
        assert!(budget >= 1);
        // Tiny groups need no gossip.
        assert_eq!(round_budget(1.0, 2.0, &env), 0);
        assert_eq!(round_budget(0.0, 2.0, &env), 0);
        // Zero fanout saturates instead of overflowing.
        assert_eq!(round_budget(100.0, 0.0, &env), u32::MAX);
    }

    #[test]
    fn paper_figure_parameters_are_in_a_sensible_range() {
        // n ≈ 10 000, F = 2: the whole group is infected in a couple of
        // dozen rounds, not in thousands.
        let env = EnvParams::default();
        let budget = round_budget(10_648.0, 2.0, &env);
        assert!(budget > 5 && budget < 40, "budget {budget} out of range");
    }
}
