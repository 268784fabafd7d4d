//! Churn-adjusted environment: graceful leaves and crashes that shrink the
//! infectable population *during* dissemination.
//!
//! Section 4.1 models crashes as a static fraction `τ` that is simply folded
//! into the survival factor `(1 − ε)(1 − τ)`.  The simulator's scenario axis
//! is richer: `leave_at` / `crash_at` schedules remove processes at given
//! rounds after the publish, and a departed process counts as *undelivered*
//! (see `examples/churn_sweep.rs`), so reliability sinks roughly linearly
//! with the departed fraction — minus the deliveries that happened before
//! the departure.  [`ChurnProfile`] captures that schedule, and
//! [`ChurnProfile::delivered_before_departure`] combines it with a
//! [`delivery_cdf`] to estimate, per departure offset, how much of the
//! dissemination was already complete — the credit a leaver keeps.
//!
//! The profile deliberately stays *population-level* (fractions per round
//! offset, not process identities): the analysis predicts expectations, and
//! the simulator's deterministic schedules spread departures evenly over the
//! index space, so the identity-free expectation is the right abstraction.

use crate::markov::pair_infection_probability;
use crate::EnvParams;

/// A population-level churn schedule: which fraction of the initial group
/// departs (graceful leave or crash) at which round offset after the
/// publish.
///
/// [`ChurnProfile::none`] is the static environment; every model consuming a
/// profile must reduce **bit-for-bit** to its static counterpart in that
/// case (asserted by `crates/analysis/tests/prop_analysis.rs`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnProfile {
    /// `(round offset after publish, fraction of the initial population
    /// departing at that offset)`.  Offsets at or before the publish are
    /// clamped to 0 by the caller; fractions are non-negative.
    pub departures: Vec<(u32, f64)>,
}

impl ChurnProfile {
    /// The static environment: nobody departs mid-run.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a profile from `(offset, fraction)` pairs, dropping empty
    /// entries.
    pub fn from_departures(departures: impl IntoIterator<Item = (u32, f64)>) -> Self {
        Self {
            departures: departures.into_iter().filter(|&(_, f)| f > 0.0).collect(),
        }
    }

    /// `true` when the profile carries no mid-run departures — the guard
    /// every churn-aware model uses to fall back to the static (`EnvParams`
    /// only) computation without any floating-point detour.
    pub fn is_static(&self) -> bool {
        self.departures.iter().all(|&(_, fraction)| fraction <= 0.0)
    }

    /// Total departed fraction of the initial population, clamped to
    /// `[0, 1]`.
    pub fn departed_fraction(&self) -> f64 {
        self.departures
            .iter()
            .map(|&(_, fraction)| fraction.max(0.0))
            .sum::<f64>()
            .min(1.0)
    }

    /// Expected fraction of departed processes that delivered *before*
    /// departing, weighting each departure offset by the delivery timeline
    /// (`cdf[t]` = fraction of eventual deliveries complete by round `t`).
    pub fn delivered_before_departure(&self, cdf: &[f64]) -> f64 {
        let total = self.departed_fraction();
        if total <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self
            .departures
            .iter()
            .map(|&(offset, fraction)| {
                let at = cdf
                    .get(offset as usize)
                    .or(cdf.last())
                    .copied()
                    .unwrap_or(0.0);
                fraction.max(0.0) * at
            })
            .sum();
        (weighted / total).clamp(0.0, 1.0)
    }

    /// Extra effective crash probability the *survivors* see: the mean
    /// departed fraction over the dissemination window, i.e. how much of a
    /// survivor's fanout is wasted on processes that are no longer there.
    /// Generalizes the static `τ` of [`EnvParams`]; 0 for a static profile.
    pub fn survivor_wastage(&self, total_rounds: u32) -> f64 {
        if total_rounds == 0 {
            return self.departed_fraction();
        }
        let rounds = total_rounds as f64;
        self.departures
            .iter()
            .map(|&(offset, fraction)| {
                let dead_rounds = rounds - (offset as f64).min(rounds);
                fraction.max(0.0) * (dead_rounds / rounds)
            })
            .sum::<f64>()
            .min(1.0)
    }
}

/// Mean-field delivery timeline of a flat gossiping group: `cdf[t]` is the
/// estimated fraction of eventual deliveries already made `t` rounds after
/// the publish.
///
/// Uses the deterministic mean-field companion of the exact
/// [`crate::markov::InfectionChain`] (`s_{t+1} = s_t + (n − s_t)(1 − q^{s_t})`)
/// so that million-process timelines stay O(rounds) instead of the chain's
/// O(n²) per round; the churn credit needs the *shape* of the curve, not
/// exact tail mass.  The returned vector has `rounds + 1` entries with
/// `cdf[0] = 0` and `cdf[rounds] = 1`.
pub fn delivery_cdf(population: f64, fanout: f64, env: &EnvParams, rounds: u32) -> Vec<f64> {
    let n = population.max(2.0);
    let p = pair_infection_probability(n, fanout, env);
    let q = 1.0 - p;
    let mut infected = 1.0f64;
    let mut curve = Vec::with_capacity(rounds as usize + 1);
    curve.push(infected);
    for _ in 0..rounds {
        let susceptible = (n - infected).max(0.0);
        infected += susceptible * (1.0 - q.powf(infected));
        curve.push(infected);
    }
    let finished = *curve.last().unwrap_or(&1.0);
    let baseline = curve[0];
    let span = (finished - baseline).max(f64::EPSILON);
    curve
        .iter()
        .map(|&s| ((s - baseline) / span).clamp(0.0, 1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_profile_is_detected() {
        assert!(ChurnProfile::none().is_static());
        assert!(ChurnProfile::from_departures([(3, 0.0)]).is_static());
        assert!(!ChurnProfile::from_departures([(3, 0.1)]).is_static());
        assert_eq!(ChurnProfile::none().departed_fraction(), 0.0);
    }

    #[test]
    fn departed_fraction_sums_and_clamps() {
        let profile = ChurnProfile::from_departures([(2, 0.05), (3, 0.05)]);
        assert!((profile.departed_fraction() - 0.1).abs() < 1e-12);
        let all = ChurnProfile::from_departures([(1, 0.7), (2, 0.7)]);
        assert_eq!(all.departed_fraction(), 1.0);
    }

    #[test]
    fn delivery_cdf_is_monotone_and_normalised() {
        let cdf = delivery_cdf(10_648.0 * 0.5, 2.0, &EnvParams::default(), 20);
        assert_eq!(cdf.len(), 21);
        assert_eq!(cdf[0], 0.0);
        assert!((cdf[20] - 1.0).abs() < 1e-12);
        for pair in cdf.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        // Early rounds have delivered almost nothing at paper scale: this is
        // why leavers at rounds 2–6 count almost fully against reliability.
        assert!(cdf[4] < 0.05, "cdf[4] = {}", cdf[4]);
    }

    #[test]
    fn early_departures_keep_less_credit() {
        let cdf = delivery_cdf(5_000.0, 2.0, &EnvParams::default(), 20);
        let early = ChurnProfile::from_departures([(2, 0.1)]);
        let late = ChurnProfile::from_departures([(18, 0.1)]);
        assert!(early.delivered_before_departure(&cdf) < late.delivered_before_departure(&cdf));
        // Departures far past the dissemination keep full credit.
        let after = ChurnProfile::from_departures([(200, 0.1)]);
        assert!((after.delivered_before_departure(&cdf) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survivor_wastage_scales_with_overlap() {
        let profile = ChurnProfile::from_departures([(0, 0.2)]);
        // Departing at the publish wastes the slot for the whole run.
        assert!((profile.survivor_wastage(20) - 0.2).abs() < 1e-12);
        let late = ChurnProfile::from_departures([(10, 0.2)]);
        assert!((late.survivor_wastage(20) - 0.1).abs() < 1e-12);
        assert_eq!(ChurnProfile::none().survivor_wastage(20), 0.0);
    }
}
