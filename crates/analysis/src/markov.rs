//! The flat-group infection Markov chain of Section 4.2 (Equations 8–10).
//!
//! In a "flat" group (a tree of depth 1) of effective size `n` with
//! effective fanout `F`, the probability that a given infected process
//! reaches a given susceptible process in one round is
//!
//! ```text
//! p(n, F) = (F / (n − 1)) · (1 − ε)(1 − τ)          (Equation 8)
//! ```
//!
//! With `j` processes currently infected, the number infected after the next
//! round follows the transition probabilities of Equation 9, and iterating
//! the recursion of Equation 10 from a single initially infected process
//! yields the full distribution of the number of infected processes after
//! any number of rounds.

use crate::binomial::LnFactorial;
use crate::EnvParams;

/// The per-round, per-pair infection probability `p(n, F)` of Equation 8.
///
/// `n` and `F` are the *effective* group size and fanout (already scaled by
/// the matching rate when used for a multicast depth).
pub fn pair_infection_probability(group_size: f64, fanout: f64, env: &EnvParams) -> f64 {
    if group_size <= 1.0 {
        return 1.0;
    }
    let choice = (fanout / (group_size - 1.0)).min(1.0);
    (choice * env.survival_factor()).clamp(0.0, 1.0)
}

/// The exact infection chain over a flat group of `n` (integer) processes.
///
/// State: a probability distribution over the number of infected processes
/// `1..=n`.  The chain is homogeneous; advancing it one round applies the
/// transition matrix of Equation 9.
#[derive(Debug, Clone)]
pub struct InfectionChain {
    group_size: usize,
    /// Probability that a given susceptible process is *not* infected by a
    /// given infected process in one round (`q` in the paper).
    q: f64,
    /// `distribution[k]` = P\[s_t = k\] for `k in 0..=n` (index 0 unused
    /// except for the empty-group corner case).
    distribution: Vec<f64>,
    lnf: LnFactorial,
}

impl InfectionChain {
    /// Creates the chain for a flat group of `group_size` processes with the
    /// given fanout and environment, starting from exactly one infected
    /// process (the multicaster).
    pub fn new(group_size: usize, fanout: f64, env: &EnvParams) -> Self {
        Self::with_initial_infected(group_size, fanout, env, 1.0)
    }

    /// Creates the chain starting from an *expected* number of initially
    /// infected processes.
    ///
    /// The tree model seeds inner depths with the delegates already carrying
    /// the event when a subgroup's gossip phase starts; that expectation is
    /// rarely an integer, so a fractional `initially_infected` places its
    /// probability mass on the two neighbouring integer states (keeping the
    /// expectation exact and the model free of rounding cliffs).  Values are
    /// clamped to `[1, group_size]`; `with_initial_infected(n, f, env, 1.0)`
    /// is exactly [`InfectionChain::new`].
    pub fn with_initial_infected(
        group_size: usize,
        fanout: f64,
        env: &EnvParams,
        initially_infected: f64,
    ) -> Self {
        let p = pair_infection_probability(group_size as f64, fanout, env);
        let mut distribution = vec![0.0; group_size + 1];
        if group_size == 0 {
            distribution = vec![1.0];
        } else {
            let seeds = initially_infected.clamp(1.0, group_size as f64);
            let lower = seeds.floor() as usize;
            let upper = seeds.ceil() as usize;
            let upper_mass = seeds - lower as f64;
            distribution[lower.min(group_size)] += 1.0 - upper_mass;
            if upper_mass > 0.0 {
                distribution[upper.min(group_size)] += upper_mass;
            }
        }
        Self {
            group_size,
            q: 1.0 - p,
            distribution,
            lnf: LnFactorial::new(),
        }
    }

    /// Transition probability `P[s_{t+1} = k | s_t = j]` (Equation 9).
    pub fn transition(&mut self, j: usize, k: usize) -> f64 {
        if k < j || k > self.group_size || j == 0 {
            return 0.0;
        }
        // Probability that a given susceptible process is infected this
        // round by at least one of the j infected processes.
        let q_j = self.q.powi(j as i32);
        let p_infect = 1.0 - q_j;
        crate::binomial::binomial_pmf(&mut self.lnf, self.group_size - j, k - j, p_infect)
    }

    /// Advances the chain by one gossip round (Equation 10).
    pub fn step(&mut self) {
        let n = self.group_size;
        if n == 0 {
            return;
        }
        let mut next = vec![0.0; n + 1];
        for j in 1..=n {
            let mass = self.distribution[j];
            if mass <= 0.0 {
                continue;
            }
            for (k, slot) in next.iter_mut().enumerate().skip(j) {
                let t = self.transition(j, k);
                if t > 0.0 {
                    *slot += mass * t;
                }
            }
        }
        self.distribution = next;
    }

    /// Advances the chain by the given number of rounds.
    pub fn run(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Expected number of infected processes under the current distribution.
    pub fn expected_infected(&self) -> f64 {
        self.distribution
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> EnvParams {
        EnvParams {
            loss_probability: 0.0,
            crash_probability: 0.0,
            pittel_constant: 1.0,
        }
    }

    fn expected_infected_after(n: usize, fanout: f64, rounds: u32, env: &EnvParams) -> f64 {
        let mut chain = InfectionChain::new(n, fanout, env);
        chain.run(rounds);
        chain.expected_infected()
    }

    #[test]
    fn pair_probability_matches_equation_8() {
        let env = EnvParams {
            loss_probability: 0.05,
            crash_probability: 0.01,
            pittel_constant: 0.0,
        };
        let p = pair_infection_probability(100.0, 3.0, &env);
        let expected = 3.0 / 99.0 * 0.95 * 0.99;
        assert!((p - expected).abs() < 1e-12);
        // Tiny group: certain contact.
        assert_eq!(pair_infection_probability(1.0, 3.0, &env), 1.0);
        // Fanout larger than the group saturates at the survival factor.
        let saturated = pair_infection_probability(3.0, 10.0, &env);
        assert!((saturated - env.survival_factor()).abs() < 1e-12);
    }

    #[test]
    fn distribution_stays_normalised() {
        let mut chain = InfectionChain::new(40, 2.0, &EnvParams::default());
        for round in 1..=15 {
            chain.step();
            let total: f64 = chain.distribution.iter().sum();
            assert!((total - 1.0).abs() < 1e-7, "round {round} total {total}");
        }
    }

    #[test]
    fn infection_is_monotone_in_rounds() {
        let mut chain = InfectionChain::new(60, 2.0, &lossless());
        let mut previous = chain.expected_infected();
        for _ in 0..12 {
            chain.step();
            let current = chain.expected_infected();
            assert!(current >= previous - 1e-9, "expected infected must not decrease");
            previous = current;
        }
    }

    #[test]
    fn everyone_gets_infected_eventually_without_losses() {
        let mut chain = InfectionChain::new(30, 3.0, &lossless());
        chain.run(25);
        assert!(*chain.distribution.last().unwrap() > 0.999);
        assert!((chain.expected_infected() - 30.0).abs() < 0.01);
    }

    #[test]
    fn heavy_losses_slow_the_spread() {
        let lossy = EnvParams {
            loss_probability: 0.4,
            crash_probability: 0.0,
            pittel_constant: 0.0,
        };
        let clean = expected_infected_after(50, 2.0, 5, &lossless());
        let degraded = expected_infected_after(50, 2.0, 5, &lossy);
        assert!(degraded < clean);
    }

    #[test]
    fn pittel_budget_infects_most_of_the_group() {
        // Running the exact chain for the number of rounds suggested by
        // Pittel's asymptote should infect almost everybody — this ties the
        // two halves of the analysis together.
        let env = lossless();
        let n = 80usize;
        let fanout = 3.0;
        let budget = crate::pittel::round_budget(n as f64, fanout, &env);
        let expected = expected_infected_after(n, fanout, budget, &env);
        assert!(
            expected > 0.95 * n as f64,
            "Pittel budget {budget} only infects {expected:.1} of {n}"
        );
    }

    #[test]
    fn transition_probabilities_form_a_distribution() {
        let mut chain = InfectionChain::new(25, 2.0, &EnvParams::default());
        for j in 1..=25usize {
            let total: f64 = (j..=25).map(|k| chain.transition(j, k)).sum();
            assert!((total - 1.0).abs() < 1e-8, "row {j} sums to {total}");
        }
        // Impossible transitions are zero.
        assert_eq!(chain.transition(5, 3), 0.0);
        assert_eq!(chain.transition(0, 3), 0.0);
        assert_eq!(chain.transition(5, 26), 0.0);
    }

    #[test]
    fn fractional_seeds_interpolate_between_integer_states() {
        let env = lossless();
        let chain = InfectionChain::with_initial_infected(20, 2.0, &env, 2.5);
        assert!((chain.expected_infected() - 2.5).abs() < 1e-12);
        assert!((chain.distribution[2] - 0.5).abs() < 1e-12);
        assert!((chain.distribution[3] - 0.5).abs() < 1e-12);
        // Integer seeds collapse to a single state; 1.0 is `new`.
        let unit = InfectionChain::with_initial_infected(20, 2.0, &env, 1.0);
        assert_eq!(unit.distribution, InfectionChain::new(20, 2.0, &env).distribution);
        // Out-of-range seeds clamp to the group.
        let all = InfectionChain::with_initial_infected(5, 2.0, &env, 99.0);
        assert!((all.expected_infected() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn more_seeds_never_slow_the_spread() {
        let env = EnvParams::default();
        let mut one = InfectionChain::new(30, 2.0, &env);
        let mut three = InfectionChain::with_initial_infected(30, 2.0, &env, 3.0);
        one.run(4);
        three.run(4);
        assert!(three.expected_infected() > one.expected_infected());
    }

    #[test]
    fn initial_state_is_one_infected_process() {
        let chain = InfectionChain::new(10, 2.0, &lossless());
        assert_eq!(chain.group_size, 10);
        assert!((chain.expected_infected() - 1.0).abs() < 1e-12);
        assert_eq!(chain.distribution[1], 1.0);
    }

    #[test]
    fn empty_and_singleton_groups_are_harmless() {
        let mut empty = InfectionChain::new(0, 2.0, &lossless());
        empty.step();
        assert_eq!(empty.expected_infected(), 0.0);

        let mut single = InfectionChain::new(1, 2.0, &lossless());
        single.run(3);
        assert!((single.expected_infected() - 1.0).abs() < 1e-12);
        assert!((single.distribution.last().unwrap() - 1.0).abs() < 1e-12);
    }
}
