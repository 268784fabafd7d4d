//! The per-depth propagation model in a regular tree (Section 4.3,
//! Equations 5, 7 and 12–18).
//!
//! A delegate of depth `i` represents the `a^(d−i)` processes of its subtree
//! (Equation 4); it is therefore interested in an event of matching rate
//! `p_d` with probability `p_i = 1 − (1 − p_d)^(a^(d−i))` (Equation 7).
//! Gossiping at depth `i` happens inside a view of `m_i` entries
//! (Equation 12); running the flat-group infection chain for the
//! Pittel-bounded number of rounds at every depth yields, per depth, the
//! probability `r_i` that a child node gets infected (Equation 15), and
//! combining the depths gives the expected number of infected processes and
//! the *reliability degree* (Equation 18).
//!
//! Two refinements over a literal reading of Section 4.3 keep the model
//! within a few hundredths of the Monte-Carlo simulation (the closed-loop
//! contract of `tests/analysis_vs_simulation.rs`):
//!
//! * **Interest-filtered fanout.**  The protocol draws its fanout targets
//!   *after* filtering the view by `subtree_interested` (Figure 3's
//!   GETDESTS), so no fanout is wasted on uninterested entries; the
//!   infection chain therefore runs with the full fanout `F` over the
//!   interested audience `m_i · p_i`.  The *round budget* still scales both
//!   size and fanout by the rate (Equation 11) — that is what the protocol
//!   itself computes at run time, pessimism included.
//! * **Conditional seeding.**  When depth `i`'s gossip starts inside a
//!   subgroup, the delegates promoted from depth `i − 1` already carry the
//!   event: the chain starts from the conditional expectation
//!   `R·f/(1 − (1 − f)^R)` of infected delegates given the subgroup was
//!   reached at all, not from a single seed.  Expected seed counts (and
//!   audience sizes) are fractional, so chains interpolate between the two
//!   neighbouring integer configurations instead of rounding — removing the
//!   discretization cliffs that would otherwise break monotonicity in the
//!   matching rate.

use crate::markov::InfectionChain;
use crate::pittel;
use crate::{EnvParams, GroupParams};

/// The analytical model of event propagation in a regular pmcast tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeModel {
    group: GroupParams,
    env: EnvParams,
}

/// The outcome of the analytical reliability computation for one matching
/// rate (one point of the paper's Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// The matching rate `p_d` the report was computed for.
    pub matching_rate: f64,
    /// Round budget spent at every depth (Equation 13's summands).
    pub rounds_per_depth: Vec<u32>,
    /// Per-depth probability that an interested child node is infected
    /// after gossiping at that depth (`r_i`, Equation 15).
    pub node_infection_probability: Vec<f64>,
    /// Expected number of interested processes in the group (`n · p_d`).
    pub interested_processes: f64,
    /// Expected number of infected (event-carrying) interested processes
    /// (Equation 18).
    pub expected_infected_processes: f64,
    /// `expected_infected_processes / interested_processes`, clamped to
    /// `[0, 1]`: the probability that an interested process delivers.
    pub reliability_degree: f64,
    /// Total expected rounds across all depths (Equation 13).
    pub total_rounds: u32,
}

impl TreeModel {
    /// Creates a model for the given group shape and environment.
    pub fn new(group: GroupParams, env: EnvParams) -> Self {
        Self { group, env }
    }

    /// Number of processes represented by one delegate of the given depth:
    /// `a^(d − i)` (Equation 4 in a regular tree).
    pub fn represented_processes(&self, depth: usize) -> f64 {
        (self.group.arity as f64).powi((self.group.depth - depth) as i32)
    }

    /// Probability that a node of the given depth is interested in an event
    /// of matching rate `p_d`, on behalf of the processes it represents
    /// (Equation 7).
    pub fn interest_probability(&self, matching_rate: f64, depth: usize) -> f64 {
        let below = self.represented_processes(depth);
        1.0 - (1.0 - matching_rate.clamp(0.0, 1.0)).powf(below)
    }

    /// The number of view entries a process holds for the given depth
    /// (Equation 12): `R·a` at inner depths, `a` at the leaf depth.
    pub fn view_size(&self, depth: usize) -> usize {
        if depth == self.group.depth {
            self.group.arity as usize
        } else {
            self.group.redundancy * self.group.arity as usize
        }
    }

    /// Round budget for gossiping at the given depth: Pittel's estimate over
    /// the *interested* part of the view, with fanout scaled by the interest
    /// probability (Equation 11 applied per depth as in Figure 3 line 7).
    pub fn rounds_at_depth(&self, matching_rate: f64, depth: usize) -> u32 {
        let p_i = self.interest_probability(matching_rate, depth);
        let effective_size = self.view_size(depth) as f64 * p_i;
        let effective_fanout = self.group.fanout as f64 * p_i;
        pittel::round_budget(effective_size, effective_fanout, &self.env)
    }

    /// Total expected rounds to complete the multicast (Equation 13).
    pub fn total_rounds(&self, matching_rate: f64) -> u32 {
        (1..=self.group.depth)
            .map(|depth| self.rounds_at_depth(matching_rate, depth))
            .sum()
    }

    /// Full reliability computation for one matching rate (Equation 18 and
    /// the derived reliability degree).
    pub fn reliability(&self, matching_rate: f64) -> ReliabilityReport {
        self.reliability_with_floor(matching_rate, None)
    }

    /// Reliability with the Section 5.3 tuning applied: when fewer than
    /// `threshold` processes of a view are interested, the first `threshold`
    /// processes are treated as interested, artificially enlarging the
    /// audience so that Pittel's asymptote applies again.
    pub fn reliability_tuned(&self, matching_rate: f64, threshold: usize) -> ReliabilityReport {
        // The tuning is equivalent to clamping the per-depth interest
        // probability from below at h / m_i.
        self.reliability_with_floor(matching_rate, Some(threshold))
    }

    /// [`TreeModel::reliability`] and [`TreeModel::reliability_tuned`]: every
    /// depth spends its Pittel budget over the (possibly inflated) gossip
    /// audience and runs the seeded infection chain inside it.
    fn reliability_with_floor(
        &self,
        matching_rate: f64,
        tuning: Option<usize>,
    ) -> ReliabilityReport {
        let fanout = self.group.fanout as f64;
        self.walk_depths(matching_rate, |at| {
            let (entities, rounds) = self.gossip_budget(at, tuning);
            let fraction = infected_fraction(entities, fanout, &self.env, rounds, at.seeds);
            DepthPhase { entities, rounds, fraction }
        })
    }

    /// The gossip audience of a depth — its interest probability floored at
    /// `h / m_i` when audience inflation is active — and the Pittel round
    /// budget the protocol spends on it.
    pub(crate) fn gossip_budget(&self, at: &DepthStart, tuning: Option<usize>) -> (f64, u32) {
        let gossip_p = match tuning {
            Some(threshold) => at.interest.max((threshold as f64 / at.view).min(1.0)),
            None => at.interest,
        };
        let entities = at.view * gossip_p;
        let effective_fanout = self.group.fanout as f64 * gossip_p;
        (entities, pittel::round_budget(entities, effective_fanout, &self.env))
    }

    /// The one walk of the depths behind every reliability figure of the
    /// crate: ask `phase` how long a depth gossips and which fraction of its
    /// audience that infects, and refine the expected number of infected
    /// entities multiplicatively (`E[g_i] = r_i · a · p_i · E[g_{i-1}]`,
    /// `g_0 = 1`).  The models differ only in `phase` — where a depth's
    /// rounds and infected fraction come from.
    pub(crate) fn walk_depths(
        &self,
        matching_rate: f64,
        mut phase: impl FnMut(&DepthStart) -> DepthPhase,
    ) -> ReliabilityReport {
        let matching_rate = matching_rate.clamp(0.0, 1.0);
        let arity = self.group.arity as f64;
        let interested = self.group.group_size() as f64 * matching_rate;
        let mut rounds_per_depth = Vec::with_capacity(self.group.depth);
        let mut node_probabilities = Vec::with_capacity(self.group.depth);
        let mut expected_infected_entities = 1.0;
        // The multicaster is the only seed when depth 1 starts.
        let mut seeds = 1.0;
        for depth in 1..=self.group.depth {
            let interest = self.interest_probability(matching_rate, depth);
            let view = self.view_size(depth) as f64;
            let DepthPhase { entities, rounds, fraction } =
                phase(&DepthStart { depth, interest, view, seeds });
            rounds_per_depth.push(rounds);
            let redundancy_exponent = view / arity;
            let r_i = node_probability(entities, fraction, redundancy_exponent);
            node_probabilities.push(r_i);
            // The audience may be inflated for gossiping, but only genuinely
            // interested children count towards delivery.
            let children_per_node = (arity * interest).min(arity);
            expected_infected_entities *= (r_i * children_per_node).max(0.0);
            seeds = conditional_seeds(fraction, redundancy_exponent);
        }
        // At the leaf depth an entity is a single process.
        let expected_infected_processes = expected_infected_entities.min(interested.max(0.0));
        let reliability_degree = if interested > 0.0 {
            (expected_infected_processes / interested).clamp(0.0, 1.0)
        } else {
            0.0
        };
        ReliabilityReport {
            matching_rate,
            total_rounds: rounds_per_depth.iter().sum(),
            rounds_per_depth,
            node_infection_probability: node_probabilities,
            interested_processes: interested,
            expected_infected_processes,
            reliability_degree,
        }
    }
}

/// What a depth's gossip phase starts from, as [`TreeModel::walk_depths`]
/// hands it to its phase model.
pub(crate) struct DepthStart {
    /// The depth `i`, counted from 1.
    pub depth: usize,
    /// `p_i`: the genuine interest probability of a view entry (Equation 7).
    pub interest: f64,
    /// `m_i`: the entries of the depth's view (Equation 12).
    pub view: f64,
    /// Expected number of already infected entities.
    pub seeds: f64,
}

/// A phase model's answer for one depth.
pub(crate) struct DepthPhase {
    /// The (fractional) audience Equation 15 is evaluated over.
    pub entities: f64,
    /// Rounds the depth gossips for.
    pub rounds: u32,
    /// Infected fraction of the audience after those rounds.
    pub fraction: f64,
}

/// Infected fraction of a flat audience of (fractional) `entities` after
/// `rounds` rounds of gossiping with the interest-filtered fanout, starting
/// from `seeds` infected entities.
///
/// Fractional audiences interpolate linearly between the two neighbouring
/// integer chains so the model has no rounding cliffs; audiences below one
/// entity degenerate to the audience size itself (the pessimistic reading:
/// with less than one interested entity in expectation the multicast
/// fizzles).
pub(crate) fn infected_fraction(
    entities: f64,
    fanout: f64,
    env: &EnvParams,
    rounds: u32,
    seeds: f64,
) -> f64 {
    if entities < 1.0 {
        return entities.clamp(0.0, 1.0);
    }
    let lower = entities.floor() as usize;
    let upper = entities.ceil() as usize;
    let fraction_at = |size: usize| -> f64 {
        if size == 0 {
            return 0.0;
        }
        let mut chain = InfectionChain::with_initial_infected(size, fanout, env, seeds);
        chain.run(rounds);
        (chain.expected_infected() / size as f64).clamp(0.0, 1.0)
    };
    let low = fraction_at(lower);
    if upper == lower {
        return low;
    }
    let high = fraction_at(upper);
    let blend = entities - lower as f64;
    low + (high - low) * blend
}

/// Equation 15: probability that a child node with `redundancy_exponent`
/// delegates in the audience is reached, given the audience's infected
/// fraction.  Degenerate audiences (< 1 entity) keep the pessimistic
/// audience-sized value.
pub(crate) fn node_probability(entities: f64, fraction: f64, redundancy_exponent: f64) -> f64 {
    if entities < 1.0 {
        return entities.clamp(0.0, 1.0);
    }
    1.0 - (1.0 - fraction.clamp(0.0, 1.0)).powf(redundancy_exponent)
}

/// Conditional expectation of the number of already-infected delegates a
/// reached subgroup starts its next depth with: `R·f / (1 − (1 − f)^R)`,
/// clamped to `[1, R]`.
pub(crate) fn conditional_seeds(fraction: f64, redundancy_exponent: f64) -> f64 {
    let r = 1.0 - (1.0 - fraction.clamp(0.0, 1.0)).powf(redundancy_exponent);
    if r <= 0.0 {
        return 1.0;
    }
    (redundancy_exponent * fraction / r).clamp(1.0, redundancy_exponent.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4_model() -> TreeModel {
        TreeModel::new(
            GroupParams {
                arity: 22,
                depth: 3,
                redundancy: 3,
                fanout: 2,
            },
            EnvParams::default(),
        )
    }

    #[test]
    fn interest_probability_grows_towards_the_root() {
        let model = figure4_model();
        let pd = 0.1;
        let p3 = model.interest_probability(pd, 3);
        let p2 = model.interest_probability(pd, 2);
        let p1 = model.interest_probability(pd, 1);
        assert!((p3 - pd).abs() < 1e-12, "leaf depth equals p_d");
        assert!(p2 > p3);
        assert!(p1 > p2);
        assert!(p1 <= 1.0);
        // With pd = 1 all depths are certainly interested.
        for depth in 1..=3 {
            assert!((model.interest_probability(1.0, depth) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn represented_processes_follow_equation_4() {
        let model = figure4_model();
        assert_eq!(model.represented_processes(3), 1.0);
        assert_eq!(model.represented_processes(2), 22.0);
        assert_eq!(model.represented_processes(1), 484.0);
    }

    #[test]
    fn view_sizes_follow_equation_12() {
        let model = figure4_model();
        assert_eq!(model.view_size(1), 66);
        assert_eq!(model.view_size(2), 66);
        assert_eq!(model.view_size(3), 22);
    }

    #[test]
    fn high_matching_rates_yield_high_reliability() {
        let model = figure4_model();
        for &pd in &[0.5, 0.8, 1.0] {
            let report = model.reliability(pd);
            assert!(
                report.reliability_degree > 0.9,
                "pd={pd} degree {}",
                report.reliability_degree
            );
            assert!(report.total_rounds > 0);
            assert_eq!(report.rounds_per_depth.len(), 3);
            assert!(report.expected_infected_processes <= report.interested_processes + 1e-9);
        }
    }

    #[test]
    fn reliability_degrades_for_tiny_matching_rates() {
        // The degradation for very small p_d is precisely what Section 5.3
        // discusses (Pittel's asymptote loses accuracy).
        let model = figure4_model();
        let tiny = model.reliability(0.001);
        let comfortable = model.reliability(0.5);
        assert!(tiny.reliability_degree < comfortable.reliability_degree);
    }

    #[test]
    fn reliability_is_roughly_monotone_in_matching_rate() {
        let model = figure4_model();
        let low = model.reliability(0.05).reliability_degree;
        let mid = model.reliability(0.3).reliability_degree;
        let high = model.reliability(0.9).reliability_degree;
        assert!(mid >= low - 0.05);
        assert!(high >= mid - 0.05);
    }

    #[test]
    fn tuning_improves_small_rates_like_figure_7() {
        let model = figure4_model();
        let pd = 0.02;
        let untuned = model.reliability(pd).reliability_degree;
        let tuned = model.reliability_tuned(pd, 10).reliability_degree;
        assert!(
            tuned >= untuned,
            "tuned {tuned} must not be below untuned {untuned}"
        );
        // For comfortable rates tuning changes little.
        let untuned_mid = model.reliability(0.6).reliability_degree;
        let tuned_mid = model.reliability_tuned(0.6, 10).reliability_degree;
        assert!((tuned_mid - untuned_mid).abs() < 0.05);
    }

    #[test]
    fn rounds_estimates_are_finite_and_reasonable() {
        let model = figure4_model();
        for &pd in &[0.1, 0.5, 1.0] {
            let total = model.total_rounds(pd);
            assert!((1..100).contains(&total), "pd={pd} total {total}");
            for depth in 1..=3 {
                assert!(model.rounds_at_depth(pd, depth) < 50);
            }
        }
        // pd = 0: nothing to do.
        assert_eq!(model.reliability(0.0).reliability_degree, 0.0);
    }

    #[test]
    fn larger_fanout_needs_fewer_rounds() {
        let base = figure4_model();
        let fast = TreeModel::new(
            GroupParams {
                fanout: 5,
                ..base.group
            },
            base.env,
        );
        assert!(fast.total_rounds(0.5) <= base.total_rounds(0.5));
    }

    #[test]
    fn scalability_trend_matches_figure_6() {
        // Growing the subgroup size a (and thus n = a^3) keeps the
        // reliability degree high — the scalability claim of Figure 6.
        let env = EnvParams::default();
        for &arity in &[10u32, 20, 30, 40] {
            let model = TreeModel::new(
                GroupParams {
                    arity,
                    depth: 3,
                    redundancy: 4,
                    fanout: 3,
                },
                env,
            );
            let report = model.reliability(0.5);
            assert!(
                report.reliability_degree > 0.85,
                "a={arity} degree {}",
                report.reliability_degree
            );
        }
    }
}
