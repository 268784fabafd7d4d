//! Property-based tests for the analysis crate: structural invariants of
//! the Markov infection chain, monotonicity of the tree model, and the
//! exact static reduction of the decentralized (churn-aware) model.
//!
//! These are the closed-loop model's own contracts — the simulation-facing
//! tolerances live in `tests/analysis_vs_simulation.rs` at the workspace
//! root; here we pin down what must hold *exactly* (stochastic rows,
//! bit-for-bit reductions) or *directionally* (more fanout, more rounds,
//! more interest never hurt).

use pmcast_analysis::churn::ChurnProfile;
use pmcast_analysis::decentralized::{DecentralizedModel, ProviderShape};
use pmcast_analysis::markov::InfectionChain;
use pmcast_analysis::tree::TreeModel;
use pmcast_analysis::{pittel, EnvParams, GroupParams};
use proptest::prelude::*;

/// Environments the analysis is specified for: moderate loss, small crash
/// fractions, the paper's Pittel constant range.
fn arb_env() -> impl Strategy<Value = EnvParams> {
    (0u32..=20, 0u32..=5, 1u32..=3).prop_map(|(loss, crash, c)| EnvParams {
        loss_probability: loss as f64 / 100.0,
        crash_probability: crash as f64 / 100.0,
        pittel_constant: c as f64,
    })
}

/// Small tree configurations (kept small so the chain's O(n²) transition
/// matrix stays cheap across many cases).
fn arb_group() -> impl Strategy<Value = GroupParams> {
    (3u32..=8, 2usize..=3, 1usize..=3, 2usize..=5).prop_map(
        |(arity, depth, redundancy, fanout)| GroupParams { arity, depth, redundancy, fanout },
    )
}

proptest! {
    /// Every row of the infection chain's transition matrix is a
    /// probability distribution: `sum_k P(j -> k) = 1` for every reachable
    /// source state `j`.
    #[test]
    fn markov_transition_rows_sum_to_one(
        n in 2usize..=24,
        fanout in 1u32..=5,
        env in arb_env(),
    ) {
        let mut chain = InfectionChain::new(n, fanout as f64, &env);
        for j in 1..=n {
            let row: f64 = (0..=n).map(|k| chain.transition(j, k)).sum();
            prop_assert!(
                (row - 1.0).abs() < 1e-9,
                "row {} of n={} F={} sums to {}", j, n, fanout, row
            );
        }
    }

    /// The chain's expected number of infected processes never decreases
    /// with extra rounds: gossip only ever spreads.
    #[test]
    fn markov_infection_is_monotone_in_rounds(
        n in 2usize..=24,
        fanout in 1u32..=5,
        env in arb_env(),
    ) {
        let mut chain = InfectionChain::new(n, fanout as f64, &env);
        let mut previous = chain.expected_infected();
        for _ in 0..8 {
            chain.step();
            let current = chain.expected_infected();
            prop_assert!(
                current >= previous - 1e-12,
                "n={} F={}: infection shrank {} -> {}", n, fanout, previous, current
            );
            previous = current;
        }
    }

    /// More fanout never hurts: after the same number of rounds, the
    /// expected infected population is monotone in `F`.
    #[test]
    fn markov_infection_is_monotone_in_fanout(
        n in 2usize..=24,
        fanout in 1u32..=4,
        rounds in 1u32..=6,
        env in arb_env(),
    ) {
        let mut low = InfectionChain::new(n, fanout as f64, &env);
        let mut high = InfectionChain::new(n, (fanout + 1) as f64, &env);
        low.run(rounds);
        high.run(rounds);
        prop_assert!(
            high.expected_infected() >= low.expected_infected() - 1e-9,
            "n={} rounds={}: F={} infects {}, F={} infects {}",
            n, rounds, fanout, low.expected_infected(),
            fanout + 1, high.expected_infected()
        );
    }

    /// Pittel ↔ Markov consistency: running the chain for the round budget
    /// the Pittel asymptote allocates saturates the group — the budget is
    /// what the tree model spends per depth, so the chain must agree that
    /// it suffices.
    #[test]
    fn pittel_budget_saturates_the_chain(
        n in 8usize..=32,
        fanout in 2u32..=5,
    ) {
        let env = EnvParams::default();
        let budget = pittel::round_budget(n as f64, fanout as f64, &env);
        let mut chain = InfectionChain::new(n, fanout as f64, &env);
        chain.run(budget);
        prop_assert!(
            chain.expected_infected() > 0.9 * n as f64,
            "n={} F={}: {} budgeted rounds infect only {:.4} of {}",
            n, fanout, budget, chain.expected_infected(), n
        );
    }

    /// Tree-model reliability is monotone in the matching rate, up to the
    /// small wiggle the integral round budgets introduce (a higher rate can
    /// cross a budget step; the dip is bounded well below a percent).
    #[test]
    fn tree_reliability_is_monotone_in_matching_rate(
        group in arb_group(),
        env in arb_env(),
        step in 1u32..=4,
    ) {
        let model = TreeModel::new(group, env);
        let low_rate = 0.1 * step as f64;
        let high_rate = low_rate + 0.1;
        let low = model.reliability(low_rate).reliability_degree;
        let high = model.reliability(high_rate).reliability_degree;
        prop_assert!(
            high >= low - 1e-3,
            "{:?}: p_d {} -> {} drops reliability {} -> {}",
            group, low_rate, high_rate, low, high
        );
    }

    /// Tree-model reliability is monotone in the gossip fanout, up to the
    /// budget interplay: a larger `F` *shrinks* the Pittel round budget
    /// (Equation 3 allocates fewer rounds when each round reaches more
    /// processes), and the two integral effects can net out to a dip of up
    /// to ~1% on very small trees.  The property pins the dip to that
    /// budget-step magnitude — anything larger is a real regression.
    #[test]
    fn tree_reliability_is_monotone_in_fanout(
        group in arb_group(),
        env in arb_env(),
    ) {
        let bigger = GroupParams { fanout: group.fanout + 1, ..group };
        let low = TreeModel::new(group, env).reliability(0.5).reliability_degree;
        let high = TreeModel::new(bigger, env).reliability(0.5).reliability_degree;
        prop_assert!(
            high >= low - 1e-2,
            "{:?}: fanout +1 drops reliability {} -> {}", group, low, high
        );
    }

    /// A decentralized model with global provider and zero churn reduces
    /// **bit-for-bit** to the static tree model — the churn path must not
    /// perturb the static prediction by even one ulp (this is what keeps
    /// the PR 3-8 goldens byte-identical).
    #[test]
    fn zero_churn_reduces_to_the_static_model_bitwise(
        group in arb_group(),
        env in arb_env(),
        rate_step in 1u32..=9,
    ) {
        let rate = rate_step as f64 / 10.0;
        let decentralized = DecentralizedModel::new(group, env, ProviderShape::Global)
            .with_churn(ChurnProfile::none())
            .predict(rate);
        let static_model = TreeModel::new(group, env).reliability(rate);
        prop_assert_eq!(
            decentralized.reliability.to_bits(),
            static_model.reliability_degree.to_bits(),
            "{:?} rate {}: churn-free decentralized != static tree", group, rate
        );
        prop_assert_eq!(decentralized.total_rounds, static_model.total_rounds);
    }

    /// Churn only costs reliability: any departure schedule predicts at
    /// most the static reliability.
    #[test]
    fn churn_never_improves_reliability(
        group in arb_group(),
        round in 0u32..=6,
        fraction_pct in 1u32..=30,
    ) {
        let env = EnvParams::default();
        let fraction = fraction_pct as f64 / 100.0;
        let churned = DecentralizedModel::new(group, env, ProviderShape::Global)
            .with_churn(ChurnProfile::from_departures([(round, fraction)]))
            .predict(0.5);
        let static_model = TreeModel::new(group, env).reliability(0.5);
        prop_assert!(
            churned.reliability <= static_model.reliability_degree + 1e-12,
            "{:?}: {}% leaving at round {} *improved* reliability {} -> {}",
            group, fraction_pct, round,
            static_model.reliability_degree, churned.reliability
        );
    }
}
