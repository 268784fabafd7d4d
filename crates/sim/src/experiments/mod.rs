//! The sweep declarations, registered in [`SWEEPS`]: the figures and
//! claims of the paper's evaluation ([`figures`]) and the sweeps behind
//! `examples/*_sweep.rs` ([`sweeps`]).  A declaration walks its axis values,
//! builds a [`Scenario`] per point, evaluates it through
//! [`crate::sweep::Point::run`] and pushes one row of named cells into its
//! [`crate::sweep::Sweep`]; flags, emitters and the model gate live in
//! [`crate::sweep`], and the `figures` binary and the six sweep examples
//! both dispatch through the table here.
//!
//! Every declaration comes in two profiles: [`Profile::Quick`] — a small
//! group (a = 6, d = 3, n = 216) and few trials, fast enough for unit tests
//! and CI smoke runs — and [`Profile::Paper`], the configuration of the
//! paper's evaluation (a = 22, d = 3, n = 10 648 for the reliability
//! figures), selected by `--paper`.

pub mod figures;
pub mod sweeps;

use crate::scenario::{Scenario, ScenarioBuilder};
use crate::sweep::Decl;

/// What `figures all` regenerates, in order.
pub const FIGURES: [&str; 7] = ["fig4", "fig5", "fig6", "fig7", "views", "baselines", "rounds"];

/// Every registered sweep: names, CSV file stem, whether `--check-model`
/// applies, declaration.  Figure 4 and `reliability_sweep` are one
/// declaration under two names.
pub static SWEEPS: [Decl; 12] = [
    Decl::new(&["fig4", "reliability_sweep"], "fig4_reliability", true, figures::reliability),
    Decl::new(&["fig5"], "fig5_uninterested", false, figures::spurious),
    Decl::new(&["fig6"], "fig6_scalability", false, figures::scalability),
    Decl::new(&["fig7"], "fig7_tuning", false, figures::tuning),
    Decl::new(&["views"], "view_sizes", false, figures::views),
    Decl::new(&["baselines"], "baseline_comparison", false, figures::baselines),
    Decl::new(&["rounds"], "rounds_bound", false, figures::rounds),
    Decl::new(&["partial_view_sweep"], "partial_view_sweep", true, sweeps::partial_views),
    Decl::new(&["churn_sweep"], "churn_sweep", true, sweeps::churn),
    Decl::new(&["adversarial_sweep"], "adversarial_sweep", true, sweeps::adversarial),
    Decl::new(&["scale_sweep"], "scale_sweep", true, sweeps::scale),
    Decl::new(&["topic_sweep"], "topic_sweep", false, sweeps::topics),
];

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small group, few trials: fast, used by tests and CI smoke runs.
    Quick,
    /// Paper-scale group and trial counts (minutes of runtime).
    Paper,
}

impl Profile {
    /// Base configuration for the reliability-style experiments
    /// (Figures 4, 5 and 7).
    pub fn reliability_base(self) -> ScenarioBuilder {
        match self {
            Profile::Quick => Scenario::quick().trials(3),
            Profile::Paper => Scenario::paper_reliability().trials(5),
        }
    }

    /// Base configuration for the scalability experiment (Figure 6); the
    /// arity is set per data point.
    pub fn scalability_base(self, arity: u32) -> ScenarioBuilder {
        match self {
            Profile::Quick => Scenario::quick()
                .group(arity, 3)
                .trials(3)
                .protocol(pmcast_core::PmcastConfig::paper_scalability()),
            Profile::Paper => Scenario::paper_scalability(arity).trials(5),
        }
    }

    /// The matching rates swept by the reliability experiments.
    pub fn matching_rates(self) -> Vec<f64> {
        match self {
            Profile::Quick => vec![0.1, 0.3, 0.5, 0.8],
            Profile::Paper => vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        }
    }

    /// The subgroup sizes swept by the scalability experiment.
    pub fn arities(self) -> Vec<u32> {
        match self {
            Profile::Quick => vec![4, 6, 8],
            Profile::Paper => vec![10, 15, 20, 25, 30, 35, 40],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Cell, Sweep};

    /// Runs a registered declaration at the quick profile, ungated.
    fn quick(name: &str) -> Sweep {
        let decl = SWEEPS.iter().find(|decl| decl.names.contains(&name)).expect("registered");
        let mut sweep = Sweep::new(decl.file, Profile::Quick, None);
        (decl.run)(&mut sweep);
        sweep
    }

    #[test]
    fn profiles_produce_consistent_configs() {
        let quick = Profile::Quick.reliability_base().build();
        assert_eq!(quick.group_size(), 216);
        let paper = Profile::Paper.reliability_base().build();
        assert_eq!(paper.group_size(), 10_648);
        assert_eq!(paper.protocol.redundancy, 3);
        assert_eq!(paper.protocol.fanout, 2);

        let scal = Profile::Paper.scalability_base(25).build();
        assert_eq!(scal.arity, 25);
        assert_eq!(scal.protocol.redundancy, 4);
        assert_eq!(scal.protocol.fanout, 3);
        let scal_quick = Profile::Quick.scalability_base(4).build();
        assert_eq!(scal_quick.group_size(), 64);
        assert_eq!(scal_quick.protocol.fanout, 3);

        assert!(Profile::Paper.matching_rates().len() > Profile::Quick.matching_rates().len());
        assert!(Profile::Paper.arities().len() > Profile::Quick.arities().len());
    }

    #[test]
    fn quick_profile_reproduces_the_figure_4_shape() {
        let table = quick("fig4");
        let rates = Profile::Quick.matching_rates();
        assert_eq!(table.rows.len(), rates.len());
        let value = |row, key| table.cell(row, key).value();
        // Delivery is high for comfortable matching rates (the paper's
        // headline claim) …
        let half = rates.iter().position(|rate| (rate - 0.5).abs() < 1e-9).unwrap();
        let at_half = value(half, "delivery_simulated");
        assert!(at_half > 0.85, "simulated delivery at p_d = 0.5 is only {at_half}");
        assert!(value(rates.len() - 1, "delivery_simulated") > 0.9);
        // … and the analytical model agrees with the simulation within a
        // coarse tolerance at the comfortable rates.
        assert!((at_half - value(half, "delivery_analytical")).abs() < 0.2);
        // Rows are ordered by matching rate.
        for row in 1..rates.len() {
            assert!(value(row - 1, "matching_rate") < value(row, "matching_rate"));
        }
    }

    #[test]
    fn pmcast_touches_far_fewer_uninterested_processes_than_flooding() {
        let table = quick("fig5");
        assert_eq!(table.rows.len(), Profile::Quick.matching_rates().len());
        let mut flooding_broadcasts = false;
        for row in 0..table.rows.len() {
            let pmcast = table.cell(row, "spurious_pmcast").value();
            let flooding = table.cell(row, "spurious_flooding").value();
            // pmcast's spurious reception stays well below flooding.  The
            // paper's Figure 5 peaks around 0.12 at a = 22 (delegate density
            // R/a = 3/22); the quick profile runs at a = 6 where half of
            // every subgroup are delegates, so its structural ceiling is
            // near R/a = 0.5 — hence the looser bound here.
            assert!(pmcast < 0.6, "pmcast spurious reception {pmcast} too high in row {row}");
            assert!(flooding > pmcast, "flooding should reach more uninterested (row {row})");
            flooding_broadcasts |= flooding > 0.9;
        }
        // Flooding is essentially a broadcast.
        assert!(flooding_broadcasts);
    }

    #[test]
    fn delivery_stays_high_as_the_group_grows() {
        let table = quick("fig6");
        let rows = Profile::Quick.arities().len();
        assert_eq!(table.rows.len(), rows);
        for row in 0..rows {
            let at_half = table.cell(row, "delivery_rate_05").value();
            let at_fifth = table.cell(row, "delivery_rate_02").value();
            assert!(at_half > 0.85, "row {row}: delivery at rate 0.5 is only {at_half}");
            assert!(at_fifth > 0.6, "row {row}: delivery at rate 0.2 is only {at_fifth}");
        }
        // Group size really grows cubically along the sweep.
        assert!(table.cell(rows - 1, "group_size").value() > table.cell(0, "group_size").value());
    }

    #[test]
    fn tuning_helps_small_matching_rates() {
        let table = quick("fig7");
        let rows = Profile::Quick.matching_rates().len();
        assert_eq!(table.rows.len(), rows);
        let value = |row, key| table.cell(row, key).value();
        // At the smallest swept rate the tuned variant must not be worse
        // (and is usually strictly better).
        let (tuned, original) = (value(0, "delivery_tuned"), value(0, "delivery_original"));
        assert!(
            tuned + 0.05 >= original,
            "tuned {tuned} vs original {original} at the smallest rate"
        );
        // At comfortable rates both variants deliver reliably.
        assert!(value(rows - 1, "delivery_original") > 0.9);
        assert!(value(rows - 1, "delivery_tuned") > 0.9);
        // The compromise: tuning never reduces spurious reception.
        for row in 0..rows {
            assert!(value(row, "spurious_tuned") + 1e-9 >= value(row, "spurious_original") - 0.05);
        }
    }

    #[test]
    fn measured_views_match_equation_2() {
        let table = quick("views");
        assert!(!table.rows.is_empty());
        let value = |row, key| table.cell(row, key).value();
        for row in 0..table.rows.len() {
            let measured = value(row, "measured_view_size");
            let analytical = value(row, "analytical_view_size");
            if measured > 0.0 {
                assert_eq!(measured, analytical, "row {row}: measured vs analytical view size");
            }
            // The tree always knows no more processes than flat membership.
            assert!(analytical <= value(row, "group_size"));
        }
        // For the largest quick configuration the reduction is substantial.
        assert!(value(table.rows.len() - 1, "reduction_factor") > 5.0);
    }

    #[test]
    fn pmcast_sits_between_flooding_and_genuine_multicast() {
        let table = quick("baselines");
        assert_eq!(table.rows.len(), 6);
        // One (pmcast, flooding, genuine) triple per matching rate.
        for first in [0, 3] {
            for (offset, name) in ["pmcast", "flooding", "genuine"].into_iter().enumerate() {
                assert_eq!(table.cell(first + offset, "protocol"), &Cell::Text(name.to_string()));
            }
            let value = |offset, key| table.cell(first + offset, key).value();
            let (pmcast, flooding, genuine) = (0, 1, 2);

            // All three deliver reliably to interested processes.
            assert!(value(pmcast, "delivery") > 0.7, "pmcast: {}", value(pmcast, "delivery"));
            assert!(value(flooding, "delivery") > 0.9);
            assert!(value(genuine, "delivery") > 0.7);

            // Spurious reception: flooding ≫ pmcast ≥ genuine (= 0).
            assert!(value(flooding, "spurious") > value(pmcast, "spurious"));
            assert_eq!(value(genuine, "spurious"), 0.0);

            // Network cost: flooding costs more than pmcast at partial interest.
            let (flood, pm) = (value(flooding, "messages"), value(pmcast, "messages"));
            assert!(flood > pm, "flooding {flood} vs pmcast {pm} messages from row {first}");
        }
    }

    #[test]
    fn simulated_rounds_stay_within_the_analytical_budget() {
        let table = quick("rounds");
        assert_eq!(table.rows.len(), Profile::Quick.matching_rates().len());
        for row in 0..table.rows.len() {
            let simulated = table.cell(row, "rounds_simulated").value();
            let budget = table.cell(row, "rounds_budget_tree").value();
            assert!(simulated > 0.0);
            assert!(budget > 0.0);
            // The protocol bounds gossiping by the analytical budget, so the
            // simulation cannot exceed it by more than the quiescence slack
            // (promotion happens one round after the budget expires at each
            // depth, plus one trailing delivery round).
            let slack = 2.0 * 3.0 + 2.0;
            assert!(simulated <= budget + slack, "row {row}: {simulated} vs budget {budget}");
            // Rounds grow logarithmically, not linearly, with the audience.
            assert!(budget < 80.0);
            assert!(table.cell(row, "rounds_flat_estimate").value().is_finite());
        }
    }
}
