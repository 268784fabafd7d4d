//! The figures and claims of the paper's evaluation (Section 5), one
//! declaration each: what the `figures` binary regenerates.

use pmcast_analysis::{pittel, tree::TreeModel, GroupParams};
use pmcast_membership::{DelegateView, DelegateViewConfig};

use crate::runner::Protocol;
use crate::scenario::Scenario;
use crate::sweep::{col, Cell, Column, Point, Sweep};

use super::Profile;

/// A measured column of a figure table: headed by its key, four decimals.
fn fig(key: &str, value: f64) -> Column {
    col(key, key, Cell::Float(value, 4, 4))
}

/// The Section 4 tree model of a scenario's group and protocol.
fn tree_model(scenario: &Scenario) -> TreeModel {
    let group = GroupParams {
        arity: scenario.arity,
        depth: scenario.depth,
        redundancy: scenario.protocol.redundancy,
        fanout: scenario.protocol.fanout,
    };
    TreeModel::new(group, scenario.protocol.env)
}

/// **Figure 4** (also `reliability_sweep`) — probability that an
/// *interested* process delivers a multicast event, as a function of the
/// fraction of interested processes (`p_d`), for `n ≈ 10 000` (a = 22,
/// d = 3), `R = 3`, `F = 2`.
///
/// Each row carries the Monte-Carlo result of the full protocol
/// simulation, the tree model of Section 4 (`delivery_analytical`) and the
/// scenario-level closed loop ([`crate::prediction::predict`] over the same
/// point, `predicted`) — the column `--check-model` gates — so the two
/// halves of the reproduction cross-check.
pub fn reliability(sweep: &mut Sweep) {
    let base = sweep.profile.reliability_base();
    let built = base.clone().build();
    let model = tree_model(&built);
    let (profile, n) = (format!("{:?}", sweep.profile).to_lowercase(), built.group_size());
    sweep.title =
        format!("Figure 4 — delivery probability of interested processes ({profile}, n = {n})");
    for rate in sweep.profile.matching_rates() {
        let point = Point::run(&base.clone().matching_rate(rate).build(), Protocol::Pmcast);
        let (outcome, analytical) = (point.outcome, model.reliability(rate).reliability_degree);
        let ratio = |value| Cell::Float(value, 4, 4);
        sweep.row(vec![
            col("matching_rate", "matching rate", Cell::Axis(rate, 2)),
            col("delivery_simulated", "delivery (simulated)", ratio(outcome.delivery_mean)),
            col("delivery_std", "std dev", ratio(outcome.delivery_std)),
            col("delivery_analytical", "delivery (analytical)", ratio(analytical)),
            col("rounds", "rounds", Cell::Float(outcome.rounds_mean, 1, 1)),
            col("predicted", "predicted", point.predicted()),
        ]);
    }
}

/// **Figure 5** — probability that an *uninterested* process receives a
/// multicast event, as a function of the fraction of interested processes,
/// for the same configuration as Figure 4.
///
/// This is the metric that distinguishes a multicast from a broadcast: in a
/// flooding gossip broadcast (the second column; the paper discusses it
/// qualitatively in Section 1) this probability is close to 1 regardless
/// of `p_d`; pmcast keeps it low because only (delegates of) interested
/// subtrees are infected.
pub fn spurious(sweep: &mut Sweep) {
    let base = sweep.profile.reliability_base();
    sweep.title = "Figure 5 — reception probability of uninterested processes".to_string();
    for rate in sweep.profile.matching_rates() {
        let scenario = base.clone().matching_rate(rate).build();
        let pmcast = Point::run(&scenario, Protocol::Pmcast).outcome;
        let flooding = Point::run(&scenario, Protocol::FloodBroadcast).outcome;
        sweep.row(vec![
            fig("matching_rate", rate),
            fig("spurious_pmcast", pmcast.spurious_mean),
            fig("spurious_flooding", flooding.spurious_mean),
        ]);
    }
}

/// **Figure 6** — delivery probability as the group grows: the subgroup
/// size `a` is swept (so `n = a³` grows cubically) with `d = 3`, `R = 4`,
/// `F = 3`, for matching rates 0.5 and 0.2.
///
/// The paper's claim is that the delivery probability stays above ≈ 0.9
/// across the sweep, slightly lower for the smaller matching rate.
pub fn scalability(sweep: &mut Sweep) {
    sweep.title = "Figure 6 — scalability with growing subgroup size".to_string();
    for arity in sweep.profile.arities() {
        let base = sweep.profile.scalability_base(arity);
        let at_half = base.clone().matching_rate(0.5).build();
        let at_fifth = base.matching_rate(0.2).build();
        sweep.row(vec![
            col("arity", "arity", Cell::Int(arity.into())),
            col("group_size", "group_size", Cell::Int(at_half.group_size() as u64)),
            fig("delivery_rate_05", Point::run(&at_half, Protocol::Pmcast).outcome.delivery_mean),
            fig("delivery_rate_02", Point::run(&at_fifth, Protocol::Pmcast).outcome.delivery_mean),
        ]);
    }
}

/// The tuning threshold `h` used by the tuned runs of Figure 7.
pub const TUNING_THRESHOLD: usize = 12;

/// **Figure 7** — the effect of the Section 5.3 tuning (audience inflation
/// with threshold `h`) on the delivery probability, compared with the
/// untuned algorithm, over the same configuration as Figure 4.
///
/// The tuned curve should dominate the untuned one at small matching rates
/// and converge to it for comfortable rates — at the price of a higher
/// reception rate at uninterested processes, which the rows also record
/// (the compromise discussed in Section 5.3).
pub fn tuning(sweep: &mut Sweep) {
    let base = sweep.profile.reliability_base();
    sweep.title = "Figure 7 — tuned vs untuned algorithm".to_string();
    for rate in sweep.profile.matching_rates() {
        let untuned = base.clone().matching_rate(rate).build();
        let tuning = untuned.protocol.clone().with_tuning(TUNING_THRESHOLD);
        let tuned = base.clone().matching_rate(rate).protocol(tuning).build();
        let original = Point::run(&untuned, Protocol::Pmcast).outcome;
        let tuned = Point::run(&tuned, Protocol::Pmcast).outcome;
        sweep.row(vec![
            fig("matching_rate", rate),
            fig("delivery_original", original.delivery_mean),
            fig("delivery_tuned", tuned.delivery_mean),
            fig("spurious_original", original.spurious_mean),
            fig("spurious_tuned", tuned.spurious_mean),
        ]);
    }
}

/// **Membership scalability** (Equations 2 and 12) — the per-process view
/// size of pmcast compared with flat membership, analytically (reduction
/// factor `n / analytical_view_size`) and measured as the seated entries of
/// a bootstrapped [`DelegateView`], the tables the engines run.
pub fn views(sweep: &mut Sweep) {
    let redundancy = 3;
    let configurations: &[(u32, usize)] = match sweep.profile {
        Profile::Quick => &[(4, 2), (4, 3), (6, 3), (8, 3)],
        Profile::Paper => &[(10, 3), (15, 3), (22, 3), (30, 3), (40, 3), (22, 4)],
    };
    sweep.title = "Membership scalability — per-process view sizes (Eq. 2/12)".to_string();
    for &(arity, depth) in configurations {
        let report = pmcast_analysis::views::view_size_report(arity, depth, redundancy);
        // Groups up to 4 096 are materialised to cross-check the formula (else 0).
        let measured = if report.group_size <= 4_096 {
            let config = DelegateViewConfig::default().with_slots(redundancy);
            let view = DelegateView::bootstrap(arity, depth, config, 0);
            // Process 0's seated delegates and leaf neighbours over all
            // depths, plus itself (a table never stores its owner).
            let seated: usize = (1..=depth)
                .flat_map(|l| (0..arity as usize).map(move |g| (l, g)))
                .map(|(l, g)| view.live_delegates_of(0, l, g).len())
                .sum();
            seated + 1
        } else {
            0
        };
        let int = |key, value: usize| col(key, key, Cell::Int(value as u64));
        sweep.row(vec![
            int("arity", arity as usize),
            int("depth", depth),
            int("group_size", report.group_size),
            int("analytical_view_size", report.tree_view_size),
            int("measured_view_size", measured),
            fig("reduction_factor", report.reduction_factor),
        ]);
    }
}

/// **Baseline comparison** (Section 1 / 3.1) — pmcast versus gossip
/// broadcast with filtering on delivery and versus genuine multicast, at
/// matching rates 0.2 and 0.5: delivery reliability, spurious reception,
/// mean gossip messages per multicast and mean rounds to quiescence.
pub fn baselines(sweep: &mut Sweep) {
    let base = sweep.profile.reliability_base();
    sweep.title = "Baselines — pmcast vs flooding broadcast vs genuine multicast".to_string();
    let protocols = [
        ("pmcast", Protocol::Pmcast),
        ("flooding", Protocol::FloodBroadcast),
        ("genuine", Protocol::GenuineMulticast),
    ];
    for rate in [0.2, 0.5] {
        let scenario = base.clone().matching_rate(rate).build();
        for (name, protocol) in protocols {
            let outcome = Point::run(&scenario, protocol).outcome;
            sweep.row(vec![
                col("protocol", "protocol", Cell::Text(name.to_string())),
                fig("matching_rate", rate),
                fig("delivery", outcome.delivery_mean),
                fig("spurious", outcome.spurious_mean),
                fig("messages", outcome.messages_mean),
                fig("rounds", outcome.rounds_mean),
            ]);
        }
    }
}

/// **Round-count validation** (Equations 3, 11 and 13) — the number of
/// rounds the simulated protocol takes to go quiescent, compared with the
/// analytical budget `T_tot = Σ_i T_f(m_i·p_i, F·p_i)`.
///
/// The paper notes (Section 4.3) that thanks to the delegates already being
/// infected when a depth starts, the tree costs roughly as many rounds as a
/// flat group of the same size; the rows therefore also carry the flat
/// estimate `T_f(n·p_d, F·p_d)` (Equation 11) for comparison.
pub fn rounds(sweep: &mut Sweep) {
    let builder = sweep.profile.reliability_base();
    let base = builder.clone().build();
    let model = tree_model(&base);
    sweep.title = "Rounds — simulated rounds vs analytical budget (Eq. 13)".to_string();
    for rate in sweep.profile.matching_rates() {
        let scenario = builder.clone().matching_rate(rate).build();
        let flat = pittel::rounds_estimate_faulty(
            base.group_size() as f64 * rate,
            base.protocol.fanout as f64 * rate,
            &base.protocol.env,
        );
        sweep.row(vec![
            fig("matching_rate", rate),
            fig("rounds_simulated", Point::run(&scenario, Protocol::Pmcast).outcome.rounds_mean),
            fig("rounds_budget_tree", model.total_rounds(rate) as f64),
            fig("rounds_flat_estimate", flat),
        ]);
    }
}
