//! The analysis↔simulation closed loop: map any built [`Scenario`] to the
//! prediction of the analytical model, and gate simulated results against
//! it.
//!
//! [`predict`] inspects the scenario's membership provider, churn schedules
//! and fault axes and builds the matching [`DecentralizedModel`]:
//! the model's provider shape comes from [`MembershipSpec`], the churn
//! profile from the leave/crash schedules (offsets relative to the earliest
//! publish round), `ε` from the scenario's loss probability and `τ` from
//! its initial crash fraction.  Prediction is **read-only**: it consumes no
//! randomness and never touches the scenario's seed streams, so adding a
//! predicted column to a sweep cannot perturb a single simulated bit.
//!
//! Not every scenario is inside the model's domain.  The prediction carries
//! an explicit [`ModelPrediction::in_domain`] flag, and [`DriftGate`] only
//! gates in-domain rows — see `ARCHITECTURE.md` invariant 9 for the
//! contract (what the model must track, what it may ignore, and the
//! tolerance policy per scale).  Out-of-domain scenarios are:
//!
//! * any active fault axis (link delay, partitions, subtree loss,
//!   stragglers) — the analysis assumes a uniform-loss network;
//! * join schedules (flash crowds) — the model only shrinks populations;
//! * flat partial views below `n = 10⁴` — the fixed-sample percolation
//!   model is validated at paper scale, while small dense groups are
//!   dominated by lpbcast's per-round view re-gossip (the
//!   [`ModelPrediction::tolerance_scale`] doubles the budget for in-domain
//!   flat rows for the same reason);
//! * matching rates below `1/a` — the expected interested audience of a
//!   leaf view drops under one entity, the regime where Equation 15
//!   degenerates and the model reads "fizzle" while the protocol's
//!   interest-filtered targeting (and the Section 5.3 tuning) keeps
//!   delivering.

use pmcast_analysis::churn::ChurnProfile;
use pmcast_analysis::decentralized::{DecentralizedModel, DecentralizedReport, ProviderShape};
use pmcast_analysis::{EnvParams, GroupParams};

use crate::scenario::{MembershipSpec, Scenario};

/// Smallest group size at which flat partial-view rows are inside the
/// model's trust region (see the module docs).
pub const PARTIAL_VIEW_DOMAIN_FLOOR: usize = 10_000;

/// The analytical prediction for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPrediction {
    /// Predicted reliability degree (delivered fraction of the initially
    /// interested population).
    pub reliability: f64,
    /// Predicted total round budget (sum of per-depth Pittel budgets).
    pub rounds: u32,
    /// Membership entries per process under the scenario's provider.
    pub view_entries: usize,
    /// Whether the scenario lies inside the model's validated domain; only
    /// in-domain predictions are gated by [`DriftGate`].
    pub in_domain: bool,
    /// Multiplier on the drift tolerance for this row (1.0 normally, 2.0
    /// for flat partial-view rows — see the module docs).
    pub tolerance_scale: f64,
}

/// Builds the churn profile of a scenario: leave and crash schedules
/// grouped by round offset after the earliest publish, as fractions of the
/// initial population.
fn churn_profile(scenario: &Scenario) -> ChurnProfile {
    let initial = scenario.group_size().max(1) as f64;
    let publish_round = scenario
        .publications
        .iter()
        .map(|publication| publication.round)
        .min()
        .unwrap_or(0);
    let mut by_offset: Vec<(u32, f64)> = Vec::new();
    let mut add = |round: u64| {
        let offset = round.saturating_sub(publish_round).min(u32::MAX as u64) as u32;
        match by_offset.iter_mut().find(|(at, _)| *at == offset) {
            Some((_, fraction)) => *fraction += 1.0 / initial,
            None => by_offset.push((offset, 1.0 / initial)),
        }
    };
    for &(round, _) in &scenario.leave_schedule {
        add(round);
    }
    for &(round, _) in &scenario.crash_schedule {
        add(round);
    }
    ChurnProfile::from_departures(by_offset)
}

/// Maps a scenario onto the analytical model and predicts its outcome.
///
/// See the module docs for the mapping and the domain rules.  The
/// prediction is deterministic and side-effect free.
pub fn predict(scenario: &Scenario) -> ModelPrediction {
    let group = GroupParams {
        arity: scenario.arity,
        depth: scenario.depth,
        redundancy: scenario.protocol.redundancy,
        fanout: scenario.protocol.fanout,
    };
    // The model sees the *actual* environment the trial runs under (the
    // scenario's loss and initially-crashed fraction); only the Pittel
    // constant comes from the protocol's configured estimates, because the
    // round budgets do.
    let env = EnvParams {
        loss_probability: scenario.loss_probability,
        crash_probability: scenario.crash_fraction,
        pittel_constant: scenario.protocol.env.pittel_constant,
    };
    let provider = match scenario.membership {
        MembershipSpec::Global => ProviderShape::Global,
        MembershipSpec::Partial { view_size } => ProviderShape::Partial { view_size },
        MembershipSpec::Delegate { slots } => ProviderShape::Delegate { slots },
    };
    let mut model = DecentralizedModel::new(group, env, provider)
        .with_churn(churn_profile(scenario));
    if let Some(tuning) = &scenario.protocol.tuning {
        model = model.with_tuning(tuning.threshold);
    }
    let report: DecentralizedReport = model.predict(scenario.matching_rate);
    let faultless = scenario.fault_plan().is_neutral();
    let no_flash_crowd = scenario.join_schedule.is_empty();
    // The analytical model knows one audience per trial; a multi-topic
    // workload disseminates many overlapping audiences concurrently, which
    // the single-matching-rate reliability formula does not describe.
    let no_topics = scenario.topics.is_none();
    // Below one expected interested entity per leaf view the model
    // degenerates (see the module docs).
    let audience_in_domain = scenario.arity as f64 * scenario.matching_rate >= 1.0;
    let (provider_in_domain, tolerance_scale) = match provider {
        ProviderShape::Partial { .. } => (
            scenario.capacity() >= PARTIAL_VIEW_DOMAIN_FLOOR,
            2.0,
        ),
        _ => (true, 1.0),
    };
    ModelPrediction {
        reliability: report.reliability,
        rounds: report.total_rounds,
        view_entries: report.view_entries,
        in_domain: faultless
            && no_flash_crowd
            && no_topics
            && audience_in_domain
            && provider_in_domain,
        tolerance_scale,
    }
}

/// Collects predicted-vs-simulated pairs and turns them into a pass/fail
/// verdict at a given absolute reliability tolerance — what
/// [`crate::sweep::Sweep`] records every pmcast point into under
/// `--check-model <tolerance>`.
#[derive(Debug, Clone)]
pub struct DriftGate {
    tolerance: f64,
    checked: usize,
    skipped: usize,
    failures: Vec<String>,
}

impl DriftGate {
    /// A gate with the given absolute reliability tolerance.
    pub fn new(tolerance: f64) -> Self {
        Self {
            tolerance,
            checked: 0,
            skipped: 0,
            failures: Vec::new(),
        }
    }

    /// Records one predicted-vs-simulated pair.  Out-of-domain predictions
    /// are counted but never fail the gate; in-domain rows fail when the
    /// absolute reliability error exceeds the tolerance times the row's
    /// [`ModelPrediction::tolerance_scale`].
    pub fn record(&mut self, label: &str, prediction: &ModelPrediction, simulated: f64) {
        if !prediction.in_domain {
            self.skipped += 1;
            return;
        }
        self.checked += 1;
        let budget = self.tolerance * prediction.tolerance_scale;
        let error = (prediction.reliability - simulated).abs();
        if error > budget {
            self.failures.push(format!(
                "{label}: predicted {:.4} vs simulated {simulated:.4} (|err| {error:.4} > {budget:.4})",
                prediction.reliability
            ));
        }
    }

    /// `Ok` when at least one in-domain row was gated and all were within
    /// budget; otherwise an error message listing each drifting row, or
    /// saying that nothing was checked — a prediction bug that declares
    /// every row out of domain must not turn the gate green.
    pub fn verdict(&self) -> Result<(), String> {
        if self.checked == 0 {
            Err(format!(
                "model check gated no in-domain row ({} skipped): nothing was verified",
                self.skipped
            ))
        } else if self.failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "model drift: {} of {} gated rows exceed tolerance {}\n  {}",
                self.failures.len(),
                self.checked,
                self.tolerance,
                self.failures.join("\n  ")
            ))
        }
    }

    /// One-line summary for sweep footers.
    pub fn summary(&self) -> String {
        format!(
            "model check: {} rows gated at |err| <= {}, {} out-of-domain rows skipped",
            self.checked, self.tolerance, self.skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Protocol;

    #[test]
    fn prediction_consumes_no_randomness_and_matches_quick_sim() {
        let scenario = Scenario::builder().group(6, 3).loss(0.01).trials(3).seed(42).build();
        let prediction = predict(&scenario);
        assert!(prediction.in_domain);
        assert_eq!(prediction.tolerance_scale, 1.0);
        let outcomes = scenario.run(Protocol::Pmcast);
        let simulated = crate::runner::AggregateOutcome::from_trials(&outcomes).delivery_mean;
        assert!(
            (prediction.reliability - simulated).abs() < 0.08,
            "predicted {} vs simulated {simulated}",
            prediction.reliability
        );
    }

    #[test]
    fn fault_axes_leave_the_domain() {
        let base = Scenario::builder().group(4, 2);
        assert!(predict(&base.clone().build()).in_domain);
        assert!(!predict(&base.clone().partition(2, 4, 2).build()).in_domain);
        assert!(!predict(&base.clone().link_delay(1, 2).build()).in_domain);
        assert!(!predict(&base.clone().subtree_loss(&[1], 0.2).build()).in_domain);
        assert!(!predict(&base.clone().straggler(3, 2).build()).in_domain);
        assert!(!predict(&base.clone().join_at(3, 7).build()).in_domain);
        // Multi-topic traffic is out of the single-audience model's domain.
        use crate::scenario::TopicWorkload;
        let topical = base.clone().topics(TopicWorkload::new(4, 1, 10)).build();
        assert!(!predict(&topical).in_domain);
    }

    #[test]
    fn sub_entity_leaf_audiences_are_out_of_domain() {
        // a = 6: below p_d = 1/6 the expected interested audience of a leaf
        // view drops under one entity and the model degenerates.
        let at = |rate: f64| predict(&Scenario::builder().group(6, 3).matching_rate(rate).build());
        assert!(!at(0.1).in_domain);
        assert!(at(0.3).in_domain);
        // The paper-scale tree (a = 22) keeps p_d = 0.1 in domain.
        let paper = predict(&Scenario::builder().group(22, 3).matching_rate(0.1).build());
        assert!(paper.in_domain);
    }

    #[test]
    fn small_flat_views_are_out_of_domain_but_paper_scale_is_in() {
        let quick = Scenario::builder()
            .group(6, 3)
            .membership(MembershipSpec::partial(42))
            .build();
        let prediction = predict(&quick);
        assert!(!prediction.in_domain);
        assert_eq!(prediction.view_entries, 42);
        let paper = Scenario::builder()
            .group(22, 3)
            .membership(MembershipSpec::partial(512))
            .build();
        let at_paper = predict(&paper);
        assert!(at_paper.in_domain);
        assert_eq!(at_paper.tolerance_scale, 2.0);
    }

    #[test]
    fn churn_schedules_become_departure_fractions() {
        let mut builder = Scenario::builder().group(6, 3);
        // 10% of 216 leaving at rounds 2..=6.
        let mut index = 0;
        for round in 2..=6u64 {
            for _ in 0..4 {
                builder = builder.leave_at(round, index);
                index += 1;
            }
        }
        let scenario = builder.build();
        let churned = predict(&scenario);
        let static_prediction = predict(&Scenario::builder().group(6, 3).build());
        assert!(churned.in_domain);
        assert!(churned.reliability < static_prediction.reliability - 0.05);
    }

    #[test]
    fn drift_gate_passes_within_tolerance_and_fails_beyond() {
        let scenario = Scenario::builder().group(6, 3).loss(0.01).build();
        let prediction = predict(&scenario);
        let mut gate = DriftGate::new(0.05);
        gate.record("close", &prediction, prediction.reliability + 0.01);
        assert_eq!(gate.checked, 1);
        assert!(gate.verdict().is_ok());
        // A gate with an absurdly tight tolerance must actually fail: this
        // is the test that the `--check-model` machinery can say "no".
        let mut tight = DriftGate::new(1e-9);
        tight.record("drift", &prediction, prediction.reliability + 0.02);
        let verdict = tight.verdict();
        assert!(verdict.is_err());
        assert!(verdict.unwrap_err().contains("drift"));
    }

    #[test]
    fn out_of_domain_rows_never_fail_the_gate_but_cannot_pass_it_alone() {
        let faulted = Scenario::builder().group(4, 2).partition(2, 4, 2).build();
        let mut gate = DriftGate::new(1e-9);
        gate.record("faulted", &predict(&faulted), 0.0);
        assert_eq!(gate.checked, 0);
        assert_eq!(gate.skipped, 1);
        // A gate that gated nothing has verified nothing: it must not pass.
        assert!(gate.verdict().unwrap_err().contains("no in-domain row"));
        // Next to an in-domain row that holds, the skipped row is harmless.
        let prediction = predict(&Scenario::builder().group(4, 2).build());
        gate.record("exact", &prediction, prediction.reliability);
        assert!(gate.verdict().is_ok());
    }

    #[test]
    fn flat_rows_get_twice_the_budget() {
        let paper = Scenario::builder()
            .group(22, 3)
            .membership(MembershipSpec::partial(512))
            .build();
        let prediction = predict(&paper);
        let mut gate = DriftGate::new(0.05);
        // An error of 0.08 fits in the doubled (0.10) flat budget …
        gate.record("flat", &prediction, prediction.reliability + 0.08);
        assert!(gate.verdict().is_ok());
        // … but not in a 0.03 base budget (0.06 doubled).
        let mut tight = DriftGate::new(0.03);
        tight.record("flat", &prediction, prediction.reliability + 0.08);
        assert!(tight.verdict().is_err());
    }
}
