//! Closed-loop model of the *decentralized* configurations the simulator
//! actually runs: membership providers that bound what each process knows
//! (Section 2's delegate tables, lpbcast-style partial views) and churn
//! schedules that shrink the infectable population mid-dissemination.
//!
//! The plain [`TreeModel`] assumes every process
//! holds the full delegate table for its branch (the `Global` provider) and
//! a static environment.  [`DecentralizedModel`] generalizes both axes:
//!
//! * **Provider shape** — [`ProviderShape::Global`] is the tree model
//!   verbatim.  [`ProviderShape::Delegate`] caps the number of delegate
//!   slots a maintained view seats per node, which is exactly the tree model
//!   with `R_eff = min(slots, R)` (the simulator's delegate provider seats
//!   delegates per depth in table order, so `slots ≥ R` is `Global`).
//!   [`ProviderShape::Partial`] models flat bounded views of `ℓ` uniform
//!   entries: a depth-`i` gossiper only knows each of its `m_i − 1`
//!   audience peers with probability `c = ℓ/(n−1)`, so dissemination inside
//!   the view becomes percolation over a sparse fixed sample rather than a
//!   complete graph (see [`DecentralizedModel::predict`] for the recursion
//!   and its trust region).
//! * **Churn** — a [`ChurnProfile`] splits reliability into the survivor
//!   population (whose environment degrades by the mean dead-slot fraction,
//!   folded into an effective `τ`) and the departed fraction, which only
//!   retains the deliveries made *before* departure, estimated from a
//!   phase-structured delivery timeline ([`DecentralizedModel::delivery_cdf`]).
//!
//! A static profile reduces **bit-for-bit** to the static computation: the
//! churn branch is guarded by [`ChurnProfile::is_static`] before any
//! floating-point adjustment, so `predict` with `ChurnProfile::none()`
//! returns exactly what the underlying static model returns.

use crate::churn::{delivery_cdf, ChurnProfile};
use crate::tree::{infected_fraction, DepthPhase, TreeModel};
use crate::{views, EnvParams, GroupParams};

/// Which membership provider backs the views the protocol gossips over.
///
/// Mirrors the simulator's `MembershipSpec` (global tables, bounded partial
/// views, capped delegate tables) at the level of detail the analysis needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderShape {
    /// Full per-branch delegate tables: the paper's baseline assumption.
    Global,
    /// lpbcast-style flat views of `view_size` uniformly random entries.
    Partial {
        /// Number of membership entries (`ℓ`) each process maintains.
        view_size: usize,
    },
    /// Maintained Section 2 delegate tables with at most `slots` delegates
    /// seated per node (per depth).
    Delegate {
        /// Delegate seats per node; `slots ≥ R` is equivalent to `Global`.
        slots: usize,
    },
}

/// A [`TreeModel`] generalized over provider shape and churn.
#[derive(Debug, Clone, PartialEq)]
pub struct DecentralizedModel {
    /// Tree geometry and protocol fanout/redundancy.
    pub group: GroupParams,
    /// Static environment (loss `ε`, crash `τ`, Pittel constant `c`).
    pub env: EnvParams,
    /// Membership provider backing the gossip views.
    pub provider: ProviderShape,
    /// Mid-run departure schedule; [`ChurnProfile::none`] for static runs.
    pub churn: ChurnProfile,
    /// Section 5.3 audience-inflation threshold (`Some(h)` applies
    /// [`TreeModel::reliability_tuned`] semantics).
    pub tuning: Option<usize>,
}

/// Prediction produced by [`DecentralizedModel::predict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecentralizedReport {
    /// Predicted reliability degree over the *initial* interested
    /// population (departed processes count as undelivered, matching the
    /// simulator's report semantics).
    pub reliability: f64,
    /// Total round budget (sum of per-depth Pittel budgets).
    pub total_rounds: u32,
    /// Membership entries a process maintains under this provider.
    pub view_entries: usize,
    /// Reliability among processes that stay for the whole run.
    pub survivor_reliability: f64,
    /// Estimated fraction of departed processes that delivered before
    /// leaving (0 for static profiles).
    pub departed_credit: f64,
}

impl DecentralizedModel {
    /// A static, untuned model over the given provider.
    pub fn new(group: GroupParams, env: EnvParams, provider: ProviderShape) -> Self {
        Self {
            group,
            env,
            provider,
            churn: ChurnProfile::none(),
            tuning: None,
        }
    }

    /// Attaches a churn profile.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnProfile) -> Self {
        self.churn = churn;
        self
    }

    /// Enables the Section 5.3 audience-inflation tuning with threshold `h`.
    #[must_use]
    pub fn with_tuning(mut self, threshold: usize) -> Self {
        self.tuning = Some(threshold);
        self
    }

    /// Membership entries per process under this provider
    /// (Section 3.2's `m = R·a·(d−1) + a` for maintained tables).
    pub fn view_entries(&self) -> usize {
        match self.provider {
            ProviderShape::Global => {
                views::tree_view_size(self.group.arity, self.group.depth, self.group.redundancy)
            }
            ProviderShape::Partial { view_size } => view_size,
            ProviderShape::Delegate { slots } => views::tree_view_size(
                self.group.arity,
                self.group.depth,
                slots.min(self.group.redundancy).max(1),
            ),
        }
    }

    /// The effective tree geometry: `Delegate` caps the redundancy, the
    /// other providers keep it.
    fn effective_group(&self) -> GroupParams {
        match self.provider {
            ProviderShape::Delegate { slots } => GroupParams {
                redundancy: slots.min(self.group.redundancy).max(1),
                ..self.group
            },
            _ => self.group,
        }
    }

    /// Static reliability and per-depth budgets with the given environment.
    fn static_run(&self, matching_rate: f64, env: &EnvParams) -> (f64, Vec<u32>) {
        let group = self.effective_group();
        match self.provider {
            ProviderShape::Global | ProviderShape::Delegate { .. } => {
                let model = TreeModel::new(group, *env);
                let report = match self.tuning {
                    Some(threshold) => model.reliability_tuned(matching_rate, threshold),
                    None => model.reliability(matching_rate),
                };
                (report.reliability_degree, report.rounds_per_depth)
            }
            ProviderShape::Partial { view_size } => {
                self.partial_run(matching_rate, env, view_size)
            }
        }
    }

    /// Fixed-sample percolation recursion for flat bounded views.
    ///
    /// Per depth `i` the audience is the `m_i · p_i` interested entities of
    /// the depth's view, but a gossiper only *knows* each audience peer with
    /// probability `c = ℓ/(n−1)`, so its usable out-degree over the whole
    /// phase is `λ_i = min((m_i−1)·c·p_i, F·T_i) · (1−ε)(1−τ)`.  The
    /// reached fraction follows the branching-process recursion
    /// `y ← 1 − (1−σ)·e^{−λ·y}` iterated for the phase's `T_i` generations
    /// from the seeded fraction `σ`.
    ///
    /// **Trust region**: the simulator's lpbcast views are *re-gossiped*
    /// every round, so mid-percolation (`λ ≈ 1`) the fixed sample is too
    /// pessimistic and fresh-sample mixing too optimistic.  The model is
    /// validated at paper scale (`n ≥ 10⁴`), where views are sparse enough
    /// that re-gossip barely helps; small-`n` flat rows are out of the
    /// drift-gate domain (see `ARCHITECTURE.md`, invariant 9).
    fn partial_run(
        &self,
        matching_rate: f64,
        env: &EnvParams,
        view_size: usize,
    ) -> (f64, Vec<u32>) {
        let model = TreeModel::new(self.group, *env);
        let n = self.group.group_size() as f64;
        let connectivity = (view_size as f64 / (n - 1.0).max(1.0)).min(1.0);
        let fanout = self.group.fanout as f64;
        let report = model.walk_depths(matching_rate, |at| {
            let (_, rounds) = model.gossip_budget(at, self.tuning);
            let entities = at.view * at.interest;
            let fraction = if entities < 1.0 {
                entities.clamp(0.0, 1.0)
            } else {
                let known_peers = (at.view - 1.0) * connectivity * at.interest;
                let lambda = known_peers.min(fanout * rounds as f64) * env.survival_factor();
                let sigma = (at.seeds / entities).clamp(0.0, 1.0);
                let mut reached = sigma;
                for _ in 0..rounds {
                    reached = 1.0 - (1.0 - sigma) * (-lambda * reached).exp();
                }
                reached.clamp(0.0, 1.0)
            };
            DepthPhase { entities, rounds, fraction }
        });
        (report.reliability_degree, report.rounds_per_depth)
    }

    /// Phase-structured delivery timeline: `cdf[t]` is the estimated
    /// fraction of eventual deliveries complete `t` rounds after the
    /// publish.
    ///
    /// Unlike a flat mean-field curve over the whole group, the tree
    /// disseminates in *phases*: while depth `i < d` gossips, only the
    /// `R·aⁱ` delegates of depth-`i` nodes are being delivered to (≈ 14% of
    /// the paper-scale group across both inner depths); the leaf phase
    /// carries the rest.  Each phase contributes its population share,
    /// shaped by the mean-field curve of that depth's audience.
    pub fn delivery_cdf(&self, matching_rate: f64, rounds_per_depth: &[u32]) -> Vec<f64> {
        let group = self.effective_group();
        let model = TreeModel::new(group, self.env);
        let n = group.group_size() as f64;
        let redundancy = group.redundancy as f64;
        let fanout = group.fanout as f64;
        // Population share first delivered during each depth's phase.
        let mut shares = Vec::with_capacity(group.depth);
        let mut inner_total = 0.0f64;
        for depth in 1..group.depth {
            let share = (redundancy * (group.arity as f64).powi(depth as i32) / n)
                .min(1.0 - inner_total);
            shares.push(share);
            inner_total += share;
        }
        shares.push((1.0 - inner_total).max(0.0));
        let mut curve = vec![0.0];
        let mut delivered = 0.0f64;
        for (depth, (&rounds, &share)) in
            rounds_per_depth.iter().zip(shares.iter()).enumerate()
        {
            let audience =
                model.view_size(depth + 1) as f64 * model.interest_probability(matching_rate, depth + 1);
            let phase = delivery_cdf(audience.max(2.0), fanout, &self.env, rounds);
            // phase[0] = 0, phase[rounds] = 1: skip the leading zero so each
            // appended point advances one round.
            for &point in &phase[1..] {
                curve.push(delivered + share * point);
            }
            delivered += share;
        }
        if let Some(last) = curve.last_mut() {
            *last = 1.0;
        }
        curve
    }

    /// Predicts reliability for one matching rate.
    ///
    /// With churn, reliability over the initial interested population splits
    /// as `survivor · ((1−λ) + λ·credit)`: the survivor fraction `1−λ`
    /// delivers with the survivor reliability (computed with the dead-slot
    /// wastage folded into an effective `τ`), and the departed fraction `λ`
    /// only keeps the deliveries made before leaving.
    pub fn predict(&self, matching_rate: f64) -> DecentralizedReport {
        let matching_rate = matching_rate.clamp(0.0, 1.0);
        let (static_reliability, rounds_per_depth) = self.static_run(matching_rate, &self.env);
        let total_rounds: u32 = rounds_per_depth.iter().sum();
        let view_entries = self.view_entries();
        // Bit-for-bit contract: a static profile returns the static model's
        // numbers without any churn arithmetic touching them.
        if self.churn.is_static() {
            return DecentralizedReport {
                reliability: static_reliability,
                total_rounds,
                view_entries,
                survivor_reliability: static_reliability,
                departed_credit: 0.0,
            };
        }
        let departed = self.churn.departed_fraction();
        let wastage = self.churn.survivor_wastage(total_rounds);
        let degraded = EnvParams {
            crash_probability: 1.0
                - (1.0 - self.env.crash_probability) * (1.0 - wastage),
            ..self.env
        };
        // Survivors keep the round budgets the protocol computed from its
        // *configured* environment (the protocol does not know about the
        // churn), but gossip into a population where `wastage` of the slots
        // are dead on average.
        let survivor_reliability = self.survivor_run(matching_rate, &degraded, &rounds_per_depth);
        let cdf = self.delivery_cdf(matching_rate, &rounds_per_depth);
        let credit = self.churn.delivered_before_departure(&cdf);
        let reliability = (survivor_reliability
            * ((1.0 - departed) + departed * credit * static_reliability.max(0.0)))
        .clamp(0.0, 1.0);
        DecentralizedReport {
            reliability,
            total_rounds,
            view_entries,
            survivor_reliability,
            departed_credit: credit,
        }
    }

    /// Static reliability with a degraded environment but the *original*
    /// round budgets (the protocol's budgets come from its configured
    /// environment, not the churned one).
    fn survivor_run(
        &self,
        matching_rate: f64,
        degraded: &EnvParams,
        rounds_per_depth: &[u32],
    ) -> f64 {
        match self.provider {
            ProviderShape::Global | ProviderShape::Delegate { .. } => {
                let group = self.effective_group();
                let fanout = group.fanout as f64;
                TreeModel::new(group, *degraded)
                    .walk_depths(matching_rate, |at| {
                        let entities = at.view * at.interest;
                        let rounds = rounds_per_depth.get(at.depth - 1).copied().unwrap_or(0);
                        let fraction =
                            infected_fraction(entities, fanout, degraded, rounds, at.seeds);
                        DepthPhase { entities, rounds, fraction }
                    })
                    .reliability_degree
            }
            ProviderShape::Partial { view_size } => {
                self.partial_run(matching_rate, degraded, view_size).0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_group() -> GroupParams {
        GroupParams {
            arity: 22,
            depth: 3,
            redundancy: 3,
            fanout: 2,
        }
    }

    fn quick_group() -> GroupParams {
        GroupParams {
            arity: 6,
            depth: 3,
            redundancy: 3,
            fanout: 2,
        }
    }

    #[test]
    fn global_provider_is_the_tree_model_bit_for_bit() {
        let group = paper_group();
        let env = EnvParams::default();
        let model = DecentralizedModel::new(group, env, ProviderShape::Global);
        let tree = TreeModel::new(group, env);
        for rate in [0.1, 0.35, 0.5, 1.0] {
            let lhs = model.predict(rate);
            let rhs = tree.reliability(rate);
            assert_eq!(lhs.reliability, rhs.reliability_degree);
            assert_eq!(lhs.total_rounds, rhs.total_rounds);
            let tuned = model.clone().with_tuning(10).predict(rate);
            assert_eq!(
                tuned.reliability,
                tree.reliability_tuned(rate, 10).reliability_degree
            );
        }
    }

    #[test]
    fn delegate_provider_caps_redundancy() {
        let env = EnvParams::default();
        let group = paper_group();
        let full = DecentralizedModel::new(group, env, ProviderShape::Delegate { slots: 3 });
        let global = DecentralizedModel::new(group, env, ProviderShape::Global);
        assert_eq!(full.predict(0.5).reliability, global.predict(0.5).reliability);
        let r1 = DecentralizedModel::new(group, env, ProviderShape::Delegate { slots: 1 });
        let r2 = DecentralizedModel::new(group, env, ProviderShape::Delegate { slots: 2 });
        let (p1, p2, p3) = (
            r1.predict(0.5).reliability,
            r2.predict(0.5).reliability,
            full.predict(0.5).reliability,
        );
        assert!(p1 <= p2 + 1e-9 && p2 <= p3 + 1e-9, "{p1} {p2} {p3}");
        assert!(p1 > 0.9, "R=1 should still mostly work: {p1}");
        // m = R·a·(d−1) + a with R capped at 1 → 1·22·2 + 22 = 66.
        assert_eq!(r1.view_entries(), 66);
    }

    #[test]
    fn partial_views_degrade_with_sparsity() {
        let env = EnvParams::default();
        let group = paper_group();
        let at = |entries: usize| {
            DecentralizedModel::new(group, env, ProviderShape::Partial { view_size: entries })
                .predict(0.5)
                .reliability
        };
        let sparse = at(154);
        let mid = at(512);
        let dense = at(8_000);
        assert!(sparse < mid && mid < dense, "{sparse} {mid} {dense}");
        // Calibration anchors from the committed partial-view sweep: the
        // ℓ=512 row simulates at ≈ 0.36 at paper scale.
        assert!((mid - 0.36).abs() < 0.10, "ℓ=512 predicted {mid}");
        assert!(sparse < 0.15, "ℓ=154 predicted {sparse}");
    }

    #[test]
    fn static_churn_profile_is_bitwise_static() {
        let env = EnvParams::default();
        let model = DecentralizedModel::new(quick_group(), env, ProviderShape::Global);
        let churned = model.clone().with_churn(ChurnProfile::from_departures([(3, 0.0)]));
        let lhs = model.predict(0.5);
        let rhs = churned.predict(0.5);
        assert_eq!(lhs.reliability.to_bits(), rhs.reliability.to_bits());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn churn_costs_roughly_the_departed_fraction() {
        let env = EnvParams::default();
        let base = DecentralizedModel::new(quick_group(), env, ProviderShape::Global);
        let static_reliability = base.predict(0.5).reliability;
        let mut previous = static_reliability;
        for rate in [0.05, 0.10, 0.20] {
            let spread = (0..5).map(|i| (2 + i as u32, rate / 5.0));
            let churned = base
                .clone()
                .with_churn(ChurnProfile::from_departures(spread))
                .predict(0.5);
            assert!(churned.reliability < previous);
            // Early leavers keep almost no credit, so the drop is close to
            // the full departed fraction.
            let floor = static_reliability * (1.0 - rate) * 0.9;
            assert!(churned.reliability > floor, "rate {rate}: {churned:?}");
            previous = churned.reliability;
        }
    }

    #[test]
    fn late_departures_cost_less_than_early_ones() {
        let env = EnvParams::default();
        let base = DecentralizedModel::new(paper_group(), env, ProviderShape::Global);
        let early = base
            .clone()
            .with_churn(ChurnProfile::from_departures([(2, 0.1)]))
            .predict(0.5);
        let late = base
            .clone()
            .with_churn(ChurnProfile::from_departures([(40, 0.1)]))
            .predict(0.5);
        assert!(late.reliability > early.reliability);
        assert!(late.departed_credit > 0.99, "{late:?}");
    }

    #[test]
    fn phase_cdf_shows_the_leaf_hump() {
        let env = EnvParams::default();
        let model = DecentralizedModel::new(paper_group(), env, ProviderShape::Global);
        let report = model.predict(0.5);
        let tree = TreeModel::new(paper_group(), env);
        let rounds: Vec<u32> = (1..=3).map(|d| tree.rounds_at_depth(0.5, d)).collect();
        let cdf = model.delivery_cdf(0.5, &rounds);
        assert_eq!(cdf.len() as u32, report.total_rounds + 1);
        assert_eq!(cdf[0], 0.0);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        for pair in cdf.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12);
        }
        // Inner depths only deliver to R·(a + a²) of the a³ processes
        // (≈ 14% at paper scale): the curve must still be low when the leaf
        // phase starts.
        let inner_rounds: u32 = rounds[..2].iter().sum();
        let at_leaf_start = cdf[inner_rounds as usize];
        assert!(
            at_leaf_start < 0.2,
            "inner phases delivered {at_leaf_start}"
        );
    }
}
