use serde::{Deserialize, Serialize};

use pmcast_analysis::EnvParams;

/// The audience-inflation tuning of Section 5.3.
///
/// When the number of interested processes at a depth falls below the
/// threshold `h`, the first `h` processes of the view are treated as
/// interested in addition to the effectively interested ones, so that
/// Pittel's round estimate (which assumes a large audience) applies again.
/// This trades a higher rate of infected *non-interested* processes for a
/// better delivery probability at small matching rates (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuningConfig {
    /// Minimum audience `h` per depth.
    pub threshold: usize,
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self { threshold: 10 }
    }
}

/// Hard cap on the per-depth round budget, protecting against degenerate
/// estimates: an effective fanout near zero sends Pittel's estimate to
/// infinity.
pub(crate) const MAX_ROUNDS_PER_DEPTH: u32 = 64;

/// Configuration of the pmcast protocol (the parameters of Figure 3 plus
/// the environmental estimates of Section 3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmcastConfig {
    /// Redundancy factor `R`: delegates per subgroup.
    pub redundancy: usize,
    /// Gossip fanout `F`: targets contacted per buffered event per round.
    pub fanout: usize,
    /// Environmental estimates (message loss `ε`, crash fraction `τ`,
    /// Pittel constant `c`) used to compute per-depth round budgets.
    pub env: EnvParams,
    /// Optional audience-inflation tuning for small matching rates.
    pub tuning: Option<TuningConfig>,
    /// How the fanout draw decides which subtrees are worth gossiping into
    /// (defaults to [`InterestRouting::Oracle`], the paper's model).
    #[serde(default)]
    pub interest_routing: InterestRouting,
}

/// Strategy for the per-target interest decision of the `GOSSIP` task
/// (Figure 3, lines 10–14).
///
/// All three strategies share the oracle-based `GETRATE` and round budgets —
/// routing only changes *which* drawn targets receive the gossip, so the
/// three arms of a routing experiment spend identical round budgets and the
/// comparison isolates the routing decision itself.
///
/// Stream-neutrality: routing decisions are pure functions of the view and
/// the event — none of them consume randomness — so the three arms of one
/// scenario draw the same fanout targets from the same stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterestRouting {
    /// Consult the global interest oracle per target (the paper's model:
    /// every process knows the interests of its view).  The default.
    #[default]
    Oracle,
    /// Consult the membership provider's aggregated per-subtree
    /// [summaries](pmcast_membership::MembershipView::summary_allows):
    /// candidates whose subtree *provably* contains no interested process
    /// are skipped before the fanout draw, every drawn target is sent to.
    /// Degenerates to [`Blind`](Self::Blind) when the provider carries no
    /// summaries.
    Summary,
    /// Send to every drawn target unconditionally — the "no interest
    /// filtering" control arm of the routing experiment.
    Blind,
}

impl Default for PmcastConfig {
    fn default() -> Self {
        Self {
            redundancy: 3,
            fanout: 2,
            env: EnvParams::default(),
            tuning: None,
            interest_routing: InterestRouting::default(),
        }
    }
}

impl PmcastConfig {
    /// The configuration of the paper's scalability figure (Figure 6):
    /// `R = 4`, `F = 3`.
    pub fn paper_scalability() -> Self {
        Self {
            redundancy: 4,
            fanout: 3,
            ..Self::default()
        }
    }

    /// Sets the fanout, returning the config for chaining.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Enables the Section 5.3 tuning with the given threshold.
    pub fn with_tuning(mut self, threshold: usize) -> Self {
        self.tuning = Some(TuningConfig { threshold });
        self
    }

    /// Sets the interest-routing strategy, returning the config for
    /// chaining.
    pub fn with_interest_routing(mut self, routing: InterestRouting) -> Self {
        self.interest_routing = routing;
        self
    }

    /// Validates the configuration, panicking on nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` or `fanout` is zero.
    pub fn validate(&self) {
        assert!(self.redundancy >= 1, "redundancy R must be at least 1");
        assert!(self.fanout >= 1, "fanout F must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.env.loss_probability),
            "loss probability must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.env.crash_probability),
            "crash probability must lie in [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_reliability_setup() {
        let config = PmcastConfig::default();
        assert_eq!(config.redundancy, 3);
        assert_eq!(config.fanout, 2);
        assert!(config.tuning.is_none());
        config.validate();
    }

    #[test]
    fn scalability_preset() {
        let config = PmcastConfig::paper_scalability();
        assert_eq!(config.redundancy, 4);
        assert_eq!(config.fanout, 3);
        config.validate();
    }

    #[test]
    fn builder_methods_chain() {
        let lossless = EnvParams {
            loss_probability: 0.0,
            crash_probability: 0.0,
            pittel_constant: 1.0,
        };
        let config = PmcastConfig {
            redundancy: 5,
            env: lossless,
            ..PmcastConfig::default()
        }
        .with_fanout(4)
        .with_tuning(12);
        assert_eq!(config.redundancy, 5);
        assert_eq!(config.fanout, 4);
        assert_eq!(config.env, lossless);
        assert_eq!(config.tuning, Some(TuningConfig { threshold: 12 }));
        config.validate();
        assert_eq!(TuningConfig::default().threshold, 10);
    }

    #[test]
    #[should_panic(expected = "fanout F must be at least 1")]
    fn zero_fanout_is_rejected() {
        PmcastConfig::default().with_fanout(0).validate();
    }

    #[test]
    #[should_panic(expected = "redundancy R must be at least 1")]
    fn zero_redundancy_is_rejected() {
        PmcastConfig {
            redundancy: 0,
            ..PmcastConfig::default()
        }
        .validate();
    }

    #[test]
    fn serde_round_trip() {
        let config = PmcastConfig::paper_scalability().with_tuning(7);
        let json = serde_json::to_string(&config).unwrap();
        let back: PmcastConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        let summary = config.with_interest_routing(InterestRouting::Summary);
        let json = serde_json::to_string(&summary).unwrap();
        let back: PmcastConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.interest_routing, InterestRouting::Summary);
    }

    #[test]
    fn routing_defaults_to_oracle_in_old_configs() {
        // Configs serialized before the routing knob existed must keep
        // deserializing — and must route exactly as they always did.
        let json = r#"{
            "redundancy": 3, "fanout": 2,
            "env": {"loss_probability": 0.0, "crash_probability": 0.0, "pittel_constant": 2.0},
            "tuning": null
        }"#;
        let back: PmcastConfig = serde_json::from_str(json).unwrap();
        assert_eq!(back.interest_routing, InterestRouting::Oracle);
    }
}
