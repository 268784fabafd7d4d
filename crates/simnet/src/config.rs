use crate::FaultPlan;

/// Failure injection plan: which processes crash, and when.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum CrashPlan {
    /// Nobody crashes.
    #[default]
    None,
    /// Crash a uniformly random fraction `τ` of the processes before the
    /// run starts (the paper's model: `τ = f / n` crash "during the run";
    /// crashing them up-front is the pessimistic variant).
    InitialFraction(f64),
    /// Crash the listed process indices at the listed rounds.
    Scheduled(Vec<(u64, usize)>),
    /// Both failure models combined: crash a uniformly random fraction
    /// before the run starts **and** the listed process indices at the
    /// listed rounds (churn scenarios layering planned crashes on top of
    /// the paper's initial-crash model).
    Mixed {
        /// Fraction `τ` of processes crashed before the run starts.
        fraction: f64,
        /// `(round, process index)` pairs crashed during the run.
        schedule: Vec<(u64, usize)>,
    },
}


/// Configuration of the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Probability `ε` that any message is lost in transit.
    pub loss_probability: f64,
    /// Failure injection plan.
    pub crash_plan: CrashPlan,
    /// Adversarial structured faults layered on the uniform `ε`/`τ` model
    /// (the empty default plan reproduces it exactly; see
    /// [`FaultPlan`]).
    pub fault_plan: FaultPlan,
    /// PRNG seed making the run reproducible.
    pub seed: u64,
}

impl NetworkConfig {
    /// A perfectly reliable network (no loss, no crashes) with the given
    /// seed — useful for tests where only the protocol's own randomness
    /// matters.
    pub fn reliable(seed: u64) -> Self {
        Self {
            loss_probability: 0.0,
            crash_plan: CrashPlan::None,
            fault_plan: FaultPlan::default(),
            seed,
        }
    }

    /// Sets the loss probability, returning the config for chaining.
    pub fn with_loss(mut self, loss_probability: f64) -> Self {
        self.loss_probability = loss_probability;
        self
    }

    /// Sets the seed, returning the config for chaining.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every numeric field for validity, panicking with a
    /// descriptive message on the first violation.
    ///
    /// [`crate::Simulation`] calls this before constructing the network, so
    /// a bad configuration fails fast at build time instead of producing a
    /// silently meaningless run.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss_probability),
            "loss_probability must lie in [0, 1], got {}",
            self.loss_probability
        );
        match &self.crash_plan {
            CrashPlan::InitialFraction(fraction) | CrashPlan::Mixed { fraction, .. } => {
                assert!(
                    (0.0..=1.0).contains(fraction),
                    "crash fraction must lie in [0, 1], got {fraction}"
                );
            }
            CrashPlan::None | CrashPlan::Scheduled(_) => {}
        }
        self.fault_plan.validate();
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::reliable(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::tests::lossy_range;

    /// The paper's environment: loss `ε` and an initial crashed fraction `τ`.
    fn faulty(loss_probability: f64, crash_fraction: f64, seed: u64) -> NetworkConfig {
        NetworkConfig {
            loss_probability,
            crash_plan: CrashPlan::InitialFraction(crash_fraction),
            ..NetworkConfig::reliable(seed)
        }
    }

    fn crashing(crash_plan: CrashPlan) -> NetworkConfig {
        NetworkConfig {
            crash_plan,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn constructors_and_builders() {
        let reliable = NetworkConfig::reliable(7);
        assert_eq!(reliable.loss_probability, 0.0);
        assert_eq!(reliable.crash_plan, CrashPlan::None);
        assert_eq!(reliable.seed, 7);

        let chained = NetworkConfig::default().with_loss(0.2).with_seed(9);
        assert_eq!(chained.loss_probability, 0.2);
        assert_eq!(chained.seed, 9);
        assert_eq!(chained.crash_plan, CrashPlan::None);
        assert_eq!(CrashPlan::default(), CrashPlan::None);
    }

    #[test]
    fn validate_accepts_boundary_probabilities() {
        faulty(0.0, 0.0, 1).validate();
        faulty(1.0, 1.0, 1).validate();
        crashing(CrashPlan::Mixed {
            fraction: 0.5,
            schedule: vec![(2, 0)],
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "loss_probability must lie in [0, 1]")]
    fn validate_rejects_loss_probability_above_one() {
        NetworkConfig::default().with_loss(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "loss_probability must lie in [0, 1]")]
    fn validate_rejects_negative_loss_probability() {
        NetworkConfig::default().with_loss(-0.1).validate();
    }

    #[test]
    #[should_panic(expected = "crash fraction must lie in [0, 1]")]
    fn validate_rejects_crash_fraction_above_one() {
        crashing(CrashPlan::InitialFraction(1.01)).validate();
    }

    #[test]
    #[should_panic(expected = "crash fraction must lie in [0, 1]")]
    fn validate_rejects_negative_mixed_crash_fraction() {
        crashing(CrashPlan::Mixed {
            fraction: -0.2,
            schedule: Vec::new(),
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "loss-override probability")]
    fn validate_checks_the_fault_plan_too() {
        NetworkConfig {
            fault_plan: lossy_range(0, 4, 1.5),
            ..NetworkConfig::default()
        }
        .validate();
    }
}
