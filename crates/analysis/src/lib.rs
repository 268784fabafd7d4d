//! # pmcast-analysis — stochastic analysis of Probabilistic Multicast
//!
//! This crate implements Section 4 of *Probabilistic Multicast* (Eugster &
//! Guerraoui, DSN 2002): the analytical machinery that both drives the
//! protocol's *bound gossiping* (the number of rounds an event is gossiped
//! at each depth, Section 3.3) and predicts its reliability.
//!
//! * [`pittel`] — Pittel's asymptote for the number of rounds needed to
//!   infect a group by gossiping (Equation 3) and its loss/crash-adjusted
//!   variant (Equation 11).
//! * [`markov`] — the flat-group infection Markov chain (Equations 8–10):
//!   the exact distribution of the number of infected processes after a
//!   given number of gossip rounds.
//! * [`tree`] — the per-depth propagation model in a regular tree
//!   (Equations 5, 7, 12–18), culminating in the expected *reliability
//!   degree*: the expected fraction of interested processes that deliver a
//!   multicast event.
//! * [`views`] — the membership-scalability model (Equations 2 and 12):
//!   per-process view sizes as a function of `a`, `d` and `R`.
//! * [`churn`] — population-level departure schedules (graceful leaves and
//!   crashes at given round offsets) and the delivery-timeline credit a
//!   departing process keeps.
//! * [`decentralized`] — the closed-loop model of the simulator's
//!   decentralized configurations: membership providers (global tables,
//!   capped delegate tables, flat partial views) layered with churn.
//!
//! The protocol crate (`pmcast-core`) uses [`pittel`] at run time; the
//! simulation harness (`pmcast-sim`) compares its Monte-Carlo results with
//! the predictions produced here.
//!
//! ## Example
//!
//! ```rust
//! use pmcast_analysis::{tree::TreeModel, EnvParams, GroupParams};
//!
//! // The configuration of the paper's Figure 4: n ≈ 10 000 (a = 22, d = 3).
//! let group = GroupParams { arity: 22, depth: 3, redundancy: 3, fanout: 2 };
//! let env = EnvParams::default();
//! let model = TreeModel::new(group, env);
//! let report = model.reliability(0.5);
//! // Half the group being interested, delivery should be very likely.
//! assert!(report.reliability_degree > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binomial;
pub mod churn;
pub mod decentralized;
pub mod markov;
pub mod pittel;
pub mod tree;
pub mod views;

use serde::{Deserialize, Serialize};

/// The shape of a regular pmcast group: `n = a^d` processes, `R` delegates
/// per subgroup, fanout `F`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupParams {
    /// Number of subgroups per level (`a`).
    pub arity: u32,
    /// Tree depth (`d`).
    pub depth: usize,
    /// Redundancy factor: delegates per subgroup (`R`).
    pub redundancy: usize,
    /// Gossip fanout (`F`).
    pub fanout: usize,
}

impl GroupParams {
    /// Total number of processes `n = a^d`.
    pub fn group_size(&self) -> usize {
        (self.arity as usize).pow(self.depth as u32)
    }
}

/// Environmental parameters of the analysis model (Section 4.1): message
/// loss probability `ε` and crash fraction `τ = f / n`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvParams {
    /// Probability that a gossip message is lost in transit (`ε`).
    pub loss_probability: f64,
    /// Probability that a process crashes during the run (`τ`).
    pub crash_probability: f64,
    /// The additive constant `c` of Pittel's asymptote (Equation 3);
    /// conservative values improve reliability at the cost of extra rounds.
    pub pittel_constant: f64,
}

impl Default for EnvParams {
    fn default() -> Self {
        Self {
            loss_probability: 0.01,
            crash_probability: 0.001,
            pittel_constant: 1.0,
        }
    }
}

impl EnvParams {
    /// The combined survival factor `(1 − ε)(1 − τ)` scaling effective group
    /// size and fanout in Equation 11.
    pub fn survival_factor(&self) -> f64 {
        (1.0 - self.loss_probability) * (1.0 - self.crash_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_is_a_to_the_d() {
        let group = GroupParams {
            arity: 22,
            depth: 3,
            redundancy: 3,
            fanout: 2,
        };
        assert_eq!(group.group_size(), 10_648);
        let flat = GroupParams {
            arity: 100,
            depth: 1,
            redundancy: 3,
            fanout: 4,
        };
        assert_eq!(flat.group_size(), 100);
    }

    #[test]
    fn env_survival_factor() {
        let env = EnvParams {
            loss_probability: 0.05,
            crash_probability: 0.01,
            pittel_constant: 0.0,
        };
        assert!((env.survival_factor() - 0.95 * 0.99).abs() < 1e-12);
        let lossless = EnvParams {
            loss_probability: 0.0,
            crash_probability: 0.0,
            ..env
        };
        assert_eq!(lossless.survival_factor(), 1.0);
        let default = EnvParams::default();
        assert!(default.survival_factor() < 1.0);
        assert!(default.pittel_constant > 0.0);
    }
}
