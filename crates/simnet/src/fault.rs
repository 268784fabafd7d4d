//! The adversarial network fault model: a composable [`FaultPlan`]
//! generalizing the paper's uniform `ε`/`τ` assumptions.
//!
//! The paper's analysis (Section 4.1) models exactly two faults — every
//! message lost independently with probability `ε` and a fraction `τ` of
//! the processes crashed — both *uniform and i.i.d.*  Real networks fail
//! in structured ways, which is where hierarchical gossip is argued to
//! degrade gracefully.  A [`FaultPlan`] layers four structured axes on top
//! of the uniform model, each independently declarable, and all four are
//! applied by [`crate::RoundNetwork`] on its round — the round a message is
//! sent in, which a [`crate::Simulation`] keeps equal to its own:
//!
//! * [`LinkDelay`] — per-link extra latency: a message on link
//!   `(from, to)` takes `1 + extra` rounds instead of 1, with `extra`
//!   fixed per ordered link (drawn deterministically from one salt).
//! * [`PartitionWindow`] — a transient partition that heals: the address
//!   space splits into `cells` contiguous cells and every cross-cell send
//!   of a round in `[from_round, until_round)` is dropped.
//! * [`LossOverride`] — asymmetric/correlated loss: an extra loss
//!   probability for every message touching a contiguous index range
//!   (e.g. one subtree), composed multiplicatively with the global `ε`.
//! * [`Straggler`] — a slow node: its sends only reach the network on
//!   rounds divisible by `period`, batching everything in between.
//!
//! ## Stream neutrality
//!
//! The plan is built so that **declared-but-inactive axes consume no
//! randomness and change no behavior**: a delay span of `(0, 0)`, a
//! partition with fewer than 2 cells (or an empty round window), a loss
//! override with probability `0` and a straggler with `period <= 1` are
//! all exact no-ops, bit-identical to not declaring the axis at all
//! ([`FaultPlan::is_neutral`]).  Active axes draw only from the network
//! stream: the delay axis consumes exactly one `u64` salt at network
//! construction (only when `min_extra < max_extra` — a constant delay
//! needs none), partitions and stragglers are fully deterministic, and a
//! loss override replaces the single per-message `gen_bool` with one at
//! the composed probability (same number of draws).

use serde::{Deserialize, Serialize};

/// Per-link extra transit latency, in whole gossip rounds.
///
/// Every ordered link `(from, to)` gets a fixed extra delay in
/// `min_extra..=max_extra`, derived deterministically from one salt and
/// the endpoint pair — so a link's latency is stable for the whole run
/// (messages on one link stay FIFO) and reproducible from the seed.
/// `(0, 0)` declares the axis inactive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkDelay {
    /// Minimum extra rounds on any link.
    pub min_extra: u64,
    /// Maximum extra rounds on any link (inclusive).
    pub max_extra: u64,
}

impl LinkDelay {
    /// Returns `true` if this declaration changes nothing (no link ever
    /// waits an extra round).
    pub fn is_neutral(&self) -> bool {
        self.max_extra == 0
    }
}

/// A transient partition that heals: during rounds
/// `[from_round, until_round)` the address space `0..n` is split into
/// `cells` equal contiguous cells and every cross-cell send is dropped
/// (before the loss draw, so the drop consumes no randomness).
///
/// Contiguous cells align with subtrees of a regular `a^d` address space
/// whenever `cells` divides a power of the arity, so a 2-cell partition of
/// an `a = 4` tree cuts the group along subtree boundaries — the
/// structured failure the hierarchical membership should survive.
/// `cells <= 1` or an empty round window declares the axis inactive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First round (inclusive) at which the partition is active.
    pub from_round: u64,
    /// First round at which the partition has healed (exclusive bound).
    pub until_round: u64,
    /// Number of equal contiguous cells the address space splits into.
    pub cells: usize,
}

impl PartitionWindow {
    /// Returns `true` if this declaration can never drop a message.
    pub fn is_neutral(&self) -> bool {
        self.cells <= 1 || self.from_round >= self.until_round
    }

    /// Returns `true` if the partition is active at the given round.
    pub fn active_at(&self, round: u64) -> bool {
        !self.is_neutral() && (self.from_round..self.until_round).contains(&round)
    }

    /// The cell a process index falls into for a group of `n` processes.
    pub fn cell_of(&self, index: usize, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        index * self.cells / n
    }
}

/// Extra loss probability for every message whose sender **or** receiver
/// lies in the contiguous index range `start..end` — correlated loss on a
/// subtree or any other index-contiguous region, layered on the global
/// `ε`: a message keeps flowing with probability
/// `(1 − ε) · Π (1 − override_i)` over the matching overrides.
/// A probability of `0` declares the override inactive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LossOverride {
    /// First process index covered (inclusive).
    pub start: usize,
    /// One past the last process index covered (exclusive).
    pub end: usize,
    /// Extra independent loss probability for covered messages.
    pub loss_probability: f64,
}

impl LossOverride {
    /// Returns `true` if this declaration can never lose a message.
    pub fn is_neutral(&self) -> bool {
        self.loss_probability == 0.0 || self.start >= self.end
    }

    /// Returns `true` if the override covers the given process index.
    pub fn covers(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }
}

/// A slow node: the process's sends only reach the network on rounds
/// divisible by `period` (its *flush rounds*; round 0 is none).  A send in
/// between waits in the network's backlog for the process — not counted,
/// no loss draw — and the boundary that opens the next flush round sends
/// the backlog, in emission order, ahead of that round's fresh traffic.
/// The backlog is discarded if the process crashes or leaves before its
/// flush (a slow node's unsent queue dies with it).  `period <= 1`
/// declares the axis inactive (every round is a flush round).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Straggler {
    /// The straggling process index.
    pub process: usize,
    /// Its sends reach the network on rounds where `round % period == 0`.
    pub period: u64,
}

impl Straggler {
    /// Returns `true` if this declaration changes nothing.
    pub fn is_neutral(&self) -> bool {
        self.period <= 1
    }
}

/// A composable adversarial fault plan: all four structured fault axes,
/// each independently declarable (see the module docs for the model and
/// the stream-neutrality rule).  [`Default`] is the empty plan — no axis
/// declared — which is exactly the paper's uniform `ε`/`τ` model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-link extra latency, if declared.
    pub link_delay: Option<LinkDelay>,
    /// Transient healing partitions (any number of windows; a message is
    /// dropped if *any* active window separates its endpoints).
    pub partitions: Vec<PartitionWindow>,
    /// Correlated per-range loss overrides layered on the global `ε`.
    pub loss_overrides: Vec<LossOverride>,
    /// Slow nodes whose sends reach the network every `period`-th round.
    pub stragglers: Vec<Straggler>,
}

impl FaultPlan {
    /// Returns `true` if the plan cannot affect a run at all: every
    /// declared axis is individually neutral (see the module docs).  A
    /// neutral plan is bit-identical to [`FaultPlan::default`].
    pub fn is_neutral(&self) -> bool {
        self.link_delay.is_none_or(|d| d.is_neutral())
            && self.partitions.iter().all(PartitionWindow::is_neutral)
            && self.loss_overrides.iter().all(LossOverride::is_neutral)
            && self.stragglers.iter().all(Straggler::is_neutral)
    }

    /// Validates the plan's internal consistency (no process-count or
    /// round-horizon knowledge needed; see
    /// [`validate_for`](Self::validate_for) for the index checks).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if a [`LinkDelay`] has
    /// `min_extra > max_extra`, a [`PartitionWindow`] has zero cells or
    /// `from_round > until_round`, a [`LossOverride`] probability lies
    /// outside `[0, 1]` or its range is inverted, a [`Straggler`] period
    /// is zero, or two stragglers name the same process.
    pub fn validate(&self) {
        if let Some(delay) = &self.link_delay {
            assert!(
                delay.min_extra <= delay.max_extra,
                "link-delay span ({}, {}) is inverted: min_extra must not exceed max_extra",
                delay.min_extra,
                delay.max_extra
            );
        }
        for window in &self.partitions {
            assert!(
                window.cells > 0,
                "partition with zero cells is meaningless (use cells = 1 for a declared-but-inactive window)"
            );
            assert!(
                window.from_round <= window.until_round,
                "partition window [{}, {}) is inverted: it must heal at or after it forms",
                window.from_round,
                window.until_round
            );
        }
        for o in &self.loss_overrides {
            assert!(
                (0.0..=1.0).contains(&o.loss_probability),
                "loss-override probability {} must lie in [0, 1]",
                o.loss_probability
            );
            assert!(
                o.start <= o.end,
                "loss-override range {}..{} is inverted",
                o.start,
                o.end
            );
        }
        let mut straggler_processes: Vec<usize> = Vec::with_capacity(self.stragglers.len());
        for s in &self.stragglers {
            assert!(s.period > 0, "straggler period must be positive (period 1 = never held back)");
            assert!(
                !straggler_processes.contains(&s.process),
                "process {} declared a straggler twice",
                s.process
            );
            straggler_processes.push(s.process);
        }
    }

    /// [`validate`](Self::validate) plus the process-count–dependent index
    /// checks ([`crate::RoundNetwork::with_faults`] calls this at
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if the plan is internally inconsistent, or if a straggler
    /// process or loss-override range lies outside `0..process_count`.
    pub fn validate_for(&self, process_count: usize) {
        self.validate();
        for o in &self.loss_overrides {
            assert!(
                o.end <= process_count,
                "loss-override range {}..{} out of range for a group of {process_count}",
                o.start,
                o.end
            );
        }
        for s in &self.stragglers {
            assert!(
                s.process < process_count,
                "straggler process {} out of range for a group of {process_count}",
                s.process
            );
        }
    }
}

/// The splitmix64 finalizer — the deterministic per-link hash behind
/// [`LinkDelay`]: `latency(from, to) = min + mix(salt, from, to) % span`.
/// One salt (drawn once from the network stream) plus this mix give every
/// ordered link an independent-looking but fully reproducible delay.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // One-axis plans, as this crate's tests declare them.
    pub(crate) fn delayed(min_extra: u64, max_extra: u64) -> FaultPlan {
        FaultPlan {
            link_delay: Some(LinkDelay { min_extra, max_extra }),
            ..FaultPlan::default()
        }
    }

    pub(crate) fn partitioned(from_round: u64, until_round: u64, cells: usize) -> FaultPlan {
        FaultPlan {
            partitions: vec![PartitionWindow { from_round, until_round, cells }],
            ..FaultPlan::default()
        }
    }

    pub(crate) fn lossy_range(start: usize, end: usize, loss_probability: f64) -> FaultPlan {
        FaultPlan {
            loss_overrides: vec![LossOverride { start, end, loss_probability }],
            ..FaultPlan::default()
        }
    }

    pub(crate) fn straggling(process: usize, period: u64) -> FaultPlan {
        FaultPlan {
            stragglers: vec![Straggler { process, period }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn default_plan_is_neutral() {
        let plan = FaultPlan::default();
        assert!(plan.is_neutral());
        plan.validate_for(10);
    }

    #[test]
    fn declared_but_inactive_axes_are_neutral() {
        let plan = FaultPlan {
            link_delay: Some(LinkDelay { min_extra: 0, max_extra: 0 }),
            partitions: vec![
                PartitionWindow { from_round: 2, until_round: 2, cells: 4 }, // empty window
                PartitionWindow { from_round: 0, until_round: 10, cells: 1 }, // single cell
            ],
            loss_overrides: vec![LossOverride { start: 0, end: 5, loss_probability: 0.0 }],
            stragglers: vec![Straggler { process: 3, period: 1 }],
        };
        assert!(plan.is_neutral());
        plan.validate_for(10);
    }

    #[test]
    fn active_axes_are_not_neutral() {
        assert!(!delayed(0, 2).is_neutral());
        assert!(!partitioned(0, 5, 2).is_neutral());
        assert!(!lossy_range(0, 5, 0.5).is_neutral());
        assert!(!straggling(3, 4).is_neutral());
    }

    #[test]
    fn partition_cells_are_contiguous_and_equal() {
        let window = PartitionWindow { from_round: 0, until_round: 5, cells: 4 };
        assert!(window.active_at(0));
        assert!(window.active_at(4));
        assert!(!window.active_at(5));
        let cells: Vec<usize> = (0..16).map(|i| window.cell_of(i, 16)).collect();
        assert_eq!(&cells[..4], &[0, 0, 0, 0]);
        assert_eq!(&cells[4..8], &[1, 1, 1, 1]);
        assert_eq!(&cells[12..], &[3, 3, 3, 3]);
        assert_eq!(window.cell_of(0, 0), 0);
    }

    #[test]
    fn loss_override_covers_its_range() {
        let o = LossOverride { start: 4, end: 8, loss_probability: 0.5 };
        assert!(!o.covers(3));
        assert!(o.covers(4));
        assert!(o.covers(7));
        assert!(!o.covers(8));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_delay_span_is_rejected() {
        delayed(3, 1).validate();
    }

    #[test]
    #[should_panic(expected = "heal at or after")]
    fn inverted_partition_window_is_rejected() {
        partitioned(5, 2, 2).validate();
    }

    #[test]
    #[should_panic(expected = "zero cells")]
    fn zero_cell_partition_is_rejected() {
        partitioned(0, 5, 0).validate();
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn out_of_range_override_probability_is_rejected() {
        lossy_range(0, 5, 1.5).validate();
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_straggler_period_is_rejected() {
        straggling(0, 0).validate();
    }

    #[test]
    #[should_panic(expected = "declared a straggler twice")]
    fn duplicate_stragglers_are_rejected() {
        let mut plan = straggling(2, 3);
        plan.stragglers.push(Straggler { process: 2, period: 5 });
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "out of range for a group of 8")]
    fn out_of_range_straggler_is_rejected() {
        straggling(8, 3).validate_for(8);
    }

    #[test]
    #[should_panic(expected = "out of range for a group of 8")]
    fn out_of_range_override_is_rejected() {
        lossy_range(4, 9, 0.1).validate_for(8);
    }

    #[test]
    fn splitmix_spreads_link_delays() {
        // Not a statistical test — just that distinct links get distinct
        // enough values and the function is pure.
        let salt = 0xDEAD_BEEF;
        let a = splitmix64(salt ^ splitmix64(1 ^ splitmix64(2)));
        let b = splitmix64(salt ^ splitmix64(2 ^ splitmix64(1)));
        assert_ne!(a, b, "link delay must be directional");
        assert_eq!(a, splitmix64(salt ^ splitmix64(1 ^ splitmix64(2))));
    }
}
