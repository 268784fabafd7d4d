//! Sparse, time-varying group populations: which addresses of a tree are
//! occupied, and how that occupancy changes as processes join and leave.
//!
//! The paper's membership is explicitly dynamic (processes subscribe and
//! unsubscribe, and the Section 2 view tables are *maintained* under those
//! transitions), but a simulation needs a declarative description of the
//! population before it can drive those transitions deterministically.
//! [`Population`] is that description: a capacity (`a^d` addresses), the
//! set of dense indices occupied at round zero, and a sorted schedule of
//! joins and graceful leaves (crashes are a *fault* model and stay on the
//! network layer's crash plan).
//!
//! `Population` answers occupancy queries arithmetically (initial/peak/final
//! sizes, occupancy at any round) over the dense indices of the simulation.
//!
//! Determinism: a population is pure data.  Building one, querying it and
//! snapshotting it consume no randomness, which is what lets scenario
//! lifecycle schedules preserve the simulator's seed contract (see the
//! `pmcast-sim` runner docs).

/// The kind of a scheduled membership lifecycle event.
///
/// The variant order is meaningful: events scheduled for the same round
/// apply joins first, then leaves (the sort order of the schedule), so
/// mixed schedules stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LifecycleEventKind {
    /// The process joins (subscribes) — an initial join or a re-join.
    Join,
    /// The process leaves gracefully (unsubscribes).
    Leave,
}

/// One scheduled membership transition of a [`Population`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LifecycleEvent {
    /// The simulation round at which the transition applies.
    round: u64,
    /// Join or leave.
    kind: LifecycleEventKind,
    /// The dense index of the process making the transition.
    process: usize,
}

/// The population sizes a lifecycle schedule produces over a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationSizes {
    /// Members at round zero (capacity minus the initially absent).
    pub initial: usize,
    /// The largest membership reached at any point of the schedule.
    pub peak: usize,
    /// Members once the whole schedule has been applied.
    pub end: usize,
}

/// A sparse, time-varying population over a regular `a^d` address space.
///
/// # Examples
///
/// ```rust
/// use pmcast_membership::Population;
///
/// // 16 addresses; process 15 joins at round 3, process 0 leaves at round 5.
/// let population = Population::new(16, &[(3, 15)], &[(5, 0)]);
/// assert_eq!(population.initially_absent(), &[15]);
/// let sizes = population.sizes();
/// assert_eq!((sizes.initial, sizes.peak, sizes.end), (15, 16, 15));
/// assert!(!population.occupied_at_start()[15]);
/// assert!(population.occupancy_at(3)[15], "joined by round 3");
/// assert!(!population.occupancy_at(5)[0], "left at round 5");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    capacity: usize,
    /// Sorted, deduplicated dense indices absent at round zero.
    initially_absent: Vec<usize>,
    /// Sorted by `(round, kind, process)`.
    events: Vec<LifecycleEvent>,
}

impl Population {
    /// Builds the population implied by a join/leave schedule over a group
    /// of `capacity` addresses.
    ///
    /// A process starts **absent** iff its earliest scheduled event is a
    /// join (so `leave_at(2, p)` + `join_at(6, p)` describes a member that
    /// departs and later re-subscribes, while a lone `join_at(3, q)`
    /// describes a newcomer).
    ///
    /// # Panics
    ///
    /// Panics if any scheduled index is out of range for the capacity.
    pub fn new(capacity: usize, joins: &[(u64, usize)], leaves: &[(u64, usize)]) -> Self {
        let mut events: Vec<LifecycleEvent> = joins
            .iter()
            .map(|&(round, process)| LifecycleEvent {
                round,
                kind: LifecycleEventKind::Join,
                process,
            })
            .chain(leaves.iter().map(|&(round, process)| LifecycleEvent {
                round,
                kind: LifecycleEventKind::Leave,
                process,
            }))
            .collect();
        for event in &events {
            assert!(
                event.process < capacity,
                "lifecycle index {} out of range for a capacity of {capacity}",
                event.process
            );
        }
        events.sort();
        // A process whose earliest event is a join was not there at round
        // zero; the schedule is sorted, so the first sighting decides.
        let mut first_event_seen = vec![false; capacity];
        let mut initially_absent = Vec::new();
        for event in &events {
            if !std::mem::replace(&mut first_event_seen[event.process], true)
                && event.kind == LifecycleEventKind::Join
            {
                initially_absent.push(event.process);
            }
        }
        initially_absent.sort_unstable();
        Self {
            capacity,
            initially_absent,
            events,
        }
    }

    /// Lets a scheduled-**crash** plan participate in the initial-absence
    /// derivation: a process that crashes *before* its first join was
    /// evidently a member at round zero (the schedule describes a
    /// crash-then-rejoin, not a late newcomer), so it is removed from the
    /// initially-absent set.  Crashes still do not appear in the lifecycle
    /// schedule — they are a fault model, not membership —
    /// and same-round ties resolve in the engine's join < leave < crash
    /// order, so a crash at the join's own round does not keep the process
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if any crash index is out of range for the capacity.
    pub fn with_fault_schedule(mut self, crashes: &[(u64, usize)]) -> Self {
        for &(_, process) in crashes {
            assert!(
                process < self.capacity,
                "crash index {process} out of range for a capacity of {}",
                self.capacity
            );
        }
        let events = &self.events;
        self.initially_absent.retain(|&process| {
            let first_join = events
                .iter()
                .find(|e| e.process == process)
                .expect("an initially absent process has a join event");
            // Keep the process absent unless some crash strictly precedes
            // its first join (a same-round crash applies *after* the join,
            // so it does not prove earlier membership).
            !crashes
                .iter()
                .any(|&(round, crashed)| crashed == process && round < first_join.round)
        });
        self
    }

    /// The sorted dense indices absent at round zero.
    pub fn initially_absent(&self) -> &[usize] {
        &self.initially_absent
    }

    /// Occupancy flags at round zero (`true` = member).
    pub fn occupied_at_start(&self) -> Vec<bool> {
        let mut occupied = vec![true; self.capacity];
        for &absent in &self.initially_absent {
            occupied[absent] = false;
        }
        occupied
    }

    /// Occupancy flags *during* the given round: the start-of-trial state
    /// with every event scheduled at or before `round` applied (the engine
    /// applies lifecycle events at the beginning of their round).
    pub fn occupancy_at(&self, round: u64) -> Vec<bool> {
        let mut occupied = self.occupied_at_start();
        for event in self.events.iter().take_while(|e| e.round <= round) {
            occupied[event.process] = event.kind == LifecycleEventKind::Join;
        }
        occupied
    }

    /// The initial, peak and final population sizes of the schedule.
    pub fn sizes(&self) -> PopulationSizes {
        let mut occupied = self.occupied_at_start();
        let mut size = self.capacity - self.initially_absent.len();
        let initial = size;
        let mut peak = size;
        for event in &self.events {
            match event.kind {
                LifecycleEventKind::Join => {
                    if !std::mem::replace(&mut occupied[event.process], true) {
                        size += 1;
                    }
                }
                LifecycleEventKind::Leave => {
                    if std::mem::replace(&mut occupied[event.process], false) {
                        size -= 1;
                    }
                }
            }
            peak = peak.max(size);
        }
        PopulationSizes {
            initial,
            peak,
            end: size,
        }
    }

}

/// The nearest index strictly after `q`, cyclically, that `alive` marks
/// (`None` if no other is).  The gossip providers' ring: a process pins its
/// contact to this successor, at bootstrap over the occupancy and later
/// over the liveness flags.
pub(crate) fn ring_successor(alive: &[bool], q: usize) -> Option<usize> {
    let n = alive.len();
    (1..n).map(|offset| (q + offset) % n).find(|&j| alive[j])
}

/// The nearest index strictly before `q`, cyclically, that `alive` marks
/// (`None` if no other is): whose [`ring_successor`] a joining `q` becomes.
pub(crate) fn ring_predecessor(alive: &[bool], q: usize) -> Option<usize> {
    let n = alive.len();
    (1..n).map(|offset| (q + n - offset) % n).find(|&j| alive[j])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_population_has_no_schedule() {
        let population = Population::new(27, &[], &[]);
        assert_eq!(population.capacity, 27);
        assert!(population.initially_absent().is_empty());
        let sizes = population.sizes();
        assert_eq!((sizes.initial, sizes.peak, sizes.end), (27, 27, 27));
        assert!(population.occupied_at_start().iter().all(|&o| o));
    }

    #[test]
    fn earliest_event_decides_initial_absence() {
        // 3 joins fresh; 5 leaves then re-joins; 7 only leaves.
        let population = Population::new(16, &[(4, 3), (6, 5)], &[(2, 5), (3, 7)]);
        assert_eq!(population.initially_absent(), &[3]);
        let sizes = population.sizes();
        assert_eq!(sizes.initial, 15);
        assert_eq!(sizes.end, 15); // 3 joined, 7 left, 5 round-tripped
        assert!(!population.occupancy_at(2)[5]);
        assert!(population.occupancy_at(6)[5]);
        assert!(!population.occupancy_at(10)[7]);
    }

    #[test]
    fn peak_tracks_the_largest_membership() {
        // Flash crowd: two joins before anyone leaves.
        let population = Population::new(8, &[(1, 6), (1, 7)], &[(4, 0), (4, 1), (4, 2)]);
        let sizes = population.sizes();
        assert_eq!((sizes.initial, sizes.peak, sizes.end), (6, 8, 5));
    }

    #[test]
    fn duplicate_events_are_idempotent_in_sizes() {
        let population = Population::new(4, &[(1, 3), (2, 3)], &[(5, 3), (6, 3)]);
        let sizes = population.sizes();
        assert_eq!((sizes.initial, sizes.peak, sizes.end), (3, 4, 3));
    }

    #[test]
    fn same_round_join_applies_before_leave() {
        let population = Population::new(4, &[(2, 1)], &[(2, 1)]);
        // Earliest event at round 2 is the join (kind order), so process 1
        // starts absent, joins and immediately leaves again.
        assert_eq!(population.initially_absent(), &[1]);
        assert!(!population.occupancy_at(2)[1]);
        assert_eq!(population.sizes().peak, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_indices_are_rejected() {
        let _ = Population::new(4, &[(0, 9)], &[]);
    }

    #[test]
    fn a_crash_before_the_first_join_proves_initial_membership() {
        // crash(6) then join(12) is a crash-then-rejoin: the process was a
        // member at round zero, so the fault schedule removes it from the
        // initially-absent set.
        let population = Population::new(16, &[(12, 5)], &[]).with_fault_schedule(&[(6, 5)]);
        assert!(population.initially_absent().is_empty());
        assert_eq!(population.sizes().initial, 16);
        // A crash at (or after) the join round proves nothing: the join
        // still marks a newcomer (same-round ties apply join first).
        let newcomer = Population::new(16, &[(6, 5)], &[]).with_fault_schedule(&[(6, 5)]);
        assert_eq!(newcomer.initially_absent(), &[5]);
        let late_crash = Population::new(16, &[(6, 5)], &[]).with_fault_schedule(&[(9, 5)]);
        assert_eq!(late_crash.initially_absent(), &[5]);
        // Crashes of other processes change nothing.
        let unrelated = Population::new(16, &[(6, 5)], &[]).with_fault_schedule(&[(1, 3)]);
        assert_eq!(unrelated.initially_absent(), &[5]);
    }

    #[test]
    #[should_panic(expected = "crash index")]
    fn out_of_range_fault_indices_are_rejected() {
        let _ = Population::new(4, &[], &[]).with_fault_schedule(&[(0, 9)]);
    }

    #[test]
    fn next_occupied_wraps_over_gaps() {
        let occupied = [true, false, false, true, false];
        assert_eq!(ring_successor(&occupied, 0), Some(3));
        assert_eq!(ring_successor(&occupied, 3), Some(0));
        assert_eq!(ring_successor(&occupied, 4), Some(0));
        assert_eq!(ring_predecessor(&occupied, 0), Some(3));
        assert_eq!(ring_predecessor(&occupied, 3), Some(0));
        assert_eq!(ring_predecessor(&occupied, 1), Some(0));
        // Nobody else occupied, a lone process included: no neighbour.
        assert_eq!(ring_successor(&[false, false], 0), None);
        assert_eq!(ring_predecessor(&[true, false], 0), None);
        assert_eq!(ring_successor(&[true], 0), None);
    }
}
