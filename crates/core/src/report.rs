use rustc_hash::FxHashMap;

use pmcast_interest::{Event, EventId};
use pmcast_membership::InterestOracle;

use crate::MulticastProtocol;

/// Read-only view of a protocol instance's delivery state — what
/// [`MulticastReport`] classifies.  Every [`MulticastProtocol`] is one
/// through the blanket impl below; an implementor writes nothing.
pub trait DeliveryOutcome {
    /// Returns `true` if `oracle` finds the process interested in `event`.
    fn outcome_interested(&self, oracle: &dyn InterestOracle, event: &Event) -> bool;
    /// Returns `true` if the event was delivered to the application.
    fn outcome_delivered(&self, event: EventId) -> bool;
    /// Returns `true` if the event was received at all (delivered or merely
    /// buffered / forwarded).
    fn outcome_received(&self, event: EventId) -> bool;
}

impl<P: MulticastProtocol> DeliveryOutcome for P {
    fn outcome_interested(&self, oracle: &dyn InterestOracle, event: &Event) -> bool {
        oracle.is_interested(self.space_index(), event)
    }
    fn outcome_delivered(&self, event: EventId) -> bool {
        self.has_delivered(event)
    }
    fn outcome_received(&self, event: EventId) -> bool {
        self.has_received(event)
    }
}

/// Aggregated outcome of one multicast over a whole group: the quantities of
/// the paper's Figures 4 and 5 plus the raw counts they derive from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MulticastReport {
    /// Processes interested in the event.
    pub interested: usize,
    /// Interested processes that delivered it.
    pub delivered_interested: usize,
    /// Processes not interested in the event.
    pub uninterested: usize,
    /// Uninterested processes that nevertheless received it.
    pub received_uninterested: usize,
    /// Total processes that received the event in any role.
    pub received_total: usize,
}

impl MulticastReport {
    /// Collects the outcome of one event over an iterator of protocol
    /// states, classifying every process with the given oracle.
    pub fn collect<'a, P, I>(event: &Event, processes: I, oracle: &dyn InterestOracle) -> Self
    where
        P: DeliveryOutcome + 'a,
        I: IntoIterator<Item = &'a P>,
    {
        Self::tally(event.id(), processes, |_, process| {
            process.outcome_interested(oracle, event)
        })
    }

    /// The counters of one event over the processes, `interested` saying
    /// who (by position in `processes`) wanted it.
    fn tally<'a, P, I>(
        event: EventId,
        processes: I,
        mut interested: impl FnMut(usize, &P) -> bool,
    ) -> Self
    where
        P: DeliveryOutcome + 'a,
        I: IntoIterator<Item = &'a P>,
    {
        let mut report = MulticastReport::default();
        for (position, process) in processes.into_iter().enumerate() {
            let received = process.outcome_received(event);
            if received {
                report.received_total += 1;
            }
            if interested(position, process) {
                report.interested += 1;
                if process.outcome_delivered(event) {
                    report.delivered_interested += 1;
                }
            } else {
                report.uninterested += 1;
                if received {
                    report.received_uninterested += 1;
                }
            }
        }
        report
    }

    /// Collects one report per event over the same processes — the
    /// multi-event counterpart of [`collect`](Self::collect) used by
    /// scenario runs with several publications.
    ///
    /// Returns the reports in the order of `events`.  The process states
    /// are walked once per event, by a clone of `processes`' iterator; merge
    /// the results with [`merge`](Self::merge) for whole-scenario totals.
    ///
    /// Who is interested is asked of the oracle once per *audience*: the
    /// first event of an [`audience_key`](InterestOracle::audience_key)
    /// records the answer per process, and every event of the key reads
    /// that vector — 50 scans of the group for the 2 000 events of a
    /// 50-topic trial.  An event without a key is classified by
    /// [`collect`](Self::collect), process by process.
    pub fn collect_per_event<'a, 'e, P, I, E>(
        events: E,
        processes: I,
        oracle: &dyn InterestOracle,
    ) -> Vec<MulticastReport>
    where
        P: DeliveryOutcome + 'a,
        I: IntoIterator<Item = &'a P, IntoIter: Clone>,
        E: IntoIterator<Item = &'e Event>,
    {
        let processes = processes.into_iter();
        let mut audiences: FxHashMap<u64, Vec<bool>> = FxHashMap::default();
        events
            .into_iter()
            .map(|event| {
                let Some(key) = oracle.audience_key(event) else {
                    return Self::collect(event, processes.clone(), oracle);
                };
                let audience = audiences.entry(key).or_insert_with(|| {
                    let interested = |process: &P| process.outcome_interested(oracle, event);
                    processes.clone().map(interested).collect()
                });
                Self::tally(event.id(), processes.clone(), |position, _| audience[position])
            })
            .collect()
    }

    /// Probability of delivery for interested processes (the y-axis of
    /// Figure 4).  Returns 1 when nobody was interested.
    pub fn delivery_ratio(&self) -> f64 {
        if self.interested == 0 {
            return 1.0;
        }
        self.delivered_interested as f64 / self.interested as f64
    }

    /// Probability of reception for uninterested processes (the y-axis of
    /// Figure 5).  Returns 0 when everybody was interested.
    pub fn spurious_ratio(&self) -> f64 {
        if self.uninterested == 0 {
            return 0.0;
        }
        self.received_uninterested as f64 / self.uninterested as f64
    }

    /// Merges counters of another report (e.g. a different trial) into this
    /// one.
    pub fn merge(&mut self, other: &MulticastReport) {
        self.interested += other.interested;
        self.delivered_interested += other.delivered_interested;
        self.uninterested += other.uninterested;
        self.received_uninterested += other.received_uninterested;
        self.received_total += other.received_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process of a 2^2 space, at an index of it.
    struct FakeProcess {
        index: u128,
        delivered: bool,
        received: bool,
    }

    impl DeliveryOutcome for FakeProcess {
        fn outcome_interested(&self, oracle: &dyn InterestOracle, event: &Event) -> bool {
            oracle.is_interested(self.index, event)
        }
        fn outcome_delivered(&self, _event: EventId) -> bool {
            self.delivered
        }
        fn outcome_received(&self, _event: EventId) -> bool {
            self.received
        }
    }

    struct FakeOracle;
    impl InterestOracle for FakeOracle {
        fn is_interested(&self, index: u128, _event: &Event) -> bool {
            // Processes with first component 0 are interested: 0.0 and 0.1.
            index < 2
        }
        fn subtree_interested(&self, prefix: &pmcast_addr::Prefix, _event: &Event) -> bool {
            prefix.components().first().is_none_or(|&first| first == 0)
        }
    }

    fn fake(addr: &str, delivered: bool, received: bool) -> FakeProcess {
        let space = pmcast_addr::AddressSpace::regular(2, 2).unwrap();
        FakeProcess {
            index: space.index_of_address(&addr.parse().unwrap()).unwrap(),
            delivered,
            received,
        }
    }

    #[test]
    fn collect_classifies_processes() {
        let processes = vec![
            fake("0.0", true, true),   // interested, delivered
            fake("0.1", false, false), // interested, missed
            fake("1.0", false, true),  // uninterested, received anyway
            fake("1.1", false, false), // uninterested, untouched
        ];
        let event = Event::new(1);
        let report = MulticastReport::collect(&event, &processes, &FakeOracle);
        assert_eq!(report.interested, 2);
        assert_eq!(report.delivered_interested, 1);
        assert_eq!(report.uninterested, 2);
        assert_eq!(report.received_uninterested, 1);
        assert_eq!(report.received_total, 2);
        assert!((report.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((report.spurious_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_empty_classes() {
        let report = MulticastReport::default();
        assert_eq!(report.delivery_ratio(), 1.0);
        assert_eq!(report.spurious_ratio(), 0.0);
    }

    #[test]
    fn merge_accumulates_trials() {
        let mut a = MulticastReport {
            interested: 10,
            delivered_interested: 9,
            uninterested: 5,
            received_uninterested: 1,
            received_total: 10,
        };
        let b = MulticastReport {
            interested: 10,
            delivered_interested: 10,
            uninterested: 5,
            received_uninterested: 0,
            received_total: 10,
        };
        a.merge(&b);
        assert_eq!(a.interested, 20);
        assert_eq!(a.delivered_interested, 19);
        assert!((a.delivery_ratio() - 0.95).abs() < 1e-12);
        assert!((a.spurious_ratio() - 0.1).abs() < 1e-12);
    }
}
