//! Topic-based interest workloads: many overlapping audiences, one shared
//! [`AssignmentOracle`] per **distinct** audience.
//!
//! The paper's evaluation workloads exercise one matching rate per trial —
//! a single audience.  Production-style pub/sub traffic instead publishes
//! thousands of events over a few dozen topics, and the paper's Fig. 5
//! story (per-depth interest filtering keeps spurious deliveries low) only
//! gets interesting there.  [`TopicOracle`] models this axis: each process
//! subscribes to a set of topics, each event carries a topic attribute, and
//! interest queries route to the per-topic audience.  Topics with coinciding
//! subscriber sets share one oracle (and one interest bitmap) allocation, and
//! [`InterestOracle::audience_key`] exposes the topic index so downstream
//! audience caches never rescan the group for a repeated topic.

use std::sync::Arc;

use pmcast_addr::{AddressSpace, Prefix};
use pmcast_interest::{AttributeValue, Event, Filter, InternStats, Predicate};

use crate::{AssignmentOracle, InterestOracle, SubtreeSummaries};

/// The event attribute carrying the topic index (an integer in
/// `0..topic_count`).
pub const TOPIC_ATTRIBUTE: &str = "topic";

/// Interest oracle for a multi-topic workload over a fully populated
/// regular tree: per-process topic subscriptions, per-topic shared
/// audiences.
#[derive(Debug)]
pub struct TopicOracle {
    space: AddressSpace,
    topic_count: usize,
    /// Process (dense index) → sorted subscribed topic indices.
    subscriptions: Vec<Vec<u32>>,
    /// Topic → audience; topics with identical subscriber sets share one
    /// allocation.
    audiences: Vec<Arc<AssignmentOracle>>,
    /// Number of distinct audiences among them.
    distinct: usize,
}

impl TopicOracle {
    /// Builds the oracle from per-process subscription sets (dense address
    /// order, one entry per address of the space; topic indices must be
    /// below `topic_count`).
    ///
    /// # Panics
    ///
    /// Panics if `subscriptions` does not cover the space exactly or any
    /// topic index is out of range.
    pub fn new(
        space: AddressSpace,
        mut subscriptions: Vec<Vec<u32>>,
        topic_count: usize,
    ) -> Self {
        assert_eq!(
            subscriptions.len() as u128,
            space.capacity(),
            "one subscription set per address of the space"
        );
        for set in &mut subscriptions {
            set.sort_unstable();
            set.dedup();
            if let Some(&topic) = set.last() {
                assert!(
                    (topic as usize) < topic_count,
                    "topic index {topic} out of range for {topic_count} topics"
                );
            }
        }
        // Collect each topic's subscribers in one pass over the processes.
        let mut built = vec![AssignmentOracle::empty(space.clone()); topic_count];
        for (index, set) in subscriptions.iter().enumerate() {
            for &topic in set {
                built[topic as usize].insert(index);
            }
        }
        // An audience equal to an earlier topic's shares that topic's handle.
        let mut audiences: Vec<Arc<AssignmentOracle>> = Vec::with_capacity(topic_count);
        let mut distinct = 0;
        for audience in built {
            let coinciding = audiences.iter().find(|earlier| ***earlier == audience).cloned();
            audiences.push(coinciding.unwrap_or_else(|| {
                distinct += 1;
                Arc::new(audience)
            }));
        }
        Self {
            space,
            topic_count,
            subscriptions,
            audiences,
            distinct,
        }
    }

    /// The topic carried by an event, if it is one of ours.
    pub fn topic_of(&self, event: &Event) -> Option<usize> {
        match event.get(TOPIC_ATTRIBUTE) {
            Some(&AttributeValue::Int(topic)) if topic >= 0 && (topic as usize) < self.topic_count => {
                Some(topic as usize)
            }
            _ => None,
        }
    }

    /// The (shared) audience of a topic.
    ///
    /// # Panics
    ///
    /// Panics if `topic` is out of range.
    pub fn audience(&self, topic: usize) -> &Arc<AssignmentOracle> {
        &self.audiences[topic]
    }

    /// The subscription of each process as a content filter over the topic
    /// attribute (`None` for processes subscribed to nothing) — the input
    /// [`SubtreeSummaries::build`] wants.
    ///
    /// Single-attribute `one_of` filters union *exactly*, so the summaries
    /// aggregated up the tree stay precise until the disjunct bound widens
    /// them — and even then only ever over-approximate.
    pub fn filters(&self) -> Vec<Option<Filter>> {
        self.subscriptions
            .iter()
            .map(|set| {
                if set.is_empty() {
                    None
                } else {
                    Some(Filter::new().with(
                        TOPIC_ATTRIBUTE,
                        Predicate::one_of(set.iter().map(|&t| t as i64).collect::<Vec<_>>()),
                    ))
                }
            })
            .collect()
    }

    /// Builds the per-subtree aggregated-interest table for this workload.
    pub fn subtree_summaries(&self) -> SubtreeSummaries {
        SubtreeSummaries::build(self.space.clone(), self.filters())
    }

    /// Sharing counters of the audience table: `misses` is the number of
    /// **distinct** audiences built, `hits` the topics whose audience
    /// coincided with an earlier topic's and shares its allocation.
    pub fn intern_stats(&self) -> InternStats {
        InternStats {
            hits: (self.topic_count - self.distinct) as u64,
            misses: self.distinct as u64,
            live: self.distinct,
            reclaimed: 0,
        }
    }
}

impl InterestOracle for TopicOracle {
    fn is_interested(&self, index: u128, event: &Event) -> bool {
        match self.topic_of(event) {
            Some(topic) => self.audiences[topic].is_interested(index, event),
            None => false,
        }
    }

    fn subtree_interested(&self, prefix: &Prefix, event: &Event) -> bool {
        match self.topic_of(event) {
            Some(topic) => self.audiences[topic].subtree_interested(prefix, event),
            None => false,
        }
    }

    /// Same topic ⇒ same audience, so the topic index is the cache key.
    fn audience_key(&self, event: &Event) -> Option<u64> {
        self.topic_of(event).map(|topic| topic as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic_event(topic: i64) -> Event {
        Event::builder(1).int(TOPIC_ATTRIBUTE, topic).build()
    }

    fn oracle_2x2(subs: [&[u32]; 4], topics: usize) -> TopicOracle {
        TopicOracle::new(
            AddressSpace::regular(2, 2).unwrap(),
            subs.iter().map(|s| s.to_vec()).collect(),
            topics,
        )
    }

    #[test]
    fn interest_routes_to_the_topic_audience() {
        let oracle = oracle_2x2([&[0], &[0, 1], &[1], &[]], 2);
        let e0 = topic_event(0);
        let e1 = topic_event(1);
        // 0.0, 0.1, 1.0 and 1.1 are the indices 0 to 3.
        assert!(oracle.is_interested(0, &e0));
        assert!(!oracle.is_interested(0, &e1));
        assert!(oracle.is_interested(2, &e1));
        assert!(!oracle.is_interested(3, &e0));
        assert_eq!(oracle.audience(0).len(), 2);
        assert_eq!(oracle.audience(1).len(), 2);
        assert!(oracle.subtree_interested(&Prefix::from_components(vec![0]), &e0));
        assert!(!oracle.subtree_interested(&Prefix::from_components(vec![1]), &e0));
        assert_eq!(oracle.audience_key(&e0), Some(0));
        assert_eq!(oracle.audience_key(&e1), Some(1));
    }

    #[test]
    fn events_without_a_topic_interest_nobody() {
        let oracle = oracle_2x2([&[0], &[0], &[0], &[0]], 1);
        let untopical = Event::builder(9).int("b", 1).build();
        assert!(!oracle.is_interested(0, &untopical));
        assert!(!oracle.subtree_interested(&Prefix::root(), &untopical));
        assert_eq!(oracle.audience_key(&untopical), None);
        // Out-of-range topics too.
        assert_eq!(oracle.audience_key(&topic_event(7)), None);
        assert_eq!(oracle.audience_key(&topic_event(-3)), None);
    }

    #[test]
    fn coinciding_audiences_share_one_allocation() {
        // Topics 0 and 2 have identical subscriber sets; topic 1 differs.
        let oracle = oracle_2x2([&[0, 2], &[0, 1, 2], &[1], &[]], 3);
        assert!(Arc::ptr_eq(oracle.audience(0), oracle.audience(2)));
        assert!(!Arc::ptr_eq(oracle.audience(0), oracle.audience(1)));
        let stats = oracle.intern_stats();
        assert_eq!(stats.misses, 2); // two distinct audiences, three topics
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn summaries_cover_exactly_the_subscribed_topics() {
        let oracle = oracle_2x2([&[0], &[1], &[2], &[]], 4);
        let summaries = oracle.subtree_summaries();
        for topic in 0..3 {
            assert!(summaries.allows(&Prefix::root(), &topic_event(topic)));
        }
        assert!(!summaries.allows(&Prefix::root(), &topic_event(3)));
        assert!(!summaries.allows(&Prefix::from_components(vec![1]), &topic_event(0)));
        assert!(summaries.allows(&Prefix::from_components(vec![1]), &topic_event(2)));
    }

    #[test]
    fn summary_never_rejects_an_interested_subtree() {
        // The end-to-end over-approximation check, small scale: for every
        // process and every topic it subscribes to, every prefix on its
        // root path must allow the event.
        let space = AddressSpace::regular(3, 3).unwrap();
        let subs: Vec<Vec<u32>> = (0..space.capacity() as usize)
            .map(|i| vec![(i % 5) as u32, ((i * 7) % 5) as u32])
            .collect();
        let oracle = TopicOracle::new(space.clone(), subs, 5);
        let summaries = oracle.subtree_summaries();
        for (index, address) in space.iter().enumerate() {
            for &topic in &oracle.subscriptions[index] {
                let event = topic_event(topic as i64);
                for level in 0..=space.depth() {
                    let prefix =
                        Prefix::from_components(address.components()[..level].to_vec());
                    assert!(
                        summaries.allows(&prefix, &event),
                        "false negative at {prefix:?} for topic {topic}"
                    );
                }
            }
        }
    }
}
