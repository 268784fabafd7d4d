//! Per-subtree interest summaries: the aggregated-interest tables the
//! delegate hierarchy carries alongside its view tables.
//!
//! Section 2.3 of the paper regroups the interests of a subgroup into one
//! *Interests* cell per view-table line.  [`SubtreeSummaries`] materializes
//! that regrouping for a whole tree at once: one [`InterestSummary`] per
//! prefix, built bottom-up by merging the children of each subgroup, so a
//! gossiping process can ask "could *anyone* below this slot group want this
//! event?" in `O(disjuncts)` without consulting a global oracle.
//!
//! The table inherits the summary's over-approximation contract: a subtree
//! whose summary rejects an event provably contains **no** interested
//! process (skipping it is reliability-safe); a subtree whose summary
//! accepts may still contain nobody interested (the cost is only spurious
//! gossip).  Property tests in `tests/protocol_contract.rs` check the
//! end-to-end version of this invariant.

use std::collections::BTreeSet;
use std::sync::Arc;

use pmcast_addr::{AddressSpace, Prefix};
use pmcast_interest::{Event, Filter, Interest, InterestSummary};

/// Interest summaries for every prefix of an address space, maintained
/// bottom-up from per-process subscription filters.
///
/// Intended for evaluation-scale groups (the table holds one summary per
/// prefix, ~`n·a/(a−1)` summaries total); the million-process sparse core
/// keeps using the oracle path.
#[derive(Debug, Clone)]
pub struct SubtreeSummaries {
    space: AddressSpace,
    /// Per-process subscription filters (dense index order); `None` marks a
    /// process with no subscription (or one that has left the group).
    filters: Vec<Option<Filter>>,
    /// `levels[l]` holds the summaries of all prefixes of length `l`, in
    /// lexicographic prefix order; `levels[0]` is the root summary.
    levels: Vec<Vec<InterestSummary>>,
}

impl SubtreeSummaries {
    /// Builds the full table from per-process filters, indexed by the dense
    /// address order of the space.
    ///
    /// # Panics
    ///
    /// Panics if `filters` does not cover the space exactly.
    pub fn build(space: AddressSpace, filters: Vec<Option<Filter>>) -> Self {
        assert_eq!(
            filters.len() as u128,
            space.capacity(),
            "one filter slot per address of the space"
        );
        let depth = space.depth();
        let mut levels: Vec<Vec<InterestSummary>> = Vec::with_capacity(depth + 1);
        // Leaves first: one summary per process.
        let leaf: Vec<InterestSummary> = filters
            .iter()
            .map(|filter| match filter {
                Some(f) => InterestSummary::from_filter(f.clone()),
                None => InterestSummary::empty(),
            })
            .collect();
        levels.push(leaf);
        // Merge `arity` children into each parent, up to the root.
        for level in (0..depth).rev() {
            let arity = space.arity(level + 1) as usize;
            let children = &levels[levels.len() - 1];
            let mut parents = Vec::with_capacity(children.len() / arity);
            for group in children.chunks(arity) {
                let mut summary = InterestSummary::empty();
                for child in group {
                    summary.merge(child);
                }
                parents.push(summary);
            }
            levels.push(parents);
        }
        levels.reverse();
        Self {
            space,
            filters,
            levels,
        }
    }

    /// Returns `true` unless the subtree below `prefix` **provably**
    /// contains no interested process.  Prefixes outside the space answer
    /// `true` (the over-approximating default — never skip on uncertainty).
    pub fn allows(&self, prefix: &Prefix, event: &Event) -> bool {
        match self.summary_at(prefix) {
            Some(summary) => summary.matches(event),
            None => true,
        }
    }

    /// The summary of the subtree below `prefix`, if the prefix is valid
    /// for the space: at its length in `levels`, at its lexicographic rank
    /// among the prefixes of that length.
    pub fn summary_at(&self, prefix: &Prefix) -> Option<&InterestSummary> {
        let components = prefix.components();
        let arities = self.space.arities();
        if components.len() > arities.len() {
            return None;
        }
        let mut index: usize = 0;
        for (&component, &arity) in components.iter().zip(arities) {
            if component >= arity {
                return None;
            }
            index = index * arity as usize + component as usize;
        }
        Some(&self.levels[components.len()][index])
    }

    /// Replaces (or clears, with `None`) the subscription of the process at
    /// the given dense index and rebuilds the summaries along its root path
    /// — the same incremental maintenance the delegate gossip performs when
    /// a view line changes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_filter(&mut self, index: usize, filter: Option<Filter>) {
        self.filters[index] = filter;
        let depth = self.space.depth();
        self.levels[depth][index] = match &self.filters[index] {
            Some(f) => InterestSummary::from_filter(f.clone()),
            None => InterestSummary::empty(),
        };
        // Recompute each ancestor from its (already up-to-date) children.
        let mut child_index = index;
        for level in (0..depth).rev() {
            let arity = self.space.arity(level + 1) as usize;
            let parent_index = child_index / arity;
            let mut summary = InterestSummary::empty();
            for sibling in 0..arity {
                summary.merge(&self.levels[level + 1][parent_index * arity + sibling]);
            }
            self.levels[level][parent_index] = summary;
            child_index = parent_index;
        }
    }

    /// The address space the table covers.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// The per-process filters backing the table (dense address order).
    pub fn filters(&self) -> &[Option<Filter>] {
        &self.filters
    }
}

/// The items of `(item, subgroup)` pairs whose subgroup `judge` admits, in
/// order.  A view lists one subgroup's delegates side by side, so a run of
/// equal consecutive subgroups is judged once and the verdict counted for
/// every item of the run — whatever the question: the summary veto
/// ([`MembershipView::summary_allows`](crate::MembershipView::summary_allows))
/// and pmcast's `GETRATE` (the interest oracle's `subtree_interested`) both
/// ask it per view entry.
pub fn allowed_runs<'a, T, I, J>(
    subgroups: I,
    mut judge: J,
) -> impl Iterator<Item = T> + use<'a, T, I, J>
where
    I: Iterator<Item = (T, &'a Prefix)>,
    J: FnMut(&Prefix) -> bool,
{
    let mut last: Option<(&'a Prefix, bool)> = None;
    subgroups.filter_map(move |(item, subgroup)| {
        let allowed = match last {
            Some((judged, verdict)) if judged == subgroup => verdict,
            _ => judge(subgroup),
        };
        last = Some((subgroup, allowed));
        allowed.then_some(item)
    })
}

/// The interest side of a membership provider: the attached summary table
/// plus the pristine per-process filters, so a leave can clear a process's
/// contribution and a rejoin can restore it (the collapsed equivalent of
/// re-gossiping the subscription up the delegate tree).
#[derive(Debug)]
pub(crate) struct InterestAnnex {
    pub(crate) summaries: SubtreeSummaries,
    original: Vec<Option<Filter>>,
    /// Every attribute some filter constrained when the table was attached,
    /// ascending: all a verdict reads of an event.  The table never comes
    /// to mention another: a leave clears a filter, a rejoin restores it,
    /// and merging or widening filters only drops attributes.
    attributes: Arc<[String]>,
}

impl InterestAnnex {
    pub(crate) fn new(summaries: SubtreeSummaries) -> Self {
        let original = summaries.filters().to_vec();
        let attributes: BTreeSet<&str> =
            original.iter().flatten().flat_map(Filter::attributes).collect();
        Self {
            attributes: attributes.into_iter().map(str::to_owned).collect(),
            summaries,
            original,
        }
    }

    /// The attributes the table's filters mention: all a verdict reads.
    pub(crate) fn attributes(&self) -> Arc<[String]> {
        Arc::clone(&self.attributes)
    }

    /// A leave (or swept crash) retracts the process's interests along its
    /// root path.
    pub(crate) fn on_departure(&mut self, index: usize) {
        self.summaries.set_filter(index, None);
    }

    /// A rejoin re-announces the process's original subscription.
    pub(crate) fn on_join(&mut self, index: usize) {
        self.summaries.set_filter(index, self.original[index].clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_interest::Predicate;

    fn topic_filter(topics: &[i64]) -> Filter {
        Filter::new().with("topic", Predicate::one_of(topics.to_vec()))
    }

    fn topic_event(topic: i64) -> Event {
        Event::builder(1).int("topic", topic).build()
    }

    fn table_2x2(filters: Vec<Option<Filter>>) -> SubtreeSummaries {
        SubtreeSummaries::build(AddressSpace::regular(2, 2).unwrap(), filters)
    }

    #[test]
    fn bottom_up_merge_covers_every_subscriber() {
        // Processes 0.0, 0.1, 1.0, 1.1 with assorted topic subscriptions.
        let table = table_2x2(vec![
            Some(topic_filter(&[0])),
            Some(topic_filter(&[1, 2])),
            Some(topic_filter(&[3])),
            None,
        ]);
        for topic in [0, 1, 2, 3] {
            assert!(table.allows(&Prefix::root(), &topic_event(topic)));
        }
        // Topic 3 lives only under subtree 1.
        assert!(!table.allows(&Prefix::from_components(vec![0]), &topic_event(3)));
        assert!(table.allows(&Prefix::from_components(vec![1]), &topic_event(3)));
        // Leaf-level prefixes answer per process.
        assert!(table.allows(&Prefix::from_components(vec![0, 1]), &topic_event(2)));
        assert!(!table.allows(&Prefix::from_components(vec![0, 0]), &topic_event(2)));
        // The empty subscriber's subtree rejects everything.
        assert!(!table.allows(&Prefix::from_components(vec![1, 1]), &topic_event(0)));
        // Nobody anywhere subscribes to topic 9.
        assert!(!table.allows(&Prefix::root(), &topic_event(9)));
    }

    #[test]
    fn invalid_prefixes_never_cause_a_skip() {
        let table = table_2x2(vec![None, None, None, None]);
        // Out-of-space component: answer true (over-approximation default).
        assert!(table.allows(&Prefix::from_components(vec![7]), &topic_event(0)));
        assert!(table.summary_at(&Prefix::from_components(vec![7])).is_none());
    }

    #[test]
    fn set_filter_rebuilds_the_root_path() {
        let mut table = table_2x2(vec![
            Some(topic_filter(&[0])),
            None,
            None,
            None,
        ]);
        assert!(!table.allows(&Prefix::from_components(vec![1]), &topic_event(5)));
        // Process 1.0 (dense index 2) subscribes to topic 5.
        table.set_filter(2, Some(topic_filter(&[5])));
        assert!(table.allows(&Prefix::from_components(vec![1]), &topic_event(5)));
        assert!(table.allows(&Prefix::root(), &topic_event(5)));
        // It leaves again: the summaries along the path shrink back.
        table.set_filter(2, None);
        assert!(!table.allows(&Prefix::from_components(vec![1]), &topic_event(5)));
        assert!(!table.allows(&Prefix::root(), &topic_event(5)));
        // The untouched sibling path is unaffected.
        assert!(table.allows(&Prefix::from_components(vec![0]), &topic_event(0)));
    }

    #[test]
    fn incremental_updates_match_a_fresh_build() {
        let space = AddressSpace::regular(2, 3).unwrap();
        let mut incremental =
            SubtreeSummaries::build(space.clone(), vec![None; space.capacity() as usize]);
        let mut filters = vec![None; space.capacity() as usize];
        for (index, topics) in [(0usize, vec![1i64]), (4, vec![2, 3]), (8, vec![1, 4])] {
            filters[index] = Some(topic_filter(&topics));
            incremental.set_filter(index, filters[index].clone());
        }
        let fresh = SubtreeSummaries::build(space.clone(), filters);
        for level in 0..=space.depth() {
            for prefix in space.iter().map(|a| {
                Prefix::from_components(a.components()[..level].to_vec())
            }) {
                for topic in 0..6 {
                    assert_eq!(
                        incremental.allows(&prefix, &topic_event(topic)),
                        fresh.allows(&prefix, &topic_event(topic)),
                        "prefix {prefix:?} topic {topic}"
                    );
                }
            }
        }
    }
}
