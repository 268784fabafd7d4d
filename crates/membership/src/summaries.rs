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

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use pmcast_addr::{AddressSpace, Prefix};
use pmcast_interest::{AttributeValue, Event, Filter, Interest, InterestSummary};

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

/// How many distinct event contents the veto memo of an attached summary
/// table remembers (see [`MembershipView::summary_verdict`]); one more and
/// it forgets everything and starts over.  A memo may forget at any time,
/// so this only bounds memory — one value per filtered attribute per
/// remembered content — and is not a tuning knob: a topic workload has one
/// content per topic.
///
/// [`MembershipView::summary_verdict`]: crate::MembershipView::summary_verdict
pub const SUMMARY_MEMO_ROWS: usize = 64;

/// How many whole-view verdicts the memo keeps beside its rows, one `u128`
/// per (content, view) asked about; one more and it forgets them all and
/// starts over, as every filter change and a row overflow make it do
/// anyway.  Like the row bound this only caps memory — a long-lived
/// provider asked about ever more views must not grow — and is not a
/// tuning knob: 50 topics over the 21 views of a 4³ group are 1 050
/// verdicts.
const SUMMARY_MEMO_VERDICTS: usize = 1 << 14;

/// Whole-view verdicts already judged against the attached table, by what
/// a verdict reads: the event's values on the attributes the table's
/// filters mention (its *content*; everything else about the event — its
/// id included — is invisible to a filter) and the depth view.  A depth
/// view lists each subtree it covers in no other view, so one verdict per
/// (content, view) is all there is to remember.  Derived state: any entry
/// may be dropped at any time, and every filter change drops them all.
#[derive(Debug)]
struct VetoMemo {
    /// Every attribute some filter constrained when the table was attached,
    /// ascending.  The table never comes to mention another: a leave clears
    /// a filter, a rejoin restores it, and merging or widening filters only
    /// drops attributes.
    attributes: Arc<[String]>,
    /// Row `r` is `contents[r·k..][..k]` (`k = attributes.len()`, the value
    /// per attribute), found through `fingerprints[r]`.  Flat, so clearing
    /// keeps the allocations.
    fingerprints: Vec<u64>,
    contents: Vec<Option<AttributeValue>>,
    /// `(row, view id)` to the mask of allowed view positions.  A view
    /// never asked about is absent — every mask, zero included, is a
    /// verdict.  Rows are reused after a [`clear`](Self::clear), so these go
    /// whenever rows do.
    view_verdicts: HashMap<(usize, u32), u128>,
}

impl VetoMemo {
    fn new(summaries: &SubtreeSummaries) -> Self {
        let attributes: BTreeSet<&str> = summaries
            .filters
            .iter()
            .flatten()
            .flat_map(Filter::attributes)
            .collect();
        Self {
            attributes: attributes.into_iter().map(str::to_owned).collect(),
            fingerprints: Vec::new(),
            contents: Vec::new(),
            view_verdicts: HashMap::new(),
        }
    }

    fn clear(&mut self) {
        self.fingerprints.clear();
        self.contents.clear();
        self.view_verdicts.clear();
    }

    /// The row of the event's content, started if the memo does not hold
    /// it.  A fingerprint only finds the candidate: a hit is a row whose
    /// stored content equals the event's.
    fn row_of(&mut self, event: &Event) -> usize {
        let fingerprint = event.content_hash(&self.attributes);
        let k = self.attributes.len();
        let hit = (0..self.fingerprints.len()).find(|&row| {
            self.fingerprints[row] == fingerprint
                && self
                    .attributes
                    .iter()
                    .zip(&self.contents[row * k..][..k])
                    .all(|(name, stored)| event.get(name) == stored.as_ref())
        });
        if let Some(row) = hit {
            return row;
        }
        if self.fingerprints.len() == SUMMARY_MEMO_ROWS {
            self.clear();
        }
        self.fingerprints.push(fingerprint);
        self.contents
            .extend(self.attributes.iter().map(|name| event.get(name).cloned()));
        self.fingerprints.len() - 1
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

/// [`allowed_runs`] over a whole view, as a mask: bit `p` is set when
/// `judge` admits the `p`-th of `subgroups` (at most 128 of them).
pub(crate) fn allowed_mask<'a>(
    subgroups: impl Iterator<Item = &'a Prefix>,
    judge: impl FnMut(&Prefix) -> bool,
) -> u128 {
    allowed_runs(subgroups.enumerate(), judge)
        .fold(0, |allowed, position| allowed | 1 << position)
}

/// The interest side of a membership provider: the attached summary table
/// plus the pristine per-process filters, so a leave can clear a process's
/// contribution and a rejoin can restore it (the collapsed equivalent of
/// re-gossiping the subscription up the delegate tree) — and the memo of
/// the whole-view verdicts the table has already given, dropped whenever it
/// changes.
#[derive(Debug)]
pub(crate) struct InterestAnnex {
    pub(crate) summaries: SubtreeSummaries,
    original: Vec<Option<Filter>>,
    memo: VetoMemo,
}

impl InterestAnnex {
    pub(crate) fn new(summaries: SubtreeSummaries) -> Self {
        let original = summaries.filters().to_vec();
        let memo = VetoMemo::new(&summaries);
        Self {
            summaries,
            original,
            memo,
        }
    }

    /// The attributes the table's filters mention: all a verdict reads.
    pub(crate) fn attributes(&self) -> Arc<[String]> {
        Arc::clone(&self.memo.attributes)
    }

    /// [`SubtreeSummaries::allows`] over a whole view, as the mask of the
    /// positions it admits, folded once per (content, view id): a repeat is
    /// the row lookup and one probe, whatever the view's width.  The caller
    /// vouches that `view` names `subgroups` (see
    /// [`MembershipView::summary_verdict`](crate::MembershipView::summary_verdict));
    /// debug builds check every repeat against the fold it stands for.
    pub(crate) fn view_verdict(
        &mut self,
        event: &Event,
        view: u32,
        subgroups: &mut dyn Iterator<Item = &Prefix>,
    ) -> u128 {
        let row = self.memo.row_of(event);
        let summaries = &self.summaries;
        let mut fold = || allowed_mask(&mut *subgroups, |subgroup| summaries.allows(subgroup, event));
        if let Some(&allowed) = self.memo.view_verdicts.get(&(row, view)) {
            debug_assert_eq!(allowed, fold(), "view id {view} named other subgroups before");
            return allowed;
        }
        let allowed = fold();
        if self.memo.view_verdicts.len() == SUMMARY_MEMO_VERDICTS {
            self.memo.view_verdicts.clear();
        }
        self.memo.view_verdicts.insert((row, view), allowed);
        allowed
    }

    /// A leave (or swept crash) retracts the process's interests along its
    /// root path.
    pub(crate) fn on_departure(&mut self, index: usize) {
        self.set_filter(index, None);
    }

    /// A rejoin re-announces the process's original subscription.
    pub(crate) fn on_join(&mut self, index: usize) {
        self.set_filter(index, self.original[index].clone());
    }

    /// The one way the table changes, and with it what every memoised
    /// verdict along the root path was judged against.
    fn set_filter(&mut self, index: usize, filter: Option<Filter>) {
        self.summaries.set_filter(index, filter);
        self.memo.clear();
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
    fn the_veto_memo_is_bounded_and_dropped_by_every_filter_change() {
        let filters = vec![Some(topic_filter(&[0])), None, Some(topic_filter(&[3])), None];
        let mut annex = InterestAnnex::new(table_2x2(filters));
        let subtree = Prefix::from_components(vec![1]);
        let allows = |annex: &mut InterestAnnex, event: &Event| {
            annex.view_verdict(event, 0, &mut [&subtree].into_iter()) == 1
        };
        // One row per distinct content, however many ids carry it.
        for id in 0..10 {
            let event = Event::builder(id).int("topic", 3).build();
            assert!(allows(&mut annex, &event));
        }
        assert_eq!(annex.memo.fingerprints.len(), 1);
        // More contents than rows: the memo starts over instead of growing.
        for topic in 0..3 * SUMMARY_MEMO_ROWS as i64 {
            assert_eq!(allows(&mut annex, &topic_event(topic)), topic == 3);
            assert!(annex.memo.fingerprints.len() <= SUMMARY_MEMO_ROWS);
        }
        // The filters mention one attribute: a row is one stored value.
        assert_eq!(annex.memo.contents.len(), annex.memo.fingerprints.len());
        assert!(annex.memo.contents.capacity() <= 2 * SUMMARY_MEMO_ROWS);
        // The subscriber leaves and returns: neither verdict outlives the
        // table it was judged against.
        annex.on_departure(2);
        assert!(annex.memo.fingerprints.is_empty());
        assert!(!allows(&mut annex, &topic_event(3)));
        annex.on_join(2);
        assert!(annex.memo.fingerprints.is_empty());
        assert!(allows(&mut annex, &topic_event(3)));
    }

    #[test]
    fn view_verdicts_are_kept_per_content_and_view_bounded_and_dropped_with_the_rows() {
        let filters = vec![Some(topic_filter(&[0])), None, Some(topic_filter(&[3])), None];
        let mut annex = InterestAnnex::new(table_2x2(filters));
        let subtrees = [Prefix::from_components(vec![0]), Prefix::from_components(vec![1])];
        // A view lists each subtree's two delegates; view 1 lists them the
        // other way round.
        let forwards = [&subtrees[0], &subtrees[0], &subtrees[1], &subtrees[1]];
        let backwards = [&subtrees[1], &subtrees[1], &subtrees[0], &subtrees[0]];
        let ask = |annex: &mut InterestAnnex, topic: i64, view: u32| {
            let listed = if view.is_multiple_of(2) { forwards } else { backwards };
            annex.view_verdict(&topic_event(topic), view, &mut listed.into_iter())
        };
        for _ in 0..2 {
            assert_eq!(ask(&mut annex, 0, 0), 0b0011);
            assert_eq!(ask(&mut annex, 0, 1), 0b1100);
            assert_eq!(ask(&mut annex, 3, 0), 0b1100);
            assert_eq!(ask(&mut annex, 9, 0), 0, "everything vetoed is a verdict, and kept");
        }
        assert_eq!(annex.memo.view_verdicts.len(), 4);
        // More (content, view) pairs than verdicts are kept: the memo
        // forgets them all instead of growing, and answers the same.
        let views = (SUMMARY_MEMO_VERDICTS / SUMMARY_MEMO_ROWS + 2) as u32;
        for view in 0..views {
            let (subtree_0, subtree_1) =
                if view.is_multiple_of(2) { (0b0011, 0b1100) } else { (0b1100, 0b0011) };
            for topic in 0..SUMMARY_MEMO_ROWS as i64 {
                let expected = match topic {
                    0 => subtree_0,
                    3 => subtree_1,
                    _ => 0,
                };
                assert_eq!(ask(&mut annex, topic, view), expected);
            }
            assert!(annex.memo.view_verdicts.len() <= SUMMARY_MEMO_VERDICTS);
        }
        assert!(annex.memo.view_verdicts.len() < 3 * SUMMARY_MEMO_ROWS);
        // One content more than the memo has rows: the rows start over and
        // take the masks with them — a row index means another content now.
        ask(&mut annex, SUMMARY_MEMO_ROWS as i64, 0);
        assert_eq!(annex.memo.view_verdicts.len(), 1);
        // A filter change drops them like every other verdict.
        assert_eq!(ask(&mut annex, 3, 0), 0b1100);
        annex.on_departure(2);
        assert!(annex.memo.view_verdicts.is_empty());
        assert_eq!(ask(&mut annex, 3, 0), 0);
        annex.on_join(2);
        assert_eq!(ask(&mut annex, 3, 0), 0b1100);
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
