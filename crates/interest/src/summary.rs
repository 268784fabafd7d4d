use std::fmt;

use crate::{Event, Filter, Interest};

/// Default bound on the number of disjuncts kept by a summary before
/// widening kicks in.
const DEFAULT_MAX_DISJUNCTS: usize = 8;

/// The regrouped interests of a set of processes (one *Interests* cell of a
/// view table at depth `i < d`).
///
/// Section 2.3 of the paper requires that the interests of all processes of
/// a subgroup be regrouped "in a way which avoids redundancies", reducing
/// both memory footprint and evaluation time.  `InterestSummary` implements
/// this as a **bounded disjunction of filters**:
///
/// * while the number of distinct filters is below the bound, they are kept
///   verbatim (exact representation of the union of interests);
/// * once the bound is exceeded, the two "closest" filters (fewest
///   asymmetric attributes) are merged with [`Filter::widen_union`], trading
///   precision for compactness.
///
/// The key invariant — verified by property tests — is that a summary is an
/// *over-approximation*: an event of interest to **any** represented process
/// always matches the summary.  False positives only cause some unnecessary
/// gossip towards that subgroup; false negatives would break delivery
/// reliability, so they are never allowed.
///
/// # Example
///
/// ```rust
/// use pmcast_interest::{Event, Filter, Interest, InterestSummary, Predicate};
///
/// let mut summary = InterestSummary::with_max_disjuncts(2);
/// summary.absorb_filter(Filter::new().with("b", Predicate::eq_int(2)));
/// summary.absorb_filter(Filter::new().with("b", Predicate::eq_int(5)));
/// summary.absorb_filter(Filter::new().with("b", Predicate::eq_int(9)));
/// // Only two disjuncts are kept, but every original subscriber is covered.
/// assert!(summary.iter().count() <= 2);
/// for b in [2, 5, 9] {
///     assert!(summary.matches(&Event::builder(1).int("b", b).build()));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterestSummary {
    disjuncts: Vec<Filter>,
    max_disjuncts: usize,
}

impl Default for InterestSummary {
    fn default() -> Self {
        Self::empty()
    }
}

impl InterestSummary {
    /// Creates a summary representing *no* interests: it matches nothing.
    ///
    /// This is the identity element of [`InterestSummary::merge`].
    pub fn empty() -> Self {
        Self {
            disjuncts: Vec::new(),
            max_disjuncts: DEFAULT_MAX_DISJUNCTS,
        }
    }

    /// Creates an empty summary with a custom bound on the number of
    /// disjuncts kept before widening.
    ///
    /// # Panics
    ///
    /// Panics if `max_disjuncts` is zero.
    pub fn with_max_disjuncts(max_disjuncts: usize) -> Self {
        assert!(max_disjuncts > 0, "a summary must keep at least one disjunct");
        Self {
            disjuncts: Vec::new(),
            max_disjuncts,
        }
    }

    /// Creates a summary representing a single subscription.
    pub fn from_filter(filter: Filter) -> Self {
        let mut summary = Self::empty();
        summary.absorb_filter(filter);
        summary
    }

    /// Creates a summary covering all the given subscriptions.
    pub fn from_filters<I: IntoIterator<Item = Filter>>(filters: I) -> Self {
        let mut summary = Self::empty();
        for filter in filters {
            summary.absorb_filter(filter);
        }
        summary
    }

    /// Iterates over the disjuncts.
    pub fn iter(&self) -> impl Iterator<Item = &Filter> {
        self.disjuncts.iter()
    }

    /// Adds one subscription to the summary, widening if the disjunct bound
    /// would be exceeded.
    pub fn absorb_filter(&mut self, filter: Filter) {
        // An existing disjunct identical to the new filter makes it redundant.
        if self.disjuncts.contains(&filter) {
            return;
        }
        // A match-all disjunct absorbs everything.
        if self.disjuncts.iter().any(|existing| existing.is_empty()) {
            return;
        }
        if filter.is_empty() {
            self.disjuncts.clear();
            self.disjuncts.push(filter);
            return;
        }
        self.disjuncts.push(filter);
        self.compact();
    }

    /// Merges another summary into this one (the union of the represented
    /// interests), widening as needed.
    pub fn merge(&mut self, other: &InterestSummary) {
        for filter in &other.disjuncts {
            self.absorb_filter(filter.clone());
        }
    }

    /// Reduces the number of disjuncts below the bound by repeatedly merging
    /// the closest pair.
    fn compact(&mut self) {
        while self.disjuncts.len() > self.max_disjuncts {
            let (best_i, best_j) = self.closest_pair();
            let merged = self.disjuncts[best_i].widen_union(&self.disjuncts[best_j]);
            // Remove the later index first so the earlier one stays valid.
            self.disjuncts.remove(best_j);
            self.disjuncts.remove(best_i);
            if merged.is_empty() {
                // The widened filter matches everything; it subsumes the rest.
                self.disjuncts.clear();
                self.disjuncts.push(merged);
                return;
            }
            self.disjuncts.push(merged);
        }
    }

    /// Finds the pair of disjuncts whose merge loses the least precision.
    fn closest_pair(&self) -> (usize, usize) {
        debug_assert!(self.disjuncts.len() >= 2);
        let mut best = (0, 1);
        let mut best_distance = usize::MAX;
        for i in 0..self.disjuncts.len() {
            for j in (i + 1)..self.disjuncts.len() {
                let distance = self.disjuncts[i].widening_distance(&self.disjuncts[j]);
                if distance < best_distance {
                    best_distance = distance;
                    best = (i, j);
                }
            }
        }
        best
    }
}

impl Interest for InterestSummary {
    fn matches(&self, event: &Event) -> bool {
        self.disjuncts.iter().any(|filter| filter.matches(event))
    }
}

impl fmt::Display for InterestSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "⊥");
        }
        let mut first = true;
        for filter in &self.disjuncts {
            if !first {
                write!(f, " ∨ ")?;
            }
            write!(f, "({filter})")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Filter> for InterestSummary {
    fn from_iter<I: IntoIterator<Item = Filter>>(iter: I) -> Self {
        InterestSummary::from_filters(iter)
    }
}

impl Extend<Filter> for InterestSummary {
    fn extend<I: IntoIterator<Item = Filter>>(&mut self, iter: I) {
        for filter in iter {
            self.absorb_filter(filter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;

    fn event_b(b: i64) -> Event {
        Event::builder(1).int("b", b).build()
    }

    /// The union of two summaries, neither mutated.
    fn union_of(a: &InterestSummary, b: &InterestSummary) -> InterestSummary {
        let mut union = a.clone();
        union.merge(b);
        union
    }

    #[test]
    fn empty_summary_matches_nothing() {
        let summary = InterestSummary::empty();
        assert!(summary.disjuncts.is_empty());
        assert!(!summary.matches(&event_b(1)));
        assert_eq!(summary.to_string(), "⊥");
        assert_eq!(InterestSummary::default(), summary);
    }

    #[test]
    fn match_all_matches_everything() {
        let summary = InterestSummary::from_filter(Filter::match_all());
        assert!(summary.matches(&event_b(0)));
        assert!(summary.matches(&Event::new(9)));
    }

    #[test]
    fn disjunction_semantics() {
        let summary = InterestSummary::from_filters(vec![
            Filter::new().with("b", Predicate::eq_int(2)),
            Filter::new().with("b", Predicate::eq_int(5)),
        ]);
        assert!(summary.matches(&event_b(2)));
        assert!(summary.matches(&event_b(5)));
        assert!(!summary.matches(&event_b(3)));
        assert_eq!(summary.disjuncts.len(), 2);
    }

    #[test]
    fn duplicate_filters_are_not_kept_twice() {
        let f = Filter::new().with("b", Predicate::eq_int(2));
        let summary = InterestSummary::from_filters(vec![f.clone(), f.clone(), f]);
        assert_eq!(summary.disjuncts.len(), 1);
    }

    #[test]
    fn match_all_filter_subsumes_everything() {
        let mut summary = InterestSummary::from_filter(Filter::new().with("b", Predicate::eq_int(2)));
        summary.absorb_filter(Filter::match_all());
        assert_eq!(summary.disjuncts.len(), 1);
        assert!(summary.matches(&event_b(99)));
        // Further filters are absorbed without growing.
        summary.absorb_filter(Filter::new().with("c", Predicate::gt(0.0)));
        assert_eq!(summary.disjuncts.len(), 1);
    }

    #[test]
    fn widening_respects_bound_and_soundness() {
        let mut summary = InterestSummary::with_max_disjuncts(3);
        let filters: Vec<Filter> = (0..10)
            .map(|i| Filter::new().with("b", Predicate::eq_int(i * 10)))
            .collect();
        for f in &filters {
            summary.absorb_filter(f.clone());
        }
        assert!(summary.disjuncts.len() <= 3);
        // Every original subscriber's event is still covered.
        for i in 0..10 {
            assert!(summary.matches(&event_b(i * 10)));
        }
    }

    #[test]
    fn merge_summaries_covers_both() {
        let a = InterestSummary::from_filter(Filter::new().with("b", Predicate::lt(0.0)));
        let b = InterestSummary::from_filter(Filter::new().with("b", Predicate::gt(10.0)));
        let merged = union_of(&a, &b);
        assert!(merged.matches(&event_b(-5)));
        assert!(merged.matches(&event_b(15)));
        assert!(!merged.matches(&event_b(5)));
        // merge with the empty summary is the identity.
        assert_eq!(union_of(&a, &InterestSummary::empty()), a);
    }

    #[test]
    fn merge_is_commutative_in_semantics() {
        let filters_a = vec![
            Filter::new().with("b", Predicate::eq_int(1)),
            Filter::new().with("c", Predicate::gt(5.0)),
        ];
        let filters_b = vec![
            Filter::new().with("b", Predicate::open_range(10.0, 20.0)),
            Filter::new().with("e", Predicate::Eq("Bob".into())),
        ];
        let a = InterestSummary::from_filters(filters_a);
        let b = InterestSummary::from_filters(filters_b);
        let (ab, ba) = (union_of(&a, &b), union_of(&b, &a));
        let samples = vec![
            event_b(1),
            event_b(15),
            Event::builder(2).float("c", 6.0).build(),
            Event::builder(3).str("e", "Bob").build(),
            Event::builder(4).str("e", "Eve").build(),
        ];
        for s in &samples {
            assert_eq!(ab.matches(s), ba.matches(s), "event {s}");
        }
    }

    #[test]
    fn collect_and_extend() {
        let mut summary: InterestSummary = vec![Filter::new().with("b", Predicate::eq_int(1))]
            .into_iter()
            .collect();
        summary.extend(vec![Filter::new().with("b", Predicate::eq_int(2))]);
        assert_eq!(summary.disjuncts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one disjunct")]
    fn zero_bound_panics() {
        let _ = InterestSummary::with_max_disjuncts(0);
    }

    #[test]
    fn display_shows_disjunction() {
        let summary = InterestSummary::from_filters(vec![
            Filter::new().with("b", Predicate::eq_int(2)),
            Filter::new().with("c", Predicate::gt(0.0)),
        ]);
        let text = summary.to_string();
        assert!(text.contains('∨'));
    }
}
