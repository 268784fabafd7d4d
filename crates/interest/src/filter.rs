use std::collections::BTreeMap;
use std::fmt;

use crate::{Event, Interest, Predicate};

/// A conjunctive subscription: one [`Predicate`] per constrained attribute.
///
/// A filter corresponds to one *Interests* cell of the paper's view tables
/// (Figure 2), e.g. `b = 2 ∧ c > 40.0 ∧ z = 20000`.  Attributes without a
/// criterion are wildcards; an event matches the filter if **all** criteria
/// are satisfied by the event's attribute values.  An event that lacks a
/// constrained attribute does not match (unless the criterion is the
/// explicit wildcard [`Predicate::Any`]).
///
/// # Example
///
/// ```rust
/// use pmcast_interest::{Event, Filter, Interest, Predicate};
///
/// // b > 1 ∧ 20.0 < c < 30.0 ∧ z ≤ 50000   (process 128.178.73.19 in Fig. 2)
/// let filter = Filter::new()
///     .with("b", Predicate::gt(1.0))
///     .with("c", Predicate::open_range(20.0, 30.0))
///     .with("z", Predicate::le(50_000.0));
///
/// let matching = Event::builder(1).int("b", 4).float("c", 25.0).int("z", 10).build();
/// let too_cold = Event::builder(2).int("b", 4).float("c", 5.0).int("z", 10).build();
/// assert!(filter.matches(&matching));
/// assert!(!filter.matches(&too_cold));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    criteria: BTreeMap<String, Predicate>,
}

impl Filter {
    /// Creates an empty filter, which matches every event (all attributes
    /// are wildcards).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a filter that matches every event; alias of [`Filter::new`]
    /// conveying intent at call sites.
    pub fn match_all() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a criterion for an attribute, returning the filter
    /// for chaining.
    pub fn with(mut self, attribute: impl Into<String>, predicate: Predicate) -> Self {
        self.criteria.insert(attribute.into(), predicate);
        self
    }

    /// Adds (or replaces) a criterion in place.
    pub fn set(&mut self, attribute: impl Into<String>, predicate: Predicate) {
        self.criteria.insert(attribute.into(), predicate);
    }

    /// Returns `true` if the filter has no criteria (and therefore matches
    /// every event).
    pub fn is_empty(&self) -> bool {
        self.criteria.is_empty()
    }

    /// Returns the attribute names constrained by this filter.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.criteria.keys().map(String::as_str)
    }

    /// Merges another filter into an **over-approximation** of the
    /// disjunction of the two: per attribute, the predicates are widened with
    /// [`Predicate::union`]; attributes constrained by only one of the two
    /// filters are dropped (widened to the implicit wildcard).
    ///
    /// This is the single-line flavour of interest regrouping; anything that
    /// matched either input filter matches the result.
    pub fn widen_union(&self, other: &Filter) -> Filter {
        let mut criteria = BTreeMap::new();
        for (attribute, predicate) in &self.criteria {
            if let Some(other_predicate) = other.criteria.get(attribute) {
                let merged = predicate.union(other_predicate);
                if !merged.is_any() {
                    criteria.insert(attribute.clone(), merged);
                }
            }
        }
        Filter { criteria }
    }

    /// A rough measure of how much precision would be lost by widening
    /// `self` with `other`: the number of attributes constrained by exactly
    /// one of the two filters.  Interest regrouping merges the pair with the
    /// smallest loss first.
    pub fn widening_distance(&self, other: &Filter) -> usize {
        let only_self = self
            .criteria
            .keys()
            .filter(|k| !other.criteria.contains_key(*k))
            .count();
        let only_other = other
            .criteria
            .keys()
            .filter(|k| !self.criteria.contains_key(*k))
            .count();
        only_self + only_other
    }
}

impl Interest for Filter {
    fn matches(&self, event: &Event) -> bool {
        self.criteria.iter().all(|(attribute, predicate)| {
            if predicate.is_any() {
                return true;
            }
            match event.get(attribute) {
                Some(value) => predicate.evaluate(value),
                None => false,
            }
        })
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.criteria.is_empty() {
            return write!(f, "⊤");
        }
        let mut first = true;
        for (attribute, predicate) in &self.criteria {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "{attribute} {predicate}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<(String, Predicate)> for Filter {
    fn from_iter<I: IntoIterator<Item = (String, Predicate)>>(iter: I) -> Self {
        Filter {
            criteria: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Predicate)> for Filter {
    fn extend<I: IntoIterator<Item = (String, Predicate)>>(&mut self, iter: I) {
        self.criteria.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttributeValue;

    fn figure2_filter() -> Filter {
        // 128.178.73.3: b = 2, c > 40.0, z = 20000
        Filter::new()
            .with("b", Predicate::eq_int(2))
            .with("c", Predicate::gt(40.0))
            .with("z", Predicate::eq_int(20_000))
    }

    #[test]
    fn conjunction_semantics() {
        let filter = figure2_filter();
        let ok = Event::builder(1).int("b", 2).float("c", 41.0).int("z", 20_000).build();
        let wrong_b = Event::builder(2).int("b", 3).float("c", 41.0).int("z", 20_000).build();
        let wrong_c = Event::builder(3).int("b", 2).float("c", 40.0).int("z", 20_000).build();
        assert!(filter.matches(&ok));
        assert!(!filter.matches(&wrong_b));
        assert!(!filter.matches(&wrong_c));
    }

    #[test]
    fn missing_attribute_fails_unless_wildcard() {
        let filter = Filter::new().with("b", Predicate::gt(0.0));
        let without_b = Event::builder(1).float("c", 1.0).build();
        assert!(!filter.matches(&without_b));

        let wildcard = Filter::new().with("b", Predicate::Any);
        assert!(wildcard.matches(&without_b));
    }

    #[test]
    fn empty_filter_matches_everything() {
        let filter = Filter::match_all();
        assert!(filter.is_empty());
        assert!(filter.matches(&Event::new(1)));
        assert!(filter.matches(&Event::builder(2).str("e", "Bob").build()));
    }

    #[test]
    fn accessors_and_iteration() {
        let filter = figure2_filter();
        let attributes: Vec<&str> = filter.attributes().collect();
        assert_eq!(attributes, vec!["b", "c", "z"]);
    }

    #[test]
    fn set_replaces_existing_criterion() {
        let mut filter = Filter::new().with("b", Predicate::eq_int(1));
        filter.set("b", Predicate::eq_int(2));
        assert!(filter.matches(&Event::builder(1).int("b", 2).build()));
        assert!(!filter.matches(&Event::builder(2).int("b", 1).build()));
    }

    #[test]
    fn widen_union_is_sound() {
        // 128.178.73.17: b = 5 ∧ c > 53.5
        let a = Filter::new()
            .with("b", Predicate::eq_int(5))
            .with("c", Predicate::gt(53.5));
        // 128.178.73.19: b > 1 ∧ 20.0 < c < 30.0 ∧ z ≤ 50000
        let b = Filter::new()
            .with("b", Predicate::gt(1.0))
            .with("c", Predicate::open_range(20.0, 30.0))
            .with("z", Predicate::le(50_000.0));
        let merged = a.widen_union(&b);
        // z is only constrained by b, so it disappears from the merge.
        assert!(merged.attributes().all(|attribute| attribute != "z"));

        let events = vec![
            Event::builder(1).int("b", 5).float("c", 60.0).int("z", 0).build(),
            Event::builder(2).int("b", 2).float("c", 25.0).int("z", 10).build(),
            Event::builder(3).int("b", 3).float("c", 40.0).int("z", 10).build(),
        ];
        for event in &events {
            if a.matches(event) || b.matches(event) {
                assert!(merged.matches(event), "widened filter must accept {event}");
            }
        }
    }

    #[test]
    fn widening_distance_counts_asymmetric_attributes() {
        let a = Filter::new().with("b", Predicate::Any).with("c", Predicate::Any);
        let b = Filter::new().with("b", Predicate::Any).with("z", Predicate::Any);
        assert_eq!(a.widening_distance(&b), 2);
        assert_eq!(a.widening_distance(&a), 0);
        assert_eq!(b.widening_distance(&a), 2);
    }

    #[test]
    fn display_shows_conjunction() {
        let filter = figure2_filter();
        let text = filter.to_string();
        assert!(text.contains("b = 2"));
        assert!(text.contains('∧'));
        assert_eq!(Filter::new().to_string(), "⊤");
    }

    #[test]
    fn collect_and_extend() {
        let mut filter: Filter = vec![("b".to_string(), Predicate::eq_int(1))]
            .into_iter()
            .collect();
        filter.extend(vec![("c".to_string(), Predicate::gt(0.0))]);
        assert_eq!(filter.attributes().count(), 2);
    }

    #[test]
    fn bool_attributes_work_in_filters() {
        let filter = Filter::new().with("urgent", Predicate::Eq(AttributeValue::Bool(true)));
        assert!(filter.matches(&Event::builder(1).attribute("urgent", true).build()));
        assert!(!filter.matches(&Event::builder(2).attribute("urgent", false).build()));
    }
}
