//! Property-based tests for the subscription model.
//!
//! The central invariant is *soundness of regrouping*: an interest summary
//! built from a set of subscriptions never rejects an event accepted by one
//! of those subscriptions (Section 2.3 of the paper — a false negative at a
//! delegate would silently cut off an entire subtree of subscribers).

use pmcast_interest::{AttributeValue, Event, Filter, Interest, InterestSummary, Predicate};
use proptest::prelude::*;

/// Generates attribute values drawn from a small, collision-friendly domain
/// so that predicates and events actually interact.
fn arb_value() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        (-20i64..20).prop_map(AttributeValue::Int),
        (-20.0f64..20.0).prop_map(AttributeValue::Float),
        prop_oneof![Just("Bob"), Just("Tom"), Just("Eve"), Just("Alice")]
            .prop_map(|s| AttributeValue::Str(s.to_string())),
        any::<bool>().prop_map(AttributeValue::Bool),
    ]
}

fn arb_attribute() -> impl Strategy<Value = String> {
    prop_oneof![Just("b"), Just("c"), Just("e"), Just("z")].prop_map(str::to_string)
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::Any),
        arb_value().prop_map(Predicate::Eq),
        arb_value().prop_map(Predicate::Ne),
        prop::collection::vec(arb_value(), 1..4).prop_map(Predicate::OneOf),
        (-20.0f64..20.0).prop_map(Predicate::gt),
        (-20.0f64..20.0).prop_map(Predicate::ge),
        (-20.0f64..20.0).prop_map(Predicate::lt),
        (-20.0f64..20.0).prop_map(Predicate::le),
        (-20.0f64..20.0, 0.0f64..20.0).prop_map(|(lo, w)| Predicate::open_range(lo, lo + w)),
        (-20.0f64..20.0, 0.0f64..20.0).prop_map(|(lo, w)| Predicate::closed_range(lo, lo + w)),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    prop::collection::vec((arb_attribute(), arb_predicate()), 0..4)
        .prop_map(|criteria| criteria.into_iter().collect())
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        prop::collection::vec((arb_attribute(), arb_value()), 0..5),
    )
        .prop_map(|(id, attrs)| {
            let mut event = Event::new(id);
            for (name, value) in attrs {
                event.insert(name, value);
            }
            event
        })
}

proptest! {
    /// Predicate union is an over-approximation of the logical disjunction.
    #[test]
    fn predicate_union_is_sound(
        a in arb_predicate(),
        b in arb_predicate(),
        value in arb_value(),
    ) {
        let union = a.union(&b);
        if a.evaluate(&value) || b.evaluate(&value) {
            prop_assert!(union.evaluate(&value),
                "union {union} of {a} and {b} must accept {value}");
        }
    }

    /// Predicate union is commutative in its semantics.
    #[test]
    fn predicate_union_semantics_commute(
        a in arb_predicate(),
        b in arb_predicate(),
        value in arb_value(),
    ) {
        prop_assert_eq!(a.union(&b).evaluate(&value), b.union(&a).evaluate(&value));
    }

    /// Filter widening is an over-approximation of the disjunction of two
    /// subscriptions.
    #[test]
    fn filter_widening_is_sound(
        a in arb_filter(),
        b in arb_filter(),
        event in arb_event(),
    ) {
        let widened = a.widen_union(&b);
        if a.matches(&event) || b.matches(&event) {
            prop_assert!(widened.matches(&event),
                "widened filter {widened} must accept {event} accepted by {a} or {b}");
        }
    }

    /// An interest summary never rejects an event accepted by one of the
    /// subscriptions it was built from, regardless of the disjunct bound.
    #[test]
    fn summary_never_loses_a_subscriber(
        filters in prop::collection::vec(arb_filter(), 1..12),
        events in prop::collection::vec(arb_event(), 1..8),
        max_disjuncts in 1usize..6,
    ) {
        let mut summary = InterestSummary::with_max_disjuncts(max_disjuncts);
        for f in &filters {
            summary.absorb_filter(f.clone());
        }
        prop_assert!(summary.iter().count() <= max_disjuncts.max(1));
        for event in &events {
            let any_subscriber_interested = filters.iter().any(|f| f.matches(event));
            if any_subscriber_interested {
                prop_assert!(summary.matches(event),
                    "summary {summary} must accept {event}");
            }
        }
    }

    /// Merging two summaries covers everything either covered.
    #[test]
    fn summary_merge_is_sound(
        filters_a in prop::collection::vec(arb_filter(), 1..6),
        filters_b in prop::collection::vec(arb_filter(), 1..6),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let a = InterestSummary::from_filters(filters_a);
        let b = InterestSummary::from_filters(filters_b);
        let mut merged = a.clone();
        merged.merge(&b);
        for event in &events {
            if a.matches(event) || b.matches(event) {
                prop_assert!(merged.matches(event));
            }
        }
    }

    /// Merging is idempotent: absorbing the same summary twice changes
    /// nothing semantically.
    #[test]
    fn summary_merge_is_idempotent(
        filters in prop::collection::vec(arb_filter(), 1..6),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let summary = InterestSummary::from_filters(filters);
        let mut twice = summary.clone();
        twice.merge(&summary);
        for event in &events {
            prop_assert_eq!(summary.matches(event), twice.matches(event));
        }
    }

    /// An empty filter matches every event, a missing attribute never
    /// satisfies a non-wildcard criterion.
    #[test]
    fn empty_filter_matches_all(event in arb_event()) {
        prop_assert!(Filter::match_all().matches(&event));
        prop_assert!(InterestSummary::from_filter(Filter::match_all()).matches(&event));
        prop_assert!(!InterestSummary::empty().matches(&event));
    }
}
