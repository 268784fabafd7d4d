//! # pmcast-interest — content-based subscription model
//!
//! *Probabilistic Multicast* targets content-based publish/subscribe
//! applications: each subscriber describes its individual interests through
//! criteria on event attributes (e.g. "attribute `b` must be greater than
//! 0", "`e` is `"Bob"` or `"Tom"`"), and the destination subset of every
//! published event is defined implicitly by those interests (Section 1 and
//! Figure 2 of the paper).
//!
//! This crate provides:
//!
//! * [`AttributeValue`] and [`Event`] — the published data model,
//! * [`Predicate`] and [`Filter`] — per-attribute criteria and conjunctive
//!   subscriptions (a missing criterion is a wildcard, as in the paper),
//! * [`InterestSummary`] — the *interest regrouping* performed when a view
//!   table of depth `i` is compacted into a single line of the depth `i+1`
//!   table (Section 2.3).  A summary is a bounded disjunction of filters that
//!   **over-approximates** the union of the represented processes' interests:
//!   it may accept extra events (costing only spurious gossip) but never
//!   rejects an event that one of the represented processes wants,
//! * [`Interest`] — the trait the dissemination layer uses to match events,
//! * [`EventIdSet`] — a compact windowed-bitmap set of event identifiers for
//!   the per-process dedup state (seen / received / delivered), sized for
//!   million-process groups where hash-set constant factors dominate, with
//!   a low-watermark retire path for long-running daemons,
//! * [`InternStats`] — the hit/miss counters the audience-sharing tables
//!   downstream report (the topic oracle's coinciding audiences, the
//!   genuine baseline's per-key directory).
//!
//! ## Example
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use pmcast_interest::{Event, Filter, Interest, InterestSummary, Predicate};
//!
//! // Subscriber 1: b = 2 ∧ c > 40.0        (like process 128.178.73.3 in Fig. 2)
//! let s1 = Filter::new()
//!     .with("b", Predicate::eq_int(2))
//!     .with("c", Predicate::gt(40.0));
//! // Subscriber 2: b > 1 ∧ 20.0 < c < 30.0
//! let s2 = Filter::new()
//!     .with("b", Predicate::gt(1.0))
//!     .with("c", Predicate::open_range(20.0, 30.0));
//!
//! // Regrouping both subscribers for the parent view line.
//! let mut summary = InterestSummary::from_filter(s1.clone());
//! summary.absorb_filter(s2.clone());
//!
//! let event = Event::builder(7).int("b", 2).float("c", 55.5).build();
//! assert!(s1.matches(&event));
//! assert!(!s2.matches(&event));
//! // The summary accepts anything either subscriber accepts.
//! assert!(summary.matches(&event));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod filter;
mod hashcons;
mod idset;
mod predicate;
mod summary;
mod value;

pub use event::{Event, EventBuilder, EventId};
pub use hashcons::InternStats;
pub use idset::EventIdSet;
pub use filter::Filter;
pub use predicate::Predicate;
pub use summary::InterestSummary;
pub use value::AttributeValue;

/// Anything that can decide whether it is interested in an [`Event`].
///
/// Implemented by individual subscriptions ([`Filter`]) as well as by the
/// regrouped interests of whole subgroups ([`InterestSummary`]); the
/// dissemination layer only depends on this trait (the `⊲` operator of the
/// paper's Figure 3).
pub trait Interest {
    /// Returns `true` if the event matches this interest.
    fn matches(&self, event: &Event) -> bool;
}

impl<T: Interest + ?Sized> Interest for &T {
    fn matches(&self, event: &Event) -> bool {
        (**self).matches(event)
    }
}

impl<T: Interest + ?Sized> Interest for Box<T> {
    fn matches(&self, event: &Event) -> bool {
        (**self).matches(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_is_object_safe() {
        let filter = Filter::new().with("b", Predicate::gt(0.0));
        let boxed: Box<dyn Interest> = Box::new(filter);
        let event = Event::builder(1).int("b", 3).build();
        assert!(boxed.matches(&event));
        // References also implement Interest.
        let by_ref: &dyn Interest = &*boxed;
        assert!(by_ref.matches(&event));
    }
}
