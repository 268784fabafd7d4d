//! The summary table a provider answers from is proven, not trusted, and
//! so is the epoch every caller's verdict cache relies on.
//!
//! [`DelegateView`] answers [`MembershipView::summary_allows`] from its
//! attached table, changed by every leave, swept crash and rejoin, and
//! keeps no verdict of its own: pmcast's event store keeps them, under
//! [`MembershipView::summary_epoch`].  This file steps a provider with
//! attached summaries through random histories of lifecycle observations
//! and membership rounds, and after every step holds `summary_allows`
//! equal to an **uncached** [`SubtreeSummaries::allows`] over a table
//! built fresh from a hand-maintained filter vector, for events sharing
//! one id but not their content, an event without the attribute, values
//! of other types under the same name, and an out-of-space and a too-deep
//! prefix (both must answer `true`).  It also holds the epoch contract: if
//! any of those answers differs from the previous step's, the epoch has
//! moved, and so has it whenever the attributes a verdict reads
//! ([`MembershipView::summary_attributes`]) changed.  The store's own
//! proof is `store_verdicts_equal_the_uncached_table` in `pmcast-core`.

use pmcast_addr::{AddressSpace, Prefix};
use pmcast_interest::{Event, Filter, Predicate};
use std::sync::Arc;

use pmcast_membership::{
    DelegateView, DelegateViewConfig, MembershipView, SubtreeSummaries, TOPIC_ATTRIBUTE,
};
use proptest::prelude::*;

/// Topics somebody may subscribe to; probes range a little beyond.
const TOPICS: i64 = 6;

/// One step of a history.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join(usize),
    Leave(usize),
    Crash(usize),
    Round,
}

#[derive(Debug, Clone)]
struct History {
    arity: u32,
    depth: usize,
    seed: u64,
    occupied: Vec<bool>,
    filters: Vec<Option<Filter>>,
    steps: Vec<Step>,
}

/// A subscription: none, a topic set, another attribute altogether, or a
/// conjunction over two attributes (so a content is more than one value).
fn filter_of(kind: u8, first: i64, second: i64) -> Option<Filter> {
    match kind {
        0 => None,
        1..=3 => Some(Filter::new().with(TOPIC_ATTRIBUTE, Predicate::one_of([first, second]))),
        4 => Some(Filter::new().with("urgent", Predicate::Eq(true.into()))),
        _ => Some(
            Filter::new()
                .with(TOPIC_ATTRIBUTE, Predicate::one_of([first]))
                .with("b", Predicate::gt(second as f64)),
        ),
    }
}

fn arb_history() -> impl Strategy<Value = History> {
    (0usize..2, 0u64..1_000, 0u8..2).prop_flat_map(|(shape, seed, sparse)| {
        let (arity, depth) = [(2u32, 3usize), (3, 2)][shape];
        let n = (arity as usize).pow(depth as u32);
        let step = (0u8..8, 0..n).prop_map(|(kind, process)| match kind {
            0 | 1 => Step::Join(process),
            2 | 3 => Step::Leave(process),
            4 | 5 => Step::Crash(process),
            _ => Step::Round,
        });
        (
            prop::collection::vec(0u8..4, n),
            prop::collection::vec((0u8..6, 0..TOPICS, 0..TOPICS), n),
            prop::collection::vec(step, 0..40),
        )
            .prop_map(move |(occupancy, subscriptions, steps)| History {
                arity,
                depth,
                seed,
                occupied: occupancy.iter().map(|&o| sparse == 0 || o != 0).collect(),
                filters: subscriptions
                    .iter()
                    .map(|&(kind, first, second)| filter_of(kind, first, second))
                    .collect(),
                steps,
            })
    })
}

/// Every prefix of the space, then one with a component out of range and
/// one longer than an address.
fn probe_prefixes(space: &AddressSpace) -> Vec<Prefix> {
    let mut prefixes = vec![Prefix::root()];
    let mut level = vec![Prefix::root()];
    for depth in 1..=space.depth() {
        level = level
            .iter()
            .flat_map(|parent| (0..space.arity(depth)).map(|component| parent.child(component)))
            .collect();
        prefixes.extend(level.iter().cloned());
    }
    prefixes.push(Prefix::from_components(vec![space.arity(1)]));
    prefixes.push(Prefix::from_components(vec![0; space.depth() + 1]));
    prefixes
}

/// The standing probes.  All but the last carry the same id: a cache keyed
/// by id alone would serve one's verdicts to the next.
fn probe_events() -> Vec<Event> {
    let mut events: Vec<Event> = (0..TOPICS + 2)
        .map(|topic| Event::builder(1).int(TOPIC_ATTRIBUTE, topic).build())
        .collect();
    events.push(Event::builder(1).build());
    events.push(Event::builder(1).int("b", 3).build());
    events.push(Event::builder(1).attribute("urgent", true).build());
    events.push(Event::builder(1).attribute("urgent", false).int(TOPIC_ATTRIBUTE, 2).build());
    events.push(Event::builder(1).int(TOPIC_ATTRIBUTE, 2).int("b", 3).build());
    events.push(Event::builder(1).int(TOPIC_ATTRIBUTE, 2).float("b", 0.5).build());
    // Other types under the topic's name: `2.0` matches what `2` matches,
    // a string and a NaN match nothing — none of them is the content `2`.
    events.push(Event::builder(1).float(TOPIC_ATTRIBUTE, 2.0).build());
    events.push(Event::builder(1).float(TOPIC_ATTRIBUTE, f64::NAN).build());
    events.push(Event::builder(1).str(TOPIC_ATTRIBUTE, "2").build());
    events.push(Event::builder(2).int(TOPIC_ATTRIBUTE, 0).int("unmentioned", 9).build());
    events
}

/// What a check saw: the uncached answers for every probe and prefix, the
/// epoch and the attributes a verdict reads.
type Seen = (Vec<bool>, u64, Option<Arc<[String]>>);

/// The provider beside the filter vector its table must amount to, and
/// what the previous check saw.
struct Lockstep {
    space: AddressSpace,
    view: DelegateView,
    original: Vec<Option<Filter>>,
    /// What each process contributes to the table right now.
    current: Vec<Option<Filter>>,
    alive: Vec<bool>,
    /// Crashed, not yet swept by a round: still contributing.
    unswept: Vec<usize>,
    prefixes: Vec<Prefix>,
    seen: Option<Seen>,
}

impl Lockstep {
    fn new(history: &History) -> Self {
        let space = AddressSpace::regular(history.depth, history.arity).expect("valid shape");
        let view = DelegateView::bootstrap_sparse(
            history.arity,
            history.depth,
            DelegateViewConfig::default(),
            history.seed,
            &history.occupied,
        );
        // As the trial runner does: the table covers every address, absent
        // or not.
        view.attach_interest_summaries(SubtreeSummaries::build(
            space.clone(),
            history.filters.clone(),
        ));
        Self {
            prefixes: probe_prefixes(&space),
            space,
            view,
            original: history.filters.clone(),
            current: history.filters.clone(),
            alive: history.occupied.clone(),
            unswept: Vec::new(),
            seen: None,
        }
    }

    fn apply(&mut self, step: Step) {
        match step {
            Step::Join(process) => {
                self.view.observe_join(process);
                if !self.alive[process] {
                    self.alive[process] = true;
                    self.current[process] = self.original[process].clone();
                    self.unswept.retain(|&crashed| crashed != process);
                }
            }
            Step::Leave(process) => {
                self.view.observe_leave(process);
                if self.alive[process] {
                    self.alive[process] = false;
                    self.current[process] = None;
                }
            }
            Step::Crash(process) => {
                self.view.observe_crash(process);
                if self.alive[process] {
                    self.alive[process] = false;
                    self.unswept.push(process);
                }
            }
            Step::Round => {
                self.view.round_elapsed();
                for crashed in self.unswept.drain(..) {
                    self.current[crashed] = None;
                }
            }
        }
        self.check();
    }

    /// `summary_allows` against the uncached table for every probe event
    /// and prefix, and the epoch against the previous check: unmoved only
    /// if no answer and no attribute changed.
    fn check(&mut self) {
        let uncached = SubtreeSummaries::build(self.space.clone(), self.current.clone());
        let mut answers = Vec::new();
        for event in probe_events() {
            for prefix in &self.prefixes {
                let allowed = uncached.allows(prefix, &event);
                prop_assert_eq!(
                    self.view.summary_allows(prefix, &event),
                    allowed,
                    "summary_allows({:?}, {})",
                    prefix,
                    event
                );
                answers.push(allowed);
            }
            // The last two probe prefixes are outside the space.
            prop_assert!(answers[answers.len() - 2] && answers[answers.len() - 1]);
        }
        let (epoch, attributes) = (self.view.summary_epoch(), self.view.summary_attributes());
        if let Some((seen_answers, seen_epoch, seen_attributes)) = &self.seen {
            if *seen_epoch == epoch {
                prop_assert!(*seen_answers == answers, "a verdict changed under epoch {}", epoch);
                prop_assert_eq!(seen_attributes, &attributes, "attributes changed under epoch {}", epoch);
            }
        }
        self.seen = Some((answers, epoch, attributes));
    }
}

proptest! {
    #[test]
    fn summary_answers_equal_the_uncached_table_and_move_the_epoch(history in arb_history()) {
        let mut lockstep = Lockstep::new(&history);
        lockstep.check();
        for &step in &history.steps {
            lockstep.apply(step);
        }
    }
}

#[test]
fn a_rejoin_is_seen_through_a_warm_memo() {
    // The sequence a skipped table change in `on_join` gets wrong, spelled
    // out: the veto is asked while the only subscriber is away, and must
    // not outlive its return — nor may the epoch stand still across it.
    let space = AddressSpace::regular(2, 2).expect("valid shape");
    let view = DelegateView::bootstrap(2, 2, DelegateViewConfig::default(), 3);
    let mut filters = vec![None; 4];
    filters[3] = Some(Filter::new().with(TOPIC_ATTRIBUTE, Predicate::one_of([5i64])));
    view.attach_interest_summaries(SubtreeSummaries::build(space, filters));
    let event = Event::builder(1).int(TOPIC_ATTRIBUTE, 5).build();
    let subtree = Prefix::from_components(vec![1]);
    let ask = || view.summary_allows(&subtree, &event);
    assert!(ask());
    let attached = view.summary_epoch();
    view.observe_leave(3);
    assert!(!ask());
    assert!(!ask(), "asking again changes nothing");
    let left = view.summary_epoch();
    assert_ne!(left, attached);
    view.observe_join(3);
    assert!(ask(), "the rejoin re-announced the subscription");
    assert_ne!(view.summary_epoch(), left);
}
