//! The summary veto's memo is proven, not trusted.
//!
//! [`DelegateView`] answers [`MembershipView::summary_allows`] from its
//! attached table and its whole-view form
//! [`MembershipView::summary_verdict`] from a memo of masks keyed by what a
//! verdict reads — the event's values on the attributes the attached
//! filters mention, and the view's id — and drops the memo whenever a
//! leave, a swept crash or a rejoin changes the table.  This file steps a
//! provider with attached summaries through random histories of lifecycle
//! observations, membership rounds and queries, and after every step holds
//! both forms equal to an **uncached** [`SubtreeSummaries::allows`] over a
//! table built fresh from a hand-maintained filter vector.  The probes are
//! chosen against the ways a memo goes wrong: events sharing one id but not
//! their content, an event without the attribute, values of other types
//! under the same name, an out-of-space and a too-deep prefix (both must
//! answer `true`), sweeps of more distinct contents than
//! [`SUMMARY_MEMO_ROWS`], and two views asked about alternately, each a
//! second time once the memo holds its mask.

use pmcast_addr::{AddressSpace, Prefix};
use pmcast_interest::{Event, Filter, Predicate};
use pmcast_membership::{
    DelegateView, DelegateViewConfig, MembershipView, SubtreeSummaries, SUMMARY_MEMO_ROWS,
    TOPIC_ATTRIBUTE,
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
    /// Ask about `SUMMARY_MEMO_ROWS + 3` distinct contents, starting at this
    /// topic: the memo has to forget on the way.
    Sweep(i64),
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
        let step = (0u8..9, 0..n, 0..TOPICS).prop_map(|(kind, process, topic)| match kind {
            0 | 1 => Step::Join(process),
            2 | 3 => Step::Leave(process),
            4 | 5 => Step::Crash(process),
            6 | 7 => Step::Round,
            _ => Step::Sweep(topic),
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

/// The standing probes.  All but the last carry the same id: a memo keyed
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

/// The provider beside the filter vector its table must amount to.
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
            Step::Sweep(start) => {
                let contents = SUMMARY_MEMO_ROWS as i64 + 3;
                let sweep: Vec<Event> = (start..start + contents)
                    .map(|topic| Event::builder(7).int(TOPIC_ATTRIBUTE, topic).build())
                    .collect();
                self.check(&sweep);
            }
        }
        self.check(&probe_events());
    }

    /// Both forms of the query against the uncached table, for every probe
    /// prefix: one at a time, and in the whole-view form as view 0 with
    /// every prefix twice in a row, as a view lists a subgroup's delegates,
    /// and as view 1 the prefixes backwards, asked 0, 1, 0, 1 so that the
    /// second ask of each is answered from the mask kept under its id.
    fn check(&self, events: &[Event]) {
        let uncached = SubtreeSummaries::build(self.space.clone(), self.current.clone());
        let doubled: Vec<&Prefix> = self.prefixes.iter().flat_map(|p| [p, p]).collect();
        let backwards: Vec<&Prefix> = self.prefixes.iter().rev().collect();
        for event in events {
            let expected: Vec<bool> = self
                .prefixes
                .iter()
                .map(|prefix| uncached.allows(prefix, event))
                .collect();
            // The last two probe prefixes are outside the space.
            prop_assert!(expected[expected.len() - 2] && expected[expected.len() - 1]);
            for (prefix, &allowed) in self.prefixes.iter().zip(&expected) {
                prop_assert_eq!(
                    self.view.summary_allows(prefix, event),
                    allowed,
                    "summary_allows({:?}, {})",
                    prefix,
                    event
                );
            }
            for (view, subgroups) in [(0, &doubled), (1, &backwards), (0, &doubled), (1, &backwards)] {
                let folded = subgroups
                    .iter()
                    .enumerate()
                    .filter(|(_, prefix)| uncached.allows(prefix, event))
                    .fold(0u128, |allowed, (position, _)| allowed | 1 << position);
                prop_assert_eq!(
                    self.view.summary_verdict(event, view, &mut subgroups.iter().copied()),
                    folded,
                    "summary_verdict({}, view {})",
                    event,
                    view
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn memoised_verdicts_equal_the_uncached_table(history in arb_history()) {
        let mut lockstep = Lockstep::new(&history);
        lockstep.check(&probe_events());
        for &step in &history.steps {
            lockstep.apply(step);
        }
    }
}

#[test]
fn a_rejoin_is_seen_through_a_warm_memo() {
    // The sequence a skipped invalidation in `on_join` gets wrong, spelled
    // out: the veto is memoised while the only subscriber is away, and must
    // not outlive its return.
    let space = AddressSpace::regular(2, 2).expect("valid shape");
    let view = DelegateView::bootstrap(2, 2, DelegateViewConfig::default(), 3);
    let mut filters = vec![None; 4];
    filters[3] = Some(Filter::new().with(TOPIC_ATTRIBUTE, Predicate::one_of([5i64])));
    view.attach_interest_summaries(SubtreeSummaries::build(space, filters));
    let event = Event::builder(1).int(TOPIC_ATTRIBUTE, 5).build();
    let subtree = Prefix::from_components(vec![1]);
    let ask = || {
        let allowed = view.summary_verdict(&event, 0, &mut [&subtree].into_iter()) == 1;
        assert_eq!(view.summary_allows(&subtree, &event), allowed);
        allowed
    };
    assert!(ask());
    view.observe_leave(3);
    assert!(!ask());
    assert!(!ask(), "answered from the memo");
    view.observe_join(3);
    assert!(ask(), "the rejoin re-announced the subscription");
}
