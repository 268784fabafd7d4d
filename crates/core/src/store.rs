use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::cell::{RefCell, RefMut};
use std::sync::Arc;

use pmcast_interest::{Event, EventId};
use rustc_hash::FxHashMap;

/// A bound on a store's verdicts, which it forgets all at once on overflow
/// (50 topics over the 21 views of a 4³ group are 1 050 verdicts).
const VERDICT_ROWS: usize = 1 << 14;

/// The events of one protocol group, each kept once: an id → [`Arc<Event>`]
/// map that a publication admits into and a *first* receipt reads, so a
/// [`Gossip`](crate::Gossip) carries the id alone and a send, a duplicate,
/// a loss draw or a queued frame never touches a reference count (the
/// split lpbcast makes between gossiping ids and retrieving content).
///
/// It hashconses *content* too, an event's values on the attributes summary
/// verdicts read ([`MembershipView::summary_attributes`](pmcast_membership::MembershipView::summary_attributes)):
/// at its first verdict ask, a kept event takes the id of a kept witness of
/// equal content or becomes one itself, and verdicts are kept per content
/// and view: the group's only summary-verdict cache.  Every witness is a
/// kept event, so the store bounds them too.
///
/// The store lives as long as the group, so a simulated trial never loses
/// content.  A long-running daemon bounds it instead: every process hands
/// the floor it retired to ([`MulticastProtocol::retire_and_forget_below`](crate::MulticastProtocol::retire_and_forget_below)),
/// and the store forgets every id below the highest of them, in O(log n)
/// per forgotten id off a min-heap of the admitted ids — never a scan of
/// the store.  A receipt whose content was forgotten delivers nothing.
#[derive(Debug, Default)]
pub(crate) struct EventStore(RefCell<StoreState>);

#[derive(Debug, Default)]
struct StoreState {
    /// Every kept event, with its content id from its first verdict ask on.
    events: FxHashMap<EventId, (Arc<Event>, Option<EventId>)>,
    /// Every id in `events`, smallest first out.
    admitted: BinaryHeap<Reverse<EventId>>,
    /// Ids below this were forgotten, or are never kept.
    floor: EventId,
    /// The summary epoch the verdicts hold under, and what content is then;
    /// under `None` no content id or verdict is kept.
    read_at: Option<u64>,
    reads: Option<Arc<[String]>>,
    /// Content hash → the kept event whose id is that content's.
    witnesses: FxHashMap<u64, EventId>,
    /// `(content id, view id)` → verdict.
    verdicts: FxHashMap<(EventId, u32), u128>,
}

impl EventStore {
    fn state(&self) -> RefMut<'_, StoreState> {
        self.0.borrow_mut()
    }

    /// Keeps a published event, unless its id is below the floor.
    ///
    /// Redundant publishers must publish one event: in debug builds,
    /// admitting an id the store holds with different content panics.
    pub(crate) fn admit(&self, event: &Arc<Event>) {
        let mut state = self.state();
        let id = event.id();
        if id < state.floor {
            return;
        }
        match state.events.entry(id) {
            Entry::Occupied(held) => debug_assert!(
                Arc::ptr_eq(&held.get().0, event) || *held.get().0 == **event,
                "event {id} published twice with different content: redundant publishers \
                 must publish one event"
            ),
            Entry::Vacant(slot) => {
                slot.insert((Arc::clone(event), None));
                state.admitted.push(Reverse(id));
            }
        }
    }

    /// The event an incoming gossip names, or `None` if the store forgot it.
    ///
    /// # Panics
    ///
    /// Panics if the id is at or above the floor and was never admitted: a
    /// gossip for an event nobody in the group published.
    pub(crate) fn get(&self, id: EventId) -> Option<Arc<Event>> {
        let state = self.state();
        match state.events.get(&id) {
            Some((event, _)) => Some(Arc::clone(event)),
            None => {
                assert!(
                    id < state.floor,
                    "gossip for {id}, which no process of this group published \
                     (the store forgets below {})",
                    state.floor
                );
                None
            }
        }
    }

    /// Event `id`'s summary verdict in view `view` under `epoch`: the one its
    /// content holds there, or else `ask()`, kept if `id` is (a full table
    /// forgets on a miss).  A new epoch
    /// forgets every verdict and calls `reads()`, what content is; a change
    /// there forgets every content id too.
    pub(crate) fn summary_verdict(
        &self,
        id: EventId,
        view: u32,
        epoch: u64,
        reads: impl FnOnce() -> Option<Arc<[String]>>,
        ask: impl FnOnce() -> u128,
    ) -> u128 {
        let state = &mut *self.state();
        if state.read_at != Some(epoch) {
            state.read_at = Some(epoch);
            state.verdicts.clear();
            let reads = reads();
            if reads != state.reads {
                state.reads = reads;
                state.witnesses.clear();
                state.events.values_mut().for_each(|(_, content)| *content = None);
            }
        }
        let Some(content) = state.content_of(id) else {
            return ask();
        };
        if state.verdicts.len() == VERDICT_ROWS && !state.verdicts.contains_key(&(content, view)) {
            state.verdicts.clear();
        }
        *state.verdicts.entry((content, view)).or_insert_with(ask)
    }

    /// Raises the floor to `floor` (a lower one changes nothing) and forgets
    /// every event below it, and the witnesses they were.
    pub(crate) fn forget_below(&self, floor: EventId) {
        let state = &mut *self.state();
        if floor <= state.floor {
            return;
        }
        state.floor = floor;
        while let Some(&Reverse(id)) = state.admitted.peek() {
            if id >= floor {
                break;
            }
            state.admitted.pop();
            let removed = state.events.remove(&id);
            if let (Some((event, Some(_))), Some(reads)) = (removed, &state.reads) {
                let hash = event.content_hash(reads);
                if state.witnesses.get(&hash) == Some(&id) {
                    state.witnesses.remove(&hash);
                }
            }
        }
    }
}

impl StoreState {
    /// The content id of the kept event `id`: its witness's, else its own,
    /// the event then witnessing its hash.
    fn content_of(&mut self, id: EventId) -> Option<EventId> {
        let (event, content) = self.events.get(&id)?;
        if content.is_some() {
            return *content;
        }
        let reads = self.reads.as_deref()?;
        let hash = event.content_hash(reads);
        let witnessed = self.witnesses.get(&hash).copied().filter(|witness| {
            let held = self.events.get(witness).map(|(held, _)| held);
            held.is_some_and(|held| reads.iter().all(|name| held.get(name) == event.get(name)))
        });
        let content = witnessed.unwrap_or_else(|| {
            self.witnesses.insert(hash, id);
            id
        });
        self.events.get_mut(&id)?.1 = Some(content);
        Some(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, b: i64) -> Arc<Event> {
        Arc::new(Event::builder(id).int("b", b).build())
    }

    #[test]
    fn admitted_events_are_shared_and_forgotten_below_the_highest_floor() {
        let store = EventStore::default();
        let events: Vec<Arc<Event>> = [5, 1, 9, 3].iter().map(|&id| event(id, 1)).collect();
        for event in &events {
            store.admit(event);
        }
        // The same content again is not a second copy.
        store.admit(&event(5, 1));
        assert!(Arc::ptr_eq(&store.get(EventId(5)).unwrap(), &events[0]));
        assert_eq!(Arc::strong_count(&events[0]), 2);

        store.forget_below(EventId(5));
        store.forget_below(EventId(2));
        assert_eq!(store.get(EventId(1)), None);
        assert_eq!(store.get(EventId(3)), None);
        assert_eq!(Arc::strong_count(&events[3]), 1, "the store let go");
        assert!(store.get(EventId(5)).is_some() && store.get(EventId(9)).is_some());
        // Below the floor nothing is kept any more.
        store.admit(&event(4, 1));
        assert_eq!(store.get(EventId(4)), None);
    }

    /// A store keeping the events `(id, b)`, one content per `b`.
    fn store_of(events: &[(u64, i64)]) -> EventStore {
        let store = EventStore::default();
        for &(id, b) in events {
            store.admit(&event(id, b));
        }
        store
    }

    /// What the tests' verdicts read of an event: its `b`.
    fn reads_b() -> Option<Arc<[String]>> {
        Some(Arc::from(["b".to_owned()]))
    }

    fn content_of(store: &EventStore, id: u64) -> Option<EventId> {
        let mut state = store.state();
        state.reads = reads_b();
        state.content_of(EventId(id))
    }

    /// The verdict on event `id` in view 0 under `epoch`, and whether the
    /// provider was asked for it (it answers `answer`).
    fn verdict(store: &EventStore, id: u64, epoch: u64, answer: u128) -> (u128, bool) {
        let mut asked = false;
        let allowed = store.summary_verdict(EventId(id), 0, epoch, reads_b, || {
            asked = true;
            answer
        });
        (allowed, asked)
    }

    #[test]
    fn equal_content_under_distinct_ids_shares_one_content_id() {
        let store = store_of(&[(1, 7), (2, 7), (3, 7)]);
        let content = content_of(&store, 2).unwrap();
        assert_eq!(content_of(&store, 1), Some(content));
        assert_eq!(content_of(&store, 3), Some(content));
        // So one ask serves every event of the content in a view.
        assert_eq!(verdict(&store, 1, 0, 0b101), (0b101, true));
        assert_eq!(verdict(&store, 3, 0, 0b111), (0b101, false));
        // An event the store does not keep has no content id, and is asked.
        assert_eq!(content_of(&store, 9), None);
        assert_eq!(verdict(&store, 9, 0, 0b1), (0b1, true));
    }

    #[test]
    fn different_content_gets_different_ids() {
        let store = store_of(&[(1, 7), (2, 8), (3, -7)]);
        // No `b` at all is a content too.
        store.admit(&Arc::new(Event::builder(4).int("c", 7).build()));
        let contents: Vec<EventId> = (1..=4).map(|id| content_of(&store, id).unwrap()).collect();
        let mut distinct = contents.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{contents:?}");
        assert_eq!(verdict(&store, 1, 0, 0b1), (0b1, true));
        assert_eq!(verdict(&store, 2, 0, 0b10), (0b10, true));
    }

    #[test]
    fn an_attribute_no_verdict_reads_does_not_split_content() {
        let store = store_of(&[(1, 7)]);
        for (id, price) in [(2, 10.5), (3, 11.0)] {
            let event = Event::builder(id).int("b", 7).float("price", price);
            store.admit(&Arc::new(event.str("body", format!("trade {id}")).build()));
        }
        assert_eq!(verdict(&store, 2, 0, 0b11), (0b11, true));
        assert_eq!(verdict(&store, 1, 0, 0), (0b11, false));
        assert_eq!(verdict(&store, 3, 0, 0), (0b11, false));
    }

    #[test]
    fn a_change_in_what_verdicts_read_forgets_every_content_id() {
        let store = EventStore::default();
        for (id, c) in [(1, 0), (2, 1)] {
            store.admit(&Arc::new(Event::builder(id).int("b", 7).int("c", c).build()));
        }
        let bc = || Some(Arc::from(["b".to_owned(), "c".to_owned()]));
        let ask = |id, epoch, reads: fn() -> Option<Arc<[String]>>| {
            let mut asked = false;
            store.summary_verdict(EventId(id), 0, epoch, reads, || {
                asked = true;
                id as u128
            });
            asked
        };
        // Under `b` the two share a content, and one verdict.
        assert!(ask(1, 0, reads_b) && !ask(2, 0, reads_b));
        // Re-read at the next epoch, `b` and `c` tell them apart.
        assert!(ask(1, 1, bc) && ask(2, 1, bc));
        // A provider that names nothing gets every ask, and nothing kept.
        assert!(ask(1, 2, || None) && ask(1, 2, || None));
        assert!(store.state().verdicts.is_empty() && store.state().witnesses.is_empty());
    }

    #[test]
    fn a_content_whose_witness_was_forgotten_gets_a_fresh_id() {
        let store = store_of(&[(1, 7), (2, 8)]);
        let earlier = [
            content_of(&store, 1).unwrap(),
            content_of(&store, 2).unwrap(),
        ];
        store.forget_below(EventId(2));
        store.admit(&event(3, 7));
        let fresh = content_of(&store, 3).unwrap();
        assert!(
            !earlier.contains(&fresh),
            "{fresh} was handed out before: {earlier:?}"
        );
        // The fresh content's events share it from then on.
        store.admit(&event(4, 7));
        assert_eq!(content_of(&store, 4), Some(fresh));
    }

    #[test]
    fn a_verdict_kept_under_an_old_epoch_is_asked_again() {
        let store = store_of(&[(1, 7), (2, 7)]);
        assert_eq!(verdict(&store, 1, 5, 0b11), (0b11, true));
        assert_eq!(verdict(&store, 2, 5, 0), (0b11, false));
        assert_eq!(verdict(&store, 2, 6, 0b10), (0b10, true));
        assert_eq!(verdict(&store, 1, 6, 0), (0b10, false));
        // An epoch that moves back is still not the one the row holds.
        assert_eq!(verdict(&store, 1, 5, 0b1), (0b1, true));
    }

    #[test]
    fn the_witness_and_verdict_tables_stay_bounded_across_forgetting() {
        let store = EventStore::default();
        let views = 3;
        for id in 0..VERDICT_ROWS as u64 {
            // Every event is a content of its own, asked about in three views.
            store.admit(&event(id, id as i64));
            for view in 0..views {
                store.summary_verdict(EventId(id), view, 0, reads_b, || 1);
            }
            if id % 100 == 99 {
                store.forget_below(EventId(id - 9));
            }
            // Each witness is a kept event, and at most 109 are kept.
            let state = store.state();
            assert_eq!(state.witnesses.len(), state.events.len());
            assert!(state.events.len() <= 109);
            assert!(state.witnesses.values().all(|id| state.events.contains_key(id)));
            assert!(state.verdicts.len() <= VERDICT_ROWS);
        }
    }

    #[test]
    fn a_full_verdict_table_forgets_on_a_miss_not_on_a_hit() {
        let store = store_of(&[(1, 7)]);
        for view in 0..VERDICT_ROWS as u32 {
            store.summary_verdict(EventId(1), view, 0, reads_b, || 1);
        }
        assert_eq!(store.state().verdicts.len(), VERDICT_ROWS);
        let mut asked = false;
        let kept = store.summary_verdict(EventId(1), 7, 0, reads_b, || {
            asked = true;
            0
        });
        assert_eq!((kept, asked), (1, false), "a hit on a full table is served");
        assert_eq!(store.state().verdicts.len(), VERDICT_ROWS);
        // A miss forgets them all, and keeps its own.
        store.summary_verdict(EventId(1), VERDICT_ROWS as u32, 0, reads_b, || 2);
        assert_eq!(store.state().verdicts.len(), 1);
    }

    #[test]
    #[should_panic(expected = "which no process of this group published")]
    fn a_miss_above_the_floor_is_a_bug() {
        let store = EventStore::default();
        store.forget_below(EventId(3));
        store.get(EventId(3));
    }

    /// The store's verdict table is proven against the summaries it stands
    /// for, not trusted: a [`DelegateView`] with attached summaries is
    /// stepped through random histories of lifecycle observations and
    /// membership rounds, beside a hand-maintained filter vector, and after
    /// every step every verdict the store serves — asked as pmcast's group
    /// asks it, under the provider's epoch and attributes, the fold over
    /// `summary_allows` on a miss — equals the fold of an **uncached**
    /// [`SubtreeSummaries::allows`] over a table built fresh from that
    /// vector.  Once per history, more distinct contents than the table
    /// holds are asked about, so it overflows mid-history.
    mod lockstep {
        use super::*;
        use pmcast_addr::{AddressSpace, Prefix};
        use pmcast_interest::{Filter, Predicate};
        use pmcast_membership::{
            allowed_runs, DelegateView, DelegateViewConfig, MembershipView, SubtreeSummaries,
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
        }

        #[derive(Debug, Clone)]
        struct History {
            arity: u32,
            depth: usize,
            seed: u64,
            occupied: Vec<bool>,
            filters: Vec<Option<Filter>>,
            steps: Vec<Step>,
            /// The overflow runs before this step (after the last if past it),
            /// asking about contents from this topic on.
            overflow: (usize, i64),
        }

        /// A subscription: none, a topic set, another attribute altogether,
        /// or a conjunction over two attributes (so a content is more than
        /// one value).
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
                    (0usize..41, 0..TOPICS),
                )
                    .prop_map(move |(occupancy, subscriptions, steps, overflow)| History {
                        arity,
                        depth,
                        seed,
                        occupied: occupancy.iter().map(|&o| sparse == 0 || o != 0).collect(),
                        filters: subscriptions
                            .iter()
                            .map(|&(kind, first, second)| filter_of(kind, first, second))
                            .collect(),
                        steps,
                        overflow,
                    })
            })
        }

        /// Every prefix of the space, then one with a component out of range
        /// and one longer than an address.
        fn probe_prefixes(space: &AddressSpace) -> Vec<Prefix> {
            let mut prefixes = vec![Prefix::root()];
            let mut level = vec![Prefix::root()];
            for depth in 1..=space.depth() {
                level = level
                    .iter()
                    .flat_map(|parent| (0..space.arity(depth)).map(|c| parent.child(c)))
                    .collect();
                prefixes.extend(level.iter().cloned());
            }
            prefixes.push(Prefix::from_components(vec![space.arity(1)]));
            prefixes.push(Prefix::from_components(vec![0; space.depth() + 1]));
            prefixes
        }

        /// The standing probes, each under an id of its own: every topic and
        /// two nobody subscribes to, no topic at all, attributes alone or
        /// beside the topic (one nobody filters on among them), both sides
        /// of the two-attribute filter, and other types under the topic's
        /// name — `2.0` matches what `2` matches, a string and a NaN match
        /// nothing, and none of them is the content `2`.
        fn probe_events() -> Vec<Arc<Event>> {
            let mut id = 0;
            let mut next = || {
                id += 1;
                Event::builder(id)
            };
            let mut builders: Vec<_> =
                (0..TOPICS + 2).map(|topic| next().int(TOPIC_ATTRIBUTE, topic)).collect();
            builders.extend([
                next(),
                next().int("b", 3),
                next().attribute("urgent", true),
                next().attribute("urgent", false).int(TOPIC_ATTRIBUTE, 2),
                next().int(TOPIC_ATTRIBUTE, 2).int("b", 3),
                next().int(TOPIC_ATTRIBUTE, 2).float("b", 0.5),
                next().float(TOPIC_ATTRIBUTE, 2.0),
                next().float(TOPIC_ATTRIBUTE, f64::NAN),
                next().str(TOPIC_ATTRIBUTE, "2"),
                next().int(TOPIC_ATTRIBUTE, 0).int("unmentioned", 9),
            ]);
            builders.into_iter().map(|event| Arc::new(event.build())).collect()
        }

        /// The provider and the store beside the filter vector its table
        /// must amount to.
        struct Lockstep {
            space: AddressSpace,
            view: DelegateView,
            store: EventStore,
            probes: Vec<Arc<Event>>,
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
                // As the trial runner does: the table covers every address,
                // absent or not.
                view.attach_interest_summaries(SubtreeSummaries::build(
                    space.clone(),
                    history.filters.clone(),
                ));
                let store = EventStore::default();
                let probes = probe_events();
                probes.iter().for_each(|probe| store.admit(probe));
                Self {
                    prefixes: probe_prefixes(&space),
                    space,
                    view,
                    store,
                    probes,
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
                }
                self.check_probes();
            }

            /// The store's verdict on `event` in view `view`, which lists
            /// `subgroups`, against the uncached fold.
            fn check(
                &self,
                uncached: &SubtreeSummaries,
                event: &Event,
                view: u32,
                subgroups: &[&Prefix],
            ) {
                let listed = || subgroups.iter().copied().enumerate();
                let expected = listed()
                    .filter(|(_, prefix)| uncached.allows(prefix, event))
                    .fold(0u128, |allowed, (position, _)| allowed | 1 << position);
                let fold = || {
                    allowed_runs(listed(), |subgroup| self.view.summary_allows(subgroup, event))
                        .fold(0u128, |allowed, position| allowed | 1 << position)
                };
                let epoch = self.view.summary_epoch();
                let reads = || self.view.summary_attributes();
                let served = self.store.summary_verdict(event.id(), view, epoch, reads, fold);
                prop_assert_eq!(served, expected, "{} in view {}", event, view);
            }

            /// Every standing probe in view 0 — every prefix twice in a row,
            /// as a view lists a subgroup's delegates — and view 1 — the
            /// prefixes backwards — asked 0, 1, 0, 1, so that the second ask
            /// of each is served from the row the first one kept.
            fn check_probes(&self) {
                let uncached = SubtreeSummaries::build(self.space.clone(), self.current.clone());
                let doubled: Vec<&Prefix> = self.prefixes.iter().flat_map(|p| [p, p]).collect();
                let backwards: Vec<&Prefix> = self.prefixes.iter().rev().collect();
                for event in &self.probes {
                    for (view, subgroups) in [(0, &doubled), (1, &backwards), (0, &doubled), (1, &backwards)] {
                        self.check(&uncached, event, view, subgroups);
                    }
                }
            }

            /// More distinct contents than the store keeps rows for, each
            /// under a fresh id (it runs once per history), asked about in views 2 and 3 (the root,
            /// and the first subtree) alternately, each twice: the table
            /// forgets on the way, and the probes are asked again after.
            fn overflow(&mut self, from: i64) {
                let uncached = SubtreeSummaries::build(self.space.clone(), self.current.clone());
                let (root, first) = (Prefix::root(), Prefix::from_components(vec![0]));
                let contents = (VERDICT_ROWS / 2 + 3) as i64;
                for (id, topic) in (1_000u64..).zip(from..from + contents) {
                    let event = Arc::new(Event::builder(id).int(TOPIC_ATTRIBUTE, topic).build());
                    self.store.admit(&event);
                    for (view, subgroup) in [(2, &root), (3, &first), (2, &root), (3, &first)] {
                        self.check(&uncached, &event, view, &[subgroup]);
                    }
                }
                let kept = self.store.state().verdicts.len();
                prop_assert!(kept < 2 * contents as usize, "the table forgot on the way: {kept}");
                self.check_probes();
            }
        }

        proptest! {
            #[test]
            fn store_verdicts_equal_the_uncached_table(history in arb_history()) {
                let mut lockstep = Lockstep::new(&history);
                lockstep.check_probes();
                let (at, from) = history.overflow;
                let at = at % (history.steps.len() + 1);
                for (index, &step) in history.steps.iter().enumerate() {
                    if index == at {
                        lockstep.overflow(from);
                    }
                    lockstep.apply(step);
                }
                if at == history.steps.len() {
                    lockstep.overflow(from);
                }
            }
        }
    }
}
