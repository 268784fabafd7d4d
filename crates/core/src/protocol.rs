use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pmcast_addr::{Address, Depth};
use pmcast_analysis::pittel;
use pmcast_interest::{Event, EventId, EventIdSet};
use pmcast_membership::{InterestOracle, MembershipView, TreeTopology};
use pmcast_simnet::{FanoutScratch, ProcessId, RoundContext, RoundIo, RoundProcess, VirtualPool};
use rand::Rng;
use rustc_hash::FxHashMap;

use crate::config::MAX_ROUNDS_PER_DEPTH;
use crate::store::EventStore;
use crate::views::Subgroup;
use crate::{
    BufferedGossip, DepthView, Gossip, GossipBuffers, InterestRouting, PmcastConfig,
    ProtocolGroup, SharedViews,
};

/// How many judgements a pmcast group remembers — the `(rate, budget)` a
/// fresh entry starts with, one row per ([`InterestOracle::audience_key`],
/// [`DepthView::id`]) pair; one more and the group forgets them all and
/// starts over.  The table may forget at any time, so this only bounds its
/// memory — a custom oracle's keys or a long-lived daemon must not grow it —
/// and is not a tuning knob: 50 topics over the 21 views of a 4³ group are
/// 1 050 rows, one audience over the 4 369 views of a 16⁴ group 4 369.
const JUDGEMENT_TABLE_ROWS: usize = 1 << 14;

/// Crate-internal group construction backing [`crate::PmcastFactory`].
pub(crate) fn build_pmcast_group<T: TreeTopology>(
    topology: &T,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    config: &PmcastConfig,
) -> ProtocolGroup<PmcastProcess> {
    config.validate();
    let views = SharedViews::shared(topology, config.redundancy);
    let addresses = views.addresses().clone();
    let group = Rc::new(GroupContext {
        config: config.clone(),
        views,
        oracle,
        membership,
        judgements: RefCell::default(),
        store: EventStore::default(),
    });
    // Addresses are sorted and a leaf subgroup's are consecutive, so walking
    // the leaf stacks in order meets every process in identifier order, its
    // stack's index in hand.
    let index = |at: usize| u32::try_from(at).expect("a group holds fewer than 2^32 processes");
    let mut processes = Vec::with_capacity(addresses.member_count());
    for (stack, views) in group.views.stacks().iter().enumerate() {
        let leaf_view = views.last().expect("a stack holds a view per depth");
        for at in 0..leaf_view.len() {
            processes.push(PmcastProcess {
                id: index(leaf_view.target(at).0),
                stack: index(stack),
                group: Rc::clone(&group),
                buffers: GossipBuffers::default(),
                ids: EventIdSet::new(),
            });
        }
    }
    debug_assert!(processes.iter().enumerate().all(|(at, process)| process.id as usize == at));
    debug_assert_eq!(processes.len(), addresses.member_count());
    ProtocolGroup {
        processes,
        addresses,
    }
}

/// What every process of one group shares: the configuration, the views,
/// the interest oracle, the membership provider and the events published.
/// Stored once per group behind one [`Rc`], so a process is a handle plus
/// its own protocol state.  A group runs on one thread (a trial, or the
/// daemon's executor), so its tables take no lock.
struct GroupContext {
    config: PmcastConfig,
    views: Arc<SharedViews>,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    /// `(audience key, view id)` to what a fresh entry of that audience
    /// starts with in that view — derived state in front of
    /// [`judge`](Self::judge), at most [`JUDGEMENT_TABLE_ROWS`] rows.
    judgements: RefCell<JudgementTable>,
    /// Every event published in the group, kept once: gossips name it by
    /// id, and a first receipt takes its share from here.
    store: EventStore,
}

/// The group's judgements, one row per `(audience key, view id)`.  A row
/// stays two words: the view's `⊲` mask, kept only under oracle routing and
/// for a view a mask covers, lives beside the rows and the row holds its
/// index.
#[derive(Default)]
struct JudgementTable {
    rows: FxHashMap<(u64, u32), Judgement>,
    /// The rows' `⊲` masks, by [`Judgement::mask`].
    masks: Vec<u128>,
    /// `(view length, rate bits)` → the [round budget](GroupContext::round_budget)
    /// of those very inputs, which a first receipt's entry starts with;
    /// forgotten whole past [`JUDGEMENT_TABLE_ROWS`] rows.
    budgets: FxHashMap<(usize, u64), u32>,
}

/// One row of the [`JudgementTable`]: the very `(rate, budget)` that
/// [`GroupContext::judge`] returned, and where its mask is kept.
#[derive(Clone, Copy)]
struct Judgement {
    rate: f64,
    budget: u32,
    /// The index of the view's `⊲` mask in [`JudgementTable::masks`], or
    /// [`Judgement::NO_MASK`].
    mask: u32,
}

impl Judgement {
    /// The row keeps no mask.
    const NO_MASK: u32 = u32::MAX;
}

/// The fraction `hits` of a view of `len` entries are, 0 for no entries.
fn raw_rate(hits: usize, len: usize) -> f64 {
    if len == 0 {
        return 0.0;
    }
    hits as f64 / len as f64
}

impl GroupContext {
    /// The view stack at `index` in the group's [`SharedViews::stacks`].
    fn stack(&self, index: u32) -> &[DepthView] {
        &self.views.stacks()[index as usize]
    }

    /// `GETRATE`'s fold over a view, kept whole: the mask of positions whose
    /// subtree is interested in the event, and how many they are — the
    /// mask's population count.  A view wider than
    /// [`BufferedGossip::VERDICT_WIDTH`] is counted, and its mask left 0.
    fn interest(&self, view: &DepthView, event: &Event) -> (u128, usize) {
        // One oracle probe per distinct subgroup, one hit per target.
        let interested = view.allowed(0..view.len(), |at| self.subtree_interested(at, event));
        if view.len() > BufferedGossip::VERDICT_WIDTH {
            return (0, interested.count());
        }
        let mask = interested.fold(0u128, |mask, position| mask | 1 << position);
        (mask, mask.count_ones() as usize)
    }

    /// The oracle's `⊲` test of a view target's subtree: a listed subgroup's
    /// prefix, or a leaf target's one process, asked by its index.
    fn subtree_interested(&self, subgroup: Subgroup<'_>, event: &Event) -> bool {
        match subgroup {
            Subgroup::Listed(prefix) => self.oracle.subtree_interested(prefix, event),
            Subgroup::Leaf(id) => self
                .oracle
                .is_interested(self.views.addresses().index(id.0), event),
        }
    }

    /// The provider's summary veto on a view target's subtree; a leaf
    /// target's prefix is its address, built by arithmetic in a full tree.
    fn summary_allows(&self, subgroup: Subgroup<'_>, event: &Event) -> bool {
        match subgroup {
            Subgroup::Listed(prefix) => self.membership.summary_allows(prefix, event),
            Subgroup::Leaf(id) => {
                let prefix = self.views.addresses().address(id.0).as_prefix();
                self.membership.summary_allows(&prefix, event)
            }
        }
    }

    /// The rate used for round-budget computation and gossiping — `raw` in
    /// a view of `len` entries — with the Section 5.3 audience inflation
    /// applied when configured.
    fn effective_rate(&self, len: usize, raw: f64) -> f64 {
        match self.config.tuning {
            Some(tuning) if len > 0 => raw.max((tuning.threshold as f64 / len as f64).min(1.0)),
            _ => raw,
        }
    }

    /// The Pittel round budget for a view of the given size at the
    /// (effective) matching rate there (Figure 3, line 7).
    fn round_budget(&self, view_len: usize, rate: f64) -> u32 {
        let effective_size = view_len as f64 * rate;
        let effective_fanout = self.config.fanout as f64 * rate;
        pittel::round_budget(effective_size, effective_fanout, &self.config.env)
            .min(MAX_ROUNDS_PER_DEPTH)
    }

    /// Whether a drawn gossip destination — at `position` of `view` — should
    /// be sent the entry's event.
    ///
    /// Under [`InterestRouting::Oracle`] (the default) the target's subtree
    /// must be interested per the oracle, or audience inflation designates
    /// it (it is among the first `h` entries of the view).  The first test
    /// is one bit of the entry's recorded `⊲` mask when it has one (an
    /// oracle with an audience key, a view a mask covers), and asked of the
    /// oracle per pick otherwise.  Under [`InterestRouting::Summary`] the
    /// candidate pool was already narrowed by the membership provider's
    /// subtree summaries before the draw, so every drawn target is sent to —
    /// as it is under [`InterestRouting::Blind`], the unfiltered control
    /// arm.
    fn target_selected(&self, view: &DepthView, position: usize, entry: &BufferedGossip) -> bool {
        match self.config.interest_routing {
            InterestRouting::Oracle => {
                let interested = match entry.interest() {
                    Some(interested) => interested >> position & 1 == 1,
                    None => self.subtree_interested(view.subgroup(position), &entry.event),
                };
                let selected = interested
                    || self.config.tuning.is_some_and(|tuning| position < tuning.threshold);
                #[cfg(test)]
                if entry.interest().is_some() {
                    tests::check_pick(self, view, position, &entry.event, selected);
                }
                selected
            }
            InterestRouting::Summary | InterestRouting::Blind => true,
        }
    }

    /// What a fresh entry for `event` starts with in `view`: the effective
    /// matching rate there, the round budget that follows from it, and the
    /// view's `⊲` mask that `GETRATE`'s fold leaves behind.
    fn judge(&self, view: &DepthView, event: &Event) -> (f64, u32, u128) {
        let (interested, hits) = self.interest(view, event);
        let rate = self.effective_rate(view.len(), raw_rate(hits, view.len()));
        (rate, self.round_budget(view.len(), rate), interested)
    }

    /// A freshly filed entry for `event` at the depth whose view is `view`
    /// (a publication, or a promotion out of the depth above).
    ///
    /// [`judge`](Self::judge) reads the event only through the oracle's two
    /// `⊲` tests, so under an oracle that names the event's audience
    /// ([`InterestOracle::audience_key`]: same key, same answers, for the
    /// life of the group) it is a function of *(key, view)* — the same for
    /// every process holding the view and every event of the audience — and
    /// is [looked up](Self::judgement): one probe per fresh
    /// entry, never per entry-round or per message; under oracle routing
    /// the entry keeps the row's `⊲` mask for its picks.  An oracle without
    /// a key (exact subscriptions, the broadcast case) is judged on the
    /// spot, and its entries' picks ask it.
    fn fresh_entry(&self, view: &DepthView, event: Arc<Event>) -> BufferedGossip {
        let (rate, budget, interest) = self.fresh_judgement(view, &event);
        BufferedGossip::new(event, rate, 0, budget).with_interest(interest)
    }

    /// What a [fresh entry](Self::fresh_entry) for `event` starts with in
    /// `view`, and what an entry promoted into `view` is judged to in place.
    fn fresh_judgement(&self, view: &DepthView, event: &Event) -> (f64, u32, Option<u128>) {
        match self.oracle.audience_key(event) {
            Some(key) => self.judgement(key, view, event),
            None => {
                let (rate, budget, _) = self.judge(view, event);
                (rate, budget, None)
            }
        }
    }

    /// The entry a first receipt files in `view`: the gossip's rate and
    /// round, the round budget that rate gives there, and — under oracle
    /// routing, like a [fresh entry](Self::fresh_entry)'s — the view's `⊲`
    /// mask from the judgement table.
    fn received_entry(
        &self,
        view: &DepthView,
        event: Arc<Event>,
        rate: f64,
        round: u32,
    ) -> BufferedGossip {
        let interest = match self.config.interest_routing {
            InterestRouting::Oracle => self
                .oracle
                .audience_key(&event)
                .and_then(|key| self.judgement(key, view, &event).2),
            InterestRouting::Summary | InterestRouting::Blind => None,
        };
        let budget = self.received_budget(view.len(), rate);
        BufferedGossip::new(event, rate, round, budget).with_interest(interest)
    }

    /// [`round_budget`](Self::round_budget), served from the group's table:
    /// a gossip's rate is one its sender's entry was judged to, so a group
    /// meets few distinct inputs, and equal bits give an equal budget.
    fn received_budget(&self, view_len: usize, rate: f64) -> u32 {
        let budgets = &mut self.judgements.borrow_mut().budgets;
        let row = (view_len, rate.to_bits());
        if budgets.len() == JUDGEMENT_TABLE_ROWS && !budgets.contains_key(&row) {
            budgets.clear();
        }
        *budgets.entry(row).or_insert_with(|| self.round_budget(view_len, rate))
    }

    /// [`judge`](Self::judge) for an event of the audience `key`, computed
    /// once per `(key, view)` and served — the very `(f64, u32)`, and the
    /// mask when oracle routing reads one — from
    /// [`GroupContext::judgements`] until the table forgets it.
    fn judgement(&self, key: u64, view: &DepthView, event: &Event) -> (f64, u32, Option<u128>) {
        let row = (key, view.id());
        let mut table = self.judgements.borrow_mut();
        let judged = match table.rows.get(&row) {
            Some(&judged) => judged,
            None => {
                #[cfg(test)]
                tests::count_judgement_miss();
                if table.rows.len() == JUDGEMENT_TABLE_ROWS {
                    table.rows.clear();
                    table.masks.clear();
                }
                let (rate, budget, interested) = self.judge(view, event);
                let mask = match self.config.interest_routing {
                    InterestRouting::Oracle if view.len() <= BufferedGossip::VERDICT_WIDTH => {
                        table.masks.push(interested);
                        (table.masks.len() - 1) as u32
                    }
                    _ => Judgement::NO_MASK,
                };
                let judged = Judgement { rate, budget, mask };
                table.rows.insert(row, judged);
                judged
            }
        };
        let served = (judged.rate, judged.budget, table.masks.get(judged.mask as usize).copied());
        #[cfg(test)]
        tests::check_judgement(self, view, event, served);
        served
    }

    /// The pool of one entry-round under [`InterestRouting::Summary`]: the
    /// round's `candidates` whose subgroup the membership provider's
    /// summaries allow for the entry's event, in candidate order, left in
    /// `pool`.
    ///
    /// Whether a subgroup is allowed does not depend on who is a candidate
    /// this round, so the provider is asked for its verdict on the whole
    /// view once — the first round the entry is gossiped — and its answer
    /// is recorded in the entry with the `epoch` (the provider's
    /// [`summary_epoch`](MembershipView::summary_epoch), read once per
    /// depth per round) it was given under.  Every later entry-round is
    /// the set bits of `verdict & candidate_mask` — the round's candidates
    /// folded into a mask once per depth-round — in ascending order, with
    /// no call into the membership layer, until the epoch moves — a filter
    /// changed — and the verdict is asked again: it is derived state, never
    /// a source of truth.  The group's store, the only verdict cache, folds
    /// the provider's `summary_allows` over the view once per (event
    /// content, view id, epoch) — content being what the provider's
    /// verdicts read of an event.  A view wider than
    /// [`BufferedGossip::VERDICT_WIDTH`] cannot be recorded and is asked
    /// about per entry-round, `candidates` only, one single probe per run of
    /// equal subgroups; a narrower one never reads `candidates`.
    fn fill_summary_pool(
        &self,
        view: &DepthView,
        entry: &mut BufferedGossip,
        epoch: u64,
        candidate_mask: u128,
        candidates: impl Iterator<Item = usize>,
        pool: &mut Vec<usize>,
    ) {
        pool.clear();
        if view.len() > BufferedGossip::VERDICT_WIDTH {
            pool.extend(view.allowed(candidates, |at| self.summary_allows(at, &entry.event)));
            return;
        }
        let allowed = entry.verdict_under(epoch).unwrap_or_else(|| {
            let reads = || self.membership.summary_attributes();
            let fold = || self.fold_summary_verdict(view, &entry.event);
            let allowed = self.store.summary_verdict(entry.event.id(), view.id(), epoch, reads, fold);
            entry.record_verdict(epoch, allowed);
            allowed
        });
        // The lowest set bit first: the candidates' own (ascending) order.
        let mut bits = allowed & candidate_mask;
        while bits != 0 {
            pool.push(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }

    /// A store miss: the mask of the positions of `view` whose subgroup
    /// [`MembershipView::summary_allows`] admits for `event`, one probe per
    /// run of equal subgroups.
    #[cold]
    #[inline(never)]
    fn fold_summary_verdict(&self, view: &DepthView, event: &Event) -> u128 {
        #[cfg(test)]
        tests::count_provider_verdict();
        view.allowed(0..view.len(), |at| self.summary_allows(at, event))
            .fold(0, |allowed, position| allowed | 1 << position)
    }

    /// One depth's candidate destinations for a round in which `entries`
    /// entries of process `own` draw from `view`: everyone in the view but
    /// `own` that the membership provider currently knows *at this depth*,
    /// asked once for the whole view, named by its id (so the provider may
    /// remember per id a view every holder knows whole, and then not read
    /// the targets again).  A flat partial view answers with the
    /// discovered subset (its flat view, at every depth), the
    /// hierarchical `DelegateView` straight from the depth-`depth` delegate
    /// slots, so pmcast's tree delegates are exactly the processes the
    /// maintained hierarchy seats.
    ///
    /// A global membership — or a `DelegateView` whose seats hold the whole
    /// view — answers "the whole view but you", and the own seat is found
    /// without a search.  A lone entry draws from that pool described, never
    /// written out; several write it out once, as two ranges, because every
    /// entry's draw goes on from the permutation the entries before it left
    /// and a written pool is cheaper to permute than overrides.  The draws
    /// are the same `gen_range` calls either way.
    fn round_candidates(
        &self,
        own: ProcessId,
        view: &DepthView,
        depth: Depth,
        entries: usize,
        scratch: &mut FanoutScratch,
    ) -> Candidates {
        scratch.candidates.clear();
        let whole = self.membership.fill_known_or_whole(
            own.0,
            depth,
            view.id(),
            &mut (0..view.len()).map(|at| view.target(at).0),
            &mut scratch.candidates,
        );
        if !whole {
            return Candidates::Listed;
        }
        let own = view.own_position(own);
        if entries == 1 {
            let len = scratch.all_but_one.reset(view.len(), own);
            return Candidates::AllBut { own, len };
        }
        #[cfg(test)]
        tests::count_written_pool();
        let own = own.unwrap_or(view.len());
        scratch.candidates.extend(0..own);
        scratch.candidates.extend(own + 1..view.len());
        Candidates::Listed
    }
}

/// One depth's candidate destinations for a round, as view positions.
#[derive(Clone, Copy)]
enum Candidates {
    /// Listed by the membership provider in `scratch.candidates`.
    Listed,
    /// The `len` positions of the view but the process's own, if it holds
    /// one: a view known whole, written out nowhere.
    AllBut { own: Option<usize>, len: usize },
}

impl Candidates {
    /// The candidates in view order, in a view of `width` positions whose
    /// listed candidates, if any, are `listed`.
    fn iter(self, width: usize, listed: &[usize]) -> impl Iterator<Item = usize> + '_ {
        let (listed, width, own) = match self {
            Candidates::Listed => (listed, 0, None),
            Candidates::AllBut { own, .. } => (&[][..], width, own),
        };
        listed.iter().copied().chain((0..width).filter(move |&position| Some(position) != own))
    }

    /// The candidates as a mask over a view of `width` positions, at most
    /// [`BufferedGossip::VERDICT_WIDTH`]: bit `p` set when position `p` is
    /// one.  Its set bits read in ascending order are [`iter`](Self::iter)'s
    /// order, because a provider lists a view's known positions ascending.
    fn mask(self, width: usize, listed: &[usize]) -> u128 {
        match self {
            Candidates::AllBut { own, .. } => {
                let whole = u128::MAX.checked_shr((u128::BITS as usize - width) as u32).unwrap_or(0);
                own.map_or(whole, |own| whole & !(1 << own))
            }
            Candidates::Listed => {
                debug_assert!(
                    listed.windows(2).all(|pair| pair[0] < pair[1]),
                    "candidates listed out of view order: {listed:?}"
                );
                listed.iter().fold(0, |mask, &position| mask | 1 << position)
            }
        }
    }
}

/// What the fanout draws of one entry-round permute: a pool written out as
/// a list, or a whole view's [`AllButOwn`].  Either way an entry's
/// picks are a partial Fisher–Yates from slot 0 that goes on from the
/// permutation the depth's earlier entries left, and
/// [`draw`](Self::draw) is the one routine that makes them; each kind of
/// pool gets a draw loop of its own.
trait Pool {
    fn len(&self) -> usize;

    /// Swaps the positions at slots `a` and `b`; returns the one now at `a`.
    fn swap_out(&mut self, a: usize, b: usize) -> usize;

    /// The pick of draw `slot`: one uniform draw of a slot in `slot..len`,
    /// swapped into `slot`, and the position that is now there.
    fn draw(&mut self, slot: usize, rng: &mut impl Rng) -> usize {
        let swap = rng.gen_range(slot..self.len());
        self.swap_out(slot, swap)
    }
}

impl Pool for [usize] {
    fn len(&self) -> usize {
        <[usize]>::len(self)
    }

    fn swap_out(&mut self, a: usize, b: usize) -> usize {
        self.swap(a, b);
        self[a]
    }
}

/// The pool of `len` positions that is a view known whole but the process's
/// own position, kept as the overrides its draws made.
struct AllButOwn<'a> {
    len: usize,
    overrides: &'a mut VirtualPool,
}

impl Pool for AllButOwn<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn swap_out(&mut self, a: usize, b: usize) -> usize {
        self.overrides.swap(a, b)
    }
}

/// One entry-round's gossip: `F` picks drawn from `pool`, a gossip sent to
/// every pick that passes the interest test (Figure 3, lines 10–14).
///
/// Always inlined into `gossip_depth`'s three call sites: heavy traffic
/// makes about as many entry-rounds as sends, and a call per entry-round
/// shows in `pmbench`'s `topics_blind`.
#[inline(always)]
fn gossip_entry(
    pool: &mut (impl Pool + ?Sized),
    group: &GroupContext,
    view: &DepthView,
    depth: Depth,
    entry: &BufferedGossip,
    ctx: &mut RoundIo<'_, Gossip>,
) {
    for slot in 0..group.config.fanout.min(pool.len()) {
        let position = pool.draw(slot, ctx.rng());
        if group.target_selected(view, position, entry) {
            let gossip = Gossip::new(entry.event.id(), depth, entry.rate, entry.round);
            ctx.send(view.target(position), gossip);
        }
    }
}

/// One process running the pmcast algorithm of Figure 3.
///
/// A process that no event has reached owns no heap memory and holds
/// nothing the group holds: everything shared sits behind `group` — its
/// view stack and its address included, named by two indices — and the
/// fanout draw borrows the round driver's [`FanoutScratch`].  One reached
/// by a single event owns none either: the gossip buffers keep their first
/// entry in the slot and the id set 64 identifiers inline.
///
/// A clone is a second process in the same state, sharing the group.
#[derive(Clone)]
pub struct PmcastProcess {
    /// The process's [`ProcessId`], which names its address.
    id: u32,
    /// Where its view stack — shared with its leaf-subgroup siblings, each
    /// view knowing where they sit in it — is in [`SharedViews::stacks`].
    stack: u32,
    group: Rc<GroupContext>,
    buffers: GossipBuffers,
    // A windowed bitmap (not a hash set): five words with 64 identifiers
    // inline, so neither a million never-contacted processes nor the ones a
    // single event infects hold dedup heap.  Received ids, delivered marked.
    ids: EventIdSet,
}

impl std::fmt::Debug for PmcastProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmcastProcess")
            .field("id", &self.id)
            .field("buffered", &self.buffers.len())
            .field("delivered", &self.ids.delivered_len())
            .finish_non_exhaustive()
    }
}

impl PmcastProcess {
    /// The process's address.  A full tree keeps none: the first call
    /// writes every member's out, once per group shape, for the borrow.
    pub fn address(&self) -> &Address {
        self.group.views.addresses().get(self.id as usize)
    }

    /// The process's index in its group's address space, which the
    /// interest oracle is asked about: its identifier, in a full tree.
    pub fn space_index(&self) -> u128 {
        self.group.views.addresses().index(self.id as usize)
    }

    /// Returns `true` if the given event was delivered to the application
    /// (`HPDELIVER` in Figure 3).
    pub fn has_delivered(&self, event: EventId) -> bool {
        self.ids.is_delivered(event)
    }

    /// Returns `true` if the given event was *received* by this process at
    /// all (delivered or merely buffered/forwarded); the paper's Figure 5
    /// measures exactly this for uninterested processes.
    pub fn has_received(&self, event: EventId) -> bool {
        self.ids.contains(event)
    }

    /// Multicasts an event (`PMCAST` in Figure 3).
    ///
    /// Convenience wrapper allocating the shared payload and delegating to
    /// [`publish`](Self::publish), which is the single point where a
    /// multicast's payload enters the group: from there on the group's store
    /// and every buffer entry hold an [`Arc`] to one allocation, and every
    /// gossip message carries its id.
    pub fn pmcast(&mut self, event: Event) {
        self.publish(Arc::new(event));
    }

    /// Publishes an already-shared event (the [`crate::MulticastProtocol`]
    /// entry point).
    ///
    /// Following the prose of Section 3 the event is injected at the root
    /// depth, and kept in the group's store for the processes it reaches.
    /// Publishing an event this process has already seen is ignored.
    pub fn publish(&mut self, event: Arc<Event>) {
        if !self.ids.insert(event.id()) {
            return;
        }
        self.group.store.admit(&event);
        if self.group.oracle.is_interested(self.space_index(), &event) {
            // `HPDELIVER`: delivery is the identifier's delivered bit.
            self.ids.deliver(event.id());
        }
        let entry = self.group.fresh_entry(&self.group.stack(self.stack)[0], event);
        self.buffers.file(1, entry);
    }

    /// Retires dedup state below `floor`, clamped so that it never passes
    /// an event still gossiping here: its dedup bits (and its delivery
    /// record) must stay individually addressable.  Returns the clamped
    /// floor.
    fn retire(&mut self, floor: EventId) -> EventId {
        let floor = match self.buffers.min_buffered_id() {
            Some(min) => floor.min(min),
            None => floor,
        };
        self.ids.compact_below(floor);
        floor
    }

    /// A gossip's first receipt (Figure 3, lines 19–23).  Out of line, so
    /// that `on_message`'s duplicate path — most receipts under heavy
    /// traffic — stays one probe and a return.
    #[inline(never)]
    fn first_receipt(&mut self, gossip: Gossip, ctx: &mut RoundContext<'_, Gossip>) {
        self.ids.insert(gossip.id);
        // A first receipt takes its share of the event from the group's
        // store; content the store forgot is filed as seen and delivers
        // nothing, like a retired id.
        let Some(event) = self.group.store.get(gossip.id) else {
            return;
        };
        if self.group.oracle.is_interested(self.space_index(), &event)
            && self.ids.deliver(gossip.id)
        {
            ctx.report_delivery(gossip.id.0);
        }
        // File the event into the buffer of the depth it is travelling at.
        let depth = gossip.depth as Depth;
        let view = &self.group.stack(self.stack)[depth - 1];
        let entry = self.group.received_entry(view, event, gossip.rate, gossip.round);
        self.buffers.file(depth, entry);
    }

    /// One iteration of the `GOSSIP` task of Figure 3 for the depth whose
    /// run of the buffers ends at `end`; returns where the next one's ends.
    ///
    /// Allocation-free after warm-up: spent entries are promoted or dropped
    /// in place, fanout targets are drawn by a partial Fisher–Yates over the
    /// round driver's buffers, and each sent gossip is the event's id and
    /// three numbers.  When the membership provider knows the view whole a
    /// lone entry-round costs O(F): the pool is never written out, the
    /// process's own position is the leaf stack's arithmetic, and a keyed
    /// oracle's `⊲` test is a bit of the entry's mask.
    fn gossip_depth(
        &mut self,
        depth: Depth,
        end: usize,
        ctx: &mut RoundIo<'_, Gossip>,
        scratch: &mut FanoutScratch,
    ) -> usize {
        let group = &*self.group;
        let stack = group.stack(self.stack);
        let view = &stack[depth - 1];
        // Budget exhausted: promote to the next depth in place (lines
        // 16–18), judged as a fresh entry there, or collect at the leaf
        // depth.  A promotion draws nothing, so the draws below and the next
        // depth's order are what they were.
        let next_view = stack.get(depth);
        let judge = next_view.map(|next| |event: &Event| group.fresh_judgement(next, event));
        #[cfg(test)]
        tests::count_spend();
        let (next_end, live) = self.buffers.spend(depth, end, judge);
        if live.is_empty() {
            return next_end;
        }
        let own = ProcessId(self.id as usize);
        let candidates = group.round_candidates(own, view, depth, live.len(), scratch);
        let routing = group.config.interest_routing;
        let (summary_epoch, candidate_mask) = match routing {
            InterestRouting::Summary if view.len() <= BufferedGossip::VERDICT_WIDTH => (
                group.membership.summary_epoch(),
                candidates.mask(view.len(), &scratch.candidates),
            ),
            InterestRouting::Summary => (group.membership.summary_epoch(), 0),
            InterestRouting::Oracle | InterestRouting::Blind => (0, 0),
        };
        for entry in live {
            entry.round += 1;
            // Summary routing narrows the pool per event *before* the draw:
            // subtrees whose aggregated summary proves nobody below is
            // interested never consume a fanout pick.  The test is a pure
            // function of the membership state — no randomness is touched —
            // and in the other modes the pool is the shared per-depth
            // candidate list, so the draw sequence there is the one the
            // goldens pin.
            match (routing, candidates) {
                (InterestRouting::Summary, _) => {
                    let listed = &scratch.candidates;
                    let pool = &mut scratch.event_candidates;
                    let round_candidates = || candidates.iter(view.len(), listed);
                    group.fill_summary_pool(
                        view,
                        entry,
                        summary_epoch,
                        candidate_mask,
                        round_candidates(),
                        pool,
                    );
                    #[cfg(test)]
                    tests::check_summary_pool(group, view, entry, round_candidates(), pool);
                    gossip_entry(pool.as_mut_slice(), group, view, depth, entry, ctx);
                }
                (_, Candidates::Listed) => {
                    gossip_entry(scratch.candidates.as_mut_slice(), group, view, depth, entry, ctx);
                }
                (_, Candidates::AllBut { len, .. }) => {
                    let overrides = &mut scratch.all_but_one;
                    gossip_entry(&mut AllButOwn { len, overrides }, group, view, depth, entry, ctx);
                }
            }
        }
        next_end
    }
}

impl RoundProcess for PmcastProcess {
    type Message = Gossip;

    fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
        // A depth holding no entry draws nothing, and no promotion files
        // into a shallower one: the walk starts at the shallowest buffered depth.
        let Some(shallowest) = self.buffers.shallowest() else {
            return;
        };
        // The candidate pools are the round driver's, lent beside the rest
        // of the context so the draws can borrow both.
        let (scratch, ctx) = ctx.scratch();
        // The shallowest run ends the buffers; none is deeper than one at 0.
        let mut end = self.buffers.len();
        for depth in shallowest..=self.group.stack(self.stack).len() {
            end = self.gossip_depth(depth, end, ctx, scratch);
            if end == 0 {
                break;
            }
        }
    }

    fn on_message(&mut self, gossip: Gossip, ctx: &mut RoundContext<'_, Gossip>) {
        // A duplicate reads the id and nothing else (Figure 3, line 20).
        if self.ids.contains(gossip.id) {
            return;
        }
        self.first_receipt(gossip, ctx);
    }

    fn receipt_key(gossip: &Gossip) -> Option<u64> {
        // A first receipt files the id as seen, and nothing unsees one
        // (retiring only makes more ids read as seen): every later gossip of
        // the id returns above.
        Some(gossip.id.0)
    }

    fn is_quiescent(&self) -> bool {
        // `on_round` early-returns on empty buffers — exactly this
        // condition — before touching the RNG, so a quiescent round is a
        // pure no-op and the engine may skip it.  This is what makes
        // million-process groups simulable: a round costs O(gossiping
        // processes), not O(n).
        self.buffers.is_empty()
    }
}

impl crate::MulticastProtocol for PmcastProcess {
    fn publish(&mut self, event: Arc<Event>) {
        PmcastProcess::publish(self, event);
    }
    fn has_delivered(&self, event: EventId) -> bool {
        PmcastProcess::has_delivered(self, event)
    }
    fn has_received(&self, event: EventId) -> bool {
        PmcastProcess::has_received(self, event)
    }
    fn address(&self) -> &Address {
        PmcastProcess::address(self)
    }
    fn space_index(&self) -> u128 {
        PmcastProcess::space_index(self)
    }
    fn retire_below(&mut self, floor: EventId) {
        self.retire(floor);
    }
    fn retire_and_forget_below(&mut self, floor: EventId) {
        let floor = self.retire(floor);
        self.group.store.forget_below(floor);
    }
    fn dedup_len(&self) -> usize {
        self.ids.len() + self.ids.delivered_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};

    use pmcast_addr::{AddressSpace, Prefix};
    use pmcast_interest::{Filter, Predicate};
    use pmcast_membership::{
        allowed_runs, AssignmentOracle, DelegateView, DelegateViewConfig, GlobalOracleView,
        GroupTree, ImplicitRegularTree, SubtreeSummaries, TopicOracle, UniformOracle,
        TOPIC_ATTRIBUTE,
    };
    use pmcast_simnet::{
        CrashPlan, FaultPlan, LifecycleKind, LifecyclePlan, LinkDelay, NetworkConfig, Simulation,
        Straggler,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::views::tests::listing;
    use crate::{GossipTarget, MulticastProtocol, MulticastReport, ProtocolFactory};

    fn small_topology() -> ImplicitRegularTree {
        ImplicitRegularTree::new(AddressSpace::regular(2, 4).unwrap())
    }

    thread_local! {
        /// `(event id, pool size)` of every summary-routed entry-round this
        /// thread has held against the reference, in order.
        static POOLS_CHECKED: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// The pool of a summary-routed entry-round as every one of them was
    /// built before entries recorded verdicts: ask the provider about this
    /// round's candidates.  Kept verbatim as the reference
    /// [`GroupContext::fill_summary_pool`] is held equal to.
    fn reference_summary_pool(
        group: &GroupContext,
        view: &[GossipTarget],
        entry: &BufferedGossip,
        candidates: &[usize],
    ) -> Vec<usize> {
        allowed_runs(
            candidates.iter().map(|&position| (position, &view[position].subgroup)),
            |subgroup| group.membership.summary_allows(subgroup, &entry.event),
        )
        .collect()
    }

    /// Called by `gossip_depth` in test builds on every summary-routed
    /// entry-round, right after the pool is built from the round's
    /// `candidates` and before it is drawn from: whatever test drives the
    /// protocol, a recorded verdict that has gone stale — or was never the
    /// provider's — fails here.
    pub(super) fn check_summary_pool(
        group: &GroupContext,
        view: &DepthView,
        entry: &BufferedGossip,
        candidates: impl Iterator<Item = usize>,
        pool: &[usize],
    ) {
        let candidates: Vec<usize> = candidates.collect();
        let view = listing(view, group.views.addresses());
        assert_eq!(
            pool,
            reference_summary_pool(group, &view, entry, &candidates),
            "pool of {} in round {} of its budget",
            entry.event.id(),
            entry.round
        );
        POOLS_CHECKED.with(|checked| checked.borrow_mut().push((entry.event.id().0, pool.len())));
    }

    /// Empties this thread's log of checked pools and returns it.
    fn pools_checked() -> Vec<(u64, usize)> {
        POOLS_CHECKED.with(|checked| std::mem::take(&mut *checked.borrow_mut()))
    }

    thread_local! {
        /// How many depths this thread's processes spent their buffers at.
        static SPENDS: Cell<usize> = const { Cell::new(0) };
    }

    /// Called by `PmcastProcess::gossip_depth` in test builds on every
    /// [`GossipBuffers::spend`] it makes.
    pub(super) fn count_spend() {
        SPENDS.with(|spends| spends.set(spends.get() + 1));
    }

    /// Resets this thread's count of spends and returns it.
    fn spends() -> usize {
        SPENDS.with(|spends| spends.replace(0))
    }

    thread_local! {
        /// How many whole views this thread's entry-rounds wrote out as a pool.
        static WRITTEN_POOLS: Cell<usize> = const { Cell::new(0) };
        /// How many judgements this thread's groups missed their table for.
        static JUDGEMENT_MISSES: Cell<usize> = const { Cell::new(0) };
    }

    /// Called by `GroupContext::round_candidates` in test builds on every
    /// pool it writes out for a view known whole.
    pub(super) fn count_written_pool() {
        WRITTEN_POOLS.with(|written| written.set(written.get() + 1));
    }

    /// Called by `GroupContext::judgement` in test builds on every miss.
    pub(super) fn count_judgement_miss() {
        JUDGEMENT_MISSES.with(|missed| missed.set(missed.get() + 1));
    }

    thread_local! {
        /// How many summary verdicts this thread's groups asked their
        /// membership provider for: the store's misses.
        static PROVIDER_VERDICTS: Cell<usize> = const { Cell::new(0) };
    }

    /// Called by `GroupContext::fill_summary_pool` in test builds on every
    /// verdict ask that gets past the group's store to the provider.
    pub(super) fn count_provider_verdict() {
        PROVIDER_VERDICTS.with(|asked| asked.set(asked.get() + 1));
    }

    /// Resets this thread's count of provider verdicts and returns it.
    fn provider_verdicts() -> usize {
        PROVIDER_VERDICTS.with(|asked| asked.replace(0))
    }

    thread_local! {
        /// How many table-served judgements this thread has held against
        /// the computation.
        static JUDGEMENTS_CHECKED: Cell<usize> = const { Cell::new(0) };
        /// How many picks this thread has held against the oracle.
        static PICKS_CHECKED: Cell<usize> = const { Cell::new(0) };
        /// Set while a hook asks the oracle for its reference answer, so a
        /// counting oracle can tell the protocol's own asks from the hooks'.
        static IN_HOOK: Cell<bool> = const { Cell::new(false) };
    }

    /// `reference()`, with this thread marked as inside a hook.
    fn in_hook<T>(reference: impl FnOnce() -> T) -> T {
        IN_HOOK.with(|flag| flag.set(true));
        let answer = reference();
        IN_HOOK.with(|flag| flag.set(false));
        answer
    }

    /// Called by `GroupContext::judgement` in test builds on every `(rate,
    /// budget, mask)` it returns, found in the table or just stored:
    /// whatever test drives the protocol, a row that is not bit for bit what
    /// [`GroupContext::judge`] computes on the spot fails here — and so does
    /// a mask served where no pick reads one (another routing arm, a view
    /// wider than a mask) or missing where one does.
    pub(super) fn check_judgement(
        group: &GroupContext,
        view: &DepthView,
        event: &Event,
        served: (f64, u32, Option<u128>),
    ) {
        let (rate, budget, interested) = in_hook(|| group.judge(view, event));
        let masked = group.config.interest_routing == InterestRouting::Oracle
            && view.len() <= BufferedGossip::VERDICT_WIDTH;
        assert_eq!(
            (served.0.to_bits(), served.1, served.2),
            (rate.to_bits(), budget, masked.then_some(interested)),
            "judgement of {} in view {}: served {served:?}, computed {:?}",
            event.id(),
            view.id(),
            (rate, budget, interested)
        );
        JUDGEMENTS_CHECKED.with(|checked| checked.set(checked.get() + 1));
    }

    /// Resets this thread's count of checked judgements and returns it.
    fn judgements_checked() -> usize {
        JUDGEMENTS_CHECKED.with(|checked| checked.replace(0))
    }

    /// Called by `GroupContext::target_selected` in test builds on every
    /// pick read off a recorded `⊲` mask: whatever test drives the protocol,
    /// a bit that is not the oracle's answer for the target's subgroup —
    /// plus the tuning threshold `h` — fails here.
    pub(super) fn check_pick(
        group: &GroupContext,
        view: &DepthView,
        position: usize,
        event: &Event,
        selected: bool,
    ) {
        let subgroup = &listing(view, group.views.addresses())[position].subgroup;
        let interested = in_hook(|| group.oracle.subtree_interested(subgroup, event));
        let designated = group.config.tuning.is_some_and(|tuning| position < tuning.threshold);
        assert_eq!(selected, interested || designated, "pick {position} of {}", event.id());
        PICKS_CHECKED.with(|checked| checked.set(checked.get() + 1));
    }

    /// Resets this thread's count of checked picks and returns it.
    fn picks_checked() -> usize {
        PICKS_CHECKED.with(|checked| checked.replace(0))
    }

    fn global_view() -> Arc<dyn MembershipView> {
        Arc::new(GlobalOracleView::new(16))
    }

    fn run_multicast(
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        config: PmcastConfig,
        network: NetworkConfig,
        event: Event,
        sender: usize,
    ) -> (Vec<PmcastProcess>, pmcast_simnet::TrafficStats) {
        let topology = small_topology();
        let group = build_pmcast_group(&topology, oracle, global_view(), &config);
        let mut sim = Simulation::new(group.processes, network);
        sim.process_mut(ProcessId(sender)).pmcast(event);
        sim.run_until_quiescent(300);
        let stats = *sim.stats();
        (sim.into_processes(), stats)
    }

    #[test]
    fn broadcast_case_reaches_every_process() {
        // With everyone interested and a reliable network, pmcast degenerates
        // to a reliable broadcast.
        let event = Event::builder(1).int("b", 1).build();
        let oracle = Arc::new(UniformOracle);
        let (processes, stats) = run_multicast(
            oracle,
            PmcastConfig::default(),
            NetworkConfig::reliable(3),
            event.clone(),
            0,
        );
        let delivered = processes.iter().filter(|p| p.has_delivered(event.id())).count();
        assert_eq!(delivered, 16);
        assert!(stats.messages_sent > 0);
    }

    #[test]
    fn uninterested_subtrees_are_not_infected() {
        // Only subtree 0 is interested; processes of other subtrees should
        // not even receive the event (that is the whole point of pmcast).
        let interested: Vec<Address> = ["0.0", "0.1", "0.2", "0.3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let oracle = Arc::new(AssignmentOracle::new(small_topology().space().clone(), interested));
        let event = Event::builder(2).int("b", 1).build();
        let (processes, _) = run_multicast(
            oracle.clone(),
            PmcastConfig::default(),
            NetworkConfig::reliable(5),
            event.clone(),
            0, // sender 0.0 is itself interested
        );
        for p in &processes {
            let interested = oracle.is_interested(p.space_index(), &event);
            if interested {
                assert!(p.has_delivered(event.id()), "{} must deliver", p.address());
            } else {
                assert!(!p.has_delivered(event.id()));
            }
        }
        // Spurious reception is limited to delegates of interested subtrees
        // (and possibly nobody in this tiny tree).
        let spurious = processes
            .iter()
            .filter(|p| {
                !oracle.is_interested(p.space_index(), &event) && p.has_received(event.id())
            })
            .count();
        assert!(spurious <= 4, "at most a few uninterested receivers, got {spurious}");
    }

    #[test]
    fn delivery_requires_interest() {
        let oracle = Arc::new(AssignmentOracle::new(small_topology().space().clone(), vec!["1.1".parse::<Address>().unwrap()]));
        let event = Event::builder(3).int("b", 1).build();
        let (processes, _) = run_multicast(
            oracle,
            PmcastConfig::default(),
            NetworkConfig::reliable(8),
            event.clone(),
            5, // sender 1.1 (index 5 in a 4x4 tree)
        );
        let deliverers: Vec<&PmcastProcess> = processes
            .iter()
            .filter(|p| p.has_delivered(event.id()))
            .collect();
        assert_eq!(deliverers.len(), 1);
        assert_eq!(deliverers[0].address().to_string(), "1.1");
    }

    impl PmcastProcess {
        /// `GETRATE(depth, event)`: the fraction of view entries (delegates /
        /// neighbours) whose subtree is interested in the event.
        fn matching_rate(&self, depth: Depth, event: &Event) -> f64 {
            let view = &self.group.stack(self.stack)[depth - 1];
            raw_rate(self.group.interest(view, event).1, view.len())
        }
    }

    #[test]
    fn matching_rate_reflects_oracle() {
        let topology = small_topology();
        let interested: Vec<Address> = ["0.0", "0.1", "1.0", "1.1", "2.0", "2.1", "3.0", "3.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let oracle: Arc<dyn InterestOracle + Send + Sync> =
            Arc::new(AssignmentOracle::new(small_topology().space().clone(), interested));
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let process = &group.processes[0];
        let event = Event::builder(1).build();
        // Depth 1: all four subtrees contain interested processes.
        assert!((process.matching_rate(1, &event) - 1.0).abs() < 1e-12);
        // Depth 2 (leaf): half of the neighbours are interested.
        assert!((process.matching_rate(2, &event) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tuning_inflates_the_effective_audience() {
        let topology = small_topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> =
            Arc::new(AssignmentOracle::new(small_topology().space().clone(), vec!["0.0".parse::<Address>().unwrap()]));
        let tuned_config = PmcastConfig::default().with_tuning(6);
        let group = build_pmcast_group(&topology, oracle.clone(), global_view(), &tuned_config);
        let process = &group.processes[0];
        let event = Event::builder(1).build();
        let effective_rate = |process: &PmcastProcess| {
            process.group.judge(&process.group.stack(process.stack)[0], &event).0
        };
        let raw = process.matching_rate(1, &event);
        let effective = effective_rate(process);
        assert!(effective > raw);
        assert!(effective <= 1.0);

        // Without tuning the effective rate equals the raw rate.
        let plain_group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let plain = &plain_group.processes[0];
        assert!((effective_rate(plain) - plain.matching_rate(1, &event)).abs() < 1e-12);
    }

    #[test]
    fn message_loss_degrades_but_rarely_destroys_delivery() {
        let oracle = Arc::new(UniformOracle);
        let event = Event::builder(4).build();
        let (processes, stats) = run_multicast(
            oracle,
            PmcastConfig::default().with_fanout(3),
            NetworkConfig::default().with_loss(0.2).with_seed(17),
            event.clone(),
            0,
        );
        let delivered = processes.iter().filter(|p| p.has_delivered(event.id())).count();
        assert!(delivered >= 12, "only {delivered}/16 delivered under 20% loss");
        assert!(stats.messages_lost > 0);
    }

    #[test]
    fn content_based_subscriptions_drive_delivery() {
        // Use a GroupTree with real filters as both topology and oracle.
        let space = AddressSpace::regular(2, 3).unwrap();
        let mut tree = GroupTree::new(space.clone());
        for (index, address) in space.iter().enumerate() {
            let filter = if index % 3 == 0 {
                Filter::new().with("kind", Predicate::Eq("alert".into()))
            } else {
                Filter::new().with("kind", Predicate::Eq("heartbeat".into()))
            };
            tree.join(address, filter).unwrap();
        }
        let tree = Arc::new(tree);
        let oracle: Arc<dyn InterestOracle + Send + Sync> = tree.clone();
        let group = build_pmcast_group(tree.as_ref(), oracle, global_view(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(2));
        let event = Event::builder(11).str("kind", "alert").build();
        sim.process_mut(ProcessId(0)).pmcast(event.clone());
        sim.run_until_quiescent(200);
        for p in sim.processes() {
            let wants_alerts = tree
                .subscription(p.address())
                .map(|f| {
                    use pmcast_interest::Interest;
                    f.matches(&event)
                })
                .unwrap_or(false);
            assert_eq!(p.has_delivered(event.id()), wants_alerts, "{}", p.address());
        }
    }

    #[test]
    fn multiple_concurrent_events_are_kept_apart() {
        let topology = small_topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(23));
        let event_a = Event::builder(100).int("b", 1).build();
        let event_b = Event::builder(200).int("b", 2).build();
        sim.process_mut(ProcessId(0)).pmcast(event_a.clone());
        sim.process_mut(ProcessId(9)).pmcast(event_b.clone());
        sim.run_until_quiescent(300);
        for p in sim.processes() {
            assert!(p.has_delivered(event_a.id()));
            assert!(p.has_delivered(event_b.id()));
            // The delivered set holds each event exactly once.
            assert_eq!(p.ids.delivered_len(), 2);
        }
    }

    #[test]
    fn quiescence_is_reached_and_buffers_drain() {
        let oracle = Arc::new(UniformOracle);
        let event = Event::builder(5).build();
        let id = event.id();
        let (processes, _) = run_multicast(
            oracle,
            PmcastConfig::default(),
            NetworkConfig::reliable(31),
            event,
            3,
        );
        for p in &processes {
            assert!(p.is_quiescent());
            assert_eq!(p.buffers.len(), 0);
            assert!(p.has_delivered(id));
        }
    }

    #[test]
    fn debug_output_is_informative() {
        let topology = small_topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let text = format!("{:?}", group);
        assert!(text.contains("ProtocolGroup"));
        let process_text = format!("{:?}", group.processes[0]);
        assert!(process_text.contains("PmcastProcess"));
        assert!(process_text.contains("id: 0"));
        // Printing a process or a group writes no address out.
        assert!(format!("{:?}", group.addresses).contains("written: false"));
    }

    /// Appends to `pool` every position of `view` except the process's own.
    /// Views list distinct processes in ascending [`ProcessId`] order, so the
    /// own position — if the process is in the view at all — is one binary
    /// search away and the pool is two index ranges.
    ///
    /// The global membership's candidate fill as it was while every
    /// (process, depth, round) wrote its pool out, kept verbatim as the
    /// reference the draw over a described pool is held to.
    fn fill_all_but_own(view: &[GossipTarget], own: ProcessId, pool: &mut Vec<usize>) {
        match view.binary_search_by_key(&own, |target| target.id) {
            Ok(position) => {
                pool.extend(0..position);
                pool.extend(position + 1..view.len());
            }
            Err(_) => pool.extend(0..view.len()),
        }
    }

    /// One depth's draws as they were made over the written-out pool:
    /// `entries` entry-rounds of `fanout` picks, each swapped in place and
    /// going on from the permutation the entry before left.
    fn reference_draws(
        view: &[GossipTarget],
        own: ProcessId,
        fanout: usize,
        entries: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<usize> {
        let mut pool = Vec::new();
        fill_all_but_own(view, own, &mut pool);
        let mut drawn = Vec::new();
        for _ in 0..entries {
            let picks = fanout.min(pool.len());
            for slot in 0..picks {
                let swap = rng.gen_range(slot..pool.len());
                pool.swap(slot, swap);
                drawn.push(pool[slot]);
            }
        }
        drawn
    }

    proptest::proptest! {
        /// The O(F) draw is the old draw: over random view widths, with the
        /// process inside its view or outside it (below, above, in a gap),
        /// any fanout and up to 40 entries sharing one depth's permutation —
        /// several depths in a row through one set of overrides — the same
        /// picks in the same order, and the RNG left at the same word.
        #[test]
        fn the_draw_over_a_described_pool_is_the_draw_over_the_written_one(
            depths in proptest::collection::vec(
                (1usize..=200, 1usize..4, 0usize..400, 1usize..=5, 1usize..=40),
                1..6,
            ),
            seed in 0u64..u64::MAX,
        ) {
            let mut written = ChaCha8Rng::seed_from_u64(seed);
            let mut described = ChaCha8Rng::seed_from_u64(seed);
            let mut overrides = VirtualPool::default();
            for (width, stride, own_at, fanout, entries) in depths {
                let view: Vec<GossipTarget> = (0..width)
                    .map(|k| GossipTarget {
                        id: ProcessId(1 + k * stride),
                        subgroup: Prefix::root(),
                    })
                    .collect();
                let (own, position) = if own_at < width {
                    (view[own_at].id, Some(own_at))
                } else {
                    let outside = [0, 1 + width * stride, if stride > 1 { 2 } else { 0 }];
                    (ProcessId(outside[own_at % 3]), None)
                };
                let expected = reference_draws(&view, own, fanout, entries, &mut written);
                let len = overrides.reset(width, position);
                let mut pool = AllButOwn { len, overrides: &mut overrides };
                let mut drawn = Vec::new();
                for _ in 0..entries {
                    for slot in 0..fanout.min(pool.len()) {
                        drawn.push(pool.draw(slot, &mut described));
                    }
                }
                proptest::prop_assert_eq!(drawn, expected);
                proptest::prop_assert_eq!(described.get_word_pos(), written.get_word_pos());
            }
        }
    }

    /// Every view of a group, once each, by id.
    fn all_views(group: &ProtocolGroup<PmcastProcess>) -> Vec<DepthView> {
        let mut views: Vec<DepthView> = group
            .processes
            .iter()
            .flat_map(|process| process.group.stack(process.stack).iter().cloned())
            .collect();
        views.sort_unstable_by_key(DepthView::id);
        views.dedup_by_key(|view| view.id());
        views
    }

    /// An assignment oracle, with or without its audience key, counting the
    /// subtree tests and the single-process tests the protocol asks of it
    /// (a hook's reference asks are not counted).
    struct CountingOracle {
        assignment: AssignmentOracle,
        keyed: bool,
        subtree_tests: AtomicU64,
        point_tests: AtomicU64,
    }

    impl CountingOracle {
        /// Both counts, reset.
        fn asked(&self) -> (u64, u64) {
            let take = |count: &AtomicU64| count.swap(0, Ordering::SeqCst);
            (take(&self.subtree_tests), take(&self.point_tests))
        }
    }

    impl InterestOracle for CountingOracle {
        fn is_interested(&self, index: u128, event: &Event) -> bool {
            if !IN_HOOK.with(Cell::get) {
                self.point_tests.fetch_add(1, Ordering::SeqCst);
            }
            self.assignment.is_interested(index, event)
        }
        fn subtree_interested(&self, prefix: &Prefix, event: &Event) -> bool {
            if !IN_HOOK.with(Cell::get) {
                self.subtree_tests.fetch_add(1, Ordering::SeqCst);
            }
            self.assignment.subtree_interested(prefix, event)
        }
        fn audience_key(&self, event: &Event) -> Option<u64> {
            self.keyed.then(|| self.assignment.audience_key(event)).flatten()
        }
    }

    /// A single-event trial over the global view, whose every entry-round
    /// is a lone entry's: its draw writes no pool out, and — keyed — reads
    /// every pick off the entry's `⊲` mask, whatever the view's width.
    #[test]
    fn after_an_audience_s_first_entry_in_a_view_no_pick_asks_the_oracle() {
        // A 4^3 group, half its processes interested, tuned so that the
        // threshold designates the first two positions of every view too.
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 4).unwrap());
        let assignment =
            AssignmentOracle::sample(&topology, 0.5, &mut ChaCha8Rng::seed_from_u64(7));
        let config = PmcastConfig::default().with_tuning(2);
        for keyed in [true, false] {
            let oracle = Arc::new(CountingOracle {
                assignment: assignment.clone(),
                keyed,
                subtree_tests: AtomicU64::new(0),
                point_tests: AtomicU64::new(0),
            });
            let membership = Arc::new(GlobalOracleView::new(64));
            let group = build_pmcast_group(&topology, oracle.clone(), membership, &config);
            // The audience's first entry in each of the 21 views.
            let context = Rc::clone(&group.processes[0].group);
            for view in all_views(&group) {
                context.fresh_entry(&view, Arc::new(Event::builder(1).build()));
            }
            // The 5 inner views ask per subgroup, the 16 leaf views per
            // process, by index.
            let (subtree, point) = oracle.asked();
            assert!(
                subtree >= 5 && point >= 16 * 4,
                "{subtree} and {point} asks"
            );
            picks_checked();
            WRITTEN_POOLS.with(|written| written.set(0));
            let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(5));
            sim.process_mut(ProcessId(0)).pmcast(Event::builder(2).build());
            sim.run_until_quiescent(300);
            assert_eq!(WRITTEN_POOLS.with(Cell::get), 0, "a lone entry's pool was written out");
            let event = Event::builder(2).build();
            let delivered = sim.processes().filter(|p| p.has_delivered(event.id())).count();
            assert_eq!(delivered, assignment.len());
            // A process asks about itself once, when the event reaches it.
            let received = sim
                .processes()
                .filter(|p| p.has_received(event.id()))
                .count();
            let ((subtree, point), checked) = (oracle.asked(), picks_checked());
            let asked = subtree + point - received as u64;
            if keyed {
                // Every pick read a bit `check_pick` held to the oracle.
                assert_eq!(asked, 0);
                assert!(checked > 100, "only {checked} picks were checked");
            } else {
                // Without the key every pick asks, and no mask is recorded.
                assert!(asked > 100, "only {asked} picks asked");
                assert_eq!(checked, 0);
            }
        }
    }

    /// `DelegateView`, recording per ask whether it listed the view: a
    /// listing writes the view's positions into the `out` it is handed
    /// (truncated when it judges the view whole), the whole bit writes
    /// nothing.
    #[derive(Debug)]
    struct ListingWatch {
        view: DelegateView,
        /// `(view id, listed, whole)` of every `fill_known_or_whole` ask.
        asks: std::sync::Mutex<Vec<(u32, bool, bool)>>,
    }

    impl MembershipView for ListingWatch {
        fn estimated_size(&self) -> usize {
            self.view.estimated_size()
        }
        fn peer_count(&self, of: usize) -> usize {
            self.view.peer_count(of)
        }
        fn peer_at(&self, of: usize, k: usize) -> usize {
            self.view.peer_at(of, k)
        }
        fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
            self.view.knows_at_depth(of, depth, peer)
        }
        fn fill_known_or_whole(
            &self,
            of: usize,
            depth: usize,
            view: u32,
            peers: &mut dyn Iterator<Item = usize>,
            out: &mut Vec<usize>,
        ) -> bool {
            let mut listed = Vec::new();
            let whole = self.view.fill_known_or_whole(of, depth, view, peers, &mut listed);
            out.extend_from_slice(&listed);
            self.asks.lock().unwrap().push((view, listed.capacity() > 0, whole));
            whole
        }
    }

    /// A static `delegate(3)` trial at 22^3 (the `paper_delegate` shape)
    /// draws as under the global view: every ask is answered whole, each
    /// view is listed once — at its first ask — and read off the provider's
    /// whole bit from then on, and no slot table is ever built.
    #[test]
    fn a_static_delegate_trial_lists_each_view_once_and_builds_no_table() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 22).unwrap());
        let oracle =
            Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut ChaCha8Rng::seed_from_u64(42)));
        let view = DelegateView::bootstrap(22, 3, DelegateViewConfig::default(), 42);
        let watch = Arc::new(ListingWatch { view, asks: Default::default() });
        let group = build_pmcast_group(&topology, oracle, watch.clone(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(42));
        sim.process_mut(ProcessId(0)).pmcast(Event::builder(1).build());
        while !sim.is_quiescent() {
            watch.view.round_elapsed();
            sim.step();
        }
        let asks = watch.asks.lock().unwrap();
        let mut listings = FxHashMap::<u32, usize>::default();
        for &(view, listed, _) in asks.iter() {
            *listings.entry(view).or_default() += usize::from(listed);
        }
        assert!(asks.len() > 10_000, "only {} asks", asks.len());
        assert!(asks.iter().all(|&(_, _, whole)| whole), "a static view was not whole");
        assert!(listings.values().all(|&listed| listed == 1), "a view listed at other asks");
        assert!(!watch.view.has_tables(), "a static trial built the slot tables");
    }

    #[test]
    fn an_oracle_without_audience_keys_leaves_the_judgement_table_empty() {
        let space = AddressSpace::regular(3, 4).unwrap();
        let mut tree = GroupTree::new(space.clone());
        for (index, address) in space.iter().enumerate() {
            let kind = if index % 3 == 0 { "alert" } else { "heartbeat" };
            tree.join(address, Filter::new().with("kind", Predicate::Eq(kind.into()))).unwrap();
        }
        let tree = Arc::new(tree);
        let membership = Arc::new(GlobalOracleView::new(64));
        let config = PmcastConfig::default();
        let group = build_pmcast_group(tree.as_ref(), tree.clone(), membership, &config);
        let context = Rc::clone(&group.processes[0].group);
        picks_checked();
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(2));
        let event = Event::builder(11).str("kind", "alert").build();
        sim.process_mut(ProcessId(0)).pmcast(event.clone());
        sim.run_until_quiescent(200);
        let delivered = sim.processes().filter(|p| p.has_delivered(event.id())).count();
        assert_eq!(delivered, 22);
        let table = context.judgements.borrow();
        assert!(table.rows.is_empty() && table.masks.is_empty());
        assert_eq!(picks_checked(), 0);
    }

    /// A provider that knows everybody and allows exactly one depth-1
    /// subgroup's subtree, both the test's to flip.
    #[derive(Debug)]
    struct FlippingView {
        allowed: AtomicU64,
        epoch: AtomicU64,
    }

    impl MembershipView for FlippingView {
        fn estimated_size(&self) -> usize {
            16
        }
        fn peer_count(&self, _of: usize) -> usize {
            15
        }
        fn peer_at(&self, of: usize, k: usize) -> usize {
            k + usize::from(k >= of)
        }
        fn knows_at_depth(&self, of: usize, _depth: usize, peer: usize) -> bool {
            of != peer
        }
        fn summary_allows(&self, subgroup: &Prefix, _event: &Event) -> bool {
            u64::from(subgroup.components()[0]) == self.allowed.load(Ordering::SeqCst)
        }
        fn summary_epoch(&self) -> u64 {
            self.epoch.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn a_verdict_recorded_mid_budget_is_asked_again_once_the_epoch_moves() {
        // Any `u64` is an epoch: the last one must not read as "recorded"
        // on an entry nobody asked about (it did while that was spelled
        // `epoch + 1 == 0` — everything vetoed, nothing sent), and the
        // epoch after it is 0.
        for first_epoch in [7, u64::MAX] {
            let provider = Arc::new(FlippingView {
                allowed: AtomicU64::new(1),
                epoch: AtomicU64::new(first_epoch),
            });
            // F = R = 3: a pool of one subgroup's three delegates is drawn
            // whole.
            let config = PmcastConfig::default()
                .with_fanout(3)
                .with_interest_routing(InterestRouting::Summary);
            let group = build_pmcast_group(
                &small_topology(),
                Arc::new(UniformOracle),
                provider.clone(),
                &config,
            );
            let mut process = group.processes.into_iter().next().unwrap();
            process.pmcast(Event::builder(1).build());
            assert!(process.buffers.at_depth(1)[0].budget >= 4, "mid-budget needs a budget");

            let mut outbox = Vec::new();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut scratch = FanoutScratch::default();
            let mut round = |process: &mut PmcastProcess| -> Vec<usize> {
                let mut ctx =
                    RoundContext::external(ProcessId(0), 0, &mut outbox, &mut rng, &mut scratch);
                process.on_round(&mut ctx);
                let mut targets: Vec<usize> = outbox.drain(..).map(|(to, ..)| to.0).collect();
                targets.sort_unstable();
                targets
            };
            pools_checked();
            // Subtree 1 is allowed: its delegates 1.0, 1.1, 1.2 get the
            // gossip, this round and — from the recorded verdict — the next.
            assert_eq!(round(&mut process), vec![4, 5, 6]);
            assert_eq!(round(&mut process), vec![4, 5, 6]);
            let recorded = |process: &PmcastProcess, epoch| {
                process.buffers.at_depth(1)[0].verdict_under(epoch)
            };
            assert_eq!(recorded(&process, first_epoch), Some(0b111 << 3));
            // The filters change under the entry: the next round draws from
            // the new pool, because the provider moved its epoch.
            let second_epoch = first_epoch.wrapping_add(1);
            provider.allowed.store(2, Ordering::SeqCst);
            provider.epoch.store(second_epoch, Ordering::SeqCst);
            assert_eq!(round(&mut process), vec![8, 9, 10]);
            assert_eq!(recorded(&process, second_epoch), Some(0b111 << 6));
            assert_eq!(recorded(&process, first_epoch), None);
            assert_eq!(pools_checked(), vec![(1, 3); 3]);
        }
    }

    /// `delegate(4)` tables for a 4^3 group.
    fn delegate_4_tables() -> Arc<DelegateView> {
        Arc::new(DelegateView::bootstrap(4, 3, DelegateViewConfig::default().with_slots(4), 11))
    }

    /// A 4^3 group under summary routing over `delegate(4)` tables with the
    /// topic workload's summaries attached: process `i` subscribes to topic
    /// `(i / 4) % 5`, and process 21 alone to topic 5 on top.
    fn summary_routed_topic_group() -> (ProtocolGroup<PmcastProcess>, Arc<DelegateView>) {
        let space = AddressSpace::regular(3, 4).unwrap();
        let subscriptions = (0..64u32)
            .map(|i| if i == 21 { vec![i / 4 % 5, 5] } else { vec![i / 4 % 5] })
            .collect();
        let topics = Arc::new(TopicOracle::new(space.clone(), subscriptions, 6));
        let membership = delegate_4_tables();
        membership.attach_interest_summaries(topics.subtree_summaries());
        let config = PmcastConfig::default().with_interest_routing(InterestRouting::Summary);
        let group = build_pmcast_group(
            &ImplicitRegularTree::new(space),
            topics,
            membership.clone(),
            &config,
        );
        (group, membership)
    }

    /// Steps a 64-process group through a churn schedule the way the trial
    /// runner does — lifecycle transitions observed by the provider, a
    /// membership round before every step — publishing `events[r]` in round
    /// `r`, until everything is published and quiet.  The hooks hold every
    /// summary-routed pool and every table-served judgement on the way
    /// equal to what they stand for.
    fn run_churn(
        group: ProtocolGroup<PmcastProcess>,
        membership: Arc<DelegateView>,
        crashes: Vec<(u64, usize)>,
        lifecycle: LifecyclePlan,
        events: Vec<Event>,
    ) -> Simulation<PmcastProcess> {
        let network = NetworkConfig {
            crash_plan: CrashPlan::Scheduled(crashes),
            ..NetworkConfig::reliable(5)
        };
        let observer = membership.clone();
        let mut sim =
            Simulation::with_lifecycle_observer(group.processes, network, lifecycle, move |t| {
                match t.kind {
                    LifecycleKind::Join => observer.observe_join(t.process.0),
                    LifecycleKind::Leave => observer.observe_leave(t.process.0),
                    LifecycleKind::Crash => observer.observe_crash(t.process.0),
                }
            });
        let mut events = events.into_iter();
        for round in 0..200 {
            let published = events.next();
            let publishing = published.is_some();
            if let Some(event) = published {
                sim.process_mut(ProcessId(round * 3 % 64)).pmcast(event);
            }
            membership.round_elapsed();
            sim.step();
            if !publishing && sim.pending_lifecycle() == 0 && sim.is_quiescent() {
                return sim;
            }
        }
        panic!("the dissemination never went quiet");
    }

    /// [`run_churn`] over [`summary_routed_topic_group`], publishing event
    /// `100 + r` on topic `publications[r]` in round `r`.
    fn run_topic_churn(
        crashes: Vec<(u64, usize)>,
        lifecycle: LifecyclePlan,
        publications: &[i64],
    ) -> (Simulation<PmcastProcess>, Arc<DelegateView>) {
        let (group, membership) = summary_routed_topic_group();
        let events = topic_events(publications);
        let sim = run_churn(group, membership.clone(), crashes, lifecycle, events);
        (sim, membership)
    }

    /// Event `100 + r` on topic `topics[r]`, for every `r`.
    fn topic_events(topics: &[i64]) -> Vec<Event> {
        topics
            .iter()
            .enumerate()
            .map(|(round, &topic)| {
                Event::builder(100 + round as u64).int(TOPIC_ATTRIBUTE, topic).build()
            })
            .collect()
    }

    #[test]
    fn recorded_verdicts_equal_the_per_round_ask_through_leave_rejoin_and_crash() {
        // The only subscriber of topic 5 leaves at round 4 and is back at
        // round 8; another subscriber crashes at round 11 and is swept by
        // the membership round after.  An event is published every round,
        // every other one on topic 5 (by publishers 0, 3, …, 57: never one
        // of the churned), so entries are mid-budget across each filter
        // change.
        pools_checked();
        let publications: Vec<i64> =
            (0..20).map(|round| if round % 2 == 1 { 5 } else { round / 2 % 5 }).collect();
        let lifecycle = LifecyclePlan {
            leaves: vec![(4, 21)],
            joins: vec![(8, 21)],
            ..LifecyclePlan::default()
        };
        let (sim, membership) = run_topic_churn(vec![(11, 42)], lifecycle, &publications);
        // Attached, then leave, rejoin and swept crash.
        assert_eq!(membership.summary_epoch(), 4);
        let checked = pools_checked();
        assert!(checked.len() > 1_000, "only {} entry-rounds were routed", checked.len());
        // The event of round 7 was published while nobody subscribed to its
        // topic, a round before the subscriber came back: its entries saw
        // the veto lifted mid-budget.
        let sizes: Vec<usize> =
            checked.iter().filter(|&&(id, _)| id == 107).map(|&(_, size)| size).collect();
        let lifted = sizes.iter().position(|&size| size > 0).expect("the rejoin lifts the veto");
        assert!(lifted > 0 && sizes[..lifted].iter().all(|&size| size == 0), "{sizes:?}");
        assert!(sim.process(ProcessId(21)).has_delivered(EventId(107)));
    }

    proptest::proptest! {
        /// The same equality over random schedules: any mix of leaves,
        /// rejoins and crashes of any processes (the engine ignores a
        /// transition that changes nothing), under random topic traffic.
        #[test]
        fn recorded_verdicts_equal_the_per_round_ask_over_random_churn(
            churn in proptest::collection::vec((0u8..3, 0usize..64, 1u64..24), 0..10),
            publications in proptest::collection::vec(0i64..7, 1..14),
        ) {
            let scheduled = |kind: u8| -> Vec<(u64, usize)> {
                churn
                    .iter()
                    .filter(|&&(of, ..)| of == kind)
                    .map(|&(_, process, round)| (round, process))
                    .collect()
            };
            let lifecycle = LifecyclePlan {
                leaves: scheduled(0),
                joins: scheduled(1),
                ..LifecyclePlan::default()
            };
            let (sim, _) = run_topic_churn(scheduled(2), lifecycle, &publications);
            proptest::prop_assert!(sim.is_quiescent());
        }
    }

    /// An oracle's two `⊲` tests without its audience keys.
    struct Unkeyed<'a>(&'a dyn InterestOracle);

    impl InterestOracle for Unkeyed<'_> {
        fn is_interested(&self, index: u128, event: &Event) -> bool {
            self.0.is_interested(index, event)
        }
        fn subtree_interested(&self, prefix: &Prefix, event: &Event) -> bool {
            self.0.subtree_interested(prefix, event)
        }
    }

    #[test]
    fn a_report_per_audience_equals_the_report_per_event() {
        // Fourteen publications over the six topics and one the oracle does
        // not know (no audience key: classified process by process), topics
        // repeating so that most events read an earlier one's audience; the
        // eighth re-publishes the third's id from another process, as a
        // redundant-publisher workload does.
        let (group, membership) = summary_routed_topic_group();
        let oracle = Arc::clone(&group.processes[0].group.oracle);
        let mut events = topic_events(&[0, 1, 5, 2, 6, 0, 3, 5, 1, 4, 6, 0, 5, 2]);
        events[7] = events[2].clone();
        assert_eq!(oracle.audience_key(&events[4]), None);
        let sim = run_churn(
            group,
            membership,
            vec![(6, 42)],
            LifecyclePlan::default(),
            events.clone(),
        );
        events.remove(7);

        let per_audience =
            MulticastReport::collect_per_event(&events, sim.processes(), oracle.as_ref());
        let per_event =
            MulticastReport::collect_per_event(&events, sim.processes(), &Unkeyed(oracle.as_ref()));
        assert_eq!(per_audience, per_event);
        assert_eq!(per_audience.len(), 13);
        // Topic 5 has its one subscriber, the unknown topic none, and the
        // rest reached theirs (a crashed one apart).
        assert_eq!(per_audience[2].interested, 1);
        assert_eq!((per_audience[4].interested, per_audience[4].uninterested), (0, 64));
        assert!(per_audience.iter().all(|report| report.received_total > 0));
        let merged = per_audience.iter().fold(MulticastReport::default(), |mut all, report| {
            all.merge(report);
            all
        });
        assert!(merged.delivered_interested > 100 && merged.received_uninterested > 0);
    }

    /// A fully subscribed 4^3 space: process `i` wants the topics
    /// `subscriptions[i]`.
    fn topic_filters(subscriptions: &[(u32, u32)]) -> Vec<Option<Filter>> {
        subscriptions
            .iter()
            .map(|&(first, second)| {
                let topics = Predicate::one_of([i64::from(first), i64::from(second)]);
                Some(Filter::new().with(TOPIC_ATTRIBUTE, topics))
            })
            .collect()
    }

    #[test]
    fn one_audience_key_is_not_one_summary_verdict() {
        // An explicit assignment gives every event the audience key 0; the
        // summaries attached to the provider still tell contents apart —
        // process `i` subscribes to the topic numbered like its depth-1
        // subtree.  Two events of the one key must each get the pool of
        // their own content (`check_summary_pool` holds both equal to the
        // per-round ask): a verdict kept per audience key would serve the
        // first event's to the second.
        let space = AddressSpace::regular(3, 4).unwrap();
        let everybody = AssignmentOracle::new(space.clone(), space.iter());
        let subscriptions: Vec<(u32, u32)> = (0..64).map(|i| (i / 16, i / 16)).collect();
        let membership = delegate_4_tables();
        membership.attach_interest_summaries(SubtreeSummaries::build(
            space.clone(),
            topic_filters(&subscriptions),
        ));
        let config = PmcastConfig::default()
            .with_fanout(3)
            .with_interest_routing(InterestRouting::Summary);
        let events: Vec<Event> = [1, 2]
            .iter()
            .map(|&topic| Event::builder(topic as u64).int(TOPIC_ATTRIBUTE, topic).build())
            .collect();
        assert_eq!(everybody.audience_key(&events[0]), Some(0));
        assert_eq!(everybody.audience_key(&events[1]), Some(0));
        let group = build_pmcast_group(
            &ImplicitRegularTree::new(space),
            Arc::new(everybody),
            membership,
            &config,
        );
        let mut processes = group.processes.into_iter();
        let (mut publisher, mut sibling) = (processes.next().unwrap(), processes.next().unwrap());

        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut scratch = FanoutScratch::default();
        // The subtrees (of 16 processes) each event's root-depth gossips of
        // one round went to.
        let mut round = |process: &mut PmcastProcess| -> Vec<(u64, usize)> {
            let mut outbox = Vec::new();
            let id = ProcessId(process.id as usize);
            let mut ctx = RoundContext::external(id, 0, &mut outbox, &mut rng, &mut scratch);
            process.on_round(&mut ctx);
            let mut sent: Vec<(u64, usize)> = outbox
                .iter()
                .filter(|(_, gossip)| gossip.depth == 1)
                .map(|(to, gossip)| (gossip.id.0, to.0 / 16))
                .collect();
            sent.sort_unstable();
            sent
        };
        pools_checked();
        for event in &events {
            publisher.pmcast(event.clone());
        }
        // F = R = 3: each event's pool is drawn whole.
        let own_subtrees = vec![(1, 1), (1, 1), (1, 1), (2, 2), (2, 2), (2, 2)];
        assert_eq!(round(&mut publisher), own_subtrees);
        let verdicts: Vec<u128> = publisher
            .buffers
            .at_depth(1)
            .iter()
            .map(|entry| entry.verdict_under(1).expect("recorded under the attach epoch"))
            .collect();
        assert_eq!(verdicts, [0b111 << 3, 0b111 << 6]);
        // A sibling holds the same root view: its asks are answered from
        // the masks the provider kept per (content, view), in the other
        // order.
        for event in events.iter().rev() {
            sibling.pmcast(event.clone());
        }
        assert_eq!(round(&mut sibling), own_subtrees);
        assert_eq!(pools_checked(), [(1, 3), (2, 3), (2, 3), (1, 3)]);
    }

    /// The topics of [`judged_group`]'s topic oracle: with the 21 views of
    /// a 4^3 group, more `(key, view)` pairs than the judgement table holds.
    const SWEPT_TOPICS: usize = JUDGEMENT_TABLE_ROWS / 21 + 2;

    /// A 4^3 group over `delegate(4)` tables carrying the subscriptions'
    /// summaries, its interest oracle of one of three kinds: the
    /// subscriptions as a topic oracle (an audience key per topic), an
    /// explicit assignment of those whose two topics coincide (one key for
    /// every event), or the subscriptions as content filters in a group tree
    /// (no key: nothing may go through the table).
    fn judged_group(
        oracle_kind: u8,
        subscriptions: &[(u32, u32)],
        config: &PmcastConfig,
    ) -> (ProtocolGroup<PmcastProcess>, Arc<DelegateView>) {
        let space = AddressSpace::regular(3, 4).unwrap();
        let filters = topic_filters(subscriptions);
        let membership = delegate_4_tables();
        membership
            .attach_interest_summaries(SubtreeSummaries::build(space.clone(), filters.clone()));
        let regular = ImplicitRegularTree::new(space.clone());
        let group = match oracle_kind {
            0 => {
                let sets = subscriptions.iter().map(|&(a, b)| vec![a, b]).collect();
                let topics = Arc::new(TopicOracle::new(space, sets, SWEPT_TOPICS));
                build_pmcast_group(&regular, topics, membership.clone(), config)
            }
            1 => {
                let chosen = space.iter().zip(subscriptions).filter(|(_, (a, b))| a == b);
                let assignment = AssignmentOracle::new(space.clone(), chosen.map(|(at, _)| at));
                build_pmcast_group(&regular, Arc::new(assignment), membership.clone(), config)
            }
            _ => {
                let mut tree = GroupTree::new(space.clone());
                for (address, filter) in space.iter().zip(filters) {
                    tree.join(address, filter.expect("everybody subscribes")).unwrap();
                }
                let tree = Arc::new(tree);
                build_pmcast_group(tree.as_ref(), tree.clone(), membership.clone(), config)
            }
        };
        (group, membership)
    }

    proptest::proptest! {
        /// Every `(rate, budget)` the judgement table serves is bit for bit
        /// what `GroupContext::judge` computes on the spot
        /// (`check_judgement`, on every fresh entry), whatever the oracle,
        /// the tuning, the routing arm and the churn — and across an
        /// overflow, which only forgets: before the traffic the table is
        /// filled to `headroom` rows below its bound with pairs the traffic
        /// does not use, so the traffic's own rows push it over while
        /// entries are in flight, and the rest of the sweep after it makes
        /// it more pairs than the bound in any case.
        #[test]
        fn table_served_judgements_equal_the_computation_on_the_spot(
            oracle_kind in 0u8..3,
            tuning in 0usize..3,
            routing in 0u8..3,
            subscriptions in proptest::collection::vec((0u32..6, 0u32..6), 64),
            churn in proptest::collection::vec((0u8..3, 0usize..64, 1u64..24), 0..8),
            publications in proptest::collection::vec(0i64..8, 1..10),
            headroom in 0usize..40,
        ) {
            let routing = [InterestRouting::Oracle, InterestRouting::Summary, InterestRouting::Blind]
                [routing as usize];
            let mut config = PmcastConfig::default().with_interest_routing(routing);
            if tuning > 0 {
                config = config.with_tuning(4 * tuning);
            }
            let (group, membership) = judged_group(oracle_kind, &subscriptions, &config);
            let context = Rc::clone(&group.processes[0].group);
            let views = all_views(&group);
            proptest::prop_assert_eq!(views.len(), 21);
            // Topics from the top down: the traffic's (0..8) come last.
            let swept: Vec<(i64, &DepthView)> = (0..SWEPT_TOPICS as i64)
                .rev()
                .flat_map(|topic| views.iter().map(move |view| (topic, view)))
                .collect();
            let sweep = |pairs: &[(i64, &DepthView)]| {
                for &(topic, view) in pairs {
                    let event = Event::builder(9).int(TOPIC_ATTRIBUTE, topic).build();
                    context.fresh_entry(view, Arc::new(event));
                }
            };
            let rows = || context.judgements.borrow().rows.len();

            judgements_checked();
            let (before, after) = swept.split_at(JUDGEMENT_TABLE_ROWS - headroom);
            sweep(before);
            let scheduled = |kind: u8| -> Vec<(u64, usize)> {
                churn
                    .iter()
                    .filter(|&&(of, ..)| of == kind)
                    .map(|&(_, process, round)| (round, process))
                    .collect()
            };
            let lifecycle = LifecyclePlan {
                leaves: scheduled(0),
                joins: scheduled(1),
                ..LifecyclePlan::default()
            };
            let events = topic_events(&publications);
            let sim = run_churn(group, membership, scheduled(2), lifecycle, events);
            proptest::prop_assert!(sim.is_quiescent());
            sweep(after);

            let checked = judgements_checked();
            match oracle_kind {
                // A key per topic: the sweep alone is more pairs than rows,
                // every one of them went through the table, and the table
                // forgot instead of growing — what it holds was stored
                // after the overflow, by the traffic or the sweep's tail,
                // both within the traffic's eight topics.
                0 => {
                    proptest::prop_assert!(swept.len() > JUDGEMENT_TABLE_ROWS);
                    proptest::prop_assert!(checked > swept.len());
                    proptest::prop_assert!(rows() <= 8 * 21);
                }
                // One key: a row per view at most.
                1 => {
                    proptest::prop_assert!(checked > swept.len());
                    proptest::prop_assert!(rows() <= 21);
                }
                // No key: the table is never touched.
                _ => proptest::prop_assert_eq!((checked, rows()), (0, 0)),
            }
        }
    }

    proptest::proptest! {
        /// The budget a first receipt's entry starts with, served from the
        /// group's table, is bit for bit the Pittel budget of the same view
        /// length and rate computed on the spot, over random lengths and
        /// rates, each asked twice (a miss, then a hit), and across an
        /// overflow: the table is first filled to `headroom` rows below its
        /// bound with lengths the sample does not use.
        #[test]
        fn table_served_budgets_equal_the_pittel_budget(
            lengths in proptest::collection::vec(0usize..300, 1..60),
            rates in proptest::collection::vec(0.0f64..1.0, 1..8),
            headroom in 0usize..40,
        ) {
            let (topology, oracle) = (small_topology(), Arc::new(UniformOracle));
            let group =
                build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
            let context = &group.processes[0].group;
            for filler in 0..JUDGEMENT_TABLE_ROWS - headroom {
                context.received_budget(1_000 + filler, 0.5);
            }
            let (fanout, env) = (context.config.fanout as f64, &context.config.env);
            for (at, &len) in lengths.iter().enumerate() {
                let rate = rates[at % rates.len()];
                let on_the_spot = pittel::round_budget(len as f64 * rate, fanout * rate, env);
                for _ in 0..2 {
                    proptest::prop_assert_eq!(
                        context.received_budget(len, rate),
                        on_the_spot.min(MAX_ROUNDS_PER_DEPTH)
                    );
                }
            }
            let rows = context.judgements.borrow().budgets.len();
            proptest::prop_assert!(rows <= JUDGEMENT_TABLE_ROWS);
        }
    }

    /// `alloc_budget`'s 300-event topic shape, stepped to quiescence: a 4^3
    /// group of three subscriptions a process over 12 topics, 300 events
    /// published ten a round, summary routing over `delegate(4)`, seed 42.
    /// The group's store asks the provider once per (content, view) and
    /// epoch: 116 asks reach it, of the 19 654 entry-rounds that hold no
    /// verdict, and all 19 654 do when the store's table is bypassed.  The
    /// ceiling is the achieved figure plus about 10 %.  Content is what the
    /// summaries read: events that also carry a price and a body nobody
    /// filters on, unique to each, reach the provider exactly as often.
    #[test]
    fn a_summary_verdict_reaches_the_provider_once_per_content_and_view() {
        let (entry_rounds, asked) = provider_asks_on_topic_trial(false);
        assert!(entry_rounds > 50_000, "only {entry_rounds} entry-rounds were routed");
        assert!(asked <= 128, "{asked} summary verdicts reached the provider");
        assert_eq!(provider_asks_on_topic_trial(true), (entry_rounds, asked));
    }

    /// The trial above: its routed entry-rounds and the provider asks among
    /// them, with or without unfiltered attributes on every event.
    fn provider_asks_on_topic_trial(unfiltered: bool) -> (usize, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let space = AddressSpace::regular(3, 4).unwrap();
        let subscriptions = (0..64)
            .map(|_| {
                let mut topics = Vec::new();
                while topics.len() < 3 {
                    let topic = rng.gen_range(0..12u32);
                    if !topics.contains(&topic) {
                        topics.push(topic);
                    }
                }
                topics
            })
            .collect();
        let topics = Arc::new(TopicOracle::new(space.clone(), subscriptions, 12));
        let membership = delegate_4_tables();
        membership.attach_interest_summaries(topics.subtree_summaries());
        let config = PmcastConfig::default().with_interest_routing(InterestRouting::Summary);
        let tree = ImplicitRegularTree::new(space);
        let group = build_pmcast_group(&tree, topics, membership.clone(), &config);
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(42));
        provider_verdicts();
        pools_checked();
        for round in 0..30u64 {
            for e in 0..10 {
                let topic = rng.gen_range(0..12);
                let id = 10_000 + round * 10 + e;
                let mut event = Event::builder(id).int(TOPIC_ATTRIBUTE, topic).build();
                if unfiltered {
                    event.insert("price", id as f64 / 8.0);
                    event.insert("body", format!("trade {id}"));
                }
                sim.process_mut(ProcessId(rng.gen_range(0..64))).pmcast(event);
            }
            membership.round_elapsed();
            sim.step();
        }
        while !sim.is_quiescent() {
            membership.round_elapsed();
            sim.step();
        }
        (pools_checked().len(), provider_verdicts())
    }

    /// The topic trial above judges its fresh entries once per (topic, view):
    /// 243 of the 15 090 judgements it serves miss the group's table, every
    /// one when the table is bypassed.  The ceiling is the 12 topics times
    /// the group's 21 views.
    #[test]
    fn the_topic_trial_judges_each_audience_once_per_view() {
        JUDGEMENT_MISSES.with(|missed| missed.set(0));
        judgements_checked();
        provider_asks_on_topic_trial(false);
        let (missed, served) = (JUDGEMENT_MISSES.with(Cell::get), judgements_checked());
        assert!(missed <= 12 * 21, "{missed} of {served} judgements missed the table");
    }

    #[test]
    fn a_view_wider_than_a_recorded_verdict_is_asked_about_every_entry_round() {
        // 50^2 with R = 3: the root view lists 150 delegates, more positions
        // than a verdict records, so its entries keep the per-round ask —
        // and the leaf views of 50 record theirs.  Both equal the reference.
        let space = AddressSpace::regular(2, 50).unwrap();
        let subscriptions = (0..2_500u32).map(|i| vec![i / 50 % 7]).collect();
        let topics = Arc::new(TopicOracle::new(space.clone(), subscriptions, 7));
        let membership = Arc::new(DelegateView::bootstrap(50, 2, DelegateViewConfig::default(), 3));
        membership.attach_interest_summaries(topics.subtree_summaries());
        let config = PmcastConfig::default().with_interest_routing(InterestRouting::Summary);
        let group =
            build_pmcast_group(&ImplicitRegularTree::new(space), topics, membership, &config);
        let root_view = &group.processes[0].group.stack(0)[0];
        assert_eq!(root_view.len(), 150);
        assert!(root_view.len() > BufferedGossip::VERDICT_WIDTH);
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(9));
        for (id, publisher) in [(1u64, 0usize), (2, 1_234), (3, 2_499)] {
            let event = Event::builder(id).int(TOPIC_ATTRIBUTE, id as i64).build();
            sim.process_mut(ProcessId(publisher)).pmcast(event);
        }
        pools_checked();
        sim.run_until_quiescent(300);
        assert!(sim.is_quiescent());
        // Subscribers of topic 1 sit in subgroups 1, 8, …, 43: seven of
        // fifty, and the veto kept the event out of the other forty-three.
        let received = sim.processes().filter(|p| p.has_received(EventId(1))).count();
        let delivered = sim.processes().filter(|p| p.has_delivered(EventId(1))).count();
        assert_eq!(delivered, 7 * 50);
        assert!(received < 8 * 50, "{received} processes received a topic of 350");
        // Every entry-round on the way — the root's, asked per round, and
        // the leaves', drawn from a recorded verdict — went through
        // `check_summary_pool`.
        let routed = pools_checked().len();
        assert!(routed > 500, "only {routed} entry-rounds were routed");
    }

    #[test]
    fn groups_of_one_shape_share_one_view_set() {
        let build = || {
            let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
            build_pmcast_group(&small_topology(), oracle, global_view(), &PmcastConfig::default())
        };
        let (a, b) = (build(), build());
        assert!(Arc::ptr_eq(&a.processes[0].group.views, &b.processes[0].group.views));
        // A full tree's addresses are written out by the first borrow of
        // one, for every group sharing the set.
        assert!(format!("{:?}", b.addresses).contains("written: false"));
        let first = a.processes[0].address();
        assert!(format!("{:?}", b.addresses).contains("written: true"));
        assert_eq!(&*b.addresses.address(0), first);
        assert_eq!(a.addresses, small_topology().members());
        // A process reads its address and its stack out of the shared set.
        for (index, process) in a.processes.iter().enumerate() {
            assert_eq!(*process.address(), small_topology().members()[index]);
            assert_eq!(process.space_index(), index as u128);
            let leaf = process.group.stack(process.stack).last().unwrap();
            assert!((0..leaf.len()).any(|at| leaf.target(at) == ProcessId(index)));
        }
    }

    #[test]
    fn an_idle_process_is_small_and_owns_no_heap() {
        // 104 bytes since the received and the delivered identifiers share
        // one window (two sets of four words before) and the buffer entry's
        // mask is two words, so nothing in the slot is 16-aligned; 128 with
        // the two sets, 112 with a heap block for the first buffer entry, 160
        // with an inline address and an `Arc` of the view stack, ≈ 340 with a
        // config clone, four `Arc`s, a `Vec<u32>` address and a scratch per
        // process.
        assert!(
            std::mem::size_of::<PmcastProcess>() <= 104,
            "PmcastProcess grew to {} bytes",
            std::mem::size_of::<PmcastProcess>()
        );
        // Was 48 with a sender in the envelope and a `usize` depth in the
        // gossip: the in-flight buffers now hold two messages a cache line.
        assert_eq!(std::mem::size_of::<pmcast_simnet::Envelope<Gossip>>(), 32);
        let topology = small_topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let idle = &group.processes[5];
        assert!(idle.is_quiescent());
        assert!(idle.ids.is_empty() && idle.ids.delivered_len() == 0);
        assert!(idle.buffers.at_depth(1).is_empty());
        assert_eq!(idle.buffers.block(), None);
        // Every process of the group shares the one context.
        assert_eq!(Rc::strong_count(&idle.group), 16);
    }

    /// A single-event trial's buffers, watched: over a seed-42 8^3 trial
    /// every process the event reaches keeps its one entry in its own slot
    /// through its first receipt, every promotion and the leaf depth's
    /// collection, and owns no buffer heap — a block per first receipt, or
    /// a promotion that files a fresh entry beside the spent one, fails
    /// here.
    #[test]
    fn an_infected_process_of_a_single_event_trial_owns_no_buffer_heap() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 8).unwrap());
        let oracle =
            Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut ChaCha8Rng::seed_from_u64(42)));
        let membership = Arc::new(GlobalOracleView::new(512));
        let group = build_pmcast_group(&topology, oracle, membership, &PmcastConfig::default());
        let network = NetworkConfig::reliable(42).with_loss(0.01);
        let mut sim = Simulation::new(group.processes, network);
        sim.process_mut(ProcessId(0)).pmcast(Event::builder(1).int("b", 1).build());
        let mut buffered = vec![false; 512];
        while !sim.is_quiescent() {
            assert!(sim.round() < 300, "the dissemination never went quiet");
            sim.step();
            for (ever, process) in buffered.iter_mut().zip(sim.processes()) {
                assert!(process.buffers.len() <= 1, "{:?} in round {}", process, sim.round());
                assert_eq!(process.buffers.block(), None, "{process:?} grew a block");
                *ever |= !process.buffers.is_empty();
            }
        }
        // A receipt whose budget is spent at the leaf depth is collected in
        // the round it arrives, so a few reached processes are never seen
        // buffering at a round's end.
        let buffered = buffered.iter().filter(|&&ever| ever).count();
        let reached = sim.processes().filter(|p| p.has_received(EventId(1))).count();
        assert!(buffered <= reached && buffered > 256, "{buffered} of {reached} buffered");
        assert!(sim.processes().all(|p| p.buffers.is_empty() && p.buffers.block().is_none()));
    }

    /// A round walks only the depths a process buffers at: a process of a
    /// 4-deep tree that buffers one event at the leaf depth spends its
    /// buffers once per round, not once per depth, until the event is
    /// collected.
    #[test]
    fn a_process_buffering_only_at_the_leaf_spends_once_per_round() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(4, 3).unwrap());
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let mut processes = group.processes;
        let event = Arc::new(Event::builder(3).int("b", 1).build());
        processes[0].publish(Arc::clone(&event));
        let (mut outbox, mut scratch) = (Vec::new(), FanoutScratch::default());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let leaf = &mut processes[80];
        let mut ctx = RoundContext::external(ProcessId(80), 0, &mut outbox, &mut rng, &mut scratch);
        leaf.on_message(Gossip::new(event.id(), 4, 1.0, 0), &mut ctx);
        assert_eq!(leaf.buffers.shallowest(), Some(4));
        spends();
        let mut rounds = 0;
        while !leaf.is_quiescent() {
            leaf.on_round(&mut ctx);
            rounds += 1;
            assert_eq!(spends(), 1, "round {rounds} walked an empty depth");
        }
        assert!(rounds > 1, "the entry was spent in {rounds} round");
        assert!(!outbox.is_empty());
    }

    /// A gossip naming a depth past its tree is refused where the tree's
    /// depth is known: by the process's view stack, before anything is
    /// buffered.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_depth_panics() {
        let topology = small_topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let depths = group.processes[0].group.stack(0).len();
        let mut processes = group.processes;
        let event = Arc::new(Event::builder(4).int("b", 1).build());
        processes[0].publish(Arc::clone(&event));
        let (mut outbox, mut scratch) = (Vec::new(), FanoutScratch::default());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ctx = RoundContext::external(ProcessId(1), 0, &mut outbox, &mut rng, &mut scratch);
        processes[1].on_message(Gossip::new(event.id(), depths + 1, 1.0, 0), &mut ctx);
    }

    /// Steps one event through a 4^3 group whose links delay messages by up
    /// to two extra rounds and whose process 5 straggles (its sends wait for
    /// every third round), holding after every step that the event has at
    /// most one share per holder — the test's, the group store's and one
    /// per process buffering it — whatever sits in the network, the delay
    /// wheel or the straggler's backlog.
    fn in_flight_messages_hold_no_share<F: ProtocolFactory>() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 4).unwrap());
        let group = F::build(
            &topology,
            Arc::new(UniformOracle),
            Arc::new(GlobalOracleView::new(64)),
            &PmcastConfig::default(),
        );
        let network = NetworkConfig {
            fault_plan: FaultPlan {
                link_delay: Some(LinkDelay {
                    min_extra: 0,
                    max_extra: 2,
                }),
                stragglers: vec![Straggler {
                    process: 5,
                    period: 3,
                }],
                ..FaultPlan::default()
            },
            ..NetworkConfig::reliable(21)
        };
        let mut sim = Simulation::new(group.processes, network);
        let event = Arc::new(Event::builder(8).int("b", 1).build());
        sim.process_mut(ProcessId(0)).publish(Arc::clone(&event));
        let mut most_in_flight = 0;
        while !sim.is_quiescent() {
            assert!(sim.round() < 300, "the dissemination never went quiet");
            sim.step();
            // With one event, a process buffers it exactly while it is not
            // quiescent.
            let buffering = sim.processes().filter(|p| !p.is_quiescent()).count();
            let stats = sim.stats();
            let in_flight = stats.messages_sent - stats.messages_delivered;
            most_in_flight = most_in_flight.max(in_flight);
            assert!(
                Arc::strong_count(&event) <= 2 + buffering,
                "round {}: {} shares, {buffering} processes buffering, {in_flight} in flight",
                sim.round(),
                Arc::strong_count(&event)
            );
        }
        assert!(sim.stats().messages_delayed > 0 && most_in_flight > 0);
        assert!(sim.processes().all(|p| p.has_delivered(event.id())));
        assert_eq!(Arc::strong_count(&event), 2, "the test's and the store's");
        drop(sim);
        assert_eq!(Arc::strong_count(&event), 1);
    }

    /// A pmcast process with its receipt keys withheld: the engine hands it
    /// every gossip, duplicates included, as it did before it screened any.
    struct Unscreened(PmcastProcess);

    impl RoundProcess for Unscreened {
        type Message = Gossip;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
            self.0.on_round(ctx);
        }

        fn on_message(&mut self, gossip: Gossip, ctx: &mut RoundContext<'_, Gossip>) {
            self.0.on_message(gossip, ctx);
        }

        fn is_quiescent(&self) -> bool {
            self.0.is_quiescent()
        }
    }

    /// What a process holds, as its `Debug` output spells it in full.
    fn full_state(process: &PmcastProcess) -> String {
        format!("{:?} {:?}", process.buffers, process.ids)
    }

    /// Runs one trial twice in lockstep, through the engine's receipt screen
    /// and through [`Unscreened`], each on a group of its own from `build`
    /// (and its delegate tables, stepped a membership round before every
    /// step), publishing `events[r]` from process `r * 37 % n` in round `r`;
    /// after every step the two hold equal process states, traffic and
    /// receipt and delivery deltas.  Returns how many handed-over messages
    /// were not first deliveries, so a caller can see the screen had work.
    fn screened_like_unscreened(
        build: impl Fn() -> (ProtocolGroup<PmcastProcess>, Option<Arc<DelegateView>>),
        network: NetworkConfig,
        events: &[Event],
    ) -> u64 {
        let ((group, tables), (reference, reference_tables)) = (build(), build());
        let count = group.processes.len();
        let mut screened = Simulation::new(group.processes, network.clone());
        let reference = reference.processes.into_iter().map(Unscreened).collect();
        let mut unscreened = Simulation::new(reference, network);
        let mut deliveries = 0;
        for round in 0..300 {
            if let Some(event) = events.get(round) {
                let publisher = ProcessId(round * 37 % count);
                screened.process_mut(publisher).pmcast(event.clone());
                unscreened.process_mut(publisher).0.pmcast(event.clone());
            }
            for tables in tables.iter().chain(&reference_tables) {
                tables.round_elapsed();
            }
            screened.step();
            unscreened.step();
            let states: Vec<String> = screened.processes().map(full_state).collect();
            let reference: Vec<String> = unscreened.processes().map(|p| full_state(&p.0)).collect();
            assert!(states == reference, "process states differ after round {round}");
            assert_eq!(screened.stats(), unscreened.stats(), "after round {round}");
            assert_eq!(screened.last_step_receivers(), unscreened.last_step_receivers());
            assert_eq!(screened.last_step_deliveries(), unscreened.last_step_deliveries());
            deliveries += screened.last_step_deliveries().len() as u64;
            if round >= events.len() && screened.is_quiescent() {
                assert!(unscreened.is_quiescent());
                return screened.stats().messages_delivered - deliveries;
            }
        }
        panic!("the dissemination never went quiet");
    }

    #[test]
    fn a_screened_8_cubed_trial_runs_like_the_unscreened_one() {
        let build = || {
            let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 8).unwrap());
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
            let membership = Arc::new(GlobalOracleView::new(512));
            (build_pmcast_group(&topology, oracle, membership, &PmcastConfig::default()), None)
        };
        let events: Vec<Event> = (1..5).map(|id| Event::builder(id).int("b", 1).build()).collect();
        let network = NetworkConfig::reliable(42).with_loss(0.05);
        let repeats = screened_like_unscreened(build, network, &events);
        assert!(repeats > 1_000, "only {repeats} repeats");
    }

    #[test]
    fn a_screened_lossy_topic_trial_runs_like_the_unscreened_one() {
        let build = || {
            let (group, tables) = summary_routed_topic_group();
            (group, Some(tables))
        };
        let events = topic_events(&[0, 5, 1, 5, 2, 3, 4, 0, 5, 1]);
        let network = NetworkConfig::reliable(7).with_loss(0.2);
        let repeats = screened_like_unscreened(build, network, &events);
        assert!(repeats > 100, "only {repeats} repeats");
    }

    #[test]
    fn an_in_flight_message_holds_no_share_of_its_event() {
        in_flight_messages_hold_no_share::<crate::PmcastFactory>();
        in_flight_messages_hold_no_share::<crate::FloodFactory>();
        in_flight_messages_hold_no_share::<crate::GenuineFactory>();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "published twice with different content")]
    fn redundant_publishers_must_publish_one_event() {
        let topology = small_topology();
        let group =
            build_pmcast_group(&topology, Arc::new(UniformOracle), global_view(), &PmcastConfig::default());
        let mut processes = group.processes.into_iter();
        processes.next().unwrap().pmcast(Event::builder(7).int("b", 1).build());
        // The same event from a second publisher is a redundant publication…
        processes.next().unwrap().pmcast(Event::builder(7).int("b", 1).build());
        // …another content under its id is not.
        processes.next().unwrap().pmcast(Event::builder(7).int("b", 2).build());
    }

    #[test]
    fn duplicate_publish_is_ignored() {
        let topology = small_topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle);
        let group = build_pmcast_group(&topology, oracle, global_view(), &PmcastConfig::default());
        let mut process = group.processes.into_iter().next().unwrap();
        let event = Arc::new(Event::builder(12).int("b", 3).build());
        let event_id = event.id();
        process.publish(Arc::clone(&event));
        let buffered = process.buffers.len();
        process.publish(event);
        assert_eq!(process.buffers.len(), buffered);
        assert!(process.has_delivered(event_id));
        assert_eq!(process.ids.delivered_len(), 1);
    }

    #[test]
    fn deterministic_given_equal_seeds() {
        let run = |seed: u64| {
            let oracle = Arc::new(AssignmentOracle::sample(
                &small_topology(),
                0.5,
                &mut ChaCha8Rng::seed_from_u64(7),
            ));
            let event = Event::builder(1).build();
            let (processes, stats) = run_multicast(
                oracle,
                PmcastConfig::default(),
                NetworkConfig::default().with_loss(0.1).with_seed(seed),
                event.clone(),
                0,
            );
            let delivered = processes.iter().filter(|p| p.has_delivered(event.id())).count();
            (delivered, stats.messages_sent)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn shared_payload_gossip_preserves_delivery_and_spurious_counts() {
        // The zero-copy hot path must be behaviour-preserving: on a small
        // group with a known interest assignment, delivery and spurious
        // reception come out exactly as the protocol semantics dictate.
        let interested: Vec<Address> = ["0.0", "0.1", "1.0", "1.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let oracle = Arc::new(AssignmentOracle::new(small_topology().space().clone(), interested.clone()));
        let event = Event::builder(55).int("b", 9).str("e", "Bob").build();
        let (processes, _) = run_multicast(
            oracle.clone(),
            PmcastConfig::default(),
            NetworkConfig::reliable(13),
            event.clone(),
            0,
        );
        let report = MulticastReport::collect(&event, &processes, oracle.as_ref());
        // Every interested process delivers on a reliable network …
        assert_eq!(report.interested, 4);
        assert_eq!(report.delivered_interested, 4);
        // … nobody delivers without interest …
        for p in &processes {
            assert_eq!(
                p.has_delivered(event.id()),
                oracle.is_interested(p.space_index(), &event)
            );
        }
        // … and a delivering process recorded exactly this one delivery.
        for p in processes.iter().filter(|p| p.has_delivered(event.id())) {
            assert_eq!(p.ids.delivered_len(), 1);
        }
        // Spurious reception stays bounded to delegates of interested
        // subtrees, exactly as the pre-Arc protocol behaved.
        assert!(report.received_uninterested <= 4);
    }
}
