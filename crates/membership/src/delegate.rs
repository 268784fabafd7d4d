//! The paper's Section 2 view-table maintenance as a membership provider:
//! a [`DelegateView`] keeps each process's membership knowledge **structured
//! by the tree coordinates** of the `pmcast` address space instead of as one
//! flat bounded list.
//!
//! ## Why a third provider
//!
//! The flat [`PartialView`](crate::PartialView) models lpbcast: a bounded
//! *uniform random* sample of the group.  pmcast, however, gossips through
//! the **delegates** of its per-depth views — the `R` smallest-address
//! processes of every sibling subgroup — and at paper scale (`n ≈ 10 648`,
//! views of a few hundred entries) those specific processes are almost never
//! inside a small random sample, so pmcast's reliability collapses (see
//! `examples/partial_view_sweep.rs`).  Section 2 of the paper never
//! maintains a flat sample in the first place: a process's view *is* the
//! hierarchy — per depth `i`, one slot group per sibling subgroup, holding
//! that subgroup's delegates.  `DelegateView` reproduces exactly that
//! shape:
//!
//! * **Per-depth delegate slots.**  For every depth `l ∈ 1..d` a process
//!   keeps, for each of the `a` subgroups sharing its depth-`(l−1)` prefix,
//!   up to [`DelegateViewConfig::slots`] delegate entries — the smallest
//!   known-live members of that subgroup, mirroring the paper's
//!   smallest-address delegate election.  At the leaf depth it keeps its
//!   `a − 1` subgroup neighbours.  Total view size is
//!   `(d−1)·a·slots + a ∈ O(d·R·n^{1/d})` (Equation 2), **not** `n`.
//! * **Bootstrap = the join handoff.**  A joining process receives its view
//!   table from a delegate of each subgroup along its path (Section 2.3);
//!   the simulation collapses that handshake into a fully populated
//!   bootstrap, so at round zero every slot holds the subgroup's current
//!   delegates — the same processes
//!   [`SharedViews`](../../pmcast_core/struct.SharedViews.html) elects,
//!   whenever `slots ≥ R`.
//! * **Gossip piggybacks delegate tables per subtree.**  Once per
//!   simulation round every live process contacts
//!   [`DelegateViewConfig::gossip_fanout`] known peers and pushes its own
//!   subscription plus a random [`DelegateViewConfig::digest_size`]-entry
//!   digest of its view; the receiver files each candidate into the slot
//!   groups of **every depth at which the candidate qualifies** (a peer
//!   sharing a length-`k` prefix is a candidate for depths `1..=k+1`).
//! * **Eviction keeps delegates, not randomness.**  A slot group only
//!   overflows when a *smaller* live candidate arrives, in which case the
//!   largest entry is evicted — so each group deterministically converges to
//!   the `slots` smallest live members of its subgroup, which is precisely
//!   the paper's re-election rule.  Slot entries are **monitored** like
//!   delegates in Section 2.3: a crash is swept from every table within one
//!   membership round (unlike the deliberately lazy failure detection of
//!   [`PartialView`](crate::PartialView)), and the sweep immediately
//!   re-elects replacements from the already-gossiped candidates in the
//!   evictor's view, keeping at least one live delegate per occupied
//!   subtree whenever one is known.
//! * **Pinned ring contact as the connectivity fallback.**  Exactly as in
//!   [`PartialView`](crate::PartialView), every process pins its live ring
//!   successor (monitored, never evicted), so the live overlay stays
//!   connected even through churn that empties slot groups — gossip can
//!   always route candidates back in.
//!
//! ## Determinism
//!
//! All randomness (gossip target picks, digest sampling) flows from the
//! seed the view was constructed with — for simulation trials, the same
//! per-trial membership stream [`PartialView`](crate::PartialView) uses
//! (rule 3 of the seed contract in `pmcast-sim`'s runner docs), so parallel
//! Monte-Carlo trials stay bit-identical to sequential ones.  Slot
//! admission and eviction are fully deterministic (smallest-address order)
//! and consume no randomness at all.
//!
//! ## Rounds cost what changed: a table is stored only while it may differ
//!
//! The tables are *maintained*: once a slot group holds the smallest live
//! members of its subgroup, nothing gossip can bring displaces them.  That
//! converged answer — the first `capacity` live members of each subgroup
//! other than the process itself, and nobody for an absent process — is the
//! *seat rule*, and the provider stores a process's table only while it may
//! differ from it.  A table that is not stored *is* the seat rule over the
//! current liveness.  Filing a live candidate into it is provably a no-op (a
//! seated candidate is found; any other is larger than a full group's last
//! entry), so a round skips it, and debug builds assert that a table that is
//! not stored is never written.
//!
//! * A table is stored, as the seat rule answers it, just before anything
//!   can change it: a change to the table itself, to the process's own
//!   liveness, or to the liveness of a peer it seats.  So a join, leave or
//!   crash of `x` stores `x`'s table and those of the live processes seating
//!   `x`, whom the prefix count of the liveness names in `O(1)` per depth.
//!   Nobody else's answer moves.
//! * Every round (and inspection hook) compares the stored tables of the
//!   live processes — the *unsettled* ones — with the seat rule and drops
//!   each one that equals it again.  After a churn burst the group returns
//!   to storing only the tables of the crashed as gossip refills the seats,
//!   instead of paying the full round forever.
//! * The picks are still drawn while anybody is unsettled — whom a sender
//!   targets decides which unsettled table learns what.  When every live
//!   process is settled the draws are the round's only effect: `live ·
//!   gossip_fanout · (1 + digest_size)` integer `gen_range`s of one
//!   `next_u64` each, so the stream is **seeked** past them
//!   (`get_word_pos`/`set_word_pos`) and the round is `O(1)`.  The stream
//!   position after the round — and with it every later churn outcome — is
//!   bit-identical to drawing them.
//!
//! ## Rows are built on first need
//!
//! Until somebody joins, leaves or crashes, nothing is stored but the
//! liveness flags and a prefix count of them, and the seat test behind
//! [`knows_at_depth`](MembershipView::knows_at_depth) /
//! [`fill_known_or_whole`](MembershipView::fill_known_or_whole) is `O(1)`
//! per peer: `peer` is seated iff it is alive and fewer than `capacity`
//! alive members of its subgroup other than the asking process precede it.
//! Every flip keeps the prefix count current, so the same test answers
//! every table that is not stored, before and after the first flip.  A
//! static trial therefore costs `O(n)` bytes (plus one bit per depth view
//! id: see below), not `O(n·a·d·slots)`, and its rounds are the all-settled
//! seek.  The first call that needs the flat rows — a lifecycle observation
//! that actually flips somebody, or the flat enumeration
//! ([`peer_count`](MembershipView::peer_count) /
//! [`peer_at`](MembershipView::peer_at), the contact inspection hook) —
//! builds every process's flat view and pinned contact from the
//! still-unflipped flags (the first unsettled round indexes every live
//! sender's flat view in pick order, so there is nothing to gain from
//! building fewer).  It stores no table.  [`DelegateView::has_tables`]
//! tells the two apart.
//!
//! `crates/membership/tests/prop_membership.rs` steps an instance with its
//! flat rows built at bootstrap and one without beside the full round loop
//! with every table stored, and asserts tables, flat views, contacts and
//! stream position equal after every step.
//!
//! ## One answer per depth view
//!
//! While nobody has flipped, the seat rule reads the asking process only to
//! discount it from its *own* sibling subgroup, and discounting yourself
//! only ever seats more.  So a depth view whose every peer a holder outside
//! the peer's subgroup seats — each alive and among the first `capacity`
//! alive members of its subgroup, which is how pmcast elects its delegates
//! whenever `slots ≥ R` — is one answer for every live holder: the whole
//! view but the asker.  When pmcast names the view
//! ([`fill_known_or_whole`](MembershipView::fill_known_or_whole)), the
//! provider lists it on the spot under the read lock, peer by peer as the
//! single probe answers, and judges in the same pass whether every peer
//! lies under the asker's view prefix and is seated by such an outsider.  If
//! so, it answers "whole", writes nothing and sets the view id's bit in a
//! bitset outside the lock, beside the bootstrap occupancy (an absent
//! process seats nobody), and every later ask by a live holder is answered
//! from the two bits: no lock, no search, nothing written.  Every bit is
//! cleared under the write lock before the flat rows are built, so a set
//! bit means nobody has flipped since bootstrap and the bootstrap occupancy
//! is the liveness.  Debug and test builds hold every whole answer read off
//! a bit against the judgement on the spot.
//!
//! `DelegateView` implements the whole [`MembershipView`] contract: the
//! flat [`peer_count`](MembershipView::peer_count) /
//! [`peer_at`](MembershipView::peer_at) enumeration (used by the flooding
//! and genuine baselines) walks the deduplicated union of all slot entries
//! plus the pinned contact, while
//! [`knows_at_depth`](MembershipView::knows_at_depth) — the question the
//! pmcast fanout draw asks — resolves in `O(slots)` straight from the slot
//! group of the queried depth (`O(1)` from the seat rule for a table that
//! is not stored), and
//! [`fill_known_or_whole`](MembershipView::fill_known_or_whole) answers it
//! for a whole view under one lock, or with no lock at all once the view
//! is judged seated whole.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use pmcast_addr::Prefix;
use pmcast_interest::Event;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::population::{ring_predecessor, ring_successor};
use crate::provider::MembershipView;
use crate::summaries::InterestAnnex;
use crate::SubtreeSummaries;

/// Sentinel marking an unoccupied delegate slot.  `u32::MAX` sorts after
/// every valid index, so a slot group is simply kept sorted ascending.
const EMPTY: u32 = u32::MAX;

/// Parameters of the [`DelegateView`] hierarchical membership layer.
///
/// # Examples
///
/// ```rust
/// use pmcast_membership::DelegateViewConfig;
///
/// let config = DelegateViewConfig::default().with_slots(3);
/// // A 22-ary depth-3 tree (the paper-scale group, n = 10 648) needs only
/// // (3 − 1) · 22 · 3 + 22 = 154 view entries per process.
/// assert_eq!(config.table_entries(22, 3), 154);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegateViewConfig {
    /// Delegate slots per subgroup per depth — the membership-side mirror of
    /// the protocol's redundancy factor `R`; keep `slots ≥ R` so every
    /// delegate the dissemination layer elects is representable.
    pub slots: usize,
    /// Number of known peers each process contacts per membership round.
    pub gossip_fanout: usize,
    /// Number of view entries piggybacked on each contact (besides the
    /// sender's own subscription).
    pub digest_size: usize,
}

impl Default for DelegateViewConfig {
    fn default() -> Self {
        Self {
            slots: 3,
            gossip_fanout: 3,
            digest_size: 4,
        }
    }
}

impl DelegateViewConfig {
    /// Sets the per-subgroup delegate slot count, returning the config for
    /// chaining.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// The bounded per-process view size this configuration yields on a
    /// regular `arity^depth` tree: `(d−1)·a·slots + a` (Equation 2 of the
    /// paper), the hierarchical counterpart of `PartialViewConfig::view_size`.
    pub fn table_entries(&self, arity: u32, depth: usize) -> usize {
        let a = arity as usize;
        depth.saturating_sub(1) * a * self.slots + a
    }
}

/// Dense-index arithmetic over a regular `arity^depth` tree.
///
/// Dense identifiers enumerate addresses in lexicographic order, so index
/// `i`'s address components are simply its base-`arity` digits, most
/// significant first — every tree coordinate a view table needs is computed,
/// never stored.
#[derive(Debug, Clone)]
struct TreeShape {
    arity: usize,
    depth: usize,
    /// `pows[k] = arity^k`, `k ∈ 0..=depth`.
    pows: Vec<usize>,
    slots: usize,
}

impl TreeShape {
    fn new(arity: usize, depth: usize, slots: usize) -> Self {
        let mut pows = Vec::with_capacity(depth + 1);
        let mut p = 1usize;
        for _ in 0..=depth {
            pows.push(p);
            p = p.checked_mul(arity).expect("group size overflows usize");
        }
        Self {
            arity,
            depth,
            pows,
            slots,
        }
    }

    fn member_count(&self) -> usize {
        self.pows[self.depth]
    }

    /// The `k`-th address component (0-based, most significant first) of
    /// dense index `i`.
    fn digit(&self, i: usize, k: usize) -> usize {
        (i / self.pows[self.depth - 1 - k]) % self.arity
    }

    /// Number of leading address components `p` and `q` share.
    fn common_prefix(&self, p: usize, q: usize) -> usize {
        (0..self.depth)
            .take_while(|&k| self.digit(p, k) == self.digit(q, k))
            .count()
    }

    /// Total slots in one process's table: `(d−1)·a·slots` inner entries
    /// plus `a` leaf-neighbour entries.
    fn table_len(&self) -> usize {
        (self.depth - 1) * self.arity * self.slots + self.arity
    }

    /// Slot range of the depth-`l` group for sibling component `g`
    /// (`l ∈ 1..=depth`; the leaf depth has one slot per component).
    fn group_range(&self, l: usize, g: usize) -> Range<usize> {
        if l == self.depth {
            let start = (self.depth - 1) * self.arity * self.slots + g;
            start..start + 1
        } else {
            let start = ((l - 1) * self.arity + g) * self.slots;
            start..start + self.slots
        }
    }

    /// First dense index of the depth-`l` sibling subgroup `g` of process
    /// `q` (the subgroup `q.prefix(l−1) · g`).
    fn subgroup_base(&self, q: usize, l: usize, g: usize) -> usize {
        self.view_block(q, l).0 + g * self.pows[self.depth - l]
    }

    /// Number of processes in any depth-`l` subgroup.
    fn subgroup_size(&self, l: usize) -> usize {
        self.pows[self.depth - l]
    }

    /// Capacity of one depth-`l` slot group (inner groups hold `slots`
    /// delegates, the leaf level one sibling per component).
    fn group_capacity(&self, l: usize) -> usize {
        if l == self.depth {
            1
        } else {
            self.slots
        }
    }

    /// Every slot group of `q`'s table as `(l, slots, subgroup base)`, in
    /// table order.
    fn groups(&self, q: usize) -> impl Iterator<Item = (usize, Range<usize>, usize)> + '_ {
        (1..=self.depth).flat_map(move |l| {
            (0..self.arity).map(move |g| (l, self.group_range(l, g), self.subgroup_base(q, l, g)))
        })
    }

    /// First dense index and size of the block of processes sharing `q`'s
    /// depth-`(l−1)` prefix: the processes whose depth-`l` view covers the
    /// same `arity` sibling subgroups as `q`'s.
    fn view_block(&self, q: usize, l: usize) -> (usize, usize) {
        let span = self.pows[self.depth - l + 1];
        ((q / span) * span, span)
    }
}

/// The depth views every live holder knows whole, read without the state
/// lock (the module docs' *one answer per depth view*): bit `id` of `views`
/// is set once a named ask judges every peer of the view seated by a holder
/// outside the peer's subgroup, and every bit is cleared before the flat
/// rows are built.  A set bit therefore means nobody has flipped since
/// bootstrap, so `occupied` — the bootstrap occupancy — is who is alive.
#[derive(Debug)]
struct WholeViews {
    depth: usize,
    /// One bit per view id below the member count.  Set under the state's
    /// read lock and cleared under its write lock, both with `Release`, and
    /// read with `Acquire` without the lock; a bit publishes nothing else
    /// (`occupied` never changes).
    views: Box<[AtomicU64]>,
    /// One bit per process.
    occupied: Box<[u64]>,
}

impl WholeViews {
    fn new(depth: usize, occupied: &[bool]) -> Self {
        let word = |members: &[bool]| members.iter().rev().fold(0, |word, &member| word << 1 | u64::from(member));
        Self {
            depth,
            views: occupied.chunks(64).map(|_| AtomicU64::new(0)).collect(),
            occupied: occupied.chunks(64).map(word).collect(),
        }
    }

    /// Whether `of` knows the depth-`depth` view `view` whole.
    fn hold(&self, of: usize, depth: usize, view: u32) -> bool {
        let view = view as usize;
        let bit = |word: u64, index: usize| word >> (index % 64) & 1 == 1;
        let listed = self.views.get(view / 64).map(|word| word.load(Ordering::Acquire));
        listed.is_some_and(|word| bit(word, view))
            && self.occupied.get(of / 64).is_some_and(|&word| bit(word, of))
            && (1..=self.depth).contains(&depth)
    }

    /// Marks `view` whole; under the state's read lock, while the flat rows
    /// are not built.
    fn set(&self, view: usize) {
        self.views[view / 64].fetch_or(1 << (view % 64), Ordering::Release);
    }

    /// Forgets every whole view; under the state's write lock, before the
    /// flat rows are built.
    fn clear(&self) {
        for word in &self.views {
            word.store(0, Ordering::Release);
        }
    }
}

/// Mutable provider state behind one lock: liveness and its prefix count,
/// the per-process slot tables that may differ from the seat rule, the flat
/// (deduplicated) peer enumerations, pinned contacts and the
/// provider-private PRNG stream.  `tables`, `flat` and `contact` are empty
/// until [`build_rows`](Self::build_rows) (the module docs' *rows are built
/// on first need*).
#[derive(Debug)]
struct DelegateState {
    shape: TreeShape,
    /// `below[i]` is the number of alive members with an index below `i`
    /// (`n + 1` entries), kept current by every [`flip`](Self::flip).
    below: Vec<u32>,
    /// `tables[q]` is the fixed-layout slot table of `q` (see
    /// [`TreeShape::group_range`]) while it may differ from the seat rule;
    /// inner groups are sorted ascending with [`EMPTY`] sentinels at the
    /// end.  `None` is the seat rule itself (see [`seated`](Self::seated)).
    tables: Vec<Option<Box<[u32]>>>,
    /// `flat[q]` is the dense peer enumeration backing `peer_count` /
    /// `peer_at`: the deduplicated union of `q`'s slot entries plus its
    /// pinned contact.  After the crash sweep it names live processes only
    /// (a leave is evicted eagerly, a crash by the sweep).
    flat: Vec<Vec<u32>>,
    /// `contact[q]` is `q`'s pinned live ring successor (monitored, never
    /// evicted) — the connectivity fallback.
    contact: Vec<u32>,
    alive: Vec<bool>,
    live: usize,
    /// Crashes observed since the last membership round, awaiting the
    /// monitored-delegate sweep.
    pending_dead: Vec<u32>,
    /// The live processes that hold a stored table, each once: what a
    /// membership round still gossips for.
    unsettled: Vec<u32>,
    rng: ChaCha8Rng,
}

impl DelegateState {
    /// Whether the flat rows are stored (see
    /// [`build_rows`](Self::build_rows)).
    fn has_rows(&self) -> bool {
        !self.flat.is_empty()
    }

    /// `q`'s stored table, if it may differ from the seat rule.
    fn stored(&self, q: usize) -> Option<&[u32]> {
        self.tables.get(q).and_then(Option::as_deref)
    }

    /// The seat rule for a table that is not stored: whether live `of`
    /// seats `peer` in its depth-`l` slot group for the subgroup starting
    /// at `base` — `peer` is alive and fewer than the group's capacity of
    /// alive subgroup members other than `of` precede it.
    fn seats(&self, of: usize, l: usize, base: usize, peer: usize) -> bool {
        let preceding = (self.below[peer] - self.below[base]) as usize;
        self.alive[peer]
            && preceding - usize::from(base <= of && of < peer) < self.shape.group_capacity(l)
    }

    /// The seat rule listed: whom `of` seats in its depth-`l` slot group
    /// for the subgroup starting at `base`, ascending — the first
    /// `capacity` alive members other than `of`, and nobody for an absent
    /// `of`.
    fn seated(&self, of: usize, l: usize, base: usize) -> impl Iterator<Item = u32> + '_ {
        let size = if self.alive[of] { self.shape.subgroup_size(l) } else { 0 };
        (base..base + size)
            .filter(move |&member| member != of && self.alive[member])
            .take(self.shape.group_capacity(l))
            .map(|member| member as u32)
    }

    /// Builds every process's flat view and pinned contact, once: the join
    /// handoff over the still-unflipped liveness flags.  Every table stays
    /// the seat rule, so none is stored.  The `whole` views, which hold
    /// only while nobody has flipped, are forgotten first.  Consumes no
    /// randomness.
    fn build_rows(&mut self, whole: &WholeViews) {
        if self.has_rows() {
            return;
        }
        whole.clear();
        let n = self.alive.len();
        // With nobody else occupied, the contact is the plain successor.
        let next_occupied = |q: usize| ring_successor(&self.alive, q).unwrap_or((q + 1) % n) as u32;
        let mut flat = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for q in 0..n {
            let mut known: Vec<u32> = Vec::new();
            if self.alive[q] {
                for (l, _, base) in self.shape.groups(q) {
                    for member in self.seated(q, l, base) {
                        if !std::mem::replace(&mut seen[member as usize], true) {
                            known.push(member);
                        }
                    }
                }
                let contact = next_occupied(q);
                if self.live > 1 && !seen[contact as usize] {
                    known.push(contact);
                }
                for &member in &known {
                    seen[member as usize] = false;
                }
            }
            flat.push(known);
        }
        self.contact = (0..n).map(next_occupied).collect();
        self.flat = flat;
        self.tables = vec![None; n];
    }

    /// [`MembershipView::knows_at_depth`] asked of every peer, one division
    /// per peer: the peer's sibling component picks the slot group, the
    /// stored group is scanned — or the seat rule answers from the prefix
    /// count.  Each known position goes to `known`, ascending.
    fn fill_known(
        &self,
        of: usize,
        depth: usize,
        peers: &mut dyn Iterator<Item = usize>,
        mut known: impl FnMut(usize),
    ) {
        let shape = &self.shape;
        let table = self.stored(of);
        if table.is_none() && !self.alive[of] {
            return; // an absent process seats nobody
        }
        let size = shape.subgroup_size(depth);
        let (block, span) = shape.view_block(of, depth);
        for (position, peer) in peers.enumerate() {
            if peer == of || peer.wrapping_sub(block) >= span {
                continue; // itself, or not under the shared prefix of this view depth
            }
            let g = (peer - block) / size;
            let seated = match table {
                Some(table) => table[shape.group_range(depth, g)].contains(&(peer as u32)),
                None => self.seats(of, depth, block + g * size, peer),
            };
            if seated {
                known(position);
            }
        }
    }

    /// Stores `q`'s table as the seat rule answers it, unless it is stored
    /// already: just before something can change it.
    fn store(&mut self, q: usize) {
        if self.tables[q].is_some() {
            return;
        }
        let mut table = vec![EMPTY; self.shape.table_len()].into_boxed_slice();
        for (l, range, base) in self.shape.groups(q) {
            for (slot, member) in table[range].iter_mut().zip(self.seated(q, l, base)) {
                *slot = member;
            }
        }
        self.tables[q] = Some(table);
        if self.alive[q] {
            self.unsettled.push(q as u32);
        }
    }

    /// Stores the table of every live process but `x` whose seat rule seats
    /// `x` as if it were alive — exactly the seat rules a join, leave or
    /// crash of `x` changes.  Everybody else's first-`capacity` members are
    /// the same with and without `x`.
    fn store_seats_of(&mut self, x: usize) {
        for l in 1..=self.shape.depth {
            let capacity = self.shape.group_capacity(l);
            let base = self.shape.subgroup_base(x, l, self.shape.digit(x, l - 1));
            // `q` seats `x` iff fewer than `capacity` live members of the
            // subgroup other than `q` precede `x`.
            let preceding = (self.below[x] - self.below[base]) as usize;
            let seating = match preceding.cmp(&capacity) {
                // Everybody whose depth-`l` view covers the subgroup.
                std::cmp::Ordering::Less => {
                    let (block, span) = self.shape.view_block(x, l);
                    block..block + span
                }
                // Only the preceding members themselves, who do not count
                // in their own view.
                std::cmp::Ordering::Equal => base..x,
                std::cmp::Ordering::Greater => continue,
            };
            for q in seating {
                if q != x && self.alive[q] {
                    self.store(q);
                }
            }
        }
    }

    /// Joins a dead `x` or removes a live one, storing first every table
    /// the flip can change: `x`'s own and those seating `x`.
    fn flip(&mut self, x: usize) {
        self.store(x);
        self.store_seats_of(x);
        let alive = !self.alive[x];
        self.alive[x] = alive;
        let step = |count: &mut u32| *count = if alive { *count + 1 } else { *count - 1 };
        self.below[x + 1..].iter_mut().for_each(step);
        if alive {
            self.live += 1;
            self.unsettled.push(x as u32);
        } else {
            self.live -= 1;
            self.unsettled.retain(|&q| q as usize != x);
        }
    }

    /// Whether `q`'s table equals the seat rule.
    fn is_converged(&self, q: usize) -> bool {
        let Some(table) = self.stored(q) else {
            return true;
        };
        self.shape.groups(q).all(|(l, range, base)| {
            let mut seats = self.seated(q, l, base);
            table[range].iter().all(|&seated| seated == seats.next().unwrap_or(EMPTY))
        })
    }

    /// Drops every stored table of a live process that equals the seat rule
    /// again.  Consumes no randomness and decides nothing a round could
    /// observe — a settled table's pushes are no-ops whether or not they
    /// are skipped — so *when* this runs is immaterial.
    fn certify(&mut self) {
        let mut unsettled = std::mem::take(&mut self.unsettled);
        unsettled.retain(|&q| {
            let converged = self.is_converged(q as usize);
            if converged {
                self.tables[q as usize] = None;
            }
            !converged
        });
        self.unsettled = unsettled;
    }

    /// Whether filing `peer` into `q`'s depth-`l` group, as the seat rule
    /// answers it, changes nothing: the peer is seated already, or the
    /// group is full of smaller members.
    fn files_nothing(&self, q: usize, l: usize, peer: usize) -> bool {
        let base = self.shape.subgroup_base(q, l, self.shape.digit(peer, l - 1));
        let (seated, last, found) = self.seated(q, l, base).fold((0, 0, false), |(seated, _, found), member| {
            (seated + 1, member as usize, found || member as usize == peer)
        });
        found || (seated == self.shape.group_capacity(l) && last < peer)
    }

    /// Drops `peer` from `q`'s flat enumeration unless a slot of `q`'s
    /// stored table or its pinned contact still references it.
    fn maybe_drop_from_flat(&mut self, q: usize, peer: usize) {
        let table = self.stored(q).expect("an eviction writes a stored table");
        let deepest = (self.shape.common_prefix(q, peer) + 1).min(self.shape.depth);
        let seated = (1..=deepest).any(|l| {
            let g = self.shape.digit(peer, l - 1);
            table[self.shape.group_range(l, g)].contains(&(peer as u32))
        });
        if seated || self.contact[q] as usize == peer {
            return;
        }
        if let Some(pos) = self.flat[q].iter().position(|&e| e as usize == peer) {
            self.flat[q].swap_remove(pos);
        }
    }

    /// Files `peer` into the depth-`l` slot group it belongs to in `q`'s
    /// table.  The group holds the `slots` smallest known-live members of
    /// the subgroup: a smaller candidate evicts the largest entry (the
    /// deterministic smallest-address re-election of Section 2).  Returns
    /// `true` if the table changed; a table that is not stored is the seat
    /// rule, which no live candidate changes.
    fn admit_at_level(&mut self, q: usize, l: usize, peer: usize) -> bool {
        let range = self.shape.group_range(l, self.shape.digit(peer, l - 1));
        let Some(table) = self.tables[q].as_deref_mut() else {
            debug_assert!(self.files_nothing(q, l, peer), "a table that is not stored is never written");
            return false;
        };
        let group = &mut table[range];
        let peer = peer as u32;
        if group.contains(&peer) {
            return false;
        }
        let last = group.len() - 1;
        let evicted = group[last];
        if peer >= evicted {
            return false; // group is full of smaller (or equal) entries
        }
        // Insert in sorted position, shifting the tail out.
        let pos = group.partition_point(|&e| e < peer);
        group[pos..].rotate_right(1);
        group[pos] = peer;
        if evicted != EMPTY {
            self.maybe_drop_from_flat(q, evicted as usize);
        }
        true
    }

    /// Admits `peer` into `q`'s view: every slot group it qualifies for
    /// (depths `1..=cp+1`), plus the flat enumeration if any slot took it.
    fn admit_peer(&mut self, q: usize, peer: usize) {
        if q == peer {
            return;
        }
        let cp = self.shape.common_prefix(q, peer);
        let deepest = (cp + 1).min(self.shape.depth);
        let mut admitted = false;
        for l in 1..=deepest {
            admitted |= self.admit_at_level(q, l, peer);
        }
        if admitted && !self.flat[q].contains(&(peer as u32)) {
            self.flat[q].push(peer as u32);
        }
    }

    /// Removes the dead `x` from every slot group of `q`'s table,
    /// re-electing replacements from the candidates already gossiped into
    /// `q`'s flat view so every occupied subtree keeps a live delegate if
    /// one is known.  A table that is not stored is the seat rule, which
    /// seats no dead process.
    fn evict_from_table(&mut self, q: usize, x: usize) {
        let cp = self.shape.common_prefix(q, x);
        let deepest = (cp + 1).min(self.shape.depth);
        for l in 1..=deepest {
            let g = self.shape.digit(x, l - 1);
            let range = self.shape.group_range(l, g);
            let Some(group) = self.tables[q].as_deref_mut().map(|table| &mut table[range]) else {
                return;
            };
            let Some(pos) = group.iter().position(|&e| e as usize == x) else {
                continue;
            };
            group[pos..].rotate_left(1);
            let last = group.len() - 1;
            group[last] = EMPTY;
            if l == self.shape.depth {
                continue; // leaf slots name one fixed process; nothing to re-elect
            }
            // Re-election: promote the smallest live already-known member
            // of the subgroup that is not yet seated.
            let base = self.shape.subgroup_base(q, l, g);
            let size = self.shape.subgroup_size(l);
            let group = &*group;
            let candidate = self.flat[q]
                .iter()
                .map(|&e| e as usize)
                .filter(|&e| {
                    e != q && (base..base + size).contains(&e) && self.alive[e] && !group.contains(&(e as u32))
                })
                .min();
            if let Some(winner) = candidate {
                self.admit_at_level(q, l, winner);
            }
        }
    }

    /// Evicts `x` from every process's view (slot tables and flat
    /// enumerations) and re-pins any process whose ring contact it was.
    fn evict_everywhere(&mut self, x: usize) {
        for q in 0..self.alive.len() {
            if q == x {
                continue;
            }
            self.evict_from_table(q, x);
            if let Some(pos) = self.flat[q].iter().position(|&e| e as usize == x) {
                self.flat[q].swap_remove(pos);
            }
            if self.alive[q] && self.contact[q] as usize == x {
                self.pin_contact(q);
            }
        }
    }

    /// Pins `q`'s contact to `peer`, keeping it in `q`'s flat view (and
    /// its slot groups when it qualifies).
    fn pin_to(&mut self, q: usize, peer: usize) {
        self.contact[q] = peer as u32;
        self.admit_peer(q, peer);
        if !self.flat[q].contains(&(peer as u32)) {
            self.flat[q].push(peer as u32);
        }
    }

    /// Re-pins `q`'s contact to its current live ring successor.
    fn pin_contact(&mut self, q: usize) {
        if let Some(successor) = ring_successor(&self.alive, q) {
            self.pin_to(q, successor);
        }
    }
}

/// The Section 2 hierarchical membership provider: per-depth delegate slot
/// tables over a regular tree, maintained by gossip (see the
/// [module docs](self) for the full design).
///
/// # Examples
///
/// ```rust
/// use pmcast_membership::{DelegateView, DelegateViewConfig, MembershipView};
///
/// // A 4-ary tree of depth 2 (n = 16), three delegate slots per subgroup.
/// let view = DelegateView::bootstrap(4, 2, DelegateViewConfig::default(), 7);
/// // Process 0 knows the three smallest members of the sibling subgroup
/// // starting at index 12 as its depth-1 delegates …
/// assert!(view.knows_at_depth(0, 1, 12));
/// assert!(view.knows_at_depth(0, 1, 14));
/// // … but not that subgroup's largest member: views stay bounded.
/// assert!(!view.knows_at_depth(0, 1, 15));
/// // Its leaf view holds every subgroup neighbour.
/// assert!(view.knows_at_depth(0, 2, 1) && view.knows_at_depth(0, 2, 3));
/// ```
#[derive(Debug)]
pub struct DelegateView {
    config: DelegateViewConfig,
    state: RwLock<DelegateState>,
    /// The views a live holder knows whole, beside the lock.
    whole: WholeViews,
    /// Aggregated-interest tables attached via
    /// [`MembershipView::attach_interest_summaries`]: each slot group's
    /// subtree carries the over-approximating summary of the interests
    /// below it, maintained through the same (collapsed) gossip that
    /// carries view digests — a leave retracts the departed filter along
    /// its root path, a rejoin re-announces it.  Read-locked by every
    /// probe; the provider keeps no verdict of its own (a caller keeps
    /// them under the summary epoch).
    interest: RwLock<Option<InterestAnnex>>,
    /// [`MembershipView::summary_epoch`]: moved, under the `interest` lock
    /// and after the change, by everything that attaches a table or changes
    /// a filter in it.
    /// `SeqCst` both ways: a reader that sees the new value also finds the
    /// changed table behind the lock.
    summary_epoch: AtomicU64,
}

impl DelegateView {
    /// Bootstraps the delegate views of a fully populated regular
    /// `arity^depth` tree (the paper's analysis topology); all provider
    /// randomness flows from `seed`.
    ///
    /// Bootstrap models the paper's join handoff: every slot group starts
    /// out holding its subgroup's current delegates (the `slots` smallest
    /// members, the sitting process excluded from its own view).
    ///
    /// # Panics
    ///
    /// Panics if `arity`, `depth`, `slots` or `gossip_fanout` is zero.
    pub fn bootstrap(arity: u32, depth: usize, config: DelegateViewConfig, seed: u64) -> Self {
        let n = TreeShape::new(arity as usize, depth, config.slots).member_count();
        Self::bootstrap_sparse(arity, depth, config, seed, &vec![true; n])
    }

    /// Bootstraps over a **sparse** population: `occupied[i]` says whether
    /// dense index `i` is a member at round zero.  The join handoff is
    /// gap-aware — every slot group seats the `slots` smallest *occupied*
    /// members of its subgroup, an empty subgroup's group stays entirely
    /// unseated (all sentinel slots), and the pinned ring contact is
    /// each process's nearest occupied successor, so the live overlay rings
    /// over the occupied subset.  Processes joining later (into occupied
    /// *or empty* subgroups) re-enter through
    /// [`observe_join`](MembershipView::observe_join) and are seated by
    /// gossip: `admit_peer` files a newcomer into every slot group it
    /// qualifies for, including groups that were empty until then.
    ///
    /// With every address occupied this is exactly
    /// [`bootstrap`](Self::bootstrap) — same tables, same untouched RNG
    /// stream — so static scenarios are unaffected.  Sparse bootstrap
    /// itself consumes **no** randomness — and stores no table: a table is
    /// stored only while it may differ from the seat rule, which answers for
    /// it otherwise (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `arity`, `depth`, `slots` or `gossip_fanout` is zero, or
    /// if `occupied.len() != arity^depth`.
    pub fn bootstrap_sparse(
        arity: u32,
        depth: usize,
        config: DelegateViewConfig,
        seed: u64,
        occupied: &[bool],
    ) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert!(depth > 0, "depth must be positive");
        assert!(config.slots > 0, "delegate slots must be positive");
        assert!(config.gossip_fanout > 0, "gossip_fanout must be positive");
        let shape = TreeShape::new(arity as usize, depth, config.slots);
        let n = shape.member_count();
        assert_eq!(occupied.len(), n, "occupancy flags must cover all {n} addresses");
        let mut below = Vec::with_capacity(n + 1);
        let mut live = 0;
        for &member in occupied {
            below.push(live as u32);
            live += usize::from(member);
        }
        below.push(live as u32);
        Self {
            config,
            state: RwLock::new(DelegateState {
                shape,
                below,
                tables: Vec::new(),
                flat: Vec::new(),
                contact: Vec::new(),
                alive: occupied.to_vec(),
                live,
                pending_dead: Vec::new(),
                // The handoff seats exactly the seat rule.
                unsettled: Vec::new(),
                rng: ChaCha8Rng::seed_from_u64(seed),
            }),
            whole: WholeViews::new(depth, occupied),
            interest: RwLock::new(None),
            summary_epoch: AtomicU64::new(0),
        }
    }

    // Kept only because `pmbench/src/kernels.rs` calls
    // `LazyDelegateView::new`: pinned by `pmbench`.
    #[doc(hidden)]
    pub fn new(arity: u32, depth: usize, slots: usize, occupied: Option<&[bool]>) -> Self {
        let config = DelegateViewConfig::default().with_slots(slots);
        match occupied {
            Some(occupied) => Self::bootstrap_sparse(arity, depth, config, 0, occupied),
            None => Self::bootstrap(arity, depth, config, 0),
        }
    }

    fn interest(&self) -> RwLockReadGuard<'_, Option<InterestAnnex>> {
        self.interest.read().expect("interest annex lock poisoned")
    }

    /// Applies a filter change to the attached summary table, if there is
    /// one, and moves the summary epoch: every verdict a caller recorded
    /// was judged against the table as it was.
    fn change_interest(&self, change: impl FnOnce(&mut InterestAnnex)) {
        if let Some(annex) = self.interest.write().expect("interest annex lock poisoned").as_mut() {
            change(annex);
            self.summary_epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Read access for the calls that need the flat rows, which the first
    /// of them builds.
    fn rows(&self) -> RwLockReadGuard<'_, DelegateState> {
        let state = self.state.read().expect("delegate view lock poisoned");
        if state.has_rows() {
            return state;
        }
        drop(state);
        self.state.write().expect("delegate view lock poisoned").build_rows(&self.whole);
        self.state.read().expect("delegate view lock poisoned")
    }

    /// Debug and test builds hold a whole answer against the judgement on
    /// the spot, allocating nothing: `of` is alive and knows every peer but
    /// itself.
    fn check_whole(
        &self,
        of: usize,
        depth: usize,
        view: u32,
        peers: &mut dyn Iterator<Item = usize>,
    ) {
        let state = self.state.read().expect("delegate view lock poisoned");
        if state.has_rows() {
            return; // somebody flipped since the answer was read
        }
        assert!(state.alive[of], "view {view} is whole for absent {of}");
        let (mut listed, mut own, mut known) = (0, 0, 0);
        let mut counted = peers.inspect(|&peer| {
            listed += 1;
            own += usize::from(peer == of);
        });
        state.fill_known(of, depth, &mut counted, |_| known += 1);
        assert_eq!(known + own, listed, "view {view} is not whole for {of}");
    }

    /// Returns `true` if the process is currently believed alive.
    pub fn is_live(&self, process: usize) -> bool {
        self.state.read().expect("delegate view lock poisoned").alive[process]
    }

    /// The live delegates `of` currently seats for the depth-`l` sibling
    /// subgroup with component `g` — an inspection hook for tests and
    /// diagnostics (the re-election invariant is asserted over exactly this
    /// set).
    pub fn live_delegates_of(&self, of: usize, depth: usize, g: usize) -> Vec<usize> {
        let state = self.state.read().expect("delegate view lock poisoned");
        match state.stored(of) {
            Some(table) => table[state.shape.group_range(depth, g)]
                .iter()
                .filter(|&&e| e != EMPTY && state.alive[e as usize])
                .map(|&e| e as usize)
                .collect(),
            None => {
                let base = state.shape.subgroup_base(of, depth, g);
                state.seated(of, depth, base).map(|member| member as usize).collect()
            }
        }
    }

    /// The pinned ring contact of `process` — an inspection hook like
    /// [`live_delegates_of`](Self::live_delegates_of).
    pub fn contact_of(&self, process: usize) -> usize {
        self.rows().contact[process] as usize
    }

    /// Returns `true` if `process` is live and settled: its table equals
    /// the seat rule over the current liveness, so none is stored and a
    /// membership round skips it.  An inspection hook; like the round, it
    /// first drops the stored tables that equal the seat rule again.
    pub fn is_settled(&self, process: usize) -> bool {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        state.certify();
        state.alive[process] && state.stored(process).is_none()
    }

    /// Number of live processes holding a stored table — what the next
    /// membership round still has to gossip for; at zero the round only
    /// moves the stream.  An inspection hook like
    /// [`is_settled`](Self::is_settled).
    pub fn unsettled(&self) -> usize {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        state.certify();
        state.unsettled.len()
    }

    /// Returns `true` once the flat rows (every process's flat view and
    /// pinned contact) are stored — after the first lifecycle observation
    /// that flipped somebody or the first flat enumeration (the module
    /// docs' *rows are built on first need*).  Slot tables are stored apart
    /// from them, only while they may differ from the seat rule.  An
    /// inspection hook like [`is_settled`](Self::is_settled); it builds
    /// nothing.
    pub fn has_tables(&self) -> bool {
        self.state.read().expect("delegate view lock poisoned").has_rows()
    }

    /// Position of the provider's membership stream in 32-bit words since
    /// the seed, for tests that pin stream neutrality.
    pub fn stream_word_pos(&self) -> u128 {
        self.state
            .read()
            .expect("delegate view lock poisoned")
            .rng
            .get_word_pos()
    }
}

impl MembershipView for DelegateView {
    fn estimated_size(&self) -> usize {
        self.state.read().expect("delegate view lock poisoned").live
    }

    fn peer_count(&self, of: usize) -> usize {
        self.rows().flat[of].len()
    }

    fn peer_at(&self, of: usize, k: usize) -> usize {
        self.rows().flat[of][k] as usize
    }

    /// The batched judgement asked about one peer: one seat rule for both
    /// representations.
    fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        let state = self.state.read().expect("delegate view lock poisoned");
        let mut known = false;
        if (1..=state.shape.depth).contains(&depth) {
            state.fill_known(of, depth, &mut std::iter::once(peer), |_| known = true);
        }
        known
    }

    /// No lock for a view a live holder knows whole (the module docs' *one
    /// answer per depth view*).  Otherwise the view is listed on the spot,
    /// under one read lock and peer by peer, and, while the flat rows are
    /// not built, judged whole in the same pass.
    fn fill_known_or_whole(
        &self,
        of: usize,
        depth: usize,
        view: u32,
        peers: &mut dyn Iterator<Item = usize>,
        out: &mut Vec<usize>,
    ) -> bool {
        if self.whole.hold(of, depth, view) {
            if cfg!(any(test, debug_assertions)) {
                self.check_whole(of, depth, view, peers);
            }
            return true;
        }
        let state = self.state.read().expect("delegate view lock poisoned");
        if !(1..=state.shape.depth).contains(&depth) {
            return false;
        }
        // A bit exists for an id that can name a view (a tree has fewer
        // depth views than members), and only a live asker knows its view.
        let mut whole = !state.has_rows() && state.alive[of] && (view as usize) < state.alive.len();
        let (block, span) = state.shape.view_block(of, depth);
        let size = state.shape.subgroup_size(depth);
        // A holder outside `peer`'s subgroup seats it as `peer` itself
        // does: nobody precedes itself.  The prefix test keeps a stranger
        // out of the prefix count.
        let mut judged = peers.inspect(|&peer| {
            whole = whole && peer.wrapping_sub(block) < span && state.seats(peer, depth, peer / size * size, peer);
        });
        let before = out.len();
        state.fill_known(of, depth, &mut judged, |position| out.push(position));
        if whole {
            out.truncate(before);
            self.whole.set(view as usize);
        }
        whole
    }

    /// Attaches the aggregated-interest tables the slot groups carry:
    /// after this, [`MembershipView::summary_allows`] answers from the
    /// subtree summaries instead of the over-approximating default.
    ///
    /// # Panics
    ///
    /// Panics if the summary table does not cover exactly this group's
    /// member capacity.
    fn attach_interest_summaries(&self, summaries: SubtreeSummaries) {
        let members = {
            let state = self.state.read().expect("delegate view lock poisoned");
            state.shape.member_count()
        };
        assert_eq!(
            summaries.space().capacity(),
            members as u128,
            "summary table must cover the delegate group's member capacity"
        );
        let annex = Some(InterestAnnex::new(summaries));
        *self.interest.write().expect("interest annex lock poisoned") = annex;
        self.summary_epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn summary_allows(&self, subgroup: &Prefix, event: &Event) -> bool {
        match self.interest().as_ref() {
            Some(annex) => annex.summaries.allows(subgroup, event),
            None => true,
        }
    }

    fn summary_epoch(&self) -> u64 {
        self.summary_epoch.load(Ordering::SeqCst)
    }

    /// What the attached table's filters mention (none named without one).
    fn summary_attributes(&self) -> Option<Arc<[String]>> {
        self.interest().as_ref().map(InterestAnnex::attributes)
    }

    /// One membership round: first the monitored-delegate sweep (crashes
    /// observed since the last round are evicted from every table, with
    /// immediate re-election from known candidates), then every live
    /// process pushes its subscription plus a random view digest to
    /// `gossip_fanout` known peers.
    ///
    /// A push into a settled table — one that is not stored — changes
    /// nothing (the module docs' *rounds cost what changed*), so it is not
    /// made; when no live process holds a stored table the pushes' only
    /// effect is the stream words their picks draw, and the stream is moved
    /// past them instead.
    fn round_elapsed(&self) {
        let mut swept: Vec<u32> = Vec::new();
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        // Monitored delegates: a crash is detected and swept within one
        // membership round (pinned-contact re-pinning included).
        while let Some(x) = state.pending_dead.pop() {
            state.evict_everywhere(x as usize);
            swept.push(x);
        }
        state.certify();
        if state.unsettled.is_empty() {
            // Every live sender makes `gossip_fanout` target picks, each
            // followed by `digest_size` candidate picks (a lone process has
            // nobody to pick from); an integer `gen_range` is one
            // `next_u64`, two stream words.
            let senders = if state.live > 1 { state.live } else { 0 };
            let picks = senders * self.config.gossip_fanout * (1 + self.config.digest_size);
            let position = state.rng.get_word_pos();
            state.rng.set_word_pos(position + 2 * picks as u128);
        } else {
            for sender in 0..state.alive.len() {
                if !state.alive[sender] {
                    continue;
                }
                // Leaves are evicted eagerly and the sweep above just
                // evicted the crashed, so no pick can land on a dead peer.
                debug_assert!(
                    state.flat[sender].iter().all(|&e| state.alive[e as usize]),
                    "flat view of {sender} names a dead peer"
                );
                for _ in 0..self.config.gossip_fanout {
                    if state.flat[sender].is_empty() {
                        break;
                    }
                    let pick = state.rng.gen_range(0..state.flat[sender].len());
                    let target = state.flat[sender][pick] as usize;
                    let settled = state.stored(target).is_none();
                    // Piggyback the sender's subscription plus a view digest;
                    // the receiver files every candidate into the slot groups
                    // of each depth it qualifies for.
                    if !settled {
                        state.admit_peer(target, sender);
                    }
                    for _ in 0..self.config.digest_size {
                        let len = state.flat[sender].len();
                        let candidate = state.flat[sender][state.rng.gen_range(0..len)] as usize;
                        if !settled && candidate != target {
                            state.admit_peer(target, candidate);
                        }
                    }
                }
            }
        }
        // The same sweep retracts the swept processes' interests from the
        // summary tables (the digest that evicts a delegate also carries
        // the shrunk subtree summary).
        if !swept.is_empty() {
            self.change_interest(|annex| {
                for x in swept {
                    annex.on_departure(x as usize);
                }
            });
        }
    }

    fn observe_join(&self, process: usize) {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        if state.alive[process] {
            return;
        }
        state.build_rows(&self.whole);
        state.flip(process);
        // Re-announce the rejoiner's subscription to the summary tables.
        self.change_interest(|annex| annex.on_join(process));
        // A crash-then-rejoin must not leave the process queued for the
        // monitored sweep: it is live again, so nothing to evict.
        state.pending_dead.retain(|&x| x as usize != process);
        // The joiner re-subscribes through its ring successor; its live
        // ring predecessor re-pins onto it.  Slot tables refill by gossip
        // (the join handoff, replayed incrementally).
        state.pin_contact(process);
        if let Some(predecessor) = ring_predecessor(&state.alive, process) {
            state.pin_to(predecessor, process);
        }
    }

    fn observe_leave(&self, process: usize) {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.build_rows(&self.whole);
        state.flip(process);
        // An unsub propagates eagerly: evict the leaver everywhere (with
        // re-election) and drop the leaver's own knowledge — an absent
        // process's table is the seat rule, which seats nobody.
        state.evict_everywhere(process);
        state.tables[process] = None;
        state.flat[process].clear();
        // The eager unsub also retracts the leaver's interests.
        self.change_interest(|annex| annex.on_departure(process));
    }

    fn observe_crash(&self, process: usize) {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.build_rows(&self.whole);
        state.flip(process);
        // Swept by the monitored-delegate pass of the next membership round.
        state.pending_dead.push(process as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::tests::lists;
    use std::collections::VecDeque;

    /// Number of live processes reachable from `start` over live-to-live
    /// view edges.
    fn reachable_live(view: &DelegateView, n: usize, start: usize) -> usize {
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        let mut count = 1;
        while let Some(process) = queue.pop_front() {
            for k in 0..view.peer_count(process) {
                let peer = view.peer_at(process, k);
                if view.is_live(peer) && !seen[peer] {
                    seen[peer] = true;
                    count += 1;
                    queue.push_back(peer);
                }
            }
        }
        count
    }

    /// The processes whose table is stored, ascending.
    fn stored_tables(view: &DelegateView) -> Vec<usize> {
        let state = view.state.read().expect("delegate view lock poisoned");
        (0..state.alive.len()).filter(|&q| state.stored(q).is_some()).collect()
    }

    #[test]
    fn bootstrap_seats_the_subgroup_delegates_per_depth() {
        // 3-ary tree of depth 3 (n = 27), 2 slots per subgroup.
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap(3, 3, config, 1);
        // Process 0's depth-1 view: the two smallest members of each root
        // subgroup (itself excluded from its own).
        for (g, expected) in [(0, [1, 2]), (1, [9, 10]), (2, [18, 19])] {
            for peer in expected {
                assert!(view.knows_at_depth(0, 1, peer), "depth 1 group {g} delegate {peer}");
            }
        }
        assert!(!view.knows_at_depth(0, 1, 11), "non-delegates stay unknown");
        // Depth-2 view of process 13 (digits 1.1.1): delegates of subgroups
        // 1.0 / 1.1 / 1.2.
        for peer in [9, 10, 12, 14, 15, 16] {
            assert!(view.knows_at_depth(13, 2, peer), "depth 2 delegate {peer}");
        }
        // Leaf neighbours.
        assert!(view.knows_at_depth(13, 3, 12) && view.knows_at_depth(13, 3, 14));
        assert!(!view.knows_at_depth(13, 3, 9), "9 is outside 13's leaf subgroup");
        // Flat view is bounded by (d−1)·a·slots + a (+1 for the contact),
        // far below n would be for larger trees; never includes self.
        assert!(view.peer_count(13) <= config.table_entries(3, 3) + 1);
        assert!(!lists(&view, 13, 13));
        assert_eq!(view.estimated_size(), 27);
    }

    #[test]
    fn fully_populated_views_seat_equation_2_entries_per_process() {
        // Equation 2 against the tables the engines run: with R = 3 slots,
        // every process of a full regular tree seats R·a·(d−1) delegates
        // plus its a leaf-subgroup members — itself included, although a
        // process never stores itself in its own table.  The shapes are
        // the quick `views` figure rows of pmcast-sim.
        let slots = 3;
        let config = DelegateViewConfig::default().with_slots(slots);
        for (arity, depth) in [(4u32, 2usize), (4, 3), (6, 3), (8, 3)] {
            let a = arity as usize;
            let view = DelegateView::bootstrap(arity, depth, config, 1);
            for process in 0..a.pow(depth as u32) {
                let seated: usize = (1..=depth)
                    .flat_map(|l| (0..a).map(move |g| (l, g)))
                    .map(|(l, g)| view.live_delegates_of(process, l, g).len())
                    .sum();
                assert_eq!(
                    seated + 1,
                    slots * a * (depth - 1) + a,
                    "a = {arity}, d = {depth}, process {process}"
                );
            }
        }
    }

    #[test]
    fn flat_providers_answer_their_flat_view_at_every_depth() {
        use crate::provider::{GlobalOracleView, PartialView, PartialViewConfig};
        let global = GlobalOracleView::new(8);
        assert!(global.knows_at_depth(0, 1, 5));
        assert!(!global.knows_at_depth(0, 2, 0));
        let partial = PartialView::bootstrap(8, PartialViewConfig::default(), 3);
        for peer in 0..8 {
            for depth in 1..=3 {
                assert_eq!(
                    partial.knows_at_depth(2, depth, peer),
                    lists(&partial, 2, peer),
                    "flat providers ignore the depth"
                );
            }
        }
    }

    #[test]
    fn gossip_rounds_are_deterministic_per_seed_and_stay_bounded() {
        let snapshot = |seed: u64| {
            let view = DelegateView::bootstrap(3, 2, DelegateViewConfig::default(), seed);
            for _ in 0..10 {
                view.round_elapsed();
            }
            (0..9)
                .map(|p| {
                    let mut peers: Vec<usize> =
                        (0..view.peer_count(p)).map(|k| view.peer_at(p, k)).collect();
                    peers.sort_unstable();
                    peers
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(snapshot(9), snapshot(9));
        let view = DelegateView::bootstrap(4, 3, DelegateViewConfig::default(), 5);
        for _ in 0..20 {
            view.round_elapsed();
        }
        let bound = DelegateViewConfig::default().table_entries(4, 3) + 1;
        for p in 0..64 {
            assert!(view.peer_count(p) <= bound, "flat view stays bounded");
        }
    }

    #[test]
    fn a_settled_round_only_moves_the_stream() {
        let config = DelegateViewConfig::default();
        let view = DelegateView::bootstrap(3, 3, config, 4);
        let flat = |view: &DelegateView| -> Vec<Vec<usize>> {
            (0..27)
                .map(|p| (0..view.peer_count(p)).map(|k| view.peer_at(p, k)).collect())
                .collect()
        };
        let before = flat(&view);
        assert_eq!(view.unsettled(), 0, "the handoff seats the converged answer");
        assert_eq!(view.stream_word_pos(), 0);
        view.round_elapsed();
        // 27 senders × 3 targets × (1 + 4 digest entries) picks, two words each.
        assert_eq!(view.stream_word_pos(), 27 * 3 * 5 * 2);
        assert_eq!(flat(&view), before);
        assert_eq!(view.unsettled(), 0);
    }

    #[test]
    fn a_crash_unsettles_exactly_the_tables_seating_it_until_gossip_refills_them() {
        // n = 16, a = 4, d = 2, 2 slots.  Process 7 is the largest of
        // subgroup 1: nobody's depth-1 view seats it, only its three leaf
        // neighbours do.
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap(4, 2, config, 6);
        view.observe_crash(7);
        for p in 0..16 {
            assert_eq!(view.is_settled(p), !(4..8).contains(&p), "process {p}");
        }
        // The tables the crash unsettled are stored, and so is the victim's.
        assert_eq!(stored_tables(&view), [4, 5, 6, 7]);
        // The sweep empties its leaf slots, which is the converged answer.
        view.round_elapsed();
        assert_eq!(view.unsettled(), 0);
        assert_eq!(stored_tables(&view), [7], "a crashed process keeps its table");
        // Process 0 is seated by everybody; after the sweep every table
        // outside subgroup 0 misses the delegate that should succeed it
        // until gossip delivers it.
        view.observe_crash(0);
        assert_eq!(view.unsettled(), 14);
        let unsettled: Vec<usize> = (0..16).filter(|&p| view.is_live(p) && !view.is_settled(p)).collect();
        assert_eq!(unsettled.len(), 14);
        let mut expected = [unsettled, vec![0, 7]].concat();
        expected.sort_unstable();
        assert_eq!(stored_tables(&view), expected);
        view.round_elapsed();
        assert!(view.unsettled() > 0, "re-election only promotes known candidates");
        let mut rounds = 1;
        while view.unsettled() > 0 {
            view.round_elapsed();
            rounds += 1;
            assert!(rounds < 500, "gossip must refill the seat");
        }
        for p in (4..16).filter(|&p| p != 7) {
            assert_eq!(view.live_delegates_of(p, 1, 0), vec![1, 2]);
        }
        assert_eq!(stored_tables(&view), [0, 7], "only the crashed keep a table");
    }

    /// A static 8^3 `delegate(3)` group stores no table through its rounds;
    /// the crash of process 0, a delegate of depth 1 that every table
    /// outside its subgroup seats, builds them, and gossip refills the seat
    /// everywhere within 215 rounds (seed 17).  The ceiling is that plus
    /// about 10 %.
    #[test]
    fn a_crashed_root_delegate_is_replaced_within_a_bounded_number_of_rounds() {
        let view = DelegateView::bootstrap(8, 3, DelegateViewConfig::default(), 17);
        view.round_elapsed();
        assert!(!view.has_tables(), "a static round stored the tables");
        view.observe_crash(0);
        assert!(view.has_tables());
        let mut rounds = 0;
        while view.unsettled() > 0 {
            view.round_elapsed();
            rounds += 1;
            assert!(rounds <= 236, "{} tables still unsettled", view.unsettled());
        }
    }

    /// A 22^3 `delegate(3)` group through a fixed-seed schedule of 30
    /// crashes, leaves and rejoins, one a round, then rounds until settled
    /// (741 rounds in all).  After every round a stored table belongs to an
    /// unsettled live process — one whose table differs from the seat rule —
    /// or to a crashed one; once settled, only the crashed that have not
    /// rejoined keep theirs.  The schedule stores at most 578 tables and 145
    /// a round on average, of 10 648; the ceilings are that plus about 13 %.
    #[test]
    fn a_churned_group_stores_only_the_tables_that_differ_from_the_seat_rule() {
        let view = DelegateView::bootstrap(22, 3, DelegateViewConfig::default(), 47);
        let n = 22usize.pow(3);
        let mut schedule = ChaCha8Rng::seed_from_u64(47);
        let (mut crashed, mut left) = (Vec::new(), Vec::new());
        let mut stored = Vec::new();
        // One round, then the stored tables held to the rule; returns their
        // number.
        let step = |view: &DelegateView, crashed: &[usize]| {
            view.round_elapsed();
            view.unsettled(); // drops the tables that equal the seat rule again
            let state = view.state.read().expect("delegate view lock poisoned");
            let mut unsettled = vec![false; n];
            for &q in &state.unsettled {
                unsettled[q as usize] = true;
            }
            let (mut live, mut dead) = (0, 0);
            for q in (0..n).filter(|&q| state.stored(q).is_some()) {
                if state.alive[q] {
                    assert!(unsettled[q], "{q} is stored but not unsettled");
                    assert!(!state.is_converged(q), "{q} is settled but stored");
                    live += 1;
                } else {
                    assert!(crashed.contains(&q), "{q} is stored, dead and not crashed");
                    dead += 1;
                }
            }
            assert_eq!((live, dead), (state.unsettled.len(), crashed.len()));
            live + dead
        };
        for _ in 0..30 {
            match schedule.gen_range(0..3) {
                2 if !crashed.is_empty() || !left.is_empty() => {
                    let from = if left.is_empty() || (!crashed.is_empty() && schedule.gen_bool(0.5)) {
                        &mut crashed
                    } else {
                        &mut left
                    };
                    let process = from.swap_remove(schedule.gen_range(0..from.len()));
                    view.observe_join(process);
                }
                kind => {
                    let process = loop {
                        let process = schedule.gen_range(0..n);
                        if view.is_live(process) {
                            break process;
                        }
                    };
                    if kind == 1 {
                        view.observe_leave(process);
                        left.push(process);
                    } else {
                        view.observe_crash(process);
                        crashed.push(process);
                    }
                }
            }
            stored.push(step(&view, &crashed));
        }
        while view.unsettled() > 0 {
            assert!(stored.len() < 2_000, "{} tables still unsettled", view.unsettled());
            stored.push(step(&view, &crashed));
        }
        crashed.sort_unstable();
        assert_eq!(stored_tables(&view), crashed, "the settled group keeps only the crashed tables");
        let peak = stored.iter().copied().max().unwrap_or(0);
        let mean = stored.iter().sum::<usize>() / stored.len();
        assert!(peak <= 650, "{peak} tables stored at the peak");
        assert!(mean <= 165, "{mean} tables stored a round on average");
    }

    #[test]
    fn crash_triggers_sweep_and_re_election_within_one_round() {
        // n = 16, a = 4, d = 2, 2 slots: process 15's depth-1 delegates of
        // subgroup 0 are {0, 1}.
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap(4, 2, config, 11);
        assert_eq!(view.live_delegates_of(15, 1, 0), vec![0, 1]);
        view.observe_crash(0);
        // Crash detection is monitored: swept at the next membership round.
        assert!(lists(&view, 15, 0), "crash is not evicted before the sweep");
        view.round_elapsed();
        assert!(!lists(&view, 15, 0), "sweep evicts the crashed delegate everywhere");
        // Re-election promoted an already-known live member of subgroup 0
        // (1 kept its seat; 2 or 3 may join as gossip spreads candidates).
        let seated = view.live_delegates_of(15, 1, 0);
        assert!(seated.contains(&1), "surviving delegate keeps its seat: {seated:?}");
        assert!(!seated.is_empty(), "the occupied subtree keeps a live delegate");
        // The live overlay stays connected through the churn.
        assert_eq!(reachable_live(&view, 16, 1), 15);
    }

    #[test]
    fn smaller_candidates_displace_larger_delegates_deterministically() {
        let config = DelegateViewConfig::default().with_slots(1);
        let view = DelegateView::bootstrap(4, 2, config, 2);
        // With one slot, process 0 seats only the smallest member of
        // subgroup 3 (index 12).
        assert!(view.knows_at_depth(0, 1, 12));
        assert!(!view.knows_at_depth(0, 1, 13));
        view.observe_crash(12);
        view.round_elapsed();
        // 12's seat passes to the next-smallest live member once gossip
        // has carried a candidate over; run a few rounds to let it arrive.
        for _ in 0..10 {
            view.round_elapsed();
        }
        let seated = view.live_delegates_of(0, 1, 3);
        assert!(
            seated.first().is_some_and(|&d| d == 13),
            "smallest live member re-elected, got {seated:?}"
        );
    }

    #[test]
    fn leave_is_evicted_eagerly_and_rejoin_reconnects() {
        let view = DelegateView::bootstrap(3, 2, DelegateViewConfig::default(), 3);
        view.observe_leave(4);
        assert_eq!(view.estimated_size(), 8);
        for p in 0..9 {
            assert!(!lists(&view, p, 4), "unsub evicts everywhere");
        }
        assert!(lists(&view, 3, 5), "ring predecessor re-pins past the leaver");
        view.observe_join(4);
        assert_eq!(view.estimated_size(), 9);
        assert!(lists(&view, 4, 5), "joiner knows its ring contact");
        assert!(lists(&view, 3, 4), "predecessor re-pins onto the joiner");
        for _ in 0..15 {
            view.round_elapsed();
        }
        assert_eq!(reachable_live(&view, 9, 0), 9, "gossip re-fills the joiner's view");
        // Duplicate notifications are idempotent.
        view.observe_join(4);
        view.observe_leave(7);
        view.observe_leave(7);
        assert_eq!(view.estimated_size(), 8);
    }

    #[test]
    fn crash_then_rejoin_is_not_swept() {
        let view = DelegateView::bootstrap(3, 2, DelegateViewConfig::default(), 13);
        view.observe_crash(4);
        view.observe_join(4);
        // The rejoin cancels the queued monitored sweep: the next round
        // must not evict the (live again) process from anyone's view.
        view.round_elapsed();
        assert!(view.is_live(4));
        assert_eq!(view.estimated_size(), 9);
        assert!(lists(&view, 3, 4), "ring predecessor still pins the rejoined process");
        assert!(lists(&view, 4, 5), "joiner still knows its ring contact");
    }

    #[test]
    fn connectivity_and_delegate_cover_survive_heavy_churn() {
        let view = DelegateView::bootstrap(3, 3, DelegateViewConfig::default().with_slots(2), 17);
        for round in 0..30usize {
            if round % 3 == 0 {
                view.observe_crash((round * 5 + 1) % 27);
            }
            if round % 4 == 0 {
                view.observe_leave((round * 7 + 2) % 27);
            }
            view.round_elapsed();
        }
        for _ in 0..10 {
            view.round_elapsed();
        }
        let live: Vec<usize> = (0..27).filter(|&p| view.is_live(p)).collect();
        assert!(live.len() >= 2, "churn left enough of the group alive");
        assert_eq!(
            reachable_live(&view, 27, live[0]),
            live.len(),
            "every live process stays reachable after churn"
        );
    }

    #[test]
    fn sparse_bootstrap_seats_delegates_over_gaps() {
        // 4-ary depth-2 tree (n = 16); subgroup 2 (8..12) keeps only its
        // largest member, subgroup 3 (12..16) starts entirely empty.
        let mut occupied = vec![true; 16];
        for absent in [8, 9, 10, 12, 13, 14, 15] {
            occupied[absent] = false;
        }
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap_sparse(4, 2, config, 5, &occupied);
        assert_eq!(view.estimated_size(), 9);
        // Gap-aware election: subgroup 2's only delegate is 11 — the
        // smallest *occupied* member, not the smallest address.
        assert_eq!(view.live_delegates_of(0, 1, 2), vec![11]);
        assert!(view.knows_at_depth(0, 1, 11));
        assert!(!view.knows_at_depth(0, 1, 8), "absent addresses are never seated");
        // The empty subgroup has no delegates anywhere.
        assert!(view.live_delegates_of(0, 1, 3).is_empty());
        // The ring contact skips the trailing gap: 11's successor wraps to 0.
        assert!(lists(&view, 11, 0));
        // Absent processes hold no knowledge yet.
        assert_eq!(view.peer_count(12), 0);
        // The live overlay is connected from the start.
        assert_eq!(reachable_live(&view, 16, 0), 9);
    }

    #[test]
    fn join_into_an_empty_subgroup_gets_seated_by_gossip() {
        // Subgroup 3 of the 4-ary depth-2 tree starts empty; 12 joins later.
        let mut occupied = vec![true; 16];
        occupied[12..16].fill(false);
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap_sparse(4, 2, config, 9, &occupied);
        assert!(view.live_delegates_of(0, 1, 3).is_empty());
        view.observe_join(12);
        assert_eq!(view.estimated_size(), 13);
        assert!(lists(&view, 12, 0), "joiner pins its occupied ring successor");
        assert!(lists(&view, 11, 12), "ring predecessor re-pins onto the joiner");
        // Gossip seats the newcomer in the (previously empty) slot groups.
        for _ in 0..25 {
            view.round_elapsed();
        }
        let mut seated = 0;
        for q in (0..12).filter(|&q| view.is_live(q)) {
            let delegates = view.live_delegates_of(q, 1, 3);
            if !delegates.is_empty() {
                assert_eq!(delegates, vec![12]);
                seated += 1;
            }
        }
        assert!(
            seated >= 10,
            "gossip must spread the joiner into almost every table, got {seated}/12"
        );
        assert_eq!(reachable_live(&view, 16, 0), 13);
    }

    #[test]
    fn sparse_bootstrap_over_a_full_population_is_the_plain_bootstrap() {
        let config = DelegateViewConfig::default();
        let full = DelegateView::bootstrap(3, 3, config, 21);
        let sparse = DelegateView::bootstrap_sparse(3, 3, config, 21, &[true; 27]);
        for p in 0..27 {
            let peers = |v: &DelegateView| -> Vec<usize> {
                (0..v.peer_count(p)).map(|k| v.peer_at(p, k)).collect()
            };
            assert_eq!(peers(&full), peers(&sparse));
            for depth in 1..=3 {
                for peer in 0..27 {
                    assert_eq!(
                        full.knows_at_depth(p, depth, peer),
                        sparse.knows_at_depth(p, depth, peer)
                    );
                }
            }
        }
        // And the gossip streams stay aligned (same RNG, same state).
        full.round_elapsed();
        sparse.round_elapsed();
        for p in 0..27 {
            assert_eq!(full.peer_count(p), sparse.peer_count(p));
        }
    }

    /// Every `(of, depth, peer)` answer of the single and the named probe,
    /// depths outside the tree and two strangers past the last member
    /// included — a stranger can share the asker's leading digits, so only
    /// the view block keeps it out of the liveness flags.
    fn seat_answers(view: &DelegateView, n: usize, depth: usize) -> Vec<bool> {
        let peers: Vec<usize> = (0..n).chain([n, n + 3]).collect();
        let mut answers = Vec::new();
        for of in 0..n {
            for l in 0..=depth + 1 {
                // `u32::MAX` names no view, so the answer is the listing.
                let mut batched = Vec::new();
                view.fill_known_or_whole(of, l, u32::MAX, &mut peers.iter().copied(), &mut batched);
                for (position, &peer) in peers.iter().enumerate() {
                    let knows = view.knows_at_depth(of, l, peer);
                    assert_eq!(knows, batched.contains(&position), "probes of ({of}, {l}, {peer})");
                    answers.push(knows);
                }
            }
        }
        answers
    }

    fn assert_seat_rule_matches_the_built_tables(
        arity: u32,
        depth: usize,
        slots: usize,
        occupied: &[bool],
    ) {
        let config = DelegateViewConfig::default().with_slots(slots);
        let view = DelegateView::bootstrap_sparse(arity, depth, config, 42, occupied);
        let table_less = seat_answers(&view, occupied.len(), depth);
        assert!(!view.has_tables(), "per-depth probes store nothing");
        view.peer_count(0);
        assert!(view.has_tables(), "the flat enumeration needs the rows");
        assert_eq!(table_less, seat_answers(&view, occupied.len(), depth));
    }

    #[test]
    fn seat_rule_matches_the_built_tables_on_a_full_tree() {
        assert_seat_rule_matches_the_built_tables(3, 3, 2, &[true; 27]);
    }

    #[test]
    fn seat_rule_matches_the_built_tables_on_sparse_occupancy() {
        // Every third address occupied, plus a hole-free run at the end.
        let occupied: Vec<bool> = (0..16).map(|i| i % 3 == 0 || i >= 12).collect();
        assert_seat_rule_matches_the_built_tables(2, 4, 2, &occupied);
        // A lone process and an empty tree are degenerate but must not panic.
        let mut lone = vec![false; 8];
        lone[5] = true;
        assert_seat_rule_matches_the_built_tables(2, 3, 1, &lone);
        assert_seat_rule_matches_the_built_tables(2, 3, 1, &[false; 8]);
    }

    /// The named ask of `(of, depth)` about `peers`, a whole answer expanded
    /// to every position but the asker's — in a test build every whole
    /// answer read off a bit is also held against the judgement on the spot
    /// inside `fill_known_or_whole` — after checking it against the single
    /// probe.
    fn named_ask(view: &DelegateView, of: usize, depth: usize, id: u32, peers: &[usize]) -> Vec<usize> {
        let mut named = Vec::new();
        if view.fill_known_or_whole(of, depth, id, &mut peers.iter().copied(), &mut named) {
            assert!(named.is_empty(), "a whole answer writes nothing");
            named.extend((0..peers.len()).filter(|&position| peers[position] != of));
        }
        let single: Vec<usize> = (0..peers.len())
            .filter(|&position| view.knows_at_depth(of, depth, peers[position]))
            .collect();
        assert_eq!(named, single, "view {id} as {of} holds it");
        named
    }

    /// Number of depth views the provider currently knows whole.
    fn whole_views(view: &DelegateView) -> u32 {
        view.whole.views.iter().map(|word| word.load(Ordering::Acquire).count_ones()).sum()
    }

    #[test]
    fn a_named_view_answers_for_listed_and_unlisted_members_of_the_own_subgroup() {
        // 4^3, two slots.  The depth-2 view under prefix 0 lists three
        // members of each subgroup 0.g — one more than anybody seats, so
        // whom a process seats of its own subgroup depends on where it sits,
        // and the view is never whole.
        let view = DelegateView::bootstrap(4, 3, DelegateViewConfig::default().with_slots(2), 1);
        let peers: Vec<usize> = (0..4).flat_map(|g| [4 * g, 4 * g + 1, 4 * g + 2]).collect();
        let outside = |own: [usize; 2]| -> Vec<usize> {
            let mut seated: Vec<usize> = (0..12).filter(|p| p % 3 != 2 && p / 3 != own[0] / 3).collect();
            seated.extend(own);
            seated.sort_unstable();
            seated
        };
        // Process 3 is not listed.  0 and 1 are listed delegates and do not
        // count themselves: each seats the third member instead.  2 is
        // listed and seated by nobody else; 6 sits in another subgroup.
        assert_eq!(named_ask(&view, 3, 2, 1, &peers), outside([0, 1]));
        assert_eq!(named_ask(&view, 0, 2, 1, &peers), outside([1, 2]));
        assert_eq!(named_ask(&view, 1, 2, 1, &peers), outside([0, 2]));
        assert_eq!(named_ask(&view, 2, 2, 1, &peers), outside([0, 1]));
        assert_eq!(named_ask(&view, 6, 2, 1, &peers), outside([3, 4]));
        assert_eq!(whole_views(&view), 0);
        // The leaf view of 0.1 (processes 4..8) is seated whole: everybody
        // but the asker, from the first ask on.
        let leaf: Vec<usize> = (4..8).collect();
        assert_eq!(named_ask(&view, 5, 3, 6, &leaf), vec![0, 2, 3]);
        assert_eq!(whole_views(&view), 1);
        assert_eq!(named_ask(&view, 7, 3, 6, &leaf), vec![0, 1, 2]);
        // A listed delegate seats 18 in its own place; the others do not.
        assert_eq!(named_ask(&view, 16, 2, 2, &[16, 17, 18, 20, 21]), vec![1, 2, 3, 4]);
        assert_eq!(named_ask(&view, 19, 2, 2, &[16, 17, 18, 20, 21]), vec![0, 1, 3, 4]);
        assert_eq!(named_ask(&view, 23, 2, 2, &[16, 17, 18, 20, 21]), vec![0, 1, 3, 4]);
        assert_eq!(whole_views(&view), 1);
        assert!(!view.has_tables());
    }

    #[test]
    fn sparse_occupancy_and_strangers_are_never_whole() {
        // 3^2 with 0 and 4 absent; the root view lists every address and
        // one past the tree.  An absent asker seats nobody.
        let occupied = [false, true, true, true, false, true, true, true, true];
        let view = DelegateView::bootstrap_sparse(3, 2, DelegateViewConfig::default().with_slots(2), 1, &occupied);
        let peers: Vec<usize> = (0..10).chain([usize::MAX]).collect();
        assert!(named_ask(&view, 4, 1, 0, &peers).is_empty());
        for (of, seated) in [(1, vec![2, 3, 5, 6, 7]), (2, vec![1, 3, 5, 6, 7]), (8, vec![1, 2, 3, 5, 6, 7])] {
            assert_eq!(named_ask(&view, of, 1, 0, &peers), seated);
        }
        // Every peer but the last is seated by an outsider, so the stranger
        // at the end is judged too — by the view prefix, before the prefix
        // count is read.
        let seated = [1, 2, 3, 5, 6, 7];
        for (id, stranger) in [(1, 9), (2, usize::MAX)] {
            let peers: Vec<usize> = seated.iter().copied().chain([stranger]).collect();
            assert_eq!(named_ask(&view, 1, 1, id, &peers), vec![1, 2, 3, 4, 5]);
        }
        assert_eq!(whole_views(&view), 0);
        // Without it the view is whole — for a live holder only.
        assert_eq!(named_ask(&view, 8, 1, 3, &seated), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(whole_views(&view), 1);
        assert!(named_ask(&view, 4, 1, 3, &seated).is_empty());
    }

    #[test]
    fn wide_and_unsorted_views_are_whole_where_every_peer_is_seated() {
        let config = DelegateViewConfig::default();
        for arity in [128u32, 129, 131] {
            let view = DelegateView::bootstrap(arity, 1, config, 1);
            let peers: Vec<usize> = (0..arity as usize).collect();
            for of in [0, 63, 64, 127, arity as usize - 1] {
                assert_eq!(named_ask(&view, of, 1, 0, &peers).len(), arity as usize - 1);
                assert_eq!(whole_views(&view), 1, "{arity} wide");
            }
        }
        let view = DelegateView::bootstrap(4, 2, config, 1);
        assert_eq!(named_ask(&view, 5, 2, 2, &[7, 6, 5, 4]), vec![0, 1, 3]);
        assert_eq!(named_ask(&view, 6, 2, 2, &[7, 6, 5, 4]), vec![0, 2, 3]);
        assert_eq!(whole_views(&view), 1);
        // Three slots seat 12, 13 and 14 of subgroup 3, not 15.
        assert_eq!(named_ask(&view, 5, 1, 0, &[15, 14, 13, 12, 2, 1, 0]), vec![1, 2, 3, 4, 5, 6]);
        // An id past the member count names no view of this tree.
        assert_eq!(named_ask(&view, 5, 2, 16, &[4, 5, 6, 7]), vec![0, 2, 3]);
        assert_eq!(whole_views(&view), 1);
    }

    #[test]
    fn the_first_stored_table_forgets_every_whole_view() {
        for what in ["crash", "leave", "join", "flat enumeration"] {
            let mut occupied = [true; 16];
            occupied[2] = false;
            let view = DelegateView::bootstrap_sparse(4, 2, DelegateViewConfig::default().with_slots(2), 3, &occupied);
            let root: Vec<usize> = (0..4).flat_map(|g| [4 * g, 4 * g + 1]).collect();
            let leaf = [0, 1, 3];
            let before = (named_ask(&view, 0, 1, 0, &root), named_ask(&view, 0, 2, 1, &leaf));
            assert_eq!(before, ((1..8).collect(), vec![1, 2]));
            assert_eq!(whole_views(&view), 2);
            match what {
                "crash" => view.observe_crash(1),
                "leave" => view.observe_leave(1),
                "join" => view.observe_join(2),
                _ => assert_eq!(view.peer_at(0, 0), 1),
            }
            assert!(view.has_tables(), "{what}");
            assert_eq!(whole_views(&view), 0, "{what}");
            // The tables answer from here on (`named_ask` holds the named
            // ask against them), through the sweep and the gossip after it.
            for _ in 0..3 {
                for of in 0..16 {
                    named_ask(&view, of, 1, 0, &root);
                    named_ask(&view, of, 2, 1 + of as u32 / 4, &leaf);
                }
                view.round_elapsed();
            }
            assert_eq!(whole_views(&view), 0, "{what}");
        }
    }

    #[test]
    fn bootstrap_cost_is_independent_of_slot_tables() {
        // A tree whose tables would take 1.3 GB: a static group only keeps
        // the liveness flags and their prefix count.
        let view = DelegateView::bootstrap(32, 4, DelegateViewConfig::default(), 3);
        let n = 32usize.pow(4);
        assert_eq!(view.estimated_size(), n);
        // Spot-check the seat rule at scale: the three smallest members of
        // the first depth-1 subtree are global delegates for everyone
        // outside it.
        assert!(view.knows_at_depth(n - 1, 1, 0));
        assert!(view.knows_at_depth(n - 1, 1, 1));
        assert!(view.knows_at_depth(n - 1, 1, 2));
        assert!(!view.knows_at_depth(n - 1, 1, 3));
        view.round_elapsed();
        assert!(!view.has_tables());
    }

    #[test]
    fn interest_annex_follows_churn() {
        use crate::SubtreeSummaries;
        use pmcast_addr::AddressSpace;
        use pmcast_interest::{Filter, Predicate};

        let view = DelegateView::bootstrap(2, 2, DelegateViewConfig::default(), 5);
        let space = AddressSpace::regular(2, 2).unwrap();
        let event = Event::builder(1).int("topic", 7).build();
        let subtree_1 = Prefix::from_components(vec![1]);
        // Without summaries every subgroup over-approximates to "maybe".
        assert!(view.summary_allows(&subtree_1, &event));
        // Every change of a verdict below moves the summary epoch (what a
        // caller recorded under an older one is stale); nothing else does.
        let mut epoch = view.summary_epoch();
        let mut epoch_moved = || {
            let before = std::mem::replace(&mut epoch, view.summary_epoch());
            epoch != before
        };
        // Only process 1.0 (dense index 2) subscribes to topic 7.
        let mut filters = vec![None; 4];
        filters[2] = Some(Filter::new().with("topic", Predicate::one_of([7i64])));
        view.attach_interest_summaries(SubtreeSummaries::build(space, filters));
        assert!(epoch_moved());
        assert!(view.summary_allows(&subtree_1, &event));
        assert!(!view.summary_allows(&Prefix::from_components(vec![0]), &event));
        assert!(!epoch_moved(), "asking changes no verdict");
        // The subscriber leaves: its interest is retracted along the path...
        view.observe_leave(2);
        assert!(epoch_moved());
        assert!(!view.summary_allows(&subtree_1, &event));
        // ...and a rejoin re-announces the original subscription.
        view.observe_join(2);
        assert!(epoch_moved());
        assert!(view.summary_allows(&subtree_1, &event));
        // A crash retracts too, but only once the monitored sweep runs.
        view.observe_crash(2);
        assert!(!epoch_moved());
        assert!(view.summary_allows(&subtree_1, &event));
        view.round_elapsed();
        assert!(epoch_moved());
        assert!(!view.summary_allows(&subtree_1, &event));
        view.round_elapsed();
        assert!(!epoch_moved(), "a round that sweeps nobody changes no filter");
    }

    #[test]
    #[should_panic(expected = "member capacity")]
    fn mismatched_summary_capacity_is_rejected() {
        use crate::SubtreeSummaries;
        use pmcast_addr::AddressSpace;

        let view = DelegateView::bootstrap(2, 2, DelegateViewConfig::default(), 5);
        let space = AddressSpace::regular(2, 3).unwrap();
        view.attach_interest_summaries(SubtreeSummaries::build(space, vec![None; 9]));
    }

    #[test]
    #[should_panic(expected = "delegate slots must be positive")]
    fn zero_slots_are_rejected() {
        let config = DelegateViewConfig {
            slots: 0,
            gossip_fanout: 1,
            digest_size: 1,
        };
        let _ = DelegateView::bootstrap(2, 2, config, 0);
    }
}
