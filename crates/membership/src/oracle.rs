use pmcast_addr::{Address, AddressSpace, Prefix};
use pmcast_interest::{Event, Interest};
use rand::Rng;

use crate::{GroupTree, TreeTopology};

/// Answers interest queries for processes and whole subtrees.
///
/// The dissemination layer needs two questions answered when handling an
/// event (the `⊲` tests of Figure 3):
///
/// 1. is an individual process interested? (delivery at the leaves), and
/// 2. is *any* process below a given subgroup interested? (whether a
///    delegate, acting on behalf of its subtree, is "susceptible").
///
/// Implementations:
///
/// * [`GroupTree`] — exact answers from the per-process subscriptions it
///   holds; this is the content-based pub/sub path.
/// * [`AssignmentOracle`] — an explicit set of interested processes, e.g.
///   drawn i.i.d. with probability `p_d` per process, which is the workload
///   model of the paper's analysis and evaluation (Section 4.1).
/// * [`crate::TopicOracle`] — one such set per topic of a multi-topic
///   workload.
/// * [`UniformOracle`] — everybody is interested (the broadcast special
///   case, useful for baselines and sanity checks).
pub trait InterestOracle {
    /// Returns `true` if the process at `index` — its dense index in the
    /// oracle's address space, the lexicographic rank of its address — is
    /// interested in the event.  An index outside the space is never
    /// interested.  In a group whose members fill the space, a process's
    /// index is its simulation identifier, so nobody computes an address to
    /// ask.
    fn is_interested(&self, index: u128, event: &Event) -> bool;

    /// Returns `true` if at least one process below the prefix is
    /// interested.
    fn subtree_interested(&self, prefix: &Prefix, event: &Event) -> bool;

    /// A cheap equivalence key over audiences: two events mapped to the same
    /// key are guaranteed to have **identical** audiences under this oracle
    /// — [`is_interested`](Self::is_interested) and
    /// [`subtree_interested`](Self::subtree_interested) answer the same for
    /// both, about every index and prefix — **for as long as the oracle
    /// is in use**: a key never comes to name another audience.  `None`
    /// means "no such key is known" and every event must be resolved
    /// individually.
    ///
    /// Three caches lean on it, none of which is ever invalidated: the
    /// genuine baseline's audience directory reuses one computed set per
    /// key, pmcast keeps `GETRATE` and the round budget per `(key, depth
    /// view)` for the life of a group, and the multicast report classifies
    /// the group once per key.  The summary veto does **not**: what an
    /// attached summary reads of an event is its content, which one key may
    /// cover many of.
    ///
    /// [`AssignmentOracle`] answers `Some(0)` (its assignment ignores the
    /// event), and the topic oracle answers the event's topic index; exact
    /// per-subscription oracles keep the `None` default.
    fn audience_key(&self, _event: &Event) -> Option<u64> {
        None
    }
}

impl<T: InterestOracle + ?Sized> InterestOracle for &T {
    fn is_interested(&self, index: u128, event: &Event) -> bool {
        (**self).is_interested(index, event)
    }
    fn subtree_interested(&self, prefix: &Prefix, event: &Event) -> bool {
        (**self).subtree_interested(prefix, event)
    }
    fn audience_key(&self, event: &Event) -> Option<u64> {
        (**self).audience_key(event)
    }
}

/// Exact interest answers derived from the subscriptions stored in the
/// [`GroupTree`].
impl InterestOracle for GroupTree {
    /// The subscription is looked up by the address the index names.
    fn is_interested(&self, index: u128, event: &Event) -> bool {
        index < self.space().capacity()
            && self
                .subscription(&self.space().address_of_index(index))
                .is_some_and(|filter| filter.matches(event))
    }

    /// Counts the whole subtree where the first match would do: a probe
    /// costs O(subscribers below the prefix) (ROADMAP item 5).
    fn subtree_interested(&self, prefix: &Prefix, event: &Event) -> bool {
        self.interested_count_under(prefix, event) > 0
    }
}

/// An explicit assignment of interested processes, independent of any
/// attribute matching.
///
/// This models the analysis workload of Section 4.1, where every process is
/// interested in a given event with probability `p_d`, independently of all
/// others.  The assignment is one bit per address of its space, in dense
/// (lexicographic) index order: a point query reads one bit, a subtree
/// query scans the words of the subtree's contiguous index range and stops
/// at the first non-zero one — a 32⁴-process space is a 128 KiB bitmap.
/// Million-process trials spend a large share of their time in these two
/// queries (one `is_interested` per first receipt and per leaf position a
/// view's interest is folded over, one `subtree_interested` per inner
/// subgroup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentOracle {
    space: AddressSpace,
    /// Number of set bits.
    len: usize,
    bitmap: Vec<u64>,
}

/// Largest space an [`AssignmentOracle`] covers: 2²⁶ addresses, an 8 MiB
/// bitmap — 64 times the largest group the repository simulates.
const BITMAP_CAPACITY_LIMIT: u128 = 1 << 26;

impl AssignmentOracle {
    /// The assignment over `space` in which nobody is interested.
    ///
    /// # Panics
    ///
    /// Panics if the space holds more than 2²⁶ addresses.
    pub(crate) fn empty(space: AddressSpace) -> Self {
        let capacity = space.capacity();
        assert!(
            capacity <= BITMAP_CAPACITY_LIMIT,
            "an interest assignment is one bit per address: {capacity} addresses exceed \
             the limit of {BITMAP_CAPACITY_LIMIT}"
        );
        Self {
            bitmap: vec![0; (capacity as usize).div_ceil(64)],
            len: 0,
            space,
        }
    }

    /// Marks the process at a dense index below the capacity interested.
    pub(crate) fn insert(&mut self, index: usize) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        self.len += usize::from(self.bitmap[word] & bit == 0);
        self.bitmap[word] |= bit;
    }

    /// Creates an oracle from an explicit set of interested processes of
    /// the given space (duplicates count once).
    ///
    /// # Panics
    ///
    /// Panics if the space holds more than 2²⁶ addresses or an address is
    /// not valid for it.
    pub fn new<I: IntoIterator<Item = Address>>(space: AddressSpace, interested: I) -> Self {
        let mut oracle = Self::empty(space);
        for address in interested {
            oracle.insert_address(&address);
        }
        oracle
    }

    /// Samples an assignment over the members of a topology: every process
    /// is interested independently with probability `matching_rate`
    /// (`p_d` in the paper) — one `gen_bool` per member, in address order.
    ///
    /// # Panics
    ///
    /// Panics if the topology's space holds more than 2²⁶ addresses.
    pub fn sample<T: TreeTopology + ?Sized, R: Rng>(
        topology: &T,
        matching_rate: f64,
        rng: &mut R,
    ) -> Self {
        let mut oracle = Self::empty(topology.space().clone());
        let rate = matching_rate.clamp(0.0, 1.0);
        topology.for_each_member_index(&mut |index| {
            if rng.gen_bool(rate) {
                oracle.insert(index);
            }
        });
        oracle
    }

    fn insert_address(&mut self, address: &Address) {
        let index = self.space.index_of_address(address);
        self.insert(index.expect("interested addresses are valid for the space") as usize);
    }

    /// Number of interested processes in the assignment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nobody is interested.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the interested processes in address order.
    pub fn iter(&self) -> impl Iterator<Item = Address> + '_ {
        self.bitmap.iter().enumerate().flat_map(move |(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let index = at * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    self.space.address_of_index(index as u128)
                })
            })
        })
    }

    /// The dense index of the `k`-th interested process in address order
    /// (`k` counts from 0); `None` if fewer than `k + 1` are interested.
    pub fn nth_index(&self, k: usize) -> Option<usize> {
        let mut before = 0;
        for (at, &word) in self.bitmap.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < before + ones {
                let mut rest = word;
                for _ in before..k {
                    rest &= rest - 1;
                }
                return Some(at * 64 + rest.trailing_zeros() as usize);
            }
            before += ones;
        }
        None
    }

    /// Is any index of the non-empty range `[low, high)` interested?  Leaf
    /// subtrees span a word or two; the masked scan exits on the first
    /// non-zero word.
    fn any_bit_in(&self, low: usize, high: usize) -> bool {
        let (first, last) = (low / 64, (high - 1) / 64);
        let head_mask = !0u64 << (low % 64);
        let tail_mask = !0u64 >> (63 - (high - 1) % 64);
        if first == last {
            return self.bitmap[first] & head_mask & tail_mask != 0;
        }
        self.bitmap[first] & head_mask != 0
            || self.bitmap[first + 1..last].iter().any(|&word| word != 0)
            || self.bitmap[last] & tail_mask != 0
    }
}

impl InterestOracle for AssignmentOracle {
    /// One bit; the bits past the space's last index are never set.
    fn is_interested(&self, index: u128, _event: &Event) -> bool {
        usize::try_from(index / 64)
            .ok()
            .and_then(|word| self.bitmap.get(word))
            .is_some_and(|word| word >> (index % 64) & 1 == 1)
    }

    /// Nobody is interested below a prefix outside the space.
    fn subtree_interested(&self, prefix: &Prefix, _event: &Event) -> bool {
        self.space
            .index_range_under(prefix)
            .is_ok_and(|(low, high)| self.any_bit_in(low as usize, high as usize))
    }

    /// The assignment ignores the event, so every event shares one audience.
    fn audience_key(&self, _event: &Event) -> Option<u64> {
        Some(0)
    }
}

/// Every process is interested in every event: the broadcast special case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformOracle;

impl InterestOracle for UniformOracle {
    fn is_interested(&self, _index: u128, _event: &Event) -> bool {
        true
    }

    fn subtree_interested(&self, _prefix: &Prefix, _event: &Event) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_interest::{Filter, Predicate};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::ImplicitRegularTree;

    fn event() -> Event {
        Event::builder(1).int("b", 10).build()
    }

    #[test]
    fn subscription_oracle_matches_filters() {
        let space = AddressSpace::regular(2, 3).unwrap();
        let mut tree = GroupTree::new(space);
        tree.join("0.0".parse().unwrap(), Filter::new().with("b", Predicate::gt(0.0)))
            .unwrap();
        tree.join("0.1".parse().unwrap(), Filter::new().with("b", Predicate::lt(0.0)))
            .unwrap();
        tree.join("2.2".parse().unwrap(), Filter::new().with("b", Predicate::gt(5.0)))
            .unwrap();
        let e = event();
        // 0.0, 0.1 and 1.1 of a 3^2 space, and one index past it.
        assert!(tree.is_interested(0, &e));
        assert!(!tree.is_interested(1, &e));
        assert!(!tree.is_interested(4, &e));
        assert!(tree.is_interested(8, &e) && !tree.is_interested(9, &e));
        assert_eq!(tree.interested_count_under(&Prefix::root(), &e), 2);
        assert_eq!(
            tree.interested_count_under(&Prefix::from_components(vec![0]), &e),
            1
        );
        assert!(tree.subtree_interested(&Prefix::root(), &e));
        assert!(tree.subtree_interested(&Prefix::from_components(vec![2]), &e));
        assert!(!tree.subtree_interested(&Prefix::from_components(vec![1]), &e));
    }

    /// What `subtree_interested` must answer, by scanning the assignment.
    fn any_under(oracle: &AssignmentOracle, prefix: &Prefix) -> bool {
        oracle.iter().any(|address| address.has_prefix(prefix))
    }

    #[test]
    fn assignment_oracle_answers_by_prefix() {
        let interested: Vec<Address> = ["0.0.1", "0.2.2", "1.0.0", "1.0.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let oracle =
            AssignmentOracle::new(AddressSpace::regular(3, 3).unwrap(), interested.clone());
        let e = event();
        assert_eq!(oracle.len(), 4);
        assert!(!oracle.is_empty());
        assert_eq!(oracle.iter().collect::<Vec<_>>(), interested);
        let index = |address: &str| oracle.space.index_of_address(&address.parse().unwrap());
        assert!(oracle.is_interested(index("0.0.1").unwrap(), &e));
        assert!(!oracle.is_interested(index("0.0.0").unwrap(), &e));
        assert!(oracle.is_interested(index("1.0.1").unwrap(), &e));
        for (components, expected) in [
            (vec![], true),
            (vec![0], true),
            (vec![1, 0], true),
            (vec![2], false),
            (vec![0, 2], true),
            (vec![0, 1], false),
        ] {
            let prefix = Prefix::from_components(components);
            assert_eq!(oracle.subtree_interested(&prefix, &e), expected);
            assert_eq!(any_under(&oracle, &prefix), expected);
        }
        // Outside the space nobody is interested.
        assert!(!oracle.is_interested(27, &e) && !oracle.is_interested(1 << 100, &e));
        assert!(!oracle.subtree_interested(&Prefix::from_components(vec![3]), &e));
    }

    #[test]
    fn assignment_oracle_deduplicates() {
        let a: Address = "0.0".parse().unwrap();
        let space = AddressSpace::regular(2, 2).unwrap();
        let oracle = AssignmentOracle::new(space, vec![a.clone(), a.clone(), a]);
        assert_eq!(oracle.len(), 1);
        assert_eq!(oracle.nth_index(0), Some(0));
        assert_eq!(oracle.nth_index(1), None);
    }

    #[test]
    #[should_panic(expected = "exceed the limit")]
    fn a_space_past_the_bitmap_limit_is_refused() {
        AssignmentOracle::new(AddressSpace::regular(4, 256).unwrap(), Vec::new());
    }

    #[test]
    fn sampled_assignment_has_plausible_size() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 8).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let oracle = AssignmentOracle::sample(&topology, 0.5, &mut rng);
        let n = topology.member_count() as f64;
        // A Bernoulli(0.5) sample over 512 processes stays well within 4 σ.
        assert!((oracle.len() as f64 - 0.5 * n).abs() < 4.0 * (0.25f64 * n).sqrt());
    }

    #[test]
    fn sampling_by_index_draws_like_the_address_walk() {
        // The walk `sample` made before topologies listed indices: one
        // `gen_bool` per member address, in address order.
        let by_address = |topology: &dyn TreeTopology, rate: f64, rng: &mut ChaCha8Rng| {
            let mut oracle = AssignmentOracle::empty(topology.space().clone());
            for address in topology.members() {
                if rng.gen_bool(rate) {
                    oracle.insert_address(&address);
                }
            }
            oracle
        };
        let full = ImplicitRegularTree::new(AddressSpace::regular(3, 6).unwrap());
        let mut sparse = crate::GroupTree::new(full.space().clone());
        for (at, address) in full.space().iter().enumerate() {
            if at % 7 != 3 && at % 5 != 0 {
                sparse.join(address, Filter::match_all()).unwrap();
            }
        }
        let topologies: [&dyn TreeTopology; 2] = [&full, &sparse];
        for (topology, seed) in topologies.into_iter().flat_map(|t| (0..6).map(move |s| (t, s))) {
            let rate = 0.1 + 0.15 * seed as f64;
            let (mut by_index_rng, mut by_address_rng) =
                (ChaCha8Rng::seed_from_u64(seed), ChaCha8Rng::seed_from_u64(seed));
            let by_index = AssignmentOracle::sample(topology, rate, &mut by_index_rng);
            assert_eq!(by_index, by_address(topology, rate, &mut by_address_rng));
            assert_eq!(by_index_rng.get_word_pos(), by_address_rng.get_word_pos());
            assert!(!by_index.is_empty(), "seed {seed} sampled somebody");
        }
    }

    #[test]
    fn sampled_assignment_is_deterministic_per_seed() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(2, 10).unwrap());
        let a = AssignmentOracle::sample(&topology, 0.3, &mut ChaCha8Rng::seed_from_u64(42));
        let b = AssignmentOracle::sample(&topology, 0.3, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_oracle_is_always_interested() {
        let e = event();
        assert!(UniformOracle.is_interested(5, &e));
        assert!(UniformOracle.subtree_interested(&Prefix::from_components(vec![5]), &e));
    }

    #[test]
    fn oracle_references_delegate() {
        let by_ref: &dyn InterestOracle = &UniformOracle;
        assert!(by_ref.is_interested(0, &event()));
        assert!((&by_ref).subtree_interested(&Prefix::root(), &event()));
        assert_eq!((&by_ref).audience_key(&event()), None);
    }

    #[test]
    fn assignment_subtrees_agree_with_linear_scan() {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 4).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let oracle = AssignmentOracle::sample(&topology, 0.35, &mut rng);
        let e = event();
        for prefix in [
            Prefix::root(),
            Prefix::from_components(vec![0]),
            Prefix::from_components(vec![3]),
            Prefix::from_components(vec![1, 2]),
            Prefix::from_components(vec![2, 3]),
        ] {
            assert_eq!(
                oracle.subtree_interested(&prefix, &e),
                any_under(&oracle, &prefix)
            );
        }
    }
}
