//! Property tests for the whole answer of
//! [`MembershipView::fill_known_or_whole`]: a provider that answers "the
//! whole view but you" writes nothing, and what it spared the caller is
//! exactly the listing.
//!
//! * Over random sparse occupancy, `slots` 1–4 and ascending or descending
//!   depth views (one shape's root view is 131 wide), every holder of every
//!   view asks; a [`DelegateView`] answers a live holder whole exactly when
//!   a holder outside each peer's subgroup seats it — whether or not the
//!   view was asked about before — and then the single probe, the
//!   judgement on the spot, admits every peer but the asker.  Any other
//!   answer is the single probe's list.
//! * After a random join/leave/crash/round history no answer is whole
//!   unless it still is on the spot: the first flip forgets every whole
//!   view.
//! * [`GlobalOracleView`] always answers whole and [`PartialView`] never.

use pmcast_membership::{
    DelegateView, DelegateViewConfig, GlobalOracleView, MembershipView, PartialView,
    PartialViewConfig,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Tree shapes `(arity, depth)`; the last one's root view is wider than a
/// `u128` mask.
const SHAPES: [(usize, usize); 5] = [(2, 7), (4, 3), (5, 3), (11, 2), (131, 1)];

/// One step of a membership history.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join(usize),
    Leave(usize),
    Crash(usize),
    Round,
}

/// A depth view as pmcast's group would list it — up to `listed` of the
/// first occupied members of every sibling subgroup under one prefix —
/// with some listed peers dropped and, for a noisy view, some other block
/// members added; ascending, or all of it reversed.
#[derive(Debug)]
struct NamedView {
    id: u32,
    depth: usize,
    holders: std::ops::Range<usize>,
    peers: Vec<usize>,
}

#[derive(Debug)]
struct Case {
    arity: usize,
    depth: usize,
    slots: usize,
    seed: u64,
    occupied: Vec<bool>,
    views: Vec<NamedView>,
    steps: Vec<Step>,
}

impl Case {
    fn n(&self) -> usize {
        self.occupied.len()
    }

    /// Whether a holder of `view` outside each listed peer's subgroup seats
    /// it under `alive`: the peer is alive and fewer than its group's
    /// capacity of alive subgroup members precede it.
    fn seats_every_peer(&self, view: &NamedView, alive: &[bool]) -> bool {
        let size = self.arity.pow((self.depth - view.depth) as u32);
        let capacity = if view.depth == self.depth {
            1
        } else {
            self.slots
        };
        view.peers.iter().all(|&peer| {
            let base = peer / size * size;
            alive[peer] && (base..peer).filter(|&member| alive[member]).count() < capacity
        })
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (0..SHAPES.len(), 1usize..5, 0u64..1_000).prop_flat_map(|(shape, slots, seed)| {
        let (arity, depth) = SHAPES[shape];
        let n = arity.pow(depth as u32);
        let step = (0u8..4, 0..n).prop_map(|(kind, process)| match kind {
            0 => Step::Join(process),
            1 => Step::Leave(process),
            2 => Step::Crash(process),
            _ => Step::Round,
        });
        (
            prop::collection::vec(0u8..4, n),
            // (depth, a process under the view's prefix, listed, noise, seed,
            // descending)
            prop::collection::vec((1..=depth, 0..n, 1usize..6, 0u8..3, any::<u64>(), any::<bool>()), 1..5),
            prop::collection::vec(step, 0..16),
        )
            .prop_map(move |(occupancy, views, steps)| {
                // A quarter of the addresses start absent.
                let occupied: Vec<bool> = occupancy.iter().map(|&o| o != 0).collect();
                let views = views
                    .into_iter()
                    .enumerate()
                    .map(|(id, (level, anchor, listed, noise, bits, descending))| {
                        let size = arity.pow((depth - level) as u32);
                        let first = anchor / (size * arity) * (size * arity);
                        let mut rng = ChaCha8Rng::seed_from_u64(bits);
                        let mut peers: Vec<usize> = (0..arity)
                            .flat_map(|g| {
                                let base = first + g * size;
                                (base..base + size)
                                    .filter(|&member| occupied[member])
                                    .take(listed)
                            })
                            .collect();
                        if noise > 0 {
                            peers.retain(|_| rng.gen_range(0..8) != 0);
                        }
                        if noise > 1 {
                            peers.extend(
                                (first..first + size * arity).filter(|_| rng.gen_range(0..16) == 0),
                            );
                            peers.sort_unstable();
                            peers.dedup();
                        }
                        if descending {
                            peers.reverse();
                        }
                        NamedView {
                            id: id as u32,
                            depth: level,
                            holders: first..first + size * arity,
                            peers,
                        }
                    })
                    .collect();
                Case {
                    arity,
                    depth,
                    slots,
                    seed,
                    occupied,
                    views,
                    steps,
                }
            })
    })
}

/// Every position of `peers` but those holding `of`.
fn all_but(of: usize, peers: &[usize]) -> Vec<usize> {
    (0..peers.len())
        .filter(|&position| peers[position] != of)
        .collect()
}

/// The single probe asked of every position: the judgement on the spot.
fn on_the_spot(view: &dyn MembershipView, of: usize, named: &NamedView) -> Vec<usize> {
    (0..named.peers.len())
        .filter(|&position| view.knows_at_depth(of, named.depth, named.peers[position]))
        .collect()
}

/// `of`'s answer about `named`, and what it wrote.
fn ask(view: &dyn MembershipView, of: usize, named: &NamedView) -> (bool, Vec<usize>) {
    let mut out = Vec::new();
    let whole = view.fill_known_or_whole(
        of,
        named.depth,
        named.id,
        &mut named.peers.iter().copied(),
        &mut out,
    );
    (whole, out)
}

proptest! {
    /// Every holder of every view asks, twice per check, at bootstrap and
    /// after every step of a random history.  A whole answer wrote nothing
    /// and the spot lists every peer but the asker; it is given exactly
    /// while nobody has flipped, to a live holder, about a view that seats
    /// every peer it lists — a function of the state, not of who asked
    /// before; any other answer is the spot's list.
    #[test]
    fn a_whole_answer_is_the_listing(case in arb_case()) {
        let config = DelegateViewConfig::default().with_slots(case.slots);
        let view =
            DelegateView::bootstrap_sparse(case.arity as u32, case.depth, config, case.seed, &case.occupied);
        let mut alive = case.occupied.clone();
        let mut flipped = false;
        let check = |alive: &[bool], flipped: bool, after: &str| {
            for _ in 0..2 {
                for named in &case.views {
                    let seated = case.seats_every_peer(named, alive);
                    for of in named.holders.clone() {
                        let spot = on_the_spot(&view, of, named);
                        let (whole, out) = ask(&view, of, named);
                        prop_assert_eq!(
                            whole,
                            !flipped && alive[of] && seated,
                            "view {:?} as {} after {}", named, of, after
                        );
                        if whole {
                            prop_assert!(out.is_empty(), "a whole answer writes nothing");
                            prop_assert_eq!(&spot, &all_but(of, &named.peers), "view {} as {} after {}", named.id, of, after);
                        } else {
                            prop_assert_eq!(&out, &spot, "view {} as {} after {}", named.id, of, after);
                        }
                    }
                }
            }
        };
        check(&alive, flipped, "bootstrap");
        prop_assert!(!view.has_tables(), "a whole answer stores no table");
        for (index, &step) in case.steps.iter().enumerate() {
            match step {
                Step::Join(process) => {
                    flipped |= !std::mem::replace(&mut alive[process], true);
                    view.observe_join(process);
                }
                Step::Leave(process) => {
                    flipped |= std::mem::replace(&mut alive[process], false);
                    view.observe_leave(process);
                }
                Step::Crash(process) => {
                    flipped |= std::mem::replace(&mut alive[process], false);
                    view.observe_crash(process);
                }
                Step::Round => view.round_elapsed(),
            }
            check(&alive, flipped, &format!("step {index} ({step:?})"));
        }
    }

    /// The flat providers: the global view knows every view whole, the
    /// bounded partial view none.
    #[test]
    fn flat_providers_answer_whole_always_or_never(case in arb_case()) {
        let global = GlobalOracleView::new(case.n());
        let partial = PartialView::bootstrap_sparse(&case.occupied, PartialViewConfig::default(), case.seed);
        for named in &case.views {
            for of in named.holders.clone() {
                prop_assert_eq!(ask(&global, of, named), (true, Vec::new()));
                prop_assert_eq!(on_the_spot(&global, of, named), all_but(of, &named.peers));
                prop_assert_eq!(ask(&partial, of, named), (false, on_the_spot(&partial, of, named)));
            }
        }
    }
}

/// A pmcast-shaped view of a static group with `slots ≥ R` is answered
/// whole from its first ask on, and a leave ends that.
#[test]
fn a_static_view_seated_whole_is_answered_whole_until_a_flip() {
    // 4^3 with three slots; the depth-2 view under prefix 0 lists the three
    // smallest members of each subgroup 0.g.
    let view = DelegateView::bootstrap(4, 3, DelegateViewConfig::default().with_slots(3), 1);
    let named = NamedView {
        id: 1,
        depth: 2,
        holders: 0..16,
        peers: (0..4).flat_map(|g| [4 * g, 4 * g + 1, 4 * g + 2]).collect(),
    };
    for of in named.holders.clone() {
        assert_eq!(ask(&view, of, &named), (true, Vec::new()), "{of}");
    }
    // With two slots the third member of each subgroup is nobody's.
    let narrow = DelegateView::bootstrap(4, 3, DelegateViewConfig::default().with_slots(2), 1);
    assert!(!ask(&narrow, 5, &named).0);
    view.observe_leave(9);
    let expected: Vec<usize> = all_but(5, &named.peers)
        .into_iter()
        .filter(|&p| named.peers[p] != 9)
        .collect();
    assert_eq!(ask(&view, 5, &named), (false, expected));
}
