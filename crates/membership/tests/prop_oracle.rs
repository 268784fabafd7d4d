//! The interest bitmap is held to a set of addresses.
//!
//! [`AssignmentOracle`] stores one bit per address of its space and answers
//! every question — a process, a subtree, the size, the iteration order,
//! the k-th interested dense index — off those bits.  This file holds each
//! answer equal to a `BTreeSet<Address>` model over random subsets of
//! regular *and* irregular spaces (arities that put subtree boundaries
//! inside, on and across the bitmap's 64-bit words), holds
//! [`AssignmentOracle::sample`] to the seed contract (one `gen_bool` per
//! member in address order, nothing else drawn), and holds
//! [`TopicOracle`]'s audience sharing to its definition: two topics share
//! one allocation exactly when their subscriber sets coincide.

use std::collections::BTreeSet;
use std::sync::Arc;

use pmcast_addr::{Address, AddressSpace, Prefix};
use pmcast_interest::Event;
use pmcast_membership::{
    AssignmentOracle, ImplicitRegularTree, InterestOracle, TopicOracle, TOPIC_ATTRIBUTE,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Regular and irregular shapes, 5 to 192 addresses.
const SHAPES: [&[u32]; 8] = [
    &[2, 2, 2],
    &[3, 3],
    &[5],
    &[4, 8, 2],
    &[2, 3, 4],
    &[8, 8, 2],
    &[3, 1, 5],
    &[4, 4, 4, 3],
];

fn arb_space() -> impl Strategy<Value = AddressSpace> {
    (0..SHAPES.len()).prop_map(|shape| AddressSpace::new(SHAPES[shape].to_vec()).unwrap())
}

/// A space with a subset of it: empty, sparse, half, dense or full.
fn arb_subset() -> impl Strategy<Value = (AddressSpace, BTreeSet<Address>)> {
    (arb_space(), 0usize..5).prop_flat_map(|(space, density)| {
        let threshold = [0u8, 1, 8, 15, 16][density];
        let capacity = space.capacity() as usize;
        prop::collection::vec(0u8..16, capacity).prop_map(move |draws| {
            let chosen = space
                .iter()
                .zip(&draws)
                .filter(|(_, &draw)| draw < threshold)
                .map(|(address, _)| address)
                .collect();
            (space.clone(), chosen)
        })
    })
}

/// Every prefix of the space, root and full addresses included.
fn every_prefix(space: &AddressSpace) -> Vec<Prefix> {
    let mut prefixes = vec![Prefix::root()];
    let mut level = vec![Prefix::root()];
    for depth in 1..=space.depth() {
        level = level
            .iter()
            .flat_map(|parent| (0..space.arity(depth)).map(|component| parent.child(component)))
            .collect();
        prefixes.extend(level.iter().cloned());
    }
    prefixes
}

fn probe() -> Event {
    Event::builder(1).int("b", 1).build()
}

proptest! {
    #[test]
    fn the_bitmap_answers_like_a_set_of_addresses((space, model) in arb_subset()) {
        // Duplicates count once, and the order of insertion is immaterial.
        let listed = model.iter().rev().chain(model.iter().take(3)).cloned();
        let oracle = AssignmentOracle::new(space.clone(), listed);
        let event = probe();

        prop_assert_eq!(oracle.len(), model.len());
        prop_assert_eq!(oracle.is_empty(), model.is_empty());
        prop_assert_eq!(
            oracle.iter().collect::<Vec<_>>(),
            model.iter().cloned().collect::<Vec<_>>()
        );

        for (index, address) in space.iter().enumerate() {
            prop_assert_eq!(oracle.is_interested(index as u128, &event), model.contains(&address));
        }
        for prefix in every_prefix(&space) {
            let expected = model.iter().any(|address| address.has_prefix(&prefix));
            prop_assert_eq!(oracle.subtree_interested(&prefix, &event), expected, "{:?}", prefix);
        }

        for (k, address) in model.iter().enumerate() {
            let index = space.index_of_address(address).unwrap() as usize;
            prop_assert_eq!(oracle.nth_index(k), Some(index));
        }
        prop_assert_eq!(oracle.nth_index(model.len()), None);

        // Outside the space nobody is interested, whoever is inside it: an
        // index at or past the capacity, even in the bitmap's last word, a
        // component past its level's arity, a prefix deeper than an address.
        for index in [space.capacity(), space.capacity() + 63, 1 << 100] {
            prop_assert!(!oracle.is_interested(index, &event));
        }
        let mut beyond = vec![0; space.depth()];
        beyond[0] = space.arity(1);
        let too_long = vec![0; space.depth() + 1];
        prop_assert!(!oracle.subtree_interested(&Prefix::from_components(beyond), &event));
        prop_assert!(!oracle.subtree_interested(&Prefix::from_components(too_long), &event));
        let last = space.depth();
        let mut past_the_leaf = vec![0; last];
        past_the_leaf[last - 1] = space.arity(last);
        prop_assert!(!oracle.subtree_interested(&Prefix::from_components(past_the_leaf), &event));
    }

    #[test]
    fn sampling_draws_one_bool_per_member_in_address_order(
        space in arb_space(),
        seed in 0u64..1_000,
        rate in prop_oneof![Just(0.0), Just(1.0), Just(-0.25), Just(1.5), 0.0f64..1.0],
    ) {
        let topology = ImplicitRegularTree::new(space.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let oracle = AssignmentOracle::sample(&topology, rate, &mut rng);

        let mut reference = ChaCha8Rng::seed_from_u64(seed);
        let clamped = rate.clamp(0.0, 1.0);
        let expected: Vec<Address> =
            space.iter().filter(|_| reference.gen_bool(clamped)).collect();

        prop_assert_eq!(oracle.iter().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(&oracle, &AssignmentOracle::new(space, expected));
        prop_assert_eq!(rng.get_word_pos(), reference.get_word_pos());
    }

    #[test]
    fn coinciding_topic_audiences_share_one_allocation(
        shape in 0usize..3,
        classes in prop::collection::vec(0usize..3, 1..7),
        draws in prop::collection::vec(prop::collection::vec(0usize..3, 0..3), 9),
    ) {
        // Every topic belongs to one of three classes and a process
        // subscribes to whole classes, so topics of one class are certain to
        // coincide — and classes nobody picked, or the same processes
        // picked, coincide by chance.
        let space = AddressSpace::new([vec![2, 2], vec![3, 3], vec![2, 1, 3]][shape].clone()).unwrap();
        let n = space.capacity() as usize;
        let topics = classes.len();
        let subscriptions: Vec<Vec<u32>> = draws[..n]
            .iter()
            .map(|picked| {
                (0..topics).filter(|&topic| picked.contains(&classes[topic])).map(|t| t as u32).collect()
            })
            .collect();
        let oracle = TopicOracle::new(space.clone(), subscriptions.clone(), topics);

        let subscribers: Vec<BTreeSet<usize>> = (0..topics as u32)
            .map(|topic| (0..n).filter(|&process| subscriptions[process].contains(&topic)).collect())
            .collect();
        for (topic, expected) in subscribers.iter().enumerate() {
            let audience = oracle.audience(topic);
            prop_assert_eq!(audience.len(), expected.len());
            for (k, &process) in expected.iter().enumerate() {
                prop_assert_eq!(audience.nth_index(k), Some(process));
            }
            let event = Event::builder(7).int(TOPIC_ATTRIBUTE, topic as i64).build();
            prop_assert_eq!(oracle.subtree_interested(&Prefix::root(), &event), !expected.is_empty());
            for (other, others) in subscribers.iter().enumerate() {
                prop_assert_eq!(
                    Arc::ptr_eq(audience, oracle.audience(other)),
                    expected == others,
                    "topics {} and {}", topic, other
                );
            }
        }

        let distinct = subscribers.iter().collect::<BTreeSet<_>>().len();
        let stats = oracle.intern_stats();
        prop_assert_eq!((stats.misses, stats.hits), (distinct as u64, (topics - distinct) as u64));
        prop_assert_eq!((stats.live, stats.reclaimed), (distinct, 0));
    }
}
