//! Property-based tests for the address / prefix / space model.

use pmcast_addr::{Address, AddressSpace, Prefix};
use proptest::prelude::*;

fn arb_components(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..1000, 1..=max_len)
}

fn arb_space() -> impl Strategy<Value = AddressSpace> {
    prop::collection::vec(1u32..12, 1..5)
        .prop_map(|arities| AddressSpace::new(arities).expect("arities are positive"))
}

proptest! {
    /// Display → FromStr is the identity on addresses.
    #[test]
    fn address_display_parse_round_trip(components in arb_components(6)) {
        let address = Address::new(components);
        let rendered = address.to_string();
        let parsed: Address = rendered.parse().unwrap();
        prop_assert_eq!(address, parsed);
    }

    /// The distance between two addresses of equal depth is symmetric,
    /// bounded by the depth, and zero exactly for equal addresses.
    #[test]
    fn distance_is_a_pseudo_metric(
        a in arb_components(5),
        b in arb_components(5),
    ) {
        let depth = a.len().min(b.len());
        let a = Address::new(a[..depth].to_vec());
        let b = Address::new(b[..depth].to_vec());
        let d_ab = a.distance(&b);
        prop_assert_eq!(d_ab, b.distance(&a));
        prop_assert!(d_ab <= depth);
        prop_assert_eq!(d_ab == 0, a == b);
        prop_assert_eq!(a.distance(&a), 0);
    }

    /// The triangle inequality holds for the prefix-based distance
    /// (it is an ultrametric: d(a,c) <= max(d(a,b), d(b,c))).
    #[test]
    fn distance_is_an_ultrametric(
        a in prop::collection::vec(0u32..4, 4),
        b in prop::collection::vec(0u32..4, 4),
        c in prop::collection::vec(0u32..4, 4),
    ) {
        let a = Address::new(a);
        let b = Address::new(b);
        let c = Address::new(c);
        prop_assert!(a.distance(&c) <= a.distance(&b).max(b.distance(&c)));
    }

    /// Common prefixes really are prefixes of both addresses, and are the
    /// longest such.
    #[test]
    fn common_prefix_is_longest_shared(
        a in prop::collection::vec(0u32..4, 5),
        b in prop::collection::vec(0u32..4, 5),
    ) {
        let a = Address::new(a);
        let b = Address::new(b);
        let p = a.common_prefix(&b);
        prop_assert!(a.has_prefix(&p));
        prop_assert!(b.has_prefix(&p));
        if p.len() < a.depth() {
            // Extending the common prefix by a's next component must not be a
            // prefix of b (otherwise it was not the longest).
            let extended = p.child(a.components()[p.len()]);
            prop_assert!(!b.has_prefix(&extended) || a.components()[p.len()] != b.components()[p.len()]);
        }
    }

    /// Dense index ↔ address conversion round-trips and preserves order.
    #[test]
    fn space_index_round_trip(space in arb_space(), seed in 0u64..10_000) {
        let capacity = space.capacity();
        let index = (seed as u128) % capacity;
        let address = space.address_of_index(index);
        prop_assert!(space.validate(&address).is_ok());
        prop_assert_eq!(space.index_of_address(&address).unwrap(), index);

        // Order preservation against a second index.
        let other_index = ((seed as u128).wrapping_mul(31)) % capacity;
        let other = space.address_of_index(other_index);
        prop_assert_eq!(index.cmp(&other_index), address.cmp(&other));
    }

    /// Every prefix of an address contains the address, and prefixes of
    /// increasing depth form a chain.
    #[test]
    fn prefixes_form_a_chain(components in arb_components(6)) {
        let address = Address::new(components);
        let mut previous = Prefix::root();
        for depth in 1..=address.depth() {
            let prefix = address.prefix_of_depth(depth);
            prop_assert!(prefix.contains(&address));
            prop_assert!(prefix.components().starts_with(previous.components()));
            prop_assert_eq!(prefix.depth(), depth);
            previous = prefix;
        }
    }

    /// capacity_under(prefix) times the number of addresses "above" equals
    /// the full capacity for prefixes made of valid components.
    #[test]
    fn capacity_decomposes(space in arb_space(), seed in 0u64..10_000) {
        let address = space.address_of_index((seed as u128) % space.capacity());
        for depth in 1..=space.depth() {
            let prefix = address.prefix_of_depth(depth);
            let below = space.capacity_under(&prefix);
            let above: u128 = space.arities()[..prefix.len()].iter().map(|&a| a as u128).product();
            prop_assert_eq!(below * above, space.capacity());
        }
    }
}
