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
            prop_assert!(address.has_prefix(&prefix));
            prop_assert!(prefix.components().starts_with(previous.components()));
            prop_assert_eq!(prefix.len() + 1, depth);
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
