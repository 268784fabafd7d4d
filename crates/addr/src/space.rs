use crate::{AddrError, Address, Component, Depth, Prefix};

/// The shape of the address space: depth `d` and per-level arities `aᵢ`.
///
/// The maximum number of distinct addresses — and therefore of processes —
/// is `∏ aᵢ` (Section 2.2).  A *regular* tree in the sense of the paper's
/// analysis (Section 4.1) uses the same arity `a` at every level, so that
/// `n = a^d`.
///
/// The address space only constrains which addresses are *well formed*; the
/// set of addresses actually populated at a given moment is tracked by the
/// membership layer.
///
/// # Example
///
/// ```rust
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use pmcast_addr::AddressSpace;
///
/// // IPv4-like shape: four levels of 256 values each.
/// let ipv4 = AddressSpace::new(vec![256, 256, 256, 256])?;
/// assert_eq!(ipv4.capacity(), 1u128 << 32);
///
/// // The regular tree used throughout the paper's evaluation.
/// let eval = AddressSpace::regular(3, 22)?;
/// assert_eq!(eval.capacity(), 10_648);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressSpace {
    arities: Vec<Component>,
}

impl AddressSpace {
    /// Creates an address space with the given per-level arities
    /// `a₁, …, a_d`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::InvalidShape`] if no levels are given or any
    /// arity is zero.
    pub fn new(arities: Vec<Component>) -> Result<Self, AddrError> {
        if arities.is_empty() {
            return Err(AddrError::InvalidShape {
                reason: "depth must be at least 1".to_string(),
            });
        }
        if let Some(level) = arities.iter().position(|&a| a == 0) {
            return Err(AddrError::InvalidShape {
                reason: format!("arity at level {} must be positive", level + 1),
            });
        }
        Ok(Self { arities })
    }

    /// Creates a *regular* address space of depth `d` with `a` subgroups per
    /// level, so that the capacity is `a^d`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::InvalidShape`] if `depth` or `arity` is zero.
    pub fn regular(depth: Depth, arity: Component) -> Result<Self, AddrError> {
        if depth == 0 {
            return Err(AddrError::InvalidShape {
                reason: "depth must be at least 1".to_string(),
            });
        }
        Self::new(vec![arity; depth])
    }

    /// Returns the depth `d` of the tree.
    pub fn depth(&self) -> Depth {
        self.arities.len()
    }

    /// Returns the arity `aᵢ` of the given 1-based level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds the depth.
    pub fn arity(&self, level: Depth) -> Component {
        assert!(
            level >= 1 && level <= self.depth(),
            "level {level} out of range 1..={}",
            self.depth()
        );
        self.arities[level - 1]
    }

    /// Returns all arities.
    pub fn arities(&self) -> &[Component] {
        &self.arities
    }

    /// Returns the maximum number of distinct addresses, `∏ aᵢ`.
    pub fn capacity(&self) -> u128 {
        self.arities.iter().map(|&a| a as u128).product()
    }

    /// Returns the number of distinct addresses sharing the given prefix.
    ///
    /// # Panics
    ///
    /// Panics if the prefix is deeper than the address space.
    pub fn capacity_under(&self, prefix: &Prefix) -> u128 {
        assert!(
            prefix.len() <= self.depth(),
            "prefix of {} components is too deep for depth {}",
            prefix.len(),
            self.depth()
        );
        self.arities[prefix.len()..]
            .iter()
            .map(|&a| a as u128)
            .product()
    }

    /// Validates that an address has exactly `d` components and that every
    /// component respects its level's arity.
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::DepthMismatch`] or
    /// [`AddrError::ComponentOutOfRange`] accordingly.
    pub fn validate(&self, address: &Address) -> Result<(), AddrError> {
        if address.depth() != self.depth() {
            return Err(AddrError::DepthMismatch {
                found: address.depth(),
                expected: self.depth(),
            });
        }
        for (idx, (&component, &arity)) in address
            .components()
            .iter()
            .zip(self.arities.iter())
            .enumerate()
        {
            if component >= arity {
                return Err(AddrError::ComponentOutOfRange {
                    level: idx + 1,
                    component,
                    arity,
                });
            }
        }
        Ok(())
    }

    /// Converts a dense index in `0..capacity()` to the corresponding
    /// address, enumerating addresses in lexicographic order.
    ///
    /// This is the canonical way simulations map a process index to an
    /// address in a fully populated regular tree.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn address_of_index(&self, index: u128) -> Address {
        assert!(
            index < self.capacity(),
            "index {index} out of range for capacity {}",
            self.capacity()
        );
        Address::build(self.depth(), |components| {
            let mut remainder = index;
            for (component, &arity) in components.iter_mut().zip(&self.arities).rev() {
                let arity = arity as u128;
                *component = (remainder % arity) as Component;
                remainder /= arity;
            }
        })
    }

    /// Returns the dense index range `[start, end)` of the addresses
    /// sharing the given prefix; every subtree occupies a contiguous range
    /// of the lexicographic index order.
    ///
    /// # Errors
    ///
    /// Returns an error if the prefix is not valid for this space.
    pub fn index_range_under(&self, prefix: &Prefix) -> Result<(u128, u128), AddrError> {
        // One pass over one borrow of the components: this sits under every
        // subtree interest probe of the gossip loop.
        let components = prefix.components();
        if components.len() > self.depth() {
            return Err(AddrError::PrefixTooDeep {
                found: components.len(),
                max: self.depth(),
            });
        }
        let base = self.checked_index(components)?;
        let below: u128 = self.arities[components.len()..]
            .iter()
            .map(|&a| a as u128)
            .product();
        let start = base * below;
        Ok((start, start + below))
    }

    /// Converts an address back to its dense lexicographic index.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is not valid for this space.
    pub fn index_of_address(&self, address: &Address) -> Result<u128, AddrError> {
        let components = address.components();
        if components.len() != self.depth() {
            return Err(AddrError::DepthMismatch {
                found: components.len(),
                expected: self.depth(),
            });
        }
        self.checked_index(components)
    }

    /// The mixed-radix value of a component sequence no longer than the
    /// depth, checking every component against its level's arity on the way.
    fn checked_index(&self, components: &[Component]) -> Result<u128, AddrError> {
        let mut index: u128 = 0;
        for (level, (&component, &arity)) in components.iter().zip(&self.arities).enumerate() {
            if component >= arity {
                return Err(AddrError::ComponentOutOfRange {
                    level: level + 1,
                    component,
                    arity,
                });
            }
            index = index * arity as u128 + component as u128;
        }
        Ok(index)
    }

    /// Returns an iterator over every address of the space in lexicographic
    /// order.  Intended for small spaces (tests, examples); the iterator is
    /// lazy so iteration can be truncated cheaply.
    pub fn iter(&self) -> AddressSpaceIter<'_> {
        AddressSpaceIter {
            space: self,
            upcoming: Address::build(self.depth(), |_| {}),
            remaining: self.capacity(),
        }
    }

    /// Enumerates the valid child components under a prefix, i.e.
    /// `0..a_{i}` where `i` is the level right below the prefix.
    ///
    /// # Panics
    ///
    /// Panics if the prefix already has `d` components (no level below).
    pub fn child_components(&self, prefix: &Prefix) -> impl Iterator<Item = Component> {
        assert!(
            prefix.len() < self.depth(),
            "prefix already addresses a leaf; no children below depth {}",
            self.depth()
        );
        0..self.arities[prefix.len()]
    }
}

/// Iterator over all addresses of an [`AddressSpace`], produced by
/// [`AddressSpace::iter`].
#[derive(Debug)]
pub struct AddressSpaceIter<'a> {
    space: &'a AddressSpace,
    /// The address the next call returns (all zeros to start with).
    upcoming: Address,
    remaining: u128,
}

impl Iterator for AddressSpaceIter<'_> {
    type Item = Address;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let address = self.upcoming.clone();
        // Advance like an odometer: enumerating a space costs an increment
        // per address, not a division per level.
        for (component, &arity) in self
            .upcoming
            .components_mut()
            .iter_mut()
            .zip(&self.space.arities)
            .rev()
        {
            *component += 1;
            if *component < arity {
                break;
            }
            *component = 0;
        }
        Some(address)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining.min(usize::MAX as u128) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for AddressSpaceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_space_shape() {
        let space = AddressSpace::regular(3, 22).unwrap();
        assert_eq!(space.depth(), 3);
        assert_eq!(space.capacity(), 22u128.pow(3));
        assert_eq!(space.arity(1), 22);
        assert_eq!(space.arity(3), 22);
    }

    #[test]
    fn irregular_space_shape() {
        let space = AddressSpace::new(vec![4, 8, 2]).unwrap();
        assert_eq!(space.capacity(), 64);
        assert_eq!(space.arities(), &[4, 8, 2]);
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(AddressSpace::new(vec![]).is_err());
        assert!(AddressSpace::new(vec![4, 0, 2]).is_err());
        assert!(AddressSpace::regular(0, 5).is_err());
        assert!(AddressSpace::regular(3, 0).is_err());
    }

    #[test]
    fn validate_addresses() {
        let space = AddressSpace::new(vec![4, 8, 2]).unwrap();
        assert!(space.validate(&"3.7.1".parse().unwrap()).is_ok());
        assert_eq!(
            space.validate(&"3.7".parse().unwrap()),
            Err(AddrError::DepthMismatch {
                found: 2,
                expected: 3
            })
        );
        assert_eq!(
            space.validate(&"4.7.1".parse().unwrap()),
            Err(AddrError::ComponentOutOfRange {
                level: 1,
                component: 4,
                arity: 4
            })
        );
        assert_eq!(
            space.validate(&"3.7.2".parse().unwrap()),
            Err(AddrError::ComponentOutOfRange {
                level: 3,
                component: 2,
                arity: 2
            })
        );
    }

    #[test]
    fn index_round_trip_small_space() {
        let space = AddressSpace::new(vec![3, 4, 2]).unwrap();
        for index in 0..space.capacity() {
            let address = space.address_of_index(index);
            assert!(space.validate(&address).is_ok());
            assert_eq!(space.index_of_address(&address).unwrap(), index);
        }
    }

    #[test]
    fn index_enumeration_is_lexicographic() {
        let space = AddressSpace::regular(2, 3).unwrap();
        let all: Vec<String> = space.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            all,
            vec!["0.0", "0.1", "0.2", "1.0", "1.1", "1.2", "2.0", "2.1", "2.2"]
        );
        assert_eq!(space.iter().len(), 9);
    }

    #[test]
    fn iteration_matches_the_index_arithmetic_on_irregular_and_deep_spaces() {
        // Nine levels: past the inline capacity of an address.
        for arities in [vec![4, 1, 3, 2], vec![2; 9]] {
            let space = AddressSpace::new(arities).unwrap();
            let mut iter = space.iter();
            for index in 0..space.capacity() {
                assert_eq!(iter.len() as u128, space.capacity() - index);
                assert_eq!(iter.next(), Some(space.address_of_index(index)));
            }
            assert_eq!(iter.next(), None);
            assert_eq!(iter.next(), None);
        }
    }

    #[test]
    fn capacity_under_prefix() {
        let space = AddressSpace::new(vec![4, 8, 2]).unwrap();
        assert_eq!(space.capacity_under(&Prefix::root()), 64);
        assert_eq!(space.capacity_under(&Prefix::from_components(vec![1])), 16);
        assert_eq!(
            space.capacity_under(&Prefix::from_components(vec![1, 5])),
            2
        );
    }

    #[test]
    fn child_components_enumeration() {
        let space = AddressSpace::new(vec![4, 8, 2]).unwrap();
        let children: Vec<_> = space
            .child_components(&Prefix::from_components(vec![2]))
            .collect();
        assert_eq!(children.len(), 8);
        assert_eq!(children[0], 0);
        assert_eq!(children[7], 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn address_of_index_out_of_range_panics() {
        let space = AddressSpace::regular(2, 2).unwrap();
        let _ = space.address_of_index(4);
    }

    #[test]
    fn ipv4_like_capacity() {
        let space = AddressSpace::new(vec![256, 256, 256, 256]).unwrap();
        assert_eq!(space.capacity(), 1u128 << 32);
        let addr = space.address_of_index(0x8078_4903);
        assert_eq!(addr.to_string(), "128.120.73.3");
    }
}
