use std::fmt;
use std::str::FromStr;

use crate::components::Components;
use crate::{AddrError, Component, Depth, Prefix};

/// A complete process address `x(1).x(2).⋯.x(d)`.
///
/// Addresses identify processes and encode their position in the compound
/// spanning tree: the first component selects a depth-1 subgroup, the first
/// two components a depth-2 subgroup, and so on (Section 2.2 of the paper).
/// They are totally ordered lexicographically, which is what makes the
/// *smallest-addresses-first* delegate election deterministic across
/// processes without any agreement protocol.
///
/// The components are stored inline for trees up to seven levels deep (and
/// on the heap beyond), so building, cloning and dropping an address
/// allocates nothing at any depth this workspace simulates.
///
/// # Example
///
/// ```rust
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use pmcast_addr::Address;
///
/// let addr: Address = "128.178.73".parse()?;
/// assert_eq!(addr.depth(), 3);
/// assert_eq!(addr.components()[1], 178);
/// assert_eq!(addr.to_string(), "128.178.73");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address {
    components: Components,
}

impl Address {
    /// Creates an address from its components.
    ///
    /// The component vector must be non-empty; validation against a concrete
    /// [`crate::AddressSpace`] (depth and per-level arity) is performed
    /// separately by [`crate::AddressSpace::validate`].
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty; an address always has at least one
    /// component.
    pub fn new(components: Vec<Component>) -> Self {
        Self::from_parts(Components::from_vec(components))
    }

    /// Builds an address of `depth` components in place: `fill` receives
    /// the zeroed component slice.
    pub(crate) fn build(depth: Depth, fill: impl FnOnce(&mut [Component])) -> Self {
        Self::from_parts(Components::build(depth, fill))
    }

    pub(crate) fn from_parts(components: Components) -> Self {
        assert!(
            components.len() > 0,
            "an address must have at least one component"
        );
        Self { components }
    }

    /// Returns the number of components, i.e. the depth `d` of the tree this
    /// address lives in.
    pub fn depth(&self) -> Depth {
        self.components.len()
    }

    /// Returns all components as a slice.
    #[inline]
    pub fn components(&self) -> &[Component] {
        self.components.as_slice()
    }

    pub(crate) fn components_mut(&mut self) -> &mut [Component] {
        self.components.as_mut_slice()
    }

    /// Returns the prefix of the given *depth* (1-based, as in the paper):
    /// the prefix of depth `i` consists of the first `i − 1` components and
    /// denotes the subgroup of depth `i` this address belongs to.
    ///
    /// `prefix_of_depth(1)` is the empty (root) prefix; `prefix_of_depth(d)`
    /// contains all but the last component.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds `self.depth()`.
    pub fn prefix_of_depth(&self, depth: Depth) -> Prefix {
        assert!(
            depth >= 1 && depth <= self.depth(),
            "depth {depth} out of range 1..={}",
            self.depth()
        );
        Prefix::from_slice(&self.components()[..depth - 1])
    }

    /// Returns the full address viewed as a prefix (all `d` components).
    pub fn as_prefix(&self) -> Prefix {
        Prefix::from_parts(self.components.clone())
    }

    /// Returns `true` if this address starts with the given prefix, i.e. the
    /// process belongs to the subgroup denoted by `prefix`.
    pub fn has_prefix(&self, prefix: &Prefix) -> bool {
        prefix.len() <= self.depth()
            && prefix
                .components()
                .iter()
                .zip(self.components())
                .all(|(p, c)| p == c)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.components.fmt(f)
    }
}

impl FromStr for Address {
    type Err = AddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(AddrError::Parse {
                input: s.to_string(),
                reason: "empty string".to_string(),
            });
        }
        let mut components = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(AddrError::Parse {
                    input: s.to_string(),
                    reason: "empty component".to_string(),
                });
            }
            let value: Component = part.parse().map_err(|_| AddrError::Parse {
                input: s.to_string(),
                reason: format!("component {part:?} is not a non-negative integer"),
            })?;
            components.push(value);
        }
        Ok(Address::new(components))
    }
}

impl From<Vec<Component>> for Address {
    fn from(components: Vec<Component>) -> Self {
        Address::new(components)
    }
}

impl<const N: usize> From<[Component; N]> for Address {
    fn from(components: [Component; N]) -> Self {
        Self::from_parts(Components::from_slice(&components))
    }
}

impl AsRef<[Component]> for Address {
    fn as_ref(&self) -> &[Component] {
        self.components()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Address {
        s.parse().expect("test address must parse")
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1.2.3", "128.178.73.3", "21.0.0.7.9"] {
            assert_eq!(addr(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for s in ["", ".", "1..2", "a.b", "-1.2", "1.2.", ".1.2", "1,2"] {
            assert!(s.parse::<Address>().is_err(), "input {s:?} should not parse");
        }
    }

    #[test]
    fn depth_and_components() {
        let a = addr("3.17.5");
        assert_eq!(a.depth(), 3);
        assert_eq!(a.components(), &[3, 17, 5]);
    }

    #[test]
    fn prefix_of_depth_matches_paper_convention() {
        let a = addr("128.178.73.3");
        // Depth-1 prefix is the empty root prefix.
        assert_eq!(a.prefix_of_depth(1), Prefix::root());
        assert_eq!(a.prefix_of_depth(2), Prefix::from_components(vec![128]));
        assert_eq!(
            a.prefix_of_depth(4),
            Prefix::from_components(vec![128, 178, 73])
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_of_depth_zero_panics() {
        addr("1.2.3").prefix_of_depth(0);
    }

    #[test]
    fn has_prefix() {
        let a = addr("128.178.73.3");
        assert!(a.has_prefix(&Prefix::root()));
        assert!(a.has_prefix(&Prefix::from_components(vec![128, 178])));
        assert!(a.has_prefix(&a.as_prefix()));
        assert!(!a.has_prefix(&Prefix::from_components(vec![128, 177])));
        assert!(!a.has_prefix(&Prefix::from_components(vec![128, 178, 73, 3, 1])));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [addr("2.0.0"), addr("1.9.9"), addr("1.10.0"), addr("1.9.10")];
        v.sort();
        let rendered: Vec<String> = v.iter().map(|a| a.to_string()).collect();
        assert_eq!(rendered, vec!["1.9.9", "1.9.10", "1.10.0", "2.0.0"]);
    }

    #[test]
    fn conversions() {
        let a: Address = vec![1, 2, 3].into();
        let b: Address = [1u32, 2, 3].into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn addresses_deeper_than_the_inline_capacity_behave_alike() {
        let deep = addr("1.2.3.4.5.6.7.8.9.10");
        assert_eq!(deep.depth(), 10);
        assert_eq!(deep.to_string(), "1.2.3.4.5.6.7.8.9.10");
        assert_eq!(deep.prefix_of_depth(10).len(), 9);
        assert_eq!(deep.prefix_of_depth(10).child(10), deep.as_prefix());
        assert!(deep.has_prefix(&deep.prefix_of_depth(9)));
        assert!(addr("1.2.3.4.5.6.7.8.9.9") < deep && deep < addr("1.2.3.4.5.6.7.9"));
        assert_eq!(deep.clone(), Address::new(deep.components().to_vec()));
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_address_panics() {
        let _ = Address::new(vec![]);
    }
}
