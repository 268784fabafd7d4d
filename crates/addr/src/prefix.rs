use std::fmt;
use std::str::FromStr;

use crate::components::Components;
use crate::{AddrError, Address, Component};

/// A partial address `x(1).⋯.x(i−1)` denoting a subgroup of the tree.
///
/// Following the paper's convention a prefix with `k` components is said to
/// be of *depth* `k + 1`: the empty prefix (depth 1) denotes the root, a
/// single component (depth 2) denotes a depth-2 subgroup, and so on.  A full
/// address of a tree of depth `d` corresponds to a prefix with `d`
/// components.
///
/// Like an [`Address`], a prefix keeps up to seven components inline and
/// spills to the heap beyond, so deriving a child or an address's prefix
/// allocates nothing at the depths this workspace simulates.
///
/// # Example
///
/// ```rust
/// use pmcast_addr::{Address, Prefix};
///
/// let subnet = Prefix::from_components(vec![128, 178]);
/// assert_eq!(subnet.len(), 2);
/// let host: Address = "128.178.73.3".parse().unwrap();
/// assert!(host.has_prefix(&subnet));
/// assert_eq!(subnet.child(73), Prefix::from_components(vec![128, 178, 73]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    components: Components,
}

impl Default for Prefix {
    fn default() -> Self {
        Self::root()
    }
}

impl Prefix {
    /// Returns the empty (root) prefix, i.e. the prefix of depth 1 shared by
    /// every process in the group.
    pub fn root() -> Self {
        Self {
            components: Components::EMPTY,
        }
    }

    /// Creates a prefix from its components.
    pub fn from_components(components: Vec<Component>) -> Self {
        Self {
            components: Components::from_vec(components),
        }
    }

    pub(crate) fn from_slice(components: &[Component]) -> Self {
        Self {
            components: Components::from_slice(components),
        }
    }

    pub(crate) fn from_parts(components: Components) -> Self {
        Self { components }
    }

    /// Returns the number of components of the prefix.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` if this is the empty root prefix.
    pub fn is_empty(&self) -> bool {
        self.components.len() == 0
    }

    /// Returns the components of the prefix.
    #[inline]
    pub fn components(&self) -> &[Component] {
        self.components.as_slice()
    }

    /// Returns the prefix extended by one more component, denoting one of
    /// this subgroup's child subgroups.
    pub fn child(&self, component: Component) -> Prefix {
        Prefix {
            components: self.components.extended(&[component]),
        }
    }

}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            // The Debug/Display representation must never be empty.
            return write!(f, "∅");
        }
        self.components.fmt(f)
    }
}

impl FromStr for Prefix {
    type Err = AddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s == "∅" {
            return Ok(Prefix::root());
        }
        let address: Address = s.parse()?;
        Ok(address.as_prefix())
    }
}

impl From<&Address> for Prefix {
    fn from(address: &Address) -> Self {
        address.as_prefix()
    }
}

impl From<Vec<Component>> for Prefix {
    fn from(components: Vec<Component>) -> Self {
        Prefix::from_components(components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_prefix_properties() {
        let root = Prefix::root();
        assert!(root.is_empty());
        assert_eq!(root.len(), 0);
        assert_eq!(root.to_string(), "∅");
        assert_eq!(Prefix::default(), root);
    }

    #[test]
    fn child_extends_by_one_component() {
        let p = Prefix::from_components(vec![128, 178]);
        let c = p.child(73);
        assert_eq!(c.len(), 3);
        assert!(c.components().starts_with(p.components()));
        assert_eq!(c.components().last(), Some(&73));
    }

    #[test]
    fn parse_round_trip() {
        let p: Prefix = "128.178".parse().unwrap();
        assert_eq!(p, Prefix::from_components(vec![128, 178]));
        let root: Prefix = "".parse().unwrap();
        assert_eq!(root, Prefix::root());
        let root2: Prefix = "∅".parse().unwrap();
        assert_eq!(root2, Prefix::root());
        assert!("1..2".parse::<Prefix>().is_err());
    }

    #[test]
    fn ordering_groups_siblings() {
        let mut v = vec![
            Prefix::from_components(vec![2]),
            Prefix::from_components(vec![1, 5]),
            Prefix::root(),
            Prefix::from_components(vec![1]),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Prefix::root(),
                Prefix::from_components(vec![1]),
                Prefix::from_components(vec![1, 5]),
                Prefix::from_components(vec![2]),
            ]
        );
    }

    #[test]
    fn from_address() {
        let a: Address = "1.2.3".parse().unwrap();
        let p: Prefix = (&a).into();
        assert_eq!(p.components(), a.components());
    }
}
