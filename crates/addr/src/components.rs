use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::Component;

/// Number of components stored inline; deeper sequences spill to the heap,
/// so no depth limit appears anywhere.
pub(crate) const INLINE_LEVELS: usize = 7;

/// The component sequence behind [`crate::Address`] and [`crate::Prefix`].
///
/// A trial of `n` processes builds several `n` of these (member lists,
/// interest assignments, view targets, the per-process address), and every
/// tree this workspace simulates is at most a handful of levels deep, so
/// the components live inline and an address costs no heap allocation.
///
/// The representation is canonical — at most [`INLINE_LEVELS`] components
/// are always inline with the unused tail zeroed, more are always on the
/// heap — so two equal sequences are also structurally equal.  Ordering
/// and hashing are those of the component slice, exactly as when the
/// sequence was a `Vec<Component>`.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Components {
    Inline {
        len: u8,
        buf: [Component; INLINE_LEVELS],
    },
    Heap(Box<[Component]>),
}

impl Components {
    pub(crate) const EMPTY: Components = Components::Inline {
        len: 0,
        buf: [0; INLINE_LEVELS],
    };

    /// A zeroed sequence of `len` components, filled in place by `fill`.
    pub(crate) fn build(len: usize, fill: impl FnOnce(&mut [Component])) -> Self {
        if len <= INLINE_LEVELS {
            let mut buf = [0; INLINE_LEVELS];
            fill(&mut buf[..len]);
            Components::Inline {
                len: len as u8,
                buf,
            }
        } else {
            let mut heap = vec![0; len].into_boxed_slice();
            fill(&mut heap);
            Components::Heap(heap)
        }
    }

    pub(crate) fn from_slice(components: &[Component]) -> Self {
        Self::build(components.len(), |out| out.copy_from_slice(components))
    }

    pub(crate) fn from_vec(components: Vec<Component>) -> Self {
        if components.len() <= INLINE_LEVELS {
            Self::from_slice(&components)
        } else {
            Components::Heap(components.into_boxed_slice())
        }
    }

    /// `self` followed by `suffix`.
    pub(crate) fn extended(&self, suffix: &[Component]) -> Self {
        let own = self.as_slice();
        Self::build(own.len() + suffix.len(), |out| {
            out[..own.len()].copy_from_slice(own);
            out[own.len()..].copy_from_slice(suffix);
        })
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[Component] {
        match self {
            // The mask keeps the length provably within the buffer, so the
            // inline arm carries no bounds check: one predictable branch on
            // the variant is all an access costs.
            Components::Inline { len, buf } => &buf[..*len as usize & INLINE_LEVELS],
            Components::Heap(heap) => heap,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [Component] {
        match self {
            Components::Inline { len, buf } => &mut buf[..*len as usize & INLINE_LEVELS],
            Components::Heap(heap) => heap,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Components::Inline { len, .. } => *len as usize,
            Components::Heap(heap) => heap.len(),
        }
    }
}

// `len & INLINE_LEVELS` is the identity on `0..=INLINE_LEVELS` only while
// the capacity is one below a power of two.
const _: () = assert!((INLINE_LEVELS + 1).is_power_of_two() && INLINE_LEVELS <= u8::MAX as usize);

impl PartialOrd for Components {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Components {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Components {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Components {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Writes the components dot-separated (`128.178.73`); nothing for an empty
/// sequence.
impl fmt::Display for Components {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (position, component) in self.as_slice().iter().enumerate() {
            if position > 0 {
                write!(f, ".")?;
            }
            write!(f, "{component}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn every_length_round_trips_across_the_spill_boundary() {
        for len in 0..=2 * INLINE_LEVELS {
            let source: Vec<Component> = (0..len as Component).map(|c| c * 3 + 1).collect();
            let built = Components::from_slice(&source);
            assert_eq!(built.as_slice(), source.as_slice());
            assert_eq!(built.len(), len);
            assert_eq!(
                matches!(built, Components::Inline { .. }),
                len <= INLINE_LEVELS
            );
            // Every producer lands on the same canonical representation.
            assert_eq!(Components::from_vec(source.clone()), built);
            assert_eq!(built.clone(), built);
            let split = len / 2;
            assert_eq!(
                Components::from_slice(&source[..split]).extended(&source[split..]),
                built
            );
        }
    }

    #[test]
    fn order_and_hash_are_those_of_the_slice() {
        let samples: Vec<Vec<Component>> = vec![
            vec![],
            vec![0],
            vec![1, 9, 9],
            vec![1, 9, 10],
            vec![1, 10],
            vec![2],
            (0..9).collect(),
            (0..10).collect(),
        ];
        for a in &samples {
            for b in &samples {
                let (ca, cb) = (Components::from_slice(a), Components::from_slice(b));
                assert_eq!(ca.cmp(&cb), a.cmp(b));
                assert_eq!(ca == cb, a == b);
            }
            assert_eq!(hash_of(&Components::from_slice(a)), hash_of(a));
        }
    }
}
