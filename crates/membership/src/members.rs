//! [`Addresses`]: who is at each dense simulation identifier.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use pmcast_addr::{Address, AddressSpace, Prefix};

use crate::TreeTopology;

/// The members' addresses by dense simulation identifier (address order),
/// without a full tree's array: when the members fill their address space,
/// identifier `i` is the space's index `i`, and its address is computed
/// when asked.  Any other topology lists its members.  A full tree's
/// addresses are written out only by [`get`](Self::get), the one question
/// that must borrow an address, and kept from then on; clones share one
/// map, and with it what `get` wrote.
#[derive(Clone)]
pub struct Addresses(Arc<AddressMap>);

struct AddressMap {
    space: AddressSpace,
    len: usize,
    /// Whether the members fill `space`, so identifier `i` is index `i`.
    full: bool,
    /// Every member's address in identifier order: a sparse topology's from
    /// the start, a full one's once [`Addresses::get`] was asked.
    listed: OnceLock<Vec<Address>>,
}

impl Addresses {
    /// The members of `topology`, numbered in address order.
    pub fn of<T: TreeTopology + ?Sized>(topology: &T) -> Self {
        let (space, len) = (topology.space().clone(), topology.member_count());
        let full = len as u128 == space.capacity();
        let listed = if full {
            OnceLock::new()
        } else {
            let members = topology.members();
            debug_assert!(members.windows(2).all(|pair| pair[0] < pair[1]));
            OnceLock::from(members)
        };
        Self(Arc::new(AddressMap { space, len, full, listed }))
    }

    /// The address space the members live in.
    pub fn space(&self) -> &AddressSpace {
        &self.0.space
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.0.len
    }

    /// The addresses written out so far, in identifier order: a sparse
    /// topology's always, a full tree's once [`get`](Self::get) wrote them.
    fn listed(&self) -> Option<&[Address]> {
        self.0.listed.get().map(Vec::as_slice)
    }

    /// Member `id`'s index in the address space: what an interest oracle
    /// is asked about.  No address is read or built for a full tree.
    pub fn index(&self, id: usize) -> u128 {
        if self.0.full {
            return id as u128;
        }
        let address = &self.listed().expect("a sparse topology lists its members")[id];
        self.0.space.index_of_address(address).expect("members are valid for their space")
    }

    /// Member `id`'s address: borrowed where one is written, computed
    /// otherwise.
    pub fn address(&self, id: usize) -> Cow<'_, Address> {
        match self.listed() {
            Some(listed) => Cow::Borrowed(&listed[id]),
            None => Cow::Owned(self.0.space.address_of_index(id as u128)),
        }
    }

    /// Member `id`'s address, borrowed: a full tree writes every member's
    /// out at the first call and keeps them for the life of the map.
    pub fn get(&self, id: usize) -> &Address {
        let listed = self.0.listed.get_or_init(|| self.0.space.iter().collect());
        &listed[id]
    }

    /// The identifier of a member's address.
    ///
    /// # Panics
    ///
    /// Panics if the address is not a member's.
    pub fn id_of(&self, address: &Address) -> usize {
        let id = if self.0.full {
            self.0.space.index_of_address(address).map(|index| index as usize).ok()
        } else {
            self.listed().and_then(|listed| listed.binary_search(address).ok())
        };
        id.expect("not a member's address")
    }

    /// The identifiers of the members below `prefix`: every subtree is a
    /// contiguous run of the address order.
    pub fn ids_under(&self, prefix: &Prefix) -> Range<usize> {
        if self.0.full {
            let range = self.0.space.index_range_under(prefix);
            let (low, high) = range.expect("a populated prefix is valid for its space");
            return low as usize..high as usize;
        }
        let listed = self.listed().expect("a sparse topology lists its members");
        let under = |member: &Address| member.components()[..prefix.len()].cmp(prefix.components());
        listed.partition_point(|address| under(address).is_lt())
            ..listed.partition_point(|address| under(address).is_le())
    }
}

/// Equal to a list of every member's address in identifier order.
impl PartialEq<Vec<Address>> for Addresses {
    fn eq(&self, other: &Vec<Address>) -> bool {
        self.member_count() == other.len()
            && other.iter().enumerate().all(|(id, address)| *self.address(id) == *address)
    }
}

impl std::fmt::Debug for Addresses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Addresses")
            .field("space", &self.0.space)
            .field("len", &self.0.len)
            .field("written", &self.listed().is_some())
            .finish()
    }
}
