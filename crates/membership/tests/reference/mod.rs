//! The `DelegateView` state machine as it stood before rounds learned to
//! skip settled tables and seek the stream (ISSUE 13), kept as the reference
//! the differential property test steps beside the provider.
//!
//! The logic is a verbatim copy — every candidate is re-filed into every
//! table every round, the ring successor is found by scanning, liveness is a
//! flag vector — minus the lock, the interest annex and the documentation
//! (see `src/delegate.rs` for the design).  The one addition is
//! [`ReferenceDelegateView::stale_contacts`], which counts how often the
//! round loop's evict-on-contact branch ran: the provider dropped that
//! branch on the claim that it never does.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct TreeShape {
    arity: usize,
    depth: usize,
    pows: Vec<usize>,
    slots: usize,
}

impl TreeShape {
    fn new(arity: usize, depth: usize, slots: usize) -> Self {
        let pows = (0..=depth as u32).map(|k| arity.pow(k)).collect();
        Self {
            arity,
            depth,
            pows,
            slots,
        }
    }

    fn member_count(&self) -> usize {
        self.pows[self.depth]
    }

    fn digit(&self, i: usize, k: usize) -> usize {
        (i / self.pows[self.depth - 1 - k]) % self.arity
    }

    fn common_prefix(&self, p: usize, q: usize) -> usize {
        (0..self.depth)
            .take_while(|&k| self.digit(p, k) == self.digit(q, k))
            .count()
    }

    fn table_len(&self) -> usize {
        (self.depth - 1) * self.arity * self.slots + self.arity
    }

    fn group_range(&self, l: usize, g: usize) -> std::ops::Range<usize> {
        if l == self.depth {
            let start = (self.depth - 1) * self.arity * self.slots + g;
            start..start + 1
        } else {
            let start = ((l - 1) * self.arity + g) * self.slots;
            start..start + self.slots
        }
    }

    fn subgroup_base(&self, q: usize, l: usize, g: usize) -> usize {
        let span = self.pows[self.depth - l + 1];
        (q / span) * span + g * self.pows[self.depth - l]
    }

    fn subgroup_size(&self, l: usize) -> usize {
        self.pows[self.depth - l]
    }
}

/// The pre-certificate `DelegateView`, single-threaded.
#[derive(Debug)]
pub struct ReferenceDelegateView {
    gossip_fanout: usize,
    digest_size: usize,
    shape: TreeShape,
    tables: Vec<Vec<u32>>,
    flat: Vec<Vec<u32>>,
    contact: Vec<u32>,
    alive: Vec<bool>,
    live: usize,
    pending_dead: Vec<u32>,
    rng: ChaCha8Rng,
    /// Times a round picked a dead target and evicted it on contact.
    pub stale_contacts: usize,
}

impl ReferenceDelegateView {
    pub fn bootstrap_sparse(
        arity: u32,
        depth: usize,
        slots: usize,
        gossip_fanout: usize,
        digest_size: usize,
        seed: u64,
        occupied: &[bool],
    ) -> Self {
        let shape = TreeShape::new(arity as usize, depth, slots);
        let n = shape.member_count();
        assert_eq!(occupied.len(), n);
        let live = occupied.iter().filter(|&&o| o).count();
        let next_occupied = |q: usize| {
            (1..n)
                .map(|offset| (q + offset) % n)
                .find(|&j| occupied[j])
                .unwrap_or((q + 1) % n.max(1)) as u32
        };
        let mut tables = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for q in 0..n {
            let mut table = vec![EMPTY; shape.table_len()];
            let mut known: Vec<u32> = Vec::new();
            if occupied[q] {
                for l in 1..=depth {
                    for g in 0..shape.arity {
                        let base = shape.subgroup_base(q, l, g);
                        let size = shape.subgroup_size(l);
                        let range = shape.group_range(l, g);
                        let mut slot = range.start;
                        for (member, discovered) in
                            seen.iter_mut().enumerate().skip(base).take(size)
                        {
                            if member == q || !occupied[member] {
                                continue;
                            }
                            if slot == range.end {
                                break;
                            }
                            table[slot] = member as u32;
                            slot += 1;
                            if !*discovered {
                                *discovered = true;
                                known.push(member as u32);
                            }
                        }
                    }
                }
                let contact = next_occupied(q);
                if live > 1 && !seen[contact as usize] {
                    known.push(contact);
                }
                for &member in &known {
                    seen[member as usize] = false;
                }
            }
            tables.push(table);
            flat.push(known);
        }
        Self {
            gossip_fanout,
            digest_size,
            shape,
            tables,
            flat,
            contact: (0..n).map(next_occupied).collect(),
            alive: occupied.to_vec(),
            live,
            pending_dead: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            stale_contacts: 0,
        }
    }

    fn next_live(&self, of: usize) -> Option<usize> {
        let n = self.alive.len();
        (1..n).map(|offset| (of + offset) % n).find(|&i| self.alive[i])
    }

    fn table_contains(&self, q: usize, peer: usize) -> bool {
        let cp = self.shape.common_prefix(q, peer);
        let deepest = (cp + 1).min(self.shape.depth);
        (1..=deepest).any(|l| {
            let g = self.shape.digit(peer, l - 1);
            self.tables[q][self.shape.group_range(l, g)].contains(&(peer as u32))
        })
    }

    fn maybe_drop_from_flat(&mut self, q: usize, peer: usize) {
        if self.contact[q] as usize == peer || self.table_contains(q, peer) {
            return;
        }
        if let Some(pos) = self.flat[q].iter().position(|&e| e as usize == peer) {
            self.flat[q].swap_remove(pos);
        }
    }

    fn admit_at_level(&mut self, q: usize, l: usize, peer: usize) -> bool {
        let g = self.shape.digit(peer, l - 1);
        let range = self.shape.group_range(l, g);
        let peer = peer as u32;
        let group = &mut self.tables[q][range];
        if group.contains(&peer) {
            return false;
        }
        let last = group.len() - 1;
        let evicted = group[last];
        if peer >= evicted {
            return false;
        }
        let pos = group.partition_point(|&e| e < peer);
        group[pos..].rotate_right(1);
        group[pos] = peer;
        if evicted != EMPTY {
            self.maybe_drop_from_flat(q, evicted as usize);
        }
        true
    }

    fn admit_peer(&mut self, q: usize, peer: usize) {
        if q == peer {
            return;
        }
        let cp = self.shape.common_prefix(q, peer);
        let deepest = (cp + 1).min(self.shape.depth);
        let mut admitted = false;
        for l in 1..=deepest {
            admitted |= self.admit_at_level(q, l, peer);
        }
        if admitted && !self.flat[q].contains(&(peer as u32)) {
            self.flat[q].push(peer as u32);
        }
    }

    fn evict_from_table(&mut self, q: usize, x: usize) {
        let cp = self.shape.common_prefix(q, x);
        let deepest = (cp + 1).min(self.shape.depth);
        for l in 1..=deepest {
            let g = self.shape.digit(x, l - 1);
            let range = self.shape.group_range(l, g);
            let group = &mut self.tables[q][range.clone()];
            let Some(pos) = group.iter().position(|&e| e as usize == x) else {
                continue;
            };
            group[pos..].rotate_left(1);
            let last = group.len() - 1;
            group[last] = EMPTY;
            if l == self.shape.depth {
                continue;
            }
            let base = self.shape.subgroup_base(q, l, g);
            let size = self.shape.subgroup_size(l);
            let mut candidate: Option<usize> = None;
            for &e in &self.flat[q] {
                let e = e as usize;
                if e != q
                    && e >= base
                    && e < base + size
                    && self.alive[e]
                    && candidate.is_none_or(|best| e < best)
                    && !self.tables[q][range.clone()].contains(&(e as u32))
                {
                    candidate = Some(e);
                }
            }
            if let Some(winner) = candidate {
                self.admit_at_level(q, l, winner);
            }
        }
    }

    fn evict_everywhere(&mut self, x: usize) {
        for q in 0..self.alive.len() {
            if q == x {
                continue;
            }
            self.evict_from_table(q, x);
            if let Some(pos) = self.flat[q].iter().position(|&e| e as usize == x) {
                self.flat[q].swap_remove(pos);
            }
            if self.alive[q] && self.contact[q] as usize == x {
                self.pin_contact(q);
            }
        }
    }

    fn pin_to(&mut self, q: usize, peer: usize) {
        self.contact[q] = peer as u32;
        self.admit_peer(q, peer);
        if !self.flat[q].contains(&(peer as u32)) {
            self.flat[q].push(peer as u32);
        }
    }

    fn pin_contact(&mut self, q: usize) {
        if let Some(successor) = self.next_live(q) {
            self.pin_to(q, successor);
        }
    }

    pub fn round_elapsed(&mut self) {
        while let Some(x) = self.pending_dead.pop() {
            self.evict_everywhere(x as usize);
        }
        let n = self.alive.len();
        for sender in 0..n {
            if !self.alive[sender] {
                continue;
            }
            for _ in 0..self.gossip_fanout {
                if self.flat[sender].is_empty() {
                    break;
                }
                let pick = self.rng.gen_range(0..self.flat[sender].len());
                let target = self.flat[sender][pick] as usize;
                if !self.alive[target] {
                    self.stale_contacts += 1;
                    self.flat[sender].swap_remove(pick);
                    self.evict_from_table(sender, target);
                    continue;
                }
                self.admit_peer(target, sender);
                for _ in 0..self.digest_size {
                    let len = self.flat[sender].len();
                    let candidate = self.flat[sender][self.rng.gen_range(0..len)] as usize;
                    if candidate != target && self.alive[candidate] {
                        self.admit_peer(target, candidate);
                    }
                }
            }
        }
    }

    pub fn observe_join(&mut self, process: usize) {
        if self.alive[process] {
            return;
        }
        self.alive[process] = true;
        self.live += 1;
        self.pending_dead.retain(|&x| x as usize != process);
        self.pin_contact(process);
        let n = self.alive.len();
        if let Some(offset) = (1..n).find(|offset| self.alive[(process + n - offset) % n]) {
            let predecessor = (process + n - offset) % n;
            if predecessor != process {
                self.pin_to(predecessor, process);
            }
        }
    }

    pub fn observe_leave(&mut self, process: usize) {
        if !self.alive[process] {
            return;
        }
        self.alive[process] = false;
        self.live -= 1;
        self.evict_everywhere(process);
        for slot in self.tables[process].iter_mut() {
            *slot = EMPTY;
        }
        self.flat[process].clear();
    }

    pub fn observe_crash(&mut self, process: usize) {
        if !self.alive[process] {
            return;
        }
        self.alive[process] = false;
        self.live -= 1;
        self.pending_dead.push(process as u32);
    }

    pub fn estimated_size(&self) -> usize {
        self.live
    }

    pub fn is_live(&self, process: usize) -> bool {
        self.alive[process]
    }

    /// `flat[of]`, in enumeration order.
    pub fn peers(&self, of: usize) -> Vec<usize> {
        self.flat[of].iter().map(|&e| e as usize).collect()
    }

    pub fn contact_of(&self, process: usize) -> usize {
        self.contact[process] as usize
    }

    pub fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        if of == peer || depth > self.shape.depth || depth == 0 {
            return false;
        }
        if self.shape.common_prefix(of, peer) + 1 < depth {
            return false;
        }
        let g = self.shape.digit(peer, depth - 1);
        self.tables[of][self.shape.group_range(depth, g)].contains(&(peer as u32))
    }

    pub fn stream_word_pos(&self) -> u128 {
        self.rng.get_word_pos()
    }
}
