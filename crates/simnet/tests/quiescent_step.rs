//! A step of a quiescent group drives no process and allocates nothing: the
//! engine sweeps its active set, and nobody is in it.  The dense sweep that
//! visits everybody, or a step that allocates its buffers afresh, fails
//! here.  An integration-test crate of its own so the counting
//! `#[global_allocator]` (and the `unsafe` it needs) stays outside the
//! `#![forbid(unsafe_code)]` library; counts are per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmcast_simnet::{NetworkConfig, ProcessId, RoundContext, RoundProcess, Simulation};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract (the provided `realloc` and
// `alloc_zeroed` go through them); the counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator outlives the thread-local during teardown.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are passed on verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Passes a token on to `next` in its round while `hops` are left, and
/// counts the rounds it is driven.
struct Relay {
    next: usize,
    hops: u32,
    rounds: u32,
}

impl RoundProcess for Relay {
    type Message = u32;

    fn on_round(&mut self, ctx: &mut RoundContext<'_, u32>) {
        self.rounds += 1;
        if self.hops > 0 {
            ctx.send(ProcessId(self.next), self.hops - 1);
            self.hops = 0;
        }
    }

    fn on_message(&mut self, hops: u32, _: &mut RoundContext<'_, u32>) {
        self.hops = hops;
    }

    fn is_quiescent(&self) -> bool {
        self.hops == 0
    }
}

#[test]
fn a_step_of_a_quiescent_group_drives_no_process_and_allocates_nothing() {
    // 22^3 relays; a token goes 50 hops and the group falls quiet.
    let n = 10_648;
    let relays = (0..n).map(|at| Relay { next: (at * 7 + 1) % n, hops: 0, rounds: 0 });
    let mut sim = Simulation::new(relays.collect(), NetworkConfig::reliable(1));
    sim.process_mut(ProcessId(0)).hops = 50;
    sim.run_until_quiescent(100);
    let driven = |sim: &Simulation<Relay>| sim.processes().map(|relay| relay.rounds).sum::<u32>();
    assert!(sim.is_quiescent() && driven(&sim) > 50);
    let before = (driven(&sim), ALLOCATIONS.with(Cell::get));
    for _ in 0..100 {
        sim.step();
    }
    assert!(sim.is_quiescent());
    assert_eq!((driven(&sim), ALLOCATIONS.with(Cell::get)), before);
}
