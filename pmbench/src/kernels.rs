//! `pmbench kernels`: nanoseconds per call into one public function.
//!
//! `simnet.step` contains the protocol's handlers, the membership probes,
//! the dedup inserts and the loss draws, inseparable from outside the
//! crates; these kernels say what each part costs on its own.  They are
//! the four that `crates/bench/benches/micro.rs` does not have — the
//! guards there stay where they are and keep their `CRITERION_JSON` names.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pmcast_interest::{EventId, EventIdSet};
use pmcast_membership::{DelegateView, DelegateViewConfig, LazyDelegateView, MembershipView};
use pmcast_simnet::{Envelope, ProcessId, RoundNetwork};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::metrics::median;

/// Samples behind every median.
const SAMPLES: usize = 10;

/// One kernel's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Layer-prefixed name, unit suffix included.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median over ten samples.
    pub value: f64,
}

/// Median nanoseconds per call of `body` over [`SAMPLES`] samples of
/// `calls` calls each, after one untimed sample.
fn ns_per_call(calls: u64, mut body: impl FnMut()) -> f64 {
    let mut sample = || {
        let started = Instant::now();
        for _ in 0..calls {
            body();
        }
        started.elapsed().as_nanos() as f64 / calls as f64
    };
    sample();
    median(&(0..SAMPLES).map(|_| sample()).collect::<Vec<f64>>())
}

/// One insert into an [`EventIdSet`] growing to 10 000 identifiers that
/// arrive ascending with local disorder — a process's dedup set over a
/// `topics_*` trial.
fn idset_insert() -> Kernel {
    const IDS: u64 = 10_000;
    let value = ns_per_call(1, || {
        let mut set = EventIdSet::new();
        for id in 0..IDS {
            // Permute within blocks of 32: gossip delivers ids roughly in
            // publish order, never exactly.
            set.insert(EventId(10_000 + (id ^ 0x1F)));
        }
        black_box(set.len());
    }) / IDS as f64;
    Kernel {
        name: "interest.idset_insert_ns",
        unit: "ns",
        value,
    }
}

/// `RoundNetwork::send` plus its share of `deliver_round_into`: the loss
/// draw and the envelope move every simulated message pays.
fn send_deliver() -> Kernel {
    const PROCESSES: usize = 1024;
    const MESSAGES: usize = 10_000;
    let mut network: RoundNetwork<u64> =
        RoundNetwork::new(PROCESSES, 0.01, ChaCha8Rng::seed_from_u64(5));
    let mut delivered: Vec<Envelope<u64>> = Vec::with_capacity(MESSAGES);
    let value = ns_per_call(1, || {
        for message in 0..MESSAGES {
            let from = ProcessId(message % PROCESSES);
            let to = ProcessId((message * 7 + 1) % PROCESSES);
            network.send(from, to, message as u64, 64);
        }
        delivered.clear();
        network.deliver_round_into(&mut delivered);
        black_box(delivered.len());
    }) / MESSAGES as f64;
    Kernel {
        name: "simnet.send_deliver_ns",
        unit: "ns",
        value,
    }
}

/// The `delegate_draw` guard of `micro.rs` against the lazy provider: one
/// depth's candidate list through `knows_at_depth` (arithmetic per probe
/// instead of a table lookup), then four Fisher–Yates picks.
fn lazy_draw() -> Kernel {
    let view: Arc<dyn MembershipView> = Arc::new(LazyDelegateView::new(8, 3, 3, None));
    let targets: Vec<usize> = (0..8usize)
        .flat_map(|group| (0..3usize).map(move |slot| group * 8 + slot))
        .collect();
    let mut candidates: Vec<usize> = Vec::with_capacity(targets.len());
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let value = ns_per_call(100_000, || {
        let own = 37usize;
        candidates.clear();
        candidates.extend(
            targets
                .iter()
                .copied()
                .filter(|&peer| peer != own && view.knows_at_depth(own, 2, peer)),
        );
        let mut acc = 0usize;
        for slot in 0..4.min(candidates.len()) {
            let swap = rng.gen_range(slot..candidates.len());
            candidates.swap(slot, swap);
            acc += candidates[slot];
        }
        black_box(acc);
    });
    Kernel {
        name: "membership.lazy_draw_ns",
        unit: "ns",
        value,
    }
}

/// One `MembershipView::round_elapsed` of the `delegate(3)` tables at
/// n = 22³ — what `paper_delegate` pays every simulated round.
fn delegate_round() -> Kernel {
    let view = DelegateView::bootstrap(22, 3, DelegateViewConfig::default().with_slots(3), 17);
    let value = ns_per_call(1, || view.round_elapsed()) / 1e3;
    Kernel {
        name: "membership.delegate_round_us",
        unit: "us",
        value,
    }
}

/// Runs every kernel.
pub fn all() -> Vec<Kernel> {
    vec![
        idset_insert(),
        send_deliver(),
        lazy_draw(),
        delegate_round(),
    ]
}

/// `pmbench kernels`: one line per kernel.
pub fn main() {
    for kernel in all() {
        println!("{:<32} {:>14.3} {}", kernel.name, kernel.value, kernel.unit);
    }
}
