//! Membership maintenance under churn (Section 2.3 of the paper), shown on
//! the provider the engines run: a [`DelegateView`] is driven by hand
//! through a join, a graceful leave, a crash and a rejoin, with one
//! `round_elapsed` per membership gossip round.
//!
//! ```text
//! cargo run --example membership_churn
//! ```

use std::error::Error;

use pmcast::{AddressSpace, DelegateView, DelegateViewConfig, MembershipView};

/// The live processes whose depth-1 slot group for root subgroup `g` seats
/// `process`.
fn seated_by(view: &DelegateView, members: usize, g: usize, process: usize) -> usize {
    (0..members)
        .filter(|&q| q != process && view.is_live(q))
        .filter(|&q| view.live_delegates_of(q, 1, g).contains(&process))
        .count()
}

fn main() -> Result<(), Box<dyn Error>> {
    // A 4-ary tree of depth 2: 16 addresses, the first 12 occupied at
    // bootstrap (root subgroup 3 starts empty), R = 2 delegates per
    // subgroup.
    let space = AddressSpace::regular(2, 4)?;
    let n = space.capacity() as usize;
    let name = |process: usize| space.address_of_index(process as u128);
    let names = |processes: Vec<usize>| {
        let rendered: Vec<String> = processes.into_iter().map(|p| name(p).to_string()).collect();
        format!("[{}]", rendered.join(", "))
    };
    let occupied: Vec<bool> = (0..n).map(|process| process < 12).collect();
    let config = DelegateViewConfig::default().with_slots(2);
    let view = DelegateView::bootstrap_sparse(4, 2, config, 5, &occupied);
    // Gossip until every other live process seats `process` as a delegate
    // of root subgroup `g`.
    let gossip_until_seated = |g: usize, process: usize| {
        for round in 1..=20 {
            view.round_elapsed();
            let others = view.estimated_size() - 1;
            let seated = seated_by(&view, n, g, process);
            println!("  round {round}: {seated}/{others} processes seat it");
            if seated == others {
                break;
            }
        }
    };
    println!("bootstrap group has {} members", view.estimated_size());
    println!(
        "process {} knows {} processes (flat membership would need {})\n",
        name(4),
        view.peer_count(4),
        view.estimated_size() - 1
    );

    // 1. A join into the empty subgroup 3: the joiner subscribes through
    //    its ring successor, and gossip seats it as subgroup 3's delegate
    //    at every process.
    let joiner = 14;
    view.observe_join(joiner);
    println!("process {} joins", name(joiner));
    gossip_until_seated(3, joiner);

    // 2. A graceful leave is announced: the leaver is evicted everywhere
    //    at once, and each table re-elects the smallest live member of
    //    subgroup 0 it has heard of — immediately if it knows one, else as
    //    soon as gossip delivers a candidate.
    let leaver = 1;
    let delegates = |view: &DelegateView| names(view.live_delegates_of(4, 1, 0));
    println!("\nsubgroup 0 delegates at {}: {}", name(4), delegates(&view));
    view.observe_leave(leaver);
    println!("process {} leaves", name(leaver));
    println!("  at once:        {}", delegates(&view));
    for _ in 0..3 {
        view.round_elapsed();
    }
    println!("  3 rounds later: {}", delegates(&view));

    // 3. A crash is silent: the victim stays in the tables until the next
    //    round's monitored-delegate sweep evicts it and re-elects.
    let victim = 0;
    // The live processes whose flat view lists the victim.
    let listing = |view: &DelegateView| {
        let lists = |q: usize| (0..view.peer_count(q)).any(|k| view.peer_at(q, k) == victim);
        (0..n).filter(|&q| view.is_live(q) && lists(q)).count()
    };
    view.observe_crash(victim);
    println!("\nprocess {} crashes", name(victim));
    println!("  before the sweep {} processes still list it", listing(&view));
    view.round_elapsed();
    println!(
        "  after one round {} do; subgroup 0 delegates at {}: {}",
        listing(&view),
        name(4),
        delegates(&view)
    );

    // 4. The crashed process recovers and rejoins: as the smallest address
    //    of its subgroup it displaces a larger delegate again.
    view.observe_join(victim);
    println!("\nprocess {} rejoins", name(victim));
    gossip_until_seated(0, victim);
    println!("\nfinal group has {} members", view.estimated_size());
    Ok(())
}
