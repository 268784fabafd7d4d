//! Micro-benchmarks of the protocol's hot paths: predicate matching,
//! interest regrouping, delegate election / view construction, matching-rate
//! computation and one gossip round of a mid-sized group.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use criterion::{criterion_group, criterion_main, Criterion};
use pmcast_addr::{AddressSpace, Prefix};
use pmcast_core::{
    GenuineFactory, Gossip, InterestRouting, MulticastProtocol, PmcastConfig, PmcastFactory,
    ProtocolFactory, SharedViews, JUDGEMENT_TABLE_ROWS,
};
use pmcast_interest::{
    Event, EventId, EventIdSet, Filter, Interest, InterestSummary, Predicate,
};
use pmcast_membership::{
    allowed_runs, AssignmentOracle, DelegateView, DelegateViewConfig, GlobalOracleView,
    ImplicitRegularTree, MembershipView, TopicOracle, TreeTopology, TOPIC_ATTRIBUTE,
};
use pmcast_net::{ChannelTransport, Frame};
use pmcast_sim::runner::{run_scenario_trial_with, Protocol};
use pmcast_sim::scenario::{MembershipSpec, Scenario, TopicWorkload};
use pmcast_simnet::{
    FanoutScratch, FaultPlan, LinkDelay, NetworkConfig, ProcessId, RoundContext, RoundProcess,
    Simulation,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A view's listed candidate positions, all below 128, as a mask.
fn fold_mask(listed: &[usize]) -> u128 {
    listed.iter().fold(0, |mask, &position| mask | 1 << position)
}

/// Writes the set bits of `bits` into `pool`, lowest first — how pmcast
/// reads a summary-routed entry-round's pool off its recorded verdict.
fn fill_by_scan(mut bits: u128, pool: &mut Vec<usize>) {
    pool.clear();
    while bits != 0 {
        pool.push(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

fn bench(c: &mut Criterion) {
    // Predicate / filter matching throughput.
    let filter = Filter::new()
        .with("b", Predicate::gt(1.0))
        .with("c", Predicate::open_range(20.0, 30.0))
        .with("e", Predicate::one_of(["Bob", "Tom"]));
    let event = Event::builder(1).int("b", 4).float("c", 25.0).str("e", "Tom").build();
    c.bench_function("filter_match", |b| b.iter(|| filter.matches(&event)));

    // Interest regrouping of 64 subscriptions.
    let filters: Vec<Filter> = (0..64)
        .map(|i| Filter::new().with("b", Predicate::eq_int(i)))
        .collect();
    c.bench_function("interest_regrouping_64", |b| {
        b.iter(|| InterestSummary::from_filters(filters.iter().cloned()))
    });

    // Shared-view construction for the paper-scale tree (a = 22, d = 3).
    let big = ImplicitRegularTree::new(AddressSpace::regular(3, 22).expect("valid"));
    let mut group = c.benchmark_group("views");
    group.sample_size(10);
    group.bench_function("shared_views_build_n10648", |b| {
        b.iter(|| SharedViews::build(&big, 3))
    });
    // What every Monte-Carlo trial pays before its first round and after
    // its last: factory build (views plus one process per member) and drop
    // of a paper-scale group nobody published in.  Per process this must
    // stay a handle and a few zeroed words — no heap, see
    // `tests/alloc_budget.rs`.
    let big_oracle = Arc::new(AssignmentOracle::sample(
        &big,
        0.5,
        &mut ChaCha8Rng::seed_from_u64(5),
    ));
    let big_view: Arc<dyn MembershipView> = Arc::new(GlobalOracleView::new(big.member_count()));
    group.bench_function("pmcast_group_build_drop_n10648", |b| {
        b.iter(|| {
            PmcastFactory::build(&big, big_oracle.clone(), big_view.clone(), &PmcastConfig::default())
                .processes
                .len()
        })
    });
    // The cold per-process path `gossip_rounds_n512` cannot see: a fresh
    // paper-scale group, one publication, and rounds until 1 000 processes
    // have received it — each of them touched for the first time (first
    // buffer insert, first dedup entry, first delivery).  Includes the
    // build and drop measured by the case above.
    group.bench_function("first_contact_round_n10648", |b| {
        b.iter(|| {
            let built = PmcastFactory::build(
                &big,
                big_oracle.clone(),
                big_view.clone(),
                &PmcastConfig::default(),
            );
            let mut sim = Simulation::new(built.processes, NetworkConfig::reliable(1));
            sim.process_mut(ProcessId(0)).pmcast(Event::builder(4).build());
            let mut reached = vec![false; big.member_count()];
            let mut received = 0;
            while received < 1_000 {
                sim.step();
                for &index in sim.last_step_receivers() {
                    received += usize::from(!std::mem::replace(&mut reached[index], true));
                }
            }
            received
        })
    });
    group.finish();

    // Matching-rate computation against an assignment oracle.
    let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 8).expect("valid"));
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
    let global_view = || -> Arc<dyn MembershipView> { Arc::new(GlobalOracleView::new(512)) };
    let built = PmcastFactory::build(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
    let process = &built.processes[0];
    let probe = Event::builder(9).build();
    c.bench_function("matching_rate_depth1_n512", |b| {
        b.iter(|| process.matching_rate(1, &probe))
    });

    // The two receipts of the gossip hot path.  A gossip names its event by
    // id, so a *duplicate* — most receipts under heavy traffic — is one
    // id-set probe: no event is touched and no reference count written.  A
    // *first* receipt takes the event's share from the group's store (one
    // lock, one map probe) and files it: round budget, interest check,
    // delivery, seen bit, buffer entry.  Each first-receipt iteration
    // receives into a clone of an idle process and drops it, so it also
    // pays the one buffer block an infected process of a single-event trial
    // allocates.
    let heavy_event = Event::builder(77)
        .int("b", 4)
        .float("c", 25.0)
        .str("e", "a reasonably long string attribute payload")
        .str("symbol", "NESN")
        .int("volume", 10_000)
        .build();
    let mut receipt_group =
        PmcastFactory::build(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
    let idle_receiver = receipt_group.processes.swap_remove(1);
    receipt_group.processes[0].pmcast(heavy_event.clone());
    let receipt = Gossip::new(heavy_event.id(), 1, 0.5, 1);
    let mut receipt_outbox = Vec::new();
    let mut receipt_rng = ChaCha8Rng::seed_from_u64(5);
    let mut receipt_scratch = FanoutScratch::default();
    let mut receive = |receiver: &mut pmcast_core::PmcastProcess| {
        let mut ctx = RoundContext::external(
            ProcessId(1),
            0,
            &mut receipt_outbox,
            &mut receipt_rng,
            &mut receipt_scratch,
        );
        receiver.on_message(receipt, &mut ctx);
        receipt_scratch.delivered.clear();
    };
    let mut duplicate_receiver = idle_receiver.clone();
    receive(&mut duplicate_receiver);
    c.bench_function("gossip_duplicate_receipt", |b| {
        b.iter(|| receive(&mut duplicate_receiver))
    });
    c.bench_function("gossip_first_receipt", |b| {
        b.iter(|| {
            let mut receiver = idle_receiver.clone();
            receive(&mut receiver);
            receiver
        })
    });

    // Generic-dispatch guard for the API redesign: publishing through the
    // `MulticastProtocol` trait bound is monomorphized, so it must cost the
    // same as calling the concrete process directly — compare the two cases
    // below (they run the identical dedup-hit path: the event is already
    // seen, so per-iteration state does not grow).  Any gap between them
    // would mean the trait boundary put dynamic dispatch or copies on the
    // hot path, endangering the per-receipt costs the two `gossip_*_receipt`
    // cases above measure.
    fn publish_generic<P: MulticastProtocol>(process: &mut P, event: Arc<pmcast_interest::Event>) {
        process.publish(event);
    }
    let mut dispatch_group =
        PmcastFactory::build(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
    let dup = Arc::new(Event::builder(123).int("b", 1).build());
    let mut direct_process = dispatch_group.processes.remove(0);
    let mut generic_process = dispatch_group.processes.remove(0);
    direct_process.publish(Arc::clone(&dup));
    publish_generic(&mut generic_process, Arc::clone(&dup));
    c.bench_function("direct_dispatch_publish", |b| {
        b.iter(|| direct_process.publish(Arc::clone(&dup)))
    });
    c.bench_function("generic_dispatch_publish", |b| {
        b.iter(|| publish_generic(&mut generic_process, Arc::clone(&dup)))
    });

    // Fanout sampling through the `MembershipView` trait boundary: the
    // per-target candidate lookup must stay a cheap virtual call on top of
    // the index shift it replaced.  `fanout_draw_direct` is the historical
    // inline computation; `fanout_draw_through_view` routes the identical
    // arithmetic through `Arc<dyn MembershipView>`.  Any gap beyond a few
    // nanoseconds would mean the membership refactor taxed the hot path.
    let draw_view = global_view();
    let mut draw_rng = ChaCha8Rng::seed_from_u64(8);
    c.bench_function("fanout_draw_direct", |b| {
        b.iter(|| {
            let own = 37usize;
            let mut acc = 0usize;
            for _ in 0..4 {
                let pick = draw_rng.gen_range(0..511);
                acc += if pick >= own { pick + 1 } else { pick };
            }
            acc
        })
    });
    c.bench_function("fanout_draw_through_view", |b| {
        b.iter(|| {
            let own = 37usize;
            let mut acc = 0usize;
            for _ in 0..4 {
                let pick = draw_rng.gen_range(0..draw_view.peer_count(own));
                acc += draw_view.peer_at(own, pick);
            }
            acc
        })
    });

    // One entry-round of a global-membership pmcast process, at two view
    // widths: a flat group (one level, so the one view is the whole group)
    // of 22 and of 128 processes, one buffered event, everybody interested
    // under a keyed oracle.  The round draws F = 2 picks from the view but
    // the process's own position — a pool described, not written out, the
    // position found without a search — and reads the ⊲ test off the
    // entry's mask, so the two widths must cost the same: their ratio is
    // the guard that the draw no longer scales with the view (it wrote the
    // view out and binary-searched it every entry-round).  A process whose
    // budget ran out is replaced by a clone of the freshly published one,
    // once per budget's worth of rounds at either width.
    // `pmcast_entry_round_draw_delegate_w22` is the 22-wide round over a
    // static `DelegateView`, which seats the flat view whole: from the
    // view's second ask on the provider says "everyone but you" from two
    // bits and no lock, so it must read within noise of the global `_w22`
    // (it listed the view into the pool under a read lock every round).
    let entry_rounds: [(&str, u32, Arc<dyn MembershipView>); 3] = [
        ("pmcast_entry_round_draw_w22", 22, Arc::new(GlobalOracleView::new(22))),
        ("pmcast_entry_round_draw_w128", 128, Arc::new(GlobalOracleView::new(128))),
        (
            "pmcast_entry_round_draw_delegate_w22",
            22,
            Arc::new(DelegateView::bootstrap(22, 1, DelegateViewConfig::default(), 9)),
        ),
    ];
    for (name, width, flat_view) in entry_rounds {
        let flat = ImplicitRegularTree::new(AddressSpace::regular(1, width).expect("valid"));
        let everybody = Arc::new(AssignmentOracle::new(flat.space().clone(), flat.members()));
        let mut flat_group =
            PmcastFactory::build(&flat, everybody, flat_view, &PmcastConfig::default());
        let mut published = flat_group.processes.swap_remove(5);
        published.pmcast(Event::builder(3).build());
        let mut process = published.clone();
        let mut entry_outbox = Vec::new();
        let mut entry_rng = ChaCha8Rng::seed_from_u64(9);
        let mut entry_scratch = FanoutScratch::default();
        c.bench_function(name, |b| {
            b.iter(|| {
                if process.is_quiescent() {
                    process = published.clone();
                }
                let mut ctx = RoundContext::external(
                    ProcessId(5),
                    0,
                    &mut entry_outbox,
                    &mut entry_rng,
                    &mut entry_scratch,
                );
                process.on_round(&mut ctx);
                let sent = entry_outbox.len();
                entry_outbox.clear();
                sent
            })
        });
    }

    // Depth-structured candidate draws through the hierarchical
    // `DelegateView` (the PR 4 membership provider): rebuild one depth's
    // candidate list through `knows_at_depth` — the O(1) seat rule while the
    // group is static and stores no table (`delegate_draw`, what every
    // `pmbench` sweep workload runs), an O(slots) slot-group lookup once a
    // flip or a flat enumeration has stored them (`delegate_draw_tables`,
    // what every churned trial runs) — then draw F distinct targets by partial
    // Fisher–Yates over the reused buffer — the `gossip_depth` hot path as
    // it was before the batched probe (`delegate_draw_batched` below), and
    // still what a provider without an override pays.  Both vectors are
    // allocated once outside the iteration, so the per-draw cost must stay
    // allocation-free and within a few nanoseconds of the flat
    // `fanout_draw_through_view` boundary.
    let bootstrap_delegate_view = || -> Arc<dyn MembershipView> {
        Arc::new(DelegateView::bootstrap(8, 3, DelegateViewConfig::default(), 8))
    };
    let delegate_view = bootstrap_delegate_view();
    let delegate_tables = bootstrap_delegate_view();
    delegate_tables.peer_count(0);
    // (per-entry probe bench, batched probe bench, view)
    let draws = [
        ("delegate_draw", "delegate_draw_batched", &delegate_view),
        ("delegate_draw_tables", "delegate_draw_batched_tables", &delegate_tables),
    ];
    // The depth-2 shared view of process 37 (prefix 0.4): three delegates
    // of each subgroup 0.g — the positions pmcast iterates at that depth.
    let view_targets: Vec<usize> = (0..8usize)
        .flat_map(|g| (0..3usize).map(move |r| g * 8 + r))
        .collect();
    let mut delegate_candidates: Vec<usize> = Vec::with_capacity(view_targets.len());
    for (name, _, view) in draws {
        c.bench_function(name, |b| {
            b.iter(|| {
                let own = 37usize;
                delegate_candidates.clear();
                delegate_candidates.extend(
                    view_targets
                        .iter()
                        .copied()
                        .filter(|&p| p != own && view.knows_at_depth(own, 2, p)),
                );
                let mut acc = 0usize;
                let picks = 4.min(delegate_candidates.len());
                for slot in 0..picks {
                    let swap = draw_rng.gen_range(slot..delegate_candidates.len());
                    delegate_candidates.swap(slot, swap);
                    acc += delegate_candidates[slot];
                }
                acc
            })
        });
    }

    // The same candidate list through the batched probe `gossip_depth`
    // makes: one `fill_known_at_depth` call for the whole view — one lock
    // acquisition and one division per entry instead of a lock plus the
    // digit arithmetic per entry.  The gap to `delegate_draw` is what the
    // per-entry probes cost.
    for (_, name, view) in draws {
        c.bench_function(name, |b| {
            b.iter(|| {
                let own = 37usize;
                delegate_candidates.clear();
                view.fill_known_at_depth(own, 2, &mut view_targets.iter().copied(), &mut delegate_candidates);
                let mut acc = 0usize;
                let picks = 4.min(delegate_candidates.len());
                for slot in 0..picks {
                    // `fill_known_at_depth` yields view positions.
                    let swap = draw_rng.gen_range(slot..delegate_candidates.len());
                    delegate_candidates.swap(slot, swap);
                    acc += view_targets[delegate_candidates[slot]];
                }
                acc
            })
        });
    }

    // What naming the view saves, at paper scale (22^3, slots = 3) and on
    // the two widths a process asks about most: the depth-2 view of process
    // 37's prefix (66 listed delegates) and its leaf view (22 neighbours).
    // `known_row_miss_*` is the anonymous ask — every listed peer judged on
    // the spot through the `dyn Iterator` — and what a named ask pays while
    // it is not answered whole.  Both views here seat every peer they list
    // (slots = R), so the question pmcast asks, `fill_known_or_whole`,
    // judges them whole at the first ask and answers them whole from then
    // on: `known_row_whole_*` is that answer, two bit tests and no lock,
    // with nothing written.
    let paper_view = DelegateView::bootstrap(22, 3, DelegateViewConfig::default(), 8);
    let depth2_targets: Vec<usize> = (0..22usize)
        .flat_map(|g| (0..3usize).map(move |r| g * 22 + r))
        .collect();
    let leaf_targets: Vec<usize> = (22..44).collect();
    let mut known: Vec<usize> = Vec::with_capacity(depth2_targets.len());
    for (name, depth, targets) in [
        ("known_row_miss_depth2", 2, &depth2_targets),
        ("known_row_miss_leaf", 3, &leaf_targets),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                known.clear();
                paper_view.fill_known_at_depth(37, depth, &mut targets.iter().copied(), &mut known);
                known.len()
            })
        });
    }
    for (name, view_id, depth, targets) in [
        ("known_row_whole_depth2", 1, 2, &depth2_targets),
        ("known_row_whole_leaf", 24, 3, &leaf_targets),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                known.clear();
                let whole = paper_view.fill_known_or_whole(
                    37,
                    depth,
                    view_id,
                    &mut targets.iter().copied(),
                    &mut known,
                );
                assert!(whole, "a static view seated whole");
                known.len()
            })
        });
    }
    assert!(!paper_view.has_tables(), "a named ask stores no table");

    // Aggregated interest routing's addition to the fanout draw: before
    // drawing, the depth's candidates are narrowed to the subgroups whose
    // subtree summary admits the event, and vetoed subtrees never consume a
    // pick.  Same view, RNG and Fisher–Yates as `delegate_draw_batched`
    // above, so the gap to it is the whole cost of the veto.  pmcast records
    // the verdict in the buffered entry (per summary epoch), and the group's
    // event store keeps it per (content, view), so the two benches are the
    // two things an entry-round can cost.  `summary_skip_draw` is a store
    // miss — the first entry of a content in a view: `summary_allows` folded
    // over the view's runs of equal subgroups, as `GroupContext` folds it,
    // each probe judging a subgroup against its summary's disjuncts, and the
    // pool read off `verdict & candidates` by a bit scan.
    // `summary_entry_round` (below) is every *later* round of an entry: the
    // pool read off the recorded verdict, no call into the membership layer.
    // Each iteration also lists the candidates and folds them into a mask,
    // which pmcast does once per depth-round, not per entry-round — so the
    // guards are stricter than the protocol.  Interest is clustered one
    // topic per depth-2 subgroup — the sparse-interest regime the skip is
    // built for, where 7 of 8 subtrees are provably uninterested.
    let clustered: Vec<Vec<u32>> = (0..512).map(|i| vec![(i / 8) % 12]).collect();
    let clustered_topics =
        TopicOracle::new(AddressSpace::regular(3, 8).expect("valid"), clustered, 12);
    delegate_view.attach_interest_summaries(clustered_topics.subtree_summaries());
    let summary_prefixes: Vec<Prefix> =
        (0..8u32).map(|g| Prefix::from_components(vec![0, g])).collect();
    // The subgroups of the view's 24 positions, in view order.
    let summary_view = || summary_prefixes.iter().flat_map(|subgroup| [subgroup; 3]);
    // Topic 4: subgroup 0.4's.
    let topic_event = Event::builder(901).int(TOPIC_ATTRIBUTE, 4).build();
    let summary_fold = || {
        let judge = |subgroup: &Prefix| delegate_view.summary_allows(subgroup, &topic_event);
        allowed_runs(summary_view().enumerate(), judge)
            .fold(0u128, |allowed, position| allowed | 1 << position)
    };
    let mut summary_candidates: Vec<usize> = Vec::with_capacity(view_targets.len());
    c.bench_function("summary_skip_draw", |b| {
        b.iter(|| {
            let own = 37usize;
            delegate_candidates.clear();
            delegate_view.fill_known_at_depth(own, 2, &mut view_targets.iter().copied(), &mut delegate_candidates);
            let allowed = summary_fold();
            let candidates = fold_mask(&delegate_candidates);
            fill_by_scan(allowed & candidates, &mut summary_candidates);
            let mut acc = 0usize;
            let picks = 4.min(summary_candidates.len());
            for slot in 0..picks {
                let swap = draw_rng.gen_range(slot..summary_candidates.len());
                summary_candidates.swap(slot, swap);
                acc += view_targets[summary_candidates[slot]];
            }
            acc
        })
    });

    // An entry-round on a recorded verdict, as `GroupContext::
    // fill_summary_pool` makes it: read the provider's summary epoch (once
    // per depth in the protocol; once per draw here, which only makes the
    // guard stricter), find it unchanged, and read the pool off the set
    // bits of `verdict & candidates`.  This is the bench that must land
    // within noise of `delegate_draw_batched` — the veto's steady-state cost
    // is one bit scan writing at most a view's worth of indices.
    let recorded_epoch = delegate_view.summary_epoch();
    let recorded_verdict = summary_fold();
    c.bench_function("summary_entry_round", |b| {
        b.iter(|| {
            let own = 37usize;
            delegate_candidates.clear();
            delegate_view.fill_known_at_depth(own, 2, &mut view_targets.iter().copied(), &mut delegate_candidates);
            assert_eq!(delegate_view.summary_epoch(), recorded_epoch);
            let candidates = fold_mask(&delegate_candidates);
            fill_by_scan(recorded_verdict & candidates, &mut summary_candidates);
            let mut acc = 0usize;
            let picks = 4.min(summary_candidates.len());
            for slot in 0..picks {
                let swap = draw_rng.gen_range(slot..summary_candidates.len());
                summary_candidates.swap(slot, swap);
                acc += view_targets[summary_candidates[slot]];
            }
            acc
        })
    });

    // One fresh entry — a publication here, a promotion costs the same — in
    // a 4^3 group under a topic oracle: what `GroupContext::fresh_entry`
    // pays per entry now that `GETRATE` and the Pittel budget are kept per
    // (audience key, view).  `judgement_row_hit` publishes one topic over
    // and over: the oracle's key (one attribute lookup), a lock and a probe
    // that finds the row.  `judgement_row_miss` rotates through one topic
    // more than the table has rows, so every probe fails and the entry is
    // judged on the spot — four subtree tests and two logarithms — and
    // stored, the table forgetting everything once a rotation: what every
    // fresh entry paid before, plus the failed probe and the insert.  The
    // gap between the two is what a row saves; the hit is the lock and
    // lookup it costs.  A process ignores an id it has seen, so the events
    // are published once at each of a few processes and the group is
    // rebuilt every 65 536 publications (under 1 ns a publication, in both
    // benches alike).
    let judged_space = AddressSpace::regular(3, 4).expect("valid");
    let judged_tree = ImplicitRegularTree::new(judged_space.clone());
    let judged_topics = Arc::new(TopicOracle::new(
        judged_space,
        (0..64).map(|i| vec![i % 12]).collect(),
        JUDGEMENT_TABLE_ROWS + 1,
    ));
    let judged_view: Arc<dyn MembershipView> = Arc::new(GlobalOracleView::new(64));
    let judged_group = || {
        PmcastFactory::build(
            &judged_tree,
            judged_topics.clone(),
            judged_view.clone(),
            &PmcastConfig::default(),
        )
        .processes
    };
    for (name, topics) in [("judgement_row_hit", 1), ("judgement_row_miss", JUDGEMENT_TABLE_ROWS + 1)] {
        let events: Vec<Arc<Event>> = (0..topics.max(4_096))
            .map(|id| {
                let topic = (4 + id % topics) % (JUDGEMENT_TABLE_ROWS + 1);
                Arc::new(Event::builder(id as u64).int(TOPIC_ATTRIBUTE, topic as i64).build())
            })
            .collect();
        let mut processes = judged_group();
        let mut published = 0usize;
        c.bench_function(name, |b| {
            b.iter(|| {
                if published == 65_536 {
                    processes = judged_group();
                    published = 0;
                }
                processes[published / events.len()]
                    .publish(Arc::clone(&events[published % events.len()]));
                published += 1;
            })
        });
    }

    // The per-receipt dedup probe.  `idset_contains_dense_2000`: a process's
    // seen-set late in a `topics_*` trial — 2 000 sequential identifiers,
    // one bitmap window — probed with hits and misses alike: a subtraction,
    // a shift and a mask, where the sorted vector it replaced made eleven
    // comparisons.  `idset_insert_spread`: 256 identifiers 2^40 apart, which
    // no window can span, inserted with local disorder into the sorted
    // vector that remains the set's fallback — the one path whose cost is
    // still O(len) per insert, guarded so it never gets worse than it was.
    let dense_ids: EventIdSet = (10_000..12_000).map(EventId).collect();
    let mut probe = 0u64;
    c.bench_function("idset_contains_dense_2000", |b| {
        b.iter(|| {
            probe = (probe + 7) % 2_100;
            dense_ids.contains(EventId(9_950 + probe))
        })
    });
    c.bench_function("idset_insert_spread", |b| {
        b.iter(|| {
            let mut set = EventIdSet::new();
            for index in 0..256u64 {
                set.insert(EventId((index ^ 0x7) << 40));
            }
            set.len()
        })
    });

    // A membership join storm against the hierarchical provider: each
    // iteration is one crash + re-join transition pair of the same process
    // in a 512-process `DelegateView` — the hot path a resubscription-churn
    // (join_at/leave_at) scenario drives every round.  After the first
    // warm-up iteration the flat views and slot tables already contain the
    // revenant and its ring neighbours, so processing the join is pure
    // in-place work: pending-sweep retain, ring re-pin, sorted slot
    // admission — no allocation.  Track this next to `delegate_draw` to
    // keep lifecycle processing off the allocator.
    let storm_view = DelegateView::bootstrap(8, 3, DelegateViewConfig::default(), 8);
    storm_view.observe_crash(200);
    storm_view.observe_join(200);
    c.bench_function("join_storm", |b| {
        b.iter(|| {
            storm_view.observe_crash(200);
            storm_view.observe_join(200);
            storm_view.estimated_size()
        })
    });

    // A membership round of the paper-scale `delegate(3)` tables (n = 22³)
    // at the fixed point: every table holds the converged answer, so the
    // round files nothing and only moves the membership stream past the
    // 159 720 picks it would have drawn.  This is what `paper_delegate`
    // pays per simulated round; it must stay independent of n.
    let paper_delegate = DelegateView::bootstrap(22, 3, DelegateViewConfig::default(), 17);
    c.bench_function("delegate_round_fixed_point_n10648", |b| {
        b.iter(|| paper_delegate.round_elapsed())
    });
    // The other end: a depth-1 delegate crashes, so every table in the
    // group loses a seat that only gossip can refill.  One iteration is the
    // crash, the first round after it (sweep, re-certification of all
    // 10 647 tables, a full gossip round) and every round until the group
    // is settled again — about a thousand, each cheaper than the last as
    // tables settle.  Successive iterations crash successive delegates of
    // subtree 0, so each starts from a settled group; the first one also
    // stores the tables, which the fixed-point bench above never needed.
    let mut group = c.benchmark_group("membership");
    group.sample_size(10);
    let mut next_delegate = 0usize;
    group.bench_function("delegate_round_after_crash_n10648", |b| {
        b.iter(|| {
            paper_delegate.observe_crash(next_delegate);
            next_delegate += 1;
            let mut rounds = 0u32;
            while paper_delegate.unsettled() > 0 {
                paper_delegate.round_elapsed();
                rounds += 1;
            }
            rounds
        })
    });
    group.finish();

    // The per-frame unit cost of the async runtime's publish path:
    // transport enqueue (channel push + in-flight accounting) → mailbox
    // pop → dedup probe → processed acknowledgement.  The probe is the
    // `EventIdSet::contains` behind the protocols' `has_received`, which is
    // all a broker asks before dropping a duplicate; the set is pre-warmed
    // so every iteration takes the dedup-hit branch, and the mailbox never
    // grows past one frame — the steady state must stay allocation-free
    // (id set and channel queue both at fixed size).  This is the
    // pmcast-net analogue of `gossip_duplicate_receipt`: the per-message
    // floor of the daemon's sustained publish loop.  A frame carries the
    // event's id, never its content.
    let (net_transport, net_mailboxes) = ChannelTransport::with_loss(64, 2, 0.0, 0);
    let net_gossip = Gossip::new(EventId(501), 1, 0.5, 0);
    let mut net_received = EventIdSet::new();
    net_received.insert(net_gossip.id);
    c.bench_function("net_publish_path", |b| {
        b.iter(|| {
            let sent = net_transport.send_gossip(ProcessId(1), net_gossip);
            debug_assert!(sent);
            // One poll of the mailbox future: the frame is already queued.
            let mut cx = Context::from_waker(Waker::noop());
            match Pin::new(&mut net_mailboxes[1].recv()).poll(&mut cx) {
                Poll::Ready(Ok(Frame::Gossip { gossip, .. })) => {
                    let fresh = !net_received.contains(gossip.id);
                    net_transport.mark_processed(1);
                    fresh
                }
                _ => unreachable!("only gossip frames are sent here"),
            }
        })
    });

    // One full gossip round of a 512-process group with a hot event.
    let mut group = c.benchmark_group("protocol");
    group.sample_size(10);
    group.bench_function("gossip_rounds_n512", |b| {
        b.iter(|| {
            let built =
                PmcastFactory::build(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
            let mut sim = Simulation::new(built.processes, NetworkConfig::reliable(1));
            sim.process_mut(ProcessId(0)).pmcast(Event::builder(4).build());
            for _ in 0..5 {
                sim.step();
            }
            sim.stats().messages_sent
        })
    });
    // The same workload through the timing-wheel delay queue: every link
    // carries 0–2 rounds of extra jitter, so each send is classified
    // (hash the link, pick the wheel slot) and each boundary drains the
    // wheel alongside `in_flight`.  The gap to `gossip_rounds_n512` is the
    // whole cost of the delay axis; it must stay a small constant factor,
    // and the axis must stay free when absent (that case IS
    // `gossip_rounds_n512`).
    group.bench_function("delayed_delivery_n512", |b| {
        b.iter(|| {
            let built =
                PmcastFactory::build(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
            let config = NetworkConfig {
                fault_plan: FaultPlan {
                    link_delay: Some(LinkDelay { min_extra: 0, max_extra: 2 }),
                    ..FaultPlan::default()
                },
                ..NetworkConfig::reliable(1)
            };
            let mut sim = Simulation::new(built.processes, config);
            sim.process_mut(ProcessId(0)).pmcast(Event::builder(4).build());
            for _ in 0..5 {
                sim.step();
            }
            sim.stats().messages_sent
        })
    });
    // The genuine baseline's rounds now index a candidate set cached at
    // accept time instead of rebuilding an O(audience) list per buffered
    // event per round (the ROADMAP open item); this case guards the cached
    // round cost at the same scale as `gossip_rounds_n512`.
    group.bench_function("genuine_rounds_n512", |b| {
        b.iter(|| {
            let built =
                GenuineFactory::build(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
            let mut sim = Simulation::new(built.processes, NetworkConfig::reliable(1));
            sim.process_mut(ProcessId(0)).publish(Arc::new(Event::builder(4).build()));
            for _ in 0..5 {
                sim.step();
            }
            sim.stats().messages_sent
        })
    });
    group.finish();

    // The end-to-end guard for heavy traffic: one whole trial of the
    // `topics_summary` smoke shape (4³, 12 topics, 300 events, summary
    // routing over `delegate(4)`) through the entry point users call —
    // workload, group, every round's veto and delivery recording, report.
    // The verdict table and the push-driven recording have no hook of their own
    // to time; a trial that starts costing per (event, receiver, round)
    // again shows here.
    let topic_trial = Scenario::builder()
        .group(4, 3)
        .topics(TopicWorkload::new(12, 3, 300).with_publish_rounds(30))
        .membership(MembershipSpec::delegate(4))
        .protocol(PmcastConfig::default().with_interest_routing(InterestRouting::Summary))
        .seed(42)
        .build();
    let mut group = c.benchmark_group("trial");
    group.sample_size(10);
    group.bench_function("topic_trial_summary_300_events", |b| {
        b.iter(|| run_scenario_trial_with(&topic_trial, Protocol::Pmcast, 0).messages_sent)
    });
    group.finish();

    // Active-set scheduling guard: one engine step of a *fully quiescent*
    // paper-scale group (n = 22³ = 10 648) after a completed dissemination.
    // With the sparse core a quiescent step visits only the (empty) active
    // set and quiescence detection is O(1), so this must sit at nanoseconds
    // — independent of n — rather than the O(n) full-group sweep the dense
    // path pays.  A regression here silently turns the million-process
    // trial back into minutes.
    let paper_tree = ImplicitRegularTree::new(AddressSpace::regular(3, 22).expect("valid"));
    let mut paper_rng = ChaCha8Rng::seed_from_u64(5);
    let paper_oracle = Arc::new(AssignmentOracle::sample(&paper_tree, 0.5, &mut paper_rng));
    let paper_view: Arc<dyn MembershipView> =
        Arc::new(GlobalOracleView::new(paper_tree.member_count()));
    let built = PmcastFactory::build(
        &paper_tree,
        paper_oracle,
        paper_view,
        &PmcastConfig::default(),
    );
    let mut quiet_sim = Simulation::new(built.processes, NetworkConfig::reliable(1));
    quiet_sim
        .process_mut(ProcessId(0))
        .pmcast(Event::builder(31).int("b", 1).build());
    quiet_sim.run_until_quiescent(300);
    assert!(quiet_sim.is_quiescent(), "warm-up dissemination must finish");
    c.bench_function("quiescent_round_n10648", |b| {
        b.iter(|| {
            quiet_sim.step();
            quiet_sim.is_quiescent()
        })
    });

    // Sparse group construction at the million-process scale (a = 32,
    // d = 4): the shared per-(depth, prefix) view tables — 33 825 views
    // and one shared view *stack* per leaf subgroup instead of a million
    // per-process tables.  This is the fixed cost every 32⁴ trial pays
    // before the first round; it must stay in the hundreds of
    // milliseconds, not scale like n separate view materializations.
    let million_tree = ImplicitRegularTree::new(AddressSpace::regular(4, 32).expect("valid"));
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("sparse_group_build_n1m", |b| {
        b.iter(|| SharedViews::build(&million_tree, 3).addresses().len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
