//! Monte-Carlo multicast trials and their aggregation.
//!
//! Every trial — whatever the protocol, whatever the workload — runs
//! through **one generic simulation loop**,
//! [`run_scenario_trial`]`::<F>`, monomorphized per
//! [`ProtocolFactory`].  The [`Protocol`] enum is nothing but a thin
//! dispatch onto the three factories; adding a protocol means implementing
//! [`pmcast_core::MulticastProtocol`] + [`ProtocolFactory`] in core and one
//! new match arm here, and adding a workload means building a
//! [`Scenario`] — neither ever copies the trial loop.
//!
//! ## Seed derivation (reproducibility contract)
//!
//! External reproducers can regenerate any trial exactly.  Trial `t` of a
//! scenario with base seed `s` derives **all** of its randomness from the
//! trial seed `seed_t = s.wrapping_add(t)`, split over exactly three
//! ChaCha8 streams:
//!
//! 1. **Workload stream** —
//!    `ChaCha8Rng::seed_from_u64(seed_t.wrapping_mul(0x9E37_79B9).wrapping_add(7))`,
//!    consumed in this order:
//!    * the interest assignment: one `gen_bool(matching_rate)` per process
//!      in address order ([`AssignmentOracle::sample`]);
//!    * then, for each publication in **schedule order** (the order the
//!      publications were added, not round order), the publisher draw:
//!      [`Publisher::Uniform`] consumes one `gen_range(0..n)`;
//!      [`Publisher::Interested`] consumes one
//!      `gen_range(0..interested_count)` and resolves the k-th interested
//!      address in address order — unless nobody is interested, in which
//!      case it consumes one `gen_range(0..n)` instead;
//!      [`Publisher::Process`] consumes nothing.
//! 2. **Network stream** — the [`pmcast_simnet::Simulation`] is created
//!    with `NetworkConfig { seed: seed_t, … }` and internally splits that
//!    seed into its message-loss, protocol and crash streams.
//! 3. **Membership stream** — scenarios selecting a gossip membership
//!    provider bootstrap it from
//!    `seed_t.wrapping_mul(0xC2B2_AE35).wrapping_add(17)`; all view
//!    exchanges, digest picks and evictions draw from that
//!    provider-private ChaCha8 stream.  **Both** gossip providers share
//!    this one stream rule — there is deliberately no fourth stream:
//!    [`crate::scenario::MembershipSpec::Partial`] seeds its
//!    [`PartialView`](pmcast_membership::PartialView) from it, and
//!    [`crate::scenario::MembershipSpec::Delegate`] seeds its
//!    [`DelegateView`](pmcast_membership::DelegateView) from it (delegate
//!    slot admission/eviction is deterministic smallest-address order and
//!    consumes no randomness at all, so the stream only feeds gossip
//!    target and digest picks).  The default
//!    [`crate::scenario::MembershipSpec::Global`] provider consumes
//!    **no** randomness and observes churn as a no-op, so a
//!    global-membership scenario never touches this stream.
//!
//!    The default workload (empty publish schedule) is one event with id
//!    `1000 + t` and a single `int("b", 1)` attribute, published at round 0
//!    by an [`Publisher::Interested`] draw — the one-event-one-sender
//!    trial the figure goldens pin.
//!
//!    **Topic workloads** ([`crate::scenario::TopicWorkload`]) replace rule
//!    1's consumption of the workload stream wholesale (there is no
//!    matching-rate Bernoulli pass at all): first, for each process in
//!    address order, `subscriptions_per_process` distinct topic draws —
//!    each a `gen_range(0..topics)`, redrawn (consuming further
//!    `gen_range`s) until distinct from the process's earlier picks; then,
//!    for each event `e` in `0..events`, one `gen::<f64>()` mapped through
//!    the truncated-Zipf CDF to the event's topic, followed by one
//!    publisher draw — `gen_range(0..subscriber_count)` resolving the k-th
//!    subscriber in address order, or `gen_range(0..n)` when the topic has
//!    no subscribers.  Publish rounds are deterministic
//!    (`e · publish_rounds / events`) and consume nothing.
//!
//! **Lifecycle schedules consume no randomness.**  A scenario's
//! [`Scenario`] join/leave schedules (`join_at` / `leave_at`) are applied
//! deterministically by the engine at the start of their round — joins,
//! then leaves, then scheduled crashes on same-round ties — and touch none
//! of the three streams: the interest assignment always samples all `a^d`
//! addresses in address order regardless of occupancy (so a joiner's
//! interest is the same bits a static trial would have drawn for it),
//! publisher draws are unchanged, and the gossip membership providers
//! bootstrap sparse populations (`bootstrap_sparse`) without any extra
//! draws from the membership stream.  A scenario without lifecycle
//! schedules therefore draws exactly what its static goldens pin, and
//! lifecycle scenarios stay bit-identical under the parallel runner.
//!
//! **Fault axes are stream-neutral when inactive.**  The adversarial fault
//! plan a scenario compiles ([`Scenario::fault_plan`], executed by
//! [`pmcast_simnet::FaultPlan`]) draws randomness only from the network
//! stream (rule 2), and only when an axis is genuinely active:
//!
//! * **Per-link delay** consumes exactly one `u64` (the per-trial link
//!   salt) from the network's message stream at construction time, *iff*
//!   `min_extra < max_extra` — a constant-delay axis (`min == max`),
//!   including the neutral `(0, 0)`, consumes nothing.  Each link's jitter
//!   is then a pure hash of `(salt, from, to)`, so no further draws happen
//!   during the run.
//! * **Partitions** and **stragglers** are fully deterministic round
//!   schedules, both read by the network on the engine's round, and
//!   consume no randomness at all: a window `[from, until)` drops the
//!   cross-cell sends of exactly those rounds, *before* the loss draw, so a
//!   partitioned message does not consume the `gen_bool` a delivered one
//!   would; a straggler's send outside its flush round waits in its
//!   backlog, uncounted and undrawn, and takes its draw when the boundary
//!   that opens the flush round sends it.
//! * **Subtree loss overrides** replace the message's single
//!   `gen_bool(ε)` with a single `gen_bool` at the composed probability —
//!   same one draw, so the loss stream stays aligned for messages outside
//!   every override range.
//!
//! Declared-but-inactive axes (`link_delay(0, 0)`, partitions with fewer
//! than two cells or an empty window, overrides with zero probability,
//! stragglers with period ≤ 1) are filtered out at network construction
//! and consume nothing, so a scenario declaring only neutral axes is
//! **bit-identical** to one declaring none — the golden tests assert this.
//!
//! Because nothing is drawn from state shared between trials, the parallel
//! runner [`Scenario::run_parallel`] is bit-identical to the sequential
//! [`Scenario::run`] (asserted by the test suite).
//!
//! ## Delivery recording
//!
//! A trial's [`DeliveryLatency`] histograms are kept push-driven, the same
//! way for every protocol: a delivery is recorded in the round the engine
//! reports it ([`Simulation::last_step_deliveries`], fed by the protocols'
//! [`report_delivery`](pmcast_simnet::RoundIo::report_delivery) calls)
//! or the runner causes it (a publisher delivering its own publication,
//! seen by asking `has_delivered` before and after the `publish` call).
//! Each `(process, event)` pair arrives exactly once — the protocols'
//! delivered-id sets dedup, so a second publisher of a seen id reports
//! nothing — which is why no per-event "already recorded" state exists and
//! a round's bookkeeping costs O(deliveries), one lookup each in the
//! trial's `EventId → index` table.  Reads only: recording consumes no
//! randomness and touches no protocol state.

use std::sync::Arc;

use pmcast_addr::AddressSpace;
use pmcast_core::{
    DeliveryOutcome, FloodFactory, GenuineFactory, MulticastProtocol, MulticastReport,
    PmcastFactory, ProtocolFactory,
};
use pmcast_interest::{Event, EventId};
use pmcast_membership::{
    AssignmentOracle, ImplicitRegularTree, InterestOracle, MembershipView, Population,
    TopicOracle, TreeTopology, TOPIC_ATTRIBUTE,
};
use pmcast_simnet::{
    CrashPlan, LifecycleKind, LifecyclePlan, NetworkConfig, ProcessId, Simulation,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Publication, Publisher, Scenario};

/// Which dissemination protocol a trial runs.
///
/// This is a thin factory dispatch: each variant maps onto one
/// [`ProtocolFactory`] implementation in `pmcast-core`, and every variant
/// runs the identical generic trial loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Protocol {
    /// The pmcast algorithm of Figure 3 ([`PmcastFactory`]).
    Pmcast,
    /// Gossip broadcast with filtering on delivery ([`FloodFactory`]).
    FloodBroadcast,
    /// Genuine multicast with global interest knowledge
    /// ([`GenuineFactory`]).
    GenuineMulticast,
}

/// Per-event delivery-latency histogram of one trial: how many rounds
/// after its publication each process **first delivered** the event.
///
/// The publisher itself records latency 0 (it delivers locally in its
/// publish round); a process that never delivers appears in no bucket, so
/// [`delivered`](Self::delivered) matches the event's
/// `delivered_interested` count.  Recorded by the generic trial loop for
/// every protocol from the deliveries the engine reports each round (see
/// *Delivery recording* in the [module docs](self)) — tracking changes no
/// random stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryLatency {
    /// The event this histogram describes.
    pub event: EventId,
    /// The round of the event's first publication.
    pub publish_round: u64,
    /// `counts[l]` = processes that first delivered the event `l` rounds
    /// after `publish_round`.
    pub counts: Vec<u64>,
}

impl DeliveryLatency {
    /// Counts one first delivery made in `round`.
    fn record(&mut self, round: u64) {
        let latency = (round - self.publish_round) as usize;
        if self.counts.len() <= latency {
            self.counts.resize(latency + 1, 0);
        }
        self.counts[latency] += 1;
    }

    /// Total processes that delivered the event.
    pub fn delivered(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean delivery latency in rounds (0 when nobody delivered).
    pub fn mean(&self) -> f64 {
        let total = self.delivered();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(latency, &count)| latency as u64 * count)
            .sum();
        weighted as f64 / total as f64
    }

    /// The smallest latency by which at least `q` (in `[0, 1]`) of the
    /// deliveries had happened (0 when nobody delivered) — e.g.
    /// `quantile(1.0)` is the worst-case latency-to-deliver.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.delivered();
        if total == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut cumulative = 0;
        for (latency, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= threshold {
                return latency as u64;
            }
        }
        (self.counts.len() as u64).saturating_sub(1)
    }

    /// Adds another histogram of the **same event shape** bucket-wise
    /// (aggregating the same scenario across trials).
    pub fn merge(&mut self, other: &DeliveryLatency) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (bucket, &count) in other.counts.iter().enumerate() {
            self.counts[bucket] += count;
        }
    }
}

/// Outcome of one multicast trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Delivery/reception classification over all published events (the
    /// per-event reports merged; identical to the single report for the
    /// default one-event workload).
    pub report: MulticastReport,
    /// One report per *distinct* published event id, in first-publication
    /// schedule order (publishing the same event from several processes is
    /// one dissemination and yields one report).
    pub per_event: Vec<MulticastReport>,
    /// One delivery-latency histogram per distinct event, in the same
    /// order as [`per_event`](Self::per_event).
    pub latency: Vec<DeliveryLatency>,
    /// Gossip messages handed to the network.
    pub messages_sent: u64,
    /// Rounds executed before quiescence (or the cap).
    pub rounds: u64,
}

/// Aggregated outcome of several trials of the same scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateOutcome {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean delivery probability of interested processes (Figure 4 metric).
    pub delivery_mean: f64,
    /// Sample standard deviation of the delivery probability.
    pub delivery_std: f64,
    /// Mean reception probability of uninterested processes (Figure 5
    /// metric).
    pub spurious_mean: f64,
    /// Mean number of gossip messages per multicast.
    pub messages_mean: f64,
    /// Mean number of rounds to quiescence.
    pub rounds_mean: f64,
}

impl AggregateOutcome {
    /// Aggregates a non-empty slice of trial outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty.
    pub fn from_trials(outcomes: &[TrialOutcome]) -> Self {
        assert!(!outcomes.is_empty(), "cannot aggregate zero trials");
        let deliveries: Vec<f64> = outcomes.iter().map(|o| o.report.delivery_ratio()).collect();
        let spurious: Vec<f64> = outcomes.iter().map(|o| o.report.spurious_ratio()).collect();
        let delivery_mean = mean(&deliveries);
        Self {
            trials: outcomes.len(),
            delivery_mean,
            delivery_std: std_dev(&deliveries, delivery_mean),
            spurious_mean: mean(&spurious),
            messages_mean: mean(
                &outcomes
                    .iter()
                    .map(|o| o.messages_sent as f64)
                    .collect::<Vec<_>>(),
            ),
            rounds_mean: mean(&outcomes.iter().map(|o| o.rounds as f64).collect::<Vec<_>>()),
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn std_dev(values: &[f64], mean: f64) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let variance =
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    variance.sqrt()
}

/// Resolves a [`Publisher`] spec to a process index, consuming the
/// workload stream exactly as documented in the module-level seed contract.
///
fn resolve_publisher(
    publisher: &Publisher,
    topology: &ImplicitRegularTree,
    oracle: &AssignmentOracle,
    workload_rng: &mut ChaCha8Rng,
) -> usize {
    match publisher {
        Publisher::Process(index) => {
            // Re-checked here (not only in `ScenarioBuilder::build`) so
            // hand-constructed scenarios fail with a diagnostic instead of
            // a raw index-out-of-bounds inside the simulation.
            assert!(
                *index < topology.member_count(),
                "publisher index {index} out of range for a group of {}",
                topology.member_count()
            );
            *index
        }
        Publisher::Uniform => workload_rng.gen_range(0..topology.member_count()),
        Publisher::Interested => {
            if oracle.is_empty() {
                workload_rng.gen_range(0..topology.member_count())
            } else {
                let pick = workload_rng.gen_range(0..oracle.len());
                oracle.nth_index(pick).expect("pick is within the assignment")
            }
        }
    }
}

/// The crash plan combining a scenario's initial fraction and schedule.
fn crash_plan(scenario: &Scenario) -> CrashPlan {
    match (
        scenario.crash_fraction > 0.0,
        scenario.crash_schedule.is_empty(),
    ) {
        (false, true) => CrashPlan::None,
        (true, true) => CrashPlan::InitialFraction(scenario.crash_fraction),
        (false, false) => CrashPlan::Scheduled(scenario.crash_schedule.clone()),
        (true, false) => CrashPlan::Mixed {
            fraction: scenario.crash_fraction,
            schedule: scenario.crash_schedule.clone(),
        },
    }
}

/// A resolved publish schedule: `(round, publisher process, event)` in
/// schedule order.
pub type PublishSchedule = Vec<(u64, usize, Arc<Event>)>;

/// The fully resolved, seed-contract-consuming part of a trial: the
/// topology, the sampled interest assignment and the publisher-resolved
/// publish schedule, plus the trial's population.
///
/// Extracted from the trial loop so that **both** execution engines — the
/// round-synchronous [`run_scenario_trial`] and the asynchronous
/// `pmcast-net` runtime — resolve the *identical* workload for a given
/// `(scenario, trial)` pair: same trial seed, same interest bits, same
/// publishers, same membership bootstrap.  Consumes the workload stream
/// exactly as rule 1 of the module-level seed contract says.
pub struct TrialWorkload {
    /// The trial seed `seed_t = scenario.seed + trial` every stream
    /// derives from.
    pub seed: u64,
    /// The regular tree the group lives in.
    pub topology: ImplicitRegularTree,
    /// The sampled interest assignment: the matching-rate
    /// [`AssignmentOracle`] for plain scenarios, a [`TopicOracle`] when the
    /// scenario declares a topic workload.
    pub oracle: Arc<dyn InterestOracle + Send + Sync>,
    /// The topic oracle behind [`oracle`](Self::oracle) when the scenario
    /// carries a [`crate::scenario::TopicWorkload`] (`None` otherwise); it
    /// additionally supplies the aggregated per-subtree interest summaries
    /// and the audience hashcons counters.
    pub topic_oracle: Option<Arc<TopicOracle>>,
    /// `(round, publisher process, event)` in schedule order, publishers
    /// already resolved.
    pub schedule: PublishSchedule,
    /// The trial's (possibly sparse, time-varying) population.
    pub population: Population,
    /// Initial occupancy, `Some` only when somebody starts absent (`None`
    /// is everybody).
    pub occupied_at_start: Option<Vec<bool>>,
}

impl std::fmt::Debug for TrialWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The interest oracle is a trait object without a `Debug` bound;
        // everything else prints in full.
        f.debug_struct("TrialWorkload")
            .field("seed", &self.seed)
            .field("topology", &self.topology)
            .field("topic_oracle", &self.topic_oracle)
            .field("schedule", &self.schedule)
            .field("population", &self.population)
            .field("occupied_at_start", &self.occupied_at_start)
            .finish_non_exhaustive()
    }
}

impl TrialWorkload {
    /// Instantiates the scenario's membership provider from the trial's
    /// membership stream (rule 3 of the module-level seed contract) —
    /// shared verbatim by both execution engines.
    ///
    /// Topic workloads additionally attach the oracle's aggregated
    /// per-subtree interest summaries to the provider
    /// ([`MembershipView::attach_interest_summaries`]), so
    /// summary-routed trials can skip provably uninterested subtrees;
    /// providers without summary support keep the no-op default and
    /// answer every query permissively.  Attaching is pure bookkeeping —
    /// no stream is touched.
    pub fn membership(&self, scenario: &Scenario) -> Arc<dyn MembershipView> {
        let view = scenario.membership.instantiate(
            scenario.arity,
            scenario.depth,
            self.seed.wrapping_mul(0xC2B2_AE35).wrapping_add(17),
            self.occupied_at_start.as_deref(),
        );
        if let Some(topics) = &self.topic_oracle {
            view.attach_interest_summaries(topics.subtree_summaries());
        }
        view
    }

    /// The order publications are injected in, as indices into
    /// [`schedule`](Self::schedule): rounds ascending, schedule order
    /// within a round (a stable sort on the round key) — the same for both
    /// execution engines.
    pub fn injection_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.schedule.len()).collect();
        order.sort_by_key(|&index| self.schedule[index].0);
        order
    }

    /// Classifies the final protocol states against the trial's interest
    /// oracle: the merged report and one report per *distinct* event id in
    /// first-publication schedule order.  The same event id published from
    /// several processes (a redundant-publisher workload) is one
    /// dissemination, not several — counting it once keeps the merged
    /// totals honest.
    pub fn report<'a, P: DeliveryOutcome + 'a>(
        &self,
        processes: impl IntoIterator<Item = &'a P, IntoIter: Clone>,
    ) -> (MulticastReport, Vec<MulticastReport>) {
        self.report_distinct(&EventIndex::of(&self.schedule), processes)
    }

    /// [`report`](Self::report) over the schedule's already built index.
    fn report_distinct<'a, P: DeliveryOutcome + 'a>(
        &self,
        events: &EventIndex,
        processes: impl IntoIterator<Item = &'a P, IntoIter: Clone>,
    ) -> (MulticastReport, Vec<MulticastReport>) {
        let distinct = events
            .first
            .iter()
            .map(|&position| self.schedule[position as usize].2.as_ref());
        let per_event =
            MulticastReport::collect_per_event(distinct, processes, self.oracle.as_ref());
        let mut report = MulticastReport::default();
        for event_report in &per_event {
            report.merge(event_report);
        }
        (report, per_event)
    }
}

/// The distinct event ids of a publish schedule, ranked in
/// first-publication schedule order — the order of
/// [`TrialOutcome::per_event`] and [`TrialOutcome::latency`].  Built once
/// per trial in O(E log E); everything that has to tell a schedule's events
/// apart (the latency histograms' construction, each reported delivery's
/// lookup, the per-event reports) reads this one table.
struct EventIndex {
    /// `(id, rank)`, ascending by id.
    by_id: Vec<(EventId, u32)>,
    /// `first[rank]` is the schedule position of the event's first
    /// publication.
    first: Vec<u32>,
}

impl EventIndex {
    fn of(schedule: &PublishSchedule) -> Self {
        let mut by_id: Vec<(EventId, u32)> = schedule
            .iter()
            .enumerate()
            .map(|(position, (_, _, event))| (event.id(), position as u32))
            .collect();
        // Ascending by (id, position), so the survivor of each id's run is
        // its first publication.
        by_id.sort_unstable();
        by_id.dedup_by_key(|&mut (id, _)| id);
        let mut first: Vec<u32> = by_id.iter().map(|&(_, position)| position).collect();
        first.sort_unstable();
        for (_, position) in &mut by_id {
            *position = first.binary_search(position).expect("one of these positions") as u32;
        }
        Self { by_id, first }
    }

    /// The rank of an event id.
    ///
    /// # Panics
    ///
    /// Panics if the schedule holds no such id: every event in circulation
    /// was injected from it.
    fn rank(&self, id: EventId) -> usize {
        let found = self
            .by_id
            .binary_search_by_key(&id, |&(id, _)| id)
            .expect("only scheduled events circulate");
        self.by_id[found].1 as usize
    }
}

/// Resolves trial `t` of a scenario into a [`TrialWorkload`], consuming
/// the workload stream exactly as documented in the module-level seed
/// contract.
pub fn trial_workload(scenario: &Scenario, trial: usize) -> TrialWorkload {
    let seed = scenario.seed.wrapping_add(trial as u64);
    let topology = ImplicitRegularTree::new(
        AddressSpace::regular(scenario.depth, scenario.arity).expect("valid shape"),
    );
    let mut workload_rng =
        ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    // The trial's population: occupancy gaps and their deterministic
    // join/leave transitions.  `Population::new` / `with_fault_schedule`
    // also validate every scheduled index (so hand-constructed scenarios
    // fail with a diagnostic) and derive which processes start absent
    // (earliest event is a join), shared between the engine's lifecycle
    // plan and the providers' sparse bootstrap.
    let population = scenario.population();
    // The occupancy flags are only built when somebody actually starts
    // absent; a leave/rejoin-only schedule begins fully populated, and the
    // providers then bootstrap over everybody.
    let occupied_at_start =
        (!population.initially_absent().is_empty()).then(|| population.occupied_at_start());

    if let Some(workload) = &scenario.topics {
        let (topic_oracle, schedule) =
            topic_trial_workload(workload, &topology, &mut workload_rng);
        return TrialWorkload {
            seed,
            topology,
            oracle: topic_oracle.clone(),
            topic_oracle: Some(topic_oracle),
            schedule,
            population,
            occupied_at_start,
        };
    }

    let oracle = Arc::new(AssignmentOracle::sample(
        &topology,
        scenario.matching_rate,
        &mut workload_rng,
    ));

    // The default workload: one event, one interested sender, round 0.
    let default_publication;
    let publications: &[Publication] = if scenario.publications.is_empty() {
        default_publication = [Publication {
            round: 0,
            publisher: Publisher::Interested,
            event: Event::builder(1_000 + trial as u64).int("b", 1).build(),
        }];
        &default_publication
    } else {
        &scenario.publications
    };

    // Resolve publishers in schedule order (the seed contract).
    let schedule: PublishSchedule = publications
        .iter()
        .map(|publication| {
            let sender =
                resolve_publisher(&publication.publisher, &topology, &oracle, &mut workload_rng);
            (
                publication.round,
                sender,
                Arc::new(publication.event.clone()),
            )
        })
        .collect();
    TrialWorkload {
        seed,
        topology,
        oracle,
        topic_oracle: None,
        schedule,
        population,
        occupied_at_start,
    }
}

/// Resolves a topic workload: subscription draws, then the generated
/// publish schedule — consuming the workload stream exactly as documented
/// in the module-level seed contract's topic extension.
fn topic_trial_workload(
    workload: &crate::scenario::TopicWorkload,
    topology: &ImplicitRegularTree,
    workload_rng: &mut ChaCha8Rng,
) -> (Arc<TopicOracle>, PublishSchedule) {
    let n = topology.member_count();
    let topics = workload.topics;
    // Per-process subscriptions in address order, distinct by rejection
    // resampling (`subscriptions_per_process ≤ topics` is validated at
    // build time, so the loop terminates).
    let mut subscriptions: Vec<Vec<u32>> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut set: Vec<u32> = Vec::with_capacity(workload.subscriptions_per_process);
        while set.len() < workload.subscriptions_per_process {
            let topic = workload_rng.gen_range(0..topics) as u32;
            if !set.contains(&topic) {
                set.push(topic);
            }
        }
        subscriptions.push(set);
    }
    let oracle = Arc::new(TopicOracle::new(
        topology.space().clone(),
        subscriptions,
        topics,
    ));
    // Truncated Zipf over the topic ranks: topic k has weight
    // (k + 1)^-ZIPF_EXPONENT; one uniform f64 walks the unnormalized CDF.
    let weights: Vec<f64> = (1..=topics)
        .map(|rank| (rank as f64).powf(-crate::scenario::TopicWorkload::ZIPF_EXPONENT))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let schedule = (0..workload.events)
        .map(|e| {
            let mut draw = workload_rng.gen::<f64>() * total_weight;
            let mut topic = topics - 1;
            for (rank, weight) in weights.iter().enumerate() {
                if draw < *weight {
                    topic = rank;
                    break;
                }
                draw -= weight;
            }
            let audience = oracle.audience(topic);
            let sender = if audience.is_empty() {
                workload_rng.gen_range(0..n)
            } else {
                let pick = workload_rng.gen_range(0..audience.len());
                audience.nth_index(pick).expect("pick is within the audience")
            };
            // Deterministic spread over the publish window: no randomness,
            // rounds non-decreasing in event order.
            let round = e as u64 * workload.publish_rounds / workload.events as u64;
            let event = Event::builder(10_000 + e as u64)
                .int(TOPIC_ATTRIBUTE, topic as i64)
                .build();
            (round, sender, Arc::new(event))
        })
        .collect();
    (oracle, schedule)
}

/// Runs one trial of a scenario with the given protocol factory — **the**
/// simulation loop: every protocol and every workload goes through this one
/// function, monomorphized per factory (no trait objects anywhere near the
/// hot path).
pub fn run_scenario_trial<F: ProtocolFactory>(scenario: &Scenario, trial: usize) -> TrialOutcome {
    run_scenario_trial_states::<F>(scenario, trial).0
}

/// [`run_scenario_trial`] variant that also returns the final protocol
/// states (in dense identifier order), so callers — most prominently the
/// net-vs-sim conformance suite — can compare *which* processes delivered
/// an event, not just how many.  `run_scenario_trial` is a thin wrapper
/// that drops the states.
pub fn run_scenario_trial_states<F: ProtocolFactory>(
    scenario: &Scenario,
    trial: usize,
) -> (TrialOutcome, Vec<F::Process>) {
    let workload = trial_workload(scenario, trial);
    // The membership provider: global knowledge (stateless, stream-neutral),
    // a per-trial gossip-bootstrapped flat partial view or the hierarchical
    // delegate tables — bootstrapped sparse when the population starts with
    // gaps, fed every lifecycle transition (join/leave/crash) through the
    // engine's lifecycle observer, and advanced once per simulation
    // round.  Gossip providers draw from the membership stream (rule 3 of
    // the module-level seed contract); lifecycle events consume no
    // randomness at all.  Topic workloads attach their aggregated
    // interest summaries here (see [`TrialWorkload::membership`]).
    let membership = workload.membership(scenario);
    run_workload::<F>(scenario, &workload, membership)
}

/// The trial loop of [`run_scenario_trial_states`] over an already
/// instantiated provider.
fn run_workload<F: ProtocolFactory>(
    scenario: &Scenario,
    workload: &TrialWorkload,
    membership: Arc<dyn MembershipView>,
) -> (TrialOutcome, Vec<F::Process>) {
    let schedule = &workload.schedule;
    let network = NetworkConfig {
        loss_probability: scenario.loss_probability,
        crash_plan: crash_plan(scenario),
        fault_plan: scenario.fault_plan(),
        seed: workload.seed,
    };
    let injection_order = workload.injection_order();

    // One latency histogram per distinct event id, in first-publication
    // schedule order (matching `per_event`); a redundant publisher of the
    // same id keeps the earliest publish round as the latency origin.
    let events = EventIndex::of(schedule);
    let mut latency: Vec<DeliveryLatency> = events
        .first
        .iter()
        .map(|&position| {
            let (round, _, event) = &schedule[position as usize];
            DeliveryLatency {
                event: event.id(),
                publish_round: *round,
                counts: Vec::new(),
            }
        })
        .collect();
    for (round, _, event) in schedule {
        let origin = &mut latency[events.rank(event.id())].publish_round;
        *origin = (*origin).min(*round);
    }

    let group = F::build(
        &workload.topology,
        workload.oracle.clone(),
        Arc::clone(&membership),
        &scenario.protocol,
    );
    let lifecycle = LifecyclePlan {
        initially_absent: workload.population.initially_absent().to_vec(),
        joins: scenario.join_schedule.clone(),
        leaves: scenario.leave_schedule.clone(),
    };
    let observer_view = Arc::clone(&membership);
    let mut sim =
        Simulation::with_lifecycle_observer(group.processes, network, lifecycle, move |t| {
            match t.kind {
                LifecycleKind::Join => observer_view.observe_join(t.process.0),
                LifecycleKind::Leave => observer_view.observe_leave(t.process.0),
                LifecycleKind::Crash => observer_view.observe_crash(t.process.0),
            }
        });
    let mut injected = 0;
    let mut rounds = 0;
    while rounds < scenario.max_rounds {
        while injected < injection_order.len() {
            let (round, sender, event) = &schedule[injection_order[injected]];
            if *round > sim.round() {
                break;
            }
            // A publisher delivers its own publication outside any step, so
            // no engine report covers it: the runner notes the flip itself.
            // (A redundant publisher that already delivered the id flips
            // nothing and is not counted twice.)
            let publisher = sim.process_mut(ProcessId(*sender));
            let delivered_before = publisher.has_delivered(event.id());
            publisher.publish(Arc::clone(event));
            if !delivered_before && publisher.has_delivered(event.id()) {
                latency[events.rank(event.id())].record(rounds);
            }
            injected += 1;
        }
        membership.round_elapsed();
        sim.step();
        // Every other first delivery happened while a process handled a
        // message of the step just executed (round `rounds`), and the
        // process reported it then — once per (process, event), because its
        // delivered-id set dedups.  Recording is therefore one table lookup
        // per delivery: O(deliveries) a round, whatever the number of
        // events in flight or of receivers.  Reads only, so it is invisible
        // to every random stream of the seed contract.
        for &(_, id) in sim.last_step_deliveries() {
            latency[events.rank(EventId(id))].record(rounds);
        }
        rounds += 1;
        // Stop once nothing can change any more: every publication is in,
        // the declared lifecycle schedule has fully applied (a trial must
        // never end with a validated join/leave/crash silently pending —
        // the reports and `Scenario::population_sizes` would disagree),
        // and the dissemination is quiescent.
        if injected == injection_order.len()
            && sim.pending_lifecycle() == 0
            && sim.is_quiescent()
        {
            break;
        }
    }
    // `ScenarioBuilder::build` rejects rounds beyond the cap; this guards
    // hand-constructed scenarios, where a silently dropped publication
    // would masquerade as a protocol failure in the reports.
    assert!(
        injected == injection_order.len(),
        "{} publication(s) scheduled at or beyond max_rounds = {} were never injected",
        injection_order.len() - injected,
        scenario.max_rounds
    );

    // Every message sent was delivered, dropped for a counted cause, or is
    // still in flight (`max_rounds` may cut a trial short).
    let stats = sim.stats();
    debug_assert_eq!(
        stats.messages_sent,
        stats.messages_delivered
            + stats.messages_lost
            + stats.messages_to_crashed
            + stats.messages_from_crashed
            + stats.messages_partitioned
            + sim.messages_in_flight(),
        "a message went unaccounted for: {stats:?}"
    );
    // A repeat the engine's receipt screen keeps from its receiver is
    // still a delivered message.
    debug_assert!(sim.screened_repeats() <= stats.messages_delivered);

    // The histograms and the per-event reports follow the same index, so
    // `latency` lines up with `per_event` position by position.
    let (report, per_event) = workload.report_distinct(&events, sim.processes());
    debug_assert_eq!(latency.len(), per_event.len());
    let outcome = TrialOutcome {
        report,
        per_event,
        latency,
        messages_sent: sim.stats().messages_sent,
        rounds,
    };
    (outcome, sim.into_processes())
}

/// Runs one trial of a scenario with the protocol chosen at runtime: the
/// thin dispatch from the [`Protocol`] enum onto the factories.
pub fn run_scenario_trial_with(
    scenario: &Scenario,
    protocol: Protocol,
    trial: usize,
) -> TrialOutcome {
    match protocol {
        Protocol::Pmcast => run_scenario_trial::<PmcastFactory>(scenario, trial),
        Protocol::FloodBroadcast => run_scenario_trial::<FloodFactory>(scenario, trial),
        Protocol::GenuineMulticast => run_scenario_trial::<GenuineFactory>(scenario, trial),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_simnet::FaultPlan;

    /// A trial over a tree that fills its space writes no member address
    /// out: the interest oracle is asked by index (it has no address form),
    /// the report asks each process for its interest, not its address, and
    /// a leaf subgroup's summary prefix is built by arithmetic.  Over the 8^3
    /// global trial and `alloc_budget`'s 300-event topic trial (summary
    /// routing over `delegate(4)`), each run through
    /// `run_scenario_trial_with`, the thread's shared views of the shape —
    /// which a group built beside the trial shares — keep no address list,
    /// until a process's address is borrowed.
    #[test]
    fn a_full_tree_trial_writes_no_address_list() {
        use crate::scenario::{MembershipSpec, TopicWorkload};
        use pmcast_core::{InterestRouting, PmcastConfig};

        let global = Scenario::builder().group(8, 3).matching_rate(0.5).loss(0.01).seed(42).build();
        let topics = Scenario::builder()
            .group(4, 3)
            .topics(TopicWorkload::new(12, 3, 300).with_publish_rounds(30))
            .membership(MembershipSpec::delegate(4))
            .protocol(PmcastConfig::default().with_interest_routing(InterestRouting::Summary))
            .seed(42)
            .build();
        for scenario in [global, topics] {
            let workload = trial_workload(&scenario, 0);
            let build = || {
                let (oracle, membership) =
                    (Arc::clone(&workload.oracle), workload.membership(&scenario));
                PmcastFactory::build(&workload.topology, oracle, membership, &scenario.protocol)
            };
            let beside = build();
            let outcome = run_scenario_trial_with(&scenario, Protocol::Pmcast, 0);
            assert!(outcome.report.delivered_interested > 0);
            let written = || format!("{:?}", beside.addresses).contains("written: true");
            assert!(!written(), "{}", scenario.group_size());
            // The trial's group shared these views: one borrowed address
            // writes the list for every group of the shape.
            let again = build();
            let first = again.processes[0].address().clone();
            assert!(written());
            assert_eq!(*beside.addresses.address(0), first);
        }
    }

    #[test]
    fn quick_profile_shape() {
        let config = Scenario::quick().build();
        assert_eq!(config.group_size(), 216);
        let paper = Scenario::paper_reliability().build();
        assert_eq!(paper.group_size(), 10_648);
        let scal = Scenario::paper_scalability(10).build();
        assert_eq!(scal.group_size(), 1_000);
        assert_eq!(scal.protocol.redundancy, 4);
    }

    #[test]
    fn pmcast_trial_delivers_to_most_interested_processes() {
        let config = Scenario::quick().trials(1).build();
        let outcome = run_scenario_trial_with(&config, Protocol::Pmcast, 0);
        assert!(outcome.report.interested > 0);
        assert!(outcome.report.delivery_ratio() > 0.7, "{outcome:?}");
        assert!(outcome.messages_sent > 0);
        assert!(outcome.rounds > 0);
        // The default workload is a single event, so the merged report is
        // exactly the per-event report.
        assert_eq!(outcome.per_event.len(), 1);
        assert_eq!(outcome.per_event[0], outcome.report);
    }

    #[test]
    fn aggregation_computes_mean_and_std() {
        let report_a = MulticastReport {
            interested: 10,
            delivered_interested: 10,
            uninterested: 10,
            received_uninterested: 0,
            received_total: 10,
        };
        let report_b = MulticastReport {
            interested: 10,
            delivered_interested: 5,
            uninterested: 10,
            received_uninterested: 2,
            received_total: 7,
        };
        let outcomes = vec![
            TrialOutcome {
                report: report_a,
                per_event: vec![report_a],
                latency: Vec::new(),
                messages_sent: 100,
                rounds: 10,
            },
            TrialOutcome {
                report: report_b,
                per_event: vec![report_b],
                latency: Vec::new(),
                messages_sent: 200,
                rounds: 20,
            },
        ];
        let aggregate = AggregateOutcome::from_trials(&outcomes);
        assert_eq!(aggregate.trials, 2);
        assert!((aggregate.delivery_mean - 0.75).abs() < 1e-12);
        assert!(aggregate.delivery_std > 0.0);
        assert!((aggregate.spurious_mean - 0.1).abs() < 1e-12);
        assert!((aggregate.messages_mean - 150.0).abs() < 1e-12);
        assert!((aggregate.rounds_mean - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn aggregating_nothing_panics() {
        let _ = AggregateOutcome::from_trials(&[]);
    }

    #[test]
    fn experiments_are_deterministic_per_seed() {
        let config = Scenario::quick().trials(2).seed(77).build();
        let a = AggregateOutcome::from_trials(&config.run(Protocol::Pmcast));
        let b = AggregateOutcome::from_trials(&config.run(Protocol::Pmcast));
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let config = Scenario::quick().trials(4).seed(5).build();
        let serial = AggregateOutcome::from_trials(&config.run(Protocol::Pmcast));
        let parallel =
            AggregateOutcome::from_trials(&config.run_parallel(Protocol::Pmcast));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_trials_are_bit_identical_to_sequential() {
        // The acceptance bar for the parallel engine: per-trial outcomes (not
        // just the aggregate) must match the sequential runner exactly for
        // the standard quick profile, because every trial re-derives its
        // randomness from `seed + t` alone.  (On single-core hosts the
        // parallel path degenerates to sequential; that trials land in input
        // order under real multi-threading is covered by the rayon shim's
        // own order-preservation test, so the composition holds without
        // mutating the process-global RAYON_NUM_THREADS here.)
        let config = Scenario::quick().build();
        let sequential = config.run(Protocol::Pmcast);
        let parallel = config.run_parallel(Protocol::Pmcast);
        assert_eq!(sequential, parallel);
        assert_eq!(
            AggregateOutcome::from_trials(&sequential),
            AggregateOutcome::from_trials(&parallel)
        );
        // And repeated parallel runs are stable despite thread scheduling.
        assert_eq!(parallel, config.run_parallel(Protocol::Pmcast));
    }

    #[test]
    fn global_view_outcomes_are_bit_identical_to_the_pre_provider_engine() {
        // Golden outcomes captured immediately before membership became a
        // provider axis: the default `GlobalOracleView` must reproduce the
        // historical oracle-built trials bit for bit — interest counts,
        // deliveries, spurious receptions, message counts and round counts.
        type QuickGolden = (Protocol, [(u64, u64, u64, u64, u64); 3]);
        let golden_quick: [QuickGolden; 3] = [
            // (interested, delivered, received_uninterested, messages, rounds)
            (Protocol::Pmcast, [(111, 108, 53, 1659, 17), (102, 98, 60, 1566, 17), (106, 105, 56, 1655, 17)]),
            (Protocol::FloodBroadcast, [(111, 111, 104, 3870, 18), (102, 102, 114, 3888, 19), (106, 106, 110, 3888, 19)]),
            (Protocol::GenuineMulticast, [(111, 111, 0, 1776, 16), (102, 102, 0, 1632, 16), (106, 106, 0, 1696, 17)]),
        ];
        for (protocol, expected) in golden_quick {
            let config = Scenario::quick().trials(3).build();
            for (trial, outcome) in config.run(protocol).iter().enumerate() {
                let got = (
                    outcome.report.interested as u64,
                    outcome.report.delivered_interested as u64,
                    outcome.report.received_uninterested as u64,
                    outcome.messages_sent,
                    outcome.rounds,
                );
                assert_eq!(got, expected[trial], "{protocol:?} trial {trial}");
            }
        }

        // A churn-and-loss scenario exercising the crash observer path (a
        // no-op for the global view, so the streams must not shift).
        let scenario = Scenario::builder()
            .group(4, 3)
            .matching_rate(0.6)
            .loss(0.05)
            .crash_fraction(0.05)
            .crash_at(3, 7)
            .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
            .publish_at(2, Publisher::Uniform, Event::builder(2).int("b", 2).build())
            .trials(2)
            .seed(11)
            .build();
        type ScenarioGolden = (Protocol, [(u64, u64, u64, u64); 2]);
        let golden_scenario: [ScenarioGolden; 3] = [
            // (delivered, received_total, messages, rounds)
            (Protocol::Pmcast, [(80, 100, 1113, 16), (62, 104, 1137, 16)]),
            (Protocol::FloodBroadcast, [(80, 116, 1624, 17), (64, 118, 1652, 17)]),
            (Protocol::GenuineMulticast, [(80, 80, 1120, 17), (64, 64, 896, 16)]),
        ];
        for (protocol, expected) in golden_scenario {
            for (trial, outcome) in scenario.run(protocol).iter().enumerate() {
                let got = (
                    outcome.report.delivered_interested as u64,
                    outcome.report.received_total as u64,
                    outcome.messages_sent,
                    outcome.rounds,
                );
                assert_eq!(got, expected[trial], "{protocol:?} trial {trial}");
            }
        }
    }

    #[test]
    fn delegate_view_outcomes_under_churn_are_bit_identical_to_the_full_round_loop() {
        // Golden outcomes captured at the commit before `DelegateView`
        // learned to skip settled processes and seek its stream: leaves,
        // scheduled crashes (two depth-1 delegates in one round among
        // them), a rejoin and a ten-process flash crowd, with publications
        // before, during and after the churn.  Every later draw of the
        // membership stream decides who is seated where, so a round that
        // skipped work it should have done — or left the stream one word
        // off — shows here.
        let mut builder = Scenario::builder()
            .group(5, 3)
            .membership(crate::scenario::MembershipSpec::delegate(3))
            .matching_rate(0.6)
            .loss(0.02)
            .crash_at(2, 0)
            .crash_at(2, 25)
            .crash_at(6, 1)
            .crash_at(9, 77)
            .leave_at(1, 50)
            .leave_at(3, 26)
            .leave_at(3, 101)
            .leave_at(7, 2)
            .join_at(8, 50)
            .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
            .publish_at(4, Publisher::Uniform, Event::builder(2).int("b", 2).build())
            .publish_at(10, Publisher::Process(60), Event::builder(3).int("b", 3).build())
            .publish_at(16, Publisher::Process(124), Event::builder(4).int("b", 4).build())
            .trials(3)
            .seed(29);
        for joiner in 110..120 {
            builder = builder.join_at(5, joiner);
        }
        let scenario = builder.build();
        type ChurnGolden = (Protocol, [(u64, u64, u64, u64); 3]);
        let golden: [ChurnGolden; 3] = [
            // (delivered, spurious, messages, rounds)
            (Protocol::Pmcast, [(208, 120, 2834, 31), (267, 88, 3348, 31), (252, 98, 3184, 31)]),
            (Protocol::FloodBroadcast, [(233, 235, 7450, 45), (294, 168, 7336, 39), (281, 187, 7408, 43)]),
            (Protocol::GenuineMulticast, [(214, 2, 2985, 37), (284, 0, 4510, 40), (274, 0, 4314, 38)]),
        ];
        for (protocol, expected) in golden {
            for (trial, outcome) in scenario.run(protocol).iter().enumerate() {
                let got = (
                    outcome.report.delivered_interested as u64,
                    outcome.report.received_uninterested as u64,
                    outcome.messages_sent,
                    outcome.rounds,
                );
                assert_eq!(got, expected[trial], "{protocol:?} trial {trial}");
            }
        }
    }

    #[test]
    fn flood_baseline_reaches_more_uninterested_processes_than_pmcast() {
        let base = Scenario::quick().trials(2).matching_rate(0.3).build();
        let pmcast = AggregateOutcome::from_trials(&base.run(Protocol::Pmcast));
        let flood = AggregateOutcome::from_trials(&base.run(Protocol::FloodBroadcast));
        assert!(
            flood.spurious_mean > pmcast.spurious_mean,
            "flooding ({}) should touch more uninterested processes than pmcast ({})",
            flood.spurious_mean,
            pmcast.spurious_mean
        );
    }

    #[test]
    fn genuine_baseline_never_touches_uninterested_processes() {
        let config = Scenario::quick().trials(2).matching_rate(0.3).build();
        let outcome =
            AggregateOutcome::from_trials(&config.run(Protocol::GenuineMulticast));
        assert_eq!(outcome.spurious_mean, 0.0);
        assert!(outcome.delivery_mean > 0.7);
    }

    #[test]
    fn multi_publisher_multi_event_scenario_runs_on_every_protocol() {
        // The API-redesign acceptance bar: one scenario with several
        // publishers and several events, staggered over rounds, runs
        // unchanged on all three protocols through the single generic trial
        // loop — and stays bit-identical under the parallel runner.
        let scenario = Scenario::builder()
            .group(4, 3) // 64 processes
            .matching_rate(0.6)
            .loss(0.01)
            .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
            .publish_at(2, Publisher::Uniform, Event::builder(2).int("b", 2).build())
            .publish_at(5, Publisher::Process(7), Event::builder(3).int("b", 3).build())
            .trials(2)
            .seed(11)
            .build();
        for protocol in [
            Protocol::Pmcast,
            Protocol::FloodBroadcast,
            Protocol::GenuineMulticast,
        ] {
            let outcomes = scenario.run(protocol);
            assert_eq!(outcomes.len(), 2, "{protocol:?}");
            for outcome in &outcomes {
                assert_eq!(outcome.per_event.len(), 3, "{protocol:?}");
                // The merged report is the per-event sum.
                let mut merged = MulticastReport::default();
                for event_report in &outcome.per_event {
                    merged.merge(event_report);
                }
                assert_eq!(merged, outcome.report, "{protocol:?}");
                // Each event found its audience.
                for event_report in &outcome.per_event {
                    assert!(
                        event_report.delivery_ratio() > 0.5,
                        "{protocol:?}: {event_report:?}"
                    );
                }
                assert!(outcome.messages_sent > 0);
            }
            assert_eq!(outcomes, scenario.run_parallel(protocol), "{protocol:?}");
        }
    }

    #[test]
    fn scheduled_crashes_flow_into_the_simulation() {
        // Crash the only publisher at round 1; the event must not reach the
        // whole audience, proving the schedule reaches the network layer.
        let healthy = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish(Publisher::Process(0), Event::builder(4).build())
            .seed(3)
            .build();
        let crashed = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish(Publisher::Process(0), Event::builder(4).build())
            .crash_at(1, 0)
            .seed(3)
            .build();
        let healthy_outcome = &healthy.run(Protocol::FloodBroadcast)[0];
        let crashed_outcome = &crashed.run(Protocol::FloodBroadcast)[0];
        assert!(healthy_outcome.report.delivered_interested == 16);
        assert!(
            crashed_outcome.report.delivered_interested
                <= healthy_outcome.report.delivered_interested
        );
        assert!(crashed_outcome.messages_sent < healthy_outcome.messages_sent);
    }

    #[test]
    fn joiners_receive_publications_made_after_their_join() {
        // Process 15 starts absent and joins at round 2; an event published
        // at round 5 must reach it, while one published at round 0 into a
        // trial where it never joins cannot.
        let joined = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .join_at(2, 15)
            .publish_at(5, Publisher::Process(0), Event::builder(8).build())
            .seed(4)
            .build();
        assert_eq!(joined.group_size(), 15, "the joiner starts absent");
        let outcome = &joined.run(Protocol::FloodBroadcast)[0];
        assert_eq!(
            outcome.report.delivered_interested, 16,
            "the joiner catches the post-join publication: {:?}",
            outcome.report
        );

        // Same trial without the join: only 15 processes can deliver.
        let absent_forever = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .join_at(350, 15) // joins long after the flood has quiesced
            .publish_at(5, Publisher::Process(0), Event::builder(8).build())
            .seed(4)
            .build();
        let missed = &absent_forever.run(Protocol::FloodBroadcast)[0];
        assert_eq!(
            missed.report.delivered_interested, 15,
            "a process absent during dissemination cannot deliver: {:?}",
            missed.report
        );
        // Lifecycle trials stay bit-identical under the parallel runner.
        assert_eq!(joined.run(Protocol::Pmcast), joined.run_parallel(Protocol::Pmcast));
    }

    #[test]
    fn trials_run_until_the_declared_lifecycle_schedule_has_applied() {
        // The flood quiesces long before round 50, but the scenario
        // declares a leave there: the trial must keep stepping (empty
        // rounds) until the whole validated schedule has applied, so the
        // outcome never disagrees with `population_sizes()`.
        let scenario = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish(Publisher::Process(0), Event::builder(6).build())
            .leave_at(50, 3)
            .seed(2)
            .build();
        let outcome = &scenario.run(Protocol::FloodBroadcast)[0];
        assert!(
            outcome.rounds > 50,
            "the trial ended at round {} with the round-50 leave still pending",
            outcome.rounds
        );
        // Without the late event the same trial stops at quiescence.
        let static_scenario = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish(Publisher::Process(0), Event::builder(6).build())
            .seed(2)
            .build();
        let static_outcome = &static_scenario.run(Protocol::FloodBroadcast)[0];
        assert!(static_outcome.rounds < 50);
        assert_eq!(
            static_outcome.report, outcome.report,
            "idle rounds after quiescence change nothing but the round count"
        );
    }

    #[test]
    #[should_panic(expected = "crash scheduled at round")]
    fn unreachable_crash_rounds_are_rejected() {
        let _ = Scenario::builder().max_rounds(10).crash_at(10, 0).build();
    }

    #[test]
    fn crash_then_rejoin_schedules_keep_the_process_present_at_round_zero() {
        // crash_at(6) + join_at(12) describes a crash-then-rejoin, not a
        // late newcomer: the process must be up for the round-0 publish and
        // deliver exactly as in the crash-only scenario.
        let with_rejoin = |rejoin: bool| {
            let builder = Scenario::builder()
                .group(4, 2)
                .matching_rate(1.0)
                .crash_at(6, 5)
                .publish(Publisher::Process(0), Event::builder(2).build())
                .seed(17);
            let builder = if rejoin { builder.join_at(12, 5) } else { builder };
            builder.build()
        };
        let rejoin = with_rejoin(true);
        assert!(rejoin.population().initially_absent().is_empty());
        assert_eq!(rejoin.group_size(), 16);
        let crash_only = &with_rejoin(false).run(Protocol::GenuineMulticast)[0];
        let rejoined = &rejoin.run(Protocol::GenuineMulticast)[0];
        assert_eq!(crash_only.report.delivered_interested, 16);
        assert_eq!(
            rejoined.report.delivered_interested, 16,
            "adding the rejoin must not retroactively unseat the process: {:?}",
            rejoined.report
        );
    }

    #[test]
    fn graceful_leave_equals_crash_under_global_membership() {
        // `GlobalOracleView` ignores lifecycle notifications and the
        // network treats a leaver exactly like a crashed process, so under
        // global membership the two schedules must produce bit-identical
        // outcomes — the stream-neutrality invariant extended to leaves.
        let with = |crash: bool| {
            let builder = Scenario::builder()
                .group(4, 2)
                .matching_rate(1.0)
                .loss(0.05)
                .publish(Publisher::Process(0), Event::builder(3).build())
                .seed(21);
            let builder = if crash {
                builder.crash_at(2, 7)
            } else {
                builder.leave_at(2, 7)
            };
            builder.build()
        };
        for protocol in [
            Protocol::Pmcast,
            Protocol::FloodBroadcast,
            Protocol::GenuineMulticast,
        ] {
            assert_eq!(
                with(false).run(protocol),
                with(true).run(protocol),
                "{protocol:?}: leave and crash must be indistinguishable to a \
                 stream-neutral provider"
            );
        }
    }

    #[test]
    fn leavers_stop_participating_in_the_dissemination() {
        // Half the group unsubscribes right after the publish: delivery
        // drops below the full audience but the trial completes cleanly.
        let mut churn = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish(Publisher::Process(0), Event::builder(5).build())
            .seed(8);
        for victim in 8..16 {
            churn = churn.leave_at(1, victim);
        }
        let scenario = churn.build();
        let sizes = scenario.population_sizes();
        assert_eq!((sizes.initial, sizes.end), (16, 8));
        let outcome = &scenario.run(Protocol::FloodBroadcast)[0];
        assert!(outcome.report.delivered_interested >= 8, "{:?}", outcome.report);
        assert!(
            outcome.report.delivered_interested < 16,
            "leavers at round 1 cannot all have delivered: {:?}",
            outcome.report
        );
    }

    #[test]
    fn redundant_publishers_of_one_event_are_reported_once() {
        // The same event published from two processes is one dissemination:
        // one per-event report, no double-counted totals.
        let event = Event::builder(21).int("b", 4).build();
        let scenario = Scenario::builder()
            .group(4, 2)
            .matching_rate(0.5)
            .publish(Publisher::Process(0), event.clone())
            .publish_at(2, Publisher::Process(9), event)
            .seed(13)
            .build();
        let outcome = &scenario.run(Protocol::FloodBroadcast)[0];
        assert_eq!(outcome.per_event.len(), 1);
        assert_eq!(outcome.per_event[0], outcome.report);
        assert_eq!(
            outcome.report.interested + outcome.report.uninterested,
            16,
            "every process classified exactly once: {:?}",
            outcome.report
        );
        assert!(outcome.report.delivery_ratio() > 0.9);
    }

    #[test]
    #[should_panic(expected = "can never run")]
    fn publications_beyond_the_round_cap_are_rejected() {
        let _ = Scenario::builder()
            .max_rounds(10)
            .publish_at(10, Publisher::Uniform, Event::builder(1).build())
            .build();
    }

    #[test]
    #[should_panic(expected = "never injected")]
    fn hand_built_scenarios_cannot_silently_drop_publications() {
        let mut scenario = Scenario::builder().group(4, 2).build();
        scenario.max_rounds = 3;
        scenario.publications.push(Publication {
            round: 5,
            publisher: Publisher::Uniform,
            event: Event::builder(2).build(),
        });
        let _ = run_scenario_trial_with(&scenario, Protocol::Pmcast, 0);
    }

    /// The delivery recording `run_workload` had before the engine reported
    /// deliveries, kept verbatim as the reference the push-driven recording
    /// is held against: after every step, every event's tracker polls
    /// `has_delivered` on the step's receivers and the round's publishers,
    /// with one `recorded` bitmap per event against double counting.
    fn polled_latency<F: ProtocolFactory>(scenario: &Scenario, trial: usize) -> Vec<DeliveryLatency> {
        let workload = trial_workload(scenario, trial);
        let membership = workload.membership(scenario);
        let schedule = &workload.schedule;
        let network = NetworkConfig {
            loss_probability: scenario.loss_probability,
            crash_plan: crash_plan(scenario),
            fault_plan: scenario.fault_plan(),
            seed: workload.seed,
        };
        let injection_order = workload.injection_order();

        struct LatencyTracker {
            event: EventId,
            publish_round: u64,
            recorded: Vec<bool>,
            counts: Vec<u64>,
        }
        let process_count = workload.topology.member_count();
        let mut trackers: Vec<LatencyTracker> = Vec::with_capacity(schedule.len());
        for (round, _, event) in schedule {
            match trackers.iter_mut().find(|t| t.event == event.id()) {
                Some(tracker) => tracker.publish_round = tracker.publish_round.min(*round),
                None => trackers.push(LatencyTracker {
                    event: event.id(),
                    publish_round: *round,
                    recorded: vec![false; process_count],
                    counts: Vec::new(),
                }),
            }
        }

        let group = F::build(
            &workload.topology,
            workload.oracle.clone(),
            Arc::clone(&membership),
            &scenario.protocol,
        );
        let lifecycle = LifecyclePlan {
            initially_absent: workload.population.initially_absent().to_vec(),
            joins: scenario.join_schedule.clone(),
            leaves: scenario.leave_schedule.clone(),
        };
        let observer_view = Arc::clone(&membership);
        let mut sim =
            Simulation::with_lifecycle_observer(group.processes, network, lifecycle, move |t| {
                match t.kind {
                    LifecycleKind::Join => observer_view.observe_join(t.process.0),
                    LifecycleKind::Leave => observer_view.observe_leave(t.process.0),
                    LifecycleKind::Crash => observer_view.observe_crash(t.process.0),
                }
            });
        let mut injected = 0;
        let mut rounds = 0;
        let mut delivery_candidates: Vec<usize> = Vec::new();
        while rounds < scenario.max_rounds {
            delivery_candidates.clear();
            while injected < injection_order.len() {
                let (round, sender, event) = &schedule[injection_order[injected]];
                if *round > sim.round() {
                    break;
                }
                sim.process_mut(ProcessId(*sender)).publish(Arc::clone(event));
                delivery_candidates.push(*sender);
                injected += 1;
            }
            membership.round_elapsed();
            sim.step();
            rounds += 1;
            let executed = rounds - 1;
            delivery_candidates.extend_from_slice(sim.last_step_receivers());
            for tracker in &mut trackers {
                if tracker.publish_round > executed {
                    continue;
                }
                let latency = (executed - tracker.publish_round) as usize;
                for &index in &delivery_candidates {
                    if !tracker.recorded[index]
                        && sim.process(ProcessId(index)).has_delivered(tracker.event)
                    {
                        tracker.recorded[index] = true;
                        if tracker.counts.len() <= latency {
                            tracker.counts.resize(latency + 1, 0);
                        }
                        tracker.counts[latency] += 1;
                    }
                }
            }
            if injected == injection_order.len()
                && sim.pending_lifecycle() == 0
                && sim.is_quiescent()
            {
                break;
            }
        }
        trackers
            .into_iter()
            .map(|tracker| DeliveryLatency {
                event: tracker.event,
                publish_round: tracker.publish_round,
                counts: tracker.counts,
            })
            .collect()
    }

    #[test]
    fn reported_deliveries_record_what_polling_every_tracker_recorded() {
        use crate::scenario::{MembershipSpec, TopicWorkload};
        use pmcast_core::{InterestRouting, PmcastConfig};
        let event = |id: u64| Event::builder(id).int("b", id as i64).build();
        let base = || Scenario::builder().group(4, 3).matching_rate(0.6).loss(0.02).seed(11);
        let smoke = |routing: InterestRouting| {
            Scenario::builder()
                .group(4, 3)
                .topics(TopicWorkload::new(12, 3, 300).with_publish_rounds(30))
                .protocol(PmcastConfig::default().with_interest_routing(routing))
                .seed(42)
        };
        let schedules = [
            (
                "several publishers, several events",
                base()
                    .publish(Publisher::Interested, event(1))
                    .publish_at(2, Publisher::Uniform, event(2))
                    .publish_at(2, Publisher::Process(7), event(3))
                    .publish_at(5, Publisher::Process(7), event(4)),
            ),
            (
                // The later schedule entry is the earlier publication, one
                // publisher republishes what it already delivered, and one
                // round sees the same id injected at two processes.
                "redundant publishers",
                base()
                    .matching_rate(1.0)
                    .publish_at(3, Publisher::Process(9), event(21))
                    .publish(Publisher::Process(0), event(21))
                    .publish_at(6, Publisher::Process(0), event(21))
                    .publish_at(1, Publisher::Process(40), event(22))
                    .publish_at(1, Publisher::Process(41), event(22)),
            ),
            (
                "joins, leaves and crashes",
                base()
                    .join_at(3, 63)
                    .join_at(3, 62)
                    .leave_at(2, 5)
                    .leave_at(4, 20)
                    .join_at(9, 5)
                    .crash_at(1, 16)
                    .crash_at(6, 1)
                    .crash_fraction(0.05)
                    .publish(Publisher::Interested, event(1))
                    .publish_at(4, Publisher::Process(62), event(2))
                    .publish_at(7, Publisher::Process(16), event(3))
                    .publish_at(10, Publisher::Uniform, event(4)),
            ),
            (
                "link delay and stragglers",
                base()
                    .link_delay(0, 3)
                    .straggler(0, 3)
                    .straggler(17, 2)
                    .publish(Publisher::Process(0), event(1))
                    .publish_at(1, Publisher::Process(17), event(2))
                    .publish_at(3, Publisher::Interested, event(3)),
            ),
            ("300 topical events, summary routing", smoke(InterestRouting::Summary)),
            ("300 topical events, blind routing", smoke(InterestRouting::Blind)),
        ];
        let providers = [
            MembershipSpec::Global,
            MembershipSpec::partial(12),
            MembershipSpec::delegate(4),
        ];
        for (name, builder) in schedules {
            for provider in providers {
                let scenario = builder.clone().membership(provider).build();
                let pairs = [
                    (
                        run_scenario_trial::<PmcastFactory>(&scenario, 0),
                        polled_latency::<PmcastFactory>(&scenario, 0),
                    ),
                    (
                        run_scenario_trial::<FloodFactory>(&scenario, 0),
                        polled_latency::<FloodFactory>(&scenario, 0),
                    ),
                    (
                        run_scenario_trial::<GenuineFactory>(&scenario, 0),
                        polled_latency::<GenuineFactory>(&scenario, 0),
                    ),
                ];
                for (protocol, (outcome, polled)) in pairs.into_iter().enumerate() {
                    assert_eq!(outcome.latency, polled, "{name}, {provider:?}, protocol {protocol}");
                    let recorded: u64 = outcome.latency.iter().map(DeliveryLatency::delivered).sum();
                    assert_eq!(
                        recorded, outcome.report.delivered_interested as u64,
                        "{name}, {provider:?}, protocol {protocol}: every delivery in one bucket"
                    );
                }
            }
        }
    }

    #[test]
    fn latency_histograms_account_for_every_delivery() {
        let config = Scenario::quick().trials(1).build();
        let outcome = run_scenario_trial_with(&config, Protocol::Pmcast, 0);
        assert_eq!(outcome.latency.len(), outcome.per_event.len());
        let histogram = &outcome.latency[0];
        assert_eq!(
            histogram.delivered(),
            outcome.report.delivered_interested as u64,
            "every delivery lands in exactly one latency bucket"
        );
        assert_eq!(histogram.publish_round, 0);
        assert_eq!(histogram.counts[0], 1, "the publisher delivers at latency 0");
        assert!(histogram.mean() > 0.0);
        assert!(histogram.quantile(0.5) <= histogram.quantile(1.0));
        assert!((histogram.quantile(1.0) as usize) < histogram.counts.len());
    }

    #[test]
    fn latency_origin_is_the_publish_round() {
        // An event published at round 4 must measure latency from round 4,
        // not from the start of the trial.
        let scenario = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish_at(4, Publisher::Process(0), Event::builder(7).build())
            .seed(6)
            .build();
        let outcome = &scenario.run(Protocol::FloodBroadcast)[0];
        let histogram = &outcome.latency[0];
        assert_eq!(histogram.publish_round, 4);
        assert_eq!(histogram.counts[0], 1);
        assert_eq!(histogram.delivered(), 16);
        // A reliable flood over 16 processes finishes within a few hops.
        assert!(histogram.quantile(1.0) <= 4, "{:?}", histogram.counts);
    }

    #[test]
    fn delivery_latency_helpers_compute_mean_quantile_and_merge() {
        let mut histogram = DeliveryLatency {
            event: Event::builder(1).build().id(),
            publish_round: 0,
            counts: vec![1, 0, 3],
        };
        assert_eq!(histogram.delivered(), 4);
        assert!((histogram.mean() - 1.5).abs() < 1e-12);
        assert_eq!(histogram.quantile(0.25), 0);
        assert_eq!(histogram.quantile(1.0), 2);
        let other = DeliveryLatency {
            event: histogram.event,
            publish_round: 0,
            counts: vec![0, 2, 0, 5],
        };
        histogram.merge(&other);
        assert_eq!(histogram.counts, vec![1, 2, 3, 5]);
        let empty = DeliveryLatency {
            event: histogram.event,
            publish_round: 0,
            counts: Vec::new(),
        };
        assert_eq!(empty.delivered(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile(0.9), 0);
    }

    #[test]
    fn link_delay_stretches_latency_without_losing_deliveries() {
        let base = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .publish(Publisher::Process(0), Event::builder(5).build())
            .seed(9);
        let fast = base.clone().build();
        let slow = base.link_delay(1, 3).build();
        let fast_outcome = &fast.run(Protocol::FloodBroadcast)[0];
        let slow_outcome = &slow.run(Protocol::FloodBroadcast)[0];
        assert_eq!(fast_outcome.report.delivered_interested, 16);
        assert_eq!(
            slow_outcome.report.delivered_interested, 16,
            "delay postpones but never destroys messages"
        );
        assert!(
            slow_outcome.latency[0].mean() > fast_outcome.latency[0].mean(),
            "slow {:?} vs fast {:?}",
            slow_outcome.latency[0].counts,
            fast_outcome.latency[0].counts
        );
        assert!(slow_outcome.rounds > fast_outcome.rounds);
    }

    #[test]
    fn healing_partition_delays_the_other_cell_until_heal() {
        // Publisher in cell 0; the partition [0, 6) cuts the group in two
        // cells, so cell 1 (processes 8..16) can only deliver after the
        // heal at round 6.
        let scenario = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .partition(0, 6, 2)
            .publish(Publisher::Process(0), Event::builder(5).build())
            .seed(9)
            .build();
        let outcome = &scenario.run(Protocol::FloodBroadcast)[0];
        assert_eq!(
            outcome.report.delivered_interested, 16,
            "the partition heals, so everybody eventually delivers: {:?}",
            outcome.report
        );
        let histogram = &outcome.latency[0];
        // Nobody in the other cell can deliver before round 6, so at most
        // the 8 processes of cell 0 appear in buckets 0..6.
        let early: u64 = histogram.counts.iter().take(6).sum();
        assert!(early <= 8, "{:?}", histogram.counts);
        assert!(histogram.quantile(1.0) >= 6, "{:?}", histogram.counts);
    }

    #[test]
    fn subtree_loss_degrades_only_the_lossy_subtree() {
        // Subtree [3] (processes 12..16) suffers heavy extra loss; the other
        // twelve processes stay on the reliable network.
        let scenario = Scenario::builder()
            .group(4, 2)
            .matching_rate(1.0)
            .subtree_loss(&[3], 0.9)
            .publish(Publisher::Process(0), Event::builder(5).build())
            .trials(4)
            .seed(9)
            .max_rounds(30)
            .build();
        for outcome in scenario.run(Protocol::FloodBroadcast) {
            assert!(
                outcome.report.delivered_interested >= 12,
                "the healthy subtrees must not be affected: {:?}",
                outcome.report
            );
        }
    }

    #[test]
    fn declared_but_inactive_fault_axes_are_bit_identical_to_no_plan() {
        // Every axis declared with its neutral value must leave all three
        // random streams untouched — outcome equality is exact, including
        // latency histograms.
        let base = || {
            Scenario::builder()
                .group(4, 3)
                .matching_rate(0.6)
                .loss(0.05)
                .crash_fraction(0.05)
                .trials(2)
                .seed(31)
        };
        let plain = base().build();
        let neutral = base()
            .link_delay(0, 0)
            .partition(3, 3, 4) // empty window
            .partition(2, 9, 1) // single cell
            .subtree_loss(&[1], 0.0)
            .straggler(5, 1)
            .build();
        assert!(neutral.fault_plan() != FaultPlan::default(), "axes are declared");
        for protocol in [
            Protocol::Pmcast,
            Protocol::FloodBroadcast,
            Protocol::GenuineMulticast,
        ] {
            assert_eq!(plain.run(protocol), neutral.run(protocol), "{protocol:?}");
        }
    }

    #[test]
    fn topic_workload_builds_one_oracle_and_a_full_schedule() {
        use crate::scenario::TopicWorkload;
        let scenario = Scenario::builder()
            .group(4, 2)
            .topics(TopicWorkload::new(6, 2, 20).with_publish_rounds(4))
            .seed(19)
            .build();
        let workload = trial_workload(&scenario, 0);
        let oracle = workload.topic_oracle.as_ref().expect("topic oracle");
        assert_eq!(workload.schedule.len(), 20);
        for (index, (round, sender, event)) in workload.schedule.iter().enumerate() {
            assert_eq!(event.id().0, 10_000 + index as u64);
            assert!(*round < 4, "round {round} within the publish window");
            // The publisher subscribes to the event's topic (every topic
            // has subscribers here: 16 processes × 2 picks over 6 topics).
            let topic = oracle.topic_of(event).expect("topical event");
            assert!(
                oracle.is_interested(*sender as u128, event),
                "publisher {sender} does not subscribe to topic {topic}"
            );
        }
        // Rounds are spread, not a single burst.
        assert!(workload.schedule.iter().any(|(round, _, _)| *round > 0));
        // 16 processes × ≤3 distinct audiences… the hashcons built far
        // fewer oracles than it served topics.
        let stats = oracle.intern_stats();
        assert_eq!(stats.misses + stats.hits, 6, "one lookup per topic");
    }

    #[test]
    fn topic_trials_deliver_to_subscribers_only_and_stay_deterministic() {
        use crate::scenario::TopicWorkload;
        let scenario = Scenario::builder()
            .group(4, 2)
            .topics(TopicWorkload::new(5, 2, 12).with_publish_rounds(3))
            .seed(23)
            .build();
        // Genuine multicast on a reliable network: every subscriber of a
        // published topic delivers, nobody else receives anything.
        let outcome = &scenario.run(Protocol::GenuineMulticast)[0];
        assert_eq!(outcome.per_event.len(), 12);
        assert_eq!(outcome.report.received_uninterested, 0);
        assert_eq!(
            outcome.report.delivered_interested, outcome.report.interested,
            "loss-free genuine multicast reaches the whole audience: {:?}",
            outcome.report
        );
        assert!(outcome.report.interested > 0);
        // Deterministic and parallel-stable, like every other workload.
        for protocol in [Protocol::Pmcast, Protocol::GenuineMulticast] {
            let sequential = scenario.run(protocol);
            assert_eq!(sequential, scenario.run(protocol), "{protocol:?}");
            assert_eq!(sequential, scenario.run_parallel(protocol), "{protocol:?}");
        }
    }

    #[test]
    fn summary_routing_works_whether_or_not_the_delegate_tables_exist() {
        // `pmbench`'s `topics_summary` shape at smoke size.  A static trial
        // never stores the delegate tables, and the interest summaries must
        // be consulted all the same.
        use crate::scenario::{MembershipSpec, TopicWorkload};
        use pmcast_core::{InterestRouting, PmcastConfig};
        use pmcast_membership::{DelegateView, DelegateViewConfig};
        let scenario_with = |routing: InterestRouting| {
            Scenario::builder()
                .group(4, 3)
                .topics(TopicWorkload::new(12, 3, 300).with_publish_rounds(30))
                .membership(MembershipSpec::delegate(4))
                .protocol(PmcastConfig::default().with_interest_routing(routing))
                .seed(42)
                .build()
        };
        let run = |scenario: &Scenario, tables_up_front: bool| {
            let workload = trial_workload(scenario, 0);
            let config = DelegateViewConfig::default().with_slots(4);
            let view = Arc::new(DelegateView::bootstrap(4, 3, config, workload.seed));
            let topics = workload.topic_oracle.as_ref().expect("a topic workload");
            view.attach_interest_summaries(topics.subtree_summaries());
            if tables_up_front {
                view.peer_count(0);
            }
            let (outcome, _) = run_workload::<PmcastFactory>(scenario, &workload, view.clone());
            (outcome, view.has_tables())
        };
        let summary = scenario_with(InterestRouting::Summary);
        let (table_less, has_tables) = run(&summary, false);
        assert!(!has_tables, "a static trial stores no delegate tables");
        assert_eq!(table_less, run(&summary, true).0);
        assert_eq!(table_less, run_scenario_trial::<PmcastFactory>(&summary, 0));
        let (blind, _) = run(&scenario_with(InterestRouting::Blind), false);
        assert!(
            table_less.messages_sent < blind.messages_sent,
            "the summary veto must save messages: {} vs {} blind",
            table_less.messages_sent,
            blind.messages_sent
        );
    }

    #[test]
    fn default_workload_matches_explicit_equivalent() {
        // A scenario spelling out the default workload explicitly (same
        // event id, same publisher rule, round 0) reproduces the implicit
        // default bit for bit — the seed contract in action.
        let config = Scenario::quick().trials(1).seed(123).build();
        let implicit = run_scenario_trial_with(&config, Protocol::Pmcast, 0);
        let mut scenario = config.clone();
        scenario.publications.push(Publication {
            round: 0,
            publisher: Publisher::Interested,
            event: Event::builder(1_000).int("b", 1).build(),
        });
        let explicit = run_scenario_trial_with(&scenario, Protocol::Pmcast, 0);
        assert_eq!(implicit, explicit);
    }
}
