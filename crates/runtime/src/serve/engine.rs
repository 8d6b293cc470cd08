//! The discrete-event serving engine.
//!
//! One deterministic event queue drives the whole cluster: **arrival**
//! events admit requests (invoking the [`Placement`] online, with a
//! live [`ClusterView`]), **batch-close** events fire at the instant a
//! [`BatchPolicy`] named in a
//! [`PolicyDecision::WaitUntil`](super::PolicyDecision::WaitUntil),
//! **service-complete** events free a shard and let it dispatch again,
//! and **fault** events from the configured [`FaultPlan`] crash,
//! degrade or stall shards (recovery — retries, hedges — rides the
//! same queue). Events are totally ordered by `(time, class,
//! sequence)` — time via `f64::total_cmp`, then arrivals before
//! completions before timers before fault, retry, hedge, preempt and
//! scale events at equal instants, and a monotone sequence number
//! last — so a run is a pure function of its inputs: byte-identical
//! across repeats, machines and worker-thread counts, with or without
//! faults.
//!
//! Two admission modes bound the refactor:
//!
//! * [`Admission::Online`] (default): placement sees the live cluster
//!   (backlog, in-flight batches, plan-cache residency, shard health)
//!   at each arrival, and the admission controller re-places or
//!   rejects requests whose plan cannot fit the target shard's cache
//!   budget.
//! * [`Admission::Preplaced`] is the legacy-parity shim: placement
//!   runs over the whole trace up front against a zeroed view, exactly
//!   like the pre-engine sequential admission pass. Under an unbounded
//!   cache and zero compile cost the engine reproduces the
//!   three-phase pipeline's outcomes bit for bit (pinned by
//!   `tests/serve_engine.rs`).
//!
//! Everything one shard decides — its queues, batch selection, launch
//! pricing, fault-window state, reconfiguration window and records —
//! lives in the sans-IO `ShardCore` (`serve/shard.rs`), which the live
//! twin drives too. This engine clocks the cores from its event heap
//! and keeps only what is cluster-wide or event-specific: dispatch
//! epochs and in-flight aborts, crash/recover, compile-fail gating,
//! batch-close timers, retries, hedges and the served-id dedup, the
//! autoscaler, and the preplaced per-network future counts.
//!
//! The fault model, injected-event ordering and recovery semantics are
//! specified in `docs/FAULT_TOLERANCE.md`; an empty [`FaultPlan`] (the
//! default) leaves every byte of the fault-free engine's output
//! untouched, pinned by `tests/serve_fault.rs`.

use super::fault::{ClassFaultStats, FaultKind, FaultPlan, HedgePolicy, RetryPolicy, ShedPolicy};
use super::load::Request;
use super::placement::{place, ClusterView, Placement, ViewGauges};
use super::policy::BatchPolicy;
use super::scale::{AutoscalePolicy, EnergyFrontier, ReconfigPolicy, ReconfigStats, ScaleStats};
use super::shard::{close_fleet, Batch, Ready, ShardCore};
use super::slo::PreemptPolicy;
use super::{ServeCluster, ShardReport};
use crate::backend::RuntimeError;
use sma_energy::EnergyModel;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// When the [`Placement`] is consulted and what it may see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Placement runs at each request's arrival event with the live
    /// [`ClusterView`]; requests whose plan cannot fit the chosen
    /// shard's cache budget are re-placed (first fitting shard in
    /// index order) or rejected.
    Online,
    /// Legacy-parity shim: placement runs over the whole trace before
    /// the clock starts, against a view whose live fields are zero —
    /// the pre-engine sequential admission pass. No admission control,
    /// no shedding, no hedging; retries return to the failed shard.
    Preplaced,
}

/// Per-shard plan-cache capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheBudget {
    /// No bound: every compiled plan stays resident (the legacy
    /// behaviour).
    Unbounded,
    /// The same byte budget on every shard.
    Uniform(u64),
    /// An explicit byte budget per shard (must be one entry per
    /// shard).
    PerShard(Vec<u64>),
}

impl CacheBudget {
    /// The byte budget of one shard (`None` = unbounded).
    #[must_use]
    pub fn for_shard(&self, shard: usize) -> Option<u64> {
        match self {
            CacheBudget::Unbounded => None,
            CacheBudget::Uniform(bytes) => Some(*bytes),
            CacheBudget::PerShard(bytes) => bytes.get(shard).copied(),
        }
    }

    /// Whether a plan of `bytes` can ever be resident on `shard`.
    #[must_use]
    pub fn admits(&self, shard: usize, bytes: u64) -> bool {
        self.for_shard(shard).is_none_or(|budget| bytes <= budget)
    }

    /// Whether `shard`'s budget can ever hold `network`'s plan.
    pub(super) fn fits(&self, cluster: &ServeCluster, shard: usize, network: usize) -> bool {
        self.admits(shard, cluster.unit_plan_bytes()[shard][network])
    }

    /// Report label (`unbounded`, `32KiB`, `per-shard`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CacheBudget::Unbounded => "unbounded".into(),
            CacheBudget::Uniform(bytes) => format!("{}KiB", bytes / 1024),
            CacheBudget::PerShard(_) => "per-shard".into(),
        }
    }
}

/// The one online admission rule, shared by the engine and the live
/// front door: the placement's choice if its cache budget can ever hold
/// the request's plan and it is `accepting`, else the first fitting
/// accepting shard, else the first fitting shard (scaling never causes
/// a rejection), else `None` — admission rejects.
///
/// # Panics
///
/// Panics if the placement routes outside the cluster.
pub(super) fn admit_online(
    cluster: &ServeCluster,
    budget: &CacheBudget,
    placement: &mut dyn Placement,
    request: &Request,
    view: &ClusterView<'_>,
    accepting: impl Fn(usize) -> bool,
) -> Option<usize> {
    let shard_count = cluster.shard_count();
    let chosen = place(placement, request, view);
    let fits = |shard: usize| budget.fits(cluster, shard, request.network);
    if fits(chosen) && accepting(chosen) {
        Some(chosen)
    } else {
        (0..shard_count)
            .find(|&shard| fits(shard) && accepting(shard))
            .or_else(|| (0..shard_count).find(|&shard| fits(shard)))
    }
}

/// Engine knobs: admission mode, plan-cache capacity, compile cost,
/// and the fault-tolerance layer (fault schedule, retry/hedge/shed
/// policies — all default to no-ops, so `EngineConfig::default()` and
/// [`EngineConfig::legacy`] behave byte-identically to the fault-free
/// engine).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// When placement decides and what it sees.
    pub admission: Admission,
    /// Per-shard plan-cache capacity.
    pub cache_budget: CacheBudget,
    /// Simulated milliseconds billed per network layer when a batch's
    /// plan misses the shard's plan cache (compile-on-miss latency).
    pub compile_ms_per_layer: f64,
    /// Pre-drawn fault schedule (empty = no faults).
    pub faults: FaultPlan,
    /// Retry policy for requests whose batch a crash aborts.
    pub retry: RetryPolicy,
    /// Opt-in request hedging (`None` = never hedge). Online admission
    /// only.
    pub hedge: Option<HedgePolicy>,
    /// Opt-in admission shedding by SLO class (`None` = never shed).
    /// Online admission only.
    pub shed: Option<ShedPolicy>,
    /// Opt-in strict-priority preemption between SLO classes (`None` =
    /// never preempt). Online admission only.
    pub preempt: Option<PreemptPolicy>,
    /// Opt-in cost-aware autoscaling (`None` = static fleet). Online
    /// admission only. A policy whose headroom is `<= 0` is inert:
    /// no tick events are scheduled and the run stays byte-identical
    /// to `scale: None`.
    pub scale: Option<AutoscalePolicy>,
    /// Opt-in serve-time backend reconfiguration (`None` = per-shape
    /// configuration selection, the compile-time default). Only shards
    /// whose backend implements `Reconfigurable` participate.
    pub reconfig: Option<ReconfigPolicy>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            admission: Admission::Online,
            cache_budget: CacheBudget::Unbounded,
            compile_ms_per_layer: 0.0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            hedge: None,
            shed: None,
            preempt: None,
            scale: None,
            reconfig: None,
        }
    }
}

impl EngineConfig {
    /// The legacy-parity shim: preplaced admission, unbounded cache,
    /// free compiles, no faults. Under this configuration the event
    /// engine reproduces the pre-engine three-phase pipeline bit for
    /// bit.
    #[must_use]
    pub fn legacy() -> Self {
        EngineConfig {
            admission: Admission::Preplaced,
            ..EngineConfig::default()
        }
    }

    /// This configuration with a different cache budget.
    #[must_use]
    pub fn with_cache_budget(mut self, budget: CacheBudget) -> Self {
        self.cache_budget = budget;
        self
    }

    /// This configuration with a different compile-on-miss cost.
    #[must_use]
    pub fn with_compile_cost(mut self, ms_per_layer: f64) -> Self {
        self.compile_ms_per_layer = ms_per_layer.max(0.0);
        self
    }

    /// This configuration with a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// This configuration with a different retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// This configuration with request hedging enabled.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// This configuration with admission shedding enabled.
    #[must_use]
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = Some(shed);
        self
    }

    /// This configuration with SLO-class preemption enabled.
    #[must_use]
    pub fn with_preempt(mut self, preempt: PreemptPolicy) -> Self {
        self.preempt = Some(preempt);
        self
    }

    /// This configuration with cost-aware autoscaling enabled.
    #[must_use]
    pub fn with_scale(mut self, scale: AutoscalePolicy) -> Self {
        self.scale = Some(scale);
        self
    }

    /// This configuration with serve-time backend reconfiguration
    /// enabled.
    #[must_use]
    pub fn with_reconfig(mut self, reconfig: ReconfigPolicy) -> Self {
        self.reconfig = Some(reconfig);
        self
    }
}

/// Everything one engine run produced: per-shard reports (shard
/// order), plus every request that was *not* served and why. The four
/// buckets — served (in the reports), `rejected`, `shed`, `failed` —
/// partition the trace exactly: no request is lost or double-counted
/// (pinned by the reconciliation proptest in `tests/serve_fault.rs`).
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// One report per shard, in shard order.
    pub reports: Vec<ShardReport>,
    /// Requests rejected at admission (no shard's cache budget could
    /// ever hold their plan), in arrival order. Empty under
    /// [`Admission::Preplaced`] or an unbounded budget.
    pub rejected: Vec<Request>,
    /// Requests shed by the [`ShedPolicy`] watermark, in arrival
    /// order. Empty without a shed policy.
    pub shed: Vec<Request>,
    /// Requests abandoned after exhausting their [`RetryPolicy`], in
    /// failure order. Empty without faults.
    pub failed: Vec<Request>,
    /// Per-SLO-class recovery counters, indexed by class.
    pub class_stats: Vec<ClassFaultStats>,
    /// Ids whose batch a [`PreemptPolicy`] evicted at least once,
    /// sorted. Not a fifth partition bucket — preemption re-queues, so
    /// every preempted id still lands in exactly one of the four
    /// buckets (preempted-then-served = this set ∩ served, pinned by
    /// `tests/serve_scale.rs`).
    pub preempted: Vec<u64>,
    /// Autoscaler counters (all zero without an enabled
    /// [`AutoscalePolicy`]).
    pub scale: ScaleStats,
    /// Reconfiguration counters (all zero without a
    /// [`ReconfigPolicy`]).
    pub reconfig: ReconfigStats,
}

/// Event classes, in same-instant processing order: arrivals (class 0,
/// merged straight from the sorted trace rather than the heap) enqueue
/// before a completion evaluates (the pre-engine drain admitted
/// `arrival_ms <= now` before deciding), completions free the shard
/// before a stale timer re-evaluates, and the fault family fires last:
/// a batch completing at the exact instant of a crash completes,
/// recovery lands before a same-instant retry re-places, and hedges go
/// last of all. The control plane appends two fixed slots *after* the
/// existing family — preemption decides once every same-instant
/// completion, fault and recovery action has settled (a batch
/// completing at the preemption instant completes), and the autoscale
/// tick observes last of all, so no pre-existing same-instant ordering
/// changes when the new classes are enabled.
const CLASS_COMPLETE: u8 = 1;
const CLASS_TIMER: u8 = 2;
const CLASS_FAULT: u8 = 3;
const CLASS_RETRY: u8 = 4;
const CLASS_HEDGE: u8 = 5;
const CLASS_PREEMPT: u8 = 6;
const CLASS_SCALE: u8 = 7;

/// What a popped event does. The payload is deliberately not part of
/// the ordering — `(time, class, seq)` stays the total order.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// The in-flight batch of epoch `epoch` finishes (stale epochs —
    /// batches a crash aborted — are ignored).
    Complete { epoch: u64 },
    /// A batch-close timer from a
    /// [`PolicyDecision::WaitUntil`](super::PolicyDecision::WaitUntil).
    Timer,
    /// A scheduled fault fires (a degrade or compile-stall window
    /// schedules its own close; a transient compile-failure window
    /// closes by timestamp comparison).
    Fault(FaultKind),
    /// The shard comes back up (stale if a later crash extended the
    /// outage).
    Recover,
    /// A degrade or compile-stall window closes.
    WindowClose(FaultKind),
    /// A crash victim re-enters admission after its backoff.
    Retry { request: Request, from_shard: usize },
    /// The hedge delay of an admitted request expired.
    Hedge { request: Request, origin: usize },
    /// An urgent arrival claimed the shard: evict the running batch of
    /// epoch `epoch` (stale epochs — the batch completed or was
    /// already evicted at this instant — are ignored).
    Preempt { epoch: u64 },
    /// The autoscaler evaluates the fleet against the energy frontier.
    ScaleTick,
}

/// One queued engine event. Ordering is ascending `(time, class,
/// seq)`; `seq` is a global push counter, so ties are broken by
/// creation order and the queue is a total order.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    class: u8,
    seq: u64,
    shard: usize,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // event on top.
        other
            .time
            .total_cmp(&self.time)
            .then(other.class.cmp(&self.class))
            .then(other.seq.cmp(&self.seq))
    }
}

/// The batch currently executing on a shard.
struct InFlightBatch {
    batch: Batch,
    /// Dispatch epoch: a crash bumps past it, invalidating the
    /// completion event already in the queue.
    epoch: u64,
}

/// One shard inside the event loop: its [`ShardCore`] plus the state
/// that exists only because an event heap clocks it.
struct Shard<'a> {
    core: ShardCore<'a>,
    /// Preplaced mode: arrivals still to come for this shard, per
    /// network (the oracle the legacy drain exposed to policies).
    future_per_net: Vec<usize>,
    /// The executing batch (`None` = idle).
    in_flight: Option<InFlightBatch>,
    /// Monotone dispatch counter backing [`InFlightBatch::epoch`].
    epoch: u64,
    /// Crash state: the instant the shard comes back up (`None` = up).
    down_until: Option<f64>,
    /// When the current outage began (meaningful only while down).
    down_since: f64,
    /// Transient compile failures are active while `now` is before
    /// this instant.
    compile_fail_until: f64,
    /// Earliest batch-close timer currently scheduled (dedup only —
    /// stale timers are harmless, they just re-evaluate).
    pending_timer: f64,
}

impl Shard<'_> {
    /// Size of the in-flight batch (0 when idle).
    fn in_flight_len(&self) -> usize {
        self.in_flight
            .as_ref()
            .map_or(0, |f| f.batch.requests.len())
    }

    /// Outstanding requests on this shard: queued + in flight — the
    /// engine-side twin of [`ClusterView::outstanding`], and the one
    /// definition the backlog gauge and the autoscaler both read.
    fn outstanding(&self) -> usize {
        self.core.queued() + self.in_flight_len()
    }
}

/// The engine proper: all mutable run state behind one struct so the
/// event handlers stay readable. The placement is threaded through the
/// handlers that consult it (it is the caller's mutable state).
struct Engine<'a> {
    cluster: &'a ServeCluster,
    config: &'a EngineConfig,
    shards: Vec<Shard<'a>>,
    heap: BinaryHeap<Event>,
    seq: u64,
    rejected: Vec<Request>,
    shed: Vec<Request>,
    failed: Vec<Request>,
    class_stats: Vec<ClassFaultStats>,
    /// Ids already served (first completion wins). Maintained only
    /// when faults or hedging are configured — the fault-free path
    /// never consults it.
    served: BTreeSet<u64>,
    /// Ids already in `failed` (dedup — hedge twins can fail twice).
    failed_ids: BTreeSet<u64>,
    /// Retries scheduled so far, per request id.
    attempts: BTreeMap<u64, u32>,
    /// Online mode: arrivals still to come, per network.
    global_future: Vec<usize>,
    /// Preplaced mode: the up-front assignment, per trace index.
    preassigned: Option<Vec<usize>>,
    /// Number of SLO classes in the trace (max class + 1).
    num_classes: usize,
    /// Ids preempted at least once (maintained only with preemption
    /// on).
    preempted_ids: BTreeSet<u64>,
    /// Autoscaler fleet state: whether each shard is powered.
    active: Vec<bool>,
    /// Drain-before-remove: a draining shard stops accepting
    /// placements but finishes its queue before it parks.
    draining: Vec<bool>,
    /// Consecutive over-watermark evaluations (hysteresis).
    up_streak: u32,
    /// Consecutive under-watermark evaluations (hysteresis).
    down_streak: u32,
    scale_stats: ScaleStats,
    /// The goodput-per-joule frontier (built only with autoscaling
    /// enabled — the static path never prices plans).
    frontier: Option<EnergyFrontier>,
    /// Cumulative arrivals per network: the observed traffic mix the
    /// frontier weighs shard costs by.
    mix_counts: Vec<u64>,
    // Scratch buffers for the live view (rebuilt per consultation).
    live: ViewGauges,
    /// Scratch for [`ShardCore::select`] (refilled per dispatch).
    ready: Vec<Ready>,
}

/// Runs the engine. Consumes the placement's mutable state for one
/// run; everything else is borrowed immutably, so distinct runs (and
/// distinct combos in the benchmark matrix) share one compiled
/// [`ServeCluster`].
pub(super) fn run_engine(
    cluster: &ServeCluster,
    policy: &dyn BatchPolicy,
    placement: &mut dyn Placement,
    trace: &[Request],
    config: &EngineConfig,
) -> Result<ServeRun, RuntimeError> {
    let shard_count = cluster.shard_count();
    if let CacheBudget::PerShard(budgets) = &config.cache_budget {
        assert_eq!(
            budgets.len(),
            shard_count,
            "per-shard cache budget needs one entry per shard"
        );
    }
    if config.preempt.is_some() || config.scale.is_some() {
        assert_eq!(
            config.admission,
            Admission::Online,
            "preemption and autoscaling are online-admission features"
        );
    }
    if let Some(scale) = &config.scale {
        scale.validate(shard_count);
    }
    if let Some(reconfig) = &config.reconfig {
        reconfig.validate();
    }
    let mut engine = Engine::new(cluster, policy, config, trace);
    engine.preassign(placement, trace);
    engine.schedule_faults();
    engine.schedule_first_scale_tick();

    let mut cursor = 0usize;
    loop {
        // Merge the (already sorted) arrival trace with the event
        // heap; arrivals win ties (CLASS_ARRIVAL is the lowest class).
        let take_arrival = match (trace.get(cursor), engine.heap.peek()) {
            (Some(request), Some(event)) => {
                request.arrival_ms.total_cmp(&event.time) != Ordering::Greater
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_arrival {
            let request = trace[cursor];
            let pre = engine.preassigned.as_ref().map(|a| a[cursor]);
            cursor += 1;
            engine.on_arrival(placement, request, pre)?;
        } else if let Some(event) = engine.heap.pop() {
            engine.on_event(placement, event)?;
        } else {
            break;
        }
    }
    Ok(engine.finish())
}

impl<'a> Engine<'a> {
    fn new(
        cluster: &'a ServeCluster,
        policy: &'a dyn BatchPolicy,
        config: &'a EngineConfig,
        trace: &[Request],
    ) -> Self {
        let shard_count = cluster.shard_count();
        let net_count = cluster.networks().len();
        let shards: Vec<Shard<'a>> = ShardCore::fleet(cluster, policy, config)
            .into_iter()
            .map(|core| Shard {
                core,
                future_per_net: vec![0; net_count],
                in_flight: None,
                epoch: 0,
                down_until: None,
                down_since: 0.0,
                compile_fail_until: f64::NEG_INFINITY,
                pending_timer: f64::INFINITY,
            })
            .collect();
        let mut global_future = vec![0usize; net_count];
        let mut max_class = 0usize;
        for request in trace {
            global_future[request.network] += 1;
            max_class = max_class.max(usize::from(request.class));
        }
        let num_classes = max_class + 1;
        // The frontier prices plans through the energy ledger only
        // when the autoscaler will actually consult it.
        let frontier = config
            .scale
            .filter(AutoscalePolicy::enabled)
            .map(|_| EnergyFrontier::from_cluster(cluster, &EnergyModel::volta()));
        Engine {
            cluster,
            config,
            shards,
            heap: BinaryHeap::new(),
            seq: 0,
            rejected: Vec::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            class_stats: vec![ClassFaultStats::default(); num_classes],
            served: BTreeSet::new(),
            failed_ids: BTreeSet::new(),
            attempts: BTreeMap::new(),
            global_future,
            preassigned: None,
            num_classes,
            preempted_ids: BTreeSet::new(),
            active: vec![true; shard_count],
            draining: vec![false; shard_count],
            up_streak: 0,
            down_streak: 0,
            scale_stats: ScaleStats::default(),
            frontier,
            mix_counts: vec![0; net_count],
            live: ViewGauges::new(shard_count),
            ready: Vec::new(),
        }
    }

    /// Whether the served-id set must be maintained: hedging,
    /// crash-retry and preemption can attempt to serve one id twice.
    fn track_ids(&self) -> bool {
        self.config.hedge.is_some()
            || self.config.preempt.is_some()
            || !self.config.faults.is_empty()
    }

    /// Seeds the autoscaler's first tick (a no-op when the feature is
    /// off or its energy headroom is zero — the static fleet schedules
    /// no control-plane events at all).
    fn schedule_first_scale_tick(&mut self) {
        if let Some(scale) = self.config.scale.filter(AutoscalePolicy::enabled) {
            self.push_event(scale.period_ms, CLASS_SCALE, 0, EventKind::ScaleTick);
        }
    }

    /// Legacy shim: run the placement over the whole trace up front,
    /// against a view whose live fields are all zero — exactly the
    /// pre-engine sequential admission pass.
    fn preassign(&mut self, placement: &mut dyn Placement, trace: &[Request]) {
        if self.config.admission != Admission::Preplaced {
            return;
        }
        let zeroed = ViewGauges::new(self.shards.len());
        let view = zeroed.view(self.cluster);
        let assigned: Vec<usize> = trace
            .iter()
            .map(|request| place(placement, request, &view))
            .collect();
        for (request, &shard) in trace.iter().zip(&assigned) {
            self.shards[shard].future_per_net[request.network] += 1;
        }
        self.preassigned = Some(assigned);
    }

    /// Seeds the event queue with the configured fault schedule.
    fn schedule_faults(&mut self) {
        let shard_count = self.shards.len();
        for fault in self.config.faults.events() {
            assert!(
                fault.shard < shard_count,
                "fault plan targets shard {} of {shard_count}",
                fault.shard
            );
            self.push_event(
                fault.at_ms,
                CLASS_FAULT,
                fault.shard,
                EventKind::Fault(fault.kind),
            );
        }
    }

    fn push_event(&mut self, time: f64, class: u8, shard: usize, kind: EventKind) {
        self.heap.push(Event {
            time,
            class,
            seq: self.seq,
            shard,
            kind,
        });
        self.seq += 1;
    }

    /// Whether a shard can dispatch right now.
    fn idle_and_up(&self, shard: usize) -> bool {
        let state = &self.shards[shard];
        state.in_flight.is_none() && state.down_until.is_none()
    }

    /// Whether the autoscaler lets a shard take *new* placements
    /// (always true for the static fleet; draining and parked shards
    /// decline).
    fn accepting(&self, shard: usize) -> bool {
        self.active[shard] && !self.draining[shard]
    }

    /// Cluster-wide outstanding requests (queued + in flight).
    fn backlog(&self) -> usize {
        self.shards.iter().map(Shard::outstanding).sum()
    }

    /// Rebuilds the live-view scratch buffers from shard state.
    fn refresh_live(&mut self) {
        for (shard, state) in self.shards.iter().enumerate() {
            self.live.queued[shard] = state.core.queued();
            self.live.in_flight[shard] = state.in_flight_len();
            self.live.resident[shard] = state.core.resident_bytes();
            // Draining/parked shards read as unhealthy so
            // health-aware placements steer around them; the static
            // fleet (scale off) leaves this the pure crash gauge.
            self.live.healthy[shard] =
                state.down_until.is_none() && self.active[shard] && !self.draining[shard];
            self.live.degrade[shard] = state.core.degrade();
        }
    }

    /// Places a request online against the live view ([`admit_online`]
    /// with the autoscaler's accepting set).
    fn replace_online(
        &mut self,
        placement: &mut dyn Placement,
        request: &Request,
    ) -> Option<usize> {
        self.refresh_live();
        admit_online(
            self.cluster,
            &self.config.cache_budget,
            placement,
            request,
            &self.live.view(self.cluster),
            |shard| self.accepting(shard),
        )
    }

    /// One arrival: shed check, placement/admission, enqueue, hedge
    /// scheduling, preemption check, dispatch, and the online tail
    /// flush.
    fn on_arrival(
        &mut self,
        placement: &mut dyn Placement,
        request: Request,
        pre: Option<usize>,
    ) -> Result<(), RuntimeError> {
        let now_ms = request.arrival_ms;
        let shard_count = self.shards.len();
        self.global_future[request.network] -= 1;
        self.mix_counts[request.network] += 1;
        let online = pre.is_none();

        // Graceful degradation: under backlog pressure, shed by SLO
        // class before placement even runs (online admission only —
        // the legacy shim admits everything).
        let shed_now = online
            && self
                .config
                .shed
                .as_ref()
                .is_some_and(|p| p.sheds(request.class, self.num_classes, self.backlog()));

        let mut target: Option<usize> = None;
        if shed_now {
            self.shed.push(request);
        } else {
            target = match pre {
                Some(shard) => {
                    self.shards[shard].future_per_net[request.network] -= 1;
                    Some(shard)
                }
                // Admission control: the chosen shard must be able to
                // ever hold the request's plan (and, under
                // autoscaling, still be accepting); otherwise re-place
                // onto the first shard that can, else reject.
                None => self.replace_online(placement, &request),
            };
            match target {
                Some(shard) => {
                    if !online {
                        // The legacy shim: no mix window, hedging or
                        // preemption.
                        self.shards[shard].core.enqueue(now_ms, request);
                    } else {
                        self.shards[shard].core.admit(now_ms, request);
                        if let Some(hedge) = self.config.hedge {
                            self.push_event(
                                now_ms + hedge.delay_ms,
                                CLASS_HEDGE,
                                shard,
                                EventKind::Hedge {
                                    request,
                                    origin: shard,
                                },
                            );
                        }
                        // Preemption: an arrival urgent enough to
                        // displace the running batch claims the shard
                        // via a fixed-slot event, so every
                        // same-instant completion/fault/recovery
                        // settles first (a batch completing at this
                        // exact instant completes — its Preempt goes
                        // stale).
                        if let (Some(preempt), Some(running)) =
                            (self.config.preempt, &self.shards[shard].in_flight)
                        {
                            let victim_class = running
                                .batch
                                .requests
                                .iter()
                                .map(|r| r.class)
                                .fold(u8::MAX, u8::min);
                            if preempt.preempts(request.class, victim_class) {
                                let epoch = running.epoch;
                                self.push_event(
                                    now_ms,
                                    CLASS_PREEMPT,
                                    shard,
                                    EventKind::Preempt { epoch },
                                );
                            }
                        }
                    }
                    self.attempt_dispatch(shard, now_ms)?;
                }
                None => self.rejected.push(request),
            }
        }
        // Online tail flush: the last arrival of a network is an
        // event for *every* shard still holding that network —
        // `more_arrivals` just flipped false cluster-wide, and
        // without this re-evaluation a size-triggered policy would
        // strand its stragglers.
        if online && self.global_future[request.network] == 0 {
            for shard in 0..shard_count {
                if target == Some(shard) {
                    continue; // already evaluated above
                }
                if self.idle_and_up(shard)
                    && !self.shards[shard].core.queue(request.network).is_empty()
                {
                    self.attempt_dispatch(shard, now_ms)?;
                }
            }
        }
        Ok(())
    }

    /// Routes one popped event to its handler.
    fn on_event(
        &mut self,
        placement: &mut dyn Placement,
        event: Event,
    ) -> Result<(), RuntimeError> {
        let Event {
            time: now_ms,
            shard,
            kind,
            ..
        } = event;
        match kind {
            EventKind::Complete { epoch } => self.on_complete(shard, now_ms, epoch),
            EventKind::Timer => {
                let state = &mut self.shards[shard];
                if now_ms.to_bits() == state.pending_timer.to_bits() {
                    state.pending_timer = f64::INFINITY;
                }
                self.attempt_dispatch(shard, now_ms)
            }
            EventKind::Fault(FaultKind::Crash { recover_ms }) => {
                self.on_crash(shard, now_ms, recover_ms);
                Ok(())
            }
            EventKind::Fault(FaultKind::TransientCompileFail { window_ms }) => {
                let state = &mut self.shards[shard];
                state.compile_fail_until = state.compile_fail_until.max(now_ms + window_ms);
                Ok(())
            }
            EventKind::Fault(
                window @ (FaultKind::Degrade { window_ms, .. }
                | FaultKind::StallCompile { window_ms, .. }),
            ) => {
                self.shards[shard].core.window_edge(window, true);
                self.push_event(
                    now_ms + window_ms,
                    CLASS_FAULT,
                    shard,
                    EventKind::WindowClose(window),
                );
                Ok(())
            }
            EventKind::WindowClose(window) => {
                self.shards[shard].core.window_edge(window, false);
                Ok(())
            }
            EventKind::Recover => self.on_recover(shard, now_ms),
            EventKind::Retry {
                request,
                from_shard,
            } => self.on_retry(placement, request, from_shard, now_ms),
            EventKind::Hedge { request, origin } => self.on_hedge(request, origin, now_ms),
            EventKind::Preempt { epoch } => self.on_preempt(shard, now_ms, epoch),
            EventKind::ScaleTick => self.on_scale_tick(now_ms),
        }
    }

    /// An urgent arrival evicts the running batch (unless the epoch is
    /// stale — the batch completed, or was already evicted, at this
    /// instant). The core bills the partial work and re-queues the
    /// victims (`ShardCore::evict`).
    fn on_preempt(&mut self, shard: usize, now_ms: f64, epoch: u64) -> Result<(), RuntimeError> {
        let state = &mut self.shards[shard];
        let Some(in_flight) = state.in_flight.take() else {
            return Ok(()); // already completed, crashed or evicted
        };
        if in_flight.epoch != epoch {
            state.in_flight = Some(in_flight); // stale: a newer batch runs
            return Ok(());
        }
        // A same-instant completion (class 1 < 6) would have fired
        // first, so the eviction always lands strictly before the
        // batch's completion: elapsed < compile + service.
        for victim in &in_flight.batch.requests {
            self.class_stats[usize::from(victim.class)].preempted += 1;
            self.preempted_ids.insert(victim.id);
        }
        state.core.evict(now_ms, in_flight.batch);
        self.attempt_dispatch(shard, now_ms)
    }

    /// One autoscaler evaluation: complete finished drains, update the
    /// hysteresis streaks from the backlog-per-active-shard gauge, and
    /// act at most once — activate the cheapest eligible shard on a
    /// sustained high, drain the costliest on a sustained low.
    fn on_scale_tick(&mut self, now_ms: f64) -> Result<(), RuntimeError> {
        // Ticks are only scheduled when an enabled policy (and with
        // it the frontier) exists; the guards make that local.
        let Some(scale) = self.config.scale else {
            return Ok(());
        };
        #[allow(clippy::needless_range_loop)]
        for shard in 0..self.shards.len() {
            if self.draining[shard] && self.shards[shard].outstanding() == 0 {
                self.draining[shard] = false;
                self.active[shard] = false;
                self.scale_stats.drains_completed += 1;
            }
        }
        self.scale_stats.evaluations += 1;
        let active_count = self.active.iter().filter(|&&a| a).count().max(1);
        let load = self.backlog() as f64 / active_count as f64;
        if load >= scale.high_watermark {
            self.up_streak += 1;
        } else {
            self.up_streak = 0;
        }
        if load <= scale.low_watermark {
            self.down_streak += 1;
        } else {
            self.down_streak = 0;
        }
        let Some(frontier) = self.frontier.as_ref() else {
            return Ok(());
        };
        if self.up_streak >= scale.hysteresis_ticks {
            // Scale up: the cheapest shard (under the observed mix)
            // among those not currently accepting, gated by the energy
            // budget — never activate capacity the headroom cannot pay
            // for. Cancelling an in-progress drain beats powering a
            // parked shard (same index rule: cheapest wins).
            let budget = (1.0 + scale.energy_headroom) * frontier.frontier_cost(&self.mix_counts);
            let candidate = frontier.cheapest(
                &self.mix_counts,
                (0..self.shards.len()).filter(|&s| {
                    !self.accepting(s) && frontier.cost_per_request(s, &self.mix_counts) <= budget
                }),
            );
            if let Some(shard) = candidate {
                self.draining[shard] = false;
                self.active[shard] = true;
                self.scale_stats.scale_ups += 1;
                self.up_streak = 0;
                self.down_streak = 0;
                if self.shards[shard].core.queued() > 0 && self.idle_and_up(shard) {
                    self.attempt_dispatch(shard, now_ms)?;
                }
            }
        } else if self.down_streak >= scale.hysteresis_ticks {
            // Scale down: drain the costliest accepting shard, never
            // below the floor. The drain finishes on a later tick once
            // the shard runs empty (drain-before-remove).
            let accepting_count = (0..self.shards.len())
                .filter(|&s| self.accepting(s))
                .count();
            if accepting_count > scale.min_active {
                let candidate = frontier.costliest(
                    &self.mix_counts,
                    (0..self.shards.len()).filter(|&s| self.accepting(s)),
                );
                if let Some(shard) = candidate {
                    self.draining[shard] = true;
                    self.scale_stats.scale_downs += 1;
                    self.up_streak = 0;
                    self.down_streak = 0;
                }
            }
        }
        // Re-arm while there is anything left to observe: future
        // arrivals, outstanding work, or an unfinished drain.
        let more = self.global_future.iter().sum::<usize>() > 0
            || self.backlog() > 0
            || self.draining.iter().any(|&d| d);
        if more {
            self.push_event(
                now_ms + scale.period_ms,
                CLASS_SCALE,
                0,
                EventKind::ScaleTick,
            );
        }
        Ok(())
    }

    /// A batch finished (unless a crash aborted it first — then the
    /// epoch is stale and the event is a no-op).
    fn on_complete(&mut self, shard: usize, now_ms: f64, epoch: u64) -> Result<(), RuntimeError> {
        let track = self.track_ids();
        let mut newly_served: Vec<u64> = Vec::new();
        let state = &mut self.shards[shard];
        let Some(in_flight) = state.in_flight.take() else {
            return Ok(()); // aborted by a crash, shard idle since
        };
        if in_flight.epoch != epoch {
            state.in_flight = Some(in_flight); // stale event, newer batch running
            return Ok(());
        }
        let (served, failed_ids) = (&mut self.served, &mut self.failed_ids);
        state
            .core
            .complete(&in_flight.batch, now_ms, now_ms, |request| {
                if track {
                    if !served.insert(request.id) {
                        // A hedge twin already won: this completion is
                        // billed but not served.
                        return false;
                    }
                    newly_served.push(request.id);
                    failed_ids.remove(&request.id);
                }
                true
            });
        // The next launch refills the finished batch's buffer.
        state.core.recycle(in_flight.batch);
        // First completion wins: queued hedge twins of the ids just
        // served are cancelled cluster-wide.
        if self.config.hedge.is_some() && !newly_served.is_empty() {
            self.cancel_queued(&newly_served, now_ms);
        }
        self.attempt_dispatch(shard, now_ms)
    }

    /// Removes queued twins of just-served ids from every queue.
    fn cancel_queued(&mut self, ids: &[u64], now_ms: f64) {
        for state in &mut self.shards {
            state.core.cancel(now_ms, ids);
        }
    }

    /// A crash fires: the shard goes dark, the in-flight batch is
    /// aborted and its requests enter retry.
    fn on_crash(&mut self, shard: usize, now_ms: f64, recover_ms: f64) {
        let until = now_ms + recover_ms;
        let schedule_recover = {
            let state = &mut self.shards[shard];
            state.core.fault_mut().crashes += 1;
            match state.down_until {
                None => {
                    state.down_since = now_ms;
                    state.down_until = Some(until);
                    true
                }
                Some(current) if until > current => {
                    // Overlapping crash extends the outage; the
                    // earlier recovery event goes stale.
                    state.down_until = Some(until);
                    true
                }
                Some(_) => false,
            }
        };
        if schedule_recover {
            self.push_event(until, CLASS_FAULT, shard, EventKind::Recover);
        }
        if let Some(in_flight) = self.shards[shard].in_flight.take() {
            self.shards[shard].core.fault_mut().aborted_batches += 1;
            // Aborted work is lost: not billed as busy time, no batch
            // or request records. The victims follow the retry policy.
            for &request in &in_flight.batch.requests {
                self.retry_or_fail(request, now_ms, shard);
            }
            self.shards[shard].core.recycle(in_flight.batch);
        }
    }

    /// The recovery instant arrives (stale if a later crash extended
    /// the outage).
    fn on_recover(&mut self, shard: usize, now_ms: f64) -> Result<(), RuntimeError> {
        {
            let state = &mut self.shards[shard];
            if state.down_until.map(f64::to_bits) != Some(now_ms.to_bits()) {
                return Ok(()); // stale: a later crash extended the outage
            }
            state.down_until = None;
            state.core.fault_mut().downtime_ms += now_ms - state.down_since;
        }
        self.attempt_dispatch(shard, now_ms)
    }

    /// Schedules a retry for a crash victim, or abandons it once the
    /// policy is exhausted.
    fn retry_or_fail(&mut self, request: Request, now_ms: f64, from_shard: usize) {
        if self.served.contains(&request.id) {
            return; // a hedge twin already completed it
        }
        let retries_so_far = self.attempts.get(&request.id).copied().unwrap_or(0);
        let retry = &self.config.retry;
        let fire_ms = now_ms + retry.backoff_ms(retries_so_far + 1);
        let within_timeout = fire_ms - request.arrival_ms <= retry.timeout_for(request.class);
        if !retry.allows(retries_so_far) || !within_timeout {
            if self.failed_ids.insert(request.id) {
                self.failed.push(request);
            }
            return;
        }
        self.attempts.insert(request.id, retries_so_far + 1);
        self.class_stats[usize::from(request.class)].retries += 1;
        self.shards[from_shard].core.fault_mut().retries += 1;
        self.push_event(
            fire_ms,
            CLASS_RETRY,
            from_shard,
            EventKind::Retry {
                request,
                from_shard,
            },
        );
    }

    /// A retry fires: re-place the request (online: against the live
    /// view, so healthy siblings win — failover; preplaced: back to
    /// the same shard) and enqueue it.
    fn on_retry(
        &mut self,
        placement: &mut dyn Placement,
        request: Request,
        from_shard: usize,
        now_ms: f64,
    ) -> Result<(), RuntimeError> {
        if self.served.contains(&request.id) {
            return Ok(()); // a twin won while the backoff elapsed
        }
        let target = match &self.preassigned {
            Some(_) => Some(from_shard),
            None => self.replace_online(placement, &request),
        };
        let Some(target) = target else {
            if self.failed_ids.insert(request.id) {
                self.failed.push(request);
            }
            return Ok(());
        };
        if target != from_shard {
            self.class_stats[usize::from(request.class)].failovers += 1;
            self.shards[target].core.fault_mut().failovers += 1;
        }
        self.shards[target].core.enqueue(now_ms, request);
        self.attempt_dispatch(target, now_ms)
    }

    /// A hedge delay expired with the request still incomplete:
    /// enqueue a duplicate on the second-best healthy shard.
    fn on_hedge(
        &mut self,
        request: Request,
        origin: usize,
        now_ms: f64,
    ) -> Result<(), RuntimeError> {
        if self.served.contains(&request.id) {
            return Ok(()); // completed in time, nothing to hedge
        }
        let net = request.network;
        let costs = self.cluster.unit_service_ms();
        let target = (0..self.shards.len())
            .filter(|&s| {
                s != origin
                    && self.shards[s].down_until.is_none()
                    && self.accepting(s)
                    && self.config.cache_budget.fits(self.cluster, s, net)
            })
            .min_by(|&a, &b| costs[a][net].total_cmp(&costs[b][net]).then(a.cmp(&b)));
        let Some(target) = target else {
            return Ok(()); // nowhere to hedge to; the original stands
        };
        self.class_stats[usize::from(request.class)].hedges += 1;
        self.shards[target].core.fault_mut().hedges += 1;
        self.shards[target].core.enqueue(now_ms, request);
        self.attempt_dispatch(target, now_ms)
    }

    /// Asks an idle, healthy shard's core for its ready batches at
    /// `now_ms` and either launches the best one or schedules the
    /// earliest batch-close timer. During a transient compile-failure
    /// window, ready batches whose plan is not resident are blocked and
    /// the next-best resident-plan batch launches instead (or the shard
    /// wakes when the window closes).
    fn attempt_dispatch(&mut self, shard: usize, now_ms: f64) -> Result<(), RuntimeError> {
        if !self.idle_and_up(shard) {
            return Ok(());
        }
        let global_future = &self.global_future;
        let preplaced = self.preassigned.is_some();
        let ready = &mut self.ready;
        let state = &mut self.shards[shard];
        let future_per_net = &state.future_per_net;
        let mut wake_ms = state.core.select(
            now_ms,
            |net| {
                if preplaced {
                    future_per_net[net] > 0
                } else {
                    global_future[net] > 0
                }
            },
            ready,
        );
        let fail_active = now_ms < state.compile_fail_until;
        if let Some(launch) = ready
            .iter()
            .find(|r| !fail_active || state.core.has_plan(&(r.net, r.take)))
            .copied()
        {
            return self.dispatch(shard, now_ms, launch.net, launch.take);
        }
        if !ready.is_empty() {
            // Every ready batch needed a compile that would fail.
            state.core.fault_mut().compile_failures += 1;
            wake_ms = wake_ms.min(state.compile_fail_until);
        }
        if wake_ms.is_finite() {
            // A batch-close event: without it, a queue whose deadline
            // expires between arrivals would stay open until the next
            // arrival happened by (the off-by-one-event bug).
            assert!(
                wake_ms > now_ms,
                "shard {shard} stalled at {now_ms} ms (policy asked to wait for the past)"
            );
            if wake_ms < state.pending_timer {
                state.pending_timer = wake_ms;
                self.push_event(wake_ms, CLASS_TIMER, shard, EventKind::Timer);
            }
        }
        Ok(())
    }

    /// Launches one batch through the shard's core and schedules its
    /// completion event.
    fn dispatch(
        &mut self,
        shard: usize,
        now_ms: f64,
        net: usize,
        take: usize,
    ) -> Result<(), RuntimeError> {
        let state = &mut self.shards[shard];
        let batch = state.core.launch(now_ms, net, take)?;
        let completion_ms = now_ms + batch.compile_ms + batch.service_ms;
        state.epoch += 1;
        let epoch = state.epoch;
        state.in_flight = Some(InFlightBatch { batch, epoch });
        self.push_event(
            completion_ms,
            CLASS_COMPLETE,
            shard,
            EventKind::Complete { epoch },
        );
        Ok(())
    }

    /// Closes the run: the drain asserts, every shard's books, and the
    /// exact-partition cleanup of the failed bucket.
    fn finish(mut self) -> ServeRun {
        let cores = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(shard, state)| {
                assert!(
                    state.in_flight.is_none(),
                    "shard {shard} finished with a batch still in flight"
                );
                state.core
            })
            .collect();
        let (reports, reconfig) = close_fleet(cores);
        // A request that failed its retries but whose hedge twin later
        // completed anyway is served, not failed — keep the four
        // buckets an exact partition of the trace.
        let served = &self.served;
        self.failed.retain(|request| !served.contains(&request.id));
        self.scale_stats.final_active = (0..self.active.len())
            .filter(|&shard| self.active[shard] && !self.draining[shard])
            .count();
        ServeRun {
            reports,
            rejected: self.rejected,
            shed: self.shed,
            failed: self.failed,
            class_stats: self.class_stats,
            preempted: self.preempted_ids.into_iter().collect(),
            scale: self.scale_stats,
            reconfig,
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn cache_budget_admission() {
        assert!(CacheBudget::Unbounded.admits(3, u64::MAX));
        assert!(CacheBudget::Uniform(10).admits(0, 10));
        assert!(!CacheBudget::Uniform(10).admits(0, 11));
        let per = CacheBudget::PerShard(vec![5, 50]);
        assert!(!per.admits(0, 20));
        assert!(per.admits(1, 20));
        assert_eq!(CacheBudget::Uniform(32 * 1024).label(), "32KiB");
    }

    #[test]
    fn events_order_by_time_class_then_seq() {
        let mut heap = BinaryHeap::new();
        let ev = |time, class, seq| Event {
            time,
            class,
            seq,
            shard: 0,
            kind: EventKind::Timer,
        };
        heap.push(ev(5.0, CLASS_TIMER, 0));
        heap.push(ev(5.0, CLASS_COMPLETE, 1));
        heap.push(ev(4.0, CLASS_TIMER, 2));
        heap.push(ev(5.0, CLASS_COMPLETE, 3));
        heap.push(ev(5.0, CLASS_FAULT, 4));
        heap.push(ev(5.0, CLASS_HEDGE, 5));
        heap.push(ev(5.0, CLASS_RETRY, 6));
        heap.push(ev(5.0, CLASS_SCALE, 7));
        heap.push(ev(5.0, CLASS_PREEMPT, 8));
        let order: Vec<(f64, u8, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time, e.class, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (4.0, CLASS_TIMER, 2),
                (5.0, CLASS_COMPLETE, 1),
                (5.0, CLASS_COMPLETE, 3),
                (5.0, CLASS_TIMER, 0),
                (5.0, CLASS_FAULT, 4),
                (5.0, CLASS_RETRY, 6),
                (5.0, CLASS_HEDGE, 5),
                (5.0, CLASS_PREEMPT, 8),
                (5.0, CLASS_SCALE, 7),
            ],
            "completions before timers before faults before retries before \
             hedges before preemptions before scale ticks"
        );
    }
}
