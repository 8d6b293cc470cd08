//! Event-driven multi-shard serving over compiled [`NetworkPlan`]s.
//!
//! The compile-once layer ([`Executor::plan`](crate::Executor::plan) →
//! [`NetworkPlan::run`]) gives the runtime a lock-free replay
//! primitive; this module builds the distribution layer above it: N
//! shards, each an [`Executor`] holding pre-compiled plans for the
//! networks it hosts, fed from an open-loop request trace through a
//! pluggable [`BatchPolicy`] and [`Placement`] strategy.
//!
//! The control flow is a **discrete-event simulation**: one
//! deterministic event queue carries arrival, batch-close and
//! service-complete events, totally ordered by `(time, class,
//! sequence)`. `Placement` and `BatchPolicy` are online decision
//! points invoked at event time with a [`ClusterView`] of the live
//! cluster — per-shard backlog, in-flight batches and plan-cache
//! residency. The wall clock is never consulted, so a serve run is a
//! pure function of (trace, cluster, policy, placement, config):
//! byte-identical across repeat runs and across any worker-thread
//! count.
//!
//! On top of the engine sit:
//!
//! * **SLO accounting**: the [`LoadGenerator`] stamps per-request
//!   deadlines, [`EarliestDeadlineFirst`] schedules by them, and
//!   [`ServeOutcome`] reports deadline misses and goodput for every
//!   policy.
//! * **Bounded plan memory**: each shard's plan cache has a byte
//!   budget ([`CacheBudget`]) with LRU eviction, compile-on-miss
//!   is charged as simulated latency, and the admission controller
//!   re-places or rejects requests whose plan can never fit.
//! * **A legacy-parity shim** ([`EngineConfig::legacy`]): preplaced
//!   admission, unbounded cache, free compiles — bit-for-bit the
//!   pre-engine three-phase (admit → drain → aggregate) pipeline.
//! * **Fault tolerance**: a seeded [`FaultPlan`] injects crashes,
//!   degrade windows, compile stalls and transient compile failures
//!   as first-class events; [`RetryPolicy`], [`HedgePolicy`] and
//!   [`ShedPolicy`] govern recovery, and the outcome reports sheds,
//!   retries, hedges, failovers and downtime per shard and per SLO
//!   class (see `docs/FAULT_TOLERANCE.md`). An empty plan — the
//!   default — leaves the engine byte-identical to the fault-free
//!   path.
//! * **A threaded live twin** ([`LiveServer`]): the same cluster,
//!   policy and placement run as real threads fed over MPSC queues,
//!   paced onto wall-clock time, each worker driving the same
//!   per-shard state machine the engine drives; every run records its
//!   realized arrival trace, and [`replay`] + [`discrete_outcomes`]
//!   check the live run against the discrete-event engine as an
//!   oracle (see `docs/LIVE_SERVING.md`).
//!
//! ```
//! use sma_models::zoo;
//! use sma_runtime::serve::{
//!     Deadline, EngineConfig, LoadGenerator, RoundRobin, ServeSim,
//! };
//! use sma_runtime::{Executor, Platform};
//! use std::sync::Arc;
//!
//! let shards = vec![
//!     Executor::new(Platform::Sma3),
//!     Executor::new(Platform::GpuTensorCore),
//! ];
//! let networks = vec![zoo::alexnet(), zoo::vgg_a()];
//! let trace = LoadGenerator::new(7, 4.0)
//!     .with_slo(40.0)
//!     .trace(200, networks.len());
//! let sim = ServeSim::try_new(
//!     shards,
//!     networks,
//!     Arc::new(Deadline::new(8.0, 16)),
//!     &trace,
//!     EngineConfig::default(),
//! )
//! .unwrap();
//! let run = sim.try_run(&mut RoundRobin::default()).unwrap();
//! let outcome = sim.outcome(&run);
//! assert_eq!(outcome.requests, 200);
//! assert!(outcome.p99_ms >= outcome.p50_ms);
//! assert!(outcome.goodput <= 1.0);
//! ```

mod engine;
mod fault;
mod live;
mod load;
mod metrics;
mod oracle;
mod placement;
mod policy;
mod scale;
mod shard;
mod slo;
mod transport;

pub use engine::{Admission, CacheBudget, EngineConfig, ServeRun};
pub use fault::{
    ClassFaultStats, FaultEvent, FaultKind, FaultMix, FaultPlan, HedgePolicy, RetryPolicy,
    ShardFaultStats, ShedPolicy,
};
pub use live::{LiveConfig, LiveError, LiveMode, LiveReport, LiveServer};
pub use load::{LoadGenerator, LoadShape, Request, SeededRng};
pub use metrics::{
    aggregate, percentile_ms, ClassSummary, PlanCacheStats, ServeOutcome, ShardSummary,
};
pub use oracle::{diff_outcomes, discrete_outcomes, replay, DiscreteOutcomes};
pub use placement::{
    ClusterView, HealthWeighted, LeastBacklog, LeastOutstanding, Placement, PlatformAffinity,
    RoundRobin,
};
pub use policy::{BatchPolicy, Deadline, Immediate, PolicyDecision, SizeK};
pub use scale::{AutoscalePolicy, EnergyFrontier, ReconfigPolicy, ReconfigStats, ScaleStats};
pub use slo::{EarliestDeadlineFirst, PreemptPolicy};
pub use transport::TransportModel;

use crate::backend::RuntimeError;
use crate::executor::Executor;
use crate::plan::NetworkPlan;
use sma_models::Network;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One request after the drain: when it arrived, started and finished.
#[derive(Debug, Clone, Copy)]
pub struct ServedRequest {
    /// Trace identity.
    pub id: u64,
    /// Index into the simulation's network table.
    pub network: usize,
    /// Simulated arrival, ms.
    pub arrival_ms: f64,
    /// Absolute SLO deadline, ms (`f64::INFINITY` without an SLO).
    pub deadline_ms: f64,
    /// SLO class (0 = highest priority; class-free traces are all 0).
    pub class: u8,
    /// Simulated instant its batch started (compile included), ms.
    pub start_ms: f64,
    /// Simulated instant its batch completed, ms.
    pub completion_ms: f64,
    /// Size of the batch that carried it.
    pub batch_size: usize,
}

impl ServedRequest {
    /// End-to-end latency: queueing plus batched execution.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.completion_ms - self.arrival_ms
    }

    /// Time spent queued before the batch launched.
    #[must_use]
    pub fn wait_ms(&self) -> f64 {
        self.start_ms - self.arrival_ms
    }

    /// Whether the request finished within its SLO deadline.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.completion_ms <= self.deadline_ms
    }
}

/// One executed batch: which plan replayed, when, and for how long.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// Index into the simulation's network table.
    pub network: usize,
    /// Requests in the batch (the plan's batch dimension).
    pub size: usize,
    /// Simulated launch instant, ms.
    pub start_ms: f64,
    /// `NetworkPlan::run().total_ms` of the batched plan.
    pub service_ms: f64,
    /// Simulated plan-compile charge billed before execution (0 on a
    /// plan-cache hit or under free compiles).
    pub compile_ms: f64,
}

/// Everything one shard did during the run.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Backend name of the shard's executor.
    pub platform: &'static str,
    /// Served requests, in completion order.
    pub requests: Vec<ServedRequest>,
    /// Executed batches, in launch order.
    pub batches: Vec<BatchRecord>,
    /// Simulated milliseconds spent executing (compiles included).
    pub busy_ms: f64,
    /// Simulated instant the last batch completed (0 if idle).
    pub makespan_ms: f64,
    /// `(network, batch)` plan keys this run first used on top of the
    /// pre-seeded batch-1 set, in first-use order. The cluster compiles
    /// each key once and shares it across runs, so a key appears here
    /// whether this run compiled it or found it in the cluster's table.
    pub plans_compiled: Vec<(usize, usize)>,
    /// Simulated plan-cache counters.
    pub cache: PlanCacheStats,
    /// Time-weighted mean queued-request count over the cluster
    /// horizon.
    pub queue_depth_mean: f64,
    /// Worst instantaneous queued-request count.
    pub queue_depth_max: usize,
    /// Fault and recovery counters (all zero in fault-free runs).
    pub fault: ShardFaultStats,
}

/// A compiled serving cluster: the shard executors, the hosted
/// networks, the batch-1 plan/cost matrix, and a table of batched
/// service times.
///
/// Everything here depends only on (executor, network, batch) — not on
/// the policy, placement, trace or engine config — so one cluster is
/// shared (via `Arc`) by every [`ServeSim`] and live-twin worker over
/// it, e.g. every combo of the serving benchmark matrix. The batch-1
/// matrices are frozen at construction; the batched-service table
/// fills on first use of each `(shard, network, batch)` key by any run
/// and is read by every later one.
#[derive(Debug)]
pub struct ServeCluster {
    shards: Vec<Executor>,
    platforms: Vec<&'static str>,
    networks: Vec<Network>,
    /// `unit_plans[shard][network]`: pre-compiled batch-1 plan.
    unit_plans: Vec<Vec<NetworkPlan>>,
    /// `unit_service_ms[shard][network]`: one batch-1 replay's total.
    unit_service_ms: Vec<Vec<f64>>,
    /// `unit_plan_bytes[shard][network]`: the plan's resident size
    /// ([`NetworkPlan::mem_bytes`] — batch-invariant, so it prices
    /// every batch size of the network).
    unit_plan_bytes: Vec<Vec<u64>>,
    /// `(shard, network, batch) → service ms` of every batched plan a
    /// run over this cluster has compiled. Errors are never stored.
    batched_service_ms: Mutex<BTreeMap<(usize, usize, usize), f64>>,
}

impl ServeCluster {
    /// Compiles a batch-1 [`NetworkPlan`] per shard × network (warming
    /// each backend's GEMM cache) and freezes the cost and plan-size
    /// matrices placements and the admission controller consult.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RuntimeError`] from a backend rejecting a
    /// hosted network during plan compilation.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `networks` is empty.
    pub fn try_new(shards: Vec<Executor>, networks: Vec<Network>) -> Result<Self, RuntimeError> {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        assert!(!networks.is_empty(), "a cluster needs at least one network");
        let mut unit_plans = Vec::with_capacity(shards.len());
        let mut unit_service_ms = Vec::with_capacity(shards.len());
        let mut unit_plan_bytes = Vec::with_capacity(shards.len());
        for executor in &shards {
            let mut plans = Vec::with_capacity(networks.len());
            let mut costs = Vec::with_capacity(networks.len());
            let mut bytes = Vec::with_capacity(networks.len());
            for network in &networks {
                let plan = executor.with_batch(1).try_plan(network)?;
                costs.push(plan.total_ms());
                bytes.push(plan.mem_bytes());
                plans.push(plan);
            }
            unit_plans.push(plans);
            unit_service_ms.push(costs);
            unit_plan_bytes.push(bytes);
        }
        Ok(ServeCluster {
            platforms: shards.iter().map(|e| e.backend().name()).collect(),
            shards,
            networks,
            unit_plans,
            unit_service_ms,
            unit_plan_bytes,
            batched_service_ms: Mutex::new(BTreeMap::new()),
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The hosted network table, in request-index order.
    #[must_use]
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// The executor behind a shard.
    #[must_use]
    pub fn shard_executor(&self, shard: usize) -> &Executor {
        &self.shards[shard]
    }

    /// The batch-1 cost matrix (`[shard][network]`, ms).
    #[must_use]
    pub fn unit_service_ms(&self) -> &[Vec<f64>] {
        &self.unit_service_ms
    }

    /// The plan-size matrix (`[shard][network]`, bytes).
    #[must_use]
    pub fn unit_plan_bytes(&self) -> &[Vec<u64>] {
        &self.unit_plan_bytes
    }

    /// Backend name per shard, in shard order.
    #[must_use]
    pub fn platforms(&self) -> &[&'static str] {
        &self.platforms
    }

    /// Rejects, loudly, a trace this cluster cannot serve: one out of
    /// arrival order (the event queue merges it as a sorted stream and
    /// the backlog-aware placements assume arrival order, so it would
    /// silently skew every latency) or one naming an unknown network.
    fn check_trace(&self, trace: &[Request]) {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
            "trace must be sorted by arrival_ms"
        );
        for request in trace {
            assert!(
                request.network < self.networks.len(),
                "request {} targets unknown network {}",
                request.id,
                request.network
            );
        }
    }

    /// The pre-compiled batch-1 plan a shard holds for a network.
    #[must_use]
    pub fn unit_plan(&self, shard: usize, network: usize) -> &NetworkPlan {
        &self.unit_plans[shard][network]
    }

    /// One replay's total of `network`'s plan at batch size `batch` on
    /// `shard`, compiled on the first request for the key by any run
    /// and served from the cluster's table afterwards.
    ///
    /// The compile runs outside the lock, so two runs racing on one
    /// key may both compile it; they insert the same value. A rejected
    /// compile is not stored, so every run that needs the key fails.
    ///
    /// # Errors
    ///
    /// The backend rejecting the batched plan compile.
    pub(super) fn batched_service_ms(
        &self,
        shard: usize,
        network: usize,
        batch: usize,
    ) -> Result<f64, RuntimeError> {
        let key = (shard, network, batch);
        let table = || {
            self.batched_service_ms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some(&ms) = table().get(&key) {
            return Ok(ms);
        }
        let ms = self.shards[shard]
            .with_batch(batch)
            .try_plan(&self.networks[network])?
            .total_ms();
        table().insert(key, ms);
        Ok(ms)
    }
}

/// A serving simulation: a compiled cluster, a batching policy, an
/// arrival trace and the engine configuration.
///
/// [`ServeSim::try_run`] executes the discrete-event engine; it borrows
/// `self` immutably, so one simulation can be re-run (pass a fresh
/// [`Placement`] — strategies carry cursor/backlog state) and runs of
/// different simulations over one shared cluster can proceed from
/// different threads.
#[derive(Debug)]
pub struct ServeSim {
    cluster: Arc<ServeCluster>,
    policy: Arc<dyn BatchPolicy>,
    trace: Vec<Request>,
    config: EngineConfig,
}

impl ServeSim {
    /// Compiles a fresh [`ServeCluster`] from `shards` × `networks`
    /// and wraps it with `trace` and `config`. To serve several traces
    /// or policy/placement combinations over one cluster, compile the
    /// cluster once and use [`ServeSim::with_cluster`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`RuntimeError`] from a backend rejecting a
    /// hosted network during plan compilation.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `networks` is empty, if the trace is not
    /// in arrival order, or if a trace request names a network outside
    /// the table.
    pub fn try_new(
        shards: Vec<Executor>,
        networks: Vec<Network>,
        policy: Arc<dyn BatchPolicy>,
        trace: &[Request],
        config: EngineConfig,
    ) -> Result<Self, RuntimeError> {
        let cluster = Arc::new(ServeCluster::try_new(shards, networks)?);
        Ok(Self::with_cluster(cluster, policy, trace, config))
    }

    /// Wraps an already-compiled cluster. No plan compilation happens
    /// here, so building many simulations over one cluster is cheap.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not in arrival order or if a request
    /// names a network outside the cluster's table.
    #[must_use]
    pub fn with_cluster(
        cluster: Arc<ServeCluster>,
        policy: Arc<dyn BatchPolicy>,
        trace: &[Request],
        config: EngineConfig,
    ) -> Self {
        cluster.check_trace(trace);
        ServeSim {
            cluster,
            policy,
            trace: trace.to_vec(),
            config,
        }
    }

    /// The compiled cluster this simulation runs over.
    #[must_use]
    pub fn cluster(&self) -> &Arc<ServeCluster> {
        &self.cluster
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The batching policy.
    #[must_use]
    pub fn policy(&self) -> &Arc<dyn BatchPolicy> {
        &self.policy
    }

    /// The arrival trace, in arrival order.
    #[must_use]
    pub fn trace(&self) -> &[Request] {
        &self.trace
    }

    /// Number of shards in the cluster.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.cluster.shard_count()
    }

    /// The hosted network table, in request-index order.
    #[must_use]
    pub fn networks(&self) -> &[Network] {
        self.cluster.networks()
    }

    /// The executor behind a shard.
    #[must_use]
    pub fn shard_executor(&self, shard: usize) -> &Executor {
        self.cluster.shard_executor(shard)
    }

    /// The batch-1 cost matrix (`[shard][network]`, ms).
    #[must_use]
    pub fn unit_service_ms(&self) -> &[Vec<f64>] {
        self.cluster.unit_service_ms()
    }

    /// Runs the discrete-event engine over the trace, surfacing
    /// backend rejections as values.
    ///
    /// `placement` must be fresh (strategies carry state); re-running
    /// with an equally fresh placement reproduces the result
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// Propagates a [`RuntimeError`] from the backend rejecting a lazy
    /// batched-plan compile mid-run (a custom backend may accept a
    /// shape at batch 1 but reject it scaled by the batch size).
    /// Panics if `placement` routes out of range or a policy wedges a
    /// queue (never becomes ready).
    pub fn try_run(&self, placement: &mut dyn Placement) -> Result<ServeRun, RuntimeError> {
        engine::run_engine(
            &self.cluster,
            self.policy.as_ref(),
            placement,
            &self.trace,
            &self.config,
        )
    }

    /// Folds a run into the cluster-wide outcome.
    ///
    /// # Panics
    ///
    /// Panics if `run` is not one report per shard in shard order
    /// (mixing runs across simulations would silently misattribute
    /// utilization).
    #[must_use]
    pub fn outcome(&self, run: &ServeRun) -> ServeOutcome {
        assert_eq!(
            run.reports.len(),
            self.shard_count(),
            "one report per shard"
        );
        for (i, report) in run.reports.iter().enumerate() {
            assert_eq!(report.shard, i, "reports must be in shard order");
        }
        aggregate(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, IrregularEstimate, IrregularWork, SmaBackend};
    use crate::platform::Platform;
    use sma_core::model::GemmEstimate;
    use sma_models::zoo;
    use sma_tensor::GemmShape;

    fn small_sim(policy: Arc<dyn BatchPolicy>, config: EngineConfig) -> ServeSim {
        let shards = vec![
            Executor::new(Platform::Sma3),
            Executor::new(Platform::GpuTensorCore),
        ];
        let networks = vec![zoo::alexnet(), zoo::vgg_a()];
        let trace = LoadGenerator::new(11, 2.0)
            .with_slo(30.0)
            .trace(120, networks.len());
        ServeSim::try_new(shards, networks, policy, &trace, config).unwrap()
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let sim = small_sim(Arc::new(Immediate), EngineConfig::default());
        let run = sim.try_run(&mut RoundRobin::default()).unwrap();
        let mut ids: Vec<u64> = run
            .reports
            .iter()
            .flat_map(|r| r.requests.iter().map(|q| q.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..120).collect::<Vec<u64>>());
        assert!(run.rejected.is_empty());
        let outcome = sim.outcome(&run);
        assert_eq!(outcome.requests, 120);
        assert!(outcome.p50_ms > 0.0);
        assert!(outcome.p999_ms >= outcome.p99_ms);
        // Unbounded cache: no evictions, exact counter balance.
        assert_eq!(outcome.cache.evictions, 0);
        assert_eq!(
            outcome.cache.hits + outcome.cache.misses,
            outcome.cache.lookups
        );
    }

    #[test]
    fn batches_never_start_before_their_requests_arrive() {
        let sim = small_sim(Arc::new(Deadline::new(5.0, 8)), EngineConfig::default());
        let run = sim.try_run(&mut LeastOutstanding::default()).unwrap();
        for report in &run.reports {
            for request in &report.requests {
                assert!(request.start_ms >= request.arrival_ms - 1e-12);
                assert!(request.completion_ms > request.start_ms);
            }
            // Batches execute back to back, never overlapping.
            for pair in report.batches.windows(2) {
                assert!(
                    pair[1].start_ms
                        >= pair[0].start_ms + pair[0].compile_ms + pair[0].service_ms - 1e-9
                );
            }
        }
    }

    #[test]
    fn size_k_forms_full_batches_until_the_tail() {
        let sim = small_sim(Arc::new(SizeK::new(4)), EngineConfig::default());
        let run = sim.try_run(&mut RoundRobin::default()).unwrap();
        let sizes: Vec<usize> = run
            .reports
            .iter()
            .flat_map(|r| r.batches.iter().map(|b| b.size))
            .collect();
        assert!(sizes.iter().all(|&s| s <= 4));
        assert!(
            sizes.iter().filter(|&&s| s == 4).count() > sizes.len() / 2,
            "most batches reach k: {sizes:?}"
        );
    }

    #[test]
    fn repeat_runs_are_identical_with_fresh_placements() {
        for config in [EngineConfig::default(), EngineConfig::legacy()] {
            let sim = small_sim(Arc::new(Deadline::new(3.0, 16)), config);
            let a = sim.try_run(&mut PlatformAffinity::default()).unwrap();
            let b = sim.try_run(&mut PlatformAffinity::default()).unwrap();
            for (x, y) in a.reports.iter().zip(&b.reports) {
                assert_eq!(x.busy_ms.to_bits(), y.busy_ms.to_bits());
                assert_eq!(x.makespan_ms.to_bits(), y.makespan_ms.to_bits());
                assert_eq!(x.requests.len(), y.requests.len());
                for (p, q) in x.requests.iter().zip(&y.requests) {
                    assert_eq!(p.id, q.id);
                    assert_eq!(p.completion_ms.to_bits(), q.completion_ms.to_bits());
                }
            }
        }
    }

    #[test]
    fn affinity_places_each_network_on_one_platform() {
        let sim = small_sim(Arc::new(Immediate), EngineConfig::default());
        let run = sim.try_run(&mut PlatformAffinity::default()).unwrap();
        for net in 0..sim.networks().len() {
            let hosts: std::collections::BTreeSet<&str> = run
                .reports
                .iter()
                .filter(|r| r.requests.iter().any(|q| q.network == net))
                .map(|r| r.platform)
                .collect();
            assert!(hosts.len() <= 1, "network {net} spread over {hosts:?}");
        }
    }

    /// The stock 3-SMA backend, except that it rejects every GEMM
    /// taller than `max_m`: batch-1 plans compile, batched ones do not.
    #[derive(Debug)]
    struct BatchOneOnly {
        inner: SmaBackend,
        max_m: usize,
    }

    impl Backend for BatchOneOnly {
        fn name(&self) -> &'static str {
            "batch-one-only"
        }
        fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
            if shape.m > self.max_m {
                return Err(RuntimeError::UnsupportedOnBackend {
                    backend: "batch-one-only",
                    operation: "batched gemm",
                });
            }
            self.inner.gemm(shape)
        }
        fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
            self.inner.irregular(work)
        }
        fn transfer_ms(&self, bytes: u64) -> f64 {
            self.inner.transfer_ms(bytes)
        }
        fn simd_mode_boost(&self) -> f64 {
            self.inner.simd_mode_boost()
        }
    }

    #[test]
    fn a_rejected_batched_compile_fails_every_run_that_needs_it() {
        let network = zoo::alexnet();
        let max_m = network.gemm_shapes().iter().map(|s| s.m).max().unwrap();
        let shard = Executor::builder(Platform::Sma3)
            .backend(Arc::new(BatchOneOnly {
                inner: SmaBackend::iso_area_3sma(),
                max_m,
            }))
            .build();
        let trace = LoadGenerator::new(5, 1.0).trace(40, 1);
        let sim = ServeSim::try_new(
            vec![shard],
            vec![network],
            Arc::new(SizeK::new(2)),
            &trace,
            EngineConfig::default(),
        )
        .expect("batch-1 plans compile");
        // The cluster's table never stores the rejection: every run
        // that needs the batched plan fails, not only the first.
        for attempt in 0..2 {
            assert!(
                sim.try_run(&mut RoundRobin::default()).is_err(),
                "run {attempt} must fail"
            );
        }
        assert!(sim.cluster().batched_service_ms(0, 0, 2).is_err());
        let unbatched = ServeSim::with_cluster(
            Arc::clone(sim.cluster()),
            Arc::new(Immediate),
            &trace,
            EngineConfig::default(),
        );
        assert!(unbatched.try_run(&mut RoundRobin::default()).is_ok());
    }

    #[test]
    fn least_backlog_uses_the_live_view() {
        // Online admission: the live-backlog placement spreads load
        // across both shards even though round-robin state is absent.
        let sim = small_sim(Arc::new(Immediate), EngineConfig::default());
        let run = sim.try_run(&mut LeastBacklog).unwrap();
        assert!(
            run.reports.iter().all(|r| !r.requests.is_empty()),
            "both shards serve under least-backlog"
        );
    }
}
