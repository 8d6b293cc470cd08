//! The sans-IO state machine of one serving shard.
//!
//! A [`ShardCore`] owns everything a shard *decides*: its per-network
//! queues and the time-weighted depth gauge, policy batch selection,
//! launch pricing (the service memo, compile-on-first-use, the degrade
//! factor, the reconfiguration penalty and the plan-cache compile
//! charge), the depth-counted degrade/stall window state, the
//! traffic-mix reconfiguration window, and the batch and request
//! records that become its [`ShardReport`].
//!
//! It never reads a clock and never touches a thread: every method
//! takes the current simulated instant from its caller and returns a
//! decision. Two drivers clock it. The discrete-event engine
//! (`serve/engine.rs`) feeds it from its event heap; the live twin
//! (`serve/live.rs`) feeds it from wall-clock time and its MPSC queue.
//! Whatever lives here is shared by construction, so the live/replay
//! oracle only has to check what the two drivers add on top.

use super::fault::{FaultKind, FaultPlan, ShardFaultStats};
use super::load::Request;
use super::metrics::PlanCacheStats;
use super::policy::{BatchPolicy, PolicyDecision};
use super::scale::ReconfigStats;
use super::{BatchRecord, EngineConfig, ServeCluster, ServedRequest, ShardReport};
use crate::backend::RuntimeError;
use std::collections::{BTreeMap, VecDeque};

/// Capacity-bounded LRU over simulated plan residency, keyed on
/// `(network, batch)` and charged with
/// [`NetworkPlan::mem_bytes`](crate::NetworkPlan::mem_bytes); a miss
/// bills `compile_ms_per_layer × layers` of simulated latency before
/// the batch starts executing.
#[derive(Debug)]
struct PlanCache {
    budget: Option<u64>,
    /// `(bytes, last_use)` per resident plan; `last_use` ticks are
    /// unique, so the LRU victim is always unambiguous.
    entries: BTreeMap<(usize, usize), (u64, u64)>,
    resident_bytes: u64,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    fn new(budget: Option<u64>) -> Self {
        PlanCache {
            budget,
            entries: BTreeMap::new(),
            resident_bytes: 0,
            tick: 0,
            stats: PlanCacheStats::default(),
        }
    }

    /// Whether a plan is resident right now (no stats side effects —
    /// the transient-compile-fail gate peeks without billing).
    fn contains(&self, key: &(usize, usize)) -> bool {
        self.entries.contains_key(key)
    }

    /// Looks up (and on miss admits) a plan, returning the simulated
    /// compile charge: 0 on a hit, `compile_ms` on a miss. Eviction is
    /// LRU until the new plan fits; a plan larger than the whole
    /// budget empties the cache and is admitted anyway (online
    /// admission control keeps such requests out, so this only arises
    /// when a caller opts out of admission control).
    fn access(&mut self, key: (usize, usize), bytes: u64, compile_ms: f64) -> f64 {
        self.stats.lookups += 1;
        self.tick += 1;
        if let Some((_, last_use)) = self.entries.get_mut(&key) {
            *last_use = self.tick;
            self.stats.hits += 1;
            return 0.0;
        }
        self.stats.misses += 1;
        if let Some(budget) = self.budget {
            while self.resident_bytes + bytes > budget && !self.entries.is_empty() {
                let victim = *self
                    .entries
                    .iter()
                    .min_by_key(|(_, &(_, last_use))| last_use)
                    .map(|(k, _)| k)
                    // sma-lint: allow(no-panic) — the loop guard
                    // just checked !entries.is_empty().
                    .expect("non-empty cache has an LRU victim");
                // sma-lint: allow(no-panic) — victim was read out of
                // this map two lines up; no intervening mutation.
                let (evicted_bytes, _) = self.entries.remove(&victim).expect("victim resident");
                self.resident_bytes -= evicted_bytes;
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, (bytes, self.tick));
        self.resident_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.resident_bytes);
        compile_ms
    }

    fn into_stats(mut self) -> PlanCacheStats {
        self.stats.resident_bytes = self.resident_bytes;
        self.stats
    }
}

/// Per-shard reconfiguration state: the admission window and the
/// pinned fabric configuration, priced once per run from the backend's
/// `Reconfigurable` capability.
///
/// Decisions read only the shard's *admission* history (never retries,
/// hedges or preemption re-queues, and never completion timing), so
/// the pinned configuration at any point is a pure function of (trace,
/// placement): trace-deterministic, inside the live-twin oracle's
/// timing-robust envelope.
struct ReconfigShard {
    /// Sliding window of admitted network ids, newest at the back.
    window: VecDeque<usize>,
    window_cap: usize,
    every: u64,
    admissions: u64,
    /// The currently pinned configuration index.
    pinned: usize,
    /// `cycles[config][network]`: whole-network compute cycles under a
    /// pinned configuration (pure integers — no float ties).
    cycles: Vec<Vec<u64>>,
    /// `penalty[config][network]`: pinned service-time multiplier
    /// relative to per-shape-best (always >= 1).
    penalty: Vec<Vec<f64>>,
}

impl ReconfigShard {
    /// Feeds one admission into the window; every `every` admissions,
    /// re-pins the configuration minimising total cycles over the
    /// window's shape histogram (ties to the lowest index).
    fn observe(&mut self, net: usize, stats: &mut ReconfigStats) {
        self.window.push_back(net);
        if self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        self.admissions += 1;
        if !self.admissions.is_multiple_of(self.every) {
            return;
        }
        stats.evaluations += 1;
        let mut counts = vec![0u64; self.cycles[0].len()];
        for &observed in &self.window {
            counts[observed] += 1;
        }
        let best = best_config(&self.cycles, &counts);
        if best != self.pinned {
            self.pinned = best;
            stats.reconfigs += 1;
        }
    }
}

/// The configuration minimising `Σ counts[net] × cycles[config][net]`
/// (ties to the lowest index; u128 accumulation cannot overflow).
fn best_config(cycles: &[Vec<u64>], counts: &[u64]) -> usize {
    let mut best = 0usize;
    let mut best_cost = u128::MAX;
    for (config, row) in cycles.iter().enumerate() {
        let cost: u128 = row
            .iter()
            .zip(counts)
            .map(|(&c, &k)| u128::from(c) * u128::from(k))
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best = config;
        }
    }
    best
}

/// One shard's degrade/stall window edges, `(instant, kind, opens)`,
/// in firing order, for a driver without an event heap (the live twin).
///
/// At equal instants, opening edges come first in plan order, then
/// closing edges — the engine's order, where every window-open event
/// is pushed before any window-close event exists.
pub(super) struct WindowSchedule {
    edges: Vec<(f64, FaultKind, bool)>,
    next: usize,
}

impl WindowSchedule {
    /// The timing-only windows of `plan` that target `shard`.
    pub(super) fn new(plan: &FaultPlan, shard: usize) -> Self {
        let mut closes = Vec::new();
        let mut edges = Vec::new();
        for event in plan.events().iter().filter(|e| e.shard == shard) {
            if let FaultKind::Degrade { window_ms, .. }
            | FaultKind::StallCompile { window_ms, .. } = event.kind
            {
                edges.push((event.at_ms, event.kind, true));
                closes.push((event.at_ms + window_ms, event.kind, false));
            }
        }
        edges.append(&mut closes);
        // Stable: equal instants keep opens (in plan order) first.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0));
        WindowSchedule { edges, next: 0 }
    }

    /// Feeds `core` every edge strictly before `now_ms`. An edge at
    /// exactly `now_ms` waits: the engine fires fault events after the
    /// arrivals, completions and timers of the same instant, so a
    /// launch at a window's opening instant is priced outside it.
    pub(super) fn advance(&mut self, now_ms: f64, core: &mut ShardCore<'_>) {
        while let Some(&(at_ms, kind, opens)) = self.edges.get(self.next) {
            if at_ms >= now_ms {
                break;
            }
            core.window_edge(kind, opens);
            self.next += 1;
        }
    }
}

/// A batch the core launched: the requests it took and the modeled
/// costs it priced. Its records are written at completion (not
/// launch), so a crash can abort it without leaving phantom records.
#[derive(Debug)]
pub(super) struct Batch {
    pub(super) network: usize,
    pub(super) start_ms: f64,
    pub(super) compile_ms: f64,
    pub(super) service_ms: f64,
    pub(super) requests: Vec<Request>,
}

/// One dispatch-ready queue from [`ShardCore::select`].
#[derive(Debug, Clone, Copy)]
pub(super) struct Ready {
    /// Head SLO class under strict priorities, else 0.
    class: u8,
    urgency: f64,
    pub(super) net: usize,
    pub(super) take: usize,
}

/// The decision state of one shard. See the module docs.
pub(super) struct ShardCore<'a> {
    cluster: &'a ServeCluster,
    policy: &'a dyn BatchPolicy,
    shard: usize,
    compile_ms_per_layer: f64,
    /// Strict class order in the queues (preemption on).
    strict: bool,
    /// Per-network queues of admitted-but-unlaunched requests.
    queues: Vec<VecDeque<Request>>,
    /// Nesting depth of active degrade windows.
    degrade_depth: u32,
    /// Live service-time multiplier (1.0 when no window is active;
    /// with overlapping windows the most recent factor wins).
    degrade_factor: f64,
    /// Nesting depth of active compile-stall windows.
    stall_depth: u32,
    /// Extra compile-on-miss latency while stalled (0 when clear).
    stall_extra_ms: f64,
    /// Memoized `(network, batch) → service ms`; first use compiles
    /// the plan through the executor.
    service_ms: BTreeMap<(usize, usize), f64>,
    cache: PlanCache,
    /// Queued-request count (all networks).
    depth: usize,
    depth_max: usize,
    /// `∫ depth dt` for the time-weighted mean queue depth.
    depth_integral_ms: f64,
    depth_last_ms: f64,
    /// Serve-time reconfiguration state (`None` = the backend is not
    /// reconfigurable, or the feature is off).
    reconfig: Option<ReconfigShard>,
    reconfig_stats: ReconfigStats,
    report: ShardReport,
}

impl<'a> ShardCore<'a> {
    /// One core per cluster shard, configured from `config`.
    pub(super) fn fleet(
        cluster: &'a ServeCluster,
        policy: &'a dyn BatchPolicy,
        config: &EngineConfig,
    ) -> Vec<Self> {
        let net_count = cluster.networks().len();
        // Reconfiguration pricing: pure integers off the backend's
        // cycle model, computed once per run (and only when the
        // feature is on — the default path never touches it).
        let net_shapes: Vec<Vec<sma_tensor::GemmShape>> = if config.reconfig.is_some() {
            cluster
                .networks()
                .iter()
                .map(sma_models::Network::gemm_shapes)
                .collect()
        } else {
            Vec::new()
        };
        let reconfig_shard = |shard: usize| -> Option<ReconfigShard> {
            let policy = config.reconfig?;
            let rc = cluster
                .shard_executor(shard)
                .backend()
                .as_reconfigurable()?;
            let cycles: Vec<Vec<u64>> = (0..rc.config_count())
                .map(|cfg| {
                    net_shapes
                        .iter()
                        .map(|shapes| rc.pinned_cycles(shapes, cfg))
                        .collect()
                })
                .collect();
            let penalty: Vec<Vec<f64>> = cycles
                .iter()
                .map(|row| {
                    net_shapes
                        .iter()
                        .zip(row)
                        .map(|(shapes, &pinned)| {
                            let flexible = rc.flexible_cycles(shapes).max(1);
                            pinned.max(flexible) as f64 / flexible as f64
                        })
                        .collect()
                })
                .collect();
            // The initial pin assumes a uniform mix (not counted as a
            // reconfiguration).
            let uniform = vec![1u64; net_count];
            Some(ReconfigShard {
                window: VecDeque::new(),
                window_cap: policy.window,
                every: policy.every as u64,
                admissions: 0,
                pinned: best_config(&cycles, &uniform),
                cycles,
                penalty,
            })
        };
        (0..cluster.shard_count())
            .map(|shard| ShardCore {
                cluster,
                policy,
                shard,
                compile_ms_per_layer: config.compile_ms_per_layer,
                strict: config.preempt.is_some(),
                queues: vec![VecDeque::new(); net_count],
                degrade_depth: 0,
                degrade_factor: 1.0,
                stall_depth: 0,
                stall_extra_ms: 0.0,
                // Batch-1 service times come off the cluster's
                // pre-compiled plans (bit-identical to a fresh
                // compile).
                service_ms: cluster.unit_service_ms()[shard]
                    .iter()
                    .enumerate()
                    .map(|(net, &ms)| ((net, 1), ms))
                    .collect(),
                cache: PlanCache::new(config.cache_budget.for_shard(shard)),
                depth: 0,
                depth_max: 0,
                depth_integral_ms: 0.0,
                depth_last_ms: 0.0,
                reconfig: reconfig_shard(shard),
                reconfig_stats: ReconfigStats::default(),
                report: ShardReport {
                    shard,
                    platform: cluster.platforms()[shard],
                    ..ShardReport::default()
                },
            })
            .collect()
    }

    /// Records a queue-depth change at `now_ms` (time-weighted).
    fn note_depth(&mut self, now_ms: f64, depth: usize) {
        self.depth_integral_ms += self.depth as f64 * (now_ms - self.depth_last_ms);
        self.depth_last_ms = now_ms;
        self.depth = depth;
        self.depth_max = self.depth_max.max(depth);
    }

    /// Queues one request. Without strict priorities this is a FIFO
    /// push; with preemption on, queues hold strict class order
    /// (stable FIFO within a class), so the dispatch head is always the
    /// most urgent queued work. Retries, hedges and other re-queues
    /// enter here; fresh admissions go through [`ShardCore::admit`].
    #[inline]
    pub(super) fn enqueue(&mut self, now_ms: f64, request: Request) {
        self.note_depth(now_ms, self.depth + 1);
        let queue = &mut self.queues[request.network];
        if self.strict {
            let pos = queue
                .iter()
                .take_while(|r| r.class <= request.class)
                .count();
            queue.insert(pos, request);
        } else {
            queue.push_back(request);
        }
    }

    /// Queues a fresh admission and feeds it to the traffic-mix
    /// window. The window sees admissions only (never retries, hedges
    /// or preemption re-queues), so reconfiguration decisions stay a
    /// pure function of (trace, placement).
    #[inline]
    pub(super) fn admit(&mut self, now_ms: f64, request: Request) {
        self.enqueue(now_ms, request);
        if let Some(rc) = &mut self.reconfig {
            rc.observe(request.network, &mut self.reconfig_stats);
        }
    }

    /// Opens (`opens`) or closes a degrade or compile-stall window;
    /// other fault kinds are the driver's, not the core's. Windows are
    /// depth-counted: they nest, the most recently opened factor (or
    /// surcharge) wins while any window is open, and only the last
    /// close clears it.
    pub(super) fn window_edge(&mut self, kind: FaultKind, opens: bool) {
        let (depth, value, set, clear) = match kind {
            FaultKind::Degrade { factor, .. } => (
                &mut self.degrade_depth,
                &mut self.degrade_factor,
                factor,
                1.0,
            ),
            FaultKind::StallCompile { extra_ms, .. } => (
                &mut self.stall_depth,
                &mut self.stall_extra_ms,
                extra_ms,
                0.0,
            ),
            FaultKind::Crash { .. } | FaultKind::TransientCompileFail { .. } => return,
        };
        if opens {
            *depth += 1;
            *value = set;
        } else {
            *depth = depth.saturating_sub(1);
            if *depth == 0 {
                *value = clear;
            }
        }
    }

    /// Evaluates every non-empty queue at `now_ms`. Returns the
    /// dispatch-ready queues, best first, and the earliest instant a
    /// waiting queue asked to be re-evaluated (`INFINITY` if none).
    /// `more_arrivals(net)` says whether further arrivals for `net` can
    /// still reach this shard.
    ///
    /// The order matches the pre-engine drain: ready queues race on
    /// [`BatchPolicy::urgency`] (default: head arrival — FIFO across
    /// networks), ties to the lowest network index. Under strict
    /// priorities the head's class ranks first.
    pub(super) fn select(
        &mut self,
        now_ms: f64,
        more_arrivals: impl Fn(usize) -> bool,
    ) -> (Vec<Ready>, f64) {
        let mut ready: Vec<Ready> = Vec::new();
        let mut wake_ms = f64::INFINITY;
        for (net, queue) in self.queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            // O(1) when the ring has not wrapped since the last front
            // drain; policies see a plain FIFO slice.
            let contiguous: &[Request] = queue.make_contiguous();
            match self.policy.decide(contiguous, now_ms, more_arrivals(net)) {
                PolicyDecision::Dispatch { take } => ready.push(Ready {
                    class: if self.strict { contiguous[0].class } else { 0 },
                    urgency: self.policy.urgency(contiguous, now_ms),
                    net,
                    take: take.clamp(1, contiguous.len()),
                }),
                PolicyDecision::WaitUntil(at) => wake_ms = wake_ms.min(at),
                PolicyDecision::WaitForArrivals => {}
            }
        }
        ready.sort_by(|a, b| {
            a.class
                .cmp(&b.class)
                .then(a.urgency.total_cmp(&b.urgency))
                .then(a.net.cmp(&b.net))
        });
        (ready, wake_ms)
    }

    /// Launches the first `take` queued requests of `net` at `now_ms`
    /// and prices the batch: memoized service time (first use compiles
    /// through the executor), the degrade factor, the reconfiguration
    /// penalty, and the compile-on-miss charge (plus any stall
    /// surcharge) through the plan cache.
    ///
    /// # Errors
    ///
    /// A backend rejecting the batched plan compile.
    #[inline]
    pub(super) fn launch(
        &mut self,
        now_ms: f64,
        net: usize,
        take: usize,
    ) -> Result<Batch, RuntimeError> {
        let service_base = match self.service_ms.entry((net, take)) {
            std::collections::btree_map::Entry::Occupied(hit) => *hit.get(),
            std::collections::btree_map::Entry::Vacant(slot) => {
                let plan = self
                    .cluster
                    .shard_executor(self.shard)
                    .with_batch(take)
                    .try_plan(&self.cluster.networks()[net])?;
                self.report.plans_compiled.push((net, take));
                *slot.insert(plan.run().total_ms)
            }
        };
        // Inside a degrade window the batch runs slower by the live
        // factor. Window membership decides the counter (a factor-1.0
        // window still counts); the guard keeps the fault-free path's
        // float ops unchanged.
        let degraded = self.degrade_depth > 0;
        let mut service_ms = if degraded {
            self.report.fault.degraded_batches += 1;
            service_base * self.degrade_factor
        } else {
            service_base
        };
        // Serve-time reconfiguration: the pinned fabric configuration
        // pays its latency penalty relative to per-shape-best.
        if let Some(rc) = &self.reconfig {
            service_ms *= rc.penalty[rc.pinned][net];
        }
        // Simulated plan residency: a miss bills the compile before
        // the batch starts; an active stall window adds its surcharge.
        let mut compile_charge = self.compile_ms_per_layer
            * self.cluster.unit_plan(self.shard, net).layer_count() as f64;
        if self.stall_depth > 0 {
            compile_charge += self.stall_extra_ms;
        }
        let compile_ms = self.cache.access(
            (net, take),
            self.cluster.unit_plan_bytes()[self.shard][net],
            compile_charge,
        );
        let requests: Vec<Request> = self.queues[net].drain(..take).collect();
        self.note_depth(now_ms, self.depth - take);
        Ok(Batch {
            network: net,
            start_ms: now_ms,
            compile_ms,
            service_ms,
            requests,
        })
    }

    /// Records a finished batch: its busy time, its batch record, and
    /// every request `serve` keeps as a served request delivered at
    /// `delivered_ms`. `finish_ms` is when the shard freed up.
    #[inline]
    pub(super) fn complete(
        &mut self,
        batch: &Batch,
        finish_ms: f64,
        delivered_ms: f64,
        mut serve: impl FnMut(&Request) -> bool,
    ) {
        let size = batch.requests.len();
        self.report.batches.push(BatchRecord {
            network: batch.network,
            size,
            start_ms: batch.start_ms,
            service_ms: batch.service_ms,
            compile_ms: batch.compile_ms,
        });
        for request in &batch.requests {
            if !serve(request) {
                continue;
            }
            self.report.requests.push(ServedRequest {
                id: request.id,
                network: request.network,
                arrival_ms: request.arrival_ms,
                deadline_ms: request.deadline_ms,
                class: request.class,
                start_ms: batch.start_ms,
                completion_ms: delivered_ms,
                batch_size: size,
            });
        }
        self.report.busy_ms += batch.compile_ms + batch.service_ms;
        self.report.makespan_ms = self.report.makespan_ms.max(finish_ms);
    }

    /// Evicts a running batch at `now_ms` (preemption). Unlike a crash
    /// abort, the partial work is *billed*: the elapsed slice counts as
    /// busy time and is reported as preempted busy time, so
    /// preemption's cost is visible without ever double-counting (the
    /// victims' eventual completion bills its own full batch). Victims
    /// re-enter their queue behind more urgent work but ahead of their
    /// own class peers, keeping their mutual order.
    pub(super) fn evict(&mut self, now_ms: f64, batch: Batch) {
        let elapsed_ms = now_ms - batch.start_ms;
        self.report.busy_ms += elapsed_ms;
        self.report.fault.preemptions += 1;
        self.report.fault.preempted_busy_ms += elapsed_ms;
        self.report.fault.preempted_requests += batch.requests.len() as u64;
        for victim in batch.requests.iter().rev() {
            let queue = &mut self.queues[victim.network];
            let pos = queue.iter().take_while(|r| r.class < victim.class).count();
            queue.insert(pos, *victim);
        }
        self.note_depth(now_ms, self.depth + batch.requests.len());
    }

    /// Drops every queued request whose id is in `ids`.
    pub(super) fn cancel(&mut self, now_ms: f64, ids: &[u64]) {
        let mut removed = 0usize;
        for queue in &mut self.queues {
            let before = queue.len();
            queue.retain(|r| !ids.contains(&r.id));
            removed += before - queue.len();
        }
        if removed > 0 {
            self.note_depth(now_ms, self.depth - removed);
        }
    }

    /// Queued requests (all networks).
    #[inline]
    pub(super) fn queued(&self) -> usize {
        self.depth
    }

    /// The queue of one network, head first.
    #[inline]
    pub(super) fn queue(&self, net: usize) -> &VecDeque<Request> {
        &self.queues[net]
    }

    /// Bytes of plans resident in the shard's cache (the live gauge
    /// behind [`ClusterView::resident_plan_bytes`](super::ClusterView)).
    #[inline]
    pub(super) fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes
    }

    /// Whether a `(network, batch)` plan is resident (no stats side
    /// effects).
    #[inline]
    pub(super) fn has_plan(&self, key: &(usize, usize)) -> bool {
        self.cache.contains(key)
    }

    /// The live service-time multiplier (1.0 outside every degrade
    /// window).
    #[inline]
    pub(super) fn degrade(&self) -> f64 {
        self.degrade_factor
    }

    /// The shard's fault counters, for the driver's own events.
    #[inline]
    pub(super) fn fault_mut(&mut self) -> &mut ShardFaultStats {
        &mut self.report.fault
    }

    /// Closes the shard's books at the cluster-wide horizon.
    ///
    /// # Panics
    ///
    /// Panics if requests are still queued: the policy never became
    /// ready for them.
    fn finish(mut self, makespan_ms: f64) -> ShardReport {
        assert!(
            self.queues.iter().all(VecDeque::is_empty),
            "shard {} stalled with queued requests (policy never became ready)",
            self.shard
        );
        self.note_depth(self.depth_last_ms.max(makespan_ms), 0);
        self.report.queue_depth_mean = if makespan_ms > 0.0 {
            self.depth_integral_ms / makespan_ms
        } else {
            0.0
        };
        self.report.queue_depth_max = self.depth_max;
        self.report.cache = self.cache.into_stats();
        self.report
    }
}

/// Closes a whole fleet: one report per shard (in shard order), every
/// depth integral closed at the cluster-wide horizon, and the summed
/// reconfiguration counters.
pub(super) fn close_fleet(cores: Vec<ShardCore<'_>>) -> (Vec<ShardReport>, ReconfigStats) {
    let makespan_ms = cores
        .iter()
        .map(|core| core.report.makespan_ms)
        .fold(0.0_f64, f64::max);
    let mut reconfig = ReconfigStats::default();
    let reports = cores
        .into_iter()
        .map(|core| {
            reconfig.evaluations += core.reconfig_stats.evaluations;
            reconfig.reconfigs += core.reconfig_stats.reconfigs;
            core.finish(makespan_ms)
        })
        .collect();
    (reports, reconfig)
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::super::{FaultEvent, Immediate};
    use super::*;
    use crate::executor::Executor;
    use crate::platform::Platform;
    use sma_models::zoo;

    #[test]
    fn plan_cache_lru_evicts_the_coldest_plan() {
        let mut cache = PlanCache::new(Some(100));
        assert_eq!(cache.access((0, 1), 40, 2.0), 2.0, "cold miss bills");
        assert_eq!(cache.access((1, 1), 40, 2.0), 2.0);
        assert_eq!(cache.access((0, 1), 40, 2.0), 0.0, "hit is free");
        // Admitting a third 40B plan exceeds 100B: the LRU victim is
        // (1,1) — (0,1) was touched more recently.
        assert_eq!(cache.access((2, 1), 40, 2.0), 2.0);
        assert_eq!(cache.access((0, 1), 40, 2.0), 0.0, "(0,1) survived");
        assert_eq!(cache.access((1, 1), 40, 2.0), 2.0, "(1,1) was evicted");
        let stats = cache.into_stats();
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert_eq!(stats.evictions, 2);
        assert!(stats.peak_bytes <= 100);
        assert_eq!(stats.resident_bytes, 80);
    }

    #[test]
    fn plan_cache_unbounded_never_evicts() {
        let mut cache = PlanCache::new(None);
        for net in 0..50 {
            assert_eq!(cache.access((net, 1), 1 << 20, 1.0), 1.0);
            assert_eq!(cache.access((net, 1), 1 << 20, 1.0), 0.0);
        }
        let stats = cache.into_stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses, 50);
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.resident_bytes, 50 << 20);
    }

    #[test]
    fn plan_cache_contains_peeks_without_billing() {
        let mut cache = PlanCache::new(Some(100));
        assert!(!cache.contains(&(0, 1)));
        cache.access((0, 1), 40, 2.0);
        assert!(cache.contains(&(0, 1)));
        let stats = cache.into_stats();
        assert_eq!(stats.lookups, 1, "contains() is not a lookup");
    }

    #[test]
    fn oversized_plan_empties_the_cache_but_still_runs() {
        let mut cache = PlanCache::new(Some(64));
        cache.access((0, 1), 30, 1.0);
        cache.access((1, 1), 30, 1.0);
        // 100 > 64: everything is evicted, the plan is admitted anyway
        // (admission control keeps this out of online runs).
        assert_eq!(cache.access((2, 1), 100, 1.0), 1.0);
        let stats = cache.into_stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.resident_bytes, 100);
    }

    #[test]
    fn best_config_minimises_weighted_cycles_with_low_index_ties() {
        // config 0 wins net 0, config 1 wins net 1.
        let cycles = vec![vec![10, 100], vec![50, 20]];
        assert_eq!(best_config(&cycles, &[1, 0]), 0);
        assert_eq!(best_config(&cycles, &[0, 1]), 1);
        // 3×10 + 1×100 = 130 vs 3×50 + 1×20 = 170.
        assert_eq!(best_config(&cycles, &[3, 1]), 0);
        // Exact tie: lowest index wins.
        assert_eq!(best_config(&[vec![5], vec![5]], &[7]), 0);
        // Empty window: everything is zero cost — lowest index.
        assert_eq!(best_config(&cycles, &[0, 0]), 0);
    }

    fn one_shard_cluster() -> ServeCluster {
        ServeCluster::try_new(vec![Executor::new(Platform::Sma3)], vec![zoo::alexnet()]).unwrap()
    }

    fn request(id: u64) -> Request {
        Request {
            id,
            network: 0,
            arrival_ms: 0.0,
            deadline_ms: f64::INFINITY,
            class: 0,
        }
    }

    /// Window A covers [0, 100) and contains window B over [10, 20).
    fn nested_windows(a: FaultKind, b: FaultKind) -> FaultPlan {
        FaultPlan::none()
            .with_event(FaultEvent {
                shard: 0,
                at_ms: 0.0,
                kind: a,
            })
            .with_event(FaultEvent {
                shard: 0,
                at_ms: 10.0,
                kind: b,
            })
    }

    /// Drives one core through `plan` the way the live twin does:
    /// queue a request, apply every edge strictly before the launch
    /// instant, launch it, complete it.
    fn launches_at(
        cluster: &ServeCluster,
        config: &EngineConfig,
        instants: &[(f64, usize)],
    ) -> (Vec<Batch>, ShardReport) {
        let mut core = ShardCore::fleet(cluster, &Immediate, config).remove(0);
        let mut windows = WindowSchedule::new(&config.faults, 0);
        let mut batches = Vec::new();
        for (id, &(at_ms, take)) in instants.iter().enumerate() {
            for _ in 0..take {
                core.admit(at_ms, request(id as u64));
            }
            windows.advance(at_ms, &mut core);
            let batch = core.launch(at_ms, 0, take).unwrap();
            core.complete(&batch, at_ms, at_ms, |_| true);
            batches.push(batch);
        }
        let (mut reports, _) = close_fleet(vec![core]);
        (batches, reports.remove(0))
    }

    #[test]
    fn nested_degrade_windows_are_depth_counted_and_the_last_factor_wins() {
        let cluster = one_shard_cluster();
        let base = cluster.unit_service_ms()[0][0];
        let degrade = |factor, window_ms| FaultKind::Degrade { factor, window_ms };
        let config = EngineConfig::default()
            .with_faults(nested_windows(degrade(2.0, 100.0), degrade(3.0, 10.0)));
        // 10 is B's opening instant: the edge waits, so A alone prices
        // it. 15 sits inside both; at 50 B has closed but A keeps the
        // last-set factor; 120 is past both windows.
        let (batches, report) = launches_at(
            &cluster,
            &config,
            &[(10.0, 1), (15.0, 1), (50.0, 1), (120.0, 1)],
        );
        let service: Vec<f64> = batches.iter().map(|b| b.service_ms).collect();
        assert_eq!(service, vec![base * 2.0, base * 3.0, base * 3.0, base]);
        assert_eq!(report.fault.degraded_batches, 3);
        assert!(report.plans_compiled.is_empty(), "batch 1 is pre-seeded");
    }

    #[test]
    fn nested_stall_windows_surcharge_each_miss_with_the_last_set_extra() {
        let cluster = one_shard_cluster();
        let stall = |extra_ms, window_ms| FaultKind::StallCompile {
            extra_ms,
            window_ms,
        };
        let config = EngineConfig::default()
            .with_faults(nested_windows(stall(5.0, 100.0), stall(7.0, 10.0)));
        // Distinct batch sizes make every launch a plan-cache miss.
        let (batches, report) = launches_at(&cluster, &config, &[(15.0, 1), (50.0, 2), (120.0, 3)]);
        let compile: Vec<f64> = batches.iter().map(|b| b.compile_ms).collect();
        assert_eq!(compile, vec![7.0, 7.0, 0.0]);
        assert_eq!(report.fault.degraded_batches, 0);
        assert_eq!(report.plans_compiled, vec![(0, 2), (0, 3)]);
        assert_eq!(report.cache.misses, 3);
    }

    #[test]
    fn closing_an_inner_window_never_clears_the_outer_one() {
        let cluster = one_shard_cluster();
        let mut core = ShardCore::fleet(&cluster, &Immediate, &EngineConfig::default()).remove(0);
        let degrade = |factor| FaultKind::Degrade {
            factor,
            window_ms: 1.0,
        };
        core.window_edge(degrade(2.0), true);
        core.window_edge(degrade(3.0), true);
        core.window_edge(degrade(3.0), false);
        assert_eq!(core.degrade(), 3.0, "depth 1: still degraded");
        core.window_edge(degrade(2.0), false);
        assert_eq!(core.degrade(), 1.0, "depth 0: clear");
        // A stray close never drives the depth negative.
        core.window_edge(degrade(2.0), false);
        core.window_edge(degrade(4.0), true);
        assert_eq!(core.degrade(), 4.0);
        // Crash and compile-fail windows are not the core's.
        core.window_edge(FaultKind::Crash { recover_ms: 1.0 }, true);
        assert_eq!(core.degrade(), 4.0);
    }
}
