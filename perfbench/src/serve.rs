//! `serve_steady` and `serve_chaos`: the discrete-event serving engine.
//!
//! Both build the `serve_sim` cluster (six shards on five platforms,
//! three Table-II networks) from fresh backend instances, so each
//! set-up compiles cold, and draw one seeded SLO-class trace with the
//! `serve_sim` calibration. A pass runs every combo of the workload's
//! blocks over that trace through `sweep::run_work_stealing`:
//!
//! * `serve_steady` — the fault-free online block: 4 policies x
//!   {round-robin, least-backlog} x {unbounded, bounded} plan cache
//!   (16 combos). It loads the engine's arrival, batch-close and
//!   complete loop and the LRU plan cache. The legacy preplaced block
//!   is left out: it is slated for deletion.
//! * `serve_chaos` — the fault block ({none, crash-heavy,
//!   degrade-heavy} x {retry, retry+hedge}, with shedding) and the
//!   control block (preemption x autoscaling x reconfiguration), 14
//!   combos at the CI chaos settings. It drives the same engine
//!   through its timer, fault, retry, hedge, preempt and scale events.
//!
//! Every combo must partition its trace exactly (served + rejected +
//! shed + failed = trace length). Before the timed loop, both
//! workloads also check that `run_matrix` at the committed 10,000-request
//! default reproduces `BENCH_serve.json` byte for byte.

use crate::args::Workload;
use crate::bench::{Bench, Metrics, PassOutput, Tally, TracedRun};
use crate::host;
use crate::trace::{Runs, Tracer};
use crate::traced_backend::TracedBackend;
use sma_bench::serve::{
    default_scenario, mean_unit_service_ms, online_placement_matrix, online_policy_matrix,
    run_matrix, PlacementFactory, ScenarioOptions,
};
use sma_bench::stream::{fnv1a64, fnv1a64_chain, fnv1a64_seed};
use sma_bench::sweep;
use sma_models::zoo;
use sma_runtime::backend::{
    ArrayFlexBackend, Backend, FlexSaBackend, SimdBackend, SmaBackend, TensorCoreBackend,
};
use sma_runtime::serve::{
    percentile_ms, AutoscalePolicy, BatchPolicy, CacheBudget, EarliestDeadlineFirst, EngineConfig,
    FaultMix, FaultPlan, HealthWeighted, HedgePolicy, LoadGenerator, PreemptPolicy, ReconfigPolicy,
    Request, RetryPolicy, ServeCluster, ServeSim, ShedPolicy,
};
use sma_runtime::{Executor, Platform};
use std::sync::{Arc, Mutex};

/// Trace length of both serve workloads. Long enough for the queues to
/// settle at the calibrated ~0.9 offered load, short enough that one
/// simulation's working set (trace copy, per-request records, the
/// outcome's sorts) stays in a core's 2 MiB L2: with 15,000 or more
/// requests the reference box's pass time drifts ~20% between runs
/// with neighbours' pressure on the shared L3, at 5,000 it stays
/// within ~5%.
const TRACE_REQUESTS: usize = 5_000;
/// `serve_sim`'s default trace length and seed, which `BENCH_serve.json`
/// was produced with.
const COMMITTED_REQUESTS: usize = 10_000;
const COMMITTED_SEED: u64 = 0xDAC2_0020;

/// The CI chaos settings (`SMA_SERVE_FAULT_RATE=4.0`,
/// `SMA_SERVE_PREEMPT=1`, `SMA_SERVE_SCALE_PERIOD_MS=10`,
/// `SMA_SERVE_SCALE_HEADROOM=0.5`).
const CHAOS_OPTIONS: ScenarioOptions = ScenarioOptions {
    slo_ms: None,
    cache_budget_bytes: None,
    fault_seed: None,
    fault_rate: Some(4.0),
    hedge_ms: None,
    scale_period_ms: Some(10.0),
    scale_headroom: Some(0.5),
    preempt_gap: Some(1),
};

/// The four engine blocks the workloads time separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Fault-free online rows, unbounded plan cache.
    SteadyUnbounded,
    /// Fault-free online rows, bounded plan cache (compile on miss).
    SteadyBounded,
    /// Fault-injection rows.
    ChaosFault,
    /// Control-plane rows.
    ChaosControl,
}

impl Block {
    const ALL: [Block; 4] = [
        Block::SteadyUnbounded,
        Block::SteadyBounded,
        Block::ChaosFault,
        Block::ChaosControl,
    ];

    const fn label(self) -> &'static str {
        match self {
            Block::SteadyUnbounded => "steady-unbounded",
            Block::SteadyBounded => "steady-bounded",
            Block::ChaosFault => "chaos-fault",
            Block::ChaosControl => "chaos-control",
        }
    }

    /// Span around `ServeSim::try_run` for this block.
    const fn run_span(self) -> &'static str {
        match self {
            Block::SteadyUnbounded => "engine.try_run.steady-unbounded",
            Block::SteadyBounded => "engine.try_run.steady-bounded",
            Block::ChaosFault => "engine.try_run.chaos-fault",
            Block::ChaosControl => "engine.try_run.chaos-control",
        }
    }

    /// Count of simulated requests served through this block.
    const fn requests_count(self) -> &'static str {
        match self {
            Block::SteadyUnbounded => "engine.requests.steady-unbounded",
            Block::SteadyBounded => "engine.requests.steady-bounded",
            Block::ChaosFault => "engine.requests.chaos-fault",
            Block::ChaosControl => "engine.requests.chaos-control",
        }
    }

    /// Count of batches this block's runs closed.
    const fn batches_count(self) -> &'static str {
        match self {
            Block::SteadyUnbounded => "engine.batches.steady-unbounded",
            Block::SteadyBounded => "engine.batches.steady-bounded",
            Block::ChaosFault => "engine.batches.chaos-fault",
            Block::ChaosControl => "engine.batches.chaos-control",
        }
    }

    const fn workload(self) -> Workload {
        match self {
            Block::SteadyUnbounded | Block::SteadyBounded => Workload::ServeSteady,
            Block::ChaosFault | Block::ChaosControl => Workload::ServeChaos,
        }
    }
}

/// One matrix cell.
struct Combo {
    /// The block it belongs to.
    block: Block,
    policy: Arc<dyn BatchPolicy>,
    placement: PlacementFactory,
    config: EngineConfig,
}

impl std::fmt::Debug for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combo")
            .field("block", &self.block)
            .field("policy", &self.policy.label())
            .finish_non_exhaustive()
    }
}

/// A built serving scenario: cluster, trace and the workload's combos.
#[derive(Debug)]
pub struct ServeSetup {
    cluster: Arc<ServeCluster>,
    trace: Vec<Request>,
    /// The combos, in `run_matrix` row order.
    combos: Vec<Combo>,
}

/// Builds the `serve_sim` cluster from fresh backends (wrapped in the
/// counting decorator when traced), the trace, and `workload`'s combos
/// with `run_matrix`'s derived parameters.
///
/// # Errors
///
/// A backend rejected a hosted network.
fn build(
    workload: Workload,
    requests: usize,
    seed: u64,
    options: ScenarioOptions,
    tracer: &Tracer,
) -> Result<ServeSetup, String> {
    let fresh = |b: Arc<dyn Backend>| {
        if tracer.enabled() {
            TracedBackend::wrap(b, tracer.gemm())
        } else {
            b
        }
    };
    // The two 3-SMA shards share one instance, as they share the
    // process-global one in `serve_sim`.
    let sma3 = fresh(Arc::new(SmaBackend::iso_area_3sma()));
    let shard = |p: Platform, b: Arc<dyn Backend>| Executor::builder(p).backend(b).build();
    let shards = vec![
        shard(Platform::Sma3, Arc::clone(&sma3)),
        shard(Platform::Sma3, sma3),
        shard(
            Platform::GpuTensorCore,
            fresh(Arc::new(TensorCoreBackend::new())),
        ),
        shard(Platform::GpuSimd, fresh(Arc::new(SimdBackend::new()))),
        shard(
            Platform::ArrayFlex,
            fresh(Arc::new(ArrayFlexBackend::new())),
        ),
        shard(Platform::FlexSa, fresh(Arc::new(FlexSaBackend::new()))),
    ];
    let networks = vec![zoo::alexnet(), zoo::vgg_a(), zoo::googlenet()];
    let cluster = Arc::new(
        tracer
            .span("serve.cluster", || ServeCluster::try_new(shards, networks))
            .map_err(|e| format!("could not build the serving cluster: {e}"))?,
    );

    // The calibration of `sma_bench::serve::scenario`.
    let mean_service = mean_unit_service_ms(&cluster);
    let gap = mean_service / cluster.shard_count() as f64 * 1.1;
    let slo_ms = options.slo_ms.unwrap_or(2.5 * mean_service);
    let trace = tracer.span("serve.trace", || {
        LoadGenerator::new(seed, gap)
            .with_slo(slo_ms)
            .with_classes(3)
            .trace(requests, cluster.networks().len())
    });
    tracer.count("serve.trace_requests", trace.len() as u64);

    let combos = match workload {
        Workload::ServeSteady => {
            let max_plan_bytes = cluster
                .unit_plan_bytes()
                .iter()
                .flatten()
                .copied()
                .max()
                .unwrap_or(0);
            let bounded = options
                .cache_budget_bytes
                .unwrap_or(max_plan_bytes + max_plan_bytes / 4);
            steady_combos(mean_service, bounded)
        }
        _ => {
            let unit_cells: Vec<f64> = cluster
                .unit_service_ms()
                .iter()
                .flatten()
                .copied()
                .collect();
            let hedge_ms = options
                .hedge_ms
                .unwrap_or_else(|| percentile_ms(&unit_cells, 99.0));
            let horizon_ms = trace.last().map_or(0.0, |r| r.arrival_ms);
            let fault_seed = options.fault_seed.unwrap_or(seed ^ 0xFAA7_5EED);
            let fault_rate = options.fault_rate.unwrap_or(2.0).max(0.0);
            let shard_count = cluster.shard_count();
            let plans = tracer.span("serve.fault_plans", || {
                [FaultMix::crash_heavy(), FaultMix::degrade_heavy()].map(|mix| {
                    FaultPlan::generate(fault_seed, fault_rate, shard_count, horizon_ms, &mix)
                })
            });
            let autoscale = AutoscalePolicy {
                period_ms: options.scale_period_ms.unwrap_or(8.0 * gap),
                high_watermark: 3.0,
                low_watermark: 0.5,
                hysteresis_ticks: 3,
                min_active: 2,
                energy_headroom: options.scale_headroom.unwrap_or(0.25),
            };
            let chaos = ChaosParams {
                mean_service,
                slo_ms,
                hedge_ms,
                shed_watermark: 2 * shard_count,
                autoscale,
                preempt_gap: options.preempt_gap.unwrap_or(1),
            };
            chaos_combos(&chaos, plans)
        }
    };
    Ok(ServeSetup {
        cluster,
        trace,
        combos,
    })
}

/// Simulated compile cost per layer on a plan-cache miss (`run_matrix`).
const COMPILE_MS_PER_LAYER: f64 = 0.05;

fn steady_combos(mean_service: f64, bounded_bytes: u64) -> Vec<Combo> {
    let mut combos = Vec::new();
    for (block, budget) in [
        (Block::SteadyUnbounded, CacheBudget::Unbounded),
        (Block::SteadyBounded, CacheBudget::Uniform(bounded_bytes)),
    ] {
        let config = EngineConfig::default()
            .with_cache_budget(budget)
            .with_compile_cost(COMPILE_MS_PER_LAYER);
        for policy in online_policy_matrix(mean_service, mean_service) {
            for placement in online_placement_matrix() {
                combos.push(Combo {
                    block,
                    policy: Arc::clone(&policy),
                    placement,
                    config: config.clone(),
                });
            }
        }
    }
    combos
}

/// Derived parameters of the fault and control blocks.
struct ChaosParams {
    mean_service: f64,
    slo_ms: f64,
    hedge_ms: f64,
    shed_watermark: usize,
    autoscale: AutoscalePolicy,
    preempt_gap: u8,
}

fn chaos_combos(p: &ChaosParams, [crash, degrade]: [FaultPlan; 2]) -> Vec<Combo> {
    let edf: Arc<dyn BatchPolicy> = Arc::new(EarliestDeadlineFirst::new(p.mean_service, 16));
    let combo = |block, config| Combo {
        block,
        policy: Arc::clone(&edf),
        placement: || Box::new(HealthWeighted),
        config,
    };
    let retry = RetryPolicy {
        max_attempts: 4,
        backoff_base_ms: p.mean_service,
        timeout_ms: 8.0 * p.slo_ms,
    };
    let mut combos = Vec::new();
    for plan in [FaultPlan::none(), crash, degrade] {
        for hedge in [
            None,
            Some(HedgePolicy {
                delay_ms: p.hedge_ms,
            }),
        ] {
            let mut config = EngineConfig::default()
                .with_compile_cost(COMPILE_MS_PER_LAYER)
                .with_faults(plan.clone())
                .with_retry(retry)
                .with_shed(ShedPolicy {
                    backlog_watermark: p.shed_watermark,
                });
            if let Some(hedge) = hedge {
                config = config.with_hedge(hedge);
            }
            combos.push(combo(Block::ChaosFault, config));
        }
    }
    for auto in [false, true] {
        for (preempt, mix) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut config = EngineConfig::default().with_compile_cost(COMPILE_MS_PER_LAYER);
            if auto {
                config = config.with_scale(p.autoscale);
            }
            if preempt {
                config = config.with_preempt(PreemptPolicy::new(p.preempt_gap));
            }
            if mix {
                config = config.with_reconfig(ReconfigPolicy::default());
            }
            combos.push(combo(Block::ChaosControl, config));
        }
    }
    combos
}

/// One combo's simulated outcome, as compared across passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ComboResult {
    /// Digest of the combo's `ServeOutcome` (its `Debug` rendering).
    digest: u64,
    ok: bool,
}

/// Runs combo `i` of `setup` once; `None` when the engine returned an
/// error. Counts the engine's simulated totals when traced.
fn run_combo(
    setup: &ServeSetup,
    i: usize,
    tracer: &Tracer,
) -> Option<sma_runtime::serve::ServeOutcome> {
    let combo = &setup.combos[i];
    let sim = ServeSim::with_cluster(
        Arc::clone(&setup.cluster),
        Arc::clone(&combo.policy),
        &setup.trace,
        combo.config.clone(),
    );
    let mut placement = (combo.placement)();
    let run = tracer
        .span(combo.block.run_span(), || sim.try_run(placement.as_mut()))
        .ok()?;
    let outcome = tracer.span("serve.outcome", || sim.outcome(&run));
    if tracer.enabled() {
        let batches: usize = run.reports.iter().map(|r| r.batches.len()).sum();
        let compiled: usize = run.reports.iter().map(|r| r.plans_compiled.len()).sum();
        let requests = setup.trace.len() as u64;
        tracer.count(combo.block.requests_count(), requests);
        tracer.count(combo.block.batches_count(), batches as u64);
        tracer.count("serve.outcome_requests", requests);
        for (name, value) in [
            ("engine.batches", batches as u64),
            ("engine.plan_cache_lookups", outcome.cache.lookups),
            ("engine.plan_cache_misses", outcome.cache.misses),
            ("engine.evictions", outcome.cache.evictions),
            ("engine.plans_compiled", compiled as u64),
            ("engine.retries", outcome.retries),
            ("engine.hedges", outcome.hedges),
            ("engine.failovers", outcome.failovers),
            ("engine.shed", outcome.shed as u64),
            ("engine.preemptions", outcome.preemptions),
            ("engine.scale_evaluations", outcome.scale_evaluations),
            ("engine.reconfig_evaluations", outcome.reconfig_evaluations),
        ] {
            tracer.count(name, value);
        }
    }
    Some(outcome)
}

/// A serve workload.
#[derive(Debug)]
pub struct Serve {
    workload: Workload,
    requests: usize,
    seed: u64,
    threads: usize,
    expected_matrix: String,
}

impl Serve {
    /// The workload over a trace drawn from `seed`.
    ///
    /// # Errors
    ///
    /// The committed `BENCH_serve.json` is missing.
    pub fn new(workload: Workload, seed: u64, threads: usize) -> Result<Self, String> {
        Ok(Serve {
            workload,
            requests: TRACE_REQUESTS,
            seed,
            threads,
            expected_matrix: crate::read_committed("BENCH_serve.json")?,
        })
    }

    fn options(&self) -> ScenarioOptions {
        match self.workload {
            Workload::ServeSteady => ScenarioOptions::default(),
            _ => CHAOS_OPTIONS,
        }
    }
}

impl Bench for Serve {
    type Setup = ServeSetup;

    fn workload(&self) -> Workload {
        self.workload
    }

    fn setups_per_sample(&self) -> usize {
        60
    }

    fn preflight(&self, tally: &mut Tally) {
        let matches = default_scenario(COMMITTED_REQUESTS, COMMITTED_SEED)
            .and_then(|scenario| run_matrix(&scenario, self.threads))
            .is_ok_and(|report| report.to_json() == self.expected_matrix);
        tally.add_check(matches);
    }

    fn setup(&self, tracer: &Tracer) -> Result<ServeSetup, String> {
        build(
            self.workload,
            self.requests,
            self.seed,
            self.options(),
            tracer,
        )
    }

    fn pass(&self, setup: &ServeSetup, tracer: &Tracer) -> PassOutput {
        let n = setup.combos.len();
        let results: Mutex<Vec<ComboResult>> = Mutex::new(vec![ComboResult::default(); n]);
        let requests = setup.trace.len();
        tracer.span("sweep.run_work_stealing", || {
            let parent = tracer.current();
            sweep::run_work_stealing(n, self.threads, |i| {
                let result = tracer.adopt(parent, || {
                    tracer.span("serve.combo", || match run_combo(setup, i, tracer) {
                        Some(o) => ComboResult {
                            digest: fnv1a64(format!("{o:?}").as_bytes()),
                            ok: o.requests + o.rejected + o.shed + o.failed == requests,
                        },
                        None => ComboResult::default(),
                    })
                });
                results.lock().expect("serve results poisoned")[i] = result;
            });
        });
        let results = results.into_inner().expect("serve results poisoned");
        PassOutput {
            items: (requests * n) as u64,
            attempted: n as u64,
            failed: results.iter().filter(|r| !r.ok).count() as u64,
            digest: results.iter().fold(fnv1a64_seed(), |acc, r| {
                fnv1a64_chain(acc, &r.digest.to_le_bytes())
            }),
        }
    }

    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Metrics) {
        let w = self.workload;
        let s = run.spans;
        let counted = |runs, name| run.tracer.count_of(w, runs, name) as f64;
        let setup_ms = |name| s.total(w, Runs::One(0), name) as f64 / 1e6;
        out.push(
            format!("serve.cluster_ms.{w}"),
            setup_ms("serve.cluster"),
            "ms",
        );
        out.push(
            format!("serve.trace_ns_per_request.{w}"),
            s.total(w, Runs::One(0), "serve.trace") as f64
                / counted(Runs::One(0), "serve.trace_requests"),
            "ns",
        );
        if self.workload == Workload::ServeSteady {
            crate::push_backend_metrics(out, w, run.first_pass_gemm);
        } else {
            out.push("serve.fault_plan_ms", setup_ms("serve.fault_plans"), "ms");
        }
        for block in Block::ALL
            .into_iter()
            .filter(|b| b.workload() == self.workload)
        {
            let ns = s.total(w, Runs::Passes, block.run_span()) as f64;
            out.push(
                format!("engine.ns_per_request.{}", block.label()),
                ns / counted(Runs::Passes, block.requests_count()),
                "ns",
            );
            out.push(
                format!("engine.ns_per_batch.{}", block.label()),
                ns / counted(Runs::Passes, block.batches_count()),
                "ns",
            );
        }
        // With two workers the slowest combo sets a pass's wall time.
        let spreads: Vec<f64> = (1..)
            .map(|r| s.durations(w, Runs::One(r), "serve.combo"))
            .take_while(|d| !d.is_empty())
            .map(|d| {
                let ms: Vec<f64> = d.into_iter().map(|ns| ns as f64).collect();
                host::quantile(&ms, 1.0) / host::median(&ms)
            })
            .collect();
        out.push(
            format!("engine.combo_ms_max_over_p50.{w}"),
            host::median(&spreads),
            "ratio",
        );
        out.push(
            format!("metrics.outcome_ns_per_request.{w}"),
            s.total(w, Runs::Passes, "serve.outcome") as f64
                / counted(Runs::Passes, "serve.outcome_requests"),
            "ns",
        );
        // Exact simulated counts of one pass: a change that only speeds
        // up the simulator leaves every one of them identical.
        let exact: &[&str] = if self.workload == Workload::ServeSteady {
            &[
                "engine.batches",
                "engine.plan_cache_lookups",
                "engine.plan_cache_misses",
                "engine.evictions",
                "engine.plans_compiled",
            ]
        } else {
            &[
                "engine.retries",
                "engine.hedges",
                "engine.failovers",
                "engine.shed",
                "engine.preemptions",
                "engine.scale_evaluations",
                "engine.reconfig_evaluations",
            ]
        };
        for &name in exact {
            out.push(name, counted(Runs::One(1), name), "count");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_outputs_equal_untraced_outputs() {
        for workload in [Workload::ServeSteady, Workload::ServeChaos] {
            let serve = Serve {
                requests: 600,
                ..Serve::new(workload, 5, 2).expect("run from the repository root or the package")
            };
            crate::bench::assert_traced_matches_untraced(&serve);
        }
    }

    /// The combos this benchmark times reproduce `run_matrix`'s rows
    /// for the same scenario: the set-up mirrors `serve_sim` exactly,
    /// at its defaults and at the CI chaos settings.
    #[test]
    fn combos_reproduce_run_matrix_rows() {
        let requests = 400;
        let seed = 17;
        for (workload, options, rows) in [
            (Workload::ServeSteady, ScenarioOptions::default(), 9..25),
            (Workload::ServeChaos, CHAOS_OPTIONS, 25..39),
        ] {
            let scenario = sma_bench::serve::scenario(requests, seed, options)
                .expect("default scenario compiles");
            let report = run_matrix(&scenario, 2).expect("matrix runs");
            let setup = build(workload, requests, seed, options, &Tracer::off())
                .expect("benchmark scenario compiles");
            assert_eq!(setup.combos.len(), rows.len());
            for (i, row) in rows.enumerate() {
                let outcome = run_combo(&setup, i, &Tracer::off()).expect("combo runs");
                assert_eq!(
                    format!("{outcome:?}"),
                    format!("{:?}", report.combos[row].outcome),
                    "{} combo {i} differs from run_matrix row {row}",
                    workload.name()
                );
            }
        }
    }
}
