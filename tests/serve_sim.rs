//! Serving-simulation system tests: byte-identical `BENCH_serve.json`
//! across runs and thread counts, the acceptance pins on the benchmark
//! matrix (legacy rows distinct and eviction/SLO activity in the
//! online rows), exact GEMM-cache invariants under concurrent engine
//! runs sharing one backend, and the cluster's batched-service table:
//! shared runs match fresh clusters, and a repeat run compiles nothing.

use sma::runtime::backend::{ArrayFlexBackend, Backend, FlexSaBackend, SmaBackend};
use sma::runtime::serve::{
    BatchPolicy, CacheBudget, EngineConfig, RoundRobin, ServeCluster, ServeSim, SizeK,
};
use sma::runtime::{Executor, Platform};
use sma_bench::serve::{
    default_scenario, online_placement_matrix, online_policy_matrix, run_matrix, PlacementFactory,
    ServeScenario,
};
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::{serve_networks, serve_trace};

/// Same seed + same matrix ⇒ byte-identical report, whether the combos
/// run on one sweep worker or many — each combo's engine run is
/// single-threaded, so worker count can only move wall-clock.
/// Wall-clock leaking into the simulated clock would break this
/// immediately.
#[test]
fn bench_serve_json_is_byte_identical_across_runs_and_threads() {
    let first = run_matrix(&default_scenario(800, 42).unwrap(), 1).expect("matrix runs");
    let second = run_matrix(&default_scenario(800, 42).unwrap(), 4).expect("matrix runs");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "serve report diverged across runs / thread counts"
    );
    // A different seed must actually change the report (the comparison
    // above is not vacuous).
    let other = run_matrix(&default_scenario(800, 43).unwrap(), 4).expect("matrix runs");
    assert_ne!(first.to_json(), other.to_json());
}

/// The acceptance grid: the legacy block serves the same trace to
/// distinct, explainable latency profiles (deterministic, so exact
/// comparison is safe), and the online block shows the new machinery
/// working — eviction activity under the bounded cache and nonzero
/// deadline-miss accounting under EDF.
#[test]
fn matrix_blocks_pin_the_acceptance_criteria() {
    let report = run_matrix(&default_scenario(1200, 0xDAC2_0020).unwrap(), 2).expect("matrix runs");
    assert_eq!(report.combos.len(), 39);

    // Control block: eight fault-free rows exercising the control
    // plane ({static, auto} x {preempt} x {mix}); everything else
    // carries "none". `crates/bench/src/serve.rs` pins their activity
    // counters; here we pin the block's shape.
    assert_eq!(
        report.combos.iter().filter(|c| c.control != "none").count(),
        8
    );

    // Legacy block: nine pairwise-distinct p50/p99 profiles.
    let legacy: Vec<_> = report
        .combos
        .iter()
        .filter(|c| c.admission == "preplaced")
        .collect();
    assert_eq!(legacy.len(), 9);
    let profiles: BTreeSet<(u64, u64)> = legacy
        .iter()
        .map(|c| (c.outcome.p50_ms.to_bits(), c.outcome.p99_ms.to_bits()))
        .collect();
    assert_eq!(
        profiles.len(),
        9,
        "two legacy combos produced identical p50/p99"
    );

    for combo in &report.combos {
        let o = &combo.outcome;
        assert_eq!(o.requests + o.rejected + o.shed + o.failed, 1200);
        assert!(o.p50_ms > 0.0 && o.p99_ms >= o.p50_ms && o.p999_ms >= o.p99_ms);
        assert!(o.max_ms >= o.p999_ms);
        assert!(o
            .shards
            .iter()
            .all(|s| (0.0..=1.0 + 1e-9).contains(&s.utilization)));
        assert_eq!(o.cache.hits + o.cache.misses, o.cache.lookups);
        assert!((0.0..=1.0).contains(&o.goodput));
        let batched: u64 = o.batch_histogram.iter().map(|&(_, n)| n).sum();
        assert!(batched > 0);
        if combo.policy == "immediate" && combo.admission == "preplaced" {
            assert_eq!(
                o.batch_histogram,
                vec![(1, 1200)],
                "immediate dispatch must never form a batch"
            );
        }
    }

    // Online bounded rows: the budget forces evictions, and goodput
    // reconciles with the miss/reject accounting.
    let bounded: Vec<_> = report
        .combos
        .iter()
        .filter(|c| c.admission == "online" && c.cache_budget != "unbounded")
        .collect();
    assert_eq!(bounded.len(), 8);
    assert!(
        bounded.iter().all(|c| c.outcome.cache.evictions > 0),
        "every bounded-cache row must show eviction activity"
    );

    // EDF rows of the fault-free online block: the SLO is tight enough
    // that misses are nonzero, and EDF still lands most requests. The
    // fault and control blocks reuse EDF, so key on recovery == "none"
    // and control == "none" to keep this pin on the original four rows.
    let edf: Vec<_> = report
        .combos
        .iter()
        .filter(|c| c.policy.starts_with("edf") && c.recovery == "none" && c.control == "none")
        .collect();
    assert_eq!(edf.len(), 4);
    for combo in &edf {
        let o = &combo.outcome;
        assert!(
            o.deadline_misses > 0,
            "EDF under ~0.9 load with a 2.5x-unit SLO must miss some deadlines"
        );
        assert!(o.deadline_misses < o.requests as u64);
        let expected =
            (o.requests as u64 - o.deadline_misses) as f64 / (o.requests + o.rejected) as f64;
        assert_eq!(o.goodput.to_bits(), expected.to_bits());
    }
}

/// GemmCache invariants end-to-end under serving concurrency: four
/// engine runs over four clusters whose sixteen shards all share one
/// backend instance, compiling plans in parallel; afterwards the
/// shared cache's counters must balance exactly — `hits + misses ==
/// lookups` and `misses == resident shapes` — not just in isolation
/// but through full serve runs racing each other.
#[test]
fn shared_gemm_cache_counters_stay_exact_through_concurrent_serve_runs() {
    const SIMS: usize = 4;
    const SHARDS: usize = 4;
    let backend: Arc<SmaBackend> = Arc::new(SmaBackend::iso_area_3sma());
    let networks = serve_networks();
    let gemm_layers: Vec<u64> = networks
        .iter()
        .map(|n| n.gemm_shapes().len() as u64)
        .collect();
    let trace = serve_trace(7, 600, 0.5);

    let sims: Vec<ServeSim> = (0..SIMS)
        .map(|i| {
            let shards: Vec<Executor> = (0..SHARDS)
                .map(|_| {
                    Executor::builder(Platform::Sma3)
                        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
                        .build()
                })
                .collect();
            ServeSim::try_new(
                shards,
                serve_networks(),
                Arc::new(SizeK::new(3 + i)), // distinct batch keys per sim
                &trace,
                EngineConfig::default(),
            )
            .unwrap()
        })
        .collect();

    // Race the four engine runs: every worker hammers the one shared
    // cache through its lazy batched-plan compiles.
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = sims
            .iter()
            .map(|sim| scope.spawn(move || sim.try_run(&mut RoundRobin::default()).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every gemm() lookup is accounted for: each cluster compiled one
    // batch-1 plan per shard x network, each run compiled its recorded
    // (network, batch) plans, and a plan compile performs one lookup
    // per GEMM layer. Replays perform none.
    let mut lookups: u64 = (SIMS * SHARDS) as u64 * gemm_layers.iter().sum::<u64>();
    for run in &runs {
        for report in &run.reports {
            for &(network, _batch) in &report.plans_compiled {
                lookups += gemm_layers[network];
            }
        }
    }

    let stats = backend.gemm_cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "a lookup escaped the counters"
    );
    assert_eq!(
        stats.misses,
        backend.gemm_cache_len() as u64,
        "misses must equal resident shapes, even under contention"
    );
    assert!(stats.hits > 0, "concurrent runs must share estimates");

    // And every serve run itself stayed coherent.
    for run in &runs {
        let served: usize = run.reports.iter().map(|r| r.requests.len()).sum();
        assert_eq!(served, 600);
    }
}

/// One fault-free online combo of `run_matrix`.
type Combo = (Arc<dyn BatchPolicy>, PlacementFactory, EngineConfig);

/// `run_matrix`'s 16 fault-free online combos: 4 policies x 2
/// placements x {unbounded, bounded} plan cache.
fn steady_combos(scenario: &ServeScenario) -> Vec<Combo> {
    let mean = scenario.mean_unit_service_ms;
    let mut combos = Vec::new();
    for budget in [
        CacheBudget::Unbounded,
        CacheBudget::Uniform(scenario.bounded_cache_bytes),
    ] {
        let config = EngineConfig::default()
            .with_cache_budget(budget)
            .with_compile_cost(scenario.compile_ms_per_layer);
        for policy in online_policy_matrix(mean, mean) {
            for placement in online_placement_matrix() {
                combos.push((Arc::clone(&policy), placement, config.clone()));
            }
        }
    }
    combos
}

/// A combo's outcome rendering and every shard's `plans_compiled`.
type ComboRun = (String, Vec<Vec<(usize, usize)>>);

fn run_combo(cluster: &Arc<ServeCluster>, scenario: &ServeScenario, combo: &Combo) -> ComboRun {
    let (policy, placement, config) = combo;
    let sim = ServeSim::with_cluster(
        Arc::clone(cluster),
        Arc::clone(policy),
        &scenario.trace,
        config.clone(),
    );
    let run = sim.try_run(placement().as_mut()).expect("combo runs");
    let compiled = run
        .reports
        .iter()
        .map(|r| r.plans_compiled.clone())
        .collect();
    (format!("{:?}", sim.outcome(&run)), compiled)
}

/// The cluster compiles each batched plan once and every run over it
/// shares the result, yet a run over a warm cluster reports exactly
/// what it would over a cluster of its own: the same outcome, and the
/// same `plans_compiled` (first use in *this* run) on every shard —
/// whether the combos run in turn or race from two threads.
#[test]
fn combos_over_one_warm_cluster_match_fresh_clusters() {
    let (requests, seed) = (500, 0x5EED_0015);
    let scenario = default_scenario(requests, seed).unwrap();
    let combos = steady_combos(&scenario);
    assert_eq!(combos.len(), 16);
    let fresh: Vec<ComboRun> = combos
        .iter()
        .map(|combo| {
            let own = default_scenario(requests, seed).unwrap();
            run_combo(&own.cluster, &own, combo)
        })
        .collect();
    assert!(
        fresh
            .iter()
            .any(|(_, compiled)| compiled.iter().any(|k| !k.is_empty())),
        "some combo must batch above 1, or the comparison is vacuous"
    );

    let shared = &scenario.cluster;
    // The first pass warms the table as it goes; the second finds
    // every key already there.
    for pass in 0..2 {
        for (i, combo) in combos.iter().enumerate() {
            assert_eq!(
                run_combo(shared, &scenario, combo),
                fresh[i],
                "pass {pass}: combo {i} over the shared cluster"
            );
        }
    }
    let threaded: Vec<(usize, ComboRun)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|worker| {
                let (combos, scenario) = (&combos, &scenario);
                scope.spawn(move || {
                    (worker..combos.len())
                        .step_by(2)
                        .map(|i| (i, run_combo(shared, scenario, &combos[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(threaded.len(), combos.len());
    for (i, run) in threaded {
        assert_eq!(run, fresh[i], "combo {i} from two threads");
    }
}

/// Regression guard for the batched-service table: the first run over
/// a fresh cluster that batches above 1 performs GEMM lookups for its
/// batched plans; a second identical run over the same cluster
/// performs none, on the reconfigurable shards as on the rest.
#[test]
fn a_repeat_run_over_one_cluster_performs_no_gemm_lookup() {
    let backends: Vec<(Platform, Arc<dyn Backend>)> = vec![
        (Platform::Sma3, Arc::new(SmaBackend::iso_area_3sma())),
        (Platform::ArrayFlex, Arc::new(ArrayFlexBackend::new())),
        (Platform::FlexSa, Arc::new(FlexSaBackend::new())),
    ];
    let lookups = || -> u64 {
        backends
            .iter()
            .map(|(_, backend)| {
                let stats = backend.gemm_cache_stats();
                stats.hits + stats.misses
            })
            .sum()
    };
    let shards = backends
        .iter()
        .map(|(platform, backend)| {
            Executor::builder(*platform)
                .backend(Arc::clone(backend))
                .build()
        })
        .collect();
    let cluster = Arc::new(ServeCluster::try_new(shards, serve_networks()).unwrap());
    let trace = serve_trace(3, 400, 0.5);
    let sim = ServeSim::with_cluster(
        cluster,
        Arc::new(SizeK::new(4)),
        &trace,
        EngineConfig::default(),
    );

    let cold = lookups();
    let first = sim.try_run(&mut RoundRobin::default()).unwrap();
    let warm = lookups();
    assert!(
        first.reports.iter().all(|r| !r.plans_compiled.is_empty()),
        "every shard batches above 1"
    );
    assert!(warm > cold, "the first run compiles its batched plans");

    let second = sim.try_run(&mut RoundRobin::default()).unwrap();
    assert_eq!(lookups(), warm, "the repeat run compiled a plan");
    for (a, b) in first.reports.iter().zip(&second.reports) {
        assert_eq!(a.plans_compiled, b.plans_compiled);
    }
    assert_eq!(
        format!("{:?}", sim.outcome(&first)),
        format!("{:?}", sim.outcome(&second))
    );
}
