//! `paper`: one full paper-evaluation pass, as `all_experiments` runs it.
//!
//! A pass is `all_experiments`' two sweeps: the serial reference (the
//! six figure/table regenerators, then the 7-platform x 7-network x
//! batch {1, 16} grid stepwise, `Executor::try_run` per inference, on
//! the calling thread) and the planned-parallel pass (the regenerators
//! again, then the grid compile-once, `Executor::try_plan` and
//! `NetworkPlan::run` per inference, through
//! `sweep::run_work_stealing`), 200 inferences per cell. Every task's
//! rendered output must hash to the digest committed for it in
//! `BENCH_sweep.json`. It is the only workload on the executor's step
//! path and the figure models, and it uses the plan layer replay-heavy
//! where `dse` is compile-heavy. Its grid is fixed: the seed is unused.
//!
//! The backends are the process-global `Platform::backend()` instances,
//! so only a process's first pass meets cold GEMM caches.

use crate::args::Workload;
use crate::bench::{Bench, Metrics, PassOutput, TracedRun};
use crate::host;
use crate::trace::{Runs, Tracer};
use crate::traced_backend::TracedBackend;
use sma_bench::stream::{fnv1a64, fnv1a64_chain, fnv1a64_seed};
use sma_bench::sweep;
use sma_models::Network;
use sma_runtime::{Executor, NetworkProfile, Platform, RuntimeError};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Inferences per grid cell (the `all_experiments` default).
const REPS: usize = 200;
/// Batch points of the grid.
const BATCHES: [usize; 2] = [1, 16];

/// The figure/table tasks: committed task name and span name.
const FIGURES: [(&str, &str); 6] = [
    ("fig1_efficiency", "experiments.fig1"),
    ("fig3_hybrid", "experiments.fig3"),
    ("fig7_isoflop", "experiments.fig7"),
    ("fig8_isoarea", "experiments.fig8"),
    ("fig9_autonomous", "experiments.fig9"),
    ("tables", "experiments.tables"),
];

/// Renders figure task `index` (the `Sweep::figures` reports; each
/// also writes its CSV under `results/`).
fn figure(index: usize) -> String {
    match index {
        0 => sweep::fig1_report(),
        1 => sweep::fig3_report(),
        2 => sweep::fig7_report(),
        3 => sweep::fig8_report(),
        4 => sweep::fig9_report(),
        _ => format!("{}\n{}", sweep::table1_report(), sweep::table2_report()),
    }
}

/// A grid cell's report line, as the sweep module renders it.
fn grid_line(exec: &Executor, p: &NetworkProfile) -> String {
    format!(
        "{:<9} b{:<2} {:<11} total {:>9.2} ms (gemm {:>9.2} + irregular {:>7.2} + transfer {:>6.2})",
        exec.backend().name(),
        exec.batch(),
        p.network,
        p.total_ms,
        p.gemm_ms,
        p.irregular_ms - p.transfer_ms,
        p.transfer_ms,
    )
}

/// A rejected cell's report line, as the sweep module renders it.
fn grid_rejection(exec: &Executor, net: &Network, e: &RuntimeError) -> String {
    format!(
        "{:<9} b{:<2} {:<11} rejected: {e}",
        exec.backend().name(),
        exec.batch(),
        net.name(),
    )
}

/// The `paper` workload.
#[derive(Debug)]
pub struct Paper {
    /// Committed digest per task name.
    expected: BTreeMap<String, u64>,
    threads: usize,
}

/// Reads `{"name": .., "digest": ..}` entries from `BENCH_sweep.json`.
fn committed_digests(json: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let field = |key: &str| {
            let start = line.find(key)? + key.len();
            let len = line[start..].find('"')?;
            Some(&line[start..start + len])
        };
        if let (Some(name), Some(digest)) = (field("\"name\": \""), field("\"digest\": \"")) {
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("BENCH_sweep.json: bad digest for {name}: {e}"))?;
            out.entry(name.to_string()).or_insert(digest);
        }
    }
    if out.is_empty() {
        return Err("BENCH_sweep.json holds no task digests".to_string());
    }
    Ok(out)
}

impl Paper {
    /// Reads the committed task digests the passes are checked against.
    ///
    /// # Errors
    ///
    /// The committed file is missing or malformed.
    pub fn new(threads: usize) -> Result<Self, String> {
        Ok(Paper {
            expected: committed_digests(&crate::read_committed("BENCH_sweep.json")?)?,
            threads,
        })
    }

    fn check(&self, name: &str, output: &str) -> (u64, bool) {
        let digest = fnv1a64(output.as_bytes());
        (digest, self.expected.get(name) == Some(&digest))
    }

    /// Runs one task: its output digest and whether it passed.
    fn run_task(&self, setup: &PaperSetup, task: Task, tracer: &Tracer) -> (u64, bool) {
        let (e, n, line) = match task {
            Task::Figure(k) => {
                let (name, span) = FIGURES[k];
                return self.check(name, &tracer.span(span, || figure(k)));
            }
            Task::Stepwise(e, n) => (e, n, stepwise(&setup.execs[e], &setup.nets[n], tracer)),
            Task::Planned(e, n) => (e, n, planned(&setup.execs[e], &setup.nets[n], tracer)),
        };
        match line {
            Ok(line) => self.check(&setup.cell_name(e, n), &line),
            Err(line) => (fnv1a64(line.as_bytes()), false),
        }
    }
}

/// The grid's executors and networks.
#[derive(Debug)]
pub struct PaperSetup {
    execs: Vec<Executor>,
    nets: Vec<Network>,
}

#[derive(Debug, Clone, Copy)]
enum Task {
    Figure(usize),
    Stepwise(usize, usize),
    Planned(usize, usize),
}

impl PaperSetup {
    /// The serial reference pass's tasks and the planned-parallel
    /// pass's, each in `all_experiments` order (figures, then the grid
    /// platform-major).
    fn tasks(&self) -> (Vec<Task>, Vec<Task>) {
        let cells: Vec<(usize, usize)> = (0..self.execs.len())
            .flat_map(|e| (0..self.nets.len()).map(move |n| (e, n)))
            .collect();
        let sweep = |cell: fn((usize, usize)) -> Task| {
            (0..FIGURES.len())
                .map(Task::Figure)
                .chain(cells.iter().copied().map(cell))
                .collect()
        };
        (
            sweep(|(e, n)| Task::Stepwise(e, n)),
            sweep(|(e, n)| Task::Planned(e, n)),
        )
    }

    fn cell_name(&self, e: usize, n: usize) -> String {
        let exec = &self.execs[e];
        format!(
            "grid/{}/b{}/{}",
            exec.backend().name(),
            exec.batch(),
            self.nets[n].name()
        )
    }
}

/// Runs `try_run` `REPS` times; the report line of the last run.
fn stepwise(exec: &Executor, net: &Network, tracer: &Tracer) -> Result<String, String> {
    let mut last = None;
    for _ in 0..REPS {
        let profile = tracer.span("executor.try_run", || exec.try_run(net));
        last = Some(profile.map_err(|e| grid_rejection(exec, net, &e))?);
    }
    tracer.count("executor.layers", (REPS * net.layers().len()) as u64);
    Ok(grid_line(exec, &last.expect("REPS > 0")))
}

/// Compiles once, replays `REPS` times (as the sweep module does); the
/// report line of the last replay.
fn planned(exec: &Executor, net: &Network, tracer: &Tracer) -> Result<String, String> {
    let plan = tracer
        .span("executor.try_plan", || exec.try_plan(net))
        .map_err(|e| grid_rejection(exec, net, &e))?;
    tracer.count("plan.compiled", 1);
    // One span around all replays: a replay of a short network takes
    // about as long as recording a span would.
    let last = tracer.span("plan.run", || {
        for _ in 1..REPS {
            std::hint::black_box(plan.run());
        }
        plan.run()
    });
    tracer.count("plan.replayed_steps", (REPS * plan.steps().len()) as u64);
    Ok(grid_line(exec, &last))
}

impl Bench for Paper {
    type Setup = PaperSetup;

    fn workload(&self) -> Workload {
        Workload::Paper
    }

    fn setups_per_sample(&self) -> usize {
        1000
    }

    fn setup(&self, tracer: &Tracer) -> Result<PaperSetup, String> {
        let mut execs = Vec::with_capacity(Platform::ALL.len() * BATCHES.len());
        for p in Platform::ALL {
            for batch in BATCHES {
                let mut builder = Executor::builder(p).batch(batch);
                if tracer.enabled() {
                    builder = builder.backend(TracedBackend::wrap(p.backend(), tracer.gemm()));
                }
                execs.push(builder.build());
            }
        }
        Ok(PaperSetup {
            execs,
            nets: sweep::zoo_networks(),
        })
    }

    fn pass(&self, setup: &PaperSetup, tracer: &Tracer) -> PassOutput {
        let (serial, parallel) = setup.tasks();
        let mut results: Vec<(u64, bool)> = tracer.span("paper.serial", || {
            serial
                .iter()
                .map(|&task| self.run_task(setup, task, tracer))
                .collect()
        });
        let slots: Mutex<Vec<(u64, bool)>> = Mutex::new(vec![(0, false); parallel.len()]);
        tracer.span("sweep.run_work_stealing", || {
            let parent = tracer.current();
            sweep::run_work_stealing(parallel.len(), self.threads, |i| {
                let result = tracer.adopt(parent, || {
                    tracer.span("paper.task", || self.run_task(setup, parallel[i], tracer))
                });
                slots.lock().expect("paper results poisoned")[i] = result;
            });
        });
        results.extend(slots.into_inner().expect("paper results poisoned"));
        let digest = results.iter().fold(fnv1a64_seed(), |acc, (d, _)| {
            fnv1a64_chain(acc, &d.to_le_bytes())
        });
        PassOutput {
            items: results.len() as u64,
            attempted: results.len() as u64,
            failed: results.iter().filter(|(_, ok)| !ok).count() as u64,
            digest,
        }
    }

    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Metrics) {
        let w = Workload::Paper;
        let s = run.spans;
        let counted = |name| run.tracer.count_of(w, Runs::Passes, name) as f64;
        crate::push_backend_metrics(out, w, run.first_pass_gemm);
        let plans = s.durations(w, Runs::Passes, "executor.try_plan");
        out.push(
            "plan.compile_us_per_plan",
            s.total(w, Runs::Passes, "executor.try_plan") as f64 / plans.len() as f64 / 1e3,
            "us",
        );
        out.push(
            "plan.run_ns_per_step",
            s.total(w, Runs::Passes, "plan.run") as f64 / counted("plan.replayed_steps"),
            "ns",
        );
        out.push(
            "executor.try_run_ns_per_layer",
            s.total(w, Runs::Passes, "executor.try_run") as f64 / counted("executor.layers"),
            "ns",
        );
        for (_, span) in FIGURES {
            let ms: Vec<f64> = s
                .durations(w, Runs::Passes, span)
                .into_iter()
                .map(|ns| ns as f64 / 1e6)
                .collect();
            out.push(format!("{span}_ms"), host::median(&ms), "ms");
        }
        // The parallel sweep's utilisation; the serial pass has one worker.
        crate::push_busy_frac(out, run, w, "paper.task");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_outputs_equal_untraced_outputs() {
        let paper = Paper::new(2).expect("run from the repository root or the package");
        crate::bench::assert_traced_matches_untraced(&paper);
    }

    #[test]
    fn reads_committed_digests() {
        let json = "{\n  \"serial\": {\n    \"tasks\": [\n      {\"name\": \"fig1_efficiency\", \"digest\": \"38f9baac6bb510fc\"},\n      {\"name\": \"grid/SIMD/b1/Mask R-CNN\", \"digest\": \"00000000000000ff\"}\n    ]\n  },\n  \"parallel\": {\n    \"tasks\": [\n      {\"name\": \"fig1_efficiency\", \"digest\": \"0000000000000001\"}\n    ]\n  }\n}\n";
        let digests = committed_digests(json).expect("well-formed");
        assert_eq!(digests.len(), 2);
        assert_eq!(digests["fig1_efficiency"], 0x38f9_baac_6bb5_10fc);
        assert_eq!(digests["grid/SIMD/b1/Mask R-CNN"], 0xff);
        assert!(committed_digests("{}").is_err());
    }
}
