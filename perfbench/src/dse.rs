//! `dse`: the full 5,040-point design-space grid.
//!
//! Set-up is `DseGrid::compile` on fresh pinned backends, so every
//! compile is cold. A pass evaluates every point through
//! `sweep::run_work_stealing` (`DseCompiled::row`, `DseRow::to_json`,
//! `StreamWriter::push`) and builds the summary report, which must
//! equal the committed `BENCH_dse.json` byte for byte. The workload
//! loads the plan-compile, arena-replay and writer layers and never
//! touches the serve engine. Its grid is fixed: the seed is unused.
//!
//! `DseGrid::compile` builds its backends itself, so the traced set-up
//! also compiles a mirror of the grid from the same public calls
//! (`Executor::plan_family`, `GemmShapeBatch::from_shapes`,
//! `PlanFamily::try_plan_into`) on counting backends; the mirror must
//! reproduce the real compile's arena size.

use crate::args::Workload;
use crate::bench::{Bench, Metrics, PassOutput, TracedRun};
use crate::host;
use crate::trace::{Runs, Tracer};
use crate::traced_backend::TracedBackend;
use sma_bench::dse::{DseCompiled, DseGrid, DseReport, DseRow};
use sma_bench::stream::{fnv1a64, StreamWriter};
use sma_bench::sweep;
use sma_models::{zoo, Network};
use sma_runtime::backend::{ArrayFlexBackend, Backend, FlexSaBackend, FlexSaMode, PipelineConfig};
use sma_runtime::{Executor, PlanArena, Platform};
use sma_tensor::GemmShapeBatch;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// The batch axis of `DseGrid::full` (private to that type), mirrored
/// for the traced compile.
const BATCHES: [usize; 10] = [1, 2, 4, 8, 12, 16, 24, 32, 48, 64];

/// The `dse` workload.
#[derive(Debug)]
pub struct Dse {
    expected_report: String,
    threads: usize,
}

impl Dse {
    /// Reads the committed summary the passes are checked against.
    ///
    /// # Errors
    ///
    /// The committed file is missing.
    pub fn new(threads: usize) -> Result<Self, String> {
        Ok(Dse {
            expected_report: crate::read_committed("BENCH_dse.json")?,
            threads,
        })
    }
}

/// The compiled grid.
#[derive(Debug)]
pub struct DseSetup {
    compiled: DseCompiled,
}

/// A sink that keeps only a byte count.
#[derive(Debug, Default)]
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Row `index` of `count` as its slice of the rows JSON array, as the
/// `dse` binary writes it.
fn render_row(row: &DseRow, index: usize, count: usize) -> String {
    let mut out = String::with_capacity(300);
    if index == 0 {
        out.push_str("[\n");
    }
    out.push_str("  ");
    out.push_str(&row.to_json());
    out.push_str(if index + 1 == count { "\n]\n" } else { ",\n" });
    out
}

/// Compiles the grid's plan families from the public calls
/// `DseGrid::compile` makes, on counting backends; returns the arena.
fn traced_mirror_compile(tracer: &Tracer) -> PlanArena {
    let wrap = |b: Arc<dyn Backend>| TracedBackend::wrap(b, tracer.gemm());
    let executors: Vec<Executor> = PipelineConfig::ALL
        .iter()
        .map(|&span| {
            Executor::builder(Platform::ArrayFlex)
                .backend(wrap(Arc::new(ArrayFlexBackend::pinned(span))))
                .build()
        })
        .chain(FlexSaMode::ALL.iter().map(|&mode| {
            Executor::builder(Platform::FlexSa)
                .backend(wrap(Arc::new(FlexSaBackend::pinned(mode))))
                .build()
        }))
        .collect();
    let networks: Vec<Network> = zoo::evaluation_networks();
    let mut arena = PlanArena::new();
    for exec in &executors {
        for net in &networks {
            let family = tracer.span("plan.plan_family", || exec.plan_family(net));
            tracer.count("plan.families", 1);
            for batch in BATCHES {
                let shapes = family.gemm_shapes(batch);
                tracer.span("tensor.shape_batch", || {
                    std::hint::black_box(GemmShapeBatch::from_shapes(&shapes))
                });
                tracer.count("tensor.shapes", shapes.len() as u64);
                // A rejected plan leaves the arena untouched, as in the
                // real compile; the grid's outcome rows carry the error.
                let _ = tracer.span("plan.try_plan_into", || {
                    family.try_plan_into(batch, &mut arena)
                });
                tracer.count("plan.instantiated_steps", family.template().len() as u64);
            }
        }
    }
    arena
}

impl Bench for Dse {
    type Setup = DseSetup;

    fn workload(&self) -> Workload {
        Workload::Dse
    }

    fn setups_per_sample(&self) -> usize {
        3
    }

    fn setup(&self, tracer: &Tracer) -> Result<DseSetup, String> {
        let compiled = tracer.span("dse.compile", || DseGrid::full().compile());
        if tracer.enabled() {
            let arena = traced_mirror_compile(tracer);
            if arena.len() != compiled.arena_steps() {
                return Err(format!(
                    "traced mirror compile holds {} arena steps, DseGrid::compile {}",
                    arena.len(),
                    compiled.arena_steps()
                ));
            }
            tracer.count("plan.arena_steps", arena.len() as u64);
            tracer.count("plan.arena_bytes", arena.mem_bytes());
        }
        Ok(DseSetup { compiled })
    }

    fn pass(&self, setup: &DseSetup, tracer: &Tracer) -> PassOutput {
        let compiled = &setup.compiled;
        let count = compiled.grid().len();
        let writer = StreamWriter::new(CountingSink::default());
        let rows: Mutex<Vec<Option<DseRow>>> = Mutex::new(vec![None; count]);
        let push_errors = Mutex::new(0_u64);
        tracer.span("sweep.run_work_stealing", || {
            let parent = tracer.current();
            sweep::run_work_stealing(count, self.threads, |i| {
                tracer.adopt(parent, || {
                    tracer.span("dse.point", || {
                        let row = tracer.span("dse.row", || compiled.row(i));
                        let rendered = tracer.span("dse.to_json", || render_row(&row, i, count));
                        if tracer
                            .span("stream.push", || writer.push(i, rendered))
                            .is_err()
                        {
                            *push_errors.lock().expect("dse error count poisoned") += 1;
                        }
                        rows.lock().expect("dse rows poisoned")[i] = Some(row);
                    });
                });
            })
        });
        let finished = writer.finish();
        let rows: Vec<DseRow> = rows
            .into_inner()
            .expect("dse rows poisoned")
            .into_iter()
            .map(|r| r.expect("every point is evaluated before the workers join"))
            .collect();
        let report = tracer.span("dse.report", || {
            DseReport::from_rows(&rows).to_json(compiled.grid())
        });
        let mut failed = push_errors.into_inner().expect("dse error count poisoned");
        match finished {
            Ok((stats, sink)) => {
                tracer.count("stream.peak_pending_rows", stats.peak_pending as u64);
                tracer.count("stream.bytes", sink.0);
                if stats.rows != count {
                    failed = count as u64;
                }
            }
            Err(_) => failed = count as u64,
        }
        if report != self.expected_report {
            failed = count as u64;
        }
        PassOutput {
            items: count as u64,
            attempted: count as u64,
            failed,
            digest: fnv1a64(report.as_bytes()),
        }
    }

    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Metrics) {
        let w = Workload::Dse;
        let s = run.spans;
        let count_setup = |name| run.tracer.count_of(w, Runs::One(0), name) as f64;
        let per = |num: u64, den: f64| num as f64 / den;
        out.push(
            "tensor.shape_batch_ns_per_shape",
            per(
                s.total(w, Runs::One(0), "tensor.shape_batch"),
                count_setup("tensor.shapes"),
            ),
            "ns",
        );
        crate::push_backend_metrics(out, w, run.setup_gemm);
        out.push(
            "plan.family_us_per_network",
            per(
                s.total(w, Runs::One(0), "plan.plan_family"),
                count_setup("plan.families"),
            ) / 1e3,
            "us",
        );
        out.push(
            "plan.instantiate_ns_per_step",
            per(
                s.total(w, Runs::One(0), "plan.try_plan_into"),
                count_setup("plan.instantiated_steps"),
            ),
            "ns",
        );
        out.push("plan.arena_steps", count_setup("plan.arena_steps"), "count");
        out.push("plan.arena_bytes", count_setup("plan.arena_bytes"), "bytes");

        let rows: Vec<f64> = s
            .durations(w, Runs::Passes, "dse.row")
            .into_iter()
            .map(|ns| ns as f64)
            .collect();
        let points = rows.len() as f64;
        out.push("dse.row_ns.p50", host::quantile(&rows, 0.5), "ns");
        out.push("dse.row_ns.p99", host::quantile(&rows, 0.99), "ns");
        out.push(
            "dse.render_ns_per_row",
            per(s.total(w, Runs::Passes, "dse.to_json"), points),
            "ns",
        );
        let reports = s.durations(w, Runs::Passes, "dse.report");
        out.push(
            "dse.report_ms",
            host::median(
                &reports
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        );
        out.push(
            "stream.push_ns_per_row",
            per(s.total(w, Runs::Passes, "stream.push"), points),
            "ns",
        );
        out.push(
            "stream.peak_pending_rows",
            run.tracer
                .count_of(w, Runs::One(1), "stream.peak_pending_rows") as f64,
            "count",
        );
        out.push(
            "stream.bytes",
            run.tracer.count_of(w, Runs::One(1), "stream.bytes") as f64,
            "bytes",
        );
        crate::push_busy_frac(out, run, w, "dse.point");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_outputs_equal_untraced_outputs() {
        let dse = Dse::new(2).expect("run from the repository root or the package");
        crate::bench::assert_traced_matches_untraced(&dse);
    }
}
