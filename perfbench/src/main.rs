//! Host-time benchmark of the SMA simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse|paper|serve_steady|serve_chaos> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it checks its outputs against the
//! committed `BENCH_*.json` there and writes its result files under
//! `perfbench/out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics of the named workload with `--trace 0`, the
//! per-layer metrics of all four workloads with `--trace 1`. See
//! `perfbench/README.md` for what each metric measures.

mod args;
mod bench;
mod dse;
mod fidelity;
mod host;
mod paper;
mod serve;
mod trace;
mod traced_backend;

use args::{Args, Workload};
use bench::{Metrics, Tally, TracedRun};
use std::fmt::Write as _;
use trace::{GemmSnapshot, Runs, Tracer};

/// Where result files go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dse|paper|serve_steady|serve_chaos> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Reads a committed producer output from the repository root: the
/// working directory, or its parent when run from the package
/// directory (as `cargo test` does).
///
/// # Errors
///
/// The file is in neither place.
pub fn read_committed(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .or_else(|_| std::fs::read_to_string(format!("../{path}")))
        .map_err(|e| format!("cannot read {path} (run from the repository root): {e}"))
}

/// Appends the traced backend counters of workload `w`.
pub fn push_backend_metrics(out: &mut Metrics, w: Workload, g: GemmSnapshot) {
    let hits = g.calls.saturating_sub(g.misses);
    let timed_hits = g.calls - g.timed_misses;
    out.push(format!("backend.gemm_calls.{w}"), g.calls as f64, "count");
    out.push(format!("backend.gemm_misses.{w}"), g.misses as f64, "count");
    out.push(
        format!("backend.gemm_hit_rate.{w}"),
        hits as f64 / g.calls as f64,
        "ratio",
    );
    out.push(
        format!("backend.gemm_miss_ns.{w}"),
        g.miss_ns as f64 / g.timed_misses as f64,
        "ns",
    );
    out.push(
        format!("backend.gemm_hit_ns.{w}"),
        g.hit_ns as f64 / timed_hits as f64,
        "ns",
    );
}

/// Appends `sweep.busy_frac.<w>`: time the work-stealing workers spent
/// inside `item` spans over workers x the fan-out's wall time.
pub fn push_busy_frac(out: &mut Metrics, run: &TracedRun<'_>, w: Workload, item: &str) {
    let busy = run.spans.total(w, Runs::Passes, item) as f64;
    let wall = run.spans.total(w, Runs::Passes, "sweep.run_work_stealing") as f64;
    out.push(
        format!("sweep.busy_frac.{w}"),
        busy / (run.threads as f64 * wall),
        "ratio",
    );
}

fn run(args: Args) -> Result<(), String> {
    let threads = host::threads();
    let (tally, metrics, notes, span_summary) = if args.trace {
        traced(&args, threads)?
    } else {
        untraced(&args, threads)?
    };
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let correct = tally.failed == 0 && tally.attempted > 0;

    let mut human = String::new();
    for (name, value, unit) in &metrics.0 {
        let _ = writeln!(human, "{name} = {value} {unit}");
    }
    for (name, value, unit) in &notes {
        let _ = writeln!(human, "{name} = {value} {unit}");
    }
    let _ = writeln!(
        human,
        "error_rate = {error_rate} ({} failed of {} attempted)",
        tally.failed, tally.attempted
    );
    let _ = writeln!(human, "host = {}", host::fingerprint_json());
    print!("{human}");

    let mut file = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {error_rate},\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint_json(),
        tally.attempted,
        tally.failed,
    );
    for (name, value, unit) in &notes {
        let _ = writeln!(
            file,
            "  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}},"
        );
    }
    if let Some(summary) = span_summary {
        let _ = writeln!(file, "  \"span_summary\": {summary},");
    }
    let _ = writeln!(file, "  \"metrics\": {}\n}}", metrics.to_json());
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, file))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    Ok(())
}

/// Side values printed and recorded with a result, outside `metrics`.
type Notes = Vec<(String, f64, &'static str)>;

/// What a run reports: tallies, metrics, side notes, and (traced runs)
/// the per-span summary.
type Report = (Tally, Metrics, Notes, Option<String>);

fn untraced(args: &Args, threads: usize) -> Result<Report, String> {
    let measured = match args.workload {
        Workload::Dse => bench::run_untraced(&dse::Dse::new(threads)?, args.seconds)?,
        Workload::Paper => bench::run_untraced(&paper::Paper::new(threads)?, args.seconds)?,
        w => bench::run_untraced(&serve::Serve::new(w, args.seed, threads)?, args.seconds)?,
    };
    let mut metrics = measured.metrics;
    let fidelity = fidelity::Fidelity::measure()?;
    metrics.push("fidelity.speedup_err_pct", fidelity.speedup_err_pct(), "%");
    metrics.push("fidelity.energy_err_pct", fidelity.energy_err_pp(), "pp");

    // Wall-clock figures under the names the workloads' users know,
    // printed beside the CPU-time metrics.
    let per_wall_s = measured.items as f64 / measured.pass_s;
    let mut notes: Notes = match args.workload {
        Workload::Dse => vec![("points_per_s".into(), per_wall_s, "1/s")],
        Workload::Paper => vec![("eval_s".into(), measured.pass_s, "s")],
        _ => vec![("requests_per_s".into(), per_wall_s, "1/s")],
    };
    notes.push(("fidelity.max_speedup".into(), fidelity.max_speedup, "x"));
    notes.push((
        "fidelity.mean_energy_saving_pct".into(),
        fidelity.mean_energy_saving_pct,
        "%",
    ));
    notes.push(("timed_passes".into(), measured.passes as f64, "count"));
    notes.push(("pass_cpu_s".into(), measured.pass_cpu_s, "s"));
    notes.push(("pass_s".into(), measured.pass_s, "s"));
    notes.push(("pass_s.p90".into(), measured.pass_p90_s, "s"));
    notes.push(("tracing_overhead_pct".into(), measured.overhead_pct, "%"));
    Ok((measured.tally, metrics, notes, None))
}

/// The traced run: every workload in turn, each given a quarter of the
/// requested seconds (within the pass-pair limits of `bench`).
fn traced(args: &Args, threads: usize) -> Result<Report, String> {
    let tracer = Tracer::on();
    let budget = args.seconds as f64 / Workload::ALL.len() as f64;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    for w in Workload::ALL {
        let measured = match w {
            Workload::Dse => {
                bench::run_traced(&dse::Dse::new(threads)?, &tracer, budget, &mut metrics)?
            }
            Workload::Paper => {
                bench::run_traced(&paper::Paper::new(threads)?, &tracer, budget, &mut metrics)?
            }
            w => bench::run_traced(
                &serve::Serve::new(w, args.seed, threads)?,
                &tracer,
                budget,
                &mut metrics,
            )?,
        };
        tally.attempted += measured.attempted;
        tally.failed += measured.failed;
    }
    // One file, overwritten by each traced run: the spans are large.
    let path = format!("{OUT_DIR}/spans.jsonl");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.spans_jsonl()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let summary = trace::SpanIndex::new(&tracer).summary_json();
    Ok((tally, metrics, Notes::new(), Some(summary)))
}
