//! The measurement harness shared by the four workloads.
//!
//! An untraced run builds the workload's inputs, runs one warm-up pass,
//! then repeats timed passes for the requested seconds, with timed
//! set-ups spread between them (their median is `setup_s`), and reports
//! medians. A traced run visits every workload, alternating traced and
//! untraced passes of each; per-layer metrics come from the traced
//! passes' spans and the tracing overhead from the difference between
//! the two kinds.

use crate::args::Workload;
use crate::host;
use crate::trace::{GemmSnapshot, SpanIndex, Tracer};
use sma_bench::sweep;
use std::sync::Mutex;
use std::time::Instant;

/// What one pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOutput {
    /// Work items the pass completed (DSE points, simulated
    /// request-combos, paper tasks): the numerator of `items_per_cpu_s`.
    pub items: u64,
    /// Operations attempted (points, combos, tasks and grid cells).
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// Digest of the pass's outputs. Every pass over the same inputs,
    /// traced or not, must produce the same digest.
    pub digest: u64,
}

/// Operation tallies of a whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    /// Adds a pass, failing all of its operations when its digest
    /// differs from the reference pass's.
    pub fn add_pass(&mut self, out: &PassOutput, reference: u64) {
        self.attempted += out.attempted;
        self.failed += if out.digest == reference {
            out.failed
        } else {
            out.attempted
        };
    }

    /// Adds one check.
    pub fn add_check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends a metric (a non-finite value is recorded as 0).
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as a JSON object of `{"value": .., "unit": ..}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What the traced run hands a workload to derive its per-layer
/// metrics from.
#[derive(Debug)]
pub struct TracedRun<'a> {
    /// The run's spans.
    pub spans: &'a SpanIndex,
    /// The run's tracer (for counts).
    pub tracer: &'a Tracer,
    /// Backend counters over the traced set-up.
    pub setup_gemm: GemmSnapshot,
    /// Backend counters over the first traced pass (run id 1).
    pub first_pass_gemm: GemmSnapshot,
    /// Worker threads.
    pub threads: usize,
}

/// One workload.
pub trait Bench: Sync {
    /// The inputs a pass runs over.
    type Setup: Sync;

    /// Which workload this is.
    fn workload(&self) -> Workload;

    /// Set-ups timed together per `setup_s` sample, for workloads whose
    /// set-up is too short to time alone.
    fn setups_per_sample(&self) -> usize {
        1
    }

    /// Checks against the committed producer outputs that sit outside
    /// the timed loop.
    fn preflight(&self, _tally: &mut Tally) {}

    /// Builds the inputs. With an enabled tracer the set-up is the
    /// traced one: spans around each call, and backends wrapped in the
    /// counting decorator.
    ///
    /// # Errors
    ///
    /// A call returning an error (the benchmark cannot continue).
    fn setup(&self, tracer: &Tracer) -> Result<Self::Setup, String>;

    /// One timed pass over the inputs.
    fn pass(&self, setup: &Self::Setup, tracer: &Tracer) -> PassOutput;

    /// Appends the per-layer metrics of a traced run.
    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Metrics);
}

/// `setup_s` samples per untraced run.
const SETUP_SAMPLES: usize = 50;
/// Fewest timed passes an untraced run makes, however slow they are.
const MIN_PASSES: usize = 5;
/// Traced/untraced pass pairs: at least this many per workload...
const MIN_PAIRS: u32 = 2;
/// ...and at most this many, which bounds the spans kept in memory.
const MAX_PAIRS: u32 = 4;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The untraced end-to-end measurement of one workload.
#[derive(Debug)]
pub struct Untraced {
    /// Metrics, in `BENCHMARK.json` order except the fidelity pair.
    pub metrics: Metrics,
    /// Operation tallies.
    pub tally: Tally,
    /// Timed passes made.
    pub passes: usize,
    /// Items of one pass.
    pub items: u64,
    /// Median wall seconds of a timed pass.
    pub pass_s: f64,
    /// Median CPU seconds of a timed pass. Every pass of a workload does
    /// the same work, so this is `items_per_cpu_s` over again: printed
    /// beside the metrics, not bounded a second time.
    pub pass_cpu_s: f64,
    /// 90th percentile of the pass wall times, s.
    pub pass_p90_s: f64,
    /// Tracing overhead measured after the timed loop, percent.
    pub overhead_pct: f64,
}

/// Times one `setup_s` sample: `setups_per_sample` set-ups on each
/// worker thread at once, the process CPU time they took over the
/// set-ups built. The workers cover every core, as the passes do: the
/// reference box's two vCPUs run at different speeds, so a set-up timed
/// alone on one thread reads whichever core it landed on.
fn setup_sample<B: Bench>(bench: &B) -> Result<f64, String> {
    let threads = host::threads();
    let per_sample = bench.setups_per_sample() * threads;
    let off = Tracer::off();
    let error = Mutex::new(None);
    let cpu = host::process_cpu_s();
    sweep::run_work_stealing(per_sample, threads, |_| {
        if let Err(e) = bench.setup(&off) {
            *error.lock().expect("set-up error slot poisoned") = Some(e);
        }
    });
    let sample = (host::process_cpu_s() - cpu) / per_sample as f64;
    match error.into_inner().expect("set-up error slot poisoned") {
        Some(e) => Err(e),
        None => Ok(sample),
    }
}

/// Runs the untraced measurement (see the module docs).
///
/// # Errors
///
/// A set-up call failed.
pub fn run_untraced<B: Bench>(bench: &B, seconds: u64) -> Result<Untraced, String> {
    let off = Tracer::off();
    let mut tally = Tally::default();
    let setup = bench.setup(&off)?;
    let warm = bench.pass(&setup, &off);
    tally.add_pass(&warm, warm.digest);
    // Peak memory of one set-up plus one pass. Read before the set-up
    // samples (which build several inputs at once), before the
    // preflight checks (which run larger inputs) and before the timed
    // loop (after which the allocator's per-thread arenas have
    // fragmented by an amount that varies from run to run).
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);

    // The set-up samples are spread evenly over the timed loop, between
    // passes: the host's speed moves by ~15% from one second to the
    // next, and samples taken back to back read one moment of it.
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut pass_s = Vec::new();
    let mut pass_cpu_s = Vec::new();
    let mut items_per_cpu_s = Vec::new();
    let loop_start = Instant::now();
    while pass_s.len() < MIN_PASSES
        || setup_s.len() < SETUP_SAMPLES
        || loop_start.elapsed().as_secs() < seconds
    {
        let due = secs(loop_start) / seconds as f64 * SETUP_SAMPLES as f64;
        if setup_s.len() < SETUP_SAMPLES && setup_s.len() as f64 <= due {
            setup_s.push(setup_sample(bench)?);
        }
        let start = Instant::now();
        let cpu = host::process_cpu_s();
        let out = bench.pass(&setup, &off);
        let cpu = host::process_cpu_s() - cpu;
        pass_s.push(secs(start));
        tally.add_pass(&out, warm.digest);
        pass_cpu_s.push(cpu);
        items_per_cpu_s.push(out.items as f64 / cpu);
    }

    let mut metrics = Metrics::default();
    metrics.push("setup_s", host::median(&setup_s), "s");
    metrics.push("items_per_cpu_s", host::median(&items_per_cpu_s), "1/s");
    metrics.push("peak_rss_mb", peak_rss, "MB");

    // The checks against the committed producer outputs run after the
    // timed loop, so they set neither the peak memory nor the state the
    // timed passes start from.
    bench.preflight(&mut tally);

    // The tracing overhead is measured after the timed loop, so its spans
    // and second set-up never count against the workload's memory or time.
    let tracer = Tracer::on();
    tracer.set_context(bench.workload(), 0);
    let traced_setup = bench.setup(&tracer)?;
    let alt = alternate(
        bench,
        &setup,
        &traced_setup,
        &tracer,
        0.0,
        &mut tally,
        Some(warm.digest),
    );
    Ok(Untraced {
        metrics,
        tally,
        passes: pass_s.len(),
        items: warm.items,
        pass_s: host::median(&pass_s),
        pass_cpu_s: host::median(&pass_cpu_s),
        pass_p90_s: host::quantile(&pass_s, 0.9),
        overhead_pct: alt.overhead_pct(),
    })
}

/// Pass times and backend counters of alternating traced and
/// untraced passes.
#[derive(Debug, Default)]
struct Alternation {
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Backend counters over the first traced pass.
    first_traced_gemm: GemmSnapshot,
}

impl Alternation {
    fn overhead_pct(&self) -> f64 {
        let base = host::median(&self.plain_s);
        (host::median(&self.traced_s) - base) / base * 100.0
    }
}

/// Alternates traced and untraced passes, for at least `MIN_PAIRS`
/// pairs and until `budget_s` has passed. The first pair starts with
/// the traced pass, so that pass meets the caches as the first pass of
/// a process would; later pairs swap the order. Traced pass `k` runs
/// under run id `k`. With no `reference` digest, the first pass's is
/// the reference every later pass must match.
fn alternate<B: Bench>(
    bench: &B,
    plain_setup: &B::Setup,
    traced_setup: &B::Setup,
    tracer: &Tracer,
    budget_s: f64,
    tally: &mut Tally,
    reference: Option<u64>,
) -> Alternation {
    let off = Tracer::off();
    let name = bench.workload();
    let start = Instant::now();
    let mut alt = Alternation::default();
    let mut reference = reference;
    for pair in 1..=MAX_PAIRS {
        if pair > MIN_PAIRS && secs(start) >= budget_s {
            break;
        }
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            let gemm_before = tracer.gemm().snapshot();
            let begin = Instant::now();
            let out = if traced_turn {
                tracer.set_context(name, pair);
                tracer.span("bench.pass", || bench.pass(traced_setup, tracer))
            } else {
                bench.pass(plain_setup, &off)
            };
            let took = secs(begin);
            let reference = *reference.get_or_insert(out.digest);
            tally.add_pass(&out, reference);
            if traced_turn {
                if alt.traced_s.is_empty() {
                    alt.first_traced_gemm = tracer.gemm().snapshot().since(gemm_before);
                }
                alt.traced_s.push(took);
            } else {
                alt.plain_s.push(took);
            }
        }
    }
    alt
}

/// Runs one workload's share of the traced run, appending its
/// per-layer metrics; returns the operation tallies of every traced
/// and untraced pass.
///
/// # Errors
///
/// A set-up call failed.
pub fn run_traced<B: Bench>(
    bench: &B,
    tracer: &Tracer,
    budget_s: f64,
    out: &mut Metrics,
) -> Result<Tally, String> {
    let name = bench.workload();
    tracer.set_context(name, 0);
    let before = tracer.gemm().snapshot();
    let traced_setup = tracer.span("bench.setup", || bench.setup(tracer))?;
    let setup_gemm = tracer.gemm().snapshot().since(before);
    let plain_setup = bench.setup(&Tracer::off())?;

    let mut tally = Tally::default();
    let alt = alternate(
        bench,
        &plain_setup,
        &traced_setup,
        tracer,
        budget_s,
        &mut tally,
        None,
    );
    let overhead = alt.overhead_pct();
    let spans = SpanIndex::new(tracer);
    bench.layer_metrics(
        &TracedRun {
            spans: &spans,
            tracer,
            setup_gemm,
            first_pass_gemm: alt.first_traced_gemm,
            threads: host::threads(),
        },
        out,
    );
    out.push(format!("trace.overhead_pct.{name}"), overhead, "%");
    Ok(tally)
}

/// Test support: one untraced and one traced pass over fresh set-ups
/// must both pass their checks and produce the same output digest.
#[cfg(test)]
pub fn assert_traced_matches_untraced<B: Bench>(bench: &B) {
    let off = Tracer::off();
    let plain = bench.pass(&bench.setup(&off).expect("untraced set-up"), &off);
    let tracer = Tracer::on();
    tracer.set_context(bench.workload(), 1);
    let traced = bench.pass(&bench.setup(&tracer).expect("traced set-up"), &tracer);
    assert_eq!(plain.failed, 0, "untraced pass failed its checks");
    assert_eq!(traced.failed, 0, "traced pass failed its checks");
    assert_eq!(plain.attempted, traced.attempted);
    assert_eq!(plain.digest, traced.digest, "tracing changed the outputs");
    assert!(
        !tracer.spans().is_empty(),
        "the traced pass recorded no spans"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_json_with_every_digit() {
        let mut m = Metrics::default();
        m.push("a", 0.1234567890123, "s");
        m.push("b", f64::NAN, "ms");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.1234567890123, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn a_digest_mismatch_fails_the_whole_pass() {
        let mut tally = Tally::default();
        let pass = |digest| PassOutput {
            items: 10,
            attempted: 4,
            failed: 1,
            digest,
        };
        tally.add_pass(&pass(7), 7);
        tally.add_pass(&pass(8), 7);
        tally.add_check(true);
        tally.add_check(false);
        assert_eq!((tally.attempted, tally.failed), (10, 1 + 4 + 1));
    }
}
