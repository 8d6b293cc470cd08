//! In-memory spans and counts for the traced run.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark wraps: its
//! name, start and end (ns since the tracer was made), the span that
//! was open on the calling thread when it began (its parent) and the
//! workload/run it belongs to. Counts are kept at the same boundaries.
//! Nothing is written until the run ends. A disabled tracer
//! ([`Tracer::off`]) reads no clock and stores nothing, so untraced
//! runs pay one branch per wrapped call.

use crate::args::Workload;
use sma_runtime::backend::Backend;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u32,
    /// The span open on the calling thread when this one began.
    pub parent: Option<u32>,
    /// The wrapped call.
    pub name: &'static str,
    /// Workload the span belongs to.
    pub workload: Workload,
    /// Run id within the workload: 0 for set-up, then one per pass.
    pub run: u32,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Inclusive duration.
    pub const fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's duration minus the part of its interval that its children
/// cover. Children may overlap each other (workers running in
/// parallel under one parent); covered time is their union, clipped to
/// the parent's interval.
pub fn self_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Counters a traced backend updates on every GEMM call. Atomics, not
/// spans: the stepwise paper grid makes ~10^6 GEMM calls per pass.
/// Each thread adds into its own cache-line-aligned shard, so two
/// workers calling one backend do not contend on the counters.
///
/// Misses are not counted per call: they are read from the caches of
/// the distinct backends the traced decorators wrap, which count each
/// insert exactly once however many workers share them.
#[derive(Debug, Default)]
pub struct GemmCounters {
    shards: [GemmShard; SHARDS],
    inners: Mutex<Vec<Arc<dyn Backend>>>,
}

/// `[calls, timed_misses, miss_ns, hit_ns]` of one thread shard.
#[derive(Debug, Default)]
#[repr(align(128))]
struct GemmShard([AtomicU64; 4]);

/// A point-in-time copy of [`GemmCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmSnapshot {
    /// Calls.
    pub calls: u64,
    /// Misses of the wrapped caches (exact).
    pub misses: u64,
    /// Calls timed as misses: the wrapped cache's miss counter moved
    /// during the call. When workers share a backend, a hit that
    /// overlaps another worker's miss is timed as a miss too, so this
    /// only splits the time and may exceed `misses`.
    pub timed_misses: u64,
    /// Summed ns of the calls timed as misses.
    pub miss_ns: u64,
    /// Summed ns of the other calls.
    pub hit_ns: u64,
}

impl GemmCounters {
    /// Adds `inner` to the backends whose cache misses are summed,
    /// unless it is already there.
    pub fn register(&self, inner: &Arc<dyn Backend>) {
        let mut inners = self.inners.lock().expect("backend registry poisoned");
        if !inners
            .iter()
            .any(|b| std::ptr::addr_eq(Arc::as_ptr(b), Arc::as_ptr(inner)))
        {
            inners.push(Arc::clone(inner));
        }
    }

    /// Records one call that took `ns`, timed as a miss or a hit.
    pub fn record(&self, timed_miss: bool, ns: u64) {
        let [calls, timed_misses, miss_ns, hit_ns] = &self.shards[SHARD.with(|&s| s)].0;
        calls.fetch_add(1, Ordering::Relaxed);
        if timed_miss {
            timed_misses.fetch_add(1, Ordering::Relaxed);
            miss_ns.fetch_add(ns, Ordering::Relaxed);
        } else {
            hit_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// The current totals.
    pub fn snapshot(&self) -> GemmSnapshot {
        let sum = |i: usize| {
            self.shards
                .iter()
                .map(|s| s.0[i].load(Ordering::Relaxed))
                .sum()
        };
        let misses = self
            .inners
            .lock()
            .expect("backend registry poisoned")
            .iter()
            .map(|b| b.gemm_cache_stats().misses)
            .sum();
        GemmSnapshot {
            calls: sum(0),
            misses,
            timed_misses: sum(1),
            miss_ns: sum(2),
            hit_ns: sum(3),
        }
    }
}

impl GemmSnapshot {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: GemmSnapshot) -> GemmSnapshot {
        GemmSnapshot {
            calls: self.calls - earlier.calls,
            misses: self.misses - earlier.misses,
            timed_misses: self.timed_misses - earlier.timed_misses,
            miss_ns: self.miss_ns - earlier.miss_ns,
            hit_ns: self.hit_ns - earlier.hit_ns,
        }
    }
}

/// Independent span buffers and counter shards, so concurrent workers
/// do not contend on one lock or cache line.
const SHARDS: usize = 8;

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<u32>> = const { Cell::new(None) };
    /// This thread's span buffer.
    static SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
    };
}

/// Span and count recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    /// Workload index (high half) and run id (low half).
    context: AtomicU64,
    spans: [Mutex<Vec<Span>>; SHARDS],
    counts: Mutex<BTreeMap<(Workload, u32, &'static str), u64>>,
    gemm: Arc<GemmCounters>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            context: AtomicU64::new(0),
            spans: std::array::from_fn(|_| Mutex::new(Vec::new())),
            counts: Mutex::new(BTreeMap::new()),
            gemm: Arc::new(GemmCounters::default()),
        }
    }

    /// Whether spans and counts are recorded.
    pub const fn enabled(&self) -> bool {
        self.enabled
    }

    /// The counters traced backends built for this tracer update.
    pub fn gemm(&self) -> &Arc<GemmCounters> {
        &self.gemm
    }

    /// Tags later spans and counts with a workload and run id.
    pub fn set_context(&self, workload: Workload, run: u32) {
        let index = Workload::ALL
            .iter()
            .position(|&w| w == workload)
            .expect("every workload is in Workload::ALL");
        self.context
            .store(((index as u64) << 32) | u64::from(run), Ordering::Relaxed);
    }

    fn context(&self) -> (Workload, u32) {
        let packed = self.context.load(Ordering::Relaxed);
        (Workload::ALL[(packed >> 32) as usize], packed as u32)
    }

    /// The innermost open span on the calling thread.
    pub fn current(&self) -> Option<u32> {
        if self.enabled {
            CURRENT.with(Cell::get)
        } else {
            None
        }
    }

    /// Runs `f` with `parent` as the calling thread's open span, so
    /// spans a worker thread opens attach to the span that spawned it.
    pub fn adopt<R>(&self, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let saved = CURRENT.with(|c| c.replace(parent));
        let out = f();
        CURRENT.with(|c| c.set(saved));
        out
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        CURRENT.with(|c| c.set(parent));
        let (workload, run) = self.context();
        let shard = SHARD.with(|&s| s);
        self.spans[shard]
            .lock()
            .expect("tracer spans poisoned")
            .push(Span {
                id,
                parent,
                name,
                workload,
                run,
                start_ns: nanos(start),
                end_ns: nanos(end),
            });
        out
    }

    /// Adds `n` to the count `name` of the current workload/run.
    pub fn count(&self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        let (workload, run) = self.context();
        *self
            .counts
            .lock()
            .expect("tracer counts poisoned")
            .entry((workload, run, name))
            .or_insert(0) += n;
    }

    /// Every closed span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .spans
            .iter()
            .flat_map(|shard| shard.lock().expect("tracer spans poisoned").clone())
            .collect();
        all.sort_unstable_by_key(|s| s.id);
        all
    }

    /// The count `name` of a workload, summed over `runs` (0 if never
    /// counted).
    pub fn count_of(&self, workload: Workload, runs: Runs, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("tracer counts poisoned")
            .iter()
            .filter(|((w, r, n), _)| *w == workload && runs.has(*r) && *n == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Spans as JSON lines, one object per span, in start order.
    pub fn spans_jsonl(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 128);
        for s in &spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \"run\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.name,
                s.workload.name(),
                s.run,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Summaries of a tracer's spans, queried by workload, run and name.
#[derive(Debug)]
pub struct SpanIndex {
    spans: Vec<Span>,
    children: BTreeMap<u32, Vec<(u64, u64)>>,
}

impl SpanIndex {
    /// Indexes a tracer's closed spans.
    pub fn new(tracer: &Tracer) -> Self {
        let spans = tracer.spans();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        SpanIndex { spans, children }
    }

    fn matching<'a>(
        &'a self,
        workload: Workload,
        runs: Runs,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.workload == workload && s.name == name && runs.has(s.run))
    }

    /// Inclusive durations of the matching spans, ns.
    pub fn durations(&self, workload: Workload, runs: Runs, name: &str) -> Vec<u64> {
        self.matching(workload, runs, name).map(Span::ns).collect()
    }

    /// Per workload and span name: count, inclusive ns and self ns,
    /// as a JSON array in (workload, name) order.
    pub fn summary_json(&self) -> String {
        let mut rows: BTreeMap<(Workload, &str), (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let kids = self.children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let row = rows.entry((s.workload, s.name)).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += self_ns((s.start_ns, s.end_ns), kids);
        }
        let body: Vec<String> = rows
            .iter()
            .map(|((w, name), (count, ns, self_ns))| {
                format!(
                    "{{\"workload\": \"{w}\", \"name\": \"{name}\", \"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                    *ns as f64 / 1e6,
                    *self_ns as f64 / 1e6
                )
            })
            .collect();
        format!("[\n    {}\n  ]", body.join(",\n    "))
    }

    /// Summed inclusive time of the matching spans, ns.
    pub fn total(&self, workload: Workload, runs: Runs, name: &str) -> u64 {
        self.matching(workload, runs, name).map(Span::ns).sum()
    }
}

/// Which run ids a span query covers.
#[derive(Debug, Clone, Copy)]
pub enum Runs {
    /// Exactly one run.
    One(u32),
    /// Every pass (run id >= 1), not set-up.
    Passes,
}

impl Runs {
    fn has(self, run: u32) -> bool {
        match self {
            Runs::One(r) => run == r,
            Runs::Passes => run >= 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_ns((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_ns((0, 100), &[(10, 20), (40, 70)]), 60);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers under one pass span: [10, 60) and [30, 90) cover
        // [10, 90), so 20 of the 100 ns are the parent's own.
        assert_eq!(self_ns((0, 100), &[(30, 90), (10, 60)]), 20);
        // A child nested inside another covers nothing extra.
        assert_eq!(self_ns((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_ns((50, 100), &[(0, 40), (120, 200)]), 50);
        assert_eq!(self_ns((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn spans_nest_on_a_thread_and_adopt_across_threads() {
        let tracer = Tracer::on();
        tracer.set_context(Workload::Paper, 3);
        tracer.span("outer", || {
            tracer.span("inner", || ());
            let parent = tracer.current();
            std::thread::scope(|s| {
                s.spawn(|| tracer.adopt(parent, || tracer.span("worker", || ())));
            });
        });
        let spans = tracer.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).expect("span recorded");
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("worker").parent, Some(outer.id));
        assert!(spans
            .iter()
            .all(|s| s.workload == Workload::Paper && s.run == 3));
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        let index = SpanIndex::new(&tracer);
        let summary = index.summary_json();
        assert!(
            summary.contains("\"name\": \"outer\", \"count\": 1"),
            "{summary}"
        );
        assert_eq!(
            index
                .durations(Workload::Paper, Runs::One(3), "inner")
                .len(),
            1
        );
        assert!(index
            .durations(Workload::Paper, Runs::One(4), "inner")
            .is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span("x", || 7), 7);
        tracer.count("c", 1);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.count_of(Workload::Dse, Runs::One(0), "c"), 0);
        assert_eq!(tracer.current(), None);
    }

    #[test]
    fn counts_accumulate_per_workload_and_run() {
        let tracer = Tracer::on();
        tracer.set_context(Workload::Dse, 1);
        tracer.count("n", 2);
        tracer.count("n", 3);
        tracer.set_context(Workload::Dse, 2);
        tracer.count("n", 10);
        assert_eq!(tracer.count_of(Workload::Dse, Runs::One(1), "n"), 5);
        assert_eq!(tracer.count_of(Workload::Dse, Runs::One(2), "n"), 10);
        assert_eq!(tracer.count_of(Workload::Dse, Runs::Passes, "n"), 15);
        assert_eq!(tracer.count_of(Workload::Paper, Runs::One(1), "n"), 0);
    }
}
