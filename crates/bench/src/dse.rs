//! Design-space exploration grid over the reconfigurable backends.
//!
//! The question the paper's §V only samples — *which* pipeline span or
//! tile mode wins for *which* network at *which* batch, and how much
//! on-chip cache that choice needs — is answered here exhaustively: a
//! pinned-configuration grid of
//!
//! * ArrayFlex **pipeline span** ∈ {1, 2, 4} ([`PipelineConfig::ALL`]),
//! * FlexSA **tile mode** ∈ {full 16×16, 4×8×8 sub-arrays}
//!   ([`FlexSaMode::ALL`]),
//! * **batch** ∈ {1, 2, 4, 8, 12, 16, 24, 32, 48, 64},
//! * **weight-cache budget** ∈ {4 … 96} KiB, and
//! * all seven evaluation **networks**,
//!
//! 5 040 points in all — ~50× the 98-task sweep grid — at the same
//! order of wall-clock, because every point rides the incremental-plan
//! hot path instead of re-planning from scratch:
//!
//! 1. [`DseGrid::compile`] builds one [`PlanFamily`](sma_runtime::PlanFamily)
//!    per pinned backend
//!    × network (35 families) and instantiates each at every batch
//!    point straight into one shared bump [`PlanArena`] (350 plans,
//!    only the GEMM steps re-estimated per batch).
//! 2. [`DseCompiled::row`] is then a pure function: it sums the step
//!    times of the two candidate arena plans
//!    ([`PlanArena::total_ms`], bit-identical to a full replay's
//!    `total_ms` but without building a profile) and folds the budget
//!    axis over precomputed per-layer weight footprints — no planning,
//!    no locking, no profile.
//!
//! The budget axis is descriptive, not predictive: a GEMM layer is
//! *resident* when its full weight panel (`k × n` at f16) fits the
//! budget, so its B-tiles stream from cache instead of DRAM; a point
//! *fits* when every GEMM layer of the winning candidate is resident.
//! Modelled latencies are untouched — they stay bit-identical to
//! [`Executor::try_plan`] + replay, which is what the proptests pin.
//!
//! The `dse` binary fans [`DseCompiled::row`] across the sweep module's
//! work-stealing driver and streams rows through
//! [`StreamWriter`](crate::stream::StreamWriter); the committed
//! `BENCH_dse.json` carries only the deterministic summary (axes,
//! winner tallies, chained row digest), the gitignored
//! `BENCH_dse_rows.json` the full rows, and the gitignored
//! `BENCH_dse_timing.json` the wall-clock and the headline
//! **points/sec**.

use crate::stream::fnv1a64_chain;
use sma_models::{zoo, Network};
use sma_runtime::backend::{ArrayFlexBackend, FlexSaBackend, FlexSaMode, PipelineConfig};
use sma_runtime::{ArenaPlan, Executor, PlanArena, Platform};
use sma_tensor::{GemmShape, GemmShapeBatch};
use std::fmt::Write as _;
use std::sync::Arc;

/// f16 bytes per element — the precision the weight-residency axis
/// assumes (the paper's FP16-pair GPU integration).
const WEIGHT_ELEM_BYTES: u64 = 2;

/// One grid point's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// ArrayFlex pipeline configuration (index into the grid's spans).
    pub span: PipelineConfig,
    /// FlexSA tile mode.
    pub mode: FlexSaMode,
    /// Inference batch size.
    pub batch: usize,
    /// Weight-cache budget in KiB.
    pub budget_kib: u64,
    /// Index into the grid's network list.
    pub network: usize,
}

/// The five-axis pinned-configuration grid (see the module docs).
#[derive(Debug)]
pub struct DseGrid {
    spans: Vec<PipelineConfig>,
    modes: Vec<FlexSaMode>,
    batches: Vec<usize>,
    budgets_kib: Vec<u64>,
    networks: Vec<Network>,
}

impl DseGrid {
    /// The full 5 040-point grid: every span × mode × ten batches ×
    /// twelve budgets × the seven evaluation networks.
    #[must_use]
    pub fn full() -> Self {
        DseGrid {
            spans: PipelineConfig::ALL.to_vec(),
            modes: FlexSaMode::ALL.to_vec(),
            batches: vec![1, 2, 4, 8, 12, 16, 24, 32, 48, 64],
            budgets_kib: vec![4, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96],
            networks: zoo::evaluation_networks(),
        }
    }

    /// A 48-point corner of the grid for CI smoke runs and tests: all
    /// spans and modes, batches {1, 16}, budgets {8, 64} KiB, two
    /// networks.
    #[must_use]
    pub fn smoke() -> Self {
        DseGrid {
            spans: PipelineConfig::ALL.to_vec(),
            modes: FlexSaMode::ALL.to_vec(),
            batches: vec![1, 16],
            budgets_kib: vec![8, 64],
            networks: vec![zoo::alexnet(), zoo::goturn()],
        }
    }

    /// Total points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
            * self.modes.len()
            * self.batches.len()
            * self.budgets_kib.len()
            * self.networks.len()
    }

    /// True for a degenerate grid (an axis is empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The networks axis.
    #[must_use]
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// Decodes point `index` under the documented axis nesting —
    /// span-major, then mode, batch, budget, with network innermost —
    /// so a `SMA_DSE_POINTS` prefix still varies the inner axes first.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn point(&self, index: usize) -> DsePoint {
        let slots = self.slots(index);
        DsePoint {
            span: self.spans[slots.span],
            mode: self.modes[slots.mode],
            batch: self.batches[slots.batch],
            budget_kib: self.budgets_kib[slots.budget],
            network: slots.network,
        }
    }

    /// Raw axis slots of point `index` under the documented nesting.
    fn slots(&self, index: usize) -> AxisSlots {
        // sma-lint: allow(no-panic) — an out-of-range index is a driver
        // bug; the work-stealing cursor never exceeds the count it is
        // given.
        assert!(index < self.len(), "point {index} out of range");
        let network = index % self.networks.len();
        let rest = index / self.networks.len();
        let budget = rest % self.budgets_kib.len();
        let rest = rest / self.budgets_kib.len();
        let batch = rest % self.batches.len();
        let rest = rest / self.batches.len();
        AxisSlots {
            network,
            budget,
            batch,
            mode: rest % self.modes.len(),
            span: rest / self.modes.len(),
        }
    }

    /// Compiles the grid's plan families into one shared arena (see the
    /// module docs); the result evaluates points with `&self` only.
    #[must_use]
    pub fn compile(self) -> DseCompiled {
        let executors: Vec<Executor> = self
            .spans
            .iter()
            .map(|&span| {
                Executor::builder(Platform::ArrayFlex)
                    .backend(Arc::new(ArrayFlexBackend::pinned(span)))
                    .build()
            })
            .chain(self.modes.iter().map(|&mode| {
                Executor::builder(Platform::FlexSa)
                    .backend(Arc::new(FlexSaBackend::pinned(mode)))
                    .build()
            }))
            .collect();

        let mut arena = PlanArena::new();
        let mut candidates = Vec::with_capacity(executors.len());
        for exec in &executors {
            let name = exec.backend().name();
            let mut per_network = Vec::with_capacity(self.networks.len());
            for net in &self.networks {
                let family = exec.plan_family(net);
                let mut per_batch = Vec::with_capacity(self.batches.len());
                for &batch in &self.batches {
                    let shapes = family.gemm_shapes(batch);
                    let stats = GemmShapeBatch::from_shapes(&shapes);
                    per_batch.push(Candidate {
                        name,
                        plan: family
                            .try_plan_into(batch, &mut arena)
                            .map_err(|e| e.to_string()),
                        weight_bytes: shapes.iter().map(weight_footprint).collect(),
                        intensity_f16: stats.arithmetic_intensity(WEIGHT_ELEM_BYTES as usize),
                    });
                }
                per_network.push(per_batch);
            }
            candidates.push(per_network);
        }
        DseCompiled {
            grid: self,
            arena,
            candidates,
        }
    }
}

/// Raw per-axis indices of one grid point.
#[derive(Debug, Clone, Copy)]
struct AxisSlots {
    span: usize,
    mode: usize,
    batch: usize,
    budget: usize,
    network: usize,
}

/// Bytes of one GEMM layer's full weight panel at f16 — the
/// batch-independent `k × n` operand the residency axis budgets for
/// (batch stacking multiplies `m`, never the weights).
const fn weight_footprint(shape: &GemmShape) -> u64 {
    (shape.k as u64) * (shape.n as u64) * WEIGHT_ELEM_BYTES
}

/// One pinned backend × network × batch, planned into the shared arena.
#[derive(Debug)]
struct Candidate {
    name: &'static str,
    plan: Result<ArenaPlan, String>,
    /// Per-GEMM-layer weight-panel bytes, in layer order.
    weight_bytes: Vec<u64>,
    /// Aggregate f16 arithmetic intensity of the batch-stacked GEMMs.
    intensity_f16: f64,
}

/// A compiled grid: the shared arena plus the candidate table. Point
/// evaluation ([`DseCompiled::row`]) takes `&self` and is thread-safe.
#[derive(Debug)]
pub struct DseCompiled {
    grid: DseGrid,
    arena: PlanArena,
    /// `candidates[backend][network][batch]`; backends are the spans
    /// followed by the modes, matching [`DseGrid::compile`].
    candidates: Vec<Vec<Vec<Candidate>>>,
}

/// One candidate's outcome at a point.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// Pinned backend name (e.g. `ArrayFlex-span2`, `FlexSA-sub`).
    pub name: &'static str,
    /// `Ok(total_ms)` or the planning rejection.
    pub total_ms: Result<f64, String>,
    /// GEMM layers whose weight panel fits the budget.
    pub resident_gemms: usize,
    /// Total GEMM layers.
    pub gemms: usize,
    /// Aggregate f16 arithmetic intensity of the candidate's GEMMs.
    pub intensity_f16: f64,
}

impl DseOutcome {
    /// True when every GEMM layer's weights are budget-resident.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.resident_gemms == self.gemms
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct DseRow {
    /// Point index in enumeration order.
    pub index: usize,
    /// The point's coordinates.
    pub point: DsePoint,
    /// Network name (shared with the grid's [`Network`], not copied
    /// per row).
    pub network: Arc<str>,
    /// The ArrayFlex candidate at the point's span.
    pub arrayflex: DseOutcome,
    /// The FlexSA candidate at the point's mode.
    pub flexsa: DseOutcome,
}

impl DseRow {
    /// The winning candidate — lowest modelled latency among the
    /// candidates that planned successfully (`None` if both rejected).
    #[must_use]
    pub fn winner(&self) -> Option<&DseOutcome> {
        match (&self.arrayflex.total_ms, &self.flexsa.total_ms) {
            (Ok(a), Ok(f)) => Some(if *a <= *f {
                &self.arrayflex
            } else {
                &self.flexsa
            }),
            (Ok(_), Err(_)) => Some(&self.arrayflex),
            (Err(_), Ok(_)) => Some(&self.flexsa),
            (Err(_), Err(_)) => None,
        }
    }

    /// Winner inferences per second (`batch / total_ms`), 0 if both
    /// candidates were rejected.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        match self.winner().map(|w| &w.total_ms) {
            Some(Ok(ms)) if *ms > 0.0 => self.point.batch as f64 * 1e3 / ms,
            _ => 0.0,
        }
    }

    /// Renders the row as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(ROW_CAPACITY);
        self.write_json(&mut out);
        out
    }

    /// Appends [`DseRow::to_json`]'s bytes to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        fn outcome(out: &mut String, key: &str, o: &DseOutcome) {
            out.push('"');
            out.push_str(key);
            out.push_str("\": {\"backend\": \"");
            out.push_str(o.name);
            out.push_str("\", ");
            match &o.total_ms {
                Ok(ms) => {
                    out.push_str("\"total_ms\": ");
                    push_fixed(out, *ms, 6);
                    out.push_str(", ");
                }
                Err(reason) => {
                    out.push_str("\"rejected\": \"");
                    out.push_str(&crate::sweep::escape_json(reason));
                    out.push_str("\", ");
                }
            }
            out.push_str("\"resident_gemms\": ");
            push_uint(out, o.resident_gemms as u64);
            out.push_str(", \"gemms\": ");
            push_uint(out, o.gemms as u64);
            out.push_str(", \"fits\": ");
            out.push_str(if o.fits() { "true" } else { "false" });
            out.push_str(", \"ai_f16\": ");
            push_fixed(out, o.intensity_f16, 3);
            out.push('}');
        }

        out.push_str("{\"i\": ");
        push_uint(out, self.index as u64);
        out.push_str(", \"span\": ");
        push_uint(out, self.point.span.span() as u64);
        out.push_str(", \"mode\": \"");
        out.push_str(mode_label(self.point.mode));
        out.push_str("\", \"batch\": ");
        push_uint(out, self.point.batch as u64);
        out.push_str(", \"budget_kib\": ");
        push_uint(out, self.point.budget_kib);
        out.push_str(", \"network\": \"");
        out.push_str(&crate::sweep::escape_json(&self.network));
        out.push_str("\", ");
        outcome(out, "arrayflex", &self.arrayflex);
        out.push_str(", ");
        outcome(out, "flexsa", &self.flexsa);
        out.push_str(", \"winner\": \"");
        out.push_str(self.winner().map_or("none", |w| w.name));
        out.push_str("\", \"throughput_ips\": ");
        push_fixed(out, self.throughput_ips(), 3);
        out.push('}');
    }
}

/// Bytes reserved for one rendered row: full-grid rows run ~405 B.
const ROW_CAPACITY: usize = 512;

/// Appends `n` in decimal.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0_u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Appends `v` with `precision` fractional digits (at most 9), byte for
/// byte as `format!("{v:.precision$}")` would.
///
/// `core::fmt` rounds the exact binary value of `v`, half to even. The
/// fast path rounds the double `scaled = v * 10^precision` instead.
/// Below 2^52 every tie `k + 0.5` is itself a double and rounding is
/// monotone, so `scaled` lies on the same side of each tie as the exact
/// product, or on the tie itself. Only that last case can round
/// differently, so it falls back to `core::fmt`, as do non-positive and
/// non-finite values and any `scaled` at or above 2^52.
fn push_fixed(out: &mut String, v: f64, precision: usize) {
    const POW10: [u64; 10] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    /// 2^52: below it a double's integer part and fraction are exact.
    const EXACT_LIMIT: f64 = 4_503_599_627_370_496.0;
    const TIE: f64 = 0.5;
    let unit = POW10[precision];
    let scaled = v * unit as f64;
    if v > 0.0 && scaled < EXACT_LIMIT {
        // `as` truncates toward zero: the floor, for positive values.
        let whole = scaled as u64;
        let frac = scaled - whole as f64;
        if frac != TIE {
            let rounded = whole + u64::from(frac > TIE);
            push_uint(out, rounded / unit);
            if precision > 0 {
                out.push('.');
                let frac_digits = rounded % unit;
                let mut pad = unit / 10;
                while pad > frac_digits.max(1) {
                    out.push('0');
                    pad /= 10;
                }
                push_uint(out, frac_digits);
            }
            return;
        }
    }
    let _ = write!(out, "{v:.precision$}");
}

/// Short label for a FlexSA mode in rows and summaries.
#[must_use]
pub fn mode_label(mode: FlexSaMode) -> &'static str {
    match mode {
        FlexSaMode::FullArray => "full",
        FlexSaMode::SubArrays => "sub",
    }
}

impl DseCompiled {
    /// The grid this table was compiled from.
    #[must_use]
    pub fn grid(&self) -> &DseGrid {
        &self.grid
    }

    /// Evaluates point `index`: sums the step times of the two
    /// candidate arena plans and folds the budget over the precomputed
    /// weight footprints.
    /// Pure and lock-free — safe to call from any number of threads.
    ///
    /// # Panics
    ///
    /// Panics if `index >= grid.len()` (driver bug; see
    /// [`DseGrid::point`]).
    #[must_use]
    pub fn row(&self, index: usize) -> DseRow {
        let point = self.grid.point(index);
        let slots = self.grid.slots(index);
        let budget_bytes = point.budget_kib * 1024;
        let arrayflex = &self.candidates[slots.span][slots.network][slots.batch];
        let flexsa =
            &self.candidates[self.grid.spans.len() + slots.mode][slots.network][slots.batch];
        DseRow {
            index,
            point,
            network: self.grid.networks[point.network].name_shared(),
            arrayflex: self.outcome(arrayflex, budget_bytes),
            flexsa: self.outcome(flexsa, budget_bytes),
        }
    }

    fn outcome(&self, candidate: &Candidate, budget_bytes: u64) -> DseOutcome {
        DseOutcome {
            name: candidate.name,
            total_ms: candidate
                .plan
                .as_ref()
                .map(|plan| self.arena.total_ms(plan))
                .map_err(Clone::clone),
            resident_gemms: candidate
                .weight_bytes
                .iter()
                .filter(|&&w| w <= budget_bytes)
                .count(),
            gemms: candidate.weight_bytes.len(),
            intensity_f16: candidate.intensity_f16,
        }
    }

    /// Arena steps held for the whole grid (all 350 plans).
    #[must_use]
    pub fn arena_steps(&self) -> usize {
        self.arena.len()
    }
}

/// The deterministic summary committed as `BENCH_dse.json`.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Points evaluated (the whole grid, or a `SMA_DSE_POINTS` prefix).
    pub points: usize,
    /// Chained FNV-1a 64 digest over every row's JSON, in index order.
    pub rows_digest: u64,
    /// `(backend name, points won)` in first-seen row order, plus a
    /// final `("none", …)` tally for doubly-rejected points.
    pub winners: Vec<(&'static str, usize)>,
    /// Points whose winner is fully weight-resident at the budget.
    pub resident_points: usize,
    /// `(network, arrayflex wins, flexsa wins)` in network-axis order.
    pub per_network: Vec<(Arc<str>, usize, usize)>,
}

impl DseReport {
    /// Aggregates rows (digesting their JSON in index order — rows must
    /// be passed sorted by index, as the streaming slots table yields
    /// them).
    #[must_use]
    pub fn from_rows(rows: &[DseRow]) -> Self {
        let mut digest = crate::stream::fnv1a64_seed();
        let mut rendered = String::with_capacity(ROW_CAPACITY);
        let mut winners: Vec<(&'static str, usize)> = Vec::new();
        let mut resident_points = 0;
        let mut per_network: Vec<(Arc<str>, usize, usize)> = Vec::new();
        for row in rows {
            rendered.clear();
            row.write_json(&mut rendered);
            digest = fnv1a64_chain(digest, rendered.as_bytes());
            let name = row.winner().map_or("none", |w| w.name);
            match winners.iter_mut().find(|(n, _)| *n == name) {
                Some((_, count)) => *count += 1,
                None => winners.push((name, 1)),
            }
            if row.winner().is_some_and(DseOutcome::fits) {
                resident_points += 1;
            }
            let net_slot = match per_network.iter().position(|(n, _, _)| **n == *row.network) {
                Some(slot) => slot,
                None => {
                    per_network.push((Arc::clone(&row.network), 0, 0));
                    per_network.len() - 1
                }
            };
            if let Some(w) = row.winner() {
                if w.name.starts_with("ArrayFlex") {
                    per_network[net_slot].1 += 1;
                } else {
                    per_network[net_slot].2 += 1;
                }
            }
        }
        DseReport {
            points: rows.len(),
            rows_digest: digest,
            winners,
            resident_points,
            per_network,
        }
    }

    /// Renders the committed summary as JSON. Nothing wall-derived —
    /// CI byte-diffs this file across two runs.
    #[must_use]
    pub fn to_json(&self, grid: &DseGrid) -> String {
        let mut out = String::from("{\n  \"grid\": {\n");
        let _ = write!(
            out,
            "    \"spans\": [{}],\n    \"modes\": [{}],\n    \"batches\": [{}],\n    \"cache_budgets_kib\": [{}],\n    \"networks\": [{}]\n  }},\n",
            join_with(&grid.spans, |s| s.span().to_string()),
            join_with(&grid.modes, |&m| format!("\"{}\"", mode_label(m))),
            join_with(&grid.batches, ToString::to_string),
            join_with(&grid.budgets_kib, ToString::to_string),
            join_with(grid.networks(), |n| format!(
                "\"{}\"",
                crate::sweep::escape_json(n.name())
            )),
        );
        let _ = write!(
            out,
            "  \"points\": {},\n  \"rows_digest\": \"{:016x}\",\n  \"resident_points\": {},\n  \"winners\": {{\n",
            self.points, self.rows_digest, self.resident_points
        );
        for (i, (name, count)) in self.winners.iter().enumerate() {
            let comma = if i + 1 == self.winners.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{name}\": {count}{comma}");
        }
        out.push_str("  },\n  \"per_network\": {\n");
        for (i, (name, af, fs)) in self.per_network.iter().enumerate() {
            let comma = if i + 1 == self.per_network.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"arrayflex_wins\": {af}, \"flexsa_wins\": {fs}}}{comma}",
                crate::sweep::escape_json(name)
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn join_with<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_meets_the_issue_floor() {
        let grid = DseGrid::full();
        assert!(grid.len() >= 5_000, "grid has {} points", grid.len());
        assert_eq!(grid.len(), 3 * 2 * 10 * 12 * 7);
        assert!(!grid.is_empty());
    }

    #[test]
    fn point_decoding_round_trips_the_axes() {
        let grid = DseGrid::smoke();
        assert_eq!(grid.len(), 48);
        // Network is the innermost axis; the first points walk it.
        assert_eq!(grid.point(0).network, 0);
        assert_eq!(grid.point(1).network, 1);
        assert_eq!(grid.point(1).budget_kib, grid.point(0).budget_kib);
        // Every index decodes to a distinct coordinate tuple.
        let mut seen: Vec<DsePoint> = Vec::new();
        for i in 0..grid.len() {
            let p = grid.point(i);
            assert!(!seen.contains(&p), "duplicate point at {i}");
            seen.push(p);
        }
        // The last point sits at every axis maximum.
        let last = grid.point(grid.len() - 1);
        assert_eq!(last.batch, 16);
        assert_eq!(last.budget_kib, 64);
        assert_eq!(last.network, 1);
    }

    #[test]
    fn rows_replay_bit_identical_to_from_scratch_plans() {
        let compiled = DseGrid::smoke().compile();
        for index in [0, 7, 23, 47] {
            let row = compiled.row(index);
            let point = compiled.grid().point(index);
            let net = &compiled.grid().networks()[point.network];
            let arrayflex = Executor::builder(Platform::ArrayFlex)
                .backend(Arc::new(ArrayFlexBackend::pinned(point.span)))
                .batch(point.batch)
                .build();
            let flexsa = Executor::builder(Platform::FlexSa)
                .backend(Arc::new(FlexSaBackend::pinned(point.mode)))
                .batch(point.batch)
                .build();
            let expect_a = arrayflex.try_plan(net).expect("plans").run().total_ms;
            let expect_f = flexsa.try_plan(net).expect("plans").run().total_ms;
            assert_eq!(
                row.arrayflex
                    .total_ms
                    .as_ref()
                    .copied()
                    .expect("ok")
                    .to_bits(),
                expect_a.to_bits(),
                "point {index} arrayflex diverged"
            );
            assert_eq!(
                row.flexsa.total_ms.as_ref().copied().expect("ok").to_bits(),
                expect_f.to_bits(),
                "point {index} flexsa diverged"
            );
        }
    }

    #[test]
    fn residency_grows_with_the_budget() {
        let compiled = DseGrid::smoke().compile();
        // Points 0 and 0+len(networks) differ only in budget (8 → 64
        // KiB) under the axis nesting.
        let nets = compiled.grid().networks().len();
        let small = compiled.row(0);
        let large = compiled.row(nets);
        assert_eq!(small.point.batch, large.point.batch);
        assert!(small.point.budget_kib < large.point.budget_kib);
        assert!(large.arrayflex.resident_gemms >= small.arrayflex.resident_gemms);
        assert!(large.flexsa.resident_gemms >= small.flexsa.resident_gemms);
    }

    #[test]
    fn rows_render_and_summarise_deterministically() {
        let compiled = DseGrid::smoke().compile();
        let rows: Vec<DseRow> = (0..compiled.grid().len())
            .map(|i| compiled.row(i))
            .collect();
        for row in &rows {
            let json = row.to_json();
            for key in ["\"span\"", "\"winner\"", "\"throughput_ips\"", "\"fits\""] {
                assert!(json.contains(key), "missing {key} in {json}");
            }
            assert!(row.winner().is_some(), "smoke candidates must all plan");
            assert!(row.throughput_ips() > 0.0);
        }
        let report = DseReport::from_rows(&rows);
        assert_eq!(report.points, 48);
        assert_eq!(report.winners.iter().map(|(_, c)| c).sum::<usize>(), 48);
        let json = report.to_json(compiled.grid());
        for key in ["\"rows_digest\"", "\"winners\"", "\"per_network\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        for banned in ["wall_ms", "points_per_sec"] {
            assert!(!json.contains(banned), "wall-derived {banned} leaked");
        }
        // The summary digest is the chained hash of the rows.
        let again = DseReport::from_rows(&rows);
        assert_eq!(report.rows_digest, again.rows_digest);
    }

    #[test]
    fn sum_only_replay_has_the_bits_of_a_full_replay() {
        let compiled = DseGrid::smoke().compile();
        let mut plans = 0;
        for candidate in compiled.candidates.iter().flatten().flatten() {
            let plan = candidate.plan.as_ref().expect("smoke candidates all plan");
            assert_eq!(
                compiled.arena.total_ms(plan).to_bits(),
                compiled.arena.replay(plan).total_ms.to_bits(),
                "{} on {}",
                candidate.name,
                plan.network()
            );
            plans += 1;
        }
        assert_eq!(plans, 5 * 2 * 2);
    }

    /// Asserts the fast fixed-point writer and `core::fmt` agree on `v`
    /// at both precisions the rows print.
    fn assert_fixed_matches_fmt(v: f64) {
        for precision in [3, 6] {
            let mut fast = String::new();
            push_fixed(&mut fast, v, precision);
            assert_eq!(
                fast,
                format!("{v:.precision$}"),
                "{v:e} (bits {:#018x}) at {precision} digits",
                v.to_bits()
            );
        }
    }

    /// `v` and its two neighbouring doubles.
    fn with_neighbours(v: f64) -> [f64; 3] {
        [v.next_down(), v, v.next_up()]
    }

    #[test]
    fn fixed_writer_matches_core_fmt_at_ties_and_edges() {
        let mut values = vec![
            0.0,
            -0.0,
            -1.5,
            -0.0005,
            -123.456_789_5,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            // Exact binary ties: 62.5e-3, 187.5e-3, 7812.5e-6, 23437.5e-6.
            0.0625,
            0.1875,
            0.007_812_5,
            0.023_437_5,
            0.0005,
            0.0015,
            0.0025,
            2.5e-7,
            1.5e-6,
            1.000_000_5,
            1.000_5,
            0.999_999_5,
            0.999_5,
            9.999_999_5,
            1.0,
        ];
        for unit in [1e3, 1e6] {
            // Exact and inexact ties `(k + 0.5) / unit`.
            for k in [0_u64, 1, 2, 3, 9, 10, 99, 999, 1_000, 999_999, 123_456_789] {
                values.push((k as f64 + 0.5) / unit);
            }
            // The 2^52 cut-over of `scaled`, and beyond it.
            let limit = 4_503_599_627_370_496.0 / unit;
            values.extend([limit, limit * 2.0, limit * 1024.0, 1e300]);
        }
        for v in values {
            for w in with_neighbours(v) {
                assert_fixed_matches_fmt(w);
            }
        }
        let mut digits = String::new();
        push_uint(&mut digits, 0);
        digits.push(' ');
        push_uint(&mut digits, u64::MAX);
        assert_eq!(digits, format!("0 {}", u64::MAX));
    }

    #[test]
    fn fixed_writer_matches_core_fmt_over_seeded_values() {
        // SplitMix64: a fixed seed, so a failure reproduces.
        let mut state = 0x5eed_d5e0_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..100_000 {
            // Log-uniform over [1e-9, 1e9].
            let unit_draw = (next() >> 11) as f64 / (1_u64 << 53) as f64;
            let v = 10_f64.powf(18.0 * unit_draw - 9.0);
            assert_fixed_matches_fmt(v);
            // A tie at a random magnitude, and its neighbours.
            let k = (next() % 1_000_000_000) as f64;
            for w in with_neighbours((k + 0.5) / 1e6) {
                assert_fixed_matches_fmt(w);
            }
        }
    }

    #[test]
    fn arena_holds_every_candidate_plan() {
        let compiled = DseGrid::smoke().compile();
        // 5 backends × 2 networks × 2 batches = 20 plans in one arena.
        assert!(compiled.arena_steps() > 0);
        let per_plan_floor = 1; // every network has at least one layer
        assert!(compiled.arena_steps() >= 20 * per_plan_floor);
    }
}
