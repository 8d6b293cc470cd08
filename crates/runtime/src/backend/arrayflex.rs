//! ArrayFlex: a systolic array with *configurable transparent
//! pipelining* (Peltekis et al., PAPERS.md).
//!
//! Where SMA's flexibility is *across* execution modes (systolic ↔
//! SIMD), ArrayFlex's is *within* the systolic domain: the pipeline
//! registers between PEs can be made transparent, fusing `span`
//! consecutive PEs into one clocked stage. A shallower pipeline
//!
//! * shortens the fill/drain skew of every pass (fewer register stages
//!   between array edges), and
//! * clocks fewer registers (the energy win), but
//! * lengthens the critical path, so the array must run at a reduced
//!   clock ([`PipelineConfig::clock_divisor`]).
//!
//! The crossover is governed by the streamed row count `m`: skinny
//! GEMMs (fully connected layers at small batch) are skew-dominated and
//! prefer transparent stages, while long activation streams amortise
//! the skew and want the full clock. [`ArrayFlexBackend`] evaluates
//! every [`PipelineConfig`] per shape and keeps the fastest — the
//! per-layer configuration selection of the ArrayFlex paper — through
//! the shared [`ConfigurableArray`] machinery.
//!
//! The array is *spatially* integrated (a dedicated engine beside the
//! SIMD lanes, like the TensorCores): irregular work runs on the
//! baseline lanes with no reconfiguration boost. That is exactly the
//! efficiency/flexibility trade the source paper's §II measures — high
//! GEMM throughput, dead weight on GEMM-incompatible operators.

use super::{ArrayModel, ConfigurableArray, Tiling};
use sma_mem::MemStats;
use sma_tensor::GemmShape;

/// Rows of the per-SM ArrayFlex array (the reduction dimension mapped
/// onto it, weight-stationary).
pub const ARRAYFLEX_ROWS: usize = 16;

/// Columns of the per-SM array at FP16 (two paired MACs per FP32-class
/// PE column, the same pairing the SMA units use). 16×24 = 384
/// FP16-equivalent MACs per SM-cycle — **iso-area with 3-SMA**, so any
/// latency difference against the temporally integrated design is
/// attributable to the dataflow and the pipeline reconfiguration, not
/// to a larger compute budget.
pub const ARRAYFLEX_COLS: usize = 24;

/// Fractional critical-path growth per extra PE fused into a clocked
/// stage: fusing `span` MACs multiplies the clock period by
/// `1 + 0.4 (span - 1)` (sub-linear: register setup/hold is amortised
/// and the carry chains of adjacent MACs overlap).
pub const CRITICAL_PATH_SLOPE: f64 = 0.4;

/// Fixed per-launch array overhead: weight pre-load of the first tile,
/// configuration-register write, and the output-buffer flush.
pub const ARRAYFLEX_SETUP_CYCLES: u64 = 800;

/// One transparent-pipelining configuration: `span` PEs share a clocked
/// stage.
///
/// `span = 1` is the conventional fully pipelined array; larger spans
/// trade clock rate for fill/drain latency and register energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    span: u32,
}

impl PipelineConfig {
    /// Every configuration the selection pass evaluates, shallowest
    /// pipeline last (ties break to the fully pipelined array).
    pub const ALL: [PipelineConfig; 3] = [
        PipelineConfig { span: 1 },
        PipelineConfig { span: 2 },
        PipelineConfig { span: 4 },
    ];

    /// PEs fused into one clocked pipeline stage.
    #[must_use]
    pub const fn span(self) -> u32 {
        self.span
    }

    /// Clock-period multiplier relative to the fully pipelined array.
    #[must_use]
    pub fn clock_divisor(self) -> f64 {
        1.0 + CRITICAL_PATH_SLOPE * f64::from(self.span - 1)
    }

    /// Fill + drain skew cycles of one pass: one cycle per clocked
    /// stage along each array edge.
    #[must_use]
    pub const fn skew_cycles(self) -> u64 {
        let stages_k = (ARRAYFLEX_ROWS as u64).div_ceil(self.span as u64);
        let stages_n = (ARRAYFLEX_COLS as u64).div_ceil(self.span as u64);
        (stages_k - 1) + (stages_n - 1)
    }
}

/// Closed-form latency/energy model of one ArrayFlex array per SM.
///
/// Weight-stationary mapping: the `k × n` weight matrix is tiled into
/// [`ARRAYFLEX_ROWS`]`×`[`ARRAYFLEX_COLS`] resident tiles; each tile
/// streams all `m` activation rows through the array (one row per array
/// clock), then swaps in the next tile. Tiles are distributed across
/// the GPU's SMs (one array each).
#[derive(Debug)]
pub struct ArrayFlexModel;

/// The ArrayFlex platform: one configurable-transparent-pipelining
/// systolic array per SM beside the baseline SIMD lanes.
pub type ArrayFlexBackend = ConfigurableArray<ArrayFlexModel>;

impl ArrayModel for ArrayFlexModel {
    type Config = PipelineConfig;
    const CONFIGS: &'static [PipelineConfig] = &PipelineConfig::ALL;
    const NAME: &'static str = "ArrayFlex";
    const PINNED_NAMES: &'static [&'static str] =
        &["ArrayFlex-span1", "ArrayFlex-span2", "ArrayFlex-span4"];
    const LABELS: &'static [&'static str] = &["span1", "span2", "span4"];
    /// 16×24 = 384, iso-area with 3-SMA.
    const PEAK_MACS_PER_SM_CYCLE: u64 = (ARRAYFLEX_ROWS * ARRAYFLEX_COLS) as u64;

    fn tile_dims(_config: PipelineConfig) -> (usize, usize) {
        (ARRAYFLEX_ROWS, ARRAYFLEX_COLS)
    }

    fn compute_cycles(shape: GemmShape, config: PipelineConfig, tiling: &Tiling) -> u64 {
        // Stream m rows + fill/drain + 1 cycle of tile-swap visible
        // latency (weights are double-buffered; only the commit shows).
        let pass = shape.m as u64 + config.skew_cycles() + 1;
        // Array clocks are longer than base clocks by the divisor; the
        // setup (config-register write, first weight pre-load over the
        // memory pipeline) runs at base clock regardless.
        // sma-lint: allow(float-cast) — finite positive cycle count
        // (integer waves*pass scaled by a divisor in [1, 4]); ceil-to-u64
        // is the cycle-model rounding convention.
        ((tiling.waves() * pass) as f64 * config.clock_divisor()).ceil() as u64
            + ARRAYFLEX_SETUP_CYCLES
    }

    /// Register-pipeline energy is where transparent pipelining pays:
    /// `pe_transfers` shrinks with the span because fused stages latch
    /// nothing between them.
    fn array_ledger(shape: GemmShape, config: PipelineConfig, tiling: &Tiling) -> MemStats {
        let tiles = tiling.tiles();
        let m = shape.m as u64;
        // Issued volume including ragged-edge padding.
        let issued = tiles * (ARRAYFLEX_ROWS * ARRAYFLEX_COLS) as u64 * m;
        MemStats {
            systolic_macs: issued,
            // Two pipeline latches per MAC fully pipelined; transparent
            // stages fuse span MACs per latch.
            pe_transfers: issued * 2 / u64::from(config.span()),
            // Activation feed: every tile streams m rows of
            // ARRAYFLEX_ROWS elements out of shared memory.
            shared_reads: tiles * m * ARRAYFLEX_ROWS as u64,
            // Tile staging: weights written once per resident tile.
            shared_writes: tiles * (ARRAYFLEX_ROWS * ARRAYFLEX_COLS) as u64 / 32,
            // Result drain: one coalesced RF read-modify-write per
            // output row per tile column.
            rf_reads: tiling.n_tiles * m * ARRAYFLEX_COLS as u64 / 32,
            rf_writes: tiling.n_tiles * m * ARRAYFLEX_COLS as u64 / 32,
            ..MemStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::super::Backend;
    use super::*;

    #[test]
    fn skinny_streams_pick_transparent_stages_long_streams_full_pipeline() {
        let backend = ArrayFlexBackend::new();
        // A batch-1 FC layer streams one activation row: pure skew.
        let fc = GemmShape::new(1, 4096, 4096);
        assert_eq!(backend.config_for(fc).span(), 4, "skew-dominated");
        // A large conv GEMM streams thousands of rows: full clock wins.
        let conv = GemmShape::new(3025, 96, 363);
        assert_eq!(backend.config_for(conv).span(), 1, "stream-dominated");
    }

    #[test]
    fn clock_divisor_and_skew_move_oppositely() {
        let [full, half, quarter] = PipelineConfig::ALL;
        assert_eq!(full.clock_divisor(), 1.0);
        assert!(half.clock_divisor() < quarter.clock_divisor());
        assert!(full.skew_cycles() > half.skew_cycles());
        assert!(half.skew_cycles() > quarter.skew_cycles());
    }

    #[test]
    fn transparent_stages_cut_register_energy() {
        let backend = ArrayFlexBackend::new();
        let shape = GemmShape::new(1, 512, 512);
        // The selected (shallow) config latches fewer pipeline
        // registers than a forced fully pipelined ledger would.
        let est = backend.gemm(shape).unwrap();
        let full_transfers = est.mem.systolic_macs * 2;
        assert!(est.mem.pe_transfers < full_transfers);
    }

    #[test]
    fn names_and_labels_carry_the_span() {
        let backend = ArrayFlexBackend::new();
        let rc = backend.as_reconfigurable().unwrap();
        let labels: Vec<String> = (0..rc.config_count()).map(|c| rc.config_label(c)).collect();
        assert_eq!(labels, ["span1", "span2", "span4"]);
        assert_eq!(backend.name(), "ArrayFlex");
        let [.., quarter] = PipelineConfig::ALL;
        assert_eq!(ArrayFlexBackend::pinned(quarter).name(), "ArrayFlex-span4");
    }

    #[test]
    fn beats_sma3_on_large_square_gemm_at_iso_area_peak() {
        // The trade the ROADMAP asks to test, at matched compute
        // budget: ArrayFlex is pinned iso-area with 3-SMA…
        assert_eq!(
            ArrayFlexModel::PEAK_MACS_PER_SM_CYCLE,
            u64::from(sma_core::SmaConfig::iso_area_3sma().macs_per_cycle())
        );
        // …so out-running temporal integration on pure GEMM is a
        // dataflow/overhead result, not a bigger array…
        let af = ArrayFlexBackend::new();
        let sma3 = super::super::SmaBackend::iso_area_3sma();
        let big = GemmShape::square(8192);
        let t_af = af.gemm(big).unwrap().time_ms;
        let t_sma = sma3.gemm(big).unwrap().time_ms;
        assert!(t_af < t_sma, "ArrayFlex {t_af} vs 3-SMA {t_sma}");
        // …and it has no lanes to boost for irregular phases.
        assert_eq!(af.simd_mode_boost(), 1.0);
        assert_eq!(sma3.simd_mode_boost(), 3.0);
    }
}
