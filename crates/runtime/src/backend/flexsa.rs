//! FlexSA: a reconfigurable systolic-array architecture for efficient
//! pruned-model workloads (Lym & Erez, PAPERS.md).
//!
//! FlexSA's flexibility is *tile granularity*: the per-SM array can run
//! as one large full array or split into four independent sub-arrays.
//! Both modes expose the same peak (iso-FLOP with the 2-SMA
//! configuration, 256 FP16 MACs per SM-cycle), and trade off per shape:
//!
//! * **full array** — one [`FLEXSA_FULL_DIM`]² tile: a single
//!   uncontended result drain, but long fill/drain skew and coarse tile
//!   quantisation (pruned layers with ragged `k`/`n` waste whole
//!   16-wide tile edges);
//! * **sub-arrays** — four [`FLEXSA_SUB_DIM`]² tiles on independent
//!   weight tiles: half the skew and a quarter of the padding
//!   granularity, but the four concurrent drains contend on the shared
//!   register-file write ports ([`FLEXSA_DRAIN_CONTENTION`] per
//!   streamed row).
//!
//! [`FlexSaBackend`] evaluates both [`FlexSaMode`]s per [`GemmShape`]
//! and keeps the faster — the per-GEMM reconfiguration decision of the
//! FlexSA paper — through the shared [`ConfigurableArray`] machinery.
//!
//! The second FlexSA-only capability is the **pruning-aware irregular
//! path**: structured (channel/block) pruning masks are first-class in
//! the tile sequencer, so channel-parallel irregular operators skip
//! masked work entirely. The fixed-function SMA arrays cannot do this —
//! their irregular path is the unmodified SIMD lanes, which execute
//! every lane of a masked channel anyway. See
//! [`FlexSaModel::pruned_work`].

use super::{ArrayModel, ConfigurableArray, IrregularOp, IrregularWork, Tiling};
use sma_mem::MemStats;
use sma_tensor::GemmShape;

/// Edge of the full-array configuration (one tile per SM).
pub const FLEXSA_FULL_DIM: usize = 16;

/// Edge of one sub-array (four independent tiles per SM).
pub const FLEXSA_SUB_DIM: usize = 8;

/// Extra drain cycles per streamed activation row in sub-array mode:
/// four 8-wide drains demand 32 result writes per cycle against the
/// register file's 16-write vector budget, stretching the drain phase
/// by half a cycle per row.
pub const FLEXSA_DRAIN_CONTENTION: f64 = 0.5;

/// Fraction of channel-parallel irregular work a structured pruning
/// mask removes (the FlexSA paper trains at 40–60% structured
/// sparsity; the conservative end keeps the model honest for
/// inference-time masks).
pub const FLEXSA_PRUNE_FRACTION: f64 = 0.4;

/// Fixed per-launch overhead: mode-select register write, weight
/// pre-load of the first tile set, output-buffer flush.
pub const FLEXSA_SETUP_CYCLES: u64 = 800;

/// One tile configuration of the reconfigurable array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlexSaMode {
    /// One 16×16 array per SM.
    FullArray,
    /// Four independent 8×8 sub-arrays per SM.
    SubArrays,
}

impl FlexSaMode {
    /// Both modes, full array first (ties break to it).
    pub const ALL: [FlexSaMode; 2] = [FlexSaMode::FullArray, FlexSaMode::SubArrays];

    /// Tile edge of this mode.
    #[must_use]
    pub const fn dim(self) -> usize {
        match self {
            FlexSaMode::FullArray => FLEXSA_FULL_DIM,
            FlexSaMode::SubArrays => FLEXSA_SUB_DIM,
        }
    }

    /// Independent tiles per SM in this mode.
    #[must_use]
    pub const fn tiles_per_sm(self) -> u64 {
        match self {
            FlexSaMode::FullArray => 1,
            FlexSaMode::SubArrays => 4,
        }
    }
}

/// Closed-form latency/energy model of the reconfigurable array.
///
/// Weight-stationary mapping in both modes: the `k × n` weight matrix
/// is tiled at the mode's edge, tiles are distributed across every
/// array in the GPU, and each resident tile streams all `m` activation
/// rows.
#[derive(Debug)]
pub struct FlexSaModel;

/// The FlexSA platform: one reconfigurable (16×16 ⇄ 4×8×8) systolic
/// array per SM beside the baseline SIMD lanes, with structured-pruning
/// masks wired into the tile sequencer: channel-parallel irregular
/// operators first shed the [`FLEXSA_PRUNE_FRACTION`] of their work a
/// structured mask removes — the path the fixed SMA arrays cannot
/// exploit.
pub type FlexSaBackend = ConfigurableArray<FlexSaModel>;

impl FlexSaModel {
    /// Whether a structured pruning mask can shed part of an irregular
    /// op: channel-parallel operators (RoIAlign over feature channels,
    /// per-pixel class reductions, streaming elementwise stages) skip
    /// masked channels in the tile sequencer; control-flow-bound ops
    /// (NMS ordering, CRF message passing) cannot.
    #[must_use]
    pub const fn op_is_prunable(op: IrregularOp) -> bool {
        matches!(
            op,
            IrregularOp::RoiAlign { .. } | IrregularOp::ArgMax { .. } | IrregularOp::Streaming
        )
    }

    /// The work remaining after the structured mask: prunable ops shed
    /// [`FLEXSA_PRUNE_FRACTION`] of their FLOPs and half that fraction
    /// of their bytes (masked channels are never fetched, but index
    /// metadata still streams).
    #[must_use]
    pub fn pruned_work(work: IrregularWork) -> IrregularWork {
        if !Self::op_is_prunable(work.op) {
            return work;
        }
        let mut pruned = work;
        pruned.flops = (work.flops as f64 * (1.0 - FLEXSA_PRUNE_FRACTION)) as u64;
        pruned.bytes = (work.bytes as f64 * (1.0 - FLEXSA_PRUNE_FRACTION / 2.0)) as u64;
        pruned
    }
}

impl ArrayModel for FlexSaModel {
    type Config = FlexSaMode;
    const CONFIGS: &'static [FlexSaMode] = &FlexSaMode::ALL;
    const NAME: &'static str = "FlexSA";
    const PINNED_NAMES: &'static [&'static str] = &["FlexSA-full", "FlexSA-sub"];
    const LABELS: &'static [&'static str] = &["full-array", "sub-arrays"];
    /// Identical in both modes: 16² = 4·8² = 256, iso-FLOP with 2-SMA
    /// and 4-TC.
    const PEAK_MACS_PER_SM_CYCLE: u64 = (FLEXSA_FULL_DIM * FLEXSA_FULL_DIM) as u64;

    fn tile_dims(mode: FlexSaMode) -> (usize, usize) {
        (mode.dim(), mode.dim())
    }

    fn tiles_per_sm(mode: FlexSaMode) -> u64 {
        mode.tiles_per_sm()
    }

    fn compute_cycles(shape: GemmShape, mode: FlexSaMode, tiling: &Tiling) -> u64 {
        let dim = mode.dim();
        let drain = match mode {
            FlexSaMode::FullArray => 0.0,
            FlexSaMode::SubArrays => FLEXSA_DRAIN_CONTENTION * shape.m as f64,
        };
        // sma-lint: allow(float-cast) — m plus a bounded drain term;
        // finite and non-negative by construction.
        let pass = (shape.m as f64 + drain).ceil() as u64 + 2 * (dim as u64 - 1) + dim as u64;
        tiling.waves() * pass + FLEXSA_SETUP_CYCLES
    }

    fn array_ledger(shape: GemmShape, mode: FlexSaMode, tiling: &Tiling) -> MemStats {
        let dim = mode.dim();
        let tiles = tiling.tiles();
        let m = shape.m as u64;
        let issued = tiles * (dim * dim) as u64 * m;
        let drain_writes = tiling.n_tiles * m * dim as u64 / 32;
        let mut mem = MemStats {
            systolic_macs: issued,
            pe_transfers: issued * 2,
            shared_reads: tiles * m * dim as u64,
            shared_writes: tiles * (dim * dim) as u64 / 32,
            rf_reads: drain_writes,
            rf_writes: drain_writes,
            ..MemStats::default()
        };
        if mode == FlexSaMode::SubArrays {
            // The contended drain serialises on the RF write ports.
            mem.shared_conflict_cycles = (FLEXSA_DRAIN_CONTENTION * (tiles * m) as f64) as u64;
        }
        mem
    }

    fn irregular_work(work: IrregularWork) -> IrregularWork {
        Self::pruned_work(work)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Backend;
    use super::*;
    use sma_models::Layer;

    #[test]
    fn skinny_streams_split_into_sub_arrays_long_streams_stay_full() {
        let backend = FlexSaBackend::new();
        // Batch-1 FC: one streamed row, skew-dominated → sub-arrays.
        assert_eq!(
            backend.config_for(GemmShape::new(1, 4096, 4096)),
            FlexSaMode::SubArrays
        );
        // Large conv GEMM: drain contention dominates → full array.
        assert_eq!(
            backend.config_for(GemmShape::new(3025, 96, 363)),
            FlexSaMode::FullArray
        );
    }

    #[test]
    fn both_modes_share_one_peak() {
        assert_eq!(
            FlexSaMode::FullArray.tiles_per_sm()
                * (FlexSaMode::FullArray.dim() * FlexSaMode::FullArray.dim()) as u64,
            FlexSaMode::SubArrays.tiles_per_sm()
                * (FlexSaMode::SubArrays.dim() * FlexSaMode::SubArrays.dim()) as u64,
        );
        // Iso-FLOP with 2-SMA (256 FP16 MACs per SM-cycle).
        assert_eq!(
            FlexSaModel::PEAK_MACS_PER_SM_CYCLE,
            u64::from(sma_core::SmaConfig::iso_flop_2sma().macs_per_cycle())
        );
    }

    #[test]
    fn names_and_labels_carry_the_mode() {
        let backend = FlexSaBackend::new();
        let rc = backend.as_reconfigurable().unwrap();
        assert_eq!(rc.config_count(), 2);
        assert_eq!(rc.config_label(0), "full-array");
        assert_eq!(rc.config_label(1), "sub-arrays");
        assert_eq!(backend.name(), "FlexSA");
        assert_eq!(
            FlexSaBackend::pinned(FlexSaMode::SubArrays).name(),
            "FlexSA-sub"
        );
    }

    #[test]
    fn pruning_sheds_channel_parallel_work_only() {
        let roi = IrregularWork::from_layer(&Layer::RoiAlign {
            rois: 1000,
            pooled: 7,
            channels: 256,
        })
        .unwrap();
        let pruned = FlexSaModel::pruned_work(roi);
        assert!(pruned.flops < roi.flops);
        assert!(pruned.bytes < roi.bytes);

        let nms = IrregularWork::from_layer(&Layer::Nms { boxes: 6000 }).unwrap();
        assert_eq!(FlexSaModel::pruned_work(nms), nms, "NMS is control-bound");
    }

    #[test]
    fn pruned_irregular_runs_faster_than_on_fixed_sma_lanes() {
        let flexsa = FlexSaBackend::new();
        let sma2 = super::super::SmaBackend::iso_flop_2sma();
        let roi = IrregularWork::from_layer(&Layer::RoiAlign {
            rois: 1000,
            pooled: 7,
            channels: 256,
        })
        .unwrap();
        // Same baseline lanes (boost 1.0 during dependent inference),
        // but FlexSA sheds the masked channels first.
        assert!(flexsa.irregular(roi).time_ms < sma2.irregular(roi).time_ms);
    }
}
