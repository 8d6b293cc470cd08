//! One backend for every configurable systolic array.
//!
//! ArrayFlex (pipeline span) and FlexSA (tile mode) are the same idea:
//! a spatially integrated array beside the baseline SIMD lanes whose
//! fabric has a small, enumerable set of configurations, and a per-GEMM
//! selection pass that keeps the fastest. An [`ArrayModel`] supplies
//! only what differs between such arrays — the configuration list, the
//! names and labels, the peak, the tiling, the compute-cycle model, the
//! array-specific ledger fields and an optional irregular-work
//! transform. [`ConfigurableArray`] supplies the rest once: per-shape
//! selection, design-time pinning, the DRAM floor and efficiency
//! arithmetic, the memo cache, [`Backend`] and [`Reconfigurable`].

use super::{
    gpu_irregular_estimate, Backend, CacheStats, GemmCache, IrregularEstimate, IrregularWork,
    Reconfigurable, RuntimeError,
};
use sma_core::model::{GemmEstimate, L2_REUSE_DRAM_FACTOR, LAUNCH_OVERHEAD_CYCLES};
use sma_mem::MemStats;
use sma_sim::GpuConfig;
use sma_tensor::GemmShape;
use std::marker::PhantomData;

/// How one GEMM's `k × n` weight matrix quantises onto the GPU's arrays
/// under one configuration (weight-stationary: each resident tile
/// streams all `m` activation rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Weight tiles along the reduction dimension `k`.
    pub k_tiles: u64,
    /// Weight tiles along the output dimension `n`.
    pub n_tiles: u64,
    /// Independent tiles one SM holds at once.
    pub per_sm: u64,
    /// SMs in the GPU (one array each).
    pub sms: u64,
}

impl Tiling {
    /// Resident weight tiles of the whole GEMM.
    #[must_use]
    pub fn tiles(&self) -> u64 {
        self.k_tiles * self.n_tiles
    }

    /// Rounds of tiles across every array in the GPU.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.tiles().div_ceil(self.sms * self.per_sm)
    }

    /// SMs holding at least one tile.
    #[must_use]
    pub fn active_sms(&self) -> u64 {
        self.tiles().div_ceil(self.per_sm).min(self.sms)
    }
}

/// What distinguishes one configurable systolic array from another.
///
/// Everything is associated: a model is a type, not a value.
/// Implement this and `ConfigurableArray<YourModel>` is a complete
/// [`Backend`] and [`Reconfigurable`].
pub trait ArrayModel: std::fmt::Debug + Send + Sync + 'static {
    /// One fabric configuration (pipeline span, tile mode, dataflow…).
    type Config: Copy + Eq + std::fmt::Debug + Send + Sync + 'static;

    /// Every configuration, in tie-break order: selection keeps the
    /// earliest of equally fast ones. Must be non-empty and list every
    /// value of [`ArrayModel::Config`].
    const CONFIGS: &'static [Self::Config];

    /// Backend name with per-shape selection (the platform label).
    const NAME: &'static str;

    /// Backend names of the pinned variants, aligned with `CONFIGS`.
    const PINNED_NAMES: &'static [&'static str];

    /// Serve-report labels of the configurations, aligned with
    /// `CONFIGS`.
    const LABELS: &'static [&'static str];

    /// FP16-equivalent MACs per base-clock cycle per SM at full rate
    /// (the configuration-independent peak efficiency is measured
    /// against).
    const PEAK_MACS_PER_SM_CYCLE: u64;

    /// Tile edges `(k, n)` of the weight tiles under `config`.
    fn tile_dims(config: Self::Config) -> (usize, usize);

    /// Independent tiles one SM holds under `config`.
    fn tiles_per_sm(_config: Self::Config) -> u64 {
        1
    }

    /// Base-clock cycles of the whole GEMM under `config`, before the
    /// DRAM floor and launch overhead.
    fn compute_cycles(shape: GemmShape, config: Self::Config, tiling: &Tiling) -> u64;

    /// The array's own ledger fields (MACs, pipeline latches, feed and
    /// drain traffic); DRAM, cache and control counts are filled in by
    /// [`ConfigurableArray`].
    fn array_ledger(shape: GemmShape, config: Self::Config, tiling: &Tiling) -> MemStats;

    /// The irregular work left for the SIMD lanes (identity unless the
    /// array can shed some of it).
    fn irregular_work(work: IrregularWork) -> IrregularWork {
        work
    }
}

/// A configurable systolic array per SM beside the baseline SIMD lanes
/// of the Volta substrate.
///
/// GEMM estimates run under the fastest configuration per shape — or
/// under one configuration pinned at design time — and are memoized in
/// the backend's own [`GemmCache`]. Irregular work runs on the
/// unmodified lanes after [`ArrayModel::irregular_work`] (spatial
/// integration: no mode folding, so [`Backend::simd_mode_boost`] is
/// 1.0).
#[derive(Debug)]
pub struct ConfigurableArray<M: ArrayModel> {
    gpu: GpuConfig,
    cache: GemmCache,
    /// Index into [`ArrayModel::CONFIGS`] of the pinned configuration.
    pinned: Option<usize>,
    model: PhantomData<M>,
}

impl<M: ArrayModel> ConfigurableArray<M> {
    /// The array on the Volta substrate, selecting per shape.
    #[must_use]
    pub fn new() -> Self {
        ConfigurableArray {
            // One substrate config shared by the GEMM model and the
            // irregular (SIMD-lane) path — they must never diverge.
            gpu: GpuConfig::volta(),
            cache: GemmCache::default(),
            pinned: None,
            model: PhantomData,
        }
    }

    /// The same array with the configuration *pinned* at design time:
    /// every GEMM runs under `config` instead of the per-shape best.
    /// This is the DSE fabric axis — the cost of giving up run-time
    /// reconfiguration — with its own [`GemmCache`] (pinned and
    /// flexible estimates must never share memo entries).
    #[must_use]
    pub fn pinned(config: M::Config) -> Self {
        let index = M::CONFIGS.iter().position(|&c| c == config);
        // sma-lint: allow(no-panic) — `ArrayModel::CONFIGS` lists every
        // configuration by contract, so the lookup cannot miss.
        let index = index.expect("ArrayModel::CONFIGS lists every configuration");
        ConfigurableArray {
            pinned: Some(index),
            ..Self::new()
        }
    }

    /// The pinned configuration, when this instance was built with
    /// [`ConfigurableArray::pinned`].
    #[must_use]
    pub fn pinned_config(&self) -> Option<M::Config> {
        self.pinned.map(|index| M::CONFIGS[index])
    }

    /// The configuration selected for a shape: the earliest fastest in
    /// [`ArrayModel::CONFIGS`].
    #[must_use]
    pub fn config_for(&self, shape: GemmShape) -> M::Config {
        self.select(shape).0
    }

    /// Estimates one GEMM under one configuration. The flexible path is
    /// exactly this at [`ConfigurableArray::config_for`], so pinned and
    /// flexible numbers share one code path.
    #[must_use]
    pub fn estimate_pinned(&self, shape: GemmShape, config: M::Config) -> GemmEstimate {
        let tiling = self.tiling(shape, config);
        let compute = M::compute_cycles(shape, config, &tiling);
        let active = tiling.active_sms();
        let dram_bytes = (shape.min_bytes(2) as f64 * L2_REUSE_DRAM_FACTOR) as u64;
        let full_bw = self.gpu.dram_bytes_per_cycle_per_sm * f64::from(self.gpu.sms);
        // sma-lint: allow(float-cast) — byte count over positive
        // bandwidth; finite and non-negative by construction.
        let dram_floor = (dram_bytes as f64 / full_bw).ceil() as u64;
        let cycles = compute.max(dram_floor) + LAUNCH_OVERHEAD_CYCLES;

        let time_s = cycles as f64 / (self.gpu.clock_ghz * 1e9);
        let useful = shape.macs() as f64;
        let peak_all = M::PEAK_MACS_PER_SM_CYCLE as f64 * active as f64;
        GemmEstimate {
            cycles,
            time_ms: time_s * 1e3,
            efficiency: useful / (cycles as f64 * peak_all),
            tflops: 2.0 * useful / time_s / 1e12,
            mem: Self::ledger(shape, config, &tiling, dram_bytes),
            sm_cycles: cycles * active,
        }
    }

    fn tiling(&self, shape: GemmShape, config: M::Config) -> Tiling {
        let (k_edge, n_edge) = M::tile_dims(config);
        Tiling {
            k_tiles: shape.k.div_ceil(k_edge) as u64,
            n_tiles: shape.n.div_ceil(n_edge) as u64,
            per_sm: M::tiles_per_sm(config),
            sms: u64::from(self.gpu.sms),
        }
    }

    fn compute_cycles(&self, shape: GemmShape, config: M::Config) -> u64 {
        M::compute_cycles(shape, config, &self.tiling(shape, config))
    }

    /// The earliest fastest configuration and its compute cycles.
    fn select(&self, shape: GemmShape) -> (M::Config, u64) {
        let first = M::CONFIGS[0];
        M::CONFIGS[1..].iter().fold(
            (first, self.compute_cycles(shape, first)),
            |best, &config| {
                let cycles = self.compute_cycles(shape, config);
                if cycles < best.1 {
                    (config, cycles)
                } else {
                    best
                }
            },
        )
    }

    /// Access ledger of the whole GEMM: the model's array fields plus
    /// the DRAM, cache and control counts every array shares.
    fn ledger(shape: GemmShape, config: M::Config, tiling: &Tiling, dram_bytes: u64) -> MemStats {
        let mut mem = M::array_ledger(shape, config, tiling);
        mem.dram_bytes = dram_bytes;
        let tile_bytes = shape.min_bytes(2);
        mem.l1_misses = tile_bytes / 128;
        mem.l2_hits = (tile_bytes - dram_bytes.min(tile_bytes)) / 128;
        mem.l2_misses = dram_bytes / 128;
        // Control: one configuration write plus per-tile descriptors.
        mem.instructions = tiling.tiles() * 4 + 64;
        mem.alu_ops = tiling.tiles() * 8;
        mem
    }
}

impl<M: ArrayModel> Default for ConfigurableArray<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: ArrayModel> Backend for ConfigurableArray<M> {
    fn name(&self) -> &'static str {
        self.pinned.map_or(M::NAME, |index| M::PINNED_NAMES[index])
    }

    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        Ok(self.cache.get_or_compute(shape, || {
            let config = self
                .pinned_config()
                .unwrap_or_else(|| self.config_for(shape));
            self.estimate_pinned(shape, config)
        }))
    }

    fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
        gpu_irregular_estimate(&self.gpu, &M::irregular_work(work))
    }

    fn transfer_ms(&self, _bytes: u64) -> f64 {
        0.0
    }

    /// A dedicated array reconfigures within itself, not into SIMD
    /// lanes: no boost.
    fn simd_mode_boost(&self) -> f64 {
        1.0
    }

    fn gemm_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn gemm_cache_len(&self) -> usize {
        self.cache.len()
    }

    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        Some(self)
    }
}

/// The serve-time capability: the configuration becomes a run-time
/// knob. Configurations index into [`ArrayModel::CONFIGS`].
impl<M: ArrayModel> Reconfigurable for ConfigurableArray<M> {
    fn config_count(&self) -> usize {
        M::CONFIGS.len()
    }

    fn config_label(&self, config: usize) -> String {
        M::LABELS[config].to_owned()
    }

    fn pinned_cycles(&self, shapes: &[GemmShape], config: usize) -> u64 {
        let pinned = M::CONFIGS[config];
        shapes
            .iter()
            .map(|&shape| self.compute_cycles(shape, pinned))
            .sum()
    }

    fn flexible_cycles(&self, shapes: &[GemmShape]) -> u64 {
        shapes.iter().map(|&shape| self.select(shape).1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArrayFlexModel, FlexSaModel};
    use super::*;

    /// Shapes spanning skew-dominated FC layers, long conv streams and
    /// ragged edges.
    const SHAPES: [GemmShape; 9] = [
        GemmShape::square(64),
        GemmShape::square(1024),
        GemmShape::square(2048),
        GemmShape::new(1, 1000, 4096),
        GemmShape::new(1, 4096, 4096),
        GemmShape::new(16, 4096, 9216),
        GemmShape::new(3025, 96, 363),
        GemmShape::new(12, 24, 36),
        GemmShape::new(50176, 64, 147),
    ];

    fn memo_counters_exact<M: ArrayModel>() {
        let backend = ConfigurableArray::<M>::new();
        for shape in [GemmShape::square(256), GemmShape::new(17, 33, 65)] {
            let first = backend.gemm(shape).unwrap();
            let again = backend.gemm(shape).unwrap();
            assert_eq!(first.time_ms.to_bits(), again.time_ms.to_bits());
        }
        let stats = backend.gemm_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 2), "{}", M::NAME);
        assert_eq!(backend.gemm_cache_len(), 2);
    }

    #[test]
    fn estimates_are_memoized_and_counters_exact() {
        memo_counters_exact::<ArrayFlexModel>();
        memo_counters_exact::<FlexSaModel>();
    }

    fn selection_is_earliest_fastest<M: ArrayModel>() {
        let backend = ConfigurableArray::<M>::new();
        let rc: &dyn Reconfigurable = &backend;
        for shape in SHAPES {
            let cycles: Vec<u64> = (0..rc.config_count())
                .map(|c| rc.pinned_cycles(&[shape], c))
                .collect();
            let best = rc.flexible_cycles(&[shape]);
            assert!(cycles.iter().all(|&c| best <= c), "{shape:?}");
            let earliest = cycles.iter().position(|&c| c == best).unwrap();
            assert_eq!(
                backend.config_for(shape),
                M::CONFIGS[earliest],
                "{}: {shape:?}",
                M::NAME
            );
        }
    }

    #[test]
    fn selection_is_the_earliest_fastest_config() {
        selection_is_earliest_fastest::<ArrayFlexModel>();
        selection_is_earliest_fastest::<FlexSaModel>();
        selection_is_earliest_fastest::<TiedModel>();
        assert_eq!(
            ConfigurableArray::<TiedModel>::new().config_for(SHAPES[0]),
            2
        );
    }

    /// A model whose fastest configurations always tie: selection must
    /// keep the earliest, as both arrays' old tie-breaks did.
    #[derive(Debug)]
    struct TiedModel;

    impl ArrayModel for TiedModel {
        type Config = u8;
        const CONFIGS: &'static [u8] = &[1, 2, 3];
        const NAME: &'static str = "Tied";
        const PINNED_NAMES: &'static [&'static str] = &["Tied-1", "Tied-2", "Tied-3"];
        const LABELS: &'static [&'static str] = &["1", "2", "3"];
        const PEAK_MACS_PER_SM_CYCLE: u64 = 256;

        fn tile_dims(_config: u8) -> (usize, usize) {
            (16, 16)
        }

        fn compute_cycles(shape: GemmShape, config: u8, tiling: &Tiling) -> u64 {
            // Config 1 is one cycle slower; configs 2 and 3 tie.
            tiling.waves() * (shape.m as u64 + 16) + u64::from(config == 1)
        }

        fn array_ledger(_shape: GemmShape, _config: u8, _tiling: &Tiling) -> MemStats {
            MemStats::default()
        }
    }

    fn pinned_charges_its_config<M: ArrayModel>() {
        let flexible = ConfigurableArray::<M>::new();
        assert_eq!(flexible.pinned_config(), None);
        for &config in M::CONFIGS {
            let backend = ConfigurableArray::<M>::pinned(config);
            assert_eq!(backend.pinned_config(), Some(config));
            for shape in SHAPES {
                let est = backend.gemm(shape).unwrap();
                let direct = flexible.estimate_pinned(shape, config);
                assert_eq!(est.time_ms.to_bits(), direct.time_ms.to_bits());
                assert!(est.cycles >= flexible.gemm(shape).unwrap().cycles);
            }
        }
        // Pinning at the flexible path's chosen config reproduces it.
        for shape in SHAPES {
            let chosen = ConfigurableArray::<M>::pinned(flexible.config_for(shape));
            assert_eq!(
                chosen.gemm(shape).unwrap().time_ms.to_bits(),
                flexible.gemm(shape).unwrap().time_ms.to_bits()
            );
        }
    }

    #[test]
    fn pinned_backend_charges_its_config_and_never_beats_flexible() {
        pinned_charges_its_config::<ArrayFlexModel>();
        pinned_charges_its_config::<FlexSaModel>();
    }

    fn pinning_never_beats_selection<M: ArrayModel>() {
        let backend = ConfigurableArray::<M>::new();
        let rc = backend.as_reconfigurable().unwrap();
        assert_eq!(rc.config_count(), M::CONFIGS.len());
        // A skew-dominated FC layer and a stream-dominated conv layer
        // want different configurations on both arrays, so the
        // dominance is strict for every pinned configuration.
        let shapes = [
            GemmShape::new(1, 4096, 4096),
            GemmShape::new(3025, 96, 363),
            GemmShape::new(16, 4096, 9216),
        ];
        let flexible = rc.flexible_cycles(&shapes);
        for config in 0..rc.config_count() {
            assert!(
                rc.pinned_cycles(&shapes, config) > flexible,
                "{}: pinned {config} matched the per-shape best",
                M::NAME
            );
        }
    }

    #[test]
    fn reconfigurable_pinning_never_beats_per_shape_selection() {
        pinning_never_beats_selection::<ArrayFlexModel>();
        pinning_never_beats_selection::<FlexSaModel>();
    }

    fn time_monotone_in_m<M: ArrayModel>() {
        let backend = ConfigurableArray::<M>::new();
        let mut last = 0.0;
        for m in [1usize, 8, 64, 512, 4096] {
            let t = backend.gemm(GemmShape::new(m, 1024, 1024)).unwrap().time_ms;
            assert!(t > last, "{}: m={m}: {t} not above {last}", M::NAME);
            last = t;
        }
    }

    #[test]
    fn time_is_monotone_in_m() {
        time_monotone_in_m::<ArrayFlexModel>();
        time_monotone_in_m::<FlexSaModel>();
    }

    fn names_distinct_and_prefixed<M: ArrayModel>() {
        assert_eq!(ConfigurableArray::<M>::new().name(), M::NAME);
        assert_eq!(M::PINNED_NAMES.len(), M::CONFIGS.len());
        assert_eq!(M::LABELS.len(), M::CONFIGS.len());
        let prefix = format!("{}-", M::NAME);
        for (i, &config) in M::CONFIGS.iter().enumerate() {
            let name = ConfigurableArray::<M>::pinned(config).name();
            assert!(name.starts_with(&prefix), "{name} lacks {prefix}");
            assert!(!M::PINNED_NAMES[..i].contains(&name), "{name} repeats");
            assert!(!M::LABELS[..i].contains(&M::LABELS[i]));
        }
    }

    #[test]
    fn pinned_names_are_distinct_and_prefixed() {
        names_distinct_and_prefixed::<ArrayFlexModel>();
        names_distinct_and_prefixed::<FlexSaModel>();
    }
}
