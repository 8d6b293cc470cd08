//! A transparent [`Backend`] decorator for the traced run.
//!
//! It forwards every trait method to the wrapped backend unchanged and
//! counts GEMM calls and the time of calls that hit and missed; exact
//! miss totals come from the wrapped caches (see [`GemmCounters`]). It is
//! injected where the public API takes a backend
//! (`ExecutorBuilder::backend`, and through executors into
//! `ServeCluster::try_new`), so the simulated outputs of a traced run
//! are those of an untraced one.

use crate::trace::GemmCounters;
use sma_core::model::GemmEstimate;
use sma_runtime::backend::{
    Backend, CacheStats, IrregularEstimate, IrregularWork, Reconfigurable, RuntimeError,
};
use sma_tensor::GemmShape;
use std::sync::Arc;
use std::time::Instant;

/// See the module docs.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    counters: Arc<GemmCounters>,
}

impl TracedBackend {
    /// Wraps `inner`, reporting into `counters`.
    pub fn wrap(inner: Arc<dyn Backend>, counters: &Arc<GemmCounters>) -> Arc<dyn Backend> {
        counters.register(&inner);
        Arc::new(TracedBackend {
            inner,
            counters: Arc::clone(counters),
        })
    }
}

impl Backend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// A call is timed as a miss when the wrapped cache's miss counter
    /// moved during it. With workers sharing one backend, a concurrent
    /// hit can be timed as a miss; this splits time, not the miss total.
    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        let misses_before = self.inner.gemm_cache_stats().misses;
        let start = Instant::now();
        let out = self.inner.gemm(shape);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let missed = self.inner.gemm_cache_stats().misses > misses_before;
        self.counters.record(missed, ns);
        out
    }

    fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
        self.inner.irregular(work)
    }

    fn transfer_ms(&self, bytes: u64) -> f64 {
        self.inner.transfer_ms(bytes)
    }

    fn simd_mode_boost(&self) -> f64 {
        self.inner.simd_mode_boost()
    }

    fn applies_framework_overhead(&self) -> bool {
        self.inner.applies_framework_overhead()
    }

    fn gemm_cache_stats(&self) -> CacheStats {
        self.inner.gemm_cache_stats()
    }

    fn gemm_cache_len(&self) -> usize {
        self.inner.gemm_cache_len()
    }

    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        self.inner.as_reconfigurable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_models::zoo;
    use sma_runtime::backend::{ArrayFlexBackend, FlexSaBackend, SmaBackend, TpuHostBackend};
    use sma_runtime::Platform;

    /// Every trait method answers exactly as the wrapped backend does.
    #[test]
    fn delegates_every_method() {
        let shapes = [
            GemmShape::new(64, 64, 64),
            GemmShape::new(3025, 96, 363),
            GemmShape::new(1, 4096, 9216),
        ];
        let work = zoo::mask_rcnn()
            .layers()
            .iter()
            .find_map(IrregularWork::from_layer)
            .expect("Mask R-CNN has an irregular layer");
        let backends: [Arc<dyn Backend>; 4] = [
            Arc::new(SmaBackend::iso_area_3sma()),
            Arc::new(TpuHostBackend::new()),
            Arc::new(ArrayFlexBackend::new()),
            Arc::new(FlexSaBackend::new()),
        ];
        for inner in backends {
            let counters = Arc::new(GemmCounters::default());
            let traced = TracedBackend::wrap(Arc::clone(&inner), &counters);
            assert_eq!(traced.name(), inner.name());
            for &shape in &shapes {
                let direct = format!("{:?}", inner.gemm(shape));
                assert_eq!(format!("{:?}", traced.gemm(shape)), direct);
            }
            assert_eq!(
                format!("{:?}", traced.irregular(work)),
                format!("{:?}", inner.irregular(work))
            );
            assert_eq!(
                traced.transfer_ms(1 << 20).to_bits(),
                inner.transfer_ms(1 << 20).to_bits()
            );
            assert_eq!(
                traced.simd_mode_boost().to_bits(),
                inner.simd_mode_boost().to_bits()
            );
            assert_eq!(
                traced.applies_framework_overhead(),
                inner.applies_framework_overhead()
            );
            assert_eq!(traced.gemm_cache_stats(), inner.gemm_cache_stats());
            assert_eq!(traced.gemm_cache_len(), inner.gemm_cache_len());
            match (traced.as_reconfigurable(), inner.as_reconfigurable()) {
                (None, None) => {}
                (Some(t), Some(i)) => {
                    assert_eq!(t.config_count(), i.config_count());
                    for c in 0..i.config_count() {
                        assert_eq!(t.config_label(c), i.config_label(c));
                        assert_eq!(t.pinned_cycles(&shapes, c), i.pinned_cycles(&shapes, c));
                    }
                    assert_eq!(t.flexible_cycles(&shapes), i.flexible_cycles(&shapes));
                }
                _ => panic!("{} hides or invents reconfiguration", inner.name()),
            }
            // Each traced call followed a direct call of the same shape,
            // so every traced call hit.
            let snap = counters.snapshot();
            assert_eq!(snap.calls, shapes.len() as u64);
            assert_eq!(snap.misses, inner.gemm_cache_stats().misses);
            assert_eq!(snap.timed_misses, 0);
        }
        assert!(Platform::ArrayFlex.backend().as_reconfigurable().is_some());
    }

    #[test]
    fn counts_misses_on_a_cold_backend() {
        let counters = Arc::new(GemmCounters::default());
        let traced = TracedBackend::wrap(Arc::new(SmaBackend::iso_area_3sma()), &counters);
        let shape = GemmShape::new(128, 128, 128);
        let first = traced.gemm(shape).expect("SMA accepts every shape");
        let again = traced.gemm(shape).expect("SMA accepts every shape");
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        let snap = counters.snapshot();
        assert_eq!((snap.calls, snap.misses, snap.timed_misses), (2, 1, 1));
    }

    /// Two workers on one wrapped backend: the miss total is the cache's
    /// own, one per distinct shape, and wrapping the backend twice does
    /// not count it twice.
    #[test]
    fn shared_backend_misses_are_exact() {
        let counters = Arc::new(GemmCounters::default());
        let inner: Arc<dyn Backend> = Arc::new(SmaBackend::iso_area_3sma());
        let a = TracedBackend::wrap(Arc::clone(&inner), &counters);
        let b = TracedBackend::wrap(Arc::clone(&inner), &counters);
        let shapes: Vec<GemmShape> = (1..=32).map(|k| GemmShape::new(64, 64, 16 * k)).collect();
        std::thread::scope(|scope| {
            for backend in [&a, &b] {
                scope.spawn(|| {
                    for _ in 0..4 {
                        for &shape in &shapes {
                            backend.gemm(shape).expect("SMA accepts every shape");
                        }
                    }
                });
            }
        });
        let snap = counters.snapshot();
        assert_eq!(snap.calls, 2 * 4 * shapes.len() as u64);
        assert_eq!(snap.misses, shapes.len() as u64);
        assert!(snap.timed_misses >= snap.misses);
    }
}
