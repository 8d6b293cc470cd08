//! How far the model sits from the paper's abstract: "up to 1.63x" of
//! 3-SMA over 4-TC and "23% less energy".
//!
//! Both are recomputed on every run from `Executor::kernel_study` over
//! `zoo::table2_models()` and `EnergyModel::volta()` (the Fig. 8
//! setup). They do not depend on the workload, so every workload
//! reports them.

use sma_energy::EnergyModel;
use sma_models::zoo;
use sma_runtime::{Executor, Platform};

/// The abstract's maximum 3-SMA speedup over 4-TC.
const PAPER_MAX_SPEEDUP: f64 = 1.63;
/// The abstract's energy saving of 3-SMA against 4-TC, percent.
const PAPER_ENERGY_SAVING_PCT: f64 = 23.0;

/// The model's figures and their distance from the paper's.
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    /// Largest 3-SMA/4-TC speedup over the Table II models.
    pub max_speedup: f64,
    /// Mean energy saving of 3-SMA against 4-TC, percent.
    pub mean_energy_saving_pct: f64,
}

impl Fidelity {
    /// Evaluates the model (a backend rejecting a Table II layer is an
    /// error).
    ///
    /// # Errors
    ///
    /// A backend rejected a layer.
    pub fn measure() -> Result<Self, String> {
        let model = EnergyModel::volta();
        let mut max_speedup = f64::MIN;
        let mut savings = Vec::new();
        for net in zoo::table2_models() {
            let run = |p: Platform| {
                Executor::kernel_study(p)
                    .try_run(&net)
                    .map_err(|e| format!("{p} rejected {}: {e}", net.name()))
            };
            let tc = run(Platform::GpuTensorCore)?;
            let sma3 = run(Platform::Sma3)?;
            max_speedup = max_speedup.max(tc.total_ms / sma3.total_ms);
            savings.push(1.0 - sma3.energy(&model).total() / tc.energy(&model).total());
        }
        Ok(Fidelity {
            max_speedup,
            mean_energy_saving_pct: savings.iter().sum::<f64>() / savings.len() as f64 * 100.0,
        })
    }

    /// Relative error of the maximum speedup, percent.
    pub fn speedup_err_pct(&self) -> f64 {
        (self.max_speedup - PAPER_MAX_SPEEDUP).abs() / PAPER_MAX_SPEEDUP * 100.0
    }

    /// Error of the mean energy saving, percentage points.
    pub fn energy_err_pp(&self) -> f64 {
        (self.mean_energy_saving_pct - PAPER_ENERGY_SAVING_PCT).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sits_at_the_documented_distance_from_the_paper() {
        let f = Fidelity::measure().expect("every Table II layer runs");
        assert!((f.max_speedup - 1.925).abs() < 5e-4, "{}", f.max_speedup);
        assert!((f.speedup_err_pct() - 18.1).abs() < 0.05);
        assert!((f.mean_energy_saving_pct - 28.2).abs() < 0.05);
        assert!((f.energy_err_pp() - 5.2).abs() < 0.05);
    }
}
