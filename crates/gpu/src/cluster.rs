//! Cluster specifications: how many GPUs serve one model replica.

use std::fmt;

use crate::model::ModelSpec;
use crate::spec::GpuSpec;

/// One model replica: a model sharded (tensor-parallel) across `gpu_count`
/// identical GPUs.
///
/// The paper serves the 8B model on one A100 and the 70B model on eight
/// (GCP `a2-highgpu-1g` / `a2-highgpu-8g`).
///
/// # Example
///
/// ```
/// use agentsim_gpu::ClusterSpec;
///
/// let c = ClusterSpec::a100x8_llama70b();
/// assert_eq!(c.gpu_count, 8);
/// assert!(c.kv_pool_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The GPU model used for every shard.
    pub gpu: GpuSpec,
    /// Number of GPUs in the tensor-parallel group.
    pub gpu_count: u32,
    /// The model served by this replica.
    pub model: ModelSpec,
    /// Fraction of post-weight HBM reserved for the KV cache pool
    /// (vLLM's `gpu_memory_utilization` analog). Default 0.9.
    pub kv_memory_fraction: f64,
    /// Per-step tensor-parallel synchronization cost in seconds per layer
    /// (all-reduce latency); zero when `gpu_count == 1`.
    pub tp_sync_per_layer_s: f64,
}

impl ClusterSpec {
    /// One A100-40GB serving Llama-3.1-8B — the paper's default setup.
    pub fn a100_llama8b() -> Self {
        ClusterSpec {
            gpu: GpuSpec::a100_40gb(),
            gpu_count: 1,
            model: ModelSpec::llama3_8b(),
            kv_memory_fraction: 0.9,
            tp_sync_per_layer_s: 0.0,
        }
    }

    /// Eight A100-40GB serving Llama-3.1-70B (tensor parallel 8).
    pub fn a100x8_llama70b() -> Self {
        ClusterSpec {
            gpu: GpuSpec::a100_40gb(),
            gpu_count: 8,
            model: ModelSpec::llama3_70b(),
            kv_memory_fraction: 0.9,
            tp_sync_per_layer_s: 20e-6,
        }
    }

    /// One H100-80GB serving Llama-3.1-8B — a premium small-model replica
    /// for heterogeneous fleets.
    pub fn h100_llama8b() -> Self {
        ClusterSpec {
            gpu: GpuSpec::h100_80gb(),
            gpu_count: 1,
            model: ModelSpec::llama3_8b(),
            kv_memory_fraction: 0.9,
            tp_sync_per_layer_s: 0.0,
        }
    }

    /// Four H100-80GB serving Llama-3.1-70B (tensor parallel 4) — the
    /// premium large-model tier: 141 GiB of weights fit in 320 GiB of HBM.
    pub fn h100x4_llama70b() -> Self {
        ClusterSpec {
            gpu: GpuSpec::h100_80gb(),
            gpu_count: 4,
            model: ModelSpec::llama3_70b(),
            kv_memory_fraction: 0.9,
            tp_sync_per_layer_s: 15e-6,
        }
    }

    /// One L40S-48GB serving Llama-3.1-8B — the consumer-class cheap tier.
    pub fn l40s_llama8b() -> Self {
        ClusterSpec {
            gpu: GpuSpec::l40s_48gb(),
            gpu_count: 1,
            model: ModelSpec::llama3_8b(),
            kv_memory_fraction: 0.9,
            tp_sync_per_layer_s: 0.0,
        }
    }

    /// Returns a copy with a different KV memory fraction (used by the
    /// paper's Fig. 17 KV-pool sweep).
    pub fn with_kv_memory_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction > 0.0,
            "kv memory fraction must be positive, got {fraction}"
        );
        self.kv_memory_fraction = fraction;
        self
    }

    /// Aggregate peak FLOP/s across the replica.
    pub fn total_flops(&self) -> f64 {
        self.gpu.peak_flops * self.gpu_count as f64
    }

    /// Aggregate HBM bandwidth across the replica.
    pub fn total_bandwidth(&self) -> f64 {
        self.gpu.hbm_bandwidth * self.gpu_count as f64
    }

    /// Aggregate HBM capacity across the replica.
    pub fn total_hbm_bytes(&self) -> u64 {
        self.gpu.hbm_bytes * self.gpu_count as u64
    }

    /// HBM left after weights, before the KV fraction is applied.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit on the cluster at all.
    pub fn free_after_weights(&self) -> u64 {
        let weights = self.model.weight_bytes();
        let total = self.total_hbm_bytes();
        assert!(
            weights < total,
            "{} ({} GiB) does not fit on {}x {}",
            self.model.name,
            weights >> 30,
            self.gpu_count,
            self.gpu.name
        );
        total - weights
    }

    /// Bytes available for the KV cache pool.
    ///
    /// `kv_memory_fraction` is expressed relative to the *weight size* when
    /// reproducing the paper's Fig. 17 ("reserved memory size relative to
    /// the LLM model weight size"), so values above 1.0 are allowed; the
    /// result is always capped by physically free HBM.
    pub fn kv_pool_bytes(&self) -> u64 {
        let by_fraction = (self.model.weight_bytes() as f64 * self.kv_memory_fraction) as u64;
        by_fraction.min(self.free_after_weights())
    }

    /// Per-decode-step tensor-parallel synchronization overhead in seconds.
    pub fn tp_sync_s(&self) -> f64 {
        if self.gpu_count <= 1 {
            0.0
        } else {
            self.tp_sync_per_layer_s * self.model.layers as f64
        }
    }

    /// Validates the composite specification.
    ///
    /// # Errors
    ///
    /// Returns a message if any component is invalid, `gpu_count == 0`, or
    /// the weights do not fit.
    pub fn validate(&self) -> Result<(), String> {
        self.gpu.validate()?;
        self.model.validate()?;
        if self.gpu_count == 0 {
            return Err("gpu_count must be at least 1".to_string());
        }
        if !(self.kv_memory_fraction.is_finite() && self.kv_memory_fraction > 0.0) {
            return Err(format!(
                "kv_memory_fraction must be positive, got {}",
                self.kv_memory_fraction
            ));
        }
        if self.model.weight_bytes() >= self.total_hbm_bytes() {
            return Err(format!(
                "{} does not fit on {}x {}",
                self.model.name, self.gpu_count, self.gpu.name
            ));
        }
        Ok(())
    }
}

impl fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x {} serving {}",
            self.gpu_count, self.gpu.name, self.model.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        ClusterSpec::a100_llama8b().validate().unwrap();
        ClusterSpec::a100x8_llama70b().validate().unwrap();
        ClusterSpec::h100_llama8b().validate().unwrap();
        ClusterSpec::h100x4_llama70b().validate().unwrap();
        ClusterSpec::l40s_llama8b().validate().unwrap();
    }

    #[test]
    fn heterogeneous_presets_differ_in_step_floor_inputs() {
        // A decode step's floor is weights / bandwidth: heterogeneous
        // pools only differ in step cost if the presets actually spread.
        let a100 = ClusterSpec::a100_llama8b();
        let h100 = ClusterSpec::h100_llama8b();
        let l40s = ClusterSpec::l40s_llama8b();
        assert!(h100.total_bandwidth() > a100.total_bandwidth());
        assert!(l40s.total_bandwidth() < a100.total_bandwidth());
        let b70 = ClusterSpec::h100x4_llama70b();
        assert!(b70.model.weight_bytes() < b70.total_hbm_bytes());
        assert!(b70.tp_sync_s() > 0.0);
    }

    #[test]
    fn kv_pool_is_bounded_by_free_hbm() {
        // 8B weights are ~16 GiB on a 40 GiB card: a 2.0x-weights pool
        // (32 GiB) exceeds the ~24 GiB free and must be capped.
        let c = ClusterSpec::a100_llama8b().with_kv_memory_fraction(2.0);
        assert_eq!(c.kv_pool_bytes(), c.free_after_weights());
        // A 0.1x pool fits comfortably.
        let small = ClusterSpec::a100_llama8b().with_kv_memory_fraction(0.1);
        assert!(small.kv_pool_bytes() < c.kv_pool_bytes());
    }

    #[test]
    fn seventy_b_needs_eight_gpus() {
        let mut c = ClusterSpec::a100x8_llama70b();
        c.gpu_count = 2;
        assert!(c.validate().is_err(), "141 GiB of weights on 80 GiB");
    }

    #[test]
    fn tp_sync_only_with_multiple_gpus() {
        assert_eq!(ClusterSpec::a100_llama8b().tp_sync_s(), 0.0);
        let c = ClusterSpec::a100x8_llama70b();
        assert!(c.tp_sync_s() > 0.0);
        assert!((c.tp_sync_s() - 80.0 * 20e-6).abs() < 1e-12);
    }

    #[test]
    fn totals_scale_with_gpu_count() {
        let one = ClusterSpec::a100_llama8b();
        let eight = ClusterSpec::a100x8_llama70b();
        assert_eq!(eight.total_flops(), 8.0 * one.total_flops());
        assert_eq!(eight.total_hbm_bytes(), 8 * one.total_hbm_bytes());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_fraction_rejected() {
        let _ = ClusterSpec::a100_llama8b().with_kv_memory_fraction(0.0);
    }
}
