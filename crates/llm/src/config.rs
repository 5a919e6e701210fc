//! Engine configuration.

use agentsim_gpu::{ClusterSpec, LinkSpec};
use agentsim_kvcache::{EvictionPolicy, OffloadSpec, DEFAULT_BLOCK_SIZE};

/// Request admission order.
///
/// The paper's deployments use vLLM's FCFS; its Key Takeaway #7 calls for
/// *agent-aware* dispatching. [`SchedulerPolicy::DeepestFirst`] is that
/// sketch: requests carry a priority (the serving driver sets it to the
/// session's completed LLM-call count), so sessions deep in their
/// workflow — close to finishing and holding the most reusable cache
/// state — are admitted first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// First-come-first-served (vLLM default).
    #[default]
    Fcfs,
    /// Highest-priority first, FCFS within a priority level.
    DeepestFirst,
}

/// Which lifecycle stages of a request this engine executes.
///
/// Disaggregated serving (Splitwise-style) splits the fleet into a
/// prefill pool and a decode pool so compute-bound prefills stop stalling
/// the bandwidth-bound decode batch — the paper's central interference
/// pathology (its Figs. 5/13/14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineRole {
    /// Ordinary engine: prefills and decodes every request it admits.
    #[default]
    Colocated,
    /// Prefill pool member: releases each request at its first token
    /// ([`EngineEvent::Migrated`](crate::EngineEvent::Migrated)) instead
    /// of decoding it to completion. Single-token requests still complete
    /// locally — there is nothing left to decode elsewhere.
    Prefill,
    /// Decode pool member: admits mid-life requests with pre-populated KV
    /// via [`Engine::submit_prefilled`](crate::Engine::submit_prefilled).
    /// Plain submissions still work (it is a full engine), but a pure
    /// disaggregated driver never sends any.
    Decode,
}

impl EngineRole {
    /// Stable lowercase name (used by exporters and traces).
    pub fn name(self) -> &'static str {
        match self {
            EngineRole::Colocated => "colocated",
            EngineRole::Prefill => "prefill",
            EngineRole::Decode => "decode",
        }
    }
}

/// The model-capability class a replica serves.
///
/// Heterogeneous fleets group replicas into pools, each serving one tier;
/// cascade routing starts turns on [`ModelTier::Small`] and escalates hard
/// turns to [`ModelTier::Large`]. The tag is descriptive — it changes no
/// engine behaviour, only how the fleet layer routes across pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ModelTier {
    /// A small/cheap model (the 8B class).
    #[default]
    Small,
    /// A large/premium model (the 70B class).
    Large,
}

impl ModelTier {
    /// Stable lowercase name (used by exporters and reports).
    pub fn name(self) -> &'static str {
        match self {
            ModelTier::Small => "small",
            ModelTier::Large => "large",
        }
    }
}

/// KV offload tiers below HBM and the links that price their transfers.
///
/// When set on an [`EngineConfig`], the engine's block manager spills
/// evicted cached blocks into host DRAM (cascading to NVMe) instead of
/// destroying them, and restores an offloaded prefix on admission —
/// paying transfer time over `host_link`/`nvme_link` instead of
/// recompute. Demotes are asynchronous (they occupy the link but delay no
/// step); promotes gate the admitting prefill step, extending TTFT.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadConfig {
    /// Host-DRAM tier capacity in KV blocks.
    pub host_blocks: u32,
    /// NVMe tier capacity in KV blocks.
    pub nvme_blocks: u32,
    /// Eviction-victim ranking for HBM and both tiers.
    pub policy: EvictionPolicy,
    /// The HBM↔host transfer path.
    pub host_link: LinkSpec,
    /// The host↔NVMe transfer path (also charged for host-tier overflow
    /// spilling down).
    pub nvme_link: LinkSpec,
    /// Layer chunks each *promotion* ships as. With `1` (the default) a
    /// promote is one serial transfer that gates the admitting prefill
    /// end to end; higher counts pipeline the fetch against the prefill
    /// compute it unblocks, so only the non-overlapped residual lands in
    /// the admission's TTFT toll. Demotes stay serial either way.
    pub transfer_chunks: u32,
}

impl OffloadConfig {
    /// Tiers over the default physical links: PCIe DMA to host, NVMe
    /// below it, with the LRU baseline policy.
    pub fn tiers(host_blocks: u32, nvme_blocks: u32) -> Self {
        OffloadConfig {
            host_blocks,
            nvme_blocks,
            policy: EvictionPolicy::Lru,
            host_link: LinkSpec::pcie_host(),
            nvme_link: LinkSpec::nvme(),
            transfer_chunks: 1,
        }
    }

    /// Returns a copy shipping each promotion as up to `chunks` layer
    /// chunks pipelined against the admitted prefill. `1` is the serial
    /// (whole-footprint) toll.
    pub fn with_transfer_chunks(mut self, chunks: u32) -> Self {
        assert!(chunks >= 1, "transfer chunks must be >= 1");
        self.transfer_chunks = chunks;
        self
    }

    /// Returns a copy with the given eviction policy.
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with both links replaced by
    /// [`LinkSpec::zero_cost`] — offload with free transfers, isolating
    /// the capacity effect from the transfer toll.
    pub fn with_free_links(mut self) -> Self {
        self.host_link = LinkSpec::zero_cost();
        self.nvme_link = LinkSpec::zero_cost();
        self
    }

    /// The tier sizing/policy handed to the block manager.
    pub fn spec(&self) -> OffloadSpec {
        OffloadSpec {
            host_blocks: self.host_blocks,
            nvme_blocks: self.nvme_blocks,
            policy: self.policy,
        }
    }

    /// Validates the link specs.
    pub fn validate(&self) -> Result<(), String> {
        if self.host_link.bandwidth_bytes_per_s <= 0.0 {
            return Err("offload host link bandwidth must be positive".into());
        }
        if self.nvme_link.bandwidth_bytes_per_s <= 0.0 {
            return Err("offload nvme link bandwidth must be positive".into());
        }
        Ok(())
    }
}

/// Configuration of one serving engine replica.
///
/// # Example
///
/// ```
/// use agentsim_llm::EngineConfig;
///
/// let cfg = EngineConfig::a100_llama8b();
/// assert!(cfg.num_kv_blocks() > 1000, "a ~14 GiB pool holds many 16-token blocks");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Hardware + model replica description.
    pub cluster: ClusterSpec,
    /// Tokens per KV block (vLLM default 16).
    pub block_size: u32,
    /// Automatic prefix caching (vLLM `enable_prefix_caching`).
    pub prefix_caching: bool,
    /// Scheduler token budget per step (vLLM `max_num_batched_tokens`).
    pub max_batch_tokens: u32,
    /// Maximum concurrently running sequences (vLLM `max_num_seqs`).
    pub max_running: u32,
    /// Chunked prefill: co-schedule prefill chunks with decodes.
    pub chunked_prefill: bool,
    /// Request admission order.
    pub scheduler: SchedulerPolicy,
    /// Which request lifecycle stages this engine executes.
    pub role: EngineRole,
    /// Optional KV offload tiers below HBM (host DRAM / NVMe).
    pub offload: Option<OffloadConfig>,
    /// The model-capability class this replica serves (cascade routing).
    pub tier: ModelTier,
}

impl EngineConfig {
    /// The paper's default backend: one A100-40GB serving Llama-3.1-8B
    /// with prefix caching enabled.
    pub fn a100_llama8b() -> Self {
        EngineConfig {
            cluster: ClusterSpec::a100_llama8b(),
            block_size: DEFAULT_BLOCK_SIZE,
            prefix_caching: true,
            max_batch_tokens: 8192,
            max_running: 256,
            chunked_prefill: false,
            scheduler: SchedulerPolicy::Fcfs,
            role: EngineRole::Colocated,
            offload: None,
            tier: ModelTier::Small,
        }
    }

    /// The paper's large-model setup: eight A100-40GB serving
    /// Llama-3.1-70B (tensor parallel 8).
    pub fn a100x8_llama70b() -> Self {
        EngineConfig {
            cluster: ClusterSpec::a100x8_llama70b(),
            tier: ModelTier::Large,
            ..EngineConfig::a100_llama8b()
        }
    }

    /// One H100-80GB serving Llama-3.1-8B — a premium small-model replica.
    pub fn h100_llama8b() -> Self {
        EngineConfig {
            cluster: ClusterSpec::h100_llama8b(),
            ..EngineConfig::a100_llama8b()
        }
    }

    /// Four H100-80GB serving Llama-3.1-70B (tensor parallel 4) — the
    /// premium large-model tier for heterogeneous fleets.
    pub fn h100x4_llama70b() -> Self {
        EngineConfig {
            cluster: ClusterSpec::h100x4_llama70b(),
            tier: ModelTier::Large,
            ..EngineConfig::a100_llama8b()
        }
    }

    /// One L40S-48GB serving Llama-3.1-8B — the consumer-class cheap tier.
    pub fn l40s_llama8b() -> Self {
        EngineConfig {
            cluster: ClusterSpec::l40s_llama8b(),
            ..EngineConfig::a100_llama8b()
        }
    }

    /// Returns a copy with prefix caching toggled.
    pub fn with_prefix_caching(mut self, enabled: bool) -> Self {
        self.prefix_caching = enabled;
        self
    }

    /// Returns a copy with the KV pool scaled to `fraction` of the model
    /// weight size (the paper's Fig. 17 sweep: 0.1 … 2.0).
    pub fn with_kv_fraction(mut self, fraction: f64) -> Self {
        self.cluster = self.cluster.with_kv_memory_fraction(fraction);
        self
    }

    /// Returns a copy with chunked prefill toggled.
    pub fn with_chunked_prefill(mut self, enabled: bool) -> Self {
        self.chunked_prefill = enabled;
        self
    }

    /// Returns a copy with a different scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns a copy with a different engine role.
    pub fn with_role(mut self, role: EngineRole) -> Self {
        self.role = role;
        self
    }

    /// Returns a copy with KV offload tiers enabled.
    pub fn with_offload(mut self, offload: OffloadConfig) -> Self {
        self.offload = Some(offload);
        self
    }

    /// Bytes of KV cache stored per block.
    pub fn kv_bytes_per_block(&self) -> u64 {
        self.cluster.model.kv_bytes_per_token() * self.block_size as u64
    }

    /// Number of KV blocks the pool holds.
    pub fn num_kv_blocks(&self) -> u32 {
        (self.cluster.kv_pool_bytes() / self.kv_bytes_per_block()).max(1) as u32
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if the cluster is invalid or any knob is zero.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        if self.block_size == 0 {
            return Err("block_size must be positive".into());
        }
        if self.max_batch_tokens == 0 {
            return Err("max_batch_tokens must be positive".into());
        }
        if self.max_running == 0 {
            return Err("max_running must be positive".into());
        }
        if let Some(offload) = &self.offload {
            offload.validate()?;
            if !self.prefix_caching {
                return Err("KV offload requires prefix caching".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        EngineConfig::a100_llama8b().validate().unwrap();
        EngineConfig::a100x8_llama70b().validate().unwrap();
        EngineConfig::h100_llama8b().validate().unwrap();
        EngineConfig::h100x4_llama70b().validate().unwrap();
        EngineConfig::l40s_llama8b().validate().unwrap();
    }

    #[test]
    fn tiers_tag_the_preset_family() {
        assert_eq!(EngineConfig::a100_llama8b().tier, ModelTier::Small);
        assert_eq!(EngineConfig::h100_llama8b().tier, ModelTier::Small);
        assert_eq!(EngineConfig::l40s_llama8b().tier, ModelTier::Small);
        assert_eq!(EngineConfig::a100x8_llama70b().tier, ModelTier::Large);
        assert_eq!(EngineConfig::h100x4_llama70b().tier, ModelTier::Large);
        assert!(ModelTier::Small < ModelTier::Large);
        assert_eq!(ModelTier::Small.name(), "small");
        assert_eq!(ModelTier::Large.name(), "large");
    }

    #[test]
    fn default_pool_sizes_are_plausible() {
        // 8B: pool = 0.9 x 16 GB weights ≈ 14.5 GB over 128 KiB/token
        // blocks of 16 tokens (2 MiB/block) ≈ ~6.9k blocks.
        let cfg = EngineConfig::a100_llama8b();
        let blocks = cfg.num_kv_blocks();
        assert!((5_000..9_000).contains(&blocks), "blocks {blocks}");
        // That is ~110k cacheable tokens.
        let tokens = blocks * cfg.block_size;
        assert!(tokens > 80_000, "tokens {tokens}");
    }

    #[test]
    fn kv_fraction_sweep_shrinks_pool() {
        let full = EngineConfig::a100_llama8b().with_kv_fraction(2.0);
        let tiny = EngineConfig::a100_llama8b().with_kv_fraction(0.1);
        assert!(tiny.num_kv_blocks() * 10 <= full.num_kv_blocks() + 10);
    }

    #[test]
    fn builder_style_toggles() {
        let cfg = EngineConfig::a100_llama8b()
            .with_prefix_caching(false)
            .with_chunked_prefill(true);
        assert!(!cfg.prefix_caching);
        assert!(cfg.chunked_prefill);
    }

    #[test]
    fn offload_config_defaults_and_builders() {
        let off = OffloadConfig::tiers(1024, 4096);
        assert_eq!(off.policy, EvictionPolicy::Lru);
        assert_eq!(off.host_link.name, "pcie_host");
        assert_eq!(off.nvme_link.name, "nvme");
        let spec = off.spec();
        assert_eq!(spec.host_blocks, 1024);
        assert_eq!(spec.nvme_blocks, 4096);

        let off = off
            .with_policy(EvictionPolicy::InvocationDistance)
            .with_free_links();
        assert_eq!(off.policy, EvictionPolicy::InvocationDistance);
        assert_eq!(off.host_link.name, "zero_cost");
        assert_eq!(off.nvme_link.name, "zero_cost");

        let cfg = EngineConfig::a100_llama8b().with_offload(off);
        cfg.validate().unwrap();
    }

    #[test]
    fn offload_requires_prefix_caching() {
        let cfg = EngineConfig::a100_llama8b()
            .with_prefix_caching(false)
            .with_offload(OffloadConfig::tiers(16, 0));
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("prefix caching"), "{err}");
    }
}
