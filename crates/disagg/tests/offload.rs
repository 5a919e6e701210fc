//! KV offload pass-through for the disaggregated driver: the tiers
//! configured on `DisaggConfig::engine` must reach every replica engine,
//! surface in the aggregated report, stay bit-deterministic across
//! runs, and vanish completely at zero capacity.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_disagg::{DisaggConfig, DisaggSim, DisaggWorkload};
use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::{EngineConfig, OffloadConfig};
use agentsim_workloads::Benchmark;

/// A KV-constrained 1P+1D split under an agentic workload: enough
/// eviction pressure that the tiers see real traffic.
fn config(offload: Option<OffloadConfig>) -> DisaggConfig {
    let mut engine = EngineConfig::a100_llama8b().with_kv_fraction(0.05);
    if let Some(off) = offload {
        engine = engine.with_offload(off);
    }
    DisaggConfig::new(
        DisaggWorkload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        },
        6.0,
        32,
    )
    .seed(0xD15C)
    .engine(engine)
}

fn tiers(policy: EvictionPolicy) -> OffloadConfig {
    OffloadConfig::tiers(2048, 8192).with_policy(policy)
}

#[test]
fn offload_reaches_replicas_and_reports() {
    let plain = DisaggSim::new(config(None)).run();
    assert_eq!(plain.offload_demoted_blocks, 0);
    assert_eq!(plain.offload_promoted_tokens, 0);
    let tiered = DisaggSim::new(config(Some(tiers(EvictionPolicy::Lru)))).run();
    assert_eq!(
        tiered.completed, plain.completed,
        "offload must not change which sessions complete"
    );
    assert!(
        tiered.offload_demoted_blocks > 0,
        "a 0.05 kv-fraction pool must spill"
    );
    assert!(
        tiered.kv_hit_rate >= plain.kv_hit_rate,
        "promotion can only add reuse: {} < {}",
        tiered.kv_hit_rate,
        plain.kv_hit_rate
    );
}

#[test]
fn zero_capacity_tiers_match_no_offload_bit_for_bit() {
    let plain = DisaggSim::new(config(None)).run().fingerprint();
    let zero = DisaggSim::new(config(Some(OffloadConfig::tiers(0, 0))))
        .run()
        .fingerprint();
    assert_eq!(zero, plain);
}

#[test]
fn offloaded_runs_are_deterministic_across_runs() {
    for policy in [EvictionPolicy::Lru, EvictionPolicy::InvocationDistance] {
        let a = DisaggSim::new(config(Some(tiers(policy))))
            .run()
            .fingerprint();
        let b = DisaggSim::new(config(Some(tiers(policy))))
            .run()
            .fingerprint();
        assert_eq!(a, b, "{policy:?}: rerun diverged");
    }
}
