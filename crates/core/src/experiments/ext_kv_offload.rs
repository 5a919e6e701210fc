//! Extension: KV offload to host DRAM and NVMe with invocation-distance
//! eviction. The paper's KV sections (Figs. 12, 16, 17) show agentic
//! contexts outgrowing HBM and thrashing the prefix cache; the serving
//! fix every production stack reaches for is a memory hierarchy — spill
//! cold KV down to host DRAM, overflow to NVMe, and restore it over the
//! PCIe/NVMe links instead of recomputing prefill. Agent serving makes
//! the hierarchy unusually effective because eviction does not have to
//! guess: the session layer *knows* when a context returns — a tool
//! call's completion time, a closed-loop user's think time — so the
//! cache can rank victims by predicted next-invocation distance (an
//! approximation of Belady's OPT) instead of recency.
//!
//! This experiment sweeps concurrent closed-loop multi-turn users on an
//! HBM-constrained fleet, with each user's conversation carried across
//! turns (turn N+1 re-submits turn N's full context as its prefix), and
//! measures how many users the fleet sustains before TTFT p95 crosses
//! an SLO — at iso-HBM — under three arms: no offload, offload with LRU
//! eviction, and offload with invocation-distance eviction.

use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::OffloadConfig;
use agentsim_metrics::Table;
use agentsim_serving::{ClientModel, FleetConfig, FleetReport, FleetSim, Routing};
use agentsim_simkit::SimDuration;

use crate::figure::{FigureResult, Scale};

/// Fleet size: two replicas so session-affinity routing and per-replica
/// pool pressure are both in play.
const REPLICAS: u32 = 2;

/// HBM share granted to the KV pool: large enough that any single
/// carried context fits, small enough that concurrent users thrash it.
const KV_FRACTION: f64 = 0.25;

/// Closed-loop think time between a user's turns. Long enough that a
/// recency-ranked cache has evicted the context by the time it returns —
/// exactly the window the invocation-distance hint closes.
const THINK: SimDuration = SimDuration::from_secs(30);

/// Turns per user: each conversation carries four turns of context, so
/// late turns re-submit multi-thousand-token prefixes.
const TURNS_PER_USER: u64 = 4;

/// TTFT p95 service-level objective defining "capacity": the largest
/// swept concurrency whose p95 stays at or under this is the arm's
/// supported user count.
const TTFT_SLO_S: f64 = 1.0;

/// Concurrent-user sweep. The no-offload arm crosses the SLO in the
/// middle of this range; the offload arms near or past the end.
const USERS: [u32; 6] = [4, 8, 12, 16, 20, 24];

/// Offload tiers in KV blocks (iso-HBM across arms: only the tiers and
/// their links are added, never more HBM).
fn tiers(policy: EvictionPolicy) -> OffloadConfig {
    OffloadConfig::tiers(4096, 16384).with_policy(policy)
}

fn arm_config(scale: &Scale, users: u32, offload: Option<OffloadConfig>) -> FleetConfig {
    let turns = users as u64 * TURNS_PER_USER;
    let mut config = FleetConfig::react_hotpotqa(REPLICAS, Routing::SessionAffinity, 2.0, turns)
        .seed(scale.seed)
        .client(ClientModel::ClosedLoop {
            concurrency: users,
            think_time: THINK,
        })
        .with_context_carry()
        .map_engines(|e| e.with_kv_fraction(KV_FRACTION));
    if let Some(off) = offload {
        config = config.map_engines(|e| e.with_offload(off.clone()));
    }
    config
}

fn run_arm(scale: &Scale, users: u32, offload: Option<OffloadConfig>) -> FleetReport {
    FleetSim::new(arm_config(scale, users, offload)).run()
}

/// Largest swept concurrency whose TTFT p95 meets the SLO, scanning from
/// the top so a non-monotonic blip below capacity cannot inflate it.
fn capacity(points: &[(u32, FleetReport)]) -> u32 {
    points
        .iter()
        .rev()
        .find(|(_, r)| r.ttft_p95_s <= TTFT_SLO_S)
        .map(|(u, _)| *u)
        .unwrap_or(0)
}

/// Sweeps concurrent closed-loop users across the three arms and compares
/// supported capacity at the TTFT SLO, at iso-HBM.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_kv_offload",
        "Extension: KV offload (HBM→host→NVMe) with invocation-distance eviction",
    );
    let arms: [(&str, Option<OffloadConfig>); 3] = [
        ("no-offload", None),
        ("offload-lru", Some(tiers(EvictionPolicy::Lru))),
        (
            "offload-distance",
            Some(tiers(EvictionPolicy::InvocationDistance)),
        ),
    ];
    let mut table = Table::with_columns(&[
        "users",
        "arm",
        "ttft p95 s",
        "kv hit",
        "p95 s",
        "demoted",
        "promoted tok",
    ]);
    let mut sweeps: Vec<Vec<(u32, FleetReport)>> = vec![Vec::new(); arms.len()];
    for &users in &USERS {
        for (i, (name, offload)) in arms.iter().enumerate() {
            let report = run_arm(scale, users, offload.clone());
            table.row(vec![
                format!("{users}"),
                name.to_string(),
                format!("{:.3}", report.ttft_p95_s),
                format!("{:.3}", report.kv_hit_rate),
                format!("{:.2}", report.p95_s),
                format!("{}", report.offload_demoted_blocks),
                format!("{}", report.offload_promoted_tokens),
            ]);
            sweeps[i].push((users, report));
        }
    }
    result.table(
        &format!(
            "ReAct/HotpotQA, {REPLICAS} replicas at {:.0}% KV fraction (iso-HBM), \
             closed-loop users with {:.0}s think time, {TURNS_PER_USER} carried \
             turns per conversation; capacity = most users with TTFT p95 ≤ {TTFT_SLO_S}s",
            KV_FRACTION * 100.0,
            THINK.as_secs_f64(),
        ),
        table,
    );

    let plain_cap = capacity(&sweeps[0]);
    let lru_cap = capacity(&sweeps[1]);
    let dist_cap = capacity(&sweeps[2]);
    let edge = USERS[USERS.len() - 1];
    let plain_edge = &sweeps[0].last().expect("non-empty sweep").1;
    let lru_edge = &sweeps[1].last().expect("non-empty sweep").1;
    let dist_edge = &sweeps[2].last().expect("non-empty sweep").1;

    result.check(
        "offload-extends-user-capacity-1p5x-at-iso-hbm",
        plain_cap > 0 && dist_cap as f64 >= 1.5 * plain_cap as f64,
        format!(
            "capacity at TTFT p95 ≤ {TTFT_SLO_S}s: no-offload {plain_cap} users, \
             offload-distance {dist_cap} users ({:.1}×) — same HBM, the extra \
             users live in host DRAM and NVMe",
            dist_cap as f64 / plain_cap as f64
        ),
    );
    result.check(
        "distance-hints-beat-blind-lru-at-the-edge",
        dist_cap >= lru_cap && dist_edge.ttft_p95_s < lru_edge.ttft_p95_s,
        format!(
            "at {edge} users: distance TTFT p95 {:.3}s vs LRU {:.3}s (capacity \
             {dist_cap} vs {lru_cap}) — knowing when a context returns beats \
             guessing from recency",
            dist_edge.ttft_p95_s, lru_edge.ttft_p95_s
        ),
    );
    result.check(
        "tiers-absorb-the-thrash",
        dist_edge.offload_demoted_blocks > 0
            && dist_edge.offload_promoted_tokens > 0
            && dist_edge.kv_hit_rate > plain_edge.kv_hit_rate,
        format!(
            "at {edge} users the distance arm demoted {} blocks, restored {} \
             tokens without recompute, and held a {:.3} hit rate vs {:.3} bare",
            dist_edge.offload_demoted_blocks,
            dist_edge.offload_promoted_tokens,
            dist_edge.kv_hit_rate,
            plain_edge.kv_hit_rate
        ),
    );
    result.check(
        "offload-never-changes-what-completes",
        sweeps[1]
            .iter()
            .chain(sweeps[2].iter())
            .zip(sweeps[0].iter().chain(sweeps[0].iter()))
            .all(|((_, tiered), (_, plain))| tiered.completed == plain.completed),
        "the hierarchy trades recompute for transfers; every turn still finishes".to_string(),
    );

    // Degenerate tiers: zero capacity in both must reproduce the
    // no-offload arm bit for bit (the hierarchy retains nothing and
    // records no transfers).
    let mid = USERS[USERS.len() / 2];
    let plain_mid = sweeps[0]
        .iter()
        .find(|(u, _)| *u == mid)
        .map(|(_, r)| r)
        .expect("mid point swept");
    let zero = run_arm(scale, mid, Some(OffloadConfig::tiers(0, 0)));
    result.check(
        "zero-capacity-tiers-recover-the-no-offload-run",
        zero.ttft_p95_s.to_bits() == plain_mid.ttft_p95_s.to_bits()
            && zero.p95_s.to_bits() == plain_mid.p95_s.to_bits()
            && zero.kv_hit_rate.to_bits() == plain_mid.kv_hit_rate.to_bits()
            && zero.offload_demoted_blocks == 0
            && zero.offload_host_bytes == 0,
        format!(
            "tiers(0, 0) at {mid} users: TTFT p95 bits {:016x} match no-offload",
            zero.ttft_p95_s.to_bits()
        ),
    );

    // Determinism at the capacity edge: demote/promote traffic, link
    // queueing, and hint-driven eviction replay bit-identically run over
    // run.
    let again = run_arm(scale, edge, Some(tiers(EvictionPolicy::InvocationDistance)));
    result.check(
        "offload-path-is-bit-deterministic",
        dist_edge.ttft_p95_s.to_bits() == again.ttft_p95_s.to_bits()
            && dist_edge.kv_hit_rate.to_bits() == again.kv_hit_rate.to_bits()
            && dist_edge.offload_demoted_blocks == again.offload_demoted_blocks
            && dist_edge.offload_promoted_tokens == again.offload_promoted_tokens,
        format!(
            "TTFT p95 bits {:016x}: a rerun reproduces the edge-point report \
             exactly",
            dist_edge.ttft_p95_s.to_bits()
        ),
    );

    // Promotion overlap: price each restore as a chunked train pipelined
    // against the admitting prefill (the same layer-wise model the
    // disaggregated driver uses for migrations) instead of one serial
    // transfer stalling ahead of it. The admission toll shrinks to the
    // non-overlapped residual.
    let dist_mid = sweeps[2]
        .iter()
        .find(|(u, _)| *u == mid)
        .map(|(_, r)| r)
        .expect("mid point swept");
    let chunked = run_arm(
        scale,
        mid,
        Some(tiers(EvictionPolicy::InvocationDistance).with_transfer_chunks(32)),
    );
    result.check(
        "chunked-promotions-overlap-the-restore-stall",
        chunked.completed == dist_mid.completed
            && chunked.offload_promoted_tokens > 0
            && chunked.ttft_p95_s < dist_mid.ttft_p95_s,
        format!(
            "at {mid} users, pricing restores as 32-chunk trains overlapped \
             with the admitting prefill cuts TTFT p95 from {:.4}s to {:.4}s \
             ({} tokens still restored without recompute) — the serial arm \
             pays the whole PCIe trip before the first token, the chunked arm \
             only the residual past the prefill window",
            dist_mid.ttft_p95_s, chunked.ttft_p95_s, chunked.offload_promoted_tokens
        ),
    );

    result.note(format!(
        "At iso-HBM the bare fleet supports {plain_cap} concurrent multi-turn \
         users before TTFT p95 crosses {TTFT_SLO_S}s: every context that falls \
         out of the {:.0}% pool is re-prefilled from scratch after the user's \
         think time. Spilling evictions to host DRAM and NVMe lifts capacity to \
         {lru_cap} users under LRU and {dist_cap} under invocation-distance \
         eviction ({:.1}×), because the session layer tells the cache when each \
         context returns — tool-call wake times and closed-loop think times — \
         so the blocks still resident when a user comes back are the ones that \
         were about to be needed, not merely the ones touched last.",
        KV_FRACTION * 100.0,
        dist_cap as f64 / plain_cap.max(1) as f64,
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let r = run(&Scale::quick());
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
