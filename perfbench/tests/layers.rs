//! The traced run's two foundations: the twin loop is `ServingSim`
//! bit for bit, and the replays reproduce the engine they were captured
//! from (prefix-cache hits, step prices, offload link traffic).

use agentsim_llm::EngineConfig;
use agentsim_serving::{ServingConfig, ServingSim};
use perfbench::layers::slice;
use perfbench::replay::replay_engine;
use perfbench::spans::Tracer;
use perfbench::twin::{self, TwinPrint};
use perfbench::workloads::{pinned, Fingerprint, Workload, DEFAULT_SEED};

fn small(workload: Workload, seed: u64, turns: u64) -> ServingConfig {
    let mut cfg = slice(workload, seed);
    cfg.num_requests = turns;
    cfg
}

/// A slice under KV pressure, so the engine preempts and evicts.
fn pressured(seed: u64) -> ServingConfig {
    let mut cfg = small(Workload::FleetOpen, seed, 40);
    cfg.qps = 2.0;
    cfg.engine(EngineConfig::a100_llama8b().with_kv_fraction(0.05))
}

/// A slice under bursty load with a small step token budget, so
/// admission rounds overrun the budget.
fn bursty(seed: u64) -> ServingConfig {
    let mut cfg = small(Workload::FleetOpen, seed, 60);
    cfg.qps = 20.0;
    cfg.engine.max_batch_tokens = 1024;
    cfg
}

fn configs() -> Vec<(&'static str, ServingConfig)> {
    let mut out = Vec::new();
    for seed in [1, 7] {
        out.push(("fleet_open", small(Workload::FleetOpen, seed, 80)));
        out.push(("fleet_tiered", small(Workload::FleetTiered, seed, 120)));
        out.push((
            "disagg_pipelined",
            small(Workload::DisaggPipelined, seed, 60),
        ));
        out.push(("pressured", pressured(seed)));
        out.push(("bursty", bursty(seed)));
    }
    out
}

#[test]
fn twin_loop_reproduces_serving_sim() {
    for (name, cfg) in configs() {
        let reference = TwinPrint::of_report(&ServingSim::new(cfg.clone()).run());
        let traced = twin::run(&cfg, &mut Tracer::new(), false);
        let captured = twin::run(&cfg, &mut Tracer::new(), true);
        assert_eq!(traced.print, reference, "{name} seed {}", cfg.seed);
        assert_eq!(
            captured.print, reference,
            "{name} seed {} (capturing)",
            cfg.seed
        );
        assert_eq!(
            traced.events, captured.events,
            "{name}: observers change nothing"
        );
    }
}

#[test]
fn replay_reproduces_kv_hits_step_prices_and_links() {
    let (mut preempted, mut stalled, mut probed) = (false, false, false);
    for (name, cfg) in configs() {
        let captured = twin::run(&cfg, &mut Tracer::new(), true);
        let replayed = replay_engine(&cfg.engine, &captured.events_log, &captured.prompts)
            .unwrap_or_else(|e| panic!("{name} seed {}: {e}", cfg.seed));
        // Same hit and miss token counts, hence the same kv_hit_rate.
        assert_eq!(replayed.kv_tokens, captured.kv_tokens, "{name}");
        let (hit, miss) = replayed.kv_tokens;
        assert_eq!(
            (hit as f64 / (hit + miss) as f64).to_bits(),
            captured.print.kv_hit,
            "{name}: replayed hit rate"
        );
        assert_eq!(
            replayed.pricings, captured.steps,
            "{name}: one price per step"
        );
        if cfg.engine.offload.is_none() {
            // Without offload no promotion stalls a prefill: every priced
            // duration equals the recorded ended - started.
            assert_eq!(replayed.steps_exact, replayed.pricings, "{name}");
        } else {
            assert_eq!(
                replayed.steps_exact + replayed.steps_stalled,
                replayed.pricings
            );
            stalled |= replayed.steps_stalled > 0;
        }
        assert_eq!(
            replayed.links, captured.links,
            "{name}: offload link traffic"
        );
        preempted |= captured.print.preemptions > 0;
        probed |= replayed.probes > 0;
    }
    assert!(preempted, "some config must exercise the preemption path");
    assert!(stalled, "some config must exercise promotion stalls");
    assert!(probed, "some config must overrun a step's token budget");
}

#[test]
fn default_seed_matches_the_pinned_fingerprints() {
    for workload in [
        Workload::FleetOpen,
        Workload::FleetTiered,
        Workload::DisaggPipelined,
    ] {
        let report = workload.config(DEFAULT_SEED).build().run();
        assert_eq!(
            Fingerprint::of(&report).canonical(),
            pinned(workload),
            "{}",
            workload.name()
        );
    }
}
