//! Acceptance tests for step-level observability: lifecycle spans must
//! reconstruct every request's latency exactly, agree with the engine's
//! own attribution, export valid Chrome-trace/JSONL documents, and cost
//! nothing in simulation semantics when attached.

use agentsim_kvcache::TokenBuf;
use agentsim_llm::{Engine, EngineConfig, LlmCompletion};
use agentsim_metrics::json;
use agentsim_serving::{
    chrome_trace, FleetConfig, FleetSim, Routing, ServingConfig, ServingSim, ServingWorkload,
    SpanRecorder,
};
use agentsim_simkit::{SimDuration, SimTime};

fn drain(engine: &mut Engine, mut now: SimTime) -> (Vec<LlmCompletion>, SimTime) {
    let mut done = Vec::new();
    while let Some(end) = engine.start_step_if_idle(now) {
        now = end;
        done.extend(engine.complete_step(now));
    }
    (done, now)
}

/// Spans agree with the engine's own per-completion attribution: the
/// prefill/decode components are identical, and queue + prefill + decode
/// + stall partitions the end-to-end latency with zero residue.
#[test]
fn spans_match_engine_attribution_exactly() {
    // Small KV pool so preemption and requeue paths are exercised too.
    let mut engine = Engine::new(EngineConfig::a100_llama8b().with_kv_fraction(0.03));
    let recorder = SpanRecorder::new();
    engine.set_observer(Box::new(recorder.clone()));
    for i in 0..8u64 {
        engine.submit(SimTime::ZERO, TokenBuf::from_segment(i, 900), 120, i);
    }
    let (completions, _) = drain(&mut engine, SimTime::ZERO);
    assert_eq!(completions.len(), 8);

    let spans = recorder.spans();
    assert!(spans.iter().map(|s| s.preemptions).sum::<u32>() > 0);
    for c in &completions {
        let s = &spans[c.id.0 as usize];
        assert_eq!(s.prefill_time, c.prefill_time, "{}", c.id);
        assert_eq!(s.decode_time, c.decode_time, "{}", c.id);
        assert_eq!(s.initial_queue_time(), c.queue_time(), "{}", c.id);
        assert_eq!(s.preemptions, c.preemptions, "{}", c.id);
        assert_eq!(s.output_tokens, c.output_tokens, "{}", c.id);
        assert_eq!(s.cached_tokens, c.cached_tokens, "{}", c.id);
        assert_eq!(s.e2e(), Some(c.e2e_latency()), "{}", c.id);
        // The partition invariant: nothing about the request's lifetime
        // is unaccounted for.
        assert_eq!(s.attributed(), c.e2e_latency(), "{}", c.id);
    }
}

/// The headline acceptance check: a serving run with an observer
/// attached yields a Chrome-trace JSON whose spans reconstruct, for
/// every request, queue/prefill/decode/stall wall time summing to the
/// request's end-to-end latency.
#[test]
fn serving_trace_spans_reconstruct_e2e_latency() {
    let cfg = ServingConfig::new(ServingWorkload::react_hotpotqa(), 2.0, 12).seed(11);
    let mut sim = ServingSim::new(cfg);
    let recorder = sim.attach_recorder();
    let report = sim.run();
    assert_eq!(report.completed, 12);

    let spans = recorder.spans();
    assert!(spans.len() >= 12, "agents issue at least one call each");
    for s in &spans {
        assert!(s.is_complete(), "{}", s.id);
        // Exact in integer microseconds…
        assert_eq!(s.attributed(), s.e2e().unwrap(), "{}", s.id);
        // …and therefore within float tolerance in seconds.
        let sum = (s.queue_time + s.prefill_time + s.decode_time + s.stall_time).as_secs_f64();
        assert!(
            (sum - s.e2e().unwrap().as_secs_f64()).abs() < 1e-9,
            "{}",
            s.id
        );
        // Segments tile [submitted, finished] with no gaps or overlaps.
        let mut cursor = s.submitted;
        for seg in &s.segments {
            assert_eq!(seg.start, cursor, "{}: gap before {:?}", s.id, seg.phase);
            assert!(seg.end > seg.start);
            cursor = seg.end;
        }
        assert_eq!(cursor, s.finished.unwrap(), "{}", s.id);
    }

    // Both exporters produce well-formed documents.
    json::validate(&recorder.chrome_trace()).unwrap();
    for line in recorder.events_jsonl().lines() {
        json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

/// Attaching an observer must not perturb simulation results.
#[test]
fn observer_does_not_change_serving_results() {
    let cfg = || ServingConfig::new(ServingWorkload::react_hotpotqa(), 2.0, 10).seed(5);
    let plain = ServingSim::new(cfg()).run();
    let mut observed_sim = ServingSim::new(cfg());
    let _recorder = observed_sim.attach_recorder();
    let observed = observed_sim.run();
    assert_eq!(plain.fingerprint(), observed.fingerprint());
}

/// Fleet-wide tracing: one recorder per replica, merged into a single
/// trace with one process per replica; every replica's spans hold the
/// partition invariant.
#[test]
fn fleet_recorders_cover_every_replica() {
    let cfg = FleetConfig::react_hotpotqa(3, Routing::RoundRobin, 2.0, 12).seed(9);
    let mut sim = FleetSim::new(cfg);
    let recorders = sim.attach_recorders();
    assert_eq!(recorders.len(), 3);
    let report = sim.run();
    assert_eq!(report.completed, 12);

    let mut total_spans = 0;
    for r in &recorders {
        for s in r.spans() {
            assert!(s.is_complete());
            assert_eq!(s.attributed(), s.e2e().unwrap());
            total_spans += 1;
        }
    }
    // Round-robin spreads the calls: every replica saw some.
    assert!(recorders.iter().all(|r| !r.spans().is_empty()));
    assert!(total_spans >= 12);

    let labels: Vec<String> = (0..3).map(|i| format!("replica{i}")).collect();
    let pairs: Vec<(&str, &SpanRecorder)> = labels
        .iter()
        .map(String::as_str)
        .zip(recorders.iter())
        .collect();
    let trace = chrome_trace(&pairs);
    json::validate(&trace).unwrap();
    for pid in 0..3 {
        assert!(trace.contains(&format!("\"pid\":{pid}")));
    }
}

/// Sanity on phase semantics: at light load a request barely queues,
/// under a burst the same workload queues and stalls measurably.
#[test]
fn phase_split_reflects_load() {
    let light = {
        let mut sim =
            ServingSim::new(ServingConfig::new(ServingWorkload::Chatbot, 0.05, 6).seed(2));
        let r = sim.attach_recorder();
        sim.run();
        r
    };
    let heavy = {
        let mut sim =
            ServingSim::new(ServingConfig::new(ServingWorkload::Chatbot, 20.0, 6).seed(2));
        let r = sim.attach_recorder();
        sim.run();
        r
    };
    let total_queue = |r: &SpanRecorder| {
        r.spans()
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.queue_time)
    };
    assert!(
        total_queue(&heavy) > total_queue(&light),
        "burst arrivals must queue more: heavy {:?} vs light {:?}",
        total_queue(&heavy),
        total_queue(&light)
    );
}
