//! Property-based tests for pool autoscaling: arbitrary flip schedules
//! against arbitrary arrival patterns must never lose, duplicate, or
//! conjure work.
//!
//! Each case builds a random topology (pool sizes, load, workload kind,
//! flip-cost model) plus a random [`ScheduleController`] flip schedule
//! drawn via `prop_flat_map` (an entry count chooses how many entries to
//! draw), runs it to completion, and checks:
//!
//! 1. every request completes exactly once (the driver additionally
//!    asserts no KV sequence leaks and no transfer is left behind);
//! 2. KV-byte conservation: the link moved exactly the bytes the
//!    per-call records account for;
//! 3. the five-phase span partitions end-to-end latency exactly for
//!    every call, flips or no flips;
//! 4. completed flips telescope (requested ≤ drained ≤ completed, gap
//!    equal to the flip-cost model) and never exceed the schedule;
//! 5. the same configuration replays bit-identically.

use agentsim_disagg::{AutoscalePolicy, DisaggConfig, DisaggSim, DisaggWorkload, FlipDirection};
use agentsim_gpu::FlipCostModel;
use agentsim_simkit::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    prefill: u32,
    decode: u32,
    qps: f64,
    requests: u64,
    chatbot: bool,
    warm_flip: bool,
    seed: u64,
    schedule: Vec<(u64, bool)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    // The entry count drawn first parameterizes the schedule length —
    // exactly what `prop_flat_map` exists for.
    (0usize..6).prop_flat_map(|entries| {
        (
            (1u32..4, 1u32..4, 1u64..40),
            0.5f64..3.0,
            6u64..14,
            any::<bool>(),
            any::<bool>(),
            prop::collection::vec((0u64..30_000_000, any::<bool>()), entries..entries + 1),
        )
            .prop_map(
                |((prefill, decode, seed), qps, requests, chatbot, warm_flip, schedule)| Scenario {
                    prefill,
                    decode,
                    qps,
                    requests,
                    chatbot,
                    warm_flip,
                    seed,
                    schedule,
                },
            )
    })
}

fn run(s: &Scenario) -> agentsim_disagg::DisaggReport {
    let workload = if s.chatbot {
        DisaggWorkload::Chatbot
    } else {
        DisaggWorkload::react_hotpotqa()
    };
    let schedule: Vec<(SimTime, FlipDirection)> = s
        .schedule
        .iter()
        .map(|&(us, to_decode)| {
            (
                SimTime::from_micros(us),
                if to_decode {
                    FlipDirection::PrefillToDecode
                } else {
                    FlipDirection::DecodeToPrefill
                },
            )
        })
        .collect();
    let cfg = DisaggConfig::new(workload, s.qps, s.requests)
        .seed(s.seed)
        .pools(s.prefill, s.decode)
        .flip_cost(if s.warm_flip {
            FlipCostModel::warm()
        } else {
            FlipCostModel::zero()
        })
        .autoscale(AutoscalePolicy::Schedule(schedule));
    DisaggSim::new(cfg).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn flip_schedules_conserve_every_request_and_byte(s in scenario()) {
        let r = run(&s);
        // 1. Nothing lost, nothing double-completed. (`run` itself
        //    asserts session totals, zero outstanding transfers, zero
        //    live KV sequences, and per-engine KV invariants.)
        prop_assert_eq!(r.completed, s.requests);
        prop_assert_eq!(
            r.migrated_calls,
            r.calls.iter().filter(|c| c.migrated()).count() as u64
        );

        // 2. KV-byte conservation across however many flips occurred.
        prop_assert_eq!(
            r.transferred_bytes,
            r.calls.iter().map(|c| c.kv_bytes).sum::<u64>()
        );

        // 3. The five-phase span partitions e2e exactly for every call,
        //    and the transfer phase is nonzero only for migrated calls
        //    on a non-free link.
        for c in &r.calls {
            prop_assert_eq!(c.span().total(), c.e2e());
            if !c.migrated() {
                prop_assert_eq!(c.span().transfer, agentsim_simkit::SimDuration::ZERO);
            }
        }

        // 4. Completed flips telescope and follow the cost model.
        prop_assert!(r.flips.len() <= s.schedule.len());
        let gap = if s.warm_flip {
            FlipCostModel::warm().flip_time()
        } else {
            FlipCostModel::zero().flip_time()
        };
        for f in &r.flips {
            prop_assert!(f.requested <= f.drained);
            prop_assert!(f.drained <= f.completed);
            prop_assert_eq!(f.completed.saturating_since(f.drained), gap);
            prop_assert!(f.replica < s.prefill + s.decode);
        }
    }

    #[test]
    fn flip_schedules_replay_bit_identically(s in scenario()) {
        let a = run(&s);
        let b = run(&s);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.calls, b.calls);
        prop_assert_eq!(a.flips, b.flips);
    }
}
