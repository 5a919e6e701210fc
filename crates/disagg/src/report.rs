//! Per-call records, exact five-phase spans, and run-level reports for
//! disaggregated serving.

use std::fmt;

use agentsim_metrics::{json, Fingerprint, Samples};
use agentsim_simkit::{SimDuration, SimTime};

use crate::autoscale::FlipDirection;

/// Everything the driver knows about one finished LLM call, across both
/// pools. Timestamps telescope: [`CallRecord::span`] partitions the
/// end-to-end latency exactly into queue / prefill / transfer / decode /
/// stall with no residual.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// The session (request) this call belongs to.
    pub session: u64,
    /// Replica (global index) that served the prompt — a prefill-pool
    /// member at routing time, or any replica in colocated mode.
    pub prefill_replica: u32,
    /// Replica (global index) that continued generation (`None` when the
    /// call finished on the prefill side: single-token outputs, or any
    /// call in colocated mode). Under pool autoscaling an index names
    /// the physical replica, not a within-pool slot — the same index can
    /// appear as a prefill server earlier in the run and a decode server
    /// later.
    pub decode_replica: Option<u32>,
    /// When the call entered the prefill replica's queue.
    pub arrived: SimTime,
    /// When the prefill replica first scheduled it.
    pub prefill_started: SimTime,
    /// When the first token was produced (prefill release, or completion
    /// for local calls).
    pub released: SimTime,
    /// When the migrated KV arrived and the call entered the decode
    /// replica's queue.
    pub decode_submitted: Option<SimTime>,
    /// When the decode replica first scheduled it (KV imported).
    pub decode_started: Option<SimTime>,
    /// When the last token was produced.
    pub finished: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Prompt tokens served from the prefill-side prefix cache.
    pub cached_tokens: u32,
    /// Tokens generated in total (both sides).
    pub output_tokens: u32,
    /// Wall time in prefill steps (prefill side only, by construction).
    pub prefill_time: SimDuration,
    /// Wall time in decode steps (decode side; or the serving replica in
    /// colocated mode).
    pub decode_time: SimDuration,
    /// Time the KV transfer spent queued behind earlier transfers on the
    /// destination's ingress link (part of the transfer phase).
    pub transfer_wait: SimDuration,
    /// KV bytes migrated (0 for local calls).
    pub kv_bytes: u64,
    /// Preemptions suffered on either side.
    pub preemptions: u32,
}

/// An exact five-phase partition of a call's end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallSpan {
    /// Waiting for admission (both pools).
    pub queue: SimDuration,
    /// In prefill steps.
    pub prefill: SimDuration,
    /// KV blocks on the wire (queueing + serialization + latency).
    pub transfer: SimDuration,
    /// In decode steps.
    pub decode: SimDuration,
    /// Admitted but not advancing (both pools).
    pub stall: SimDuration,
}

impl CallSpan {
    /// Sum of all phases — equals the call's end-to-end latency exactly.
    pub fn total(&self) -> SimDuration {
        self.queue + self.prefill + self.transfer + self.decode + self.stall
    }
}

impl CallRecord {
    /// Whether the call migrated to the decode pool.
    pub fn migrated(&self) -> bool {
        self.decode_replica.is_some()
    }

    /// End-to-end latency.
    pub fn e2e(&self) -> SimDuration {
        self.finished.saturating_since(self.arrived)
    }

    /// Time to first token. For migrated calls the first token only
    /// becomes servable once its KV (and the token) reach the decode
    /// replica, so TTFT includes the transfer; for local calls it is
    /// queue + prefill.
    pub fn ttft(&self) -> SimDuration {
        match self.decode_started {
            Some(started_d) => started_d.saturating_since(self.arrived),
            None => self.prefill_started.saturating_since(self.arrived) + self.prefill_time,
        }
    }

    /// Time per output token after the first (`None` for single-token
    /// outputs, which have no inter-token interval). This is inter-token
    /// *latency* — `(e2e - ttft) / (tokens - 1)` — so it includes
    /// scheduling stalls between tokens (a colocated replica's prefill
    /// bursts blocking decode), not just decode step wall time. That
    /// interference is precisely what disaggregation removes.
    pub fn tpot(&self) -> Option<SimDuration> {
        if self.output_tokens <= 1 {
            return None;
        }
        let after_first = self.e2e().saturating_sub(self.ttft());
        Some(after_first / (self.output_tokens as u64 - 1))
    }

    /// The exact five-phase partition of [`CallRecord::e2e`].
    ///
    /// Telescoping identities (all integer microseconds, no float
    /// residual): prefill-side queue is arrival→first-schedule, prefill
    /// is step wall time, prefill-side stall is the rest until release;
    /// transfer is release→decode-arrival; decode-side queue is
    /// arrival→first-schedule there, decode is step wall time, and
    /// decode-side stall absorbs the remainder.
    pub fn span(&self) -> CallSpan {
        let queue_p = self.prefill_started.saturating_since(self.arrived);
        match (self.decode_submitted, self.decode_started) {
            (Some(submitted_d), Some(started_d)) => {
                let stall_p = self
                    .released
                    .saturating_since(self.prefill_started)
                    .saturating_sub(self.prefill_time);
                let transfer = submitted_d.saturating_since(self.released);
                let queue_d = started_d.saturating_since(submitted_d);
                let stall_d = self
                    .finished
                    .saturating_since(started_d)
                    .saturating_sub(self.decode_time);
                CallSpan {
                    queue: queue_p + queue_d,
                    prefill: self.prefill_time,
                    transfer,
                    decode: self.decode_time,
                    stall: stall_p + stall_d,
                }
            }
            _ => {
                let stall = self
                    .finished
                    .saturating_since(self.prefill_started)
                    .saturating_sub(self.prefill_time + self.decode_time);
                CallSpan {
                    queue: queue_p,
                    prefill: self.prefill_time,
                    transfer: SimDuration::ZERO,
                    decode: self.decode_time,
                    stall,
                }
            }
        }
    }
}

/// One completed role flip under pool autoscaling.
///
/// Timestamps telescope: `requested` (controller decision) ≤ `drained`
/// (last in-flight request and inbound transfer gone) ≤ `completed`
/// (`drained` + the flip-cost gap; the replica serves its new role from
/// here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipRecord {
    /// The flipped replica (global index).
    pub replica: u32,
    /// Which way it flipped.
    pub direction: FlipDirection,
    /// When the controller requested the flip (drain start).
    pub requested: SimTime,
    /// When the replica finished draining.
    pub drained: SimTime,
    /// When the replica joined the target pool.
    pub completed: SimTime,
}

impl FlipRecord {
    /// Time spent draining in-flight work.
    pub fn drain_time(&self) -> SimDuration {
        self.drained.saturating_since(self.requested)
    }

    /// Idle reconfiguration gap (the flip-cost model's price).
    pub fn flip_gap(&self) -> SimDuration {
        self.completed.saturating_since(self.drained)
    }
}

/// What a disaggregated (or colocated-baseline) run measured.
#[derive(Debug, Clone)]
pub struct DisaggReport {
    /// Offered load (requests/second).
    pub offered_qps: f64,
    /// Prefill-pool replicas.
    pub prefill_replicas: u32,
    /// Decode-pool replicas (0 for the colocated baseline).
    pub decode_replicas: u32,
    /// Sessions completed.
    pub completed: u64,
    /// Sessions whose task was solved.
    pub solved: u64,
    /// Sessions shed by overload control. Always 0: this driver has no
    /// admission control yet, so every issued turn completes.
    pub abandoned: u64,
    /// Ops dropped unserved by overload control. Always 0, like
    /// `abandoned`.
    pub dropped: u64,
    /// Time from first arrival to last completion.
    pub makespan: SimDuration,
    /// Per-session end-to-end latencies (seconds).
    pub latencies: Samples,
    /// End-to-end latencies of agent sessions only (seconds).
    pub agent_latencies: Samples,
    /// End-to-end latencies of chatbot requests only (seconds).
    pub chatbot_latencies: Samples,
    /// Median session latency (seconds).
    pub p50_s: f64,
    /// 95th-percentile session latency (seconds).
    pub p95_s: f64,
    /// Every finished LLM call with its cross-pool record.
    pub calls: Vec<CallRecord>,
    /// Calls that migrated prefill→decode.
    pub migrated_calls: u64,
    /// KV bytes moved over the interconnect.
    pub transferred_bytes: u64,
    /// Total time transfers spent queued on ingress links.
    pub transfer_wait: SimDuration,
    /// Per-prefill-replica utilization over the makespan.
    pub prefill_utilization: Vec<f64>,
    /// Per-decode-replica utilization over the makespan.
    pub decode_utilization: Vec<f64>,
    /// Total GPU energy over the run, watt-hours (both pools).
    pub energy_wh: f64,
    /// Time-averaged KV bytes referenced by live sequences, summed over
    /// replicas.
    pub kv_avg_bytes: f64,
    /// Per-replica peak KV bytes referenced by live sequences, summed
    /// over replicas.
    pub kv_max_bytes: u64,
    /// Prefix-cache hit rate over prefill-side prompt tokens.
    pub kv_hit_rate: f64,
    /// KV blocks demoted out of HBM into the offload tiers, both pools.
    pub offload_demoted_blocks: u64,
    /// KV blocks promoted back into HBM from the offload tiers.
    pub offload_promoted_blocks: u64,
    /// Prompt tokens whose recompute was avoided by promotion.
    pub offload_promoted_tokens: u64,
    /// KV blocks that fell off the bottom tier entirely.
    pub offload_dropped_blocks: u64,
    /// Preemptions across both pools.
    pub preemptions: u64,
    /// Cached-block evictions across both pools.
    pub evictions: u64,
    /// Completed role flips, in completion order (empty without
    /// autoscaling).
    pub flips: Vec<FlipRecord>,
    /// Per-replica ingress-link counters, for replicas that received at
    /// least one migration (empty in colocated mode).
    pub links: Vec<LinkStats>,
}

/// Utilization and queueing counters for one replica's ingress link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStats {
    /// Global replica index the link feeds.
    pub replica: u32,
    /// Migrations scheduled onto the link.
    pub transfers: u64,
    /// Wire chunks those migrations shipped as (== `transfers` for
    /// serial transfers; higher when pipelined).
    pub chunks: u64,
    /// KV bytes moved.
    pub bytes: u64,
    /// Total wire time (seconds).
    pub busy_s: f64,
    /// Total head-of-line queueing delay (seconds).
    pub wait_s: f64,
    /// Wire time as a fraction of the run's makespan.
    pub utilization: f64,
}

impl DisaggReport {
    /// Achieved throughput in sessions/second.
    pub fn throughput(&self) -> f64 {
        let t = self.makespan.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.completed as f64 / t
        }
    }

    /// Per-call TTFT samples, seconds.
    pub fn ttft(&self) -> Samples {
        self.calls.iter().map(|c| c.ttft().as_secs_f64()).collect()
    }

    /// Per-call TPOT samples, seconds/token (multi-token calls only).
    pub fn tpot(&self) -> Samples {
        self.calls
            .iter()
            .filter_map(|c| c.tpot())
            .map(|d| d.as_secs_f64())
            .collect()
    }

    /// Goodput: calls per second meeting both SLOs (TTFT and TPOT;
    /// single-token calls only need the TTFT SLO).
    pub fn goodput(&self, ttft_slo_s: f64, tpot_slo_s: f64) -> f64 {
        let t = self.makespan.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        let good = self
            .calls
            .iter()
            .filter(|c| {
                c.ttft().as_secs_f64() <= ttft_slo_s
                    && c.tpot().is_none_or(|d| d.as_secs_f64() <= tpot_slo_s)
            })
            .count();
        good as f64 / t
    }

    /// Sums every call's five-phase span (seconds per phase). The totals
    /// partition the summed end-to-end time exactly.
    pub fn phase_totals(&self) -> [(&'static str, f64); 5] {
        let mut sums = [SimDuration::ZERO; 5];
        for call in &self.calls {
            let s = call.span();
            sums[0] += s.queue;
            sums[1] += s.prefill;
            sums[2] += s.transfer;
            sums[3] += s.decode;
            sums[4] += s.stall;
        }
        [
            ("queue", sums[0].as_secs_f64()),
            ("prefill", sums[1].as_secs_f64()),
            ("transfer", sums[2].as_secs_f64()),
            ("decode", sums[3].as_secs_f64()),
            ("stall", sums[4].as_secs_f64()),
        ]
    }

    /// Every field the golden table and the equality tests pin, floats
    /// as bit patterns. Call percentiles over an empty set (an all-shed
    /// run, chatbot TPOT) pin as NaN.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut ttft = self.ttft();
        let mut tpot = self.tpot();
        Fingerprint::new()
            .int("completed", self.completed)
            .int("solved", self.solved)
            .int("abandoned", self.abandoned)
            .float("p50_s", self.p50_s)
            .float("p95_s", self.p95_s)
            .float("ttft_p95_s", ttft.try_p95().unwrap_or(f64::NAN))
            .float("tpot_p99_s", tpot.try_percentile(99.0).unwrap_or(f64::NAN))
            .int("migrated_calls", self.migrated_calls)
            .int("transferred_bytes", self.transferred_bytes)
            .int("transfer_wait", self.transfer_wait.as_micros())
            .float("energy_wh", self.energy_wh)
            .float("kv_hit_rate", self.kv_hit_rate)
            .int("offload_demoted_blocks", self.offload_demoted_blocks)
            .int("offload_promoted_blocks", self.offload_promoted_blocks)
            .int("offload_promoted_tokens", self.offload_promoted_tokens)
            .int("offload_dropped_blocks", self.offload_dropped_blocks)
            .int("preemptions", self.preemptions)
    }

    /// Summary as one JSON object (valid per `agentsim_metrics::json`).
    pub fn to_json(&self) -> String {
        let mut ttft = self.ttft();
        let mut tpot = self.tpot();
        let phases = self.phase_totals();
        // Percentiles over possibly empty sets (an all-shed run has no
        // calls; chatbot runs have no multi-token TPOT samples) must
        // degrade to null, not panic.
        let json_f64 = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_owned(),
        };
        let mut out = format!(
            "{{\"offered_qps\":{},\"prefill_replicas\":{},\"decode_replicas\":{},\
             \"completed\":{},\"solved\":{},\"abandoned\":{},\"dropped\":{},\
             \"makespan_s\":{},\"throughput\":{},\
             \"p50_s\":{},\"p95_s\":{},\"ttft_p50_s\":{},\"ttft_p95_s\":{},\
             \"tpot_p50_s\":{},\"tpot_p99_s\":{},\"calls\":{},\"migrated_calls\":{},\
             \"transferred_bytes\":{},\"transfer_wait_s\":{},\"energy_wh\":{},\
             \"kv_hit_rate\":{},\"offload_demoted_blocks\":{},\
             \"offload_promoted_blocks\":{},\"offload_promoted_tokens\":{},\
             \"offload_dropped_blocks\":{},\
             \"preemptions\":{},\"flips\":{},\"phases_s\":{{",
            self.offered_qps,
            self.prefill_replicas,
            self.decode_replicas,
            self.completed,
            self.solved,
            self.abandoned,
            self.dropped,
            self.makespan.as_secs_f64(),
            self.throughput(),
            json_f64(Some(self.p50_s)),
            json_f64(Some(self.p95_s)),
            json_f64(ttft.try_median()),
            json_f64(ttft.try_p95()),
            json_f64(tpot.try_median()),
            json_f64(tpot.try_percentile(99.0)),
            self.calls.len(),
            self.migrated_calls,
            self.transferred_bytes,
            self.transfer_wait.as_secs_f64(),
            self.energy_wh,
            self.kv_hit_rate,
            self.offload_demoted_blocks,
            self.offload_promoted_blocks,
            self.offload_promoted_tokens,
            self.offload_dropped_blocks,
            self.preemptions,
            self.flips.len(),
        );
        for (i, (name, secs)) in phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{secs}"));
        }
        out.push_str("},\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"replica\":{},\"transfers\":{},\"chunks\":{},\"bytes\":{},\
                 \"busy_s\":{},\"wait_s\":{},\"utilization\":{}}}",
                l.replica, l.transfers, l.chunks, l.bytes, l.busy_s, l.wait_s, l.utilization
            ));
        }
        out.push_str("]}");
        debug_assert!(json::validate(&out).is_ok());
        out
    }
}

impl fmt::Display for DisaggReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ttft = self.ttft();
        let mut tpot = self.tpot();
        write!(
            f,
            "{}P+{}D qps {:.2} -> tput {:.2}, p95 {:.1}s, ttft p95 {:.2}s, \
             tpot p99 {:.0}ms, {} migrations ({:.1} MB)",
            self.prefill_replicas,
            self.decode_replicas,
            self.offered_qps,
            self.throughput(),
            self.p95_s,
            ttft.try_p95().unwrap_or(f64::NAN),
            tpot.try_percentile(99.0).unwrap_or(f64::NAN) * 1e3,
            self.migrated_calls,
            self.transferred_bytes as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn migrated_call() -> CallRecord {
        CallRecord {
            session: 0,
            prefill_replica: 0,
            decode_replica: Some(1),
            arrived: us(100),
            prefill_started: us(300),
            released: us(900),
            decode_submitted: Some(us(1_150)),
            decode_started: Some(us(1_200)),
            finished: us(2_500),
            prompt_tokens: 512,
            cached_tokens: 0,
            output_tokens: 9,
            prefill_time: SimDuration::from_micros(500),
            decode_time: SimDuration::from_micros(1_200),
            transfer_wait: SimDuration::from_micros(30),
            kv_bytes: 1 << 21,
            preemptions: 0,
        }
    }

    #[test]
    fn migrated_span_telescopes_exactly() {
        let c = migrated_call();
        let s = c.span();
        assert_eq!(s.queue, SimDuration::from_micros(200 + 50));
        assert_eq!(s.prefill, SimDuration::from_micros(500));
        assert_eq!(s.stall, SimDuration::from_micros(100 + 100));
        assert_eq!(s.transfer, SimDuration::from_micros(250));
        assert_eq!(s.decode, SimDuration::from_micros(1_200));
        assert_eq!(s.total(), c.e2e(), "no residual");
    }

    #[test]
    fn local_span_telescopes_exactly() {
        let mut c = migrated_call();
        c.decode_replica = None;
        c.decode_submitted = None;
        c.decode_started = None;
        c.released = c.finished;
        c.kv_bytes = 0;
        let s = c.span();
        assert_eq!(s.transfer, SimDuration::ZERO);
        assert_eq!(s.total(), c.e2e(), "no residual");
    }

    #[test]
    fn ttft_includes_transfer_for_migrated_calls() {
        let c = migrated_call();
        // arrival 100 -> decode_started 1200.
        assert_eq!(c.ttft(), SimDuration::from_micros(1_100));
        let mut local = migrated_call();
        local.decode_started = None;
        // queue 200 + prefill 500.
        assert_eq!(local.ttft(), SimDuration::from_micros(700));
    }

    #[test]
    fn tpot_averages_inter_token_latency() {
        let c = migrated_call();
        // After the first token: e2e 2400µs - ttft 1100µs = 1300µs over 8
        // inter-token gaps (integer µs division truncates).
        assert_eq!(c.tpot(), Some(SimDuration::from_micros(1_300 / 8)));
        // Stalls count: inter-token latency exceeds pure decode step time.
        assert!(c.tpot().unwrap() > c.decode_time / 8);
        let mut single = migrated_call();
        single.output_tokens = 1;
        assert_eq!(single.tpot(), None);
    }

    fn report() -> DisaggReport {
        DisaggReport {
            offered_qps: 2.0,
            prefill_replicas: 1,
            decode_replicas: 1,
            completed: 4,
            solved: 2,
            abandoned: 0,
            dropped: 0,
            makespan: SimDuration::from_secs(2),
            latencies: [1.0, 2.0].into_iter().collect(),
            agent_latencies: [1.0, 2.0].into_iter().collect(),
            chatbot_latencies: Samples::new(),
            p50_s: 1.5,
            p95_s: 2.0,
            calls: vec![migrated_call()],
            migrated_calls: 1,
            transferred_bytes: 1 << 21,
            transfer_wait: SimDuration::from_micros(30),
            prefill_utilization: vec![0.5],
            decode_utilization: vec![0.4],
            energy_wh: 1.0,
            kv_avg_bytes: 1e9,
            kv_max_bytes: 2_000_000_000,
            kv_hit_rate: 0.3,
            offload_demoted_blocks: 0,
            offload_promoted_blocks: 0,
            offload_promoted_tokens: 0,
            offload_dropped_blocks: 0,
            preemptions: 0,
            evictions: 0,
            flips: vec![],
            links: vec![LinkStats {
                replica: 1,
                transfers: 1,
                chunks: 4,
                bytes: 1 << 21,
                busy_s: 0.001,
                wait_s: 3e-5,
                utilization: 0.0005,
            }],
        }
    }

    #[test]
    fn flip_record_telescopes() {
        let f = FlipRecord {
            replica: 2,
            direction: FlipDirection::PrefillToDecode,
            requested: us(1_000),
            drained: us(3_500),
            completed: us(3_750),
        };
        assert_eq!(f.drain_time(), SimDuration::from_micros(2_500));
        assert_eq!(f.flip_gap(), SimDuration::from_micros(250));
    }

    #[test]
    fn goodput_applies_both_slos() {
        let r = report();
        assert_eq!(r.throughput(), 2.0);
        // TTFT 1.1ms, TPOT 150µs: generous SLOs admit the call.
        assert_eq!(r.goodput(1.0, 0.1), 0.5);
        // TTFT SLO of 1ms rejects it.
        assert_eq!(r.goodput(1e-3, 0.1), 0.0);
        // TPOT SLO of 0.1ms rejects it.
        assert_eq!(r.goodput(1.0, 1e-4), 0.0);
    }

    #[test]
    fn json_summary_is_valid_and_phases_partition() {
        let r = report();
        let text = r.to_json();
        json::validate(&text).unwrap();
        assert!(text.contains("\"transfer\":"));
        assert!(text.contains("\"links\":[{\"replica\":1,"));
        let total: f64 = r.phase_totals().iter().map(|(_, s)| s).sum();
        let e2e: f64 = r.calls.iter().map(|c| c.e2e().as_secs_f64()).sum();
        assert!((total - e2e).abs() < 1e-9);
        assert!(r.to_string().contains("1P+1D"));
    }
}
