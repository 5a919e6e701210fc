//! Aggregate results of an open-loop serving run.

use std::fmt;

use agentsim_metrics::{Fingerprint, Samples};
use agentsim_simkit::SimDuration;

/// What an open-loop serving experiment measured.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Offered load (requests/second).
    pub offered_qps: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests whose task was solved.
    pub solved: u64,
    /// Time from first arrival to last completion.
    pub makespan: SimDuration,
    /// Per-request end-to-end latencies (seconds).
    pub latencies: Samples,
    /// End-to-end latencies of agentic requests only (empty unless the
    /// workload contains agents).
    pub agent_latencies: Samples,
    /// End-to-end latencies of chatbot requests only (empty unless the
    /// workload contains chatbot traffic).
    pub chatbot_latencies: Samples,
    /// Median end-to-end latency (seconds).
    pub p50_s: f64,
    /// 95th-percentile end-to-end latency (seconds).
    pub p95_s: f64,
    /// Total GPU energy over the run, watt-hours.
    pub energy_wh: f64,
    /// GPU utilization over the makespan.
    pub utilization: f64,
    /// Time-averaged KV bytes referenced by live sequences.
    pub kv_avg_bytes: f64,
    /// Peak KV bytes referenced by live sequences.
    pub kv_max_bytes: u64,
    /// Prefix-cache hit rate over prompt tokens.
    pub kv_hit_rate: f64,
    /// Sequences preempted for KV pressure.
    pub preemptions: u64,
    /// Cached-block evictions (thrashing indicator).
    pub evictions: u64,
}

impl ServingReport {
    /// Achieved throughput in requests/second.
    pub fn throughput(&self) -> f64 {
        let t = self.makespan.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.completed as f64 / t
        }
    }

    /// Whether the system kept up with the offered load (achieved at
    /// least `fraction` of it).
    pub fn sustained(&self, fraction: f64) -> bool {
        self.throughput() >= self.offered_qps * fraction
    }

    /// Task accuracy among completed requests.
    pub fn accuracy(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.solved as f64 / self.completed as f64
        }
    }

    /// Every field the golden table and the equality tests pin, floats
    /// as bit patterns. A class median over an empty sample (no agent or
    /// no chatbot traffic) pins as NaN.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::new()
            .int("completed", self.completed)
            .int("solved", self.solved)
            .int("makespan", self.makespan.as_micros())
            .float("p50_s", self.p50_s)
            .float("p95_s", self.p95_s)
            .float("energy_wh", self.energy_wh)
            .float("utilization", self.utilization)
            .float("kv_avg_bytes", self.kv_avg_bytes)
            .int("kv_max_bytes", self.kv_max_bytes)
            .float("kv_hit_rate", self.kv_hit_rate)
            .int("preemptions", self.preemptions)
            .int("evictions", self.evictions)
            .float("agent_p50_s", median_or_nan(&self.agent_latencies))
            .float("chatbot_p50_s", median_or_nan(&self.chatbot_latencies))
    }
}

fn median_or_nan(samples: &Samples) -> f64 {
    samples.clone().try_median().unwrap_or(f64::NAN)
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qps {:.2} -> tput {:.2}, p50 {:.1}s p95 {:.1}s, util {:.0}%, hit {:.0}%, {} preempt",
            self.offered_qps,
            self.throughput(),
            self.p50_s,
            self.p95_s,
            self.utilization * 100.0,
            self.kv_hit_rate * 100.0,
            self.preemptions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServingReport {
        ServingReport {
            offered_qps: 2.0,
            completed: 100,
            solved: 40,
            makespan: SimDuration::from_secs(50),
            latencies: Samples::new(),
            agent_latencies: Samples::new(),
            chatbot_latencies: Samples::new(),
            p50_s: 1.0,
            p95_s: 5.0,
            energy_wh: 10.0,
            utilization: 0.8,
            kv_avg_bytes: 1e9,
            kv_max_bytes: 2_000_000_000,
            kv_hit_rate: 0.5,
            preemptions: 0,
            evictions: 3,
        }
    }

    #[test]
    fn throughput_and_sustained() {
        let r = report();
        assert!((r.throughput() - 2.0).abs() < 1e-12);
        assert!(r.sustained(0.9));
        assert!(!r.sustained(1.1));
    }

    #[test]
    fn accuracy_fraction() {
        assert!((report().accuracy() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("p95 5.0s"));
    }
}
