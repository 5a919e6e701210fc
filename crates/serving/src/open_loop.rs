//! Shared-replica serving simulation driven by a pluggable client model.
//!
//! Mirrors the paper's §IV-C methodology: requests arrive following the
//! configured [`ClientModel`] (open-loop Poisson by default), each served
//! by an asynchronous worker that walks the agent workflow; all workers'
//! LLM calls are batched by the shared engine (continuous batching with
//! FCFS admission).
//!
//! There is no event loop here: a [`ServingSim`] is the disaggregated
//! driver's colocated baseline with one replica
//! ([`DisaggConfig::colocated`]), and its [`ServingReport`] is read off
//! that run's [`DisaggReport`].

use agentsim_disagg::{DisaggConfig, DisaggReport, DisaggSim};
use agentsim_llm::EngineConfig;
use agentsim_session::ClientModel;

use crate::report::ServingReport;

/// What kind of traffic the server receives: the disaggregated driver's
/// workload enum, under the serving API's name for it.
pub use agentsim_disagg::DisaggWorkload as ServingWorkload;

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The replica's engine configuration.
    pub engine: EngineConfig,
    /// Traffic description.
    pub workload: ServingWorkload,
    /// Offered load, requests per second (open-loop clients only;
    /// closed-loop load is set by population and think time).
    pub qps: f64,
    /// Turns to issue.
    pub num_requests: u64,
    /// Root seed.
    pub seed: u64,
    /// Who submits the turns, and when.
    pub client: ClientModel,
}

impl ServingConfig {
    /// A small default run: the given workload under an open-loop
    /// Poisson client at `qps`.
    pub fn new(workload: ServingWorkload, qps: f64, num_requests: u64) -> Self {
        agentsim_session::validate_load(qps, num_requests);
        ServingConfig {
            engine: EngineConfig::a100_llama8b(),
            workload,
            qps,
            num_requests,
            seed: 0,
            client: ClientModel::OpenLoopPoisson,
        }
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the client model.
    pub fn client(mut self, client: ClientModel) -> Self {
        self.client = client;
        self
    }
}

/// The serving simulator. Create with [`ServingSim::new`] and consume
/// with [`ServingSim::run`].
#[derive(Debug)]
pub struct ServingSim {
    sim: DisaggSim,
}

impl ServingSim {
    /// Builds the simulator (the first arrivals are scheduled; the rest
    /// chain lazily as the run progresses).
    pub fn new(config: ServingConfig) -> Self {
        let ServingConfig {
            engine,
            workload,
            qps,
            num_requests,
            seed,
            client,
        } = config;
        let config = DisaggConfig::colocated(workload, 1, qps, num_requests)
            .seed(seed)
            .engine(engine)
            .client(client);
        ServingSim {
            sim: DisaggSim::new(config),
        }
    }

    /// Attaches a fresh [`crate::SpanRecorder`] as the engine's observer
    /// and returns a handle to read spans/series/exports after
    /// [`ServingSim::run`]. Replaces any previously attached observer.
    pub fn attach_recorder(&mut self) -> crate::SpanRecorder {
        let recorder = crate::SpanRecorder::new();
        self.set_observer(Box::new(recorder.clone()));
        recorder
    }

    /// Attaches an arbitrary engine observer (replacing any prior one).
    /// Use [`agentsim_llm::FanoutObserver`] to combine several sinks —
    /// e.g. a recorder plus a streaming [`crate::SpanStreamWriter`].
    pub fn set_observer(&mut self, observer: Box<dyn agentsim_llm::EngineObserver>) {
        self.sim.set_replica_observer(0, observer);
    }

    /// Runs to completion and reports.
    pub fn run(self) -> ServingReport {
        serving_report(self.sim.run())
    }
}

/// The single-replica view of a one-replica colocated run.
fn serving_report(r: DisaggReport) -> ServingReport {
    ServingReport {
        offered_qps: r.offered_qps,
        completed: r.completed,
        solved: r.solved,
        makespan: r.makespan,
        latencies: r.latencies,
        agent_latencies: r.agent_latencies,
        chatbot_latencies: r.chatbot_latencies,
        p50_s: r.p50_s,
        p95_s: r.p95_s,
        energy_wh: r.energy_wh,
        utilization: r.prefill_utilization[0],
        kv_avg_bytes: r.kv_avg_bytes,
        kv_max_bytes: r.kv_max_bytes,
        kv_hit_rate: r.kv_hit_rate,
        preemptions: r.preemptions,
        evictions: r.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_agents::{AgentConfig, AgentKind};
    use agentsim_simkit::SimDuration;
    use agentsim_workloads::Benchmark;

    fn chatbot(qps: f64, n: u64) -> ServingReport {
        ServingSim::new(ServingConfig::new(ServingWorkload::Chatbot, qps, n).seed(1)).run()
    }

    fn react(qps: f64, n: u64) -> ServingReport {
        ServingSim::new(ServingConfig::new(ServingWorkload::react_hotpotqa(), qps, n).seed(1)).run()
    }

    #[test]
    fn chatbot_completes_all_requests() {
        let r = chatbot(1.0, 30);
        assert_eq!(r.completed, 30);
        assert!(r.p50_s > 1.0, "p50 {}", r.p50_s);
        assert!(r.p95_s >= r.p50_s);
        assert!(r.utilization > 0.0);
    }

    #[test]
    fn chatbot_latency_band_matches_fig7() {
        // Paper Fig. 7: most ShareGPT responses complete in 3-7 s at low
        // load on the A100/8B stack.
        let mut r = chatbot(0.2, 40);
        let p50 = r.latencies.median();
        assert!((2.0..9.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn react_serving_completes_and_is_slower() {
        let agent = react(0.2, 15);
        let bot = chatbot(0.2, 15);
        assert_eq!(agent.completed, 15);
        assert!(
            agent.p50_s > bot.p50_s,
            "agent {} vs chatbot {}",
            agent.p50_s,
            bot.p50_s
        );
    }

    #[test]
    fn agent_latency_spread_exceeds_chatbot() {
        // Fig. 7: agents show a much broader, heavier-tailed distribution
        // (ShareGPT clusters in 3-7 s; ReAct spans tens of seconds).
        let agent = react(0.1, 25);
        let bot = chatbot(0.1, 25);
        let spread = |r: &ServingReport| r.p95_s - r.p50_s;
        assert!(
            spread(&agent) > 1.2 * spread(&bot),
            "agent spread {} vs chatbot {}",
            spread(&agent),
            spread(&bot)
        );
        assert!(
            agent.p95_s > 1.4 * bot.p95_s,
            "agent tail {} vs chatbot tail {}",
            agent.p95_s,
            bot.p95_s
        );
    }

    #[test]
    fn higher_load_raises_tail_latency() {
        // Past the knee (~2.6 qps on this stack, matching the paper),
        // queueing inflates the tail. Needs enough requests for a
        // backlog to form.
        let low = react(0.1, 30);
        let high = react(6.0, 60);
        assert!(
            high.p50_s > low.p50_s + 3.0,
            "p50 at 6 qps {} vs 0.1 qps {} (queueing delay)",
            high.p50_s,
            low.p50_s
        );
        assert!(high.p95_s > high.p50_s, "tail above median");
    }

    #[test]
    fn concurrency_beats_sequential_execution() {
        // §IV-C: concurrent execution yields large throughput gains
        // because tool waits are overlapped with other requests.
        let concurrent = react(1.0, 20);
        // Sequential lower bound: sum of single-request latencies.
        let single = crate::single::SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
            .seed(1)
            .run_batch(20);
        let sequential_time: f64 = single.iter().map(|o| o.trace.e2e().as_secs_f64()).sum();
        let seq_tput = 20.0 / sequential_time;
        assert!(
            concurrent.throughput() > 2.0 * seq_tput,
            "concurrent {} vs sequential {}",
            concurrent.throughput(),
            seq_tput
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = react(0.5, 10);
        let b = react(0.5, 10);
        assert_eq!(a.p95_s, b.p95_s);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.preemptions, b.preemptions);
    }

    #[test]
    fn mixed_workload_serves_both_classes() {
        let workload = ServingWorkload::Mixed {
            agent_fraction: 0.4,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        };
        let r = ServingSim::new(ServingConfig::new(workload, 0.5, 30).seed(2)).run();
        assert_eq!(r.completed, 30);
        assert!(!r.agent_latencies.is_empty(), "some agents arrived");
        assert!(
            !r.chatbot_latencies.is_empty(),
            "some chatbot requests arrived"
        );
        assert_eq!(
            r.agent_latencies.len() + r.chatbot_latencies.len(),
            30,
            "every request is classified exactly once"
        );
        // Agent requests are much slower than chatbot ones even coexisting.
        let agent_mean = r.agent_latencies.summary().mean();
        let chat_mean = r.chatbot_latencies.summary().mean();
        assert!(
            agent_mean > chat_mean,
            "agent {agent_mean} vs chatbot {chat_mean}"
        );
    }

    #[test]
    fn prefix_caching_raises_hit_rate_in_serving() {
        let with = react(0.5, 15);
        let cfg = ServingConfig::new(ServingWorkload::react_hotpotqa(), 0.5, 15)
            .seed(1)
            .engine(EngineConfig::a100_llama8b().with_prefix_caching(false));
        let without = ServingSim::new(cfg).run();
        assert!(with.kv_hit_rate > 0.3, "hit rate {}", with.kv_hit_rate);
        assert_eq!(without.kv_hit_rate, 0.0);
    }

    #[test]
    fn closed_loop_completes_exact_turn_budget() {
        let cfg = ServingConfig::new(ServingWorkload::react_hotpotqa(), 1.0, 24)
            .seed(3)
            .client(ClientModel::ClosedLoop {
                concurrency: 4,
                think_time: SimDuration::from_secs(2),
            });
        let r = ServingSim::new(cfg).run();
        assert_eq!(r.completed, 24);
        assert!(r.p50_s > 0.0);
    }

    #[test]
    fn closed_loop_deterministic_given_seed() {
        let run = || {
            let cfg = ServingConfig::new(ServingWorkload::react_hotpotqa(), 1.0, 16)
                .seed(5)
                .client(ClientModel::ClosedLoop {
                    concurrency: 3,
                    think_time: SimDuration::from_secs(1),
                });
            ServingSim::new(cfg).run()
        };
        assert_eq!(run().fingerprint(), run().fingerprint());
    }

    #[test]
    fn trace_replay_follows_recorded_gaps() {
        let gaps: Vec<SimDuration> = (0..12).map(|_| SimDuration::from_millis(500)).collect();
        let cfg = ServingConfig::new(ServingWorkload::Chatbot, 1.0, 1)
            .seed(1)
            .client(ClientModel::TraceReplay { gaps });
        let r = ServingSim::new(cfg).run();
        assert_eq!(r.completed, 12, "trace length overrides num_requests");
    }
}
