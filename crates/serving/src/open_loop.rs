//! Shared-replica serving simulation driven by a pluggable client model.
//!
//! Mirrors the paper's §IV-C methodology: requests arrive following the
//! configured [`ClientModel`] (open-loop Poisson by default), each served
//! by an asynchronous worker that walks the agent workflow; all workers'
//! LLM calls are batched by the shared engine (continuous batching with
//! FCFS admission).
//!
//! The per-session state machine lives in
//! [`agentsim_session::SessionRunner`]; this driver only owns what is
//! specific to a single shared replica: the engine, the event queue, and
//! report aggregation.

use std::collections::HashMap;

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::{Engine, EngineConfig, RequestId};
use agentsim_session::{
    seeds, Arrival, ArrivalProcess, CallDone, ClientModel, SessionCmd, SessionRunner, ToolRng,
};
use agentsim_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::{Benchmark, ShareGptGenerator, TaskGenerator};

use crate::report::ServingReport;

/// What kind of traffic the server receives.
#[derive(Debug, Clone)]
pub enum ServingWorkload {
    /// Non-agentic single-turn chatbot traffic (ShareGPT).
    Chatbot,
    /// Agentic traffic: every request runs this agent on this benchmark.
    Agent {
        /// The agent framework.
        kind: AgentKind,
        /// The benchmark tasks are drawn from.
        benchmark: Benchmark,
        /// The agent configuration.
        config: AgentConfig,
    },
    /// Multi-tenant mix: each arrival is an agent request with
    /// probability `agent_fraction`, otherwise a chatbot request.
    Mixed {
        /// Fraction of arrivals that are agentic, in `[0, 1]`.
        agent_fraction: f64,
        /// The agent framework for agentic arrivals.
        kind: AgentKind,
        /// The benchmark for agentic arrivals.
        benchmark: Benchmark,
        /// The agent configuration.
        config: AgentConfig,
    },
}

impl ServingWorkload {
    /// A ReAct-on-HotpotQA workload with default configuration (the
    /// paper's canonical agent serving setup).
    pub fn react_hotpotqa() -> Self {
        ServingWorkload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default(),
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Engine (replica) configuration.
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

#[derive(Debug)]
enum Event {
    Arrival(Arrival),
    EngineStepDone,
    ToolsDone(u64),
}

/// The serving simulator. Create with [`ServingSim::new`] and consume
/// with [`ServingSim::run`].
pub struct ServingSim {
    config: ServingConfig,
    engine: Engine,
    tools: ToolExecutor,
    queue: EventQueue<Event>,
    client: Box<dyn ArrivalProcess>,
    sessions: Vec<Option<SessionRunner>>,
    /// In-flight engine request -> (session slot, call seq within op).
    request_owner: HashMap<RequestId, (u64, u32)>,
    root_rng: SimRng,
    report_latencies: Vec<f64>,
    agent_latencies: Vec<f64>,
    chatbot_latencies: Vec<f64>,
    llm_latencies: Vec<f64>,
    completed: u64,
    solved: u64,
    last_finish: SimTime,
    queue_depth: agentsim_metrics::TimeSeries,
}

impl ServingSim {
    /// Builds the simulator (the first arrivals are scheduled; the rest
    /// chain lazily as the run progresses).
    pub fn new(config: ServingConfig) -> Self {
        let engine = Engine::new(config.engine.clone());
        let root_rng = SimRng::seed_from(config.seed ^ seeds::SERVING_ROOT);
        let mut client = config.client.build(
            config.qps,
            config.num_requests,
            root_rng.fork(seeds::ARRIVALS),
        );
        let mut queue = EventQueue::new();
        for a in client.initial() {
            queue.push(a.at, Event::Arrival(a));
        }
        let sessions = (0..config.client.sessions(config.num_requests))
            .map(|_| None)
            .collect();
        ServingSim {
            engine,
            tools: ToolExecutor::new(),
            queue,
            client,
            sessions,
            request_owner: HashMap::new(),
            root_rng,
            report_latencies: Vec::new(),
            agent_latencies: Vec::new(),
            chatbot_latencies: Vec::new(),
            llm_latencies: Vec::new(),
            completed: 0,
            solved: 0,
            last_finish: SimTime::ZERO,
            queue_depth: agentsim_metrics::TimeSeries::new(),
            config,
        }
    }

    /// Attaches a fresh [`crate::SpanRecorder`] as the engine's observer
    /// and returns a handle to read spans/series/exports after
    /// [`ServingSim::run`]. Replaces any previously attached observer.
    pub fn attach_recorder(&mut self) -> crate::SpanRecorder {
        let recorder = crate::SpanRecorder::new();
        self.engine.set_observer(Box::new(recorder.clone()));
        recorder
    }

    /// Attaches an arbitrary engine observer (replacing any prior one).
    /// Use [`agentsim_llm::FanoutObserver`] to combine several sinks —
    /// e.g. a recorder plus a streaming [`crate::SpanStreamWriter`].
    pub fn set_observer(&mut self, observer: Box<dyn agentsim_llm::EngineObserver>) {
        self.engine.set_observer(observer);
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> ServingReport {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::Arrival(a) => self.on_arrival(a, now),
                Event::EngineStepDone => self.on_step_done(now),
                Event::ToolsDone(sid) => {
                    let cmd = self.sessions[sid as usize]
                        .as_mut()
                        .expect("live session")
                        .on_tools_done(&self.tools, now);
                    self.exec(sid, cmd, now);
                }
            }
            self.kick_engine(now);
        }
        let expected = self.config.client.total_turns(self.config.num_requests);
        assert_eq!(self.completed, expected, "all turns must finish");
        self.into_report()
    }

    fn on_arrival(&mut self, a: Arrival, now: SimTime) {
        // Chain the next arrival first, so it precedes any event this
        // one schedules at the same instant.
        if let Some(next) = self.client.after_arrival(now) {
            self.queue.push(next.at, Event::Arrival(next));
        }
        // Every workload payload is `Copy`, so classify in place instead
        // of cloning the whole workload per arrival.
        let (runner, cmd) = match self.config.workload {
            ServingWorkload::Chatbot => self.start_chatbot(a.turn, now),
            ServingWorkload::Agent {
                kind,
                benchmark,
                config,
            } => self.start_agent(a.turn, now, kind, benchmark, config),
            ServingWorkload::Mixed {
                agent_fraction,
                kind,
                benchmark,
                config,
            } => {
                // Deterministic per-turn class draw.
                let mut class_rng = self.root_rng.fork(a.turn ^ seeds::MIXED_CLASS);
                if class_rng.chance(agent_fraction) {
                    self.start_agent(a.turn, now, kind, benchmark, config)
                } else {
                    self.start_chatbot(a.turn, now)
                }
            }
        };
        let slot = &mut self.sessions[a.session as usize];
        assert!(slot.is_none(), "session {} already live", a.session);
        *slot = Some(runner);
        self.exec(a.session, cmd, now);
    }

    fn start_chatbot(&mut self, turn: u64, now: SimTime) -> (SessionRunner, SessionCmd) {
        let query = ShareGptGenerator::new(self.config.seed).query(turn);
        SessionRunner::chatbot(
            query.prompt,
            query.output_tokens,
            query.gen_seed,
            turn,
            self.root_rng.fork(turn ^ seeds::CHATBOT_SESSION),
            now,
        )
    }

    fn start_agent(
        &mut self,
        turn: u64,
        now: SimTime,
        kind: AgentKind,
        benchmark: Benchmark,
        config: AgentConfig,
    ) -> (SessionRunner, SessionCmd) {
        let task = TaskGenerator::new(benchmark, self.config.seed).task(turn);
        SessionRunner::agent(
            kind,
            &task,
            config,
            self.root_rng.fork(turn ^ seeds::AGENT_SESSION),
            ToolRng::ForkByTime,
            &self.tools,
            now,
        )
    }

    /// Executes a session command against this driver's engine and
    /// event queue.
    fn exec(&mut self, sid: u64, cmd: SessionCmd, now: SimTime) {
        match cmd {
            SessionCmd::Llm(op) => {
                for (seq, call) in op.calls.into_iter().enumerate() {
                    let id = self.engine.submit_with_priority(
                        now,
                        call.prompt,
                        call.out_tokens,
                        call.gen_seed,
                        op.priority,
                    );
                    self.request_owner.insert(id, (sid, seq as u32));
                }
            }
            SessionCmd::Tools { wake } => {
                self.queue.push(wake, Event::ToolsDone(sid));
            }
            SessionCmd::Finish(outcome) => {
                let runner = self.sessions[sid as usize]
                    .take()
                    .expect("live session finishing");
                let latency = runner.trace().e2e().as_secs_f64();
                self.report_latencies.push(latency);
                if runner.is_agent() {
                    self.agent_latencies.push(latency);
                    self.solved += outcome.solved as u64;
                } else {
                    self.chatbot_latencies.push(latency);
                }
                self.completed += 1;
                self.last_finish = self.last_finish.max(now);
                if let Some(next) = self.client.after_finish(sid, now) {
                    self.queue.push(next.at, Event::Arrival(next));
                }
            }
        }
    }

    fn on_step_done(&mut self, now: SimTime) {
        let completions = self.engine.complete_step(now);
        for completion in completions {
            let (sid, seq) = self
                .request_owner
                .remove(&completion.id)
                .expect("completion belongs to a session");
            self.llm_latencies
                .push(completion.e2e_latency().as_secs_f64());
            let cmd = self.sessions[sid as usize]
                .as_mut()
                .expect("live session")
                .on_call_done(seq, CallDone::from_completion(completion), &self.tools, now);
            if let Some(cmd) = cmd {
                self.exec(sid, cmd, now);
            }
        }
    }

    fn kick_engine(&mut self, now: SimTime) {
        self.queue_depth.record(
            now,
            (self.engine.queue_len() + self.engine.running_len()) as f64,
        );
        if let Some(end) = self.engine.start_step_if_idle(now) {
            self.queue.push(end, Event::EngineStepDone);
        }
    }

    fn into_report(self) -> ServingReport {
        let makespan = SimDuration::from_micros(self.last_finish.as_micros());
        let mut latencies: agentsim_metrics::Samples =
            self.report_latencies.iter().copied().collect();
        let llm_latencies: agentsim_metrics::Samples = self.llm_latencies.iter().copied().collect();
        let agent_latencies: agentsim_metrics::Samples =
            self.agent_latencies.iter().copied().collect();
        let chatbot_latencies: agentsim_metrics::Samples =
            self.chatbot_latencies.iter().copied().collect();
        let p50_s = latencies.try_median().unwrap_or(f64::NAN);
        let p95_s = latencies.try_p95().unwrap_or(f64::NAN);
        let queue_depth_mean = self.queue_depth.time_weighted_mean(self.last_finish);
        let queue_depth_max = self.queue_depth.max();
        let metrics = self.engine.metrics();
        let kv = self.engine.kv().stats();
        let block_bytes = self.config.engine.kv_bytes_per_block();
        ServingReport {
            offered_qps: self.config.qps,
            completed: self.completed,
            solved: self.solved,
            makespan,
            p50_s,
            p95_s,
            energy_wh: metrics.energy_within(self.last_finish).watt_hours(),
            utilization: metrics.utilization(self.last_finish),
            kv_avg_bytes: kv.used_blocks.average(self.last_finish) * block_bytes as f64,
            kv_max_bytes: kv.used_blocks.peak() * block_bytes,
            kv_hit_rate: kv.hit_rate(),
            preemptions: metrics.preemptions,
            evictions: kv.evictions,
            latencies,
            llm_latencies,
            agent_latencies,
            chatbot_latencies,
            queue_depth_mean,
            queue_depth_max,
        }
    }
}

impl std::fmt::Debug for ServingSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSim")
            .field("qps", &self.config.qps)
            .field("num_requests", &self.config.num_requests)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(
            r.queue_depth_max >= 1.0,
            "at least one request was in flight"
        );
        assert!(r.queue_depth_mean > 0.0);
        assert!(r.queue_depth_mean <= r.queue_depth_max);
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
