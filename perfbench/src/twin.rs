//! The twin loop: a one-replica serving driver built only from public
//! calls (`EventQueue`, `Engine`, `SessionRunner`, `TaskGenerator`,
//! `ClientModel::build`, `seeds::*`), with a span around every call into
//! a layer. Its fingerprint must equal [`ServingSim`] on the same config,
//! which is what makes its spans a faithful split of that driver's cost.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use agentsim_kvcache::TokenBuf;
use agentsim_llm::{Engine, EngineEvent, EngineObserver, LlmCompletion, RequestId, StepKind};
use agentsim_serving::{ServingConfig, ServingReport, ServingWorkload};
use agentsim_session::{seeds, Arrival, CallDone, SessionCmd, SessionRunner, ToolRng};
use agentsim_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::TaskGenerator;

use crate::spans::Tracer;

/// Span turn id for calls that serve no single turn.
pub const NO_TURN: u64 = u64::MAX;

/// An engine event, owned, as the replay consumes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    /// A request entered the waiting queue.
    Submitted { id: RequestId },
    /// A request was admitted (KV allocated) at `at`.
    Admitted {
        id: RequestId,
        at: SimTime,
        new_tokens: u32,
        cached_tokens: u32,
    },
    /// A step finished.
    Step {
        kind: StepKind,
        started: SimTime,
        ended: SimTime,
        prefill: Vec<RequestId>,
        decode: Vec<RequestId>,
    },
    /// A running request was preempted.
    Preempted { id: RequestId },
    /// A request produced its last token.
    Completed { id: RequestId },
    /// Anything a colocated one-replica run never emits.
    Unsupported(&'static str),
}

/// Records every engine event (the capture pass of the twin loop).
#[derive(Debug, Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<Ev>>>);

impl EventLog {
    /// Takes the recorded events.
    pub fn take(&self) -> Vec<Ev> {
        std::mem::take(&mut *self.0.lock().expect("event log poisoned"))
    }
}

impl EngineObserver for EventLog {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        let ev = match *event {
            EngineEvent::Submitted { id, .. } => Ev::Submitted { id },
            EngineEvent::Admitted {
                id,
                at,
                new_tokens,
                cached_tokens,
            } => Ev::Admitted {
                id,
                at,
                new_tokens,
                cached_tokens,
            },
            EngineEvent::StepCompleted {
                kind,
                started,
                ended,
                prefill,
                decode,
                ..
            } => Ev::Step {
                kind,
                started,
                ended,
                prefill: prefill.iter().map(|&(id, _)| id).collect(),
                decode: decode.to_vec(),
            },
            EngineEvent::Preempted { id, .. } => Ev::Preempted { id },
            EngineEvent::Completed { completion, .. } => Ev::Completed { id: completion.id },
            ref other => Ev::Unsupported(other.name()),
        };
        self.0.lock().expect("event log poisoned").push(ev);
    }
}

/// The simulated results compared against [`ServingSim`]; floats as bits.
///
/// [`ServingSim`]: agentsim_serving::ServingSim
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinPrint {
    pub completed: u64,
    pub solved: u64,
    pub makespan_us: u64,
    pub p50: u64,
    pub p95: u64,
    pub energy: u64,
    pub utilization: u64,
    pub kv_hit: u64,
    pub preemptions: u64,
    pub evictions: u64,
}

impl TwinPrint {
    /// The same fields read off a [`ServingReport`].
    pub fn of_report(r: &ServingReport) -> TwinPrint {
        TwinPrint {
            completed: r.completed,
            solved: r.solved,
            makespan_us: r.makespan.as_micros(),
            p50: r.p50_s.to_bits(),
            p95: r.p95_s.to_bits(),
            energy: r.energy_wh.to_bits(),
            utilization: r.utilization.to_bits(),
            kv_hit: r.kv_hit_rate.to_bits(),
            preemptions: r.preemptions,
            evictions: r.evictions,
        }
    }
}

/// Everything a twin run measured.
#[derive(Debug)]
pub struct TwinOut {
    /// Simulated results.
    pub print: TwinPrint,
    /// Turns issued.
    pub turns: u64,
    /// Events popped off the queue.
    pub events: u64,
    /// `start_step_if_idle` calls, and those that started a step.
    pub kicks: u64,
    pub useful_kicks: u64,
    /// Steps completed.
    pub steps: u64,
    /// `SessionRunner` and client-process calls.
    pub session_ops: u64,
    /// `TaskGenerator::task` calls.
    pub tasks: u64,
    /// The engine's final prefix-cache token counts `(hit, miss)`.
    pub kv_tokens: (u64, u64),
    /// Offload link counters `(transfers, chunks, bytes, busy, wait)`,
    /// host and NVMe summed; zero without offload.
    pub links: (u64, u64, u64, SimDuration, SimDuration),
    /// With capture: the engine's event stream.
    pub events_log: Vec<Ev>,
    /// With capture: each request's prompt, output length and seed.
    pub prompts: HashMap<RequestId, (TokenBuf, u32, u64)>,
}

#[derive(Debug)]
enum Event {
    Arrival(Arrival),
    StepDone,
    ToolsDone(u64),
}

struct Twin<'a> {
    t: &'a mut Tracer,
    engine: Engine,
    tools: ToolExecutor,
    queue: EventQueue<Event>,
    client: Box<dyn agentsim_session::ArrivalProcess>,
    sessions: Vec<Option<SessionRunner>>,
    turn_of: Vec<u64>,
    owner: HashMap<RequestId, (u64, u32)>,
    capture: bool,
    prompts: HashMap<RequestId, (TokenBuf, u32, u64)>,
    latencies: Vec<f64>,
    completed: u64,
    solved: u64,
    last_finish: SimTime,
    session_ops: u64,
}

/// Runs `config` (agent traffic only) through the twin loop. With
/// `capture`, the engine's events and prompts are recorded for replay.
///
/// # Panics
///
/// Panics on non-agent workloads, and if a turn is left unfinished.
pub fn run(config: &ServingConfig, t: &mut Tracer, capture: bool) -> TwinOut {
    let ServingWorkload::Agent {
        kind,
        benchmark,
        config: agent,
    } = config.workload
    else {
        panic!("the twin loop drives agent traffic only");
    };
    t.enter("serving", NO_TURN);
    let mut engine = t.span("llm", NO_TURN, || Engine::new(config.engine.clone()));
    let log = EventLog::default();
    if capture {
        engine.set_observer(Box::new(log.clone()));
    }
    let root = SimRng::seed_from(config.seed ^ seeds::SERVING_ROOT);
    let mut client = t.span("session", NO_TURN, || {
        config
            .client
            .build(config.qps, config.num_requests, root.fork(seeds::ARRIVALS))
    });
    let mut queue = EventQueue::new();
    for a in client.initial() {
        let (at, turn) = (a.at, a.turn);
        t.span("simkit", turn, || queue.push(at, Event::Arrival(a)));
    }
    let slots = config.client.sessions(config.num_requests) as usize;
    let generator = TaskGenerator::new(benchmark, config.seed);
    let mut twin = Twin {
        t,
        engine,
        tools: ToolExecutor::new(),
        queue,
        client,
        sessions: (0..slots).map(|_| None).collect(),
        turn_of: vec![NO_TURN; slots],
        owner: HashMap::new(),
        capture,
        prompts: HashMap::new(),
        latencies: Vec::new(),
        completed: 0,
        solved: 0,
        last_finish: SimTime::ZERO,
        // `ClientModel::build` above was the first session-layer call.
        session_ops: 1,
    };
    let (mut events, mut kicks, mut useful_kicks, mut steps, mut tasks) = (0, 0, 0, 0, 0);
    let mut done: Vec<LlmCompletion> = Vec::new();
    while let Some((now, event)) = twin.t.span("simkit", NO_TURN, || twin.queue.pop()) {
        events += 1;
        match event {
            Event::Arrival(a) => {
                let turn = a.turn;
                twin.session_ops += 1;
                if let Some(next) = twin
                    .t
                    .span("session", turn, || twin.client.after_arrival(now))
                {
                    twin.push(next.at, Event::Arrival(next), turn);
                }
                tasks += 1;
                let task = twin.t.span("workloads", turn, || generator.task(turn));
                twin.session_ops += 1;
                let tools = &twin.tools;
                let (runner, cmd) = twin.t.span("session", turn, || {
                    SessionRunner::agent(
                        kind,
                        &task,
                        agent,
                        root.fork(turn ^ seeds::AGENT_SESSION),
                        ToolRng::ForkByTime,
                        tools,
                        now,
                    )
                });
                let slot = &mut twin.sessions[a.session as usize];
                assert!(slot.is_none(), "session {} already live", a.session);
                *slot = Some(runner);
                twin.turn_of[a.session as usize] = turn;
                twin.exec(a.session, cmd, now);
            }
            Event::StepDone => {
                steps += 1;
                twin.t.span("llm", NO_TURN, || {
                    twin.engine.complete_step_into(now, &mut done)
                });
                for completion in done.drain(..) {
                    let (sid, seq) = twin
                        .owner
                        .remove(&completion.id)
                        .expect("completion belongs to a session");
                    let turn = twin.turn_of[sid as usize];
                    twin.session_ops += 1;
                    let runner = twin.sessions[sid as usize].as_mut().expect("live session");
                    let tools = &twin.tools;
                    let cmd = twin.t.span("session", turn, || {
                        runner.on_call_done(seq, CallDone::from_completion(completion), tools, now)
                    });
                    if let Some(cmd) = cmd {
                        twin.exec(sid, cmd, now);
                    }
                }
            }
            Event::ToolsDone(sid) => {
                let turn = twin.turn_of[sid as usize];
                twin.session_ops += 1;
                let runner = twin.sessions[sid as usize].as_mut().expect("live session");
                let tools = &twin.tools;
                let cmd = twin
                    .t
                    .span("session", turn, || runner.on_tools_done(tools, now));
                twin.exec(sid, cmd, now);
            }
        }
        kicks += 1;
        if let Some(end) = twin
            .t
            .span("llm", NO_TURN, || twin.engine.start_step_if_idle(now))
        {
            useful_kicks += 1;
            twin.push(end, Event::StepDone, NO_TURN);
        }
    }
    twin.t.exit();
    let expected = config.client.total_turns(config.num_requests);
    assert_eq!(twin.completed, expected, "all turns must finish");

    let end = twin.last_finish;
    let mut latencies: agentsim_metrics::Samples = twin.latencies.iter().copied().collect();
    let metrics = twin.engine.metrics();
    let kv = twin.engine.kv().stats();
    let print = TwinPrint {
        completed: twin.completed,
        solved: twin.solved,
        makespan_us: end.as_micros(),
        p50: latencies.try_median().unwrap_or(f64::NAN).to_bits(),
        p95: latencies.try_p95().unwrap_or(f64::NAN).to_bits(),
        energy: metrics.energy_within(end).watt_hours().to_bits(),
        utilization: metrics.utilization(end).to_bits(),
        kv_hit: kv.hit_rate().to_bits(),
        preemptions: metrics.preemptions,
        evictions: kv.evictions,
    };
    let mut links = (0, 0, 0, SimDuration::ZERO, SimDuration::ZERO);
    for link in [twin.engine.host_link(), twin.engine.nvme_link()]
        .into_iter()
        .flatten()
    {
        links.0 += link.transfers();
        links.1 += link.chunks();
        links.2 += link.bytes_moved();
        links.3 += link.busy_time();
        links.4 += link.wait_time();
    }
    TwinOut {
        print,
        turns: expected,
        events,
        kicks,
        useful_kicks,
        steps,
        session_ops: twin.session_ops,
        tasks,
        kv_tokens: (kv.hit_tokens, kv.miss_tokens),
        links,
        events_log: log.take(),
        prompts: twin.prompts,
    }
}

impl Twin<'_> {
    fn push(&mut self, at: SimTime, event: Event, turn: u64) {
        self.t.span("simkit", turn, || self.queue.push(at, event));
    }

    /// Executes a session command against the engine and event queue.
    fn exec(&mut self, sid: u64, cmd: SessionCmd, now: SimTime) {
        let turn = self.turn_of[sid as usize];
        match cmd {
            SessionCmd::Llm(op) => {
                for (seq, call) in op.calls.into_iter().enumerate() {
                    let kept = self
                        .capture
                        .then(|| (call.prompt.clone(), call.out_tokens, call.gen_seed));
                    let id = self.t.span("llm", turn, || {
                        self.engine.submit_with_priority(
                            now,
                            call.prompt,
                            call.out_tokens,
                            call.gen_seed,
                            op.priority,
                        )
                    });
                    self.owner.insert(id, (sid, seq as u32));
                    if let Some(kept) = kept {
                        self.prompts.insert(id, kept);
                    }
                }
            }
            SessionCmd::Tools { wake } => self.push(wake, Event::ToolsDone(sid), turn),
            SessionCmd::Finish(outcome) => {
                let runner = self.sessions[sid as usize]
                    .take()
                    .expect("live session finishing");
                self.latencies.push(runner.trace().e2e().as_secs_f64());
                self.solved += outcome.solved as u64;
                self.completed += 1;
                self.last_finish = self.last_finish.max(now);
                self.session_ops += 1;
                if let Some(next) = self
                    .t
                    .span("session", turn, || self.client.after_finish(sid, now))
                {
                    self.push(next.at, Event::Arrival(next), turn);
                }
            }
        }
    }
}
