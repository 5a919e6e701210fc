//! The disaggregated-serving driver: prefill pool → KV transfer →
//! decode pool, with the colocated baseline as the degenerate case. The
//! single-replica serving driver (`agentsim_serving::ServingSim`) is
//! this driver with one colocated replica.
//!
//! Every random stream derives from the shared [`agentsim_session::seeds`]
//! keys (one root, one arrival process, per-session forks), so a
//! disaggregated run and a colocated run at the same seed differ *only*
//! in serving topology — the what-if experiments compare nothing else.
//! The session state machine itself is the shared [`SessionRunner`];
//! only the two-pool call lifecycle (prefill leg, transfer, decode leg)
//! lives here.
//!
//! ## Pool membership and autoscaling
//!
//! Replicas live in one flat vector (initial prefill pool first, then
//! the decode pool); the *pools* are member lists over global replica
//! indices. With autoscaling disabled the lists never change and the
//! driver is bit-identical to the static-split code path. With a
//! [`PoolController`] installed, the driver snapshots pool demand after
//! every event; when the controller requests a flip the least-loaded
//! source-pool replica leaves its member list and drains — it refuses
//! new submissions, finishes or migrates in-flight work, and waits for
//! committed inbound KV transfers to land — then pays the
//! [`agentsim_gpu::FlipCostModel`] gap and joins the other pool. One
//! flip runs at a time, and a pool is never drained below one replica.
//!
//! ## No admission control
//!
//! Every LLM op is submitted to the prefill pool the moment its session
//! issues it; the driver sheds nothing, so every issued turn completes.
//! Overload control (admission, deadlines, queue disciplines) exists
//! only per replica in the fleet driver for now.

use std::collections::HashMap;

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::{Engine, EngineObserver, EngineRole, LlmCompletion, MigratedRequest, RequestId};
use agentsim_metrics::Samples;
use agentsim_session::{
    seeds, Arrival, ArrivalProcess, CallDone, SessionCmd, SessionRunner, ToolRng,
};
use agentsim_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::{ShareGptGenerator, TaskGenerator};

use crate::autoscale::{FlipDirection, PoolController};
use crate::config::{DisaggConfig, DisaggWorkload, PoolRouting};
use crate::report::{CallRecord, DisaggReport, FlipRecord, LinkStats};
use crate::transfer::TransferScheduler;

#[derive(Debug)]
enum Event {
    Arrival(Arrival),
    /// Replica `r` (global index) finishes its in-progress engine step.
    Step(usize),
    TransferDone(u64),
    ToolsDone(u64),
    /// Replica `r` finishes its role-flip reconfiguration gap.
    FlipDone(usize),
}

/// One call's record under construction (prefill leg, then optionally a
/// transfer and a decode leg). Replica indices are global. `Copy` keeps
/// it heap-free: a call must not pin its prompt for the whole run.
#[derive(Clone, Copy)]
struct CallState {
    session: u64,
    /// The call's index within its session's current LLM op.
    seq: u32,
    prefill_replica: usize,
    decode_replica: Option<usize>,
    decode_submitted: Option<SimTime>,
    transfer_wait: SimDuration,
    /// Prefill leg, captured when the call's KV lands on its decode
    /// replica (`None` until then; local completions fill the record
    /// directly). Doubles as the completion discriminator: a finished
    /// request whose call has a prefill leg finished its *decode* leg.
    prefill_leg: Option<PrefillLeg>,
}

/// The prefill-engine scalars of a migrated call that its [`CallRecord`]
/// needs — everything else in the [`MigratedRequest`], its context
/// included, moves on to the decode engine.
#[derive(Clone, Copy)]
struct PrefillLeg {
    arrived: SimTime,
    started: SimTime,
    released: SimTime,
    prompt_tokens: u32,
    cached_tokens: u32,
    prefill_time: SimDuration,
    kv_bytes: u64,
    preemptions: u32,
}

/// A role flip in progress: the victim has left its pool's member list
/// and is draining (or, once `drained` is set, sitting out the
/// reconfiguration gap until its [`Event::FlipDone`]).
struct FlipInProgress {
    replica: usize,
    direction: FlipDirection,
    requested: SimTime,
    drained: Option<SimTime>,
}

/// The disaggregated serving simulator. Build with [`DisaggSim::new`],
/// consume with [`DisaggSim::run`].
pub struct DisaggSim {
    config: DisaggConfig,
    /// Every replica: the initial prefill pool at `0..P`, the initial
    /// decode pool at `P..P+D`. Autoscaling moves replicas between the
    /// member lists below; the vector itself never changes.
    replicas: Vec<Engine>,
    /// Live prefill-pool members (global indices, ascending).
    prefill_members: Vec<usize>,
    /// Live decode-pool members (global indices, ascending).
    decode_members: Vec<usize>,
    /// Size of the initial prefill pool (for observer attachment and
    /// reporting).
    initial_prefill: usize,
    controller: Option<Box<dyn PoolController>>,
    flip: Option<FlipInProgress>,
    flips: Vec<FlipRecord>,
    transfers: TransferScheduler,
    /// Transfer id → call id.
    transfer_owner: HashMap<u64, u64>,
    tools: ToolExecutor,
    queue: EventQueue<Event>,
    client: Box<dyn ArrivalProcess>,
    sessions: Vec<Option<SessionRunner>>,
    calls: Vec<CallState>,
    finished_calls: Vec<CallRecord>,
    /// `(global replica, engine request id)` → call id, for both legs
    /// (engine request ids are per-engine and never reused, so a key is
    /// never live twice).
    owner: HashMap<(usize, RequestId), u64>,
    root_rng: SimRng,
    rr_prefill: usize,
    rr_decode: usize,
    latencies: Vec<f64>,
    agent_latencies: Vec<f64>,
    chatbot_latencies: Vec<f64>,
    completed: u64,
    solved: u64,
    last_finish: SimTime,
    /// Reused completion buffer for [`Engine::complete_step_into`] — the
    /// step handler is the hot path and must not allocate per step.
    step_scratch: Vec<LlmCompletion>,
    /// Reused migration buffer for [`Engine::take_migrations_into`].
    migration_scratch: Vec<MigratedRequest>,
}

impl std::fmt::Debug for DisaggSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisaggSim")
            .field("prefill_members", &self.prefill_members.len())
            .field("decode_members", &self.decode_members.len())
            .field("qps", &self.config.qps)
            .field("flips", &self.flips.len())
            .finish_non_exhaustive()
    }
}

impl DisaggSim {
    /// Builds the simulator (the first arrivals are scheduled; the rest
    /// chain lazily as the run progresses).
    ///
    /// # Panics
    ///
    /// Panics when the configuration enables autoscaling in colocated
    /// mode — a role-free pool has nothing to flip.
    pub fn new(config: DisaggConfig) -> Self {
        let prefill_role = if config.is_colocated() {
            EngineRole::Colocated
        } else {
            EngineRole::Prefill
        };
        let p = config.prefill_replicas as usize;
        let d = config.decode_replicas as usize;
        let mut replicas: Vec<Engine> = (0..p)
            .map(|_| Engine::new(config.prefill_engine.clone().with_role(prefill_role)))
            .collect();
        replicas.extend(
            (0..d).map(|_| Engine::new(config.decode_engine.clone().with_role(EngineRole::Decode))),
        );
        let controller = config.autoscale.build();
        assert!(
            controller.is_none() || !config.is_colocated(),
            "pool autoscaling requires a decode pool (colocated mode has no roles to flip)"
        );
        // A migration cannot be split finer than the model's layers:
        // clamp the chunk count to the prefill model's depth.
        let chunks = config
            .transfer_chunks
            .min(config.prefill_engine.cluster.model.layers.max(1));
        let transfers = TransferScheduler::new(config.link.clone(), p + d).with_chunks(chunks);
        // One root for every topology: identical seeds ⇒ identical
        // arrival processes, colocated or disaggregated.
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
        DisaggSim {
            replicas,
            prefill_members: (0..p).collect(),
            decode_members: (p..p + d).collect(),
            initial_prefill: p,
            controller,
            flip: None,
            flips: Vec::new(),
            transfers,
            transfer_owner: HashMap::new(),
            tools: ToolExecutor::new(),
            queue,
            client,
            sessions,
            calls: Vec::new(),
            finished_calls: Vec::new(),
            owner: HashMap::new(),
            root_rng,
            rr_prefill: 0,
            rr_decode: 0,
            latencies: Vec::new(),
            agent_latencies: Vec::new(),
            chatbot_latencies: Vec::new(),
            completed: 0,
            solved: 0,
            last_finish: SimTime::ZERO,
            step_scratch: Vec::new(),
            migration_scratch: Vec::new(),
            config,
        }
    }

    /// Replaces the engine observer of initial-prefill-pool replica
    /// `replica` (for span recorders or invariant checkers).
    pub fn set_prefill_observer(&mut self, replica: usize, observer: Box<dyn EngineObserver>) {
        assert!(replica < self.initial_prefill, "not a prefill replica");
        self.replicas[replica].set_observer(observer);
    }

    /// Replaces the engine observer of initial-decode-pool replica
    /// `replica`.
    pub fn set_decode_observer(&mut self, replica: usize, observer: Box<dyn EngineObserver>) {
        self.replicas[self.initial_prefill + replica].set_observer(observer);
    }

    /// Replaces replica `replica`'s engine observer, by global index
    /// (under autoscaling the pool a replica serves varies over the run;
    /// the observer stream carries the role timeline via
    /// [`agentsim_llm::EngineEvent::RoleChanged`]).
    pub fn set_replica_observer(&mut self, replica: usize, observer: Box<dyn EngineObserver>) {
        self.replicas[replica].set_observer(observer);
    }

    /// Initial pool sizes as `(prefill, decode)` (for observer
    /// attachment; autoscaling changes live membership but not the
    /// replica count).
    pub fn pool_sizes(&self) -> (usize, usize) {
        (
            self.initial_prefill,
            self.replicas.len() - self.initial_prefill,
        )
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> DisaggReport {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::Arrival(a) => self.on_arrival(a, now),
                Event::Step(r) => self.on_step(r, now),
                Event::TransferDone(tid) => self.on_transfer_done(tid, now),
                Event::ToolsDone(sid) => {
                    let cmd = self.sessions[sid as usize]
                        .as_mut()
                        .expect("live session")
                        .on_tools_done(&self.tools, now);
                    self.exec(sid, cmd, now);
                }
                Event::FlipDone(r) => self.on_flip_done(r, now),
            }
            self.maybe_autoscale(now);
            self.kick_all(now);
        }
        let expected = self.config.client.total_turns(self.config.num_requests);
        assert_eq!(self.completed, expected, "all turns must finish");
        self.check_end_state();
        self.into_report()
    }

    /// End-of-run invariants: nothing in flight, nothing leaked.
    fn check_end_state(&self) {
        assert_eq!(self.transfers.outstanding(), 0, "no transfer left behind");
        assert!(self.flip.is_none(), "no flip left in progress");
        for e in &self.replicas {
            assert_eq!(e.kv().live_sequences(), 0, "KV sequence leaked");
            e.kv().check_invariants().expect("KV invariants at run end");
        }
    }

    fn on_arrival(&mut self, a: Arrival, now: SimTime) {
        // Chain the next arrival first, so it precedes any event this
        // one schedules at the same instant.
        if let Some(next) = self.client.after_arrival(now) {
            self.queue.push(next.at, Event::Arrival(next));
        }
        let (runner, cmd) = match self.config.workload {
            DisaggWorkload::Chatbot => self.start_chatbot(a.turn, now),
            DisaggWorkload::Agent {
                kind,
                benchmark,
                config,
            } => self.start_agent(a.turn, now, kind, benchmark, config),
            DisaggWorkload::Mixed {
                agent_fraction,
                kind,
                benchmark,
                config,
            } => {
                // Same per-turn class draw as the colocated driver's
                // mixed workload: identical seeds classify identically.
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
        benchmark: agentsim_workloads::Benchmark,
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

    /// Work a routing policy sees on `replica`: `queued + running`.
    fn replica_load(&self, replica: usize) -> usize {
        self.replicas[replica].queue_len() + self.replicas[replica].running_len()
    }

    fn route_prefill(&mut self) -> usize {
        let members = &self.prefill_members;
        match self.config.prefill_routing {
            PoolRouting::RoundRobin => {
                let k = self.rr_prefill % members.len();
                self.rr_prefill = (k + 1) % members.len();
                members[k]
            }
            PoolRouting::LeastLoaded => members
                .iter()
                .copied()
                .min_by_key(|&r| self.replica_load(r))
                .expect("non-empty prefill pool"),
        }
    }

    fn route_decode(&mut self) -> usize {
        let members = &self.decode_members;
        match self.config.decode_routing {
            PoolRouting::RoundRobin => {
                let k = self.rr_decode % members.len();
                self.rr_decode = (k + 1) % members.len();
                members[k]
            }
            PoolRouting::LeastLoaded => members
                .iter()
                .copied()
                .min_by_key(|&r| self.replica_load(r) + self.transfers.in_flight(r) as usize)
                .expect("non-empty decode pool"),
        }
    }

    /// Executes a session command against the two-pool topology.
    fn exec(&mut self, sid: u64, cmd: SessionCmd, now: SimTime) {
        match cmd {
            SessionCmd::Llm(op) => {
                for (seq, c) in op.calls.into_iter().enumerate() {
                    let replica = self.route_prefill();
                    let id = self.replicas[replica].submit_with_priority(
                        now,
                        c.prompt,
                        c.out_tokens,
                        c.gen_seed,
                        op.priority,
                    );
                    let call = self.calls.len() as u64;
                    self.calls.push(CallState {
                        session: sid,
                        seq: seq as u32,
                        prefill_replica: replica,
                        decode_replica: None,
                        decode_submitted: None,
                        transfer_wait: SimDuration::ZERO,
                        prefill_leg: None,
                    });
                    self.owner.insert((replica, id), call);
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
                self.latencies.push(latency);
                if runner.is_agent() {
                    self.agent_latencies.push(latency);
                } else {
                    self.chatbot_latencies.push(latency);
                }
                self.completed += 1;
                self.solved += outcome.solved as u64;
                self.last_finish = self.last_finish.max(now);
                if let Some(next) = self.client.after_finish(sid, now) {
                    self.queue.push(next.at, Event::Arrival(next));
                }
            }
        }
    }

    fn on_step(&mut self, replica: usize, now: SimTime) {
        // Completions: a call with a prefill leg finished its decode leg;
        // one without finished locally (colocated mode, single-token
        // outputs, or any call on a colocated-role replica).
        let mut completions = std::mem::take(&mut self.step_scratch);
        self.replicas[replica].complete_step_into(now, &mut completions);
        for completion in completions.drain(..) {
            self.finish_completion(replica, &completion, now);
        }
        self.step_scratch = completions;
        // Migrations: first token produced, KV ready to move.
        let mut migrations = std::mem::take(&mut self.migration_scratch);
        self.replicas[replica].take_migrations_into(&mut migrations);
        for migration in migrations.drain(..) {
            self.start_migration(replica, migration, now);
        }
        self.migration_scratch = migrations;
    }

    /// Routes one finished engine request to the right completion path.
    fn finish_completion(&mut self, replica: usize, completion: &LlmCompletion, now: SimTime) {
        let call = self
            .owner
            .remove(&(replica, completion.id))
            .expect("completion belongs to a call");
        if self.calls[call as usize].prefill_leg.is_some() {
            self.finish_migrated_call(call, completion, now);
        } else {
            self.finish_local_call(call, completion, now);
        }
    }

    /// Picks a decode replica for a freshly migrated request and puts its
    /// KV on the wire.
    fn start_migration(&mut self, replica: usize, migration: MigratedRequest, now: SimTime) {
        let call = self
            .owner
            .remove(&(replica, migration.id))
            .expect("migration belongs to a call");
        let dst = self.route_decode();
        let state = &mut self.calls[call as usize];
        state.decode_replica = Some(dst);
        let (tid, arrival) = self.transfers.schedule(now, dst, migration);
        self.transfer_owner.insert(tid, call);
        self.queue.push(arrival, Event::TransferDone(tid));
    }

    fn on_transfer_done(&mut self, tid: u64, now: SimTime) {
        let call = self
            .transfer_owner
            .remove(&tid)
            .expect("transfer belongs to a call");
        let pt = self.transfers.complete(tid);
        let m = &pt.migration;
        let state = &mut self.calls[call as usize];
        state.decode_submitted = Some(now);
        state.transfer_wait = pt.transfer.wait();
        state.prefill_leg = Some(PrefillLeg {
            arrived: m.arrived,
            started: m.started,
            released: m.released,
            prompt_tokens: m.prompt_tokens,
            cached_tokens: m.cached_tokens,
            prefill_time: m.prefill_time,
            kv_bytes: m.kv_bytes,
            preemptions: m.preemptions,
        });
        // A draining destination still accepts this: the KV was committed
        // to it before the drain began, and a flip waits for it to land.
        // The decode engine takes the context; the call keeps no tokens.
        let id = self.replicas[pt.dst].submit_prefilled(now, pt.migration);
        self.owner.insert((pt.dst, id), call);
    }

    /// A call that completed without leaving the prefill pool.
    fn finish_local_call(&mut self, call: u64, completion: &LlmCompletion, now: SimTime) {
        let state = &self.calls[call as usize];
        // First token lands at the end of the prefill phase; clamp for
        // single-token calls whose first token is also the last.
        let released = (completion.started + completion.prefill_time).min(completion.finished);
        self.finished_calls.push(CallRecord {
            session: state.session,
            prefill_replica: state.prefill_replica as u32,
            decode_replica: None,
            arrived: completion.arrived,
            prefill_started: completion.started,
            released,
            decode_submitted: None,
            decode_started: None,
            finished: completion.finished,
            prompt_tokens: completion.prompt_tokens,
            cached_tokens: completion.cached_tokens,
            output_tokens: completion.output_tokens,
            prefill_time: completion.prefill_time,
            decode_time: completion.decode_time,
            transfer_wait: SimDuration::ZERO,
            kv_bytes: 0,
            preemptions: completion.preemptions,
        });
        self.finish_call_in_session(call, completion.output_tokens, now);
    }

    /// A call that prefilled, migrated, and decoded to completion.
    fn finish_migrated_call(&mut self, call: u64, completion: &LlmCompletion, now: SimTime) {
        let state = &self.calls[call as usize];
        let m = state.prefill_leg.expect("migrated call has a prefill leg");
        debug_assert!(
            completion.prefill_time.is_zero(),
            "decode pools never run prefill steps"
        );
        self.finished_calls.push(CallRecord {
            session: state.session,
            prefill_replica: state.prefill_replica as u32,
            decode_replica: state.decode_replica.map(|d| d as u32),
            arrived: m.arrived,
            prefill_started: m.started,
            released: m.released,
            decode_submitted: state.decode_submitted,
            decode_started: Some(completion.started),
            finished: completion.finished,
            prompt_tokens: m.prompt_tokens,
            cached_tokens: m.cached_tokens,
            output_tokens: completion.output_tokens,
            prefill_time: m.prefill_time,
            decode_time: completion.decode_time,
            transfer_wait: state.transfer_wait,
            kv_bytes: m.kv_bytes,
            preemptions: m.preemptions + completion.preemptions,
        });
        self.finish_call_in_session(call, completion.output_tokens, now);
    }

    /// Session bookkeeping shared by both completion paths. The session
    /// level only needs the output-token count — per-leg engine records
    /// are already stitched into [`CallRecord`]s.
    fn finish_call_in_session(&mut self, call: u64, output_tokens: u32, now: SimTime) {
        let state = &self.calls[call as usize];
        let (sid, seq) = (state.session, state.seq);
        let cmd = self.sessions[sid as usize]
            .as_mut()
            .expect("live session")
            .on_call_done(seq, CallDone::tokens_only(output_tokens), &self.tools, now);
        if let Some(cmd) = cmd {
            self.exec(sid, cmd, now);
        }
    }

    /// Advances the autoscaler: finishes detecting a drain in progress,
    /// or asks the controller whether to start a new flip. No-op (and
    /// bit-exactly free) with autoscaling disabled.
    fn maybe_autoscale(&mut self, now: SimTime) {
        if self.flip.is_none() && self.controller.is_some() {
            let obs = self.observation(now);
            let decision = self.controller.as_mut().expect("controller").observe(&obs);
            if let Some(direction) = decision {
                self.start_flip(direction, now);
            }
        }
        // Drain detection runs in the same pass, so a flip of an
        // already-idle replica completes without waiting for another
        // event.
        if let Some(flip) = &self.flip {
            if flip.drained.is_none() {
                let r = flip.replica;
                if !self.replicas[r].has_work() && self.transfers.in_flight(r) == 0 {
                    self.flip.as_mut().expect("flip in progress").drained = Some(now);
                    let at = now + self.config.flip_cost.flip_time();
                    self.queue.push(at, Event::FlipDone(r));
                }
            }
        }
    }

    /// Snapshot of live pool demand for the controller.
    fn observation(&self, now: SimTime) -> crate::autoscale::PoolObservation {
        let (mut pq, mut pr) = (0usize, 0usize);
        for &r in &self.prefill_members {
            pq += self.replicas[r].queue_len();
            pr += self.replicas[r].running_len();
        }
        let (mut dq, mut dr, mut tif) = (0usize, 0usize, 0usize);
        for &r in &self.decode_members {
            dq += self.replicas[r].queue_len();
            dr += self.replicas[r].running_len();
            tif += self.transfers.in_flight(r) as usize;
        }
        crate::autoscale::PoolObservation {
            now,
            prefill_replicas: self.prefill_members.len(),
            decode_replicas: self.decode_members.len(),
            flip_in_progress: self.flip.is_some(),
            prefill_queue: pq,
            prefill_running: pr,
            decode_queue: dq,
            decode_running: dr,
            transfers_in_flight: tif,
        }
    }

    /// Starts draining the least-loaded source-pool replica toward the
    /// other pool. Infeasible requests (source pool at one replica) are
    /// dropped, deterministically.
    fn start_flip(&mut self, direction: FlipDirection, now: SimTime) {
        let source = match direction {
            FlipDirection::PrefillToDecode => &self.prefill_members,
            FlipDirection::DecodeToPrefill => &self.decode_members,
        };
        if source.len() <= 1 {
            return;
        }
        // Least-loaded victim drains fastest; ties break to the lowest
        // index so the choice is deterministic.
        let victim = source
            .iter()
            .copied()
            .min_by_key(|&r| {
                (
                    self.replica_load(r) + self.transfers.in_flight(r) as usize,
                    r,
                )
            })
            .expect("non-empty source pool");
        match direction {
            FlipDirection::PrefillToDecode => self.prefill_members.retain(|&r| r != victim),
            FlipDirection::DecodeToPrefill => self.decode_members.retain(|&r| r != victim),
        }
        self.replicas[victim].begin_drain();
        self.flip = Some(FlipInProgress {
            replica: victim,
            direction,
            requested: now,
            drained: None,
        });
    }

    /// The reconfiguration gap ended: the drained replica joins the
    /// target pool in its new role.
    fn on_flip_done(&mut self, replica: usize, now: SimTime) {
        let flip = self.flip.take().expect("flip completion without a flip");
        assert_eq!(flip.replica, replica, "flip completion for wrong replica");
        let (role, members) = match flip.direction {
            FlipDirection::PrefillToDecode => (EngineRole::Decode, &mut self.decode_members),
            FlipDirection::DecodeToPrefill => (EngineRole::Prefill, &mut self.prefill_members),
        };
        self.replicas[replica].finish_drain(now, role);
        let pos = members.partition_point(|&r| r < replica);
        members.insert(pos, replica);
        self.flips.push(FlipRecord {
            replica: replica as u32,
            direction: flip.direction,
            requested: flip.requested,
            drained: flip.drained.expect("flip completed before draining"),
            completed: now,
        });
    }

    fn kick_all(&mut self, now: SimTime) {
        for r in 0..self.replicas.len() {
            if let Some(end) = self.replicas[r].start_step_if_idle(now) {
                self.queue.push(end, Event::Step(r));
            }
        }
    }

    fn into_report(self) -> DisaggReport {
        let mut latencies: Samples = self.latencies.iter().copied().collect();
        // NaN, not a panic, for a run that issued no turns.
        let p50_s = latencies.try_median().unwrap_or(f64::NAN);
        let p95_s = latencies.try_p95().unwrap_or(f64::NAN);
        // Integer tallies are order-free; decode-role engines import KV
        // without prefix lookups, so counting every replica matches the
        // prefill-pool-only sum of the static-split driver.
        let (mut hits, mut lookups) = (0u64, 0u64);
        let (mut preemptions, mut evictions) = (0u64, 0u64);
        let (mut demoted, mut promoted, mut promoted_tokens, mut dropped) =
            (0u64, 0u64, 0u64, 0u64);
        // KV footprints sum in replica-index order, which is fixed for
        // the whole run.
        let (mut kv_avg_bytes, mut kv_max_bytes) = (0.0, 0u64);
        for e in &self.replicas {
            let kv = e.kv().stats();
            let block_bytes = e.config().kv_bytes_per_block();
            kv_avg_bytes += kv.used_blocks.average(self.last_finish) * block_bytes as f64;
            kv_max_bytes += kv.used_blocks.peak() * block_bytes;
            evictions += kv.evictions;
            hits += kv.hit_tokens;
            lookups += kv.hit_tokens + kv.miss_tokens;
            preemptions += e.metrics().preemptions;
            demoted += kv.demoted_blocks_host + kv.demoted_blocks_nvme;
            promoted += kv.promoted_blocks_host + kv.promoted_blocks_nvme;
            promoted_tokens += kv.promoted_tokens;
            dropped += kv.offload_dropped_blocks;
        }
        // Float sums follow final pool membership in ascending-index
        // order — with autoscaling disabled that is exactly the
        // prefill-then-decode order of the static-split driver, keeping
        // energy bit-identical.
        let mut energy_wh = 0.0;
        let mut prefill_utilization = Vec::with_capacity(self.prefill_members.len());
        let mut decode_utilization = Vec::with_capacity(self.decode_members.len());
        for &r in &self.prefill_members {
            let e = &self.replicas[r];
            energy_wh += e.metrics().energy_within(self.last_finish).watt_hours();
            prefill_utilization.push(e.metrics().utilization(self.last_finish));
        }
        for &r in &self.decode_members {
            let e = &self.replicas[r];
            energy_wh += e.metrics().energy_within(self.last_finish).watt_hours();
            decode_utilization.push(e.metrics().utilization(self.last_finish));
        }
        let migrated_calls = self.finished_calls.iter().filter(|c| c.migrated()).count() as u64;
        debug_assert_eq!(migrated_calls, self.transfers.completed());
        let makespan_s = self.last_finish.as_micros() as f64 / 1e6;
        let links = self
            .transfers
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.transfers() > 0)
            .map(|(r, l)| LinkStats {
                replica: r as u32,
                transfers: l.transfers(),
                chunks: l.chunks(),
                bytes: l.bytes_moved(),
                busy_s: l.busy_time().as_secs_f64(),
                wait_s: l.wait_time().as_secs_f64(),
                utilization: if makespan_s > 0.0 {
                    l.busy_time().as_secs_f64() / makespan_s
                } else {
                    0.0
                },
            })
            .collect();
        DisaggReport {
            offered_qps: self.config.qps,
            prefill_replicas: self.config.prefill_replicas,
            decode_replicas: self.config.decode_replicas,
            completed: self.completed,
            solved: self.solved,
            abandoned: 0,
            dropped: 0,
            makespan: SimDuration::from_micros(self.last_finish.as_micros()),
            latencies,
            agent_latencies: self.agent_latencies.into_iter().collect(),
            chatbot_latencies: self.chatbot_latencies.into_iter().collect(),
            p50_s,
            p95_s,
            calls: self.finished_calls,
            migrated_calls,
            transferred_bytes: self.transfers.total_bytes(),
            transfer_wait: self.transfers.total_wait(),
            prefill_utilization,
            decode_utilization,
            energy_wh,
            kv_avg_bytes,
            kv_max_bytes,
            kv_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            offload_demoted_blocks: demoted,
            offload_promoted_blocks: promoted,
            offload_promoted_tokens: promoted_tokens,
            offload_dropped_blocks: dropped,
            preemptions,
            evictions,
            flips: self.flips,
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscalePolicy;
    use agentsim_gpu::{FlipCostModel, LinkSpec};
    use agentsim_session::ClientModel;

    fn react(qps: f64, n: u64) -> DisaggReport {
        DisaggSim::new(DisaggConfig::new(DisaggWorkload::react_hotpotqa(), qps, n).seed(1)).run()
    }

    #[test]
    fn disagg_run_completes_and_migrates() {
        let r = react(0.5, 10);
        assert_eq!(r.completed, 10);
        assert!(r.migrated_calls > 0, "multi-token calls must migrate");
        assert!(r.transferred_bytes > 0);
        assert_eq!(
            r.transferred_bytes,
            r.calls.iter().map(|c| c.kv_bytes).sum::<u64>(),
            "link bytes match per-call KV footprints"
        );
        // Every migrated call's span partitions e2e exactly.
        for c in &r.calls {
            assert_eq!(c.span().total(), c.e2e(), "call of session {}", c.session);
            if c.migrated() {
                assert!(c.span().transfer > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn colocated_mode_never_transfers() {
        let cfg = DisaggConfig::colocated(DisaggWorkload::react_hotpotqa(), 2, 0.5, 10).seed(1);
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 10);
        assert_eq!(r.migrated_calls, 0);
        assert_eq!(r.transferred_bytes, 0);
        assert!(r.decode_utilization.is_empty());
        for c in &r.calls {
            assert!(!c.migrated());
            assert_eq!(c.span().transfer, SimDuration::ZERO);
            assert_eq!(c.span().total(), c.e2e());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = react(0.5, 8);
        let b = react(0.5, 8);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.calls, b.calls);
        // Rows that no golden pins: a flip scheduled into a storm of
        // 16-chunk trains on a slow link (the drain gate must wait for
        // chunked transfers), a hair-trigger hysteresis controller, and
        // a replayed arrival trace.
        let mid_drain = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.2, 16)
            .seed(0xF11D)
            .pools(2, 2)
            .link(LinkSpec {
                name: "slow",
                bandwidth_bytes_per_s: 5e8,
                latency: SimDuration::from_micros(40),
            })
            .transfer_chunks(16)
            .flip_cost(FlipCostModel::warm())
            .autoscale(AutoscalePolicy::Schedule(vec![
                (SimTime::from_secs_f64(3.0), FlipDirection::DecodeToPrefill),
                (SimTime::from_secs_f64(9.0), FlipDirection::PrefillToDecode),
            ]));
        let hysteresis = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 2.0, 24)
            .seed(8)
            .pools(1, 3)
            .flip_cost(FlipCostModel::zero())
            .autoscale(AutoscalePolicy::Hysteresis(
                crate::autoscale::HysteresisConfig {
                    high: 1.2,
                    low: 0.1,
                    dwell: SimDuration::ZERO,
                    ..Default::default()
                },
            ));
        let gaps = (0..24)
            .map(|i| SimDuration::from_secs_f64([0.05, 0.5, 0.12, 0.9][i % 4]))
            .collect();
        let replay = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.2, 20)
            .seed(0xC11E)
            .pools(2, 2)
            .client(ClientModel::TraceReplay { gaps });
        for cfg in [mid_drain, hysteresis, replay] {
            let a = DisaggSim::new(cfg.clone()).run();
            let b = DisaggSim::new(cfg).run();
            assert_eq!(a.calls, b.calls);
            assert_eq!(a.flips, b.flips);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn slower_links_lengthen_ttft() {
        let base = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 0.5, 10).seed(2);
        let fast = DisaggSim::new(base.clone().link(LinkSpec::nvlink4())).run();
        let slow_spec = LinkSpec {
            name: "slow",
            bandwidth_bytes_per_s: 1e8, // 100 MB/s: painfully slow on purpose
            latency: SimDuration::from_millis(5),
        };
        let slow = DisaggSim::new(base.link(slow_spec)).run();
        let (mut f, mut s) = (fast.ttft(), slow.ttft());
        assert!(
            s.median() > f.median(),
            "slow-link ttft {} vs fast {}",
            s.median(),
            f.median()
        );
        // The extra time is visible in the transfer phase, not smeared
        // into queue/decode.
        let transfer = |r: &DisaggReport| {
            r.phase_totals()
                .iter()
                .find(|(n, _)| *n == "transfer")
                .unwrap()
                .1
        };
        assert!(transfer(&slow) > transfer(&fast) * 10.0);
    }

    #[test]
    fn chatbot_traffic_is_served_too() {
        let cfg = DisaggConfig::new(DisaggWorkload::Chatbot, 1.0, 12).seed(3);
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12);
        assert_eq!(r.calls.len(), 12, "one call per chatbot request");
    }

    #[test]
    fn closed_loop_runs_through_the_disagg_topology() {
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.0, 12)
            .seed(4)
            .client(ClientModel::ClosedLoop {
                concurrency: 3,
                think_time: SimDuration::from_secs(1),
            });
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12);
        assert!(r.migrated_calls > 0, "turns still migrate");
        // Session ids stay within the population under closed loop.
        assert!(r.calls.iter().all(|c| c.session < 3));
    }

    #[test]
    fn pinned_controller_matches_disabled_bit_for_bit() {
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 0.8, 10)
            .seed(9)
            .pools(2, 2);
        let disabled = DisaggSim::new(cfg.clone()).run();
        let pinned = DisaggSim::new(cfg.autoscale(AutoscalePolicy::Pinned)).run();
        assert_eq!(disabled.calls, pinned.calls);
        assert_eq!(disabled.fingerprint(), pinned.fingerprint());
        assert!(pinned.flips.is_empty());
    }

    #[test]
    fn scheduled_flip_moves_a_replica_and_telescopes() {
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 0.8, 12)
            .seed(6)
            .pools(2, 2)
            .flip_cost(FlipCostModel::warm())
            .autoscale(AutoscalePolicy::Schedule(vec![(
                SimTime::from_secs_f64(2.0),
                FlipDirection::PrefillToDecode,
            )]));
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12, "no request lost across the flip");
        assert_eq!(r.flips.len(), 1, "the scheduled flip fired");
        let f = &r.flips[0];
        assert_eq!(f.direction, FlipDirection::PrefillToDecode);
        assert!(f.replica < 2, "victim came from the prefill pool");
        assert!(f.requested >= SimTime::from_secs_f64(2.0));
        assert!(f.drained >= f.requested, "drain takes non-negative time");
        assert_eq!(
            f.completed.saturating_since(f.drained),
            FlipCostModel::warm().flip_time(),
            "reconfiguration gap follows the cost model exactly"
        );
        // Flipped decode pool gains a member; utilization vectors track
        // final membership.
        assert_eq!(r.prefill_utilization.len(), 1);
        assert_eq!(r.decode_utilization.len(), 3);
        // All spans still partition end-to-end exactly.
        for c in &r.calls {
            assert_eq!(c.span().total(), c.e2e());
        }
    }

    #[test]
    fn infeasible_schedule_entries_are_dropped() {
        // 1P+1D: both pools are at the one-replica floor, so neither
        // direction is feasible; the run must not stall or panic.
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 0.8, 8)
            .seed(7)
            .autoscale(AutoscalePolicy::Schedule(vec![
                (SimTime::from_secs_f64(1.0), FlipDirection::PrefillToDecode),
                (SimTime::from_secs_f64(2.0), FlipDirection::DecodeToPrefill),
            ]));
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 8);
        assert!(r.flips.is_empty(), "floor-protected pools never flip");
    }

    #[test]
    #[should_panic(expected = "requires a decode pool")]
    fn autoscaling_the_colocated_baseline_panics() {
        let cfg = DisaggConfig::colocated(DisaggWorkload::Chatbot, 2, 1.0, 4)
            .autoscale(AutoscalePolicy::Pinned);
        let _ = DisaggSim::new(cfg);
    }

    #[test]
    fn hysteresis_flips_under_sustained_prefill_pressure() {
        use crate::autoscale::HysteresisConfig;
        // ReAct traffic is prefill-heavy; with a hair-trigger band the
        // controller should pull a decode replica over.
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 2.0, 24)
            .seed(8)
            .pools(1, 3)
            .flip_cost(FlipCostModel::zero())
            .autoscale(AutoscalePolicy::Hysteresis(HysteresisConfig {
                high: 1.2,
                low: 0.1,
                dwell: SimDuration::ZERO,
                ..HysteresisConfig::default()
            }));
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 24);
        assert!(
            r.flips
                .iter()
                .any(|f| f.direction == FlipDirection::DecodeToPrefill),
            "sustained prefill pressure must pull a decode replica over (flips: {:?})",
            r.flips
        );
    }
}
