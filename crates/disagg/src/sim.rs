//! The disaggregated-serving driver: prefill pool → KV transfer →
//! decode pool, with the colocated baseline as the degenerate case.
//!
//! Mirrors the colocated drivers' event loop and RNG derivation exactly
//! (same root constants, same arrival process, same per-session forks —
//! all via [`agentsim_session`]), so a disaggregated run and a colocated
//! run at the same seed differ *only* in serving topology — the what-if
//! experiments compare nothing else. The session state machine itself is
//! the shared [`SessionRunner`]; only the two-pool call lifecycle
//! (prefill leg, transfer, decode leg) lives here.
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
//! ## Coordinator admission gate
//!
//! With [`DisaggConfig::max_inflight_prefill`] set, new LLM ops queue at
//! the coordinator until prefill-leg capacity frees, ordered by the
//! configured [`QueueDiscipline`]. Under
//! [`QueueDiscipline::DeadlineDrop`] a session whose deadline has passed
//! by the time it reaches the head is shed *before* costing any GPU
//! work — the one overload mechanism this driver has. With the gate
//! unset the queue is never touched and the driver is bit-identical to
//! the pre-gate code path.

use std::collections::{HashMap, VecDeque};

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::{Engine, EngineObserver, EngineRole, LlmCompletion, MigratedRequest, RequestId};
use agentsim_metrics::Samples;
use agentsim_session::{
    seeds, Arrival, ArrivalProcess, CallDone, LlmSubmit, QueueDiscipline, SessionCmd,
    SessionRunner, ToolRng,
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
/// transfer and a decode leg). Replica indices are global.
struct CallState {
    session: u64,
    /// The call's index within its session's current LLM op.
    seq: u32,
    prefill_replica: usize,
    decode_replica: Option<usize>,
    decode_submitted: Option<SimTime>,
    transfer_wait: SimDuration,
    /// Prefill leg, captured at migration time (`None` until then; local
    /// completions fill the record directly). Doubles as the completion
    /// discriminator: a finished request whose call has a migration
    /// finished its *decode* leg.
    migration: Option<agentsim_llm::MigratedRequest>,
}

/// One LLM op parked at the coordinator admission gate, waiting for
/// prefill-leg capacity. Whole ops queue together, so a dropped session
/// provably has zero calls in flight.
struct PendingOp {
    session: u64,
    /// The session's absolute deadline (set iff the config has one).
    deadline: Option<SimTime>,
    priority: u32,
    calls: Vec<LlmSubmit>,
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
    completed: u64,
    solved: u64,
    last_finish: SimTime,
    /// Ops parked at the admission gate (always empty with the gate
    /// unset).
    dispatch: VecDeque<PendingOp>,
    /// Calls submitted to the prefill pool whose prefill leg hasn't
    /// finished (tracked whether or not the gate is active).
    inflight_prefill: u64,
    /// Per-session absolute deadline, refreshed at each arrival.
    session_deadline: Vec<Option<SimTime>>,
    /// Sessions shed at the dispatch queue (their turn never resolves).
    abandoned: u64,
    /// Ops removed from the dispatch queue unserved (equals `abandoned`
    /// here: a session queues at most one op at a time).
    dropped: u64,
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
        config.validate_overload();
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
        // Same root/arrival derivation as the colocated open-loop driver:
        // identical seeds ⇒ identical arrival processes.
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
        let session_slots = config.client.sessions(config.num_requests);
        let sessions = (0..session_slots).map(|_| None).collect();
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
            completed: 0,
            solved: 0,
            last_finish: SimTime::ZERO,
            dispatch: VecDeque::new(),
            inflight_prefill: 0,
            session_deadline: vec![None; session_slots as usize],
            abandoned: 0,
            dropped: 0,
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
            self.drain_dispatch(now);
            self.maybe_autoscale(now);
            self.kick_all(now);
        }
        let expected = self.config.client.total_turns(self.config.num_requests);
        assert_eq!(
            self.completed + self.abandoned,
            expected,
            "every turn must resolve exactly once"
        );
        self.check_end_state();
        self.into_report()
    }

    /// End-of-run invariants: nothing in flight, nothing leaked.
    fn check_end_state(&self) {
        assert_eq!(self.transfers.outstanding(), 0, "no transfer left behind");
        assert!(self.flip.is_none(), "no flip left in progress");
        assert!(self.dispatch.is_empty(), "no op left at the gate");
        assert_eq!(self.inflight_prefill, 0, "prefill-leg accounting leaked");
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
        self.session_deadline[a.session as usize] = self.config.deadline.map(|d| now + d);
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
                if self.config.max_inflight_prefill.is_none() {
                    // No gate: submit immediately, bit-identical to the
                    // pre-gate driver.
                    self.submit_calls(sid, op.calls, op.priority, now);
                } else {
                    let pending = PendingOp {
                        session: sid,
                        deadline: self.session_deadline[sid as usize],
                        priority: op.priority,
                        calls: op.calls,
                    };
                    match self.config.discipline {
                        QueueDiscipline::Lifo => self.dispatch.push_front(pending),
                        _ => self.dispatch.push_back(pending),
                    }
                    // The event loop drains once per event; ops enqueued
                    // by this event dispatch before any later event.
                }
            }
            SessionCmd::Tools { wake } => {
                self.queue.push(wake, Event::ToolsDone(sid));
            }
            SessionCmd::Finish(outcome) => {
                let runner = self.sessions[sid as usize]
                    .take()
                    .expect("live session finishing");
                self.latencies.push(runner.trace().e2e().as_secs_f64());
                self.completed += 1;
                self.solved += outcome.solved as u64;
                self.last_finish = self.last_finish.max(now);
                if let Some(next) = self.client.after_finish(sid, now) {
                    self.queue.push(next.at, Event::Arrival(next));
                }
            }
        }
    }

    /// Routes one op's calls to the prefill pool. Shared by the direct
    /// (gate-off) path and the dispatch queue.
    fn submit_calls(&mut self, sid: u64, calls: Vec<LlmSubmit>, priority: u32, now: SimTime) {
        for (seq, c) in calls.into_iter().enumerate() {
            let replica = self.route_prefill();
            let id = self.replicas[replica].submit_with_priority(
                now,
                c.prompt,
                c.out_tokens,
                c.gen_seed,
                priority,
            );
            let call = self.calls.len() as u64;
            self.calls.push(CallState {
                session: sid,
                seq: seq as u32,
                prefill_replica: replica,
                decode_replica: None,
                decode_submitted: None,
                transfer_wait: SimDuration::ZERO,
                migration: None,
            });
            self.owner.insert((replica, id), call);
            self.inflight_prefill += 1;
        }
    }

    /// Admits parked ops while prefill-leg capacity lasts. Runs once per
    /// event; a no-op with the gate unset.
    fn drain_dispatch(&mut self, now: SimTime) {
        let Some(limit) = self.config.max_inflight_prefill else {
            return;
        };
        let limit = limit as u64;
        while let Some(op) = self.select_dispatch(now) {
            // Head-of-line exception: an op wider than the whole gate
            // still runs alone rather than deadlocking its session.
            let admit = self.inflight_prefill == 0
                || self.inflight_prefill + op.calls.len() as u64 <= limit;
            if !admit {
                self.dispatch.push_front(op);
                break;
            }
            self.submit_calls(op.session, op.calls, op.priority, now);
        }
    }

    /// Picks the next op per the configured discipline.
    /// [`QueueDiscipline::DeadlineDrop`] selects earliest-deadline-first
    /// (first minimum, so ties keep FIFO order) and sheds every expired
    /// op it surfaces before returning a live one.
    fn select_dispatch(&mut self, now: SimTime) -> Option<PendingOp> {
        match self.config.discipline {
            QueueDiscipline::Fifo | QueueDiscipline::Lifo => self.dispatch.pop_front(),
            QueueDiscipline::DeadlineDrop => loop {
                let deadline_of = |op: &PendingOp| op.deadline.expect("DeadlineDrop has deadlines");
                let idx =
                    (0..self.dispatch.len()).min_by_key(|&i| deadline_of(&self.dispatch[i]))?;
                let op = self.dispatch.remove(idx).expect("index in range");
                if deadline_of(&op) <= now {
                    self.drop_op(op, now);
                    continue;
                }
                return Some(op);
            },
        }
    }

    /// Sheds one parked op whose deadline passed: full session teardown.
    /// The op queued whole, so the session has zero calls in flight, no
    /// pending tool wake, and no transfer — taking the runner is clean.
    fn drop_op(&mut self, op: PendingOp, now: SimTime) {
        let taken = self.sessions[op.session as usize].take();
        assert!(taken.is_some(), "dropped session was live");
        self.dropped += 1;
        self.abandoned += 1;
        self.last_finish = self.last_finish.max(now);
        // The client still observes the turn ending (a closed-loop
        // population re-issues from here).
        if let Some(next) = self.client.after_finish(op.session, now) {
            self.queue.push(next.at, Event::Arrival(next));
        }
    }

    fn on_step(&mut self, replica: usize, now: SimTime) {
        // Completions: a call with a migration finished its decode leg;
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
        if self.calls[call as usize].migration.is_some() {
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
        // The prefill leg is over; the gate sees its capacity back even
        // while the KV is on the wire.
        self.inflight_prefill -= 1;
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
        // A draining destination still accepts this: the KV was committed
        // to it before the drain began, and a flip waits for it to land.
        let id = self.replicas[pt.dst].submit_prefilled(now, &pt.migration);
        let state = &mut self.calls[call as usize];
        state.decode_submitted = Some(now);
        state.transfer_wait = pt.transfer.wait();
        state.migration = Some(pt.migration);
        self.owner.insert((pt.dst, id), call);
    }

    /// A call that completed without leaving the prefill pool.
    fn finish_local_call(&mut self, call: u64, completion: &LlmCompletion, now: SimTime) {
        self.inflight_prefill -= 1;
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
        let m = state.migration.as_ref().expect("migrated call has a leg");
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
        // NaN, not a panic, when every session was shed at the gate.
        let p50_s = latencies.try_median().unwrap_or(f64::NAN);
        let p95_s = latencies.try_p95().unwrap_or(f64::NAN);
        // Integer tallies are order-free; decode-role engines import KV
        // without prefix lookups, so counting every replica matches the
        // prefill-pool-only sum of the static-split driver.
        let (mut hits, mut lookups) = (0u64, 0u64);
        let mut preemptions = 0u64;
        let (mut demoted, mut promoted, mut promoted_tokens, mut dropped) =
            (0u64, 0u64, 0u64, 0u64);
        for e in &self.replicas {
            let kv = e.kv().stats();
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
            abandoned: self.abandoned,
            dropped: self.dropped,
            makespan: SimDuration::from_micros(self.last_finish.as_micros()),
            latencies,
            p50_s,
            p95_s,
            calls: self.finished_calls,
            migrated_calls,
            transferred_bytes: self.transfers.total_bytes(),
            transfer_wait: self.transfers.total_wait(),
            prefill_utilization,
            decode_utilization,
            energy_wh,
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
    fn wide_gate_changes_nothing_observable() {
        let base = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.0, 10).seed(5);
        let open = DisaggSim::new(base.clone()).run();
        let gated = DisaggSim::new(base.max_inflight_prefill(1_000)).run();
        assert_eq!(gated.completed, 10);
        assert_eq!(gated.abandoned, 0);
        assert_eq!(gated.dropped, 0);
        assert_eq!(open.calls.len(), gated.calls.len());
    }

    #[test]
    fn tight_gate_still_completes_every_turn() {
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 2.0, 12)
            .seed(5)
            .max_inflight_prefill(1);
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12);
        assert_eq!(r.abandoned, 0);
        for c in &r.calls {
            assert_eq!(c.span().total(), c.e2e(), "gated spans still telescope");
        }
    }

    #[test]
    fn op_wider_than_the_gate_runs_alone() {
        // Best-of-N submits all N samples as one op; a 1-call gate must
        // admit it via the head-of-line exception, not deadlock.
        let workload = DisaggWorkload::Agent {
            kind: AgentKind::BestOfN,
            benchmark: agentsim_workloads::Benchmark::HotpotQa,
            config: AgentConfig::default(),
        };
        let cfg = DisaggConfig::new(workload, 1.0, 6)
            .seed(3)
            .max_inflight_prefill(1);
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 6);
        assert!(
            r.calls.len() > 6,
            "Best-of-N turns carry several calls each"
        );
    }

    #[test]
    fn deadline_drop_sheds_under_pressure() {
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 4.0, 24)
            .seed(5)
            .max_inflight_prefill(1)
            .discipline(QueueDiscipline::DeadlineDrop)
            .deadline(SimDuration::from_secs(10));
        let r = DisaggSim::new(cfg).run();
        assert!(r.abandoned > 0, "a 1-call gate at 4 qps must shed work");
        assert_eq!(r.abandoned, r.dropped);
        assert_eq!(r.completed + r.abandoned, 24, "every turn resolves once");
        assert!(r.completed > 0, "early arrivals still beat the deadline");
        // Shed sessions never reached a replica: every recorded call
        // belongs to a session that was admitted.
        assert!(r.to_json().contains("\"abandoned\":"));
    }

    #[test]
    fn gated_runs_are_deterministic_across_runs() {
        let cfg = DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 4.0, 20)
            .seed(6)
            .pools(2, 2)
            .max_inflight_prefill(2)
            .discipline(QueueDiscipline::DeadlineDrop)
            .deadline(SimDuration::from_secs(12));
        let a = DisaggSim::new(cfg.clone()).run();
        let b = DisaggSim::new(cfg).run();
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.fingerprint(), b.fingerprint());
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
