//! Multi-replica fleet serving: several engine replicas behind a router.
//!
//! The paper's datacenter projections (§VI) assume fleets of replicas;
//! this module asks the follow-on systems question: *how should agent
//! requests be routed across replicas?* Because an agent session's
//! iterative calls share a growing prefix, routing is not
//! load-balancing-neutral — sending call *k+1* to a different replica
//! than call *k* forfeits the prefix-cache state the paper shows is
//! critical (its Fig. 15). Closed-loop clients sharpen the question
//! further: a user population re-submitting turns under stable session
//! ids gives affinity routing cross-*turn* state to preserve, not just
//! cross-call.
//!
//! # Overload resilience
//!
//! With an [`OverloadPolicy`] attached, the fleet additionally models how
//! real serving stacks behave past saturation: clients abandon turns
//! after a deadline, the server optionally cancels the abandoned work
//! (engines release KV and stop burning steps), front-ends retry with
//! exponential backoff, and a per-replica admission controller bounds
//! concurrency with a pluggable dispatch-queue discipline. Admission is
//! gated at the door: only an attempt's *first* op waits for a slot —
//! once a session has consumed engine time, its continuation ops submit
//! immediately, because making admitted work queue behind fresh
//! arrivals leaves sessions half-served at their deadline with nothing
//! to show for the GPU time already spent. The default policy
//! ([`OverloadPolicy::none`]) reproduces the historical no-deadline
//! behaviour bit-for-bit.
//!
//! # Execution
//!
//! One sequential event loop drives every replica: each handler reads
//! and mutates the engines directly, so a run is a pure function of its
//! configuration and seed. Parallelism lives one level up — qps sweeps
//! and batch runs fan whole simulations out across threads.

use std::collections::{HashMap, VecDeque};

use agentsim_agents::{AgentConfig, AgentKind, Cognition};
use agentsim_kvcache::{EvictionPolicy, TokenBuf};
use agentsim_llm::{Engine, EngineConfig, LlmCompletion, ModelTier, RequestId};
use agentsim_metrics::{Fingerprint, Samples};
use agentsim_session::{
    seeds, validate_load, AdmissionController, Arrival, ArrivalProcess, CallDone, CascadePolicy,
    ClientModel, LlmSubmit, OverloadPolicy, QueueDiscipline, SessionCmd, SessionRunner, ToolRng,
};
use agentsim_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::{Benchmark, Task, TaskGenerator};

/// How the router assigns each LLM call to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// All calls of a session go to one replica (hash by session id):
    /// keeps every iterative call's prefix warm.
    SessionAffinity,
    /// Calls rotate across replicas regardless of session: classic
    /// stateless load balancing, destroys cross-call prefix reuse.
    RoundRobin,
    /// Each call goes to the replica with the fewest in-flight requests.
    LeastLoaded,
}

impl std::fmt::Display for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Routing::SessionAffinity => "session-affinity",
            Routing::RoundRobin => "round-robin",
            Routing::LeastLoaded => "least-loaded",
        })
    }
}

/// One homogeneous group of replicas inside a (possibly heterogeneous)
/// fleet: an engine spec, a count, and the agent configuration whose
/// model quality matches the model the pool serves.
#[derive(Debug, Clone)]
pub struct ReplicaPool {
    /// Engine configuration cloned per replica of this pool.
    pub engine: EngineConfig,
    /// Number of replicas in the pool.
    pub replicas: u32,
    /// Agent configuration for turns served by this pool (its
    /// `model_quality` should describe the pool's model).
    pub agent: AgentConfig,
}

impl ReplicaPool {
    /// A pool of `replicas` copies of `engine`, with the agent config
    /// inferred from the engine's [`ModelTier`] (8B quality for
    /// [`ModelTier::Small`], 70B for [`ModelTier::Large`]).
    pub fn new(engine: EngineConfig, replicas: u32) -> Self {
        assert!(replicas > 0, "pool needs at least one replica");
        let agent = match engine.tier {
            ModelTier::Small => AgentConfig::default_8b(),
            ModelTier::Large => AgentConfig::default_70b(),
        };
        ReplicaPool {
            engine,
            replicas,
            agent,
        }
    }

    /// Returns a copy with a different agent configuration.
    pub fn with_agent(mut self, agent: AgentConfig) -> Self {
        self.agent = agent;
        self
    }
}

/// Configuration of a fleet run (agentic traffic).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replica pools, ordered cheap-to-premium. Replicas are numbered
    /// contiguously in pool order; a single pool reproduces the
    /// historical homogeneous fleet exactly.
    pub pools: Vec<ReplicaPool>,
    /// Routing policy (applied *within* a tier's pool — the cascade
    /// policy picks the tier, the routing policy picks the replica).
    pub routing: Routing,
    /// Agent framework served.
    pub kind: AgentKind,
    /// Benchmark tasks are drawn from.
    pub benchmark: Benchmark,
    /// Tier selection and failure-driven escalation across pools.
    /// [`CascadePolicy::none`] (the default) keeps every turn on tier 0,
    /// reproducing the historical single-tier behaviour bit-for-bit.
    pub cascade: CascadePolicy,
    /// Offered load, requests/second (fleet-wide, open-loop clients).
    pub qps: f64,
    /// Turns to issue.
    pub num_requests: u64,
    /// Root seed.
    pub seed: u64,
    /// Who submits the turns, and when.
    pub client: ClientModel,
    /// Deadlines, retries, admission control (default: none of them).
    pub overload: OverloadPolicy,
    /// Carry each session's conversation across turns: a follow-up turn's
    /// prompts are prefixed with the session's prior final context, so
    /// cross-turn KV reuse (and the offload tiers that preserve it through
    /// think time) becomes possible. Off by default — turns are
    /// independent tasks.
    pub carry_context: bool,
}

impl FleetConfig {
    /// ReAct/HotpotQA on `replicas` default 8B replicas — single-pool
    /// sugar over [`FleetConfig::pooled`].
    pub fn react_hotpotqa(replicas: u32, routing: Routing, qps: f64, num_requests: u64) -> Self {
        Self::pooled(
            vec![ReplicaPool::new(EngineConfig::a100_llama8b(), replicas)],
            routing,
            qps,
            num_requests,
        )
    }

    /// ReAct/HotpotQA across an explicit set of replica pools, ordered
    /// cheap-to-premium.
    pub fn pooled(pools: Vec<ReplicaPool>, routing: Routing, qps: f64, num_requests: u64) -> Self {
        assert!(!pools.is_empty(), "fleet needs at least one pool");
        validate_load(qps, num_requests);
        FleetConfig {
            pools,
            routing,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            cascade: CascadePolicy::none(),
            qps,
            num_requests,
            seed: 0,
            client: ClientModel::OpenLoopPoisson,
            overload: OverloadPolicy::none(),
            carry_context: false,
        }
    }

    /// Total replicas across all pools.
    pub fn total_replicas(&self) -> u32 {
        self.pools.iter().map(|p| p.replicas).sum()
    }

    /// Applies `f` to every pool's engine configuration (e.g. to shrink
    /// the KV pool or attach offload tiers fleet-wide).
    pub fn map_engines(mut self, f: impl Fn(EngineConfig) -> EngineConfig) -> Self {
        for pool in &mut self.pools {
            pool.engine = f(pool.engine.clone());
        }
        self
    }

    /// Attaches a cascade policy (tier selection and escalation).
    pub fn cascade(mut self, cascade: CascadePolicy) -> Self {
        self.cascade = cascade;
        self
    }

    /// Enables cross-turn conversation carry (see
    /// [`FleetConfig::carry_context`]).
    pub fn with_context_carry(mut self) -> Self {
        self.carry_context = true;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the client model.
    pub fn client(mut self, client: ClientModel) -> Self {
        self.client = client;
        self
    }

    /// Attaches an overload policy (deadlines, retries, admission
    /// control). Validated against the client model at build time.
    pub fn overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Does nothing: fleet runs are always sequential. Kept only because
    /// the `perfbench` crate still calls it; the shim goes when that
    /// benchmark next changes.
    #[deprecated(note = "fleet runs are always sequential; this is a no-op")]
    pub fn threads(self, _threads: u32) -> Self {
        self
    }
}

/// Results of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Offered load.
    pub offered_qps: f64,
    /// Turns completed *within their deadline* (all turns when the run
    /// has no deadline).
    pub completed: u64,
    /// On-time turns whose agent actually solved its task (the
    /// cognition-model verdict) — the accuracy numerator cascade
    /// experiments trade off against cost and latency.
    pub solved: u64,
    /// Failure-driven re-routes of unsolved turns to a higher tier.
    pub escalated: u64,
    /// End-to-end latencies of on-time turns (seconds).
    pub latencies: Samples,
    /// Median latency.
    pub p50_s: f64,
    /// Tail latency.
    pub p95_s: f64,
    /// Fleet-aggregate prefix-cache hit rate.
    pub kv_hit_rate: f64,
    /// Fleet-aggregate energy (Wh).
    pub energy_wh: f64,
    /// Per-replica utilization.
    pub utilization: Vec<f64>,
    /// Finished turns per second, late ones included.
    pub throughput: f64,
    /// On-time turns per second — the paper's "useful" throughput. Equals
    /// `throughput` when no deadline is set.
    pub goodput: f64,
    /// Delivery attempts processed (initial turns plus retries).
    pub attempts: u64,
    /// Re-issues scheduled after deadline expiries.
    pub retries: u64,
    /// Logical turns the client gave up on (deadline expired, retry
    /// budget exhausted).
    pub abandoned: u64,
    /// Attempts that finished after their deadline (only possible without
    /// server-side cancellation — the work completes but nobody reads it).
    pub late: u64,
    /// Attempts torn down server-side at deadline expiry.
    pub cancelled: u64,
    /// Queued ops dropped at dispatch (dead or expired sessions).
    pub dropped: u64,
    /// GPU service seconds burned on work no live client received:
    /// engine-side partial service of cancelled requests plus completed
    /// service delivered after the client gave up.
    pub wasted_gpu_s: f64,
    /// Peak number of simultaneously live sessions (bounded by the
    /// population under a closed-loop client).
    pub max_live_sessions: u64,
    /// Median time-to-first-token across every finished engine call
    /// (queueing plus prefill — the latency the KV offload tiers tax).
    pub ttft_p50_s: f64,
    /// Tail time-to-first-token across every finished engine call.
    pub ttft_p95_s: f64,
    /// Median time-per-output-token across every finished engine call
    /// with more than one output token (seconds/token).
    pub tpot_p50_s: f64,
    /// p99 time-per-output-token — the decode-interference tail the
    /// cascade's premium pool must keep short.
    pub tpot_p99_s: f64,
    /// Blocks demoted out of HBM into the offload tiers, fleet-wide
    /// (zero without [`agentsim_llm::OffloadConfig`]).
    pub offload_demoted_blocks: u64,
    /// Blocks promoted back into HBM from the offload tiers, fleet-wide.
    pub offload_promoted_blocks: u64,
    /// Prompt tokens served from an offload tier instead of recomputed —
    /// the hierarchy's prefill savings, fleet-wide.
    pub offload_promoted_tokens: u64,
    /// Blocks that fell off the bottom of the hierarchy, fleet-wide.
    pub offload_dropped_blocks: u64,
    /// Bytes moved over the HBM↔host offload links, fleet-wide.
    pub offload_host_bytes: u64,
    /// Bytes moved over the host↔NVMe offload links, fleet-wide.
    pub offload_nvme_bytes: u64,
    /// Wire time the HBM↔host offload links spent moving KV, fleet-wide
    /// (seconds) — with promotion pipelining this includes wire time
    /// hidden behind prefill compute.
    pub offload_host_busy_s: f64,
    /// Head-of-line queueing delay on the HBM↔host links, fleet-wide
    /// (seconds).
    pub offload_host_wait_s: f64,
    /// Wire time the host↔NVMe offload links spent moving KV (seconds).
    pub offload_nvme_busy_s: f64,
    /// Head-of-line queueing delay on the host↔NVMe links (seconds).
    pub offload_nvme_wait_s: f64,
}

impl FleetReport {
    /// Every field the golden table and the equality tests pin, floats
    /// as bit patterns.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::new()
            .int("completed", self.completed)
            .int("solved", self.solved)
            .int("escalated", self.escalated)
            .float("p50_s", self.p50_s)
            .float("p95_s", self.p95_s)
            .float("kv_hit_rate", self.kv_hit_rate)
            .float("energy_wh", self.energy_wh)
            .float("throughput", self.throughput)
            .float("goodput", self.goodput)
            .int("retries", self.retries)
            .int("abandoned", self.abandoned)
            .int("late", self.late)
            .int("cancelled", self.cancelled)
            .int("dropped", self.dropped)
            .float("wasted_gpu_s", self.wasted_gpu_s)
            .int("max_live_sessions", self.max_live_sessions)
            .float("ttft_p95_s", self.ttft_p95_s)
            .float("tpot_p99_s", self.tpot_p99_s)
            .int("offload_demoted_blocks", self.offload_demoted_blocks)
            .int("offload_promoted_blocks", self.offload_promoted_blocks)
            .int("offload_promoted_tokens", self.offload_promoted_tokens)
            .int("offload_dropped_blocks", self.offload_dropped_blocks)
            .int("offload_host_bytes", self.offload_host_bytes)
            .int("offload_nvme_bytes", self.offload_nvme_bytes)
    }
}

#[derive(Debug)]
enum Event {
    Arrival(Arrival),
    StepDone(usize),
    ToolsDone { sid: u64, epoch: u64 },
    DeadlineExpired { sid: u64, epoch: u64 },
}

/// Per-attempt bookkeeping for a live session slot.
struct SessionMeta {
    /// Global turn index (for retry re-issue).
    turn: u64,
    /// Delivery attempt (0 = client-issued).
    attempt: u32,
    /// Pool tier this attempt runs on (index into `config.pools`).
    tier: usize,
    /// Failure-driven escalations this turn has consumed so far.
    escalations: u32,
    /// When the turn's current delivery attempt first started (carried
    /// across escalations so cascade latency spans the whole chain).
    started_at: SimTime,
    /// Occupancy counter of the slot, guarding stale wake-ups.
    epoch: u64,
    /// Absolute expiry of this attempt, if the run has deadlines.
    deadline: Option<SimTime>,
    /// The deadline passed but the attempt was left running (no
    /// cancellation): its remaining work is wasted.
    expired: bool,
    /// The attempt's first op was admitted to an engine: later ops
    /// bypass the admission queue (gate at the door, then run to done).
    started: bool,
    /// Engine calls currently in flight, as `(replica, id)`.
    calls: Vec<(usize, RequestId)>,
    /// The session's engine-side context — last submitted prompt plus
    /// its generated output — and that call's generation seed. Tracked
    /// only when offload hints are enabled, and only for single-call
    /// ops (a fan-out has no one context to predict for).
    kv_ctx: Option<(TokenBuf, u64)>,
    /// Replica holding that context.
    kv_replica: usize,
}

/// An op waiting in a replica's dispatch queue for an admission slot.
struct PendingOp {
    sid: u64,
    /// Slot epoch at enqueue time; a mismatch at dispatch means the
    /// attempt was torn down and the op must be dropped.
    epoch: u64,
    deadline: Option<SimTime>,
    calls: Vec<LlmSubmit>,
    priority: u32,
}

/// The fleet simulator. Build with [`FleetSim::new`], consume with
/// [`FleetSim::run`].
pub struct FleetSim {
    config: FleetConfig,
    engines: Vec<Engine>,
    tools: ToolExecutor,
    queue: EventQueue<Event>,
    client: Box<dyn ArrivalProcess>,
    sessions: Vec<Option<SessionRunner>>,
    meta: Vec<Option<SessionMeta>>,
    /// Occupancy counter per session slot; bumped at each arrival so
    /// events addressed to a torn-down attempt can be recognized.
    epochs: Vec<u64>,
    owner: HashMap<(usize, RequestId), (u64, u32)>,
    /// Ops waiting for an admission slot, per replica.
    dispatch: Vec<VecDeque<PendingOp>>,
    /// Engine calls held by each replica's dispatch queue (counted into
    /// the least-loaded routing metric; always 0 under accept-all).
    dispatch_calls: Vec<usize>,
    /// Engine calls admitted and not yet completed, per replica.
    in_flight: Vec<usize>,
    admission: Vec<Box<dyn AdmissionController>>,
    root_rng: SimRng,
    /// Pool index of each replica (replicas are numbered contiguously in
    /// pool order).
    pool_of: Vec<usize>,
    /// Replica index range of each pool.
    tier_ranges: Vec<std::ops::Range<usize>>,
    /// Round-robin cursor per pool (tier-local rotation).
    rr_counters: Vec<usize>,
    /// Whether to feed next-invocation predictions to the engines' KV
    /// offload hierarchies (offload configured with
    /// [`EvictionPolicy::InvocationDistance`]).
    hints: bool,
    /// Whether to snapshot per-session contexts (needed by hints and by
    /// conversation carry).
    track_ctx: bool,
    /// Per-session carried conversation: the final context of the
    /// session's last completed turn, prefixed onto its next turn's
    /// prompts when [`FleetConfig::carry_context`] is set.
    carry: Vec<Option<TokenBuf>>,
    latencies: Vec<f64>,
    /// Per-call time-to-first-token samples (seconds).
    ttfts: Vec<f64>,
    /// Per-call time-per-output-token samples (seconds/token).
    tpots: Vec<f64>,
    completed: u64,
    solved: u64,
    escalated: u64,
    attempts: u64,
    retries: u64,
    abandoned: u64,
    late: u64,
    cancelled: u64,
    dropped: u64,
    /// Service seconds delivered to clients that had already given up.
    wasted_service: f64,
    last_finish: SimTime,
    live: u64,
    max_live: u64,
    /// Reused per-step completion buffer (the step handler is the hot
    /// path and must not allocate per step).
    step_scratch: Vec<LlmCompletion>,
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("replicas", &self.engines.len())
            .field("routing", &self.config.routing)
            .finish_non_exhaustive()
    }
}

impl FleetSim {
    /// Builds the fleet (the first arrivals are scheduled; the rest
    /// chain lazily as the run progresses).
    pub fn new(config: FleetConfig) -> Self {
        validate_load(config.qps, config.num_requests);
        config.overload.validate(&config.client);
        assert!(!config.pools.is_empty(), "fleet needs at least one pool");
        // Flatten the pools into one contiguous replica index space.
        let mut engines = Vec::new();
        let mut pool_of = Vec::new();
        let mut tier_ranges = Vec::new();
        for (tier, p) in config.pools.iter().enumerate() {
            assert!(p.replicas > 0, "pool {tier} needs at least one replica");
            let start = engines.len();
            for _ in 0..p.replicas {
                engines.push(Engine::new(p.engine.clone()));
                pool_of.push(tier);
            }
            tier_ranges.push(start..engines.len());
        }
        let replicas = engines.len();
        let root_rng = SimRng::seed_from(config.seed ^ seeds::FLEET_ROOT);
        let mut client = config.client.build(
            config.qps,
            config.num_requests,
            root_rng.fork(seeds::ARRIVALS),
        );
        let mut queue = EventQueue::new();
        for a in client.initial() {
            queue.push(a.at, Event::Arrival(a));
        }
        let slots = config.client.sessions(config.num_requests) as usize;
        let hints = config.pools.iter().any(|p| {
            p.engine
                .offload
                .as_ref()
                .is_some_and(|o| o.policy == EvictionPolicy::InvocationDistance)
        });
        // An escalated turn re-arrives on the premium tier carrying the
        // conversation it built on the cheap one, so cascade runs track
        // contexts even without hints or explicit carry.
        let cascade_active = config.cascade.escalate_on_failure && config.pools.len() > 1;
        FleetSim {
            engines,
            tools: ToolExecutor::new(),
            queue,
            client,
            sessions: (0..slots).map(|_| None).collect(),
            meta: (0..slots).map(|_| None).collect(),
            epochs: vec![0; slots],
            owner: HashMap::new(),
            dispatch: (0..replicas).map(|_| VecDeque::new()).collect(),
            dispatch_calls: vec![0; replicas],
            in_flight: vec![0; replicas],
            admission: (0..replicas)
                .map(|_| config.overload.admission.build())
                .collect(),
            root_rng,
            rr_counters: vec![0; config.pools.len()],
            pool_of,
            tier_ranges,
            hints,
            track_ctx: hints || config.carry_context || cascade_active,
            carry: (0..slots).map(|_| None).collect(),
            latencies: Vec::new(),
            ttfts: Vec::new(),
            tpots: Vec::new(),
            completed: 0,
            solved: 0,
            escalated: 0,
            attempts: 0,
            retries: 0,
            abandoned: 0,
            late: 0,
            cancelled: 0,
            dropped: 0,
            wasted_service: 0.0,
            last_finish: SimTime::ZERO,
            live: 0,
            max_live: 0,
            step_scratch: Vec::new(),
            config,
        }
    }

    /// Attaches one fresh [`crate::SpanRecorder`] per replica (as each
    /// engine's observer) and returns the handles, indexed by replica.
    /// Combine them with [`crate::chrome_trace`] for a single trace file
    /// with one process track per replica.
    pub fn attach_recorders(&mut self) -> Vec<crate::SpanRecorder> {
        self.engines
            .iter_mut()
            .map(|engine| {
                let recorder = crate::SpanRecorder::new();
                engine.set_observer(Box::new(recorder.clone()));
                recorder
            })
            .collect()
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> FleetReport {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::Arrival(a) => self.on_arrival(a, now),
                Event::StepDone(r) => self.on_step_done(r, now),
                Event::ToolsDone { sid, epoch } => self.on_tools_done_event(sid, epoch, now),
                Event::DeadlineExpired { sid, epoch } => self.on_deadline(sid, epoch, now),
            }
            self.drain_all(now);
            for r in 0..self.engines.len() {
                self.kick(r, now);
            }
        }
        self.check_end_state();
        self.into_report()
    }

    /// Every turn must resolve exactly once, and every attempt must end
    /// exactly one way.
    fn check_end_state(&self) {
        let expected = self.config.client.total_turns(self.config.num_requests);
        if self.config.overload.deadline.is_some() {
            assert_eq!(
                self.completed + self.abandoned,
                expected,
                "every turn must resolve on-time or abandoned"
            );
            assert_eq!(
                self.attempts,
                self.completed + self.late + self.cancelled + self.escalated,
                "every attempt must finish, finish late, be cancelled, or escalate"
            );
            assert_eq!(
                self.attempts,
                expected + self.retries + self.escalated,
                "attempts are initial turns plus retries plus escalations"
            );
        } else {
            assert_eq!(self.completed, expected, "all turns must finish");
            assert_eq!(
                self.attempts,
                expected + self.escalated,
                "attempts are turns plus escalations"
            );
        }
    }

    /// Routes one LLM op within `tier`'s pool. The cascade policy picks
    /// the tier; the routing policy picks the replica inside it.
    fn route(&mut self, sid: u64, tier: usize) -> usize {
        let range = self.tier_ranges[tier].clone();
        let n = range.len();
        match self.config.routing {
            Routing::SessionAffinity => range.start + (sid as usize) % n,
            Routing::RoundRobin => {
                // Post-increment: the first dispatch lands on the pool's
                // first replica. (Pre-incrementing skewed dispatch order
                // so replica 0 was systematically served last.)
                let local = self.rr_counters[tier] % n;
                self.rr_counters[tier] = (local + 1) % n;
                range.start + local
            }
            Routing::LeastLoaded => range
                .min_by_key(|&r| {
                    self.engines[r].queue_len()
                        + self.engines[r].running_len()
                        + self.dispatch_calls[r]
                })
                .expect("non-empty pool"),
        }
    }

    fn on_arrival(&mut self, a: Arrival, now: SimTime) {
        // Chain the next arrival first, so it precedes any event this
        // one schedules at the same instant. Retries (attempt > 0) are
        // driver-issued and must not advance the client process.
        if a.attempt == 0 {
            if let Some(next) = self.client.after_arrival(now) {
                self.queue.push(next.at, Event::Arrival(next));
            }
        }
        let tier = if self.config.pools.len() > 1 {
            let task = TaskGenerator::new(self.config.benchmark, self.config.seed).task(a.turn);
            self.arrival_tier(&task, a.attempt)
        } else {
            0
        };
        let history = if self.config.carry_context {
            self.carry[a.session as usize].clone()
        } else {
            None
        };
        self.begin_attempt(a.session, a.turn, a.attempt, tier, 0, history, now, now);
    }

    /// The tier a fresh (non-escalated) attempt lands on under the
    /// cascade policy: retries optionally climb one tier per attempt, and
    /// tasks whose latent aptitude exceeds the cheap tier's *best-case*
    /// capability (plus margin) skip straight to the top — every cheap
    /// attempt at them is provably wasted work.
    fn arrival_tier(&self, task: &Task, attempt: u32) -> usize {
        let top = self.config.pools.len() - 1;
        if top == 0 {
            return 0;
        }
        let c = &self.config.cascade;
        if c.escalate_retries && attempt > 0 {
            return (attempt as usize).min(top);
        }
        if let Some(margin) = c.aptitude_margin {
            let cheap = &self.config.pools[0].agent;
            let best = Cognition::best_case_capability(self.config.kind, cheap, task);
            if Cognition::aptitude(task) + margin > best {
                return top;
            }
        }
        0
    }

    /// Opens one delivery attempt of a turn on `tier` and executes its
    /// first command. Shared by client arrivals, retries, and cascade
    /// escalations (which carry `history` and the original `started_at`
    /// across the re-route).
    #[allow(clippy::too_many_arguments)]
    fn begin_attempt(
        &mut self,
        sid: u64,
        turn: u64,
        attempt: u32,
        tier: usize,
        escalations: u32,
        history: Option<TokenBuf>,
        started_at: SimTime,
        now: SimTime,
    ) {
        self.attempts += 1;
        let task = TaskGenerator::new(self.config.benchmark, self.config.seed).task(turn);
        let (runner, cmd) = SessionRunner::agent_continuing(
            history,
            self.config.kind,
            &task,
            self.config.pools[tier].agent,
            self.root_rng.fork(turn ^ seeds::AGENT_SESSION),
            ToolRng::ForkByTime,
            &self.tools,
            now,
        );
        let s = sid as usize;
        let slot = &mut self.sessions[s];
        assert!(slot.is_none(), "session {sid} already live");
        *slot = Some(runner);
        self.epochs[s] += 1;
        let epoch = self.epochs[s];
        let deadline = self.config.overload.deadline.map(|d| now + d);
        self.meta[s] = Some(SessionMeta {
            turn,
            attempt,
            tier,
            escalations,
            started_at,
            epoch,
            deadline,
            expired: false,
            started: false,
            calls: Vec::new(),
            kv_ctx: None,
            kv_replica: 0,
        });
        if let Some(expiry) = deadline {
            self.queue
                .push(expiry, Event::DeadlineExpired { sid, epoch });
        }
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        self.exec(sid, cmd, now);
    }

    /// Executes a session command against the routed fleet.
    fn exec(&mut self, sid: u64, cmd: SessionCmd, now: SimTime) {
        match cmd {
            SessionCmd::Llm(op) => {
                let (epoch, deadline, started, tier) = {
                    let m = self.meta[sid as usize].as_ref().expect("live session meta");
                    (m.epoch, m.deadline, m.started, m.tier)
                };
                let replica = self.route(sid, tier);
                let entry = PendingOp {
                    sid,
                    epoch,
                    deadline,
                    calls: op.calls,
                    priority: op.priority,
                };
                if started {
                    // Admission gates at the door only: this attempt
                    // already holds engine state, so queueing its next
                    // op behind fresh arrivals would strand the GPU
                    // time it has consumed.
                    self.admit_op(replica, entry, now);
                    return;
                }
                self.dispatch_calls[replica] += entry.calls.len();
                match self.config.overload.discipline {
                    QueueDiscipline::Lifo => self.dispatch[replica].push_front(entry),
                    QueueDiscipline::Fifo | QueueDiscipline::DeadlineDrop => {
                        self.dispatch[replica].push_back(entry)
                    }
                }
                self.drain_dispatch(replica, now);
            }
            SessionCmd::Tools { wake } => {
                let epoch = self.epochs[sid as usize];
                self.queue.push(wake, Event::ToolsDone { sid, epoch });
                // The session's context blocks sit idle until the tools
                // return — tell the offload hierarchy exactly when that is.
                if let Some((replica, hashes)) = self.ctx_hashes(sid) {
                    self.send_hint(replica, hashes, now, wake);
                }
            }
            SessionCmd::Finish(outcome) => {
                let runner = self.sessions[sid as usize].take().expect("live session");
                let m = self.meta[sid as usize].take().expect("live session meta");
                debug_assert!(m.calls.is_empty(), "finished with calls in flight");
                self.live -= 1;
                let c = self.config.cascade;
                if c.escalate_on_failure
                    && !outcome.solved
                    && !m.expired
                    && m.tier + 1 < self.config.pools.len()
                    && m.escalations < c.max_escalations
                {
                    // Unsolved on this tier: re-run the turn one tier up.
                    // The conversation built so far (tracked engine-side
                    // context, falling back to the cross-turn carry)
                    // survives the re-route as the new attempt's prefix,
                    // so the premium pool prefills it instead of starting
                    // cold — and its KV hints will land on the new
                    // replica.
                    self.escalated += 1;
                    let history = match m.kv_ctx {
                        Some((ctx, _)) => Some(ctx),
                        None => self.carry[sid as usize].clone(),
                    };
                    self.begin_attempt(
                        sid,
                        m.turn,
                        m.attempt,
                        m.tier + 1,
                        m.escalations + 1,
                        history,
                        m.started_at,
                        now,
                    );
                    return;
                }
                self.last_finish = self.last_finish.max(now);
                if m.expired {
                    // The turn was already resolved abandoned at its
                    // deadline; this finish delivered nothing.
                    self.late += 1;
                } else {
                    // An escalated turn's latency spans the whole cascade
                    // chain, not just the final attempt's trace.
                    let latency = if m.escalations == 0 {
                        runner.trace().e2e()
                    } else {
                        now - m.started_at
                    };
                    self.latencies.push(latency.as_secs_f64());
                    self.completed += 1;
                    if outcome.solved {
                        self.solved += 1;
                    }
                    if let Some(next) = self.client.after_finish(sid, now) {
                        // A closed-loop user thinking before their next
                        // turn: that turn reopens with this context as
                        // its prefix, at a known future instant.
                        if next.session == sid {
                            if let Some((ctx, _)) = &m.kv_ctx {
                                let block = self.block_size_of(m.kv_replica);
                                let hashes = ctx.chain_hashes_cached(block).to_vec();
                                self.send_hint(m.kv_replica, hashes, now, next.at);
                            }
                        }
                        self.queue.push(next.at, Event::Arrival(next));
                    }
                    // The conversation so far becomes the next turn's
                    // prefix. A fan-out last op leaves no linear context;
                    // the previous carry then stands.
                    if self.config.carry_context {
                        if let Some((ctx, _)) = m.kv_ctx {
                            self.carry[sid as usize] = Some(ctx);
                        }
                    }
                }
            }
        }
    }

    /// The chain hashes of `sid`'s tracked engine-side context, with the
    /// replica holding it. `None` unless offload hints are enabled and the
    /// session has a tracked single-call context with at least one full
    /// block.
    fn ctx_hashes(&self, sid: u64) -> Option<(usize, Vec<u64>)> {
        if !self.hints {
            return None;
        }
        let m = self.meta[sid as usize].as_ref()?;
        let (ctx, _) = m.kv_ctx.as_ref()?;
        let hashes = ctx
            .chain_hashes_cached(self.block_size_of(m.kv_replica))
            .to_vec();
        if hashes.is_empty() {
            return None;
        }
        Some((m.kv_replica, hashes))
    }

    /// KV block size of the engine serving `replica` — pools may differ,
    /// so context hashing must use the holder's block size, not pool 0's.
    fn block_size_of(&self, replica: usize) -> usize {
        self.config.pools[self.pool_of[replica]].engine.block_size as usize
    }

    /// GPU-seconds per service-second on `replica`: the GPU count of its
    /// pool's cluster. A service-second wasted on a 4-GPU 70B replica
    /// burns four GPU-seconds — pricing every replica by pool 0's
    /// hardware undercounts heterogeneous waste.
    fn gpu_weight(&self, replica: usize) -> f64 {
        self.config.pools[self.pool_of[replica]]
            .engine
            .cluster
            .gpu_count as f64
    }

    /// Delivers a next-invocation prediction to `replica`'s engine (KV
    /// offload hierarchies under invocation-distance eviction).
    fn send_hint(&mut self, replica: usize, hashes: Vec<u64>, now: SimTime, at: SimTime) {
        if !self.hints || hashes.is_empty() {
            return;
        }
        self.engines[replica].hint_next_use(&hashes, now, at);
    }

    /// A session's tool batch finished; ignore the wake-up if the attempt
    /// was torn down (and possibly replaced) while the tools ran.
    fn on_tools_done_event(&mut self, sid: u64, epoch: u64, now: SimTime) {
        let s = sid as usize;
        if self.epochs[s] != epoch || self.sessions[s].is_none() {
            return;
        }
        let cmd = self.sessions[s]
            .as_mut()
            .expect("live session")
            .on_tools_done(&self.tools, now);
        self.exec(sid, cmd, now);
    }

    /// A turn's deadline expired while its attempt was still live.
    fn on_deadline(&mut self, sid: u64, epoch: u64, now: SimTime) {
        let s = sid as usize;
        if self.epochs[s] != epoch || self.sessions[s].is_none() {
            return; // The attempt finished (or was replaced) in time.
        }
        if self.config.overload.cancel_on_expiry {
            let meta = self.meta[s].take().expect("live session meta");
            self.sessions[s].take();
            self.live -= 1;
            self.cancelled += 1;
            let mut penalized: Vec<usize> = Vec::new();
            for (replica, id) in &meta.calls {
                let removed = self.owner.remove(&(*replica, *id));
                debug_assert!(removed.is_some(), "meta.calls tracks live submissions");
                self.in_flight[*replica] -= 1;
                self.engines[*replica].cancel(now, *id);
                if !penalized.contains(replica) {
                    penalized.push(*replica);
                    self.admission[*replica].on_timeout();
                }
            }
            // A queued (never-admitted) op of this attempt is dropped
            // lazily at dispatch: its epoch no longer matches the slot's.
            let retry_at = self
                .config
                .overload
                .retry
                .as_ref()
                .filter(|r| meta.attempt < r.max_retries)
                .map(|r| now + r.backoff(meta.attempt));
            match retry_at {
                Some(at) => {
                    self.retries += 1;
                    self.queue.push(
                        at,
                        Event::Arrival(Arrival {
                            at,
                            session: sid,
                            turn: meta.turn,
                            attempt: meta.attempt + 1,
                        }),
                    );
                }
                None => self.resolve_abandoned(sid, now),
            }
        } else {
            // No cancellation: the attempt keeps running to a late finish,
            // but the client-visible turn resolves abandoned now.
            let calls = {
                let m = self.meta[s].as_mut().expect("live session meta");
                m.expired = true;
                m.calls.clone()
            };
            let mut penalized: Vec<usize> = Vec::new();
            for (replica, _) in calls {
                if !penalized.contains(&replica) {
                    penalized.push(replica);
                    self.admission[replica].on_timeout();
                }
            }
            self.resolve_abandoned(sid, now);
        }
    }

    /// The client gives up on a logical turn.
    fn resolve_abandoned(&mut self, sid: u64, now: SimTime) {
        self.abandoned += 1;
        self.last_finish = self.last_finish.max(now);
        if let Some(next) = self.client.after_finish(sid, now) {
            self.queue.push(next.at, Event::Arrival(next));
        }
    }

    /// Routes one completed engine call back to its session.
    fn handle_completion(&mut self, replica: usize, completion: LlmCompletion, now: SimTime) {
        // Wasted service is priced in GPU-seconds by the replica's own
        // pool hardware, not pool 0's.
        let service = (completion.prefill_time + completion.decode_time).as_secs_f64()
            * self.gpu_weight(replica);
        let Some((sid, seq)) = self.owner.remove(&(replica, completion.id)) else {
            // A cancelled attempt's request that finished in the very step
            // the cancellation raced: the work is done, nobody is
            // listening, and the attempt's teardown already settled the
            // in-flight accounting.
            self.wasted_service += service;
            return;
        };
        self.in_flight[replica] -= 1;
        self.ttfts
            .push((completion.queue_time() + completion.prefill_time).as_secs_f64());
        if completion.output_tokens > 1 {
            self.tpots
                .push(completion.decode_time.as_secs_f64() / (completion.output_tokens - 1) as f64);
        }
        let expired = {
            let m = self.meta[sid as usize].as_mut().expect("live session meta");
            m.calls
                .retain(|&(r, id)| !(r == replica && id == completion.id));
            // Extend the tracked context with this call's output so hints
            // cover the blocks the engine appended during decode.
            if let Some((ctx, gen_seed)) = m.kv_ctx.as_mut() {
                for i in 0..completion.output_tokens as u64 {
                    ctx.push_generated(*gen_seed, i);
                }
            }
            m.expired
        };
        if expired {
            self.wasted_service += service;
        } else {
            self.admission[replica].on_success();
        }
        let cmd = self.sessions[sid as usize]
            .as_mut()
            .expect("live session")
            .on_call_done(seq, CallDone::from_completion(completion), &self.tools, now);
        if let Some(cmd) = cmd {
            self.exec(sid, cmd, now);
        }
    }

    fn on_step_done(&mut self, replica: usize, now: SimTime) {
        let mut completions = std::mem::take(&mut self.step_scratch);
        self.engines[replica].complete_step_into(now, &mut completions);
        for completion in completions.drain(..) {
            self.handle_completion(replica, completion, now);
        }
        self.step_scratch = completions;
    }

    /// Moves queued ops onto `replica`'s engine while its admission
    /// controller has room. Under accept-all this admits everything
    /// immediately, reproducing the historical direct-submit behaviour.
    fn drain_dispatch(&mut self, replica: usize, now: SimTime) {
        while let Some(idx) = self.select_dispatch(replica) {
            let calls_len = self.dispatch[replica][idx].calls.len();
            let limit = self.admission[replica].limit();
            // Head-of-line exception: an idle replica always admits its
            // next op whole, so a multi-call op larger than the current
            // limit cannot deadlock the queue.
            if !(self.in_flight[replica] == 0 || self.in_flight[replica] + calls_len <= limit) {
                break;
            }
            let op = self.dispatch[replica].remove(idx).expect("selected index");
            self.dispatch_calls[replica] -= calls_len;
            self.admit_op(replica, op, now);
        }
    }

    /// Submits an op's calls to `replica`'s engine, recording ownership
    /// and in-flight accounting. Marks the owning attempt started so its
    /// later ops bypass the admission queue.
    fn admit_op(&mut self, replica: usize, op: PendingOp, now: SimTime) {
        let calls_len = op.calls.len();
        // Snapshot the context before the prompt moves into the engine:
        // it seeds the next-invocation hints this op's tool calls and
        // turn boundaries will emit.
        let kv_ctx = if self.track_ctx && calls_len == 1 {
            Some((op.calls[0].prompt.clone(), op.calls[0].gen_seed))
        } else {
            None
        };
        let mut submitted = Vec::with_capacity(calls_len);
        for (seq, call) in op.calls.into_iter().enumerate() {
            let id = self.engines[replica].submit_with_priority(
                now,
                call.prompt,
                call.out_tokens,
                call.gen_seed,
                op.priority,
            );
            self.owner.insert((replica, id), (op.sid, seq as u32));
            submitted.push((replica, id));
        }
        self.in_flight[replica] += calls_len;
        let m = self.meta[op.sid as usize]
            .as_mut()
            .expect("live session meta");
        m.started = true;
        m.calls.extend(submitted);
        if self.track_ctx {
            // A fan-out op invalidates the tracked context outright.
            m.kv_ctx = kv_ctx;
            m.kv_replica = replica;
        }
    }

    /// Picks the next dispatchable op index for `replica` under the
    /// configured discipline, dropping dead entries along the way.
    fn select_dispatch(&mut self, replica: usize) -> Option<usize> {
        let mut i = 0;
        while i < self.dispatch[replica].len() {
            let op = &self.dispatch[replica][i];
            let sid = op.sid as usize;
            // Stale: the attempt was torn down (and maybe retried) since
            // this op was queued.
            let stale = self.epochs[sid] != op.epoch || self.sessions[sid].is_none();
            // Deadline-drop: never start work for a client that already
            // gave up. Only reachable without cancellation (with it, the
            // teardown makes the op stale instead).
            let expired = !stale
                && self.config.overload.discipline == QueueDiscipline::DeadlineDrop
                && self.meta[sid].as_ref().is_some_and(|m| m.expired);
            if stale || expired {
                let op = self.dispatch[replica].remove(i).expect("index in range");
                self.dispatch_calls[replica] -= op.calls.len();
                self.dropped += 1;
                if expired {
                    // An op at dispatch has no sibling calls in flight
                    // (sessions issue one op at a time), so dropping it
                    // is the whole teardown of the expired attempt.
                    self.sessions[sid].take();
                    self.meta[sid].take();
                    self.live -= 1;
                    self.cancelled += 1;
                }
                continue;
            }
            i += 1;
        }
        let queue = &self.dispatch[replica];
        if queue.is_empty() {
            return None;
        }
        match self.config.overload.discipline {
            QueueDiscipline::Fifo | QueueDiscipline::Lifo => Some(0),
            // Earliest deadline first; ties broken in FIFO order
            // (min_by_key keeps the first minimum).
            QueueDiscipline::DeadlineDrop => (0..queue.len())
                .min_by_key(|&i| queue[i].deadline.expect("deadline-drop requires deadlines")),
        }
    }

    /// Drains every replica's dispatch queue; called after each event so
    /// completions that freed admission slots pull queued work in.
    fn drain_all(&mut self, now: SimTime) {
        for replica in 0..self.dispatch.len() {
            if !self.dispatch[replica].is_empty() {
                self.drain_dispatch(replica, now);
            }
        }
    }

    fn kick(&mut self, replica: usize, now: SimTime) {
        if let Some(end) = self.engines[replica].start_step_if_idle(now) {
            self.queue.push(end, Event::StepDone(replica));
        }
    }

    fn into_report(self) -> FleetReport {
        let mut latencies: Samples = self.latencies.iter().copied().collect();
        let p50_s = latencies.try_median().unwrap_or(f64::NAN);
        let p95_s = latencies.try_p95().unwrap_or(f64::NAN);
        let mut ttfts: Samples = self.ttfts.iter().copied().collect();
        let ttft_p50_s = ttfts.try_median().unwrap_or(f64::NAN);
        let ttft_p95_s = ttfts.try_p95().unwrap_or(f64::NAN);
        let mut tpots: Samples = self.tpots.iter().copied().collect();
        let tpot_p50_s = tpots.try_median().unwrap_or(f64::NAN);
        let tpot_p99_s = tpots.try_percentile(99.0).unwrap_or(f64::NAN);
        let (mut hits, mut lookups) = (0u64, 0u64);
        let mut energy_wh = 0.0;
        let mut wasted_gpu_s = self.wasted_service;
        let mut utilization = Vec::with_capacity(self.engines.len());
        let (mut demoted, mut promoted, mut promoted_tokens, mut dropped) = (0u64, 0u64, 0u64, 0);
        let (mut host_bytes, mut nvme_bytes) = (0u64, 0u64);
        // Integer-microsecond sums converted once at the end: replica
        // iteration order is fixed, but integer accumulation makes the
        // order moot anyway.
        let (mut host_busy, mut host_wait) = (SimDuration::ZERO, SimDuration::ZERO);
        let (mut nvme_busy, mut nvme_wait) = (SimDuration::ZERO, SimDuration::ZERO);
        for (r, e) in self.engines.iter().enumerate() {
            let kv = e.kv().stats();
            hits += kv.hit_tokens;
            lookups += kv.hit_tokens + kv.miss_tokens;
            energy_wh += e.metrics().energy_within(self.last_finish).watt_hours();
            utilization.push(e.metrics().utilization(self.last_finish));
            wasted_gpu_s += e.metrics().wasted().as_secs_f64() * self.gpu_weight(r);
            demoted += kv.demoted_blocks_host + kv.demoted_blocks_nvme;
            promoted += kv.promoted_blocks_host + kv.promoted_blocks_nvme;
            promoted_tokens += kv.promoted_tokens;
            dropped += kv.offload_dropped_blocks;
            host_bytes += e.host_link().map_or(0, |l| l.bytes_moved());
            nvme_bytes += e.nvme_link().map_or(0, |l| l.bytes_moved());
            if let Some(l) = e.host_link() {
                host_busy += l.busy_time();
                host_wait += l.wait_time();
            }
            if let Some(l) = e.nvme_link() {
                nvme_busy += l.busy_time();
                nvme_wait += l.wait_time();
            }
        }
        let makespan = self.last_finish.as_secs_f64();
        FleetReport {
            offered_qps: self.config.qps,
            completed: self.completed,
            solved: self.solved,
            escalated: self.escalated,
            p50_s,
            p95_s,
            kv_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            energy_wh,
            utilization,
            throughput: if makespan > 0.0 {
                (self.completed + self.late) as f64 / makespan
            } else {
                0.0
            },
            goodput: if makespan > 0.0 {
                self.completed as f64 / makespan
            } else {
                0.0
            },
            attempts: self.attempts,
            retries: self.retries,
            abandoned: self.abandoned,
            late: self.late,
            cancelled: self.cancelled,
            dropped: self.dropped,
            wasted_gpu_s,
            latencies,
            max_live_sessions: self.max_live,
            ttft_p50_s,
            ttft_p95_s,
            tpot_p50_s,
            tpot_p99_s,
            offload_demoted_blocks: demoted,
            offload_promoted_blocks: promoted,
            offload_promoted_tokens: promoted_tokens,
            offload_dropped_blocks: dropped,
            offload_host_bytes: host_bytes,
            offload_nvme_bytes: nvme_bytes,
            offload_host_busy_s: host_busy.as_secs_f64(),
            offload_host_wait_s: host_wait.as_secs_f64(),
            offload_nvme_busy_s: nvme_busy.as_secs_f64(),
            offload_nvme_wait_s: nvme_wait.as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_session::{AdmissionPolicy, RetryPolicy};

    fn run(routing: Routing, replicas: u32) -> FleetReport {
        FleetSim::new(FleetConfig::react_hotpotqa(replicas, routing, 2.0, 40).seed(3)).run()
    }

    fn run_closed(routing: Routing, replicas: u32, concurrency: u32, turns: u64) -> FleetReport {
        let cfg = FleetConfig::react_hotpotqa(replicas, routing, 2.0, turns)
            .seed(3)
            .client(ClientModel::ClosedLoop {
                concurrency,
                think_time: SimDuration::from_secs(2),
            });
        FleetSim::new(cfg).run()
    }

    fn run_overload(policy: OverloadPolicy, qps: f64) -> FleetReport {
        FleetSim::new(
            FleetConfig::react_hotpotqa(2, Routing::LeastLoaded, qps, 30)
                .seed(11)
                .overload(policy),
        )
        .run()
    }

    #[test]
    fn round_robin_dispatch_order_starts_at_replica_zero() {
        let mut sim = FleetSim::new(FleetConfig::react_hotpotqa(3, Routing::RoundRobin, 1.0, 3));
        let order: Vec<usize> = (0..7).map(|sid| sim.route(sid, 0)).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0], "post-increment rotation");
    }

    #[test]
    fn session_affinity_pins_sessions_to_replicas() {
        let mut sim = FleetSim::new(FleetConfig::react_hotpotqa(
            4,
            Routing::SessionAffinity,
            1.0,
            3,
        ));
        for sid in 0..16u64 {
            assert_eq!(sim.route(sid, 0), (sid % 4) as usize);
            // Repeated calls of the same session stay put.
            assert_eq!(sim.route(sid, 0), (sid % 4) as usize);
        }
    }

    #[test]
    fn least_loaded_picks_an_idle_replica_first() {
        let mut sim = FleetSim::new(FleetConfig::react_hotpotqa(3, Routing::LeastLoaded, 1.0, 3));
        // All replicas idle: ties break toward the lowest index.
        assert_eq!(sim.route(9, 0), 0);
    }

    #[test]
    fn fleet_completes_all_requests() {
        let r = run(Routing::SessionAffinity, 3);
        assert_eq!(r.completed, 40);
        assert_eq!(r.utilization.len(), 3);
        assert!(r.throughput > 0.0);
        assert_eq!(
            r.goodput.to_bits(),
            r.throughput.to_bits(),
            "no deadline: goodput is throughput"
        );
        assert_eq!(r.attempts, 40);
        assert_eq!(r.abandoned + r.late + r.cancelled + r.retries, 0);
        assert_eq!(r.wasted_gpu_s, 0.0);
    }

    #[test]
    fn affinity_beats_round_robin_on_hit_rate() {
        // Iterative calls only reuse their history prefix if they land on
        // the same replica.
        let affinity = run(Routing::SessionAffinity, 4);
        let rr = run(Routing::RoundRobin, 4);
        assert!(
            affinity.kv_hit_rate > rr.kv_hit_rate + 0.1,
            "affinity {:.2} vs round-robin {:.2}",
            affinity.kv_hit_rate,
            rr.kv_hit_rate
        );
    }

    #[test]
    fn all_policies_are_deterministic() {
        // A replayed trace with bursts and lulls, beside the Poisson
        // arrivals of `run`.
        let pattern = [0.05, 0.40, 0.10, 0.02, 0.65, 0.15];
        let trace = ClientModel::TraceReplay {
            gaps: (0..36)
                .map(|i| SimDuration::from_secs_f64(pattern[i % pattern.len()]))
                .collect(),
        };
        for routing in [
            Routing::SessionAffinity,
            Routing::RoundRobin,
            Routing::LeastLoaded,
        ] {
            assert_eq!(
                run(routing, 2).fingerprint(),
                run(routing, 2).fingerprint(),
                "{routing} must be deterministic"
            );
            let replay = || {
                let cfg = FleetConfig::react_hotpotqa(2, routing, 2.0, 36)
                    .seed(3)
                    .client(trace.clone());
                FleetSim::new(cfg).run()
            };
            let (a, b) = (replay(), replay());
            assert_eq!(a.completed, 36);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{routing} replay");
        }
    }

    #[test]
    fn more_replicas_raise_capacity() {
        let one = FleetSim::new(
            FleetConfig::react_hotpotqa(1, Routing::SessionAffinity, 6.0, 60).seed(4),
        )
        .run();
        let four = FleetSim::new(
            FleetConfig::react_hotpotqa(4, Routing::SessionAffinity, 6.0, 60).seed(4),
        )
        .run();
        assert!(
            four.throughput > one.throughput,
            "4 replicas {:.2} vs 1 replica {:.2} QPS",
            four.throughput,
            one.throughput
        );
        assert!(four.p95_s < one.p95_s);
    }

    #[test]
    fn closed_loop_concurrency_never_exceeds_population() {
        let r = run_closed(Routing::SessionAffinity, 2, 3, 18);
        assert_eq!(r.completed, 18);
        assert!(
            r.max_live_sessions <= 3,
            "live sessions {} exceeded the population",
            r.max_live_sessions
        );
        assert!(r.max_live_sessions >= 1);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        assert_eq!(
            run_closed(Routing::LeastLoaded, 2, 4, 16).fingerprint(),
            run_closed(Routing::LeastLoaded, 2, 4, 16).fingerprint()
        );
    }

    #[test]
    fn closed_loop_affinity_beats_round_robin_on_hit_rate() {
        // Multi-turn session reuse gives affinity routing cross-turn
        // replica state to exploit; round-robin scatters it.
        let affinity = run_closed(Routing::SessionAffinity, 4, 8, 40);
        let rr = run_closed(Routing::RoundRobin, 4, 8, 40);
        assert!(
            affinity.kv_hit_rate > rr.kv_hit_rate + 0.1,
            "affinity {:.2} vs round-robin {:.2}",
            affinity.kv_hit_rate,
            rr.kv_hit_rate
        );
    }

    #[test]
    fn deadline_without_cancellation_finishes_late() {
        // A deadline tight enough that some turns miss it, no
        // cancellation: every expired attempt still runs to completion,
        // so late == abandoned and the engines burn wasted service.
        let r = run_overload(
            OverloadPolicy::none().deadline(SimDuration::from_secs(20)),
            8.0,
        );
        assert_eq!(r.completed + r.abandoned, 30);
        assert_eq!(r.attempts, 30);
        assert!(r.abandoned > 0, "the deadline must bind at this load");
        assert_eq!(r.late, r.abandoned, "uncancelled attempts finish late");
        assert!(r.wasted_gpu_s > 0.0);
        assert!(r.goodput <= r.throughput);
    }

    #[test]
    fn cancellation_tears_expired_attempts_down() {
        let r = run_overload(
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(20))
                .cancel_on_expiry(),
            8.0,
        );
        assert_eq!(r.completed + r.abandoned, 30);
        assert!(r.cancelled > 0, "the deadline must bind at this load");
        assert_eq!(r.late, 0, "cancelled attempts never finish");
        assert_eq!(r.attempts, r.completed + r.cancelled);
        assert!(r.wasted_gpu_s > 0.0, "partial service of cancelled work");
    }

    #[test]
    fn retries_reissue_expired_turns() {
        let r = run_overload(
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(20))
                .cancel_on_expiry()
                .retry(RetryPolicy::standard()),
            8.0,
        );
        assert!(r.retries > 0, "the deadline must bind at this load");
        assert_eq!(r.attempts, 30 + r.retries);
        assert_eq!(r.attempts, r.completed + r.late + r.cancelled);
        assert_eq!(r.completed + r.abandoned, 30, "retries never double-count");
    }

    #[test]
    fn overload_policies_are_deterministic() {
        for discipline in [QueueDiscipline::DeadlineDrop, QueueDiscipline::Lifo] {
            let policy = || {
                OverloadPolicy::none()
                    .deadline(SimDuration::from_secs(20))
                    .cancel_on_expiry()
                    .retry(RetryPolicy::standard())
                    .admission(AdmissionPolicy::aimd_default())
                    .discipline(discipline)
            };
            assert_eq!(
                run_overload(policy(), 8.0).fingerprint(),
                run_overload(policy(), 8.0).fingerprint()
            );
        }
    }

    /// Closed-loop multi-turn traffic over KV-starved replicas: long
    /// think times let other sessions thrash each user's context out of
    /// HBM between turns.
    fn run_tiered(offload: Option<agentsim_llm::OffloadConfig>) -> FleetReport {
        let mut cfg = FleetConfig::react_hotpotqa(2, Routing::SessionAffinity, 2.0, 24)
            .seed(5)
            .client(ClientModel::ClosedLoop {
                concurrency: 6,
                think_time: SimDuration::from_secs(30),
            })
            .with_context_carry()
            .map_engines(|e| e.with_kv_fraction(0.15));
        if let Some(off) = offload {
            cfg = cfg.map_engines(|e| e.with_offload(off.clone()));
        }
        FleetSim::new(cfg).run()
    }

    fn distance_tiers() -> agentsim_llm::OffloadConfig {
        agentsim_llm::OffloadConfig::tiers(2048, 8192)
            .with_policy(agentsim_kvcache::EvictionPolicy::InvocationDistance)
    }

    #[test]
    fn invocation_distance_hints_beat_blind_lru_offload() {
        let lru = run_tiered(Some(agentsim_llm::OffloadConfig::tiers(2048, 8192)));
        let dist = run_tiered(Some(distance_tiers()));
        assert_eq!(lru.completed, dist.completed);
        assert!(
            dist.ttft_p95_s < lru.ttft_p95_s,
            "knowing who returns next must shorten TTFT: {:.3} !< {:.3}",
            dist.ttft_p95_s,
            lru.ttft_p95_s
        );
        assert!(
            dist.kv_hit_rate >= lru.kv_hit_rate,
            "{:.3} !>= {:.3}",
            dist.kv_hit_rate,
            lru.kv_hit_rate
        );
    }

    #[test]
    fn offload_tiers_absorb_cache_thrash() {
        let plain = run_tiered(None);
        let tiered = run_tiered(Some(distance_tiers()));
        assert_eq!(tiered.completed, plain.completed);
        assert!(
            tiered.offload_demoted_blocks > 0,
            "pool pressure must spill"
        );
        assert!(
            tiered.offload_promoted_tokens > 0,
            "evicted contexts must come back from the tiers"
        );
        assert!(tiered.offload_host_bytes > 0, "transfers move real bytes");
        assert!(
            tiered.kv_hit_rate > plain.kv_hit_rate,
            "promoted prefixes count as hits: {:.3} !> {:.3}",
            tiered.kv_hit_rate,
            plain.kv_hit_rate
        );
        assert!(
            tiered.ttft_p95_s < plain.ttft_p95_s,
            "promotion beats recompute on TTFT: {:.3} !< {:.3}",
            tiered.ttft_p95_s,
            plain.ttft_p95_s
        );
    }

    #[test]
    fn zero_capacity_tiers_match_no_offload_bit_for_bit() {
        let plain = run_tiered(None);
        let hollow = run_tiered(Some(agentsim_llm::OffloadConfig::tiers(0, 0)));
        assert_eq!(plain.fingerprint(), hollow.fingerprint());
    }

    #[test]
    fn offloaded_runs_are_deterministic_across_runs() {
        let free_links = agentsim_llm::OffloadConfig::tiers(4096, 0)
            .with_policy(agentsim_kvcache::EvictionPolicy::InvocationDistance)
            .with_free_links();
        for offload in [distance_tiers(), free_links] {
            let a = run_tiered(Some(offload.clone()));
            let b = run_tiered(Some(offload));
            assert!(
                a.offload_demoted_blocks > 0,
                "the row must exercise the tiers"
            );
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    /// Two cheap 8B replicas plus one 4xH100 70B replica.
    fn hetero_cfg(cascade: CascadePolicy) -> FleetConfig {
        FleetConfig::pooled(
            vec![
                ReplicaPool::new(EngineConfig::a100_llama8b(), 2),
                ReplicaPool::new(EngineConfig::h100x4_llama70b(), 1),
            ],
            Routing::SessionAffinity,
            2.0,
            32,
        )
        .seed(9)
        .cascade(cascade)
    }

    #[test]
    fn single_pool_sugar_equals_explicit_pool_bit_for_bit() {
        let sugar = run(Routing::SessionAffinity, 3);
        let pooled = FleetSim::new(
            FleetConfig::pooled(
                vec![ReplicaPool::new(EngineConfig::a100_llama8b(), 3)],
                Routing::SessionAffinity,
                2.0,
                40,
            )
            .seed(3),
        )
        .run();
        assert_eq!(sugar.fingerprint(), pooled.fingerprint());
    }

    /// Pure failure-driven escalation: no aptitude pre-screen, so every
    /// turn starts cheap and only observed failure re-routes it.
    fn escalate_only() -> CascadePolicy {
        CascadePolicy {
            escalate_on_failure: true,
            aptitude_margin: None,
            max_escalations: u32::MAX,
            escalate_retries: false,
        }
    }

    #[test]
    fn cascade_escalates_unsolved_turns_to_the_premium_tier() {
        let flat = FleetSim::new(hetero_cfg(CascadePolicy::none())).run();
        let casc = FleetSim::new(hetero_cfg(escalate_only())).run();
        assert_eq!(flat.completed, 32);
        assert_eq!(casc.completed, 32);
        assert_eq!(flat.escalated, 0, "an inert policy never re-routes");
        assert!(casc.escalated > 0, "some 8B failures must escalate");
        assert_eq!(casc.attempts, 32 + casc.escalated);
        assert!(
            casc.solved > flat.solved,
            "the 70B pool must rescue turns the 8B tier failed: {} !> {}",
            casc.solved,
            flat.solved
        );
    }

    #[test]
    fn aptitude_prescreen_skips_doomed_cheap_attempts() {
        // The cognition pre-screen routes tasks the cheap tier provably
        // cannot solve straight to the top tier, so it reaches (at
        // least) the accuracy of post-hoc escalation while re-running
        // fewer turns.
        let reactive = FleetSim::new(hetero_cfg(escalate_only())).run();
        let screened = FleetSim::new(hetero_cfg(CascadePolicy::standard())).run();
        assert!(screened.solved >= reactive.solved);
        assert!(
            screened.escalated < reactive.escalated,
            "pre-screening must replace most failure-driven re-routes: {} !< {}",
            screened.escalated,
            reactive.escalated
        );
        assert!(
            screened.utilization[2] > 0.0,
            "pre-screened turns land on the premium replica directly"
        );
    }

    #[test]
    fn inert_cascade_over_two_pools_keeps_the_premium_tier_idle() {
        let flat = FleetSim::new(hetero_cfg(CascadePolicy::none())).run();
        assert_eq!(
            flat.utilization[2], 0.0,
            "tier 0 routing never touches the premium replica"
        );
        assert!(flat.utilization[0] > 0.0);
    }

    #[test]
    fn heterogeneous_cascade_is_deterministic_across_runs() {
        let mut least_loaded = hetero_cfg(escalate_only());
        least_loaded.routing = Routing::LeastLoaded;
        for cfg in [
            hetero_cfg(escalate_only()),
            hetero_cfg(CascadePolicy::standard()),
            least_loaded,
        ] {
            assert_eq!(
                FleetSim::new(cfg.clone()).run().fingerprint(),
                FleetSim::new(cfg).run().fingerprint()
            );
        }
    }

    #[test]
    fn lifo_discipline_admits_newest_work_first() {
        // Just a liveness check: the run terminates and the accounting
        // telescopes under a non-FIFO discipline with a tight limiter.
        let r = run_overload(
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(25))
                .cancel_on_expiry()
                .admission(AdmissionPolicy::Aimd {
                    initial: 2.0,
                    min: 1.0,
                    max: 8.0,
                    increase: 1.0,
                    decrease: 0.5,
                })
                .discipline(QueueDiscipline::Lifo),
            8.0,
        );
        assert_eq!(r.completed + r.abandoned, 30);
        assert_eq!(r.attempts, r.completed + r.late + r.cancelled);
    }
}
