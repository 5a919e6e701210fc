//! Replays inputs captured from the twin loop and the real workload
//! against single layers, timing each call:
//!
//! * [`replay_engine`] re-executes a colocated engine's KV traffic on a
//!   fresh [`KvBlockManager`] (and its offload [`MemoryHierarchy`]),
//!   re-prices every step with [`PerfModel`], and re-schedules the tier
//!   transfers on fresh offload [`Link`]s. It mirrors the engine's
//!   classic FCFS scheduler from the event stream alone, and checks as it
//!   goes that every admission, preemption and completion matches.
//! * [`replay_migrations`] re-schedules a disaggregated run's KV
//!   migrations with [`TransferScheduler::schedule`] and
//!   [`Link::schedule_chunked`].
//!
//! [`MemoryHierarchy`]: agentsim_kvcache::MemoryHierarchy

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use agentsim_disagg::{DisaggConfig, DisaggReport, TransferScheduler};
use agentsim_gpu::perf::PrefillItem;
use agentsim_gpu::{Link, PerfModel};
use agentsim_kvcache::tokens::generated_token;
use agentsim_kvcache::{
    KvBlockManager, KvConfig, SeqHandle, Tier, TierDir, TierTransfer, TokenBuf,
};
use agentsim_llm::{EngineConfig, MigratedRequest, RequestId, SchedulerPolicy, StepKind};
use agentsim_simkit::{SimDuration, SimTime};

use crate::twin::Ev;

/// What the engine replay measured.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// `allocate` calls (admissions plus over-budget probes).
    pub allocs: u64,
    /// Over-budget probes: the engine allocates the next queued request,
    /// finds it over the step's token budget, and frees it again.
    pub probes: u64,
    /// Nanoseconds inside `allocate`.
    pub alloc_ns: u64,
    /// Nanoseconds inside the other `KvBlockManager` calls.
    pub kv_ns: u64,
    /// Prefix-cache token counts `(hit, miss)` after the replay.
    pub kv_tokens: (u64, u64),
    /// `PerfModel` step-pricing calls and their nanoseconds.
    pub pricings: u64,
    pub pricing_ns: u64,
    /// Steps whose priced duration equals the recorded `ended - started`.
    pub steps_exact: u64,
    /// Steps priced below the recording by an offload promotion stall.
    pub steps_stalled: u64,
    /// Tier transfers re-scheduled on the offload links, and the link
    /// counters `(transfers, chunks, bytes, busy, wait)` they produced.
    pub link_calls: u64,
    pub link_ns: u64,
    pub links: (u64, u64, u64, SimDuration, SimDuration),
}

struct Req {
    ctx: TokenBuf,
    target: u32,
    generated: u32,
    seed: u64,
    started: Option<SimTime>,
}

struct Run {
    id: RequestId,
    seq: SeqHandle,
    started: SimTime,
}

enum Outcome {
    Completed,
    Continues,
    SelfPreempted,
}

struct Mirror<'a> {
    cfg: &'a EngineConfig,
    prompts: &'a HashMap<RequestId, (TokenBuf, u32, u64)>,
    kv: KvBlockManager,
    perf: PerfModel,
    host: Option<Link>,
    nvme: Option<Link>,
    reqs: HashMap<RequestId, Req>,
    waiting: VecDeque<RequestId>,
    running: Vec<Run>,
    /// The admission round in progress: its time, items and token budget.
    forming: Option<(SimTime, Vec<PrefillItem>, u32)>,
    /// Priced items of the last admission round, for its step.
    items: Vec<PrefillItem>,
    /// Preemptions and completions the mirror made, awaiting the events
    /// that confirm them.
    expect: VecDeque<Ev>,
    tier_events: Vec<TierTransfer>,
    out: EngineReplay,
}

fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns += t.elapsed().as_nanos() as u64;
    out
}

/// Replays a colocated engine's event stream. `prompts` maps each
/// request to its prompt, output length and generation seed.
///
/// # Errors
///
/// Returns the first point where the mirrored scheduler diverges from
/// the recording.
pub fn replay_engine(
    cfg: &EngineConfig,
    events: &[Ev],
    prompts: &HashMap<RequestId, (TokenBuf, u32, u64)>,
) -> Result<EngineReplay, String> {
    if cfg.chunked_prefill || cfg.scheduler != SchedulerPolicy::Fcfs {
        return Err("the replay mirrors classic FCFS scheduling only".into());
    }
    let mut kv = KvBlockManager::new(KvConfig {
        num_blocks: cfg.num_kv_blocks(),
        block_size: cfg.block_size,
        prefix_caching: cfg.prefix_caching,
    });
    let (host, nvme) = match &cfg.offload {
        Some(off) => {
            kv.enable_offload(off.spec());
            (
                Some(Link::new(off.host_link.clone())),
                Some(Link::new(off.nvme_link.clone())),
            )
        }
        None => (None, None),
    };
    let mut m = Mirror {
        cfg,
        prompts,
        kv,
        perf: PerfModel::new(cfg.cluster.clone()),
        host,
        nvme,
        reqs: HashMap::new(),
        waiting: VecDeque::new(),
        running: Vec::new(),
        forming: None,
        items: Vec::new(),
        expect: VecDeque::new(),
        tier_events: Vec::new(),
        out: EngineReplay::default(),
    };
    for (i, ev) in events.iter().enumerate() {
        m.apply(ev)
            .map_err(|e| format!("event {i} ({ev:?}): {e}"))?;
    }
    m.end_round()?;
    if !m.expect.is_empty() {
        return Err(format!(
            "{} mirrored outcomes never happened",
            m.expect.len()
        ));
    }
    let stats = m.kv.stats();
    m.out.kv_tokens = (stats.hit_tokens, stats.miss_tokens);
    for link in [&m.host, &m.nvme].into_iter().flatten() {
        m.out.links.0 += link.transfers();
        m.out.links.1 += link.chunks();
        m.out.links.2 += link.bytes_moved();
        m.out.links.3 += link.busy_time();
        m.out.links.4 += link.wait_time();
    }
    Ok(m.out)
}

impl Mirror<'_> {
    fn apply(&mut self, ev: &Ev) -> Result<(), String> {
        if !matches!(ev, Ev::Admitted { .. }) {
            self.end_round()?;
        }
        match ev {
            Ev::Submitted { id } => {
                let (prompt, target, seed) = self
                    .prompts
                    .get(id)
                    .cloned()
                    .ok_or_else(|| format!("no prompt captured for {id}"))?;
                self.reqs.insert(
                    *id,
                    Req {
                        ctx: prompt,
                        target,
                        generated: 0,
                        seed,
                        started: None,
                    },
                );
                self.waiting.push_back(*id);
            }
            Ev::Admitted {
                id,
                at,
                new_tokens,
                cached_tokens,
            } => {
                if self.forming.as_ref().is_some_and(|f| f.0 != *at) {
                    self.end_round()?;
                }
                if self.waiting.front() != Some(id) {
                    return Err(format!(
                        "admitted {id} but the queue head is {:?}",
                        self.waiting.front()
                    ));
                }
                self.waiting.pop_front();
                let req = self.reqs.get_mut(id).expect("submitted before admitted");
                let kv = &mut self.kv;
                // The engine asks before it allocates; the first call
                // computes the prompt's chain hashes.
                if !timed(&mut self.out.kv_ns, || kv.can_allocate(&req.ctx)) {
                    return Err(format!("admitted {id} does not fit the replayed pool"));
                }
                let seq = timed(&mut self.out.alloc_ns, || kv.allocate(&req.ctx, *at))
                    .map_err(|e| format!("replayed allocation failed: {e}"))?;
                self.out.allocs += 1;
                let cached = self.kv.cached_tokens(&seq) as u32;
                if cached != *cached_tokens || req.ctx.len() as u32 - cached != *new_tokens {
                    return Err(format!(
                        "replay cached {cached} of {} tokens; the engine cached {cached_tokens}",
                        req.ctx.len()
                    ));
                }
                let started = *req.started.get_or_insert(*at);
                self.running.push(Run {
                    id: *id,
                    seq,
                    started,
                });
                self.drain_tiers(*at);
                let round = self.forming.get_or_insert((*at, Vec::new(), 0));
                round.1.push(PrefillItem {
                    new_tokens: u64::from(*new_tokens),
                    cached_tokens: u64::from(*cached_tokens),
                });
                round.2 = round.2.saturating_add(*new_tokens);
            }
            Ev::Step {
                kind,
                started,
                ended,
                prefill,
                decode,
            } => self.step(*kind, *started, *ended, prefill, decode)?,
            Ev::Preempted { .. } | Ev::Completed { .. } => match self.expect.pop_front() {
                Some(want) if want == *ev => {}
                other => return Err(format!("mirror expected {other:?}")),
            },
            Ev::Unsupported(name) => return Err(format!("unsupported engine event {name}")),
        }
        Ok(())
    }

    /// Closes an admission round the way the engine's admit loop ends:
    /// unless the budget is spent, the next queued request is allocated
    /// and, being over budget, freed again.
    fn end_round(&mut self) -> Result<(), String> {
        let Some((at, items, used)) = self.forming.take() else {
            return Ok(());
        };
        self.items = items;
        if used >= self.cfg.max_batch_tokens || self.running.len() >= self.cfg.max_running as usize
        {
            return Ok(());
        }
        let Some(head) = self.waiting.front() else {
            return Ok(());
        };
        let ctx = &self.reqs[head].ctx;
        let kv = &mut self.kv;
        if !timed(&mut self.out.kv_ns, || kv.can_allocate(ctx)) {
            return Ok(());
        }
        let seq = timed(&mut self.out.alloc_ns, || kv.allocate(ctx, at))
            .map_err(|e| format!("over-budget probe failed: {e}"))?;
        self.out.allocs += 1;
        let uncached = ctx.len() as u32 - self.kv.cached_tokens(&seq) as u32;
        if used + uncached <= self.cfg.max_batch_tokens {
            return Err(format!("{head} fits the budget but was not admitted"));
        }
        let kv = &mut self.kv;
        timed(&mut self.out.kv_ns, || kv.free(seq, at));
        self.out.probes += 1;
        self.drain_tiers(at);
        Ok(())
    }

    fn step(
        &mut self,
        kind: StepKind,
        started: SimTime,
        ended: SimTime,
        prefill: &[RequestId],
        decode: &[RequestId],
    ) -> Result<(), String> {
        let cost = match kind {
            StepKind::Prefill => {
                if self.items.len() != prefill.len() {
                    return Err("prefill batch differs from the admission round".into());
                }
                let (perf, items) = (&self.perf, &self.items);
                timed(&mut self.out.pricing_ns, || perf.prefill(items))
            }
            StepKind::Decode => {
                let mine: Vec<RequestId> = self.running.iter().map(|r| r.id).collect();
                if mine != decode {
                    return Err("decode batch differs from the mirrored running set".into());
                }
                let lens: Vec<u64> = decode
                    .iter()
                    .map(|id| self.reqs[id].ctx.len() as u64)
                    .collect();
                let perf = &self.perf;
                timed(&mut self.out.pricing_ns, || perf.decode_step(&lens))
            }
            StepKind::Mixed => return Err("mixed steps need chunked prefill".into()),
        };
        self.out.pricings += 1;
        let recorded = ended.saturating_since(started);
        if cost.duration == recorded {
            self.out.steps_exact += 1;
        } else if cost.duration < recorded && kind == StepKind::Prefill && self.host.is_some() {
            self.out.steps_stalled += 1;
        } else {
            return Err(format!(
                "priced {} but the step took {recorded}",
                cost.duration
            ));
        }
        // Token production, in the engine's running-set order.
        let mut idx = 0;
        while idx < self.running.len() {
            let produces = kind != StepKind::Prefill || prefill.contains(&self.running[idx].id);
            if !produces {
                idx += 1;
                continue;
            }
            match self.produce(idx, ended)? {
                Outcome::Continues => idx += 1,
                Outcome::Completed | Outcome::SelfPreempted => {}
            }
        }
        self.items.clear();
        self.drain_tiers(ended);
        Ok(())
    }

    fn produce(&mut self, idx: usize, now: SimTime) -> Result<Outcome, String> {
        loop {
            let run = &self.running[idx];
            let req = self.reqs.get_mut(&run.id).expect("running request");
            let token = generated_token(req.seed, u64::from(req.generated));
            let (kv, seq) = (&mut self.kv, run.seq);
            match timed(&mut self.out.kv_ns, || kv.append_token(seq, token, now)) {
                Ok(()) => {
                    req.ctx.extend([token]);
                    req.generated += 1;
                    if req.generated >= req.target {
                        let run = self.running.swap_remove(idx);
                        let kv = &mut self.kv;
                        timed(&mut self.out.kv_ns, || kv.free(run.seq, now));
                        self.expect.push_back(Ev::Completed { id: run.id });
                        return Ok(Outcome::Completed);
                    }
                    return Ok(Outcome::Continues);
                }
                Err(_) => {
                    let victim = self
                        .running
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != idx)
                        .max_by_key(|(_, r)| (r.started, r.id))
                        .map(|(i, _)| i);
                    match victim {
                        Some(v) => {
                            self.preempt(v, now);
                            if v < idx && idx == self.running.len() {
                                return self.produce(v, now);
                            }
                        }
                        None => {
                            self.preempt(idx, now);
                            return Ok(Outcome::SelfPreempted);
                        }
                    }
                }
            }
        }
    }

    fn preempt(&mut self, idx: usize, now: SimTime) {
        let run = self.running.swap_remove(idx);
        let kv = &mut self.kv;
        timed(&mut self.out.kv_ns, || kv.free(run.seq, now));
        self.expect.push_back(Ev::Preempted { id: run.id });
        self.waiting.push_front(run.id);
    }

    /// Schedules the tier transfers the manager logged since the last
    /// call on the offload links, as the engine does.
    fn drain_tiers(&mut self, now: SimTime) {
        if self.host.is_none() {
            return;
        }
        self.kv.take_tier_transfers(&mut self.tier_events);
        let bytes_per_block = self.cfg.kv_bytes_per_block();
        let chunks = self.cfg.offload.as_ref().map_or(1, |o| o.transfer_chunks);
        for ev in self.tier_events.drain(..) {
            let link = match ev.tier {
                Tier::Host => self.host.as_mut(),
                Tier::Nvme => self.nvme.as_mut(),
            }
            .expect("both offload links exist");
            let bytes = u64::from(ev.blocks) * bytes_per_block;
            let t = Instant::now();
            if ev.dir == TierDir::Promote && chunks > 1 {
                let n = u64::from(chunks).min(bytes.max(1));
                let plan: Vec<(SimTime, u64)> = (0..n)
                    .map(|k| (now, bytes / n + u64::from(k < bytes % n)))
                    .collect();
                link.schedule_chunked(&plan);
            } else {
                link.schedule(now, bytes);
            }
            self.out.link_ns += t.elapsed().as_nanos() as u64;
            self.out.link_calls += 1;
        }
    }
}

/// What the migration replay measured.
#[derive(Debug, Default)]
pub struct MigrationReplay {
    /// `TransferScheduler::schedule` calls and their nanoseconds.
    pub schedules: u64,
    pub schedule_ns: u64,
    /// Replayed arrivals equal to the recorded decode submission time.
    pub arrivals_exact: u64,
    /// `Link::schedule_chunked` calls and their nanoseconds.
    pub link_calls: u64,
    pub link_ns: u64,
}

/// Re-schedules every migration of a disaggregated run, in release
/// order, on a fresh [`TransferScheduler`] with the run's link and chunk
/// count, and the same chunk plans straight on fresh [`Link`]s.
pub fn replay_migrations(config: &DisaggConfig, report: &DisaggReport) -> MigrationReplay {
    let replicas = config.total_replicas() as usize;
    let chunks = config
        .transfer_chunks
        .min(config.prefill_engine.cluster.model.layers);
    let mut sched = TransferScheduler::new(config.link.clone(), replicas).with_chunks(chunks);
    let mut links: Vec<Link> = (0..replicas)
        .map(|_| Link::new(config.link.clone()))
        .collect();
    let mut calls: Vec<_> = report
        .calls
        .iter()
        .filter_map(|c| Some((c, c.decode_replica?, c.decode_submitted?)))
        .filter(|(c, _, _)| c.kv_bytes > 0)
        .collect();
    // The driver schedules each migration at its release. Links are FIFO,
    // so among migrations released together the earlier arrival was
    // scheduled first.
    calls.sort_by_key(|(c, _, arrived)| (c.released, *arrived));
    let mut out = MigrationReplay::default();
    for (c, dst, arrived) in calls {
        let migration = MigratedRequest {
            id: RequestId(out.schedules),
            arrived: c.arrived,
            started: c.prefill_started,
            released: c.released,
            prompt_tokens: c.prompt_tokens,
            cached_tokens: c.cached_tokens,
            priority: 0,
            ctx: TokenBuf::new(),
            generated: 1,
            target_out: c.output_tokens,
            gen_seed: 0,
            prefill_time: c.prefill_time,
            flops: 0.0,
            preemptions: 0,
            kv_blocks: 0,
            kv_bytes: c.kv_bytes,
        };
        let n = u64::from(chunks).min(c.kv_bytes.max(1)) as u32;
        let plan: Vec<(SimTime, u64)> = (0..n)
            .map(|k| {
                let bytes =
                    c.kv_bytes / u64::from(n) + u64::from(u64::from(k) < c.kv_bytes % u64::from(n));
                (migration.chunk_ready(c.released, k, n), bytes)
            })
            .collect();
        let t = Instant::now();
        let (_, arrival) = sched.schedule(c.released, dst as usize, migration);
        out.schedule_ns += t.elapsed().as_nanos() as u64;
        out.schedules += 1;
        out.arrivals_exact += u64::from(arrival == arrived);
        let link = &mut links[dst as usize];
        let t = Instant::now();
        link.schedule_chunked(&plan);
        out.link_ns += t.elapsed().as_nanos() as u64;
        out.link_calls += 1;
    }
    out
}
