//! The step-loop serving engine.

use std::collections::{HashMap, VecDeque};

use agentsim_gpu::perf::PrefillItem;
use agentsim_gpu::{EnergyModel, Link, PerfModel};
use agentsim_kvcache::tokens::generated_token;
use agentsim_kvcache::{
    KvBlockManager, KvConfig, SeqHandle, Tier, TierDir, TierTransfer, TokenBuf,
};
use agentsim_simkit::{SimDuration, SimTime};

use crate::config::{EngineConfig, EngineRole, SchedulerPolicy};
use crate::metrics::EngineMetrics;
use crate::observer::{EngineEvent, EngineObserver, StepKind};
use crate::request::{LlmCompletion, MigratedRequest, RequestId};

/// A queued (not yet scheduled) request.
#[derive(Debug)]
struct Waiting {
    id: RequestId,
    priority: u32,
    prompt: TokenBuf,
    target_out: u32,
    generated: u32,
    gen_seed: u64,
    arrived: SimTime,
    orig_prompt_tokens: u32,
    /// KV content already exists elsewhere: admit via KV import, skipping
    /// prefill entirely (disaggregated decode pools).
    imported: bool,
    // Carried across preemptions:
    started: Option<SimTime>,
    prefill_time: SimDuration,
    decode_time: SimDuration,
    flops: f64,
    preemptions: u32,
}

/// A sequence in the running (decode) set, or mid-prefill when chunked.
#[derive(Debug)]
struct Running {
    id: RequestId,
    priority: u32,
    ctx: TokenBuf,
    seq: SeqHandle,
    target_out: u32,
    generated: u32,
    gen_seed: u64,
    arrived: SimTime,
    started: SimTime,
    orig_prompt_tokens: u32,
    prompt_tokens: u32,
    /// Uncached prompt tokens still to prefill (chunked mode only).
    prefill_remaining: u32,
    imported: bool,
    prefill_time: SimDuration,
    decode_time: SimDuration,
    flops: f64,
    cached_tokens: u32,
    preemptions: u32,
}

#[derive(Debug)]
struct StepInProgress {
    kind: StepKind,
    started: SimTime,
    ends: SimTime,
    duration: SimDuration,
    flops: f64,
    /// Ids participating as prefill (chunk sizes), for attribution.
    prefill_chunks: Vec<(RequestId, u32)>,
}

/// The discrete-event LLM serving engine. See the [crate docs](crate) for
/// the driving protocol and an example.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    perf: PerfModel,
    kv: KvBlockManager,
    waiting: VecDeque<Waiting>,
    running: Vec<Running>,
    step: Option<StepInProgress>,
    next_id: u64,
    metrics: EngineMetrics,
    observer: Option<Box<dyn EngineObserver>>,
    /// Requests released at first token (prefill role), awaiting pickup
    /// via [`Engine::take_migrations`].
    migrations: Vec<MigratedRequest>,
    /// Mid role-flip: refuse new submissions while in-flight work drains
    /// (see [`Engine::begin_drain`] / [`Engine::finish_drain`]).
    draining: bool,
    /// Requests marked for cancellation, purged at the next step boundary
    /// (see [`Engine::cancel`]).
    cancelled: Vec<RequestId>,
    /// HBM↔host offload path; present iff `config.offload` is.
    host_link: Option<Link>,
    /// Host↔NVMe offload path; present iff `config.offload` is.
    nvme_link: Option<Link>,
    /// Scratch buffer for draining tier-transfer events from the manager.
    tier_events: Vec<TierTransfer>,
}

impl Engine {
    /// Builds an engine from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    pub fn new(config: EngineConfig) -> Self {
        config.validate().expect("invalid engine config");
        let mut kv = KvBlockManager::new(KvConfig {
            num_blocks: config.num_kv_blocks(),
            block_size: config.block_size,
            prefix_caching: config.prefix_caching,
        });
        let (host_link, nvme_link) = match &config.offload {
            Some(off) => {
                kv.enable_offload(off.spec());
                (
                    Some(Link::new(off.host_link.clone())),
                    Some(Link::new(off.nvme_link.clone())),
                )
            }
            None => (None, None),
        };
        let energy = EnergyModel::new(&config.cluster);
        Engine {
            perf: PerfModel::new(config.cluster.clone()),
            kv,
            waiting: VecDeque::new(),
            running: Vec::new(),
            step: None,
            next_id: 0,
            metrics: EngineMetrics::new(energy),
            observer: None,
            migrations: Vec::new(),
            draining: false,
            cancelled: Vec::new(),
            host_link,
            nvme_link,
            tier_events: Vec::new(),
            config,
        }
    }

    /// Attaches an observer that receives every [`EngineEvent`]. Replaces
    /// any previous observer. With no observer attached, event
    /// construction is skipped entirely (zero overhead).
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the current observer, if any.
    pub fn clear_observer(&mut self) -> Option<Box<dyn EngineObserver>> {
        self.observer.take()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The KV block manager (for occupancy and hit-rate statistics).
    pub fn kv(&self) -> &KvBlockManager {
        &self.kv
    }

    /// The HBM↔host offload link, if KV offload is configured.
    pub fn host_link(&self) -> Option<&Link> {
        self.host_link.as_ref()
    }

    /// The host↔NVMe offload link, if KV offload is configured.
    pub fn nvme_link(&self) -> Option<&Link> {
        self.nvme_link.as_ref()
    }

    /// Tells the offload hierarchy when the blocks holding `hashes` are
    /// predicted to be needed next (`at`), e.g. when the owning session's
    /// tool call returns or its user finishes thinking. A no-op unless the
    /// engine runs the invocation-distance eviction policy. `now` is only
    /// used to discard predictions that are already in the past.
    pub fn hint_next_use(&mut self, hashes: &[u64], now: SimTime, at: SimTime) {
        self.kv.hint_next_use(hashes, now, at);
    }

    /// Engine-level metrics accumulated so far.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The roofline model in use.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Requests waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Sequences currently running (prefilling or decoding).
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Whether any request is queued, running, or mid-step.
    pub fn has_work(&self) -> bool {
        !self.waiting.is_empty() || !self.running.is_empty() || self.step.is_some()
    }

    // ---- role flips (pool autoscaling) ----------------------------------

    /// Starts draining for a role flip: from now on the engine refuses
    /// fresh submissions ([`Engine::submit`] panics, and the driver must
    /// route around it via [`Engine::admits_new_work`]) while in-flight
    /// work runs to completion. Committed inbound migrations are still
    /// accepted via [`Engine::submit_prefilled`] — KV already in flight on
    /// the interconnect must land. Idempotent.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether the engine is mid-drain for a role flip.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether the engine accepts fresh submissions (not draining).
    pub fn admits_new_work(&self) -> bool {
        !self.draining
    }

    /// Completes a drain: the engine flips to `role` and admits new work
    /// again. Emits [`EngineEvent::RoleChanged`] so observers can draw
    /// role timelines.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not draining, still has queued/running
    /// work, or holds untaken migrations — a flip while requests are live
    /// would strand them with the wrong role's scheduling.
    pub fn finish_drain(&mut self, now: SimTime, role: EngineRole) {
        assert!(self.draining, "finish_drain without begin_drain");
        assert!(!self.has_work(), "cannot flip roles with work in flight");
        assert!(
            self.migrations.is_empty(),
            "cannot flip roles with untaken migrations"
        );
        let from = self.config.role;
        self.config.role = role;
        self.draining = false;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&EngineEvent::RoleChanged {
                at: now,
                from,
                to: role,
            });
        }
    }

    /// Enqueues a request: generate `out_tokens` tokens after `prompt`.
    ///
    /// `gen_seed` identifies the output stream so that agents replaying
    /// this output into a later prompt produce identical token ids
    /// (prefix-cache hits across iterative calls).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty, `out_tokens` is zero, or the total
    /// sequence exceeds the model's context window.
    pub fn submit(
        &mut self,
        now: SimTime,
        prompt: TokenBuf,
        out_tokens: u32,
        gen_seed: u64,
    ) -> RequestId {
        self.submit_with_priority(now, prompt, out_tokens, gen_seed, 0)
    }

    /// Like [`Engine::submit`], with an explicit scheduling priority
    /// (higher is served first under
    /// [`SchedulerPolicy::DeepestFirst`]; ignored under FCFS).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::submit`].
    pub fn submit_with_priority(
        &mut self,
        now: SimTime,
        prompt: TokenBuf,
        out_tokens: u32,
        gen_seed: u64,
        priority: u32,
    ) -> RequestId {
        assert!(!self.draining, "draining engine refuses new submissions");
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(out_tokens > 0, "out_tokens must be at least 1");
        let total = prompt.len() + out_tokens as usize;
        assert!(
            total <= self.config.cluster.model.max_context as usize,
            "sequence of {total} tokens exceeds the {}-token context window",
            self.config.cluster.model.max_context
        );
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let prompt_tokens = prompt.len() as u32;
        self.waiting.push_back(Waiting {
            id,
            priority,
            orig_prompt_tokens: prompt_tokens,
            prompt,
            target_out: out_tokens,
            generated: 0,
            gen_seed,
            arrived: now,
            imported: false,
            started: None,
            prefill_time: SimDuration::ZERO,
            decode_time: SimDuration::ZERO,
            flops: 0.0,
            preemptions: 0,
        });
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&EngineEvent::Submitted {
                id,
                at: now,
                prompt_tokens,
                out_tokens,
                priority,
            });
        }
        id
    }

    /// Enqueues a mid-life request whose KV content was prefilled elsewhere
    /// and transferred in (disaggregated decode pools): `migrated.ctx` is
    /// the full context (prompt + first token), admitted via KV *import* —
    /// no prefill compute happens on this engine, and the request joins the
    /// decode set directly. The engine takes `migrated` by value and keeps
    /// its context as the request's prompt, so the caller holds no copy.
    ///
    /// Returns the fresh id assigned on this engine (the id inside
    /// `migrated` belongs to the prefill engine).
    ///
    /// # Panics
    ///
    /// Panics if the context is empty, no output tokens remain, or the
    /// total sequence exceeds the model's context window.
    pub fn submit_prefilled(&mut self, now: SimTime, migrated: MigratedRequest) -> RequestId {
        assert!(
            !migrated.ctx.is_empty(),
            "migrated context must be non-empty"
        );
        assert!(
            migrated.remaining_tokens() > 0,
            "migrated request has no output tokens left to decode"
        );
        let total = migrated.ctx.len() + migrated.remaining_tokens() as usize;
        assert!(
            total <= self.config.cluster.model.max_context as usize,
            "sequence of {total} tokens exceeds the {}-token context window",
            self.config.cluster.model.max_context
        );
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let prompt_tokens = migrated.ctx.len() as u32;
        self.waiting.push_back(Waiting {
            id,
            priority: migrated.priority,
            orig_prompt_tokens: migrated.prompt_tokens,
            prompt: migrated.ctx,
            target_out: migrated.target_out,
            generated: migrated.generated,
            gen_seed: migrated.gen_seed,
            arrived: now,
            imported: true,
            started: None,
            prefill_time: SimDuration::ZERO,
            decode_time: SimDuration::ZERO,
            flops: 0.0,
            preemptions: 0,
        });
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&EngineEvent::Submitted {
                id,
                at: now,
                prompt_tokens,
                out_tokens: migrated.target_out,
                priority: migrated.priority,
            });
        }
        id
    }

    /// Drains the requests this (prefill-role) engine released at their
    /// first token since the last call. The driver transfers their KV and
    /// resubmits them on a decode engine via [`Engine::submit_prefilled`].
    pub fn take_migrations(&mut self) -> Vec<MigratedRequest> {
        std::mem::take(&mut self.migrations)
    }

    /// Like [`take_migrations`](Self::take_migrations), but appends into a
    /// caller-provided buffer so hot loops can reuse one allocation across
    /// steps.
    pub fn take_migrations_into(&mut self, out: &mut Vec<MigratedRequest>) {
        out.append(&mut self.migrations);
    }

    /// If no step is in flight and there is work, forms the next step and
    /// returns the simulated time at which it completes. The caller must
    /// invoke [`Engine::complete_step`] exactly at that time.
    ///
    /// Returns `None` if a step is already in flight or there is nothing
    /// runnable (e.g. all queued requests are blocked on KV memory held by
    /// nothing — which panics, since that can never resolve).
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot hold the head request even when idle and
    /// fully evicted (the request can never run).
    pub fn start_step_if_idle(&mut self, now: SimTime) -> Option<SimTime> {
        if self.step.is_some() {
            return None;
        }
        let step = if self.config.chunked_prefill {
            self.form_mixed_step(now)
        } else {
            self.form_classic_step(now)
        };
        if step.is_none() && self.running.is_empty() && !self.waiting.is_empty() {
            let head = self.waiting.front().expect("non-empty");
            panic!(
                "KV pool ({} blocks) can never admit {} with a {}-token prompt",
                self.kv.config().num_blocks,
                head.id,
                head.prompt.len()
            );
        }
        self.step = step;
        self.step.as_ref().map(|s| s.ends)
    }

    /// Completes the in-flight step (which must end exactly `now`) and
    /// returns any finished requests.
    ///
    /// # Panics
    ///
    /// Panics if no step is in flight or `now` is not its end time.
    pub fn complete_step(&mut self, now: SimTime) -> Vec<LlmCompletion> {
        let mut done = Vec::new();
        self.complete_step_into(now, &mut done);
        done
    }

    /// Like [`complete_step`](Self::complete_step), but appends finished
    /// requests into a caller-provided buffer so hot loops can reuse one
    /// allocation across steps.
    pub fn complete_step_into(&mut self, now: SimTime, done: &mut Vec<LlmCompletion>) {
        let step = self.step.take().expect("no step in flight");
        assert_eq!(step.ends, now, "complete_step called at the wrong time");

        // Engine-level accounting.
        self.metrics.flops += step.flops;
        match step.kind {
            StepKind::Prefill => {
                self.metrics.prefill_busy += step.duration;
                self.metrics.prefill_steps += 1;
            }
            StepKind::Decode => {
                self.metrics.decode_busy += step.duration;
                self.metrics.decode_steps += 1;
            }
            StepKind::Mixed => {
                self.metrics.mixed_busy += step.duration;
                self.metrics.mixed_steps += 1;
            }
        }

        // Per-request attribution of step wall-time and prefill progress,
        // in one pass over the running set (ids are unique per step).
        let chunk_of: HashMap<RequestId, u32> = step.prefill_chunks.iter().copied().collect();
        for r in &mut self.running {
            if let Some(&chunk) = chunk_of.get(&r.id) {
                r.prefill_time += step.duration;
                r.prefill_remaining = r.prefill_remaining.saturating_sub(chunk);
            } else if step.kind != StepKind::Prefill && r.prefill_remaining == 0 {
                r.decode_time += step.duration;
            }
        }

        // Emit the step's batch composition and occupancy snapshot before
        // token production removes completions and preempts victims.
        if self.observer.is_some() {
            let decode: Vec<RequestId> = if step.kind == StepKind::Prefill {
                Vec::new()
            } else {
                self.running
                    .iter()
                    .filter(|r| r.prefill_remaining == 0 && !chunk_of.contains_key(&r.id))
                    .map(|r| r.id)
                    .collect()
            };
            let event = EngineEvent::StepCompleted {
                kind: step.kind,
                started: step.started,
                ended: now,
                flops: step.flops,
                prefill: &step.prefill_chunks,
                decode: &decode,
                kv_used_blocks: self.kv.used_blocks() as u64,
                kv_total_blocks: self.kv.config().num_blocks as u64,
                running: self.running.len() as u32,
                waiting: self.waiting.len() as u32,
            };
            self.observer
                .as_deref_mut()
                .expect("observer checked above")
                .on_event(&event);
        }

        let done_before = done.len();

        // Sequences that just finished prefill produce their first token;
        // decode participants produce one token each.
        let mut idx = 0;
        while idx < self.running.len() {
            let was_chunk = chunk_of.contains_key(&self.running[idx].id);
            let produces = if was_chunk {
                // Prefill participants emit their first token only once
                // the whole prompt has been processed.
                self.running[idx].prefill_remaining == 0
            } else {
                // Decode participants emit one token; sequences stalled
                // mid-prefill (chunked mode) or bystanders of a pure
                // prefill step do not advance.
                step.kind != StepKind::Prefill && self.running[idx].prefill_remaining == 0
            };
            if !produces {
                idx += 1;
                continue;
            }
            match self.produce_token(idx, now) {
                TokenOutcome::Completed(c) => {
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_event(&EngineEvent::Completed {
                            at: now,
                            completion: &c,
                        });
                    }
                    done.push(c);
                    // produce_token removed the entry; do not advance idx.
                }
                TokenOutcome::Continues => idx += 1,
                TokenOutcome::SelfPreempted => {
                    // The producing sequence itself was preempted; entry
                    // removed, do not advance idx.
                }
                TokenOutcome::Migrated(m) => {
                    self.metrics.migrated += 1;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_event(&EngineEvent::Migrated {
                            id: m.id,
                            at: now,
                            generated: m.generated,
                            kv_blocks: m.kv_blocks,
                            kv_bytes: m.kv_bytes,
                        });
                    }
                    self.migrations.push(m);
                    // Entry removed; do not advance idx.
                }
            }
        }
        self.metrics.completed += (done.len() - done_before) as u64;
        // Token appends can evict cached blocks into the offload tiers;
        // those demotes are asynchronous, so the stall is always zero.
        let stall = self.charge_tier_transfers(now, SimDuration::ZERO);
        debug_assert!(stall.is_zero(), "promotion outside admission");
        if !self.cancelled.is_empty() {
            self.purge_cancelled(now);
        }
    }

    // ---- server-side cancellation ---------------------------------------

    /// Marks `id` for cancellation: its client gave up (deadline expiry),
    /// so the engine should stop burning prefill/decode work on it.
    ///
    /// The purge is lazy: a step already in flight runs to its end (the
    /// GPU cannot abort mid-kernel), and the request is removed — KV
    /// freed, [`EngineEvent::Abandoned`] emitted, service-so-far charged
    /// to [`EngineMetrics::wasted_prefill`]/[`wasted_decode`] — when that
    /// step completes. On an idle engine the purge happens immediately.
    /// Cancelling an id that already finished (its completion raced the
    /// deadline) is a no-op.
    ///
    /// [`EngineMetrics::wasted_prefill`]: EngineMetrics::wasted_prefill
    /// [`wasted_decode`]: EngineMetrics::wasted_decode
    pub fn cancel(&mut self, now: SimTime, id: RequestId) {
        self.cancelled.push(id);
        if self.step.is_none() {
            self.purge_cancelled(now);
        }
    }

    /// Removes every marked request still present, freeing KV and
    /// accounting the service it consumed as wasted work. Removal is
    /// order-preserving so queue positions of surviving requests — and
    /// therefore all future scheduling — are unaffected.
    fn purge_cancelled(&mut self, at: SimTime) {
        let ids = std::mem::take(&mut self.cancelled);
        for id in ids {
            let (generated, prefill, decode) =
                if let Some(pos) = self.waiting.iter().position(|w| w.id == id) {
                    let w = self.waiting.remove(pos).expect("position found");
                    (w.generated, w.prefill_time, w.decode_time)
                } else if let Some(pos) = self.running.iter().position(|r| r.id == id) {
                    let r = self.running.remove(pos);
                    self.kv.free(r.seq, at);
                    (r.generated, r.prefill_time, r.decode_time)
                } else {
                    // Already completed or migrated in its final step.
                    continue;
                };
            self.metrics.abandoned += 1;
            self.metrics.wasted_prefill += prefill;
            self.metrics.wasted_decode += decode;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_event(&EngineEvent::Abandoned { id, at, generated });
            }
        }
    }

    /// Drains tier-transfer events the block manager recorded since the
    /// last call and schedules each on the matching offload link, FIFO.
    /// Returns how long the caller must stall for **promotions** to land
    /// in HBM (the prefill cannot attend over KV still in flight), which
    /// the admitting step folds into its duration — the offload TTFT toll.
    /// Demotions are asynchronous: they occupy the link (delaying later
    /// transfers queued behind them) but gate nothing.
    ///
    /// `overlap` is the wall time of the prefill compute the promotions
    /// gate. With [`OffloadConfig`]`::transfer_chunks` above 1 each
    /// promote ships as a train of layer chunks and chunk `k` of `n` is
    /// only needed once the prefill reaches layer `k` — at
    /// `now + overlap * k / n` — so the stall covers just the residual
    /// the wire fails to hide behind compute. With a single chunk (the
    /// default) `overlap` is ignored and the promote gates end to end,
    /// bit-identical to the serial pricing.
    fn charge_tier_transfers(&mut self, now: SimTime, overlap: SimDuration) -> SimDuration {
        if self.host_link.is_none() {
            return SimDuration::ZERO;
        }
        self.kv.take_tier_transfers(&mut self.tier_events);
        if self.tier_events.is_empty() {
            return SimDuration::ZERO;
        }
        let bytes_per_block = self.config.kv_bytes_per_block();
        let chunks = self
            .config
            .offload
            .as_ref()
            .map_or(1, |o| o.transfer_chunks);
        let mut stall = SimDuration::ZERO;
        for ev in self.tier_events.drain(..) {
            let link = match ev.tier {
                Tier::Host => self.host_link.as_mut(),
                Tier::Nvme => self.nvme_link.as_mut(),
            };
            let link = link.expect("offload links exist whenever the hierarchy does");
            let bytes = ev.blocks as u64 * bytes_per_block;
            if ev.dir == TierDir::Promote && chunks > 1 {
                let n = u64::from(chunks).min(bytes.max(1));
                let base = bytes / n;
                let rem = bytes % n;
                let plan: Vec<(SimTime, u64)> =
                    (0..n).map(|k| (now, base + u64::from(k < rem))).collect();
                let t = link.schedule_chunked(&plan);
                for (k, c) in t.chunks().iter().enumerate() {
                    let needed = now + overlap * (k as u64) / n;
                    stall = stall.max(c.end.saturating_since(needed));
                }
            } else {
                let t = link.schedule(now, bytes);
                if ev.dir == TierDir::Promote {
                    stall = stall.max(t.end.saturating_since(now));
                }
            }
        }
        stall
    }

    // ---- step formation -------------------------------------------------

    /// Classic vLLM scheduling: a step is either a prefill batch (admitted
    /// FCFS under the token budget) or one decode iteration.
    fn form_classic_step(&mut self, now: SimTime) -> Option<StepInProgress> {
        let admitted = self.admit(now, self.config.max_batch_tokens);
        if !admitted.is_empty() {
            let items: Vec<PrefillItem> = admitted
                .iter()
                .map(|&(_, new, cached)| PrefillItem {
                    new_tokens: new as u64,
                    cached_tokens: cached as u64,
                })
                .collect();
            let cost = self.perf.prefill(&items);
            // Price any KV the admission moved through the offload
            // tiers. Promotions gate this prefill; chunked promotion
            // pricing overlaps the fetch against the prefill compute,
            // which is why the step cost must be known before the toll
            // is charged.
            let stall = self.charge_tier_transfers(now, cost.duration);
            // Newly admitted requests carry their whole uncached prompt as
            // one "chunk"; they produce their first token at step end.
            // Imported admissions may interleave with them in `running`,
            // so attribute by id rather than by tail position.
            let chunk_of: HashMap<RequestId, (u32, u32)> = admitted
                .iter()
                .map(|&(id, new, cached)| (id, (new, cached)))
                .collect();
            for r in &mut self.running {
                if let Some(&(new, cached)) = chunk_of.get(&r.id) {
                    r.flops += self.perf.prefill_flops(new as u64, cached as u64);
                }
            }
            let duration = cost.duration + stall;
            return Some(StepInProgress {
                kind: StepKind::Prefill,
                started: now,
                ends: now + duration,
                duration,
                flops: cost.flops,
                prefill_chunks: admitted.iter().map(|&(id, new, _)| (id, new)).collect(),
            });
        }
        // No admission, so nothing can have promoted — but demotes the
        // scheduler queued still need their link time charged.
        let stall = self.charge_tier_transfers(now, SimDuration::ZERO);
        debug_assert!(stall.is_zero(), "promotion without a prefill admission");
        self.form_decode_step(now)
    }

    fn form_decode_step(&mut self, now: SimTime) -> Option<StepInProgress> {
        let decoding: Vec<u64> = self
            .running
            .iter()
            .filter(|r| r.prefill_remaining == 0)
            .map(|r| r.ctx.len() as u64)
            .collect();
        if decoding.is_empty() {
            return None;
        }
        let cost = self.perf.decode_step(&decoding);
        let model = &self.config.cluster.model;
        for r in &mut self.running {
            if r.prefill_remaining == 0 {
                r.flops += model.flops_per_token(r.ctx.len() as u64);
            }
        }
        Some(StepInProgress {
            kind: StepKind::Decode,
            started: now,
            ends: now + cost.duration,
            duration: cost.duration,
            flops: cost.flops,
            prefill_chunks: Vec::new(),
        })
    }

    /// Chunked-prefill scheduling: decodes run every step; leftover token
    /// budget advances the oldest in-progress prefill.
    fn form_mixed_step(&mut self, now: SimTime) -> Option<StepInProgress> {
        let decode_count = self
            .running
            .iter()
            .filter(|r| r.prefill_remaining == 0)
            .count() as u32;
        let budget = self.config.max_batch_tokens.saturating_sub(decode_count);

        // Admit new requests while budget remains (they join mid-prefill).
        if budget > 0 && self.running.iter().all(|r| r.prefill_remaining == 0) {
            let _ = self.admit(now, budget);
        }
        // Price KV moved through the offload tiers by that admission; a
        // promotion gates this whole mixed step (the new request's first
        // chunk runs in it). Chunked promotion overlap applies to
        // classic admission only — a mixed step's prefill chunk is too
        // small a window to pipeline a whole promote against, so the
        // serial end-to-end toll is the honest price here.
        let stall = self.charge_tier_transfers(now, SimDuration::ZERO);

        // The decode set is re-derived after admission: ordinary admits
        // enter mid-prefill (excluded), while imported admits arrive with
        // their KV complete and decode immediately.
        let decoding: Vec<u64> = self
            .running
            .iter()
            .filter(|r| r.prefill_remaining == 0)
            .map(|r| r.ctx.len() as u64)
            .collect();

        // Advance in-progress prefills, oldest first, one pass: record the
        // chunk, its perf-model item, and the owner's index together.
        let mut chunks: Vec<(RequestId, u32)> = Vec::new();
        let mut chunk_idx: Vec<usize> = Vec::new();
        let mut items: Vec<PrefillItem> = Vec::new();
        let mut remaining_budget = budget;
        for (i, r) in self.running.iter().enumerate() {
            if r.prefill_remaining > 0 && remaining_budget > 0 {
                let chunk = r.prefill_remaining.min(remaining_budget);
                remaining_budget -= chunk;
                let already = (r.prompt_tokens - r.cached_tokens - r.prefill_remaining) as u64;
                items.push(PrefillItem {
                    new_tokens: chunk as u64,
                    cached_tokens: r.cached_tokens as u64 + already,
                });
                chunks.push((r.id, chunk));
                chunk_idx.push(i);
            }
        }

        if chunks.is_empty() && decoding.is_empty() {
            debug_assert!(stall.is_zero(), "promotion without an admission");
            return None;
        }

        let cost = if chunks.is_empty() {
            self.perf.decode_step(&decoding)
        } else {
            self.perf.mixed_step(&items, &decoding)
        };
        let model = &self.config.cluster.model;
        for r in &mut self.running {
            if r.prefill_remaining == 0 {
                r.flops += model.flops_per_token(r.ctx.len() as u64);
            }
        }
        for (item, &i) in items.iter().zip(&chunk_idx) {
            self.running[i].flops += self.perf.prefill_flops(item.new_tokens, item.cached_tokens);
        }
        let kind = if chunks.is_empty() {
            StepKind::Decode
        } else {
            StepKind::Mixed
        };
        let duration = cost.duration + stall;
        Some(StepInProgress {
            kind,
            started: now,
            ends: now + duration,
            duration,
            flops: cost.flops,
            prefill_chunks: chunks,
        })
    }

    /// FCFS admission under a token budget. Returns `(id, uncached,
    /// cached)` for each admitted request *that needs prefill*; KV is
    /// allocated immediately. Imported requests (KV transferred in) are
    /// also admitted here — they consume a running slot and KV blocks but
    /// no token budget, join the decode set directly, and do not appear in
    /// the returned list.
    fn admit(&mut self, now: SimTime, budget_tokens: u32) -> Vec<(RequestId, u32, u32)> {
        // Under DeepestFirst, order the whole queue once (highest priority
        // first; FCFS within a level). The key is a total order (ids are
        // unique), so popping the sorted front yields exactly the sequence
        // of per-admission maxima the previous rescan-per-admission found.
        if self.config.scheduler == SchedulerPolicy::DeepestFirst && self.waiting.len() > 1 {
            self.waiting
                .make_contiguous()
                .sort_unstable_by_key(|w| (std::cmp::Reverse(w.priority), w.arrived, w.id));
        }
        let mut admitted = Vec::new();
        let mut budget_used: u32 = 0;
        while let Some(head) = self.waiting.front() {
            if self.running.len() >= self.config.max_running as usize {
                break;
            }
            if !self.kv.can_allocate(&head.prompt) {
                break; // FCFS head-of-line blocking on memory.
            }
            if head.imported {
                let seq = match self.kv.import(&head.prompt, now) {
                    Ok(seq) => seq,
                    Err(_) => break,
                };
                let w = self.waiting.pop_front().expect("non-empty");
                let cached = w.prompt.len() as u32;
                self.metrics.imported += 1;
                self.running.push(Running {
                    id: w.id,
                    priority: w.priority,
                    ctx: w.prompt,
                    seq,
                    target_out: w.target_out,
                    generated: w.generated,
                    gen_seed: w.gen_seed,
                    arrived: w.arrived,
                    started: w.started.unwrap_or(now),
                    orig_prompt_tokens: w.orig_prompt_tokens,
                    prompt_tokens: 0, // set below
                    prefill_remaining: 0,
                    imported: true,
                    prefill_time: w.prefill_time,
                    decode_time: w.decode_time,
                    flops: w.flops,
                    cached_tokens: cached,
                    preemptions: w.preemptions,
                });
                let r = self.running.last_mut().expect("just pushed");
                r.prompt_tokens = r.ctx.len() as u32;
                let id = r.id;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&EngineEvent::Admitted {
                        id,
                        at: now,
                        new_tokens: 0,
                        cached_tokens: cached,
                    });
                }
                continue;
            }
            let seq = match self.kv.allocate(&head.prompt, now) {
                Ok(seq) => seq,
                Err(_) => break,
            };
            let cached = self.kv.cached_tokens(&seq) as u32;
            let uncached = head.prompt.len() as u32 - cached;
            // Budget check: a request may exceed the budget only if it is
            // the sole occupant of the step (vLLM non-chunked behaviour).
            if !admitted.is_empty() && budget_used + uncached > budget_tokens {
                self.kv.free(seq, now);
                break;
            }
            budget_used = budget_used.saturating_add(uncached);
            let w = self.waiting.pop_front().expect("non-empty");
            admitted.push((w.id, uncached, cached));
            self.running.push(Running {
                id: w.id,
                priority: w.priority,
                ctx: w.prompt,
                seq,
                target_out: w.target_out,
                generated: w.generated,
                gen_seed: w.gen_seed,
                arrived: w.arrived,
                started: w.started.unwrap_or(now),
                orig_prompt_tokens: w.orig_prompt_tokens,
                prompt_tokens: 0, // set below
                prefill_remaining: uncached,
                imported: false,
                prefill_time: w.prefill_time,
                decode_time: w.decode_time,
                flops: w.flops,
                cached_tokens: cached,
                preemptions: w.preemptions,
            });
            let r = self.running.last_mut().expect("just pushed");
            r.prompt_tokens = r.ctx.len() as u32;
            if let Some(obs) = self.observer.as_deref_mut() {
                let &(id, new_tokens, cached_tokens) = admitted.last().expect("just admitted");
                obs.on_event(&EngineEvent::Admitted {
                    id,
                    at: now,
                    new_tokens,
                    cached_tokens,
                });
            }
            if budget_used >= budget_tokens {
                break;
            }
        }
        admitted
    }

    // ---- token production and preemption --------------------------------

    /// Produces one token for `running[idx]`, preempting the newest other
    /// sequence on KV exhaustion. Returns what happened to the entry.
    fn produce_token(&mut self, idx: usize, now: SimTime) -> TokenOutcome {
        loop {
            let r = &self.running[idx];
            let token = generated_token(r.gen_seed, r.generated as u64);
            match self.kv.append_token(r.seq, token, now) {
                Ok(()) => {
                    let r = &mut self.running[idx];
                    r.ctx.extend([token]);
                    r.generated += 1;
                    if r.generated >= r.target_out {
                        let r = self.running.swap_remove(idx);
                        self.kv.free(r.seq, now);
                        return TokenOutcome::Completed(LlmCompletion {
                            id: r.id,
                            arrived: r.arrived,
                            started: r.started,
                            finished: now,
                            prompt_tokens: r.orig_prompt_tokens,
                            cached_tokens: r.cached_tokens.min(r.orig_prompt_tokens),
                            output_tokens: r.generated,
                            prefill_time: r.prefill_time,
                            decode_time: r.decode_time,
                            flops: r.flops,
                            preemptions: r.preemptions,
                        });
                    }
                    if self.config.role == EngineRole::Prefill {
                        // Prefill pool: the first token ends this engine's
                        // involvement. Export the KV (footprint sizes the
                        // interconnect transfer) and release the request.
                        let r = self.running.swap_remove(idx);
                        let tokens = self.kv.export(r.seq, now);
                        let kv_blocks = self.kv.config().blocks_for(tokens) as u32;
                        let kv_bytes = kv_blocks as u64 * self.config.kv_bytes_per_block();
                        return TokenOutcome::Migrated(MigratedRequest {
                            id: r.id,
                            arrived: r.arrived,
                            started: r.started,
                            released: now,
                            prompt_tokens: r.orig_prompt_tokens,
                            cached_tokens: r.cached_tokens.min(r.orig_prompt_tokens),
                            priority: r.priority,
                            ctx: r.ctx,
                            generated: r.generated,
                            target_out: r.target_out,
                            gen_seed: r.gen_seed,
                            prefill_time: r.prefill_time,
                            flops: r.flops,
                            preemptions: r.preemptions,
                            kv_blocks,
                            kv_bytes,
                        });
                    }
                    return TokenOutcome::Continues;
                }
                Err(_) => {
                    // Preempt the newest sequence that is not this one.
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
                            if v < idx {
                                // swap_remove moved the tail into v; idx may
                                // have shifted if idx was the tail.
                                if idx == self.running.len() {
                                    return self.resume_after_self_move(v, now);
                                }
                            }
                            continue;
                        }
                        None => {
                            // Only this sequence remains and it cannot grow.
                            self.preempt(idx, now);
                            return TokenOutcome::SelfPreempted;
                        }
                    }
                }
            }
        }
    }

    /// After a `swap_remove` moved the producing sequence into slot `v`,
    /// continue producing from its new index.
    fn resume_after_self_move(&mut self, new_idx: usize, now: SimTime) -> TokenOutcome {
        self.produce_token(new_idx, now)
    }

    /// Preempts `running[idx]`: frees its KV (hashed blocks stay cached)
    /// and requeues it at the front with its context-so-far as the prompt
    /// (recompute-style preemption).
    fn preempt(&mut self, idx: usize, now: SimTime) {
        let r = self.running.swap_remove(idx);
        self.kv.free(r.seq, now);
        self.metrics.preemptions += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&EngineEvent::Preempted {
                id: r.id,
                at: now,
                generated: r.generated,
            });
        }
        self.waiting.push_front(Waiting {
            id: r.id,
            priority: r.priority,
            prompt: r.ctx,
            target_out: r.target_out,
            generated: r.generated,
            gen_seed: r.gen_seed,
            arrived: r.arrived,
            orig_prompt_tokens: r.orig_prompt_tokens,
            // Imported KV is re-fetched on re-admission (still no local
            // prefill): decode pools never run prefill steps.
            imported: r.imported,
            started: Some(r.started),
            prefill_time: r.prefill_time,
            decode_time: r.decode_time,
            flops: r.flops,
            preemptions: r.preemptions + 1,
        });
    }
}

// Simulators run on one thread, but a caller may build one on one thread
// and run it on another; this fails to compile if a non-`Send` field
// (e.g. an `Rc`) sneaks into `Engine`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

/// Result of producing one token for a running sequence.
#[derive(Debug)]
enum TokenOutcome {
    /// The request finished and was removed; here is its record.
    Completed(LlmCompletion),
    /// The sequence continues decoding.
    Continues,
    /// The producing sequence itself was preempted and requeued.
    SelfPreempted,
    /// A prefill-role engine released the request at its first token.
    Migrated(MigratedRequest),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, SchedulerPolicy};

    /// Drives the engine until it has no work, returning completions and
    /// the final simulated time.
    fn drain(engine: &mut Engine, mut now: SimTime) -> (Vec<LlmCompletion>, SimTime) {
        let mut done = Vec::new();
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            done.extend(engine.complete_step(now));
        }
        (done, now)
    }

    fn small_config() -> EngineConfig {
        EngineConfig::a100_llama8b()
    }

    #[test]
    fn deepest_first_admits_high_priority_requests_first() {
        // Keep the engine busy with a long prefill so three requests of
        // different priority queue up, then observe admission order.
        let mut e = Engine::new(small_config().with_scheduler(SchedulerPolicy::DeepestFirst));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(0, 8000), 4, 0);
        let step_end = e.start_step_if_idle(SimTime::ZERO).expect("step starts");

        let t = SimTime::from_micros(1);
        let low = e.submit_with_priority(t, TokenBuf::from_segment(1, 100), 4, 1, 0);
        let high = e.submit_with_priority(t, TokenBuf::from_segment(2, 100), 4, 2, 9);
        let mid = e.submit_with_priority(t, TokenBuf::from_segment(3, 100), 4, 3, 5);

        let mut now = step_end;
        let mut done = e.complete_step(now);
        while let Some(end) = e.start_step_if_idle(now) {
            now = end;
            done.extend(e.complete_step(now));
        }
        let started = |id: RequestId| done.iter().find(|c| c.id == id).unwrap().started;
        assert!(started(high) <= started(mid), "priority 9 before 5");
        assert!(started(mid) <= started(low), "priority 5 before 0");
    }

    #[test]
    fn fcfs_ignores_priorities() {
        let mut e = Engine::new(small_config());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(0, 8000), 4, 0);
        let step_end = e.start_step_if_idle(SimTime::ZERO).expect("step starts");
        let t = SimTime::from_micros(1);
        let first = e.submit_with_priority(t, TokenBuf::from_segment(1, 100), 4, 1, 0);
        let second = e.submit_with_priority(t, TokenBuf::from_segment(2, 100), 4, 2, 9);
        let mut now = step_end;
        let mut done = e.complete_step(now);
        while let Some(end) = e.start_step_if_idle(now) {
            now = end;
            done.extend(e.complete_step(now));
        }
        let started = |id: RequestId| done.iter().find(|c| c.id == id).unwrap().started;
        assert!(
            started(first) <= started(second),
            "FCFS must keep arrival order regardless of priority"
        );
    }

    #[test]
    fn single_request_runs_to_completion() {
        let mut e = Engine::new(small_config());
        let id = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 100, 7);
        let (done, end) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        let c = &done[0];
        assert_eq!(c.id, id);
        assert_eq!(c.prompt_tokens, 1000);
        assert_eq!(c.output_tokens, 100);
        assert_eq!(c.cached_tokens, 0);
        assert_eq!(c.finished, end);
        assert!(c.prefill_time > SimDuration::ZERO);
        assert!(c.decode_time > SimDuration::ZERO);
        // 99 decode steps at ~13-15 ms + prefill ≈ 1.3-1.7 s.
        let s = c.e2e_latency().as_secs_f64();
        assert!((0.8..3.0).contains(&s), "latency {s}");
        assert!(!e.has_work());
        e.kv().check_invariants().unwrap();
        assert_eq!(e.kv().live_sequences(), 0);
    }

    #[test]
    fn decode_dominates_for_generation_heavy_requests() {
        // CoT-style: moderate prompt, long output => decode >> prefill
        // (paper Fig. 10, CoT bar).
        let mut e = Engine::new(small_config());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 600), 400, 7);
        let (done, _) = drain(&mut e, SimTime::ZERO);
        let c = &done[0];
        assert!(c.decode_time.as_secs_f64() > 10.0 * c.prefill_time.as_secs_f64());
    }

    #[test]
    fn second_identical_prompt_hits_prefix_cache() {
        let mut e = Engine::new(small_config());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 2048), 8, 7);
        let (first, t1) = drain(&mut e, SimTime::ZERO);
        e.submit(t1, TokenBuf::from_segment(1, 2048), 8, 8);
        let (second, _) = drain(&mut e, t1);
        assert_eq!(first[0].cached_tokens, 0);
        assert!(
            second[0].cached_tokens > 1900,
            "cached {}",
            second[0].cached_tokens
        );
        assert!(second[0].prefill_time < first[0].prefill_time);
    }

    #[test]
    fn prefix_caching_disabled_never_hits() {
        let mut e = Engine::new(small_config().with_prefix_caching(false));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 2048), 8, 7);
        let (_, t1) = drain(&mut e, SimTime::ZERO);
        e.submit(t1, TokenBuf::from_segment(1, 2048), 8, 8);
        let (second, _) = drain(&mut e, t1);
        assert_eq!(second[0].cached_tokens, 0);
    }

    #[test]
    fn concurrent_requests_batch_and_all_finish() {
        let mut e = Engine::new(small_config());
        for i in 0..8 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(100 + i, 512), 64, i);
        }
        let (done, end) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 8);
        // Batched: total time far less than 8x a single request.
        let mut solo = Engine::new(small_config());
        solo.submit(SimTime::ZERO, TokenBuf::from_segment(100, 512), 64, 0);
        let (_, solo_end) = drain(&mut solo, SimTime::ZERO);
        assert!(
            end.as_secs_f64() < 3.0 * solo_end.as_secs_f64(),
            "batched {end}, solo {solo_end}"
        );
        e.kv().check_invariants().unwrap();
    }

    #[test]
    fn fcfs_order_of_first_scheduling() {
        let mut e = Engine::new(small_config());
        let a = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 5000), 4, 0);
        let b = e.submit(
            SimTime::from_micros(1),
            TokenBuf::from_segment(2, 100),
            4,
            1,
        );
        let (done, _) = drain(&mut e, SimTime::from_micros(1));
        let ca = done.iter().find(|c| c.id == a).unwrap();
        let cb = done.iter().find(|c| c.id == b).unwrap();
        assert!(ca.started <= cb.started, "FCFS violated");
    }

    #[test]
    fn shared_prefix_across_concurrent_requests() {
        // Agent-style: same instruction+fewshot prefix, distinct questions.
        let mut e = Engine::new(small_config());
        let mut prompts = Vec::new();
        for i in 0..4u64 {
            let mut p = TokenBuf::from_segment(0xCAFE, 1024); // shared prefix
            p.push_segment(i + 1, 128);
            prompts.push(p);
        }
        for (i, p) in prompts.into_iter().enumerate() {
            e.submit(SimTime::ZERO, p, 16, i as u64);
        }
        let (done, _) = drain(&mut e, SimTime::ZERO);
        let total_cached: u32 = done.iter().map(|c| c.cached_tokens).sum();
        // Later requests reuse the first's prefix blocks.
        assert!(total_cached >= 3 * 1000, "cached {total_cached}");
    }

    #[test]
    fn metrics_partition_busy_time() {
        let mut e = Engine::new(small_config());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1024), 64, 7);
        let (_, end) = drain(&mut e, SimTime::ZERO);
        let m = e.metrics();
        assert_eq!(m.prefill_steps, 1);
        assert_eq!(m.decode_steps, 63);
        assert_eq!(m.completed, 1);
        assert!(m.flops > 0.0);
        assert_eq!(
            m.busy() + m.idle_within(end),
            SimDuration::from_micros(end.as_micros())
        );
    }

    #[test]
    fn tiny_kv_pool_forces_preemption_or_blocking_but_completes() {
        // Pool sized ~2.5% of weights: a few hundred blocks.
        let mut e = Engine::new(small_config().with_kv_fraction(0.025));
        for i in 0..6u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(50 + i, 800), 200, i);
        }
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 6, "all requests must eventually finish");
        e.kv().check_invariants().unwrap();
        assert_eq!(e.kv().live_sequences(), 0);
    }

    #[test]
    fn chunked_prefill_overlaps_and_completes() {
        let mut e = Engine::new(small_config().with_chunked_prefill(true));
        for i in 0..4u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(10 + i, 3000), 32, i);
        }
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 4);
        assert!(e.metrics().mixed_steps > 0, "mixed steps should occur");
        e.kv().check_invariants().unwrap();
    }

    #[test]
    fn iterative_calls_reuse_history_including_generated_tokens() {
        // An agent's second call includes the first call's prompt + output.
        let mut e = Engine::new(small_config());
        let prompt1 = TokenBuf::from_segment(1, 1024);
        e.submit(SimTime::ZERO, prompt1.clone(), 64, 42);
        let (done1, t1) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done1.len(), 1);

        let mut prompt2 = prompt1;
        for i in 0..64u64 {
            prompt2.push_generated(42, i);
        }
        prompt2.push_segment(2, 200); // tool observation
        e.submit(t1, prompt2, 64, 43);
        let (done2, _) = drain(&mut e, t1);
        // 1024 + 64 = 1088 history tokens; 68 full blocks = 1088 cached.
        assert!(
            done2[0].cached_tokens >= 1024,
            "history should hit, cached {}",
            done2[0].cached_tokens
        );
    }

    #[test]
    #[should_panic(expected = "out_tokens")]
    fn zero_output_rejected() {
        let mut e = Engine::new(small_config());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 10), 0, 0);
    }

    #[test]
    #[should_panic(expected = "can never admit")]
    fn impossible_prompt_panics() {
        // 0.4% of weights ≈ 64 MB ≈ 32 blocks = 512 tokens; a 4096-token
        // prompt can never fit.
        let mut e = Engine::new(small_config().with_kv_fraction(0.004));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 4096), 4, 0);
        let _ = e.start_step_if_idle(SimTime::ZERO);
    }

    /// Collects a compact transcript of every observed event.
    #[derive(Debug, Default)]
    struct EventLog {
        entries: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl EngineObserver for EventLog {
        fn on_event(&mut self, event: &EngineEvent<'_>) {
            let line = match *event {
                EngineEvent::Submitted { id, .. } => format!("submit {id}"),
                EngineEvent::Admitted { id, .. } => format!("admit {id}"),
                EngineEvent::StepCompleted { kind, .. } => format!("step {kind}"),
                EngineEvent::Preempted { id, .. } => format!("preempt {id}"),
                EngineEvent::Completed { completion, .. } => {
                    format!("complete {}", completion.id)
                }
                EngineEvent::Migrated { id, .. } => format!("migrate {id}"),
                EngineEvent::Abandoned { id, .. } => format!("abandon {id}"),
                EngineEvent::RoleChanged { from, to, .. } => {
                    format!("role {from:?}->{to:?}")
                }
            };
            self.entries.lock().unwrap().push(line);
        }
    }

    #[test]
    fn observer_sees_full_lifecycle_in_order() {
        let mut e = Engine::new(small_config());
        let log = EventLog::default();
        let entries = log.entries.clone();
        e.set_observer(Box::new(log));
        let id = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 3, 7);
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 1);

        let lines = entries.lock().unwrap();
        assert_eq!(lines[0], format!("submit {id}"));
        assert_eq!(lines[1], format!("admit {id}"));
        assert_eq!(lines[2], "step prefill");
        // 2 decode steps follow (first token at prefill end), then the
        // completion fires at the final decode step.
        assert_eq!(lines.last().unwrap(), &format!("complete {id}"));
        assert_eq!(
            lines.iter().filter(|l| *l == "step decode").count() as u64,
            e.metrics().decode_steps
        );
        assert!(e.clear_observer().is_some());
        assert!(e.clear_observer().is_none());
    }

    #[test]
    fn observer_sees_preemptions_and_readmissions() {
        let mut e = Engine::new(small_config().with_kv_fraction(0.02));
        let log = EventLog::default();
        let entries = log.entries.clone();
        e.set_observer(Box::new(log));
        for i in 0..5u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(10 + i, 700), 300, i);
        }
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 5);
        let lines = entries.lock().unwrap();
        let preempts = lines.iter().filter(|l| l.starts_with("preempt")).count();
        assert_eq!(preempts as u64, e.metrics().preemptions);
        assert!(preempts > 0, "tiny pool must preempt");
        // Every preempted request is later re-admitted: admits > requests.
        let admits = lines.iter().filter(|l| l.starts_with("admit")).count();
        assert!(admits > 5, "admits {admits}");
    }

    #[test]
    fn observer_sees_abandonment_after_the_step_boundary() {
        let mut e = Engine::new(small_config());
        let log = EventLog::default();
        let entries = log.entries.clone();
        e.set_observer(Box::new(log));
        let id = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 50, 7);
        let end = e.start_step_if_idle(SimTime::ZERO).expect("step forms");
        e.cancel(SimTime::ZERO, id);
        e.complete_step(end);
        assert!(!e.has_work(), "purged at the boundary");
        let lines = entries.lock().unwrap();
        assert_eq!(lines.last().unwrap(), &format!("abandon {id}"));
    }

    #[test]
    fn observer_does_not_change_results() {
        let run = |observe: bool| {
            let mut e = Engine::new(small_config().with_kv_fraction(0.025));
            if observe {
                e.set_observer(Box::new(EventLog::default()));
            }
            for i in 0..6u64 {
                e.submit(SimTime::ZERO, TokenBuf::from_segment(50 + i, 800), 200, i);
            }
            let (mut done, end) = drain(&mut e, SimTime::ZERO);
            done.sort_by_key(|c| c.id);
            (done, end)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn seventy_b_is_slower_per_request() {
        let mut e8 = Engine::new(EngineConfig::a100_llama8b());
        e8.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 200, 0);
        let (_, t8) = drain(&mut e8, SimTime::ZERO);
        let mut e70 = Engine::new(EngineConfig::a100x8_llama70b());
        e70.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 200, 0);
        let (_, t70) = drain(&mut e70, SimTime::ZERO);
        assert!(t70 > t8, "8B {t8} vs 70B {t70}");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::config::EngineConfig;

    fn drain(engine: &mut Engine, mut now: SimTime) -> (Vec<LlmCompletion>, SimTime) {
        let mut done = Vec::new();
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            done.extend(engine.complete_step(now));
        }
        (done, now)
    }

    #[test]
    fn single_output_token_completes_at_prefill() {
        // out_tokens == 1: the prefill step's first token finishes it.
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 100), 1, 0);
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].output_tokens, 1);
        assert_eq!(done[0].decode_time, SimDuration::ZERO);
        assert!(done[0].prefill_time > SimDuration::ZERO);
        assert_eq!(e.metrics().decode_steps, 0);
    }

    #[test]
    fn cancel_waiting_request_purges_at_step_boundary() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        let a = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 50, 0);
        let end = e.start_step_if_idle(SimTime::ZERO).expect("step forms");
        // b arrives while a's prefill runs, then its client gives up.
        let b = e.submit(SimTime::ZERO, TokenBuf::from_segment(2, 1000), 50, 1);
        e.cancel(SimTime::ZERO, b);
        assert_eq!(e.queue_len(), 1, "purge is deferred to the step boundary");
        e.complete_step(end);
        assert_eq!(e.queue_len(), 0);
        assert_eq!(e.metrics().abandoned, 1);
        // Never scheduled: no service was burned on it.
        assert_eq!(e.metrics().wasted(), SimDuration::ZERO);
        let (done, _) = drain(&mut e, end);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
    }

    #[test]
    fn cancel_running_request_frees_kv_and_charges_wasted_work() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        let a = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 400, 0);
        let mut now = SimTime::ZERO;
        // Prefill plus a couple of decode steps accrue real service.
        for _ in 0..3 {
            let end = e.start_step_if_idle(now).expect("step forms");
            now = end;
            e.complete_step(now);
        }
        assert_eq!(e.running_len(), 1);
        let end = e.start_step_if_idle(now).expect("step forms");
        e.cancel(now, a);
        assert_eq!(e.running_len(), 1, "mid-step cancel waits for the boundary");
        let done = e.complete_step(end);
        assert!(done.is_empty());
        assert_eq!(e.running_len(), 0);
        assert!(!e.has_work(), "KV released, nothing left to run");
        assert_eq!(e.metrics().abandoned, 1);
        assert!(e.metrics().wasted_prefill > SimDuration::ZERO);
        assert!(e.metrics().wasted_decode > SimDuration::ZERO);
        assert_eq!(e.metrics().completed, 0);
    }

    #[test]
    fn cancel_is_immediate_when_idle_and_noop_for_finished_requests() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        let a = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 200), 4, 0);
        let (done, end) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        // a already finished: its completion raced the deadline.
        e.cancel(end, a);
        assert_eq!(e.metrics().abandoned, 0);
        // A queued request on an idle engine is purged on the spot.
        let _b = e.submit(end, TokenBuf::from_segment(2, 200), 4, 1);
        let c = e.submit(end, TokenBuf::from_segment(3, 200), 4, 2);
        e.cancel(end, c);
        assert_eq!(e.queue_len(), 1);
        assert_eq!(e.metrics().abandoned, 1);
        let (done, _) = drain(&mut e, end);
        assert_eq!(done.len(), 1, "the surviving request still completes");
    }

    #[test]
    fn one_token_prompt_works() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1), 4, 0);
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done[0].prompt_tokens, 1);
        assert_eq!(done[0].output_tokens, 4);
        e.kv().check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "context window")]
    fn context_window_guard_rejects_oversized_requests() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 131_000), 200, 0);
    }

    #[test]
    fn late_arrivals_join_the_running_batch() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 256), 64, 0);
        // Run a few steps, then a second request arrives mid-flight.
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            let end = e.start_step_if_idle(now).expect("work pending");
            now = end;
            let _ = e.complete_step(now);
        }
        let second = e.submit(now, TokenBuf::from_segment(2, 256), 8, 1);
        let (done, _) = drain(&mut e, now);
        assert!(done.iter().any(|c| c.id == second));
        assert_eq!(e.metrics().completed, 2);
    }

    #[test]
    fn preempted_request_reports_its_preemptions() {
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_kv_fraction(0.02));
        for i in 0..5u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(10 + i, 700), 300, i);
        }
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 5);
        let total_preemptions: u32 = done.iter().map(|c| c.preemptions).sum();
        assert_eq!(total_preemptions as u64, e.metrics().preemptions);
        // Every preempted request still produced exactly its target.
        for c in &done {
            assert_eq!(c.output_tokens, 300);
        }
        e.kv().check_invariants().unwrap();
    }

    #[test]
    fn queue_and_running_counters_track_lifecycle() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        assert!(!e.has_work());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 64), 4, 0);
        assert_eq!(e.queue_len(), 1);
        assert_eq!(e.running_len(), 0);
        let end = e.start_step_if_idle(SimTime::ZERO).expect("prefill");
        assert_eq!(e.queue_len(), 0);
        assert_eq!(e.running_len(), 1);
        let mut now = end;
        let mut done = e.complete_step(now);
        while done.is_empty() {
            now = e.start_step_if_idle(now).expect("decoding");
            done = e.complete_step(now);
        }
        assert_eq!(e.running_len(), 0);
        assert!(!e.has_work());
    }

    #[test]
    fn prefill_role_releases_at_first_token() {
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 64, 7);
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert!(done.is_empty(), "prefill role must not complete locally");
        let migrations = e.take_migrations();
        assert_eq!(migrations.len(), 1);
        let m = &migrations[0];
        assert_eq!(m.generated, 1);
        assert_eq!(m.target_out, 64);
        assert_eq!(m.remaining_tokens(), 63);
        assert_eq!(m.ctx.len(), 513, "prompt plus the first token");
        assert_eq!(m.prompt_tokens, 512);
        assert!(m.prefill_time > SimDuration::ZERO);
        let blocks = e.kv().config().blocks_for(513) as u32;
        assert_eq!(m.kv_blocks, blocks);
        assert_eq!(m.kv_bytes, blocks as u64 * e.config().kv_bytes_per_block());
        assert_eq!(e.metrics().migrated, 1);
        assert_eq!(e.metrics().decode_steps, 0, "no decode on the prefill pool");
        assert_eq!(e.kv().stats().exported_tokens, 513);
        assert_eq!(e.kv().live_sequences(), 0);
        assert!(!e.has_work());
        assert!(e.take_migrations().is_empty(), "drained");
        e.kv().check_invariants().unwrap();
    }

    #[test]
    fn prefill_role_completes_single_token_requests_locally() {
        // out_tokens == 1: nothing is left to decode elsewhere.
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 100), 1, 0);
        let (done, _) = drain(&mut e, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].output_tokens, 1);
        assert!(e.take_migrations().is_empty());
        assert_eq!(e.metrics().migrated, 0);
    }

    #[test]
    fn migrated_request_resumes_on_decode_engine() {
        // Colocated reference run.
        let mut reference = Engine::new(EngineConfig::a100_llama8b());
        reference.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 8, 7);
        let (ref_done, _) = drain(&mut reference, SimTime::ZERO);

        // Prefill half.
        let mut p = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        p.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 8, 7);
        let (_, released_at) = drain(&mut p, SimTime::ZERO);
        let m = p.take_migrations().pop().expect("one migration");

        // Decode half resumes it with imported KV.
        let mut d = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Decode));
        let id = d.submit_prefilled(released_at, m);
        let (done, _) = drain(&mut d, released_at);
        assert_eq!(done.len(), 1);
        let c = &done[0];
        assert_eq!(c.id, id);
        assert_eq!(c.output_tokens, 8, "total including the prefill-side token");
        assert_eq!(
            c.prefill_time,
            SimDuration::ZERO,
            "decode pool never prefills"
        );
        assert!(c.decode_time > SimDuration::ZERO);
        assert_eq!(d.metrics().prefill_steps, 0);
        assert_eq!(d.metrics().mixed_steps, 0);
        assert_eq!(d.metrics().imported, 1);
        assert_eq!(d.kv().stats().imported_tokens, 513);
        assert_eq!(d.kv().stats().miss_tokens, 0);
        // 7 decode-side tokens => 7 decode steps.
        assert_eq!(d.metrics().decode_steps, 7);
        // Same deterministic token stream as the colocated run.
        assert_eq!(ref_done[0].output_tokens, c.output_tokens);
        e_kv_clean(&d);
    }

    fn e_kv_clean(e: &Engine) {
        e.kv().check_invariants().unwrap();
        assert_eq!(e.kv().live_sequences(), 0);
    }

    #[test]
    fn drain_then_flip_switches_roles_cleanly() {
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 64, 7);
        assert!(e.admits_new_work());
        e.begin_drain();
        assert!(e.is_draining());
        assert!(!e.admits_new_work());
        // In-flight work still runs: the request migrates out as usual.
        let (_, t) = drain(&mut e, SimTime::ZERO);
        assert_eq!(e.take_migrations().len(), 1);
        e.finish_drain(t, EngineRole::Decode);
        assert!(!e.is_draining());
        assert_eq!(e.config().role, EngineRole::Decode);
        e_kv_clean(&e);
    }

    #[test]
    #[should_panic(expected = "refuses new submissions")]
    fn draining_engine_rejects_submissions() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.begin_drain();
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 10), 4, 0);
    }

    #[test]
    #[should_panic(expected = "work in flight")]
    fn flip_with_live_work_panics() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 10), 4, 0);
        e.begin_drain();
        e.finish_drain(SimTime::ZERO, EngineRole::Prefill);
    }

    #[test]
    #[should_panic(expected = "untaken migrations")]
    fn flip_with_untaken_migrations_panics() {
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 64, 7);
        e.begin_drain();
        let (_, t) = drain(&mut e, SimTime::ZERO);
        e.finish_drain(t, EngineRole::Decode);
    }

    #[test]
    fn draining_decode_engine_still_accepts_committed_migrations() {
        // KV already in flight on the interconnect must land even if the
        // destination started draining meanwhile.
        let mut p = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        p.submit(SimTime::ZERO, TokenBuf::from_segment(1, 512), 8, 7);
        let (_, released_at) = drain(&mut p, SimTime::ZERO);
        let m = p.take_migrations().pop().expect("one migration");

        let mut d = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Decode));
        d.begin_drain();
        let id = d.submit_prefilled(released_at, m);
        let (done, t) = drain(&mut d, released_at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        d.finish_drain(t, EngineRole::Prefill);
        assert_eq!(d.config().role, EngineRole::Prefill);
        e_kv_clean(&d);
    }

    #[test]
    fn finish_drain_emits_role_changed() {
        use crate::observer::EngineObserver;
        #[derive(Debug, Default)]
        struct RoleLog(std::sync::Arc<std::sync::Mutex<Vec<String>>>);
        impl EngineObserver for RoleLog {
            fn on_event(&mut self, event: &EngineEvent<'_>) {
                if let EngineEvent::RoleChanged { at, from, to } = *event {
                    self.0
                        .lock()
                        .unwrap()
                        .push(format!("{}us {from:?}->{to:?}", at.as_micros()));
                }
            }
        }
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        let log = RoleLog::default();
        let seen = log.0.clone();
        e.set_observer(Box::new(log));
        e.begin_drain();
        e.finish_drain(SimTime::from_micros(5), EngineRole::Decode);
        assert_eq!(
            *seen.lock().unwrap(),
            vec!["5us Prefill->Decode".to_string()]
        );
    }

    #[test]
    fn chunked_prefill_matches_classic_results() {
        // Same requests, both schedulers: identical outputs, different
        // step patterns.
        let run = |chunked: bool| {
            let mut e = Engine::new(EngineConfig::a100_llama8b().with_chunked_prefill(chunked));
            for i in 0..4u64 {
                e.submit(SimTime::ZERO, TokenBuf::from_segment(i, 1200), 32, i);
            }
            let (mut done, end) = drain(&mut e, SimTime::ZERO);
            done.sort_by_key(|c| c.id);
            let outs: Vec<u32> = done.iter().map(|c| c.output_tokens).collect();
            (outs, end, e.metrics().mixed_steps)
        };
        let (classic_outs, _, classic_mixed) = run(false);
        let (chunked_outs, _, chunked_mixed) = run(true);
        assert_eq!(classic_outs, chunked_outs);
        assert_eq!(classic_mixed, 0);
        assert!(chunked_mixed > 0);
    }
}

#[cfg(test)]
mod offload_tests {
    use super::*;
    use crate::config::OffloadConfig;
    use agentsim_kvcache::EvictionPolicy;

    fn drain(engine: &mut Engine, mut now: SimTime) -> (Vec<LlmCompletion>, SimTime) {
        let mut done = Vec::new();
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            done.extend(engine.complete_step(now));
        }
        (done, now)
    }

    /// A KV-starved replica: ~80 blocks (~1.3k cacheable tokens).
    fn engine_with(offload: Option<OffloadConfig>) -> Engine {
        let mut cfg = EngineConfig::a100_llama8b().with_kv_fraction(0.01);
        if let Some(off) = offload {
            cfg = cfg.with_offload(off);
        }
        Engine::new(cfg)
    }

    /// Prompt A, a pool-flushing prompt B, then A again — serially, so
    /// the pool pressure (and thus eviction traffic) is identical across
    /// configurations. Returns the three completions in order.
    fn thrash(e: &mut Engine) -> Vec<LlmCompletion> {
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for (seg, len) in [(1u64, 512u32), (2, 1000), (1, 512)] {
            e.submit(now, TokenBuf::from_segment(seg, len), 4, seg);
            let (done, t) = drain(e, now);
            out.extend(done);
            now = t + SimDuration::from_micros(10);
        }
        e.kv().check_invariants().unwrap();
        assert_eq!(out.len(), 3);
        out
    }

    #[test]
    fn evicted_prefix_is_restored_from_the_host_tier() {
        let mut e = engine_with(Some(OffloadConfig::tiers(64, 64)));
        let done = thrash(&mut e);
        // B's admission demoted part of A's cached prefix instead of
        // destroying it; A's re-admission promoted it back.
        let stats = e.kv().stats();
        assert!(stats.demoted_blocks_host > 0, "{stats:?}");
        assert!(stats.promoted_blocks_host > 0, "{stats:?}");
        assert!(stats.promoted_tokens > 0, "{stats:?}");
        assert!(
            done[2].cached_tokens > 0,
            "restored prefix counts as cached"
        );
        // The transfers moved real bytes over the PCIe link.
        let host = e.host_link().expect("offload configured");
        assert!(host.transfers() > 0);
        assert_eq!(
            host.bytes_moved(),
            (stats.demoted_blocks_host + stats.promoted_blocks_host)
                * e.config().kv_bytes_per_block(),
        );
    }

    #[test]
    fn promotion_gates_the_admitting_prefill_but_demotion_gates_nothing() {
        let mut priced = engine_with(Some(OffloadConfig::tiers(64, 64)));
        let with_cost = thrash(&mut priced);
        let mut free = engine_with(Some(OffloadConfig::tiers(64, 64).with_free_links()));
        let no_cost = thrash(&mut free);

        // Identical block-level decisions: only timing may differ.
        assert_eq!(
            priced.kv().stats().promoted_tokens,
            free.kv().stats().promoted_tokens
        );
        // B's admission only demotes (A's blocks leave HBM); demotes are
        // asynchronous, so B's prefill is identical under both pricings.
        assert_eq!(with_cost[1].prefill_time, no_cost[1].prefill_time);
        // A's re-admission promotes; the PCIe wire time extends its
        // prefill (the TTFT toll), which free links do not charge.
        assert!(
            with_cost[2].prefill_time > no_cost[2].prefill_time,
            "{} !> {}",
            with_cost[2].prefill_time,
            no_cost[2].prefill_time
        );
    }

    #[test]
    fn promotion_is_cheaper_than_recompute() {
        // The whole point of the hierarchy: restoring KV at PCIe speed
        // beats re-prefilling it at roofline speed.
        let mut offloaded = engine_with(Some(OffloadConfig::tiers(64, 64)));
        let tiered = thrash(&mut offloaded);
        let mut plain = engine_with(None);
        let recomputed = thrash(&mut plain);
        assert!(tiered[2].cached_tokens > recomputed[2].cached_tokens);
        assert!(
            tiered[2].prefill_time < recomputed[2].prefill_time,
            "{} !< {}",
            tiered[2].prefill_time,
            recomputed[2].prefill_time
        );
    }

    #[test]
    fn zero_capacity_tiers_reproduce_the_plain_engine_exactly() {
        let mut tiered = engine_with(Some(OffloadConfig::tiers(0, 0)));
        let a = thrash(&mut tiered);
        let mut plain = engine_with(None);
        let b = thrash(&mut plain);
        assert_eq!(a, b, "zero-capacity tiers must be a complete no-op");
        let host = tiered.host_link().expect("links exist even at zero cap");
        assert_eq!(host.transfers(), 0);
        assert_eq!(tiered.nvme_link().unwrap().transfers(), 0);
    }

    #[test]
    fn hints_reach_the_manager_through_the_engine() {
        let off = OffloadConfig::tiers(64, 64).with_policy(EvictionPolicy::InvocationDistance);
        let mut e = engine_with(Some(off));
        let prompt = TokenBuf::from_segment(1, 512);
        let hashes =
            agentsim_kvcache::hash::chain_hashes(prompt.as_slice(), e.config().block_size as usize);
        e.submit(SimTime::ZERO, prompt, 4, 1);
        let (_, t) = drain(&mut e, SimTime::ZERO);
        // Predict A's prompt is needed again soon: its blocks now outrank
        // unhinted ones in eviction order.
        e.hint_next_use(&hashes, t, t + SimDuration::from_secs_f64(0.5));
        e.kv().check_invariants().unwrap();
    }
}
