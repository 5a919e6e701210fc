//! The paged KV block manager.
//!
//! Models vLLM's block allocator with automatic prefix caching: sequences
//! own block tables; full blocks are chain-hashed and registered in a
//! prefix cache; unreferenced hashed blocks stay resident (evictable, LRU)
//! until memory pressure reclaims them.
//!
//! Every per-block operation is O(1) on the common path: unhinted
//! evictable blocks queue in a linked FIFO lane, and the block maps hash
//! with [`IdHasher`](crate::hash::IdHasher).

use std::fmt;

use agentsim_simkit::SimTime;

use crate::block::{BlockId, BlockMeta, BlockState};
use crate::evictable::EvictableSet;
use crate::hash::{chain_hash, IdMap, CHAIN_ROOT};
use crate::hierarchy::{EvictionPolicy, MemoryHierarchy, OffloadSpec, Tier, TierTransfer};
use crate::stats::KvStats;
use crate::tokens::{Token, TokenBuf};

/// Sizing and policy of the KV pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Total physical blocks in the pool.
    pub num_blocks: u32,
    /// Tokens per block (vLLM default: 16).
    pub block_size: u32,
    /// Whether automatic prefix caching is enabled.
    pub prefix_caching: bool,
}

impl KvConfig {
    /// Blocks needed to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_size as usize)
    }
}

/// Handle to a live sequence's block table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqHandle(u64);

/// Why an allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free or evictable blocks.
    Insufficient {
        /// Fresh blocks the request needed.
        needed: usize,
        /// Free + evictable blocks available.
        available: usize,
    },
    /// The sequence handle is unknown (already freed?).
    UnknownSequence,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Insufficient { needed, available } => write!(
                f,
                "insufficient KV blocks: needed {needed}, available {available}"
            ),
            AllocError::UnknownSequence => write!(f, "unknown sequence handle"),
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug)]
struct SeqState {
    blocks: Vec<BlockId>,
    len_tokens: usize,
    cached_tokens: usize,
    /// Chain hash of the last *full* block (parent for the next one).
    chain_tail: u64,
    /// Tokens of the trailing partial block (needed to hash it on fill).
    tail_tokens: Vec<Token>,
}

/// The paged KV-cache block manager. See the [crate docs](crate) for an
/// overview and example.
#[derive(Debug)]
pub struct KvBlockManager {
    config: KvConfig,
    metas: Vec<BlockMeta>,
    lru_ticks: Vec<u64>,
    /// Per-block eviction rank as currently keyed in `lru` (always zero
    /// under plain LRU; see [`EvictionPolicy`]).
    ranks: Vec<u64>,
    free: Vec<BlockId>,
    /// chain hash -> resident block holding that content.
    cache: IdMap<u64, BlockId>,
    /// Evictable blocks ordered (rank, last-use tick, block): the minimum
    /// is the next victim. Rank is zero without an offload hierarchy (or
    /// under its LRU baseline), making the order exactly LRU; under
    /// invocation distance, unhinted blocks rank `u64::MAX` and go last.
    /// Blocks at the policy's unhinted rank queue in O(1) FIFO order;
    /// only hinted ranks pay for an ordered set.
    lru: EvictableSet,
    seqs: IdMap<u64, SeqState>,
    next_seq: u64,
    tick: u64,
    /// Blocks currently in [`BlockState::Active`], maintained at every
    /// state transition so usage tracking never scans the pool.
    active: usize,
    /// Offload tiers below HBM; eviction demotes into them and admission
    /// promotes back out. `None` keeps the classic evict-and-forget pool.
    hierarchy: Option<MemoryHierarchy>,
    stats: KvStats,
}

impl KvBlockManager {
    /// Creates a pool per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` or `block_size` is zero.
    pub fn new(config: KvConfig) -> Self {
        assert!(config.num_blocks > 0, "pool must have at least one block");
        assert!(config.block_size > 0, "block size must be positive");
        KvBlockManager {
            config,
            metas: (0..config.num_blocks).map(|_| BlockMeta::free()).collect(),
            lru_ticks: vec![0; config.num_blocks as usize],
            ranks: vec![0; config.num_blocks as usize],
            free: (0..config.num_blocks).rev().map(BlockId).collect(),
            cache: IdMap::default(),
            lru: EvictableSet::new(EvictionPolicy::Lru.unhinted_rank()),
            seqs: IdMap::default(),
            next_seq: 0,
            tick: 0,
            active: 0,
            hierarchy: None,
            stats: KvStats::default(),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> KvConfig {
        self.config
    }

    /// Attaches offload tiers below HBM. Must be called before any
    /// traffic, and requires prefix caching — tier content is identified
    /// by chain hash, exactly like the prefix cache.
    ///
    /// # Panics
    ///
    /// Panics if sequences were already admitted or prefix caching is off.
    pub fn enable_offload(&mut self, spec: OffloadSpec) {
        assert!(
            self.stats.sequences == 0 && self.seqs.is_empty(),
            "offload tiers must be configured before any traffic"
        );
        assert!(
            self.config.prefix_caching,
            "KV offload requires prefix caching (tier content is chain-hashed)"
        );
        self.hierarchy = Some(MemoryHierarchy::new(spec));
        self.lru = EvictableSet::new(spec.policy.unhinted_rank());
    }

    /// The offload hierarchy, if one is attached.
    pub fn hierarchy(&self) -> Option<&MemoryHierarchy> {
        self.hierarchy.as_ref()
    }

    /// Drains tier transfers recorded since the last call (in occurrence
    /// order) into `out`, for the engine to price through its links.
    pub fn take_tier_transfers(&mut self, out: &mut Vec<TierTransfer>) {
        if let Some(h) = &mut self.hierarchy {
            h.take_transfers(out);
        }
    }

    /// Counts the leading full blocks of `hashes` already resident, and how
    /// many of those sit in the evictable set. Those are revived, not
    /// evicted, so they do not count as available for fresh allocation.
    fn scan_hits(&self, hashes: &[u64]) -> (usize, usize) {
        if !self.config.prefix_caching {
            return (0, 0);
        }
        let mut revivable = 0;
        let hits = hashes
            .iter()
            .map_while(|h| self.cache.get(h))
            .inspect(|id| {
                if self.metas[id.0 as usize].state == BlockState::Cached {
                    revivable += 1;
                }
            })
            .count();
        (hits, revivable)
    }

    /// Fresh blocks a prompt of `len` tokens with `hashes` needs, and the
    /// blocks free or evictable for it.
    fn demand(&self, hashes: &[u64], len: usize) -> (usize, usize, usize) {
        let (hits, revivable) = self.scan_hits(hashes);
        let needed = self.config.blocks_for(len) - hits;
        (hits, needed, self.free.len() + self.lru.len() - revivable)
    }

    /// Whether `allocate` for this prompt would currently succeed.
    pub fn can_allocate(&self, tokens: &TokenBuf) -> bool {
        let hashes = tokens.chain_hashes_cached(self.config.block_size as usize);
        let (_, needed, available) = self.demand(&hashes, tokens.len());
        needed <= available
    }

    /// Admits a sequence with the given prompt, reusing cached prefix
    /// blocks where possible.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Insufficient`] if the pool cannot hold the
    /// non-cached portion even after evicting every evictable block.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn allocate(&mut self, tokens: &TokenBuf, now: SimTime) -> Result<SeqHandle, AllocError> {
        self.admit(tokens, now, false)
    }

    /// Admits a sequence whose KV content was computed elsewhere and
    /// transferred in (disaggregated serving). Blocks are allocated and
    /// hashed exactly as [`Self::allocate`] would — resident blocks with
    /// matching content are shared rather than duplicated — but the tokens
    /// are accounted as *imported*, not as prefix-cache hits or misses,
    /// because no local prefill compute is implied either way.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Insufficient`] like [`Self::allocate`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn import(&mut self, tokens: &TokenBuf, now: SimTime) -> Result<SeqHandle, AllocError> {
        self.admit(tokens, now, true)
    }

    /// Releases a sequence whose KV is migrating to another pool, counting
    /// its tokens as exported. Returns the sequence length in tokens (the
    /// KV footprint being shipped). Block disposal is identical to
    /// [`Self::free`].
    ///
    /// # Panics
    ///
    /// Panics if the handle was already freed.
    pub fn export(&mut self, seq: SeqHandle, now: SimTime) -> usize {
        let len = self
            .seqs
            .get(&seq.0)
            .expect("exporting an unknown sequence handle")
            .len_tokens;
        self.stats.exported_tokens += len as u64;
        self.free(seq, now);
        len
    }

    fn admit(
        &mut self,
        tokens: &TokenBuf,
        now: SimTime,
        imported: bool,
    ) -> Result<SeqHandle, AllocError> {
        assert!(!tokens.is_empty(), "cannot allocate an empty sequence");
        let bs = self.config.block_size as usize;
        let hashes = tokens.chain_hashes_cached(bs);
        let (hits, needed, available) = self.demand(&hashes, tokens.len());
        if needed > available {
            self.stats.rejections += 1;
            return Err(AllocError::Insufficient {
                needed,
                available: self.free.len() + self.lru.len(),
            });
        }

        let mut blocks = Vec::with_capacity(self.config.blocks_for(tokens.len()));

        // Revive / share cached prefix blocks.
        for h in &hashes[..hits] {
            let id = self.cache[h];
            // Remove the LRU entry keyed by the *old* rank and tick before
            // touching.
            if self.metas[id.0 as usize].state == BlockState::Cached {
                self.lru
                    .remove((self.ranks[id.0 as usize], self.lru_ticks[id.0 as usize], id));
                self.metas[id.0 as usize].state = BlockState::Active;
                self.active += 1;
            }
            self.touch(id, now);
            self.metas[id.0 as usize].ref_count += 1;
            blocks.push(id);
        }

        // Where the HBM hit run ends, the offload tiers may continue it:
        // consecutive blocks resident in host/NVMe are *promoted* — they
        // still need fresh HBM blocks below, but their tokens skip
        // recompute and the transfer is priced by the engine instead.
        // Imports skip this: their KV arrives over the migration link.
        let mut promoted = 0usize;
        if !imported && self.config.prefix_caching {
            if let Some(hier) = &mut self.hierarchy {
                let (mut from_host, mut from_nvme) = (0u32, 0u32);
                for h in &hashes[hits..] {
                    match hier.take(*h) {
                        Some(Tier::Host) => from_host += 1,
                        Some(Tier::Nvme) => from_nvme += 1,
                        None => break,
                    }
                    promoted += 1;
                }
                hier.record_promote(Tier::Host, from_host, &mut self.stats);
                hier.record_promote(Tier::Nvme, from_nvme, &mut self.stats);
                // Every prefix block touched by this admission has had its
                // predicted invocation happen; stale predictions would
                // keep an ended session's blocks looking hot forever.
                for h in hashes.iter() {
                    hier.clear_pred(*h);
                }
            }
        }

        // Fresh blocks for the remaining full blocks (hash known now — the
        // prefill computing them, or the promotion restoring them, makes
        // the content immediately shareable).
        for h in &hashes[hits..] {
            let id = self.obtain_block(now)?;
            let meta = &mut self.metas[id.0 as usize];
            meta.state = BlockState::Active;
            meta.ref_count = 1;
            self.active += 1;
            if self.config.prefix_caching {
                self.metas[id.0 as usize].chain_hash = Some(*h);
                self.cache.insert(*h, id);
                // Recomputed content invalidates any stale offloaded copy:
                // a hash lives in exactly one place.
                if let Some(hier) = &mut self.hierarchy {
                    hier.take(*h);
                }
            }
            blocks.push(id);
        }

        // Trailing partial block, if any.
        let rem = tokens.len() % bs;
        if rem != 0 {
            let id = self.obtain_block(now)?;
            let meta = &mut self.metas[id.0 as usize];
            meta.state = BlockState::Active;
            meta.ref_count = 1;
            self.active += 1;
            blocks.push(id);
        }

        // A fully cached prompt still recomputes its final token so the
        // model has logits to sample from (vLLM behaviour). Promoted
        // blocks count as cached — their tokens skip recompute too.
        let cached_tokens = ((hits + promoted) * bs).min(tokens.len().saturating_sub(1));
        if imported {
            self.stats.imported_tokens += tokens.len() as u64;
        } else {
            let hbm_cached = (hits * bs).min(tokens.len().saturating_sub(1));
            self.stats.hit_tokens += cached_tokens as u64;
            self.stats.promoted_tokens += (cached_tokens - hbm_cached) as u64;
            self.stats.miss_tokens += (tokens.len() - cached_tokens) as u64;
        }
        self.stats.sequences += 1;

        let handle = SeqHandle(self.next_seq);
        self.next_seq += 1;
        self.seqs.insert(
            handle.0,
            SeqState {
                blocks,
                len_tokens: tokens.len(),
                cached_tokens,
                chain_tail: hashes.last().copied().unwrap_or(CHAIN_ROOT),
                tail_tokens: tokens.as_slice()[tokens.len() - rem..].to_vec(),
            },
        );
        self.note_usage(now);
        Ok(handle)
    }

    /// Appends one generated token to a live sequence, growing its block
    /// table when a block boundary is crossed.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Insufficient`] if a new block is needed and
    /// none can be freed (the caller should preempt the sequence), or
    /// [`AllocError::UnknownSequence`] for a stale handle.
    pub fn append_token(
        &mut self,
        seq: SeqHandle,
        token: Token,
        now: SimTime,
    ) -> Result<(), AllocError> {
        let bs = self.config.block_size as usize;
        let state = self.seqs.get(&seq.0).ok_or(AllocError::UnknownSequence)?;

        let needs_block = state.len_tokens.is_multiple_of(bs);
        let new_block = if needs_block {
            Some(self.obtain_block(now)?)
        } else {
            None
        };

        let prefix_caching = self.config.prefix_caching;
        if new_block.is_some() {
            self.active += 1;
        }
        let state = self.seqs.get_mut(&seq.0).expect("checked above");
        if let Some(id) = new_block {
            let meta = &mut self.metas[id.0 as usize];
            meta.state = BlockState::Active;
            meta.ref_count = 1;
            state.blocks.push(id);
        }
        state.tail_tokens.push(token);
        state.len_tokens += 1;

        // Did the tail block just fill? Then hash and register it.
        if state.len_tokens.is_multiple_of(bs) {
            let h = chain_hash(state.chain_tail, &state.tail_tokens);
            state.chain_tail = h;
            state.tail_tokens.clear();
            let id = *state.blocks.last().expect("tail block exists");
            if prefix_caching {
                self.metas[id.0 as usize].chain_hash = Some(h);
                // Content collisions (another block already holds this
                // chain) keep the existing entry.
                self.cache.entry(h).or_insert(id);
                // Freshly decoded content invalidates a stale offloaded
                // copy of the same chain.
                if let Some(hier) = &mut self.hierarchy {
                    hier.take(h);
                }
            }
        }
        self.note_usage(now);
        Ok(())
    }

    /// Releases a sequence. Hashed blocks stay resident (evictable) when
    /// prefix caching is on; everything else returns to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already freed.
    pub fn free(&mut self, seq: SeqHandle, now: SimTime) {
        let state = self
            .seqs
            .remove(&seq.0)
            .expect("freeing an unknown sequence handle");
        for id in state.blocks {
            let meta = &mut self.metas[id.0 as usize];
            assert!(meta.ref_count > 0, "double free of {id}");
            meta.ref_count -= 1;
            if meta.ref_count > 0 {
                continue;
            }
            self.active -= 1;
            let registered = meta
                .chain_hash
                .is_some_and(|h| self.cache.get(&h) == Some(&id));
            if self.config.prefix_caching && registered {
                meta.state = BlockState::Cached;
                let hash = self.metas[id.0 as usize].chain_hash.expect("registered");
                self.touch(id, now);
                let rank = self
                    .hierarchy
                    .as_ref()
                    .map_or(0, |hier| hier.rank_for(hash));
                self.ranks[id.0 as usize] = rank;
                self.lru
                    .insert((rank, self.lru_ticks[id.0 as usize], id), &self.lru_ticks);
            } else {
                if let Some(h) = meta.chain_hash.take() {
                    if self.cache.get(&h) == Some(&id) {
                        self.cache.remove(&h);
                    }
                }
                meta.state = BlockState::Free;
                self.free.push(id);
            }
        }
        self.note_usage(now);
    }

    /// Prompt tokens of `seq` that were served from the prefix cache (or
    /// promoted from an offload tier).
    ///
    /// # Panics
    ///
    /// Panics on a stale handle — a freed sequence has no block table, and
    /// a silent zero here once masked accounting bugs. Use
    /// [`Self::try_cached_tokens`] when staleness is expected.
    pub fn cached_tokens(&self, seq: &SeqHandle) -> usize {
        self.try_cached_tokens(seq)
            .expect("stale SeqHandle: sequence already freed or never allocated")
    }

    /// Like [`Self::cached_tokens`], but `None` on a stale handle.
    pub fn try_cached_tokens(&self, seq: &SeqHandle) -> Option<usize> {
        self.seqs.get(&seq.0).map(|s| s.cached_tokens)
    }

    /// Current length (tokens) of a live sequence.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle, like [`Self::cached_tokens`]. Use
    /// [`Self::try_seq_len`] when staleness is expected.
    pub fn seq_len(&self, seq: &SeqHandle) -> usize {
        self.try_seq_len(seq)
            .expect("stale SeqHandle: sequence already freed or never allocated")
    }

    /// Like [`Self::seq_len`], but `None` on a stale handle.
    pub fn try_seq_len(&self, seq: &SeqHandle) -> Option<usize> {
        self.seqs.get(&seq.0).map(|s| s.len_tokens)
    }

    /// Feeds the session layer's next-invocation prediction for a token
    /// chain: each of `hashes` (the chain hashes of a context that will be
    /// resubmitted) is expected back at `at`, predicted at time `now`.
    /// Re-ranks any HBM-evictable copy and any offloaded copy under
    /// [`EvictionPolicy::InvocationDistance`]; a no-op without a
    /// hierarchy or under the LRU baseline.
    pub fn hint_next_use(&mut self, hashes: &[u64], now: SimTime, at: SimTime) {
        let Some(hier) = &mut self.hierarchy else {
            return;
        };
        if hier.policy() != EvictionPolicy::InvocationDistance {
            return;
        }
        for &h in hashes {
            hier.hint(h, at);
            // Re-key a resident evictable copy under its new rank.
            if let Some(&id) = self.cache.get(&h) {
                if self.metas[id.0 as usize].state == BlockState::Cached {
                    let tick = self.lru_ticks[id.0 as usize];
                    let old = self.ranks[id.0 as usize];
                    let new = hier.rank_for(h);
                    if new != old {
                        self.lru.remove((old, tick, id));
                        self.ranks[id.0 as usize] = new;
                        self.lru.insert((new, tick, id), &self.lru_ticks);
                    }
                }
            }
        }
        hier.prune_pred(now);
    }

    /// Blocks referenced by live sequences.
    pub fn used_blocks(&self) -> usize {
        self.active
    }

    /// Blocks on the free list.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Unreferenced cached blocks (evictable).
    pub fn evictable_blocks(&self) -> usize {
        self.lru.len()
    }

    /// Live sequences.
    pub fn live_sequences(&self) -> usize {
        self.seqs.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    fn obtain_block(&mut self, now: SimTime) -> Result<BlockId, AllocError> {
        if let Some(id) = self.free.pop() {
            self.touch(id, now);
            return Ok(id);
        }
        // Evict the lowest-ranked cached block (exact LRU without an
        // offload hierarchy).
        if let Some(id) = self.lru.pop_first(&self.lru_ticks) {
            let meta = &mut self.metas[id.0 as usize];
            if let Some(h) = meta.chain_hash.take() {
                if self.cache.get(&h) == Some(&id) {
                    self.cache.remove(&h);
                    // Spill the evicted content down the hierarchy rather
                    // than destroying it; the engine prices the copy as an
                    // asynchronous transfer on the offload link.
                    if let Some(hier) = &mut self.hierarchy {
                        hier.demote(h, &mut self.stats);
                    }
                }
            }
            *meta = BlockMeta::free();
            self.stats.evictions += 1;
            self.touch(id, now);
            return Ok(id);
        }
        Err(AllocError::Insufficient {
            needed: 1,
            available: 0,
        })
    }

    fn touch(&mut self, id: BlockId, now: SimTime) {
        self.tick += 1;
        self.lru_ticks[id.0 as usize] = self.tick;
        self.metas[id.0 as usize].last_used = now;
    }

    fn note_usage(&mut self, now: SimTime) {
        let used = self.used_blocks() as u64;
        self.stats.used_blocks.set(now, used);
        self.stats
            .resident_blocks
            .set(now, used + self.lru.len() as u64);
    }

    /// Internal-consistency check used by tests: every block is in exactly
    /// one of {free list, LRU set, active}, refcounts match liveness, and
    /// the cache map points at resident hashed blocks.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.config.num_blocks as usize;
        let mut seen = vec![0u8; n];
        for id in &self.free {
            seen[id.0 as usize] += 1;
            if self.metas[id.0 as usize].state != BlockState::Free {
                return Err(format!("{id} on free list but not Free"));
            }
        }
        self.lru.check_invariants(&self.lru_ticks)?;
        for (rank, tick, id) in self.lru.iter(&self.lru_ticks) {
            seen[id.0 as usize] += 1;
            let m = &self.metas[id.0 as usize];
            if m.state != BlockState::Cached || m.ref_count != 0 {
                return Err(format!("{id} in LRU but not an unreferenced cached block"));
            }
            if self.ranks[id.0 as usize] != rank || self.lru_ticks[id.0 as usize] != tick {
                return Err(format!(
                    "{id} keyed ({rank}, {tick}) but recorded ({}, {})",
                    self.ranks[id.0 as usize], self.lru_ticks[id.0 as usize]
                ));
            }
        }
        for (i, m) in self.metas.iter().enumerate() {
            match m.state {
                BlockState::Active => {
                    if m.ref_count == 0 {
                        return Err(format!("blk#{i} active with zero refs"));
                    }
                    seen[i] += 1;
                }
                BlockState::Free | BlockState::Cached => {
                    if m.ref_count != 0 {
                        return Err(format!("blk#{i} {:?} with refs", m.state));
                    }
                }
            }
        }
        if let Some(i) = seen.iter().position(|&c| c != 1) {
            return Err(format!("blk#{i} in {} places", seen[i]));
        }
        // Oracle: the next victim is the minimum key over every cached
        // block, found by a plain scan.
        let cached = (0..n).filter(|&i| self.metas[i].state == BlockState::Cached);
        let cached_count = cached.clone().count();
        if self.lru.len() != cached_count {
            return Err(format!(
                "evictable set holds {} blocks, {cached_count} are cached",
                self.lru.len()
            ));
        }
        let scan_min = cached
            .map(|i| (self.ranks[i], self.lru_ticks[i], BlockId(i as u32)))
            .min();
        if self.lru.first(&self.lru_ticks) != scan_min {
            return Err(format!(
                "next victim {:?} but the scan minimum is {scan_min:?}",
                self.lru.first(&self.lru_ticks)
            ));
        }
        let active_scan = self
            .metas
            .iter()
            .filter(|m| m.state == BlockState::Active)
            .count();
        if active_scan != self.active {
            return Err(format!(
                "active counter {} != scan {active_scan}",
                self.active
            ));
        }
        for (h, id) in &self.cache {
            if self.metas[id.0 as usize].chain_hash != Some(*h) {
                return Err(format!(
                    "cache entry {h:#x} points at {id} without that hash"
                ));
            }
            if self.metas[id.0 as usize].state == BlockState::Free {
                return Err(format!("cache entry {h:#x} points at free {id}"));
            }
        }
        if let Some(hier) = &self.hierarchy {
            hier.check_invariants()?;
            // A chain hash lives in exactly one place: the HBM prefix
            // cache, the host tier, or the NVMe tier.
            for h in self.cache.keys() {
                if let Some(tier) = hier.tier_of(*h) {
                    return Err(format!(
                        "hash {h:#x} resident in HBM and the {} tier",
                        tier.name()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::chain_hashes;

    fn mgr(blocks: u32, caching: bool) -> KvBlockManager {
        KvBlockManager::new(KvConfig {
            num_blocks: blocks,
            block_size: 16,
            prefix_caching: caching,
        })
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn cold_allocation_has_no_hits() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 48);
        let s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(m.cached_tokens(&s), 0);
        assert_eq!(m.used_blocks(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn freed_prefix_is_reused() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 64);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        assert_eq!(m.evictable_blocks(), 4);
        let s2 = m.allocate(&p, t(2)).unwrap();
        // 64 tokens = 4 full blocks, all cached; final token recomputed.
        assert_eq!(m.cached_tokens(&s2), 63);
        assert_eq!(m.free_blocks(), 12); // the same 4 blocks are revived
        m.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_sequences_share_active_prefix() {
        let mut m = mgr(16, true);
        let mut p1 = TokenBuf::from_segment(9, 32);
        p1.push_segment(100, 16);
        let mut p2 = TokenBuf::from_segment(9, 32);
        p2.push_segment(200, 16);
        let s1 = m.allocate(&p1, t(0)).unwrap();
        let s2 = m.allocate(&p2, t(1)).unwrap();
        // 2 shared prefix blocks + 2 distinct suffix blocks.
        assert_eq!(m.used_blocks(), 4);
        assert_eq!(m.cached_tokens(&s2), 32);
        m.free(s1, t(2));
        m.free(s2, t(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn prefix_caching_off_never_hits() {
        let mut m = mgr(16, false);
        let p = TokenBuf::from_segment(1, 64);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        assert_eq!(m.evictable_blocks(), 0);
        assert_eq!(m.free_blocks(), 16);
        let s2 = m.allocate(&p, t(2)).unwrap();
        assert_eq!(m.cached_tokens(&s2), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn eviction_reclaims_lru_blocks() {
        let mut m = mgr(8, true);
        let p1 = TokenBuf::from_segment(1, 64); // 4 blocks
        let s1 = m.allocate(&p1, t(0)).unwrap();
        m.free(s1, t(1));
        let p2 = TokenBuf::from_segment(2, 64);
        let s2 = m.allocate(&p2, t(2)).unwrap();
        m.free(s2, t(3));
        // Pool of 8 now holds 8 cached blocks; a third prompt evicts p1's.
        let p3 = TokenBuf::from_segment(3, 64);
        let _s3 = m.allocate(&p3, t(4)).unwrap();
        assert_eq!(m.stats().evictions, 4);
        // p1 no longer cached, p2 still is.
        let hashes1 = chain_hashes(p1.as_slice(), 16);
        assert_eq!(m.scan_hits(&hashes1).0, 0);
        let hashes2 = chain_hashes(p2.as_slice(), 16);
        assert_eq!(m.scan_hits(&hashes2).0, 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn allocation_fails_when_pool_exhausted() {
        let mut m = mgr(4, true);
        let p1 = TokenBuf::from_segment(1, 64);
        let _s1 = m.allocate(&p1, t(0)).unwrap();
        let p2 = TokenBuf::from_segment(2, 16);
        let err = m.allocate(&p2, t(1)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert_eq!(m.stats().rejections, 1);
        assert!(!m.can_allocate(&p2));
        m.check_invariants().unwrap();
    }

    #[test]
    fn decode_growth_allocates_blocks_and_registers_hashes() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 24); // 1 full + 1 partial
        let s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(m.used_blocks(), 2);

        // Grow by 8 tokens: fills the partial block (now hashed).
        let mut full = p.clone();
        for i in 0..8u64 {
            let tok = crate::tokens::segment_token(777, i);
            full.extend([tok]);
            m.append_token(s, tok, t(10 + i)).unwrap();
        }
        assert_eq!(m.seq_len(&s), 32);
        assert_eq!(m.used_blocks(), 2);
        m.free(s, t(100));

        // A new prompt with the same 32 tokens hits both blocks.
        let s2 = m.allocate(&full, t(101)).unwrap();
        assert_eq!(m.cached_tokens(&s2), 31);
        m.check_invariants().unwrap();
    }

    #[test]
    fn decode_crossing_boundary_takes_new_block() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        let s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(m.used_blocks(), 1);
        m.append_token(s, 123, t(1)).unwrap();
        assert_eq!(m.used_blocks(), 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn decode_oom_is_reported() {
        let mut m = mgr(1, true);
        let p = TokenBuf::from_segment(1, 16);
        let s = m.allocate(&p, t(0)).unwrap();
        let err = m.append_token(s, 1, t(1)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut m = mgr(32, true);
        let p = TokenBuf::from_segment(1, 64);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        let _ = m.allocate(&p, t(2)).unwrap();
        let st = m.stats();
        assert_eq!(st.hit_tokens, 63);
        assert_eq!(st.miss_tokens, 64 + 1);
        assert!((st.hit_rate() - 63.0 / 128.0).abs() < 1e-12);
        assert_eq!(st.sequences, 2);
    }

    #[test]
    fn usage_tracker_sees_peak() {
        let mut m = mgr(32, true);
        let p = TokenBuf::from_segment(1, 160); // 10 blocks
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1_000_000));
        assert_eq!(m.stats().used_blocks.peak(), 10);
        let avg = m.stats().used_blocks.average(t(2_000_000));
        assert!((avg - 5.0).abs() < 0.1, "avg {avg}");
    }

    #[test]
    fn revived_block_not_counted_available() {
        // Pool 4; cached prompt occupies all 4 evictable. A new prompt
        // sharing 2 blocks + needing 2 fresh must succeed (evicting the
        // 2 non-shared), exercising the revive-vs-evict accounting.
        let mut m = mgr(4, true);
        let mut p1 = TokenBuf::from_segment(1, 32);
        p1.push_segment(2, 32);
        let s1 = m.allocate(&p1, t(0)).unwrap();
        m.free(s1, t(1));
        let mut p2 = TokenBuf::from_segment(1, 32);
        p2.push_segment(3, 32);
        let s2 = m.allocate(&p2, t(2)).unwrap();
        assert_eq!(m.cached_tokens(&s2), 32);
        assert_eq!(m.stats().evictions, 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn import_accounts_tokens_without_hits_or_misses() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 40); // 2 full + 1 partial block
        let s = m.import(&p, t(0)).unwrap();
        assert_eq!(m.used_blocks(), 3);
        assert_eq!(m.seq_len(&s), 40);
        let st = m.stats();
        assert_eq!(st.imported_tokens, 40);
        assert_eq!(st.hit_tokens, 0);
        assert_eq!(st.miss_tokens, 0);
        assert_eq!(st.sequences, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn import_shares_resident_blocks() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 64);
        let s1 = m.allocate(&p, t(0)).unwrap();
        // The same content imported concurrently shares the 4 full blocks
        // (only the partial-tail rule differs: 64 is block-aligned).
        let s2 = m.import(&p, t(1)).unwrap();
        assert_eq!(m.used_blocks(), 4);
        assert_eq!(m.stats().imported_tokens, 64);
        m.free(s1, t(2));
        m.free(s2, t(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn export_counts_footprint_and_frees() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 48);
        let s = m.allocate(&p, t(0)).unwrap();
        let len = m.export(s, t(1));
        assert_eq!(len, 48);
        assert_eq!(m.stats().exported_tokens, 48);
        assert_eq!(m.live_sequences(), 0);
        // Hashed blocks stay evictable, exactly as `free` leaves them.
        assert_eq!(m.evictable_blocks(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn import_rejection_is_counted() {
        let mut m = mgr(2, true);
        let p = TokenBuf::from_segment(1, 64);
        let err = m.import(&p, t(0)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert_eq!(m.stats().rejections, 1);
        assert_eq!(m.stats().imported_tokens, 0);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_prompt_panics() {
        let mut m = mgr(4, true);
        let _ = m.allocate(&TokenBuf::new(), t(0));
    }

    #[test]
    #[should_panic(expected = "unknown sequence handle")]
    fn double_free_panics() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        m.free(s, t(2));
    }

    #[test]
    #[should_panic(expected = "stale SeqHandle")]
    fn cached_tokens_on_freed_handle_panics() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        let _ = m.cached_tokens(&s);
    }

    #[test]
    #[should_panic(expected = "stale SeqHandle")]
    fn seq_len_on_freed_handle_panics() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        let _ = m.seq_len(&s);
    }

    #[test]
    fn try_accessors_report_staleness_instead() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        let s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(m.try_cached_tokens(&s), Some(0));
        assert_eq!(m.try_seq_len(&s), Some(16));
        m.free(s, t(1));
        assert_eq!(m.try_cached_tokens(&s), None);
        assert_eq!(m.try_seq_len(&s), None);
    }

    mod offload {
        use super::*;
        use crate::hierarchy::{EvictionPolicy, OffloadSpec, Tier, TierDir, TierTransfer};

        fn tiered(blocks: u32, host: u32, nvme: u32, policy: EvictionPolicy) -> KvBlockManager {
            let mut m = mgr(blocks, true);
            m.enable_offload(OffloadSpec {
                host_blocks: host,
                nvme_blocks: nvme,
                policy,
            });
            m
        }

        #[test]
        fn eviction_demotes_instead_of_destroying() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64); // 4 blocks
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            // Pool full of cached blocks; p3 evicts p1's four into host.
            let p3 = TokenBuf::from_segment(3, 64);
            let _s3 = m.allocate(&p3, t(4)).unwrap();
            assert_eq!(m.stats().evictions, 4);
            assert_eq!(m.stats().demoted_blocks_host, 4);
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4);
            m.check_invariants().unwrap();
        }

        #[test]
        fn offloaded_prefix_promotes_and_counts_as_cached() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 128); // 8 blocks: evicts all of p1
            let s2 = m.allocate(&p2, t(2)).unwrap();
            assert_eq!(m.stats().demoted_blocks_host, 4);
            m.free(s2, t(3));
            // p1 returns: its 4 blocks promote from host instead of
            // recomputing — same cached_tokens a pure HBM hit would give.
            let s1b = m.allocate(&p1, t(4)).unwrap();
            assert_eq!(m.cached_tokens(&s1b), 63);
            assert_eq!(m.stats().promoted_blocks_host, 4);
            assert_eq!(m.stats().promoted_tokens, 63);
            // p1's copies left the tier; the fresh blocks its readmission
            // needed evicted (and demoted) p2's four in turn.
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4);
            // The transfer events carry both directions for the engine.
            let mut events = Vec::new();
            m.take_tier_transfers(&mut events);
            let promoted: u32 = events
                .iter()
                .filter(|e| e.dir == TierDir::Promote)
                .map(|e| e.blocks)
                .sum();
            assert_eq!(promoted, 4);
            m.check_invariants().unwrap();
        }

        #[test]
        fn promoted_tokens_are_a_subset_of_hits() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 128);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            let _ = m.allocate(&p1, t(4)).unwrap();
            let st = m.stats();
            assert!(st.promoted_tokens <= st.hit_tokens);
            assert_eq!(st.hit_tokens + st.miss_tokens, 64 + 128 + 64);
        }

        #[test]
        fn zero_capacity_tiers_match_no_offload_exactly() {
            // The same op script against a plain pool and a zero-capacity
            // hierarchy: every observable (stats, block placement) agrees.
            let run = |m: &mut KvBlockManager| {
                let p1 = TokenBuf::from_segment(1, 64);
                let s1 = m.allocate(&p1, t(0)).unwrap();
                m.free(s1, t(1));
                let p2 = TokenBuf::from_segment(2, 128);
                let s2 = m.allocate(&p2, t(2)).unwrap();
                m.free(s2, t(3));
                let s3 = m.allocate(&p1, t(4)).unwrap();
                m.check_invariants().unwrap();
                (
                    m.cached_tokens(&s3),
                    m.stats().evictions,
                    m.stats().hit_tokens,
                    m.stats().miss_tokens,
                    m.free_blocks(),
                    m.evictable_blocks(),
                )
            };
            let mut plain = mgr(8, true);
            let mut zeroed = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            assert_eq!(run(&mut plain), run(&mut zeroed));
            let st = zeroed.stats();
            assert_eq!(st.demoted_blocks_host + st.demoted_blocks_nvme, 0);
            assert_eq!(st.offload_dropped_blocks, 0);
            let mut events = Vec::new();
            zeroed.take_tier_transfers(&mut events);
            assert!(events.is_empty(), "zero-capacity tiers record no transfers");
        }

        #[test]
        fn recomputed_chain_invalidates_stale_tier_copy() {
            let mut m = tiered(4, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            // Evict everything into host...
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4);
            m.free(s2, t(3));
            // ...then readmit p1: the four blocks promote back, leaving
            // no duplicate copies behind.
            let _ = m.allocate(&p1, t(4)).unwrap();
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4); // p2's, demoted in turn
            m.check_invariants().unwrap();
        }

        #[test]
        fn distance_hints_spill_the_farthest_context_first() {
            let mut m = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64); // 4 blocks, freed older
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64); // 4 blocks, freed newer
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            // p1 returns imminently, p2 only much later: a new prompt
            // evicts p2's blocks even though they are the younger ones
            // (LRU would have taken p1's).
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            let hashes2 = p2.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(4), t(1_000));
            m.hint_next_use(&hashes2, t(4), t(60_000_000));
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(5)).unwrap();
            assert_eq!(m.scan_hits(&hashes1).0, 4, "imminent blocks survived");
            assert_eq!(m.scan_hits(&hashes2).0, 0, "far-future blocks evicted");
            m.check_invariants().unwrap();
        }

        #[test]
        fn unhinted_blocks_outrank_every_prediction() {
            // Unhinted content is assumed imminently reusable (a hot
            // shared prefix loses its prediction on every use), so even an
            // imminent hint spills before it.
            let mut m = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64); // freed older, unhinted
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64); // freed newer, hinted
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            let hashes2 = p2.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes2, t(4), t(1_000));
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(5)).unwrap();
            assert_eq!(m.scan_hits(&hashes1).0, 4, "unhinted blocks survived");
            assert_eq!(m.scan_hits(&hashes2).0, 0, "hinted blocks spilled");
            m.check_invariants().unwrap();
        }

        #[test]
        fn hint_at_time_zero_returns_blocks_to_the_lane_in_tick_order() {
            // A prediction at absolute time 0 ranks like no prediction, so
            // the re-keyed blocks rejoin the FIFO lane behind younger ones
            // by their (older) ticks and are evicted first.
            let mut m = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(2), t(1_000));
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(3)).unwrap();
            m.free(s2, t(4));
            m.hint_next_use(&hashes1, t(5), SimTime::ZERO);
            m.check_invariants().unwrap();
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(6)).unwrap();
            assert_eq!(m.scan_hits(&hashes1).0, 0, "older blocks evicted first");
            m.check_invariants().unwrap();
        }

        #[test]
        fn lru_ignores_hints_entirely() {
            let mut m = tiered(8, 0, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(4), t(1_000));
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(5)).unwrap();
            // Strict LRU: the older p1 blocks go first, hint or no hint.
            assert_eq!(m.scan_hits(&hashes1).0, 0);
            m.check_invariants().unwrap();
        }

        #[test]
        fn admission_clears_consumed_predictions() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(2), t(10));
            // The predicted invocation happens; the hint must not outlive it.
            let s1b = m.allocate(&p1, t(10)).unwrap();
            m.free(s1b, t(11));
            for h in &hashes1 {
                assert_eq!(m.hierarchy().unwrap().rank_for(*h), u64::MAX);
            }
            m.check_invariants().unwrap();
        }

        #[test]
        fn demote_cascade_reaches_nvme_through_the_manager() {
            let mut m = tiered(4, 2, 2, EvictionPolicy::Lru);
            for seed in 1..=3u64 {
                let p = TokenBuf::from_segment(seed, 64);
                let s = m.allocate(&p, t(seed)).unwrap();
                m.free(s, t(seed * 10));
            }
            // Three 4-block prompts through a 4-block pool: 8 evictions,
            // host holds 2, nvme 2, the rest fell off the bottom.
            let st = m.stats();
            assert_eq!(st.evictions, 8);
            assert_eq!(m.hierarchy().unwrap().host_resident(), 2);
            assert_eq!(m.hierarchy().unwrap().nvme_resident(), 2);
            assert_eq!(st.offload_dropped_blocks, 4);
            assert_eq!(st.host_peak_blocks, 2);
            assert_eq!(st.nvme_peak_blocks, 2);
            m.check_invariants().unwrap();
            let mut events = Vec::new();
            m.take_tier_transfers(&mut events);
            assert!(events.contains(&TierTransfer {
                tier: Tier::Nvme,
                dir: TierDir::Demote,
                blocks: 1
            }));
        }

        #[test]
        #[should_panic(expected = "before any traffic")]
        fn late_offload_enable_rejected() {
            let mut m = mgr(8, true);
            let p = TokenBuf::from_segment(1, 16);
            let _ = m.allocate(&p, t(0)).unwrap();
            m.enable_offload(OffloadSpec {
                host_blocks: 4,
                nvme_blocks: 0,
                policy: EvictionPolicy::Lru,
            });
        }

        #[test]
        #[should_panic(expected = "requires prefix caching")]
        fn offload_without_prefix_caching_rejected() {
            let mut m = mgr(8, false);
            m.enable_offload(OffloadSpec {
                host_blocks: 4,
                nvme_blocks: 0,
                policy: EvictionPolicy::Lru,
            });
        }
    }
}
