//! The evictable set: unreferenced cached blocks in victim order.
//!
//! Blocks are ordered by `(rank, last-use tick, block)`; the minimum is the
//! next victim. Almost every block carries the policy's *unhinted* rank
//! (zero without a hierarchy or under LRU, `u64::MAX` under
//! invocation distance), and [`crate::KvBlockManager::free`] always
//! stamps a fresh, maximal tick. Those blocks therefore arrive in order
//! and queue in a doubly linked FIFO *lane*: insert, remove and pop are
//! O(1), as in vLLM's free-block queue. Only blocks with a hinted rank go
//! to an ordered set, and the next victim is the smaller of the lane head
//! and that set's minimum — the same order one set over every key gives.

use std::collections::BTreeSet;

use crate::block::BlockId;

/// `(rank, tick, block)`: the eviction key; smaller is evicted sooner.
pub(crate) type Key = (u64, u64, BlockId);

/// End of the lane in either direction.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
pub(crate) struct EvictableSet {
    /// Rank of every lane entry: the policy's rank for unhinted content.
    lane_rank: u64,
    head: u32,
    tail: u32,
    lane_len: usize,
    /// `links[block] = [prev, next]` for lane entries. Grown on demand, so
    /// an idle pool pays nothing for it at construction.
    links: Vec<[u32; 2]>,
    /// Entries whose rank is not `lane_rank`.
    ranked: BTreeSet<Key>,
}

impl EvictableSet {
    /// An empty set whose lane holds entries of rank `lane_rank`.
    pub(crate) fn new(lane_rank: u64) -> Self {
        EvictableSet {
            lane_rank,
            head: NIL,
            tail: NIL,
            lane_len: 0,
            links: Vec::new(),
            ranked: BTreeSet::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lane_len + self.ranked.len()
    }

    /// Adds `key`. `ticks[b]` must be the tick keyed for every lane entry
    /// `b`; a lane entry younger than `key` is only possible after a
    /// re-rank into the lane, so the walk back from the tail normally
    /// stops at once.
    pub(crate) fn insert(&mut self, key: Key, ticks: &[u64]) {
        let (rank, tick, BlockId(id)) = key;
        if rank != self.lane_rank {
            self.ranked.insert(key);
            return;
        }
        if id as usize >= self.links.len() {
            self.links.resize(id as usize + 1, [NIL, NIL]);
        }
        let mut prev = self.tail;
        while prev != NIL && ticks[prev as usize] > tick {
            prev = self.links[prev as usize][0];
        }
        let next = if prev == NIL {
            self.head
        } else {
            self.links[prev as usize][1]
        };
        self.links[id as usize] = [prev, next];
        match prev {
            NIL => self.head = id,
            p => self.links[p as usize][1] = id,
        }
        match next {
            NIL => self.tail = id,
            n => self.links[n as usize][0] = id,
        }
        self.lane_len += 1;
    }

    /// Removes `key`, which must be present.
    pub(crate) fn remove(&mut self, key: Key) {
        let (rank, _, BlockId(id)) = key;
        if rank != self.lane_rank {
            let found = self.ranked.remove(&key);
            debug_assert!(found, "{key:?} not in the ranked set");
            return;
        }
        let [prev, next] = self.links[id as usize];
        debug_assert!(prev != NIL || self.head == id, "blk#{id} not in the lane");
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize][1] = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize][0] = prev,
        }
        self.links[id as usize] = [NIL, NIL];
        self.lane_len -= 1;
    }

    /// The next victim's key.
    pub(crate) fn first(&self, ticks: &[u64]) -> Option<Key> {
        let lane = (self.head != NIL).then(|| self.lane_key(self.head, ticks));
        match (lane, self.ranked.first().copied()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the next victim.
    pub(crate) fn pop_first(&mut self, ticks: &[u64]) -> Option<BlockId> {
        let key = self.first(ticks)?;
        self.remove(key);
        Some(key.2)
    }

    /// Every entry: the lane head to tail, then the ranked set in order.
    pub(crate) fn iter<'a>(&'a self, ticks: &'a [u64]) -> impl Iterator<Item = Key> + 'a {
        let lane = std::iter::successors((self.head != NIL).then_some(self.head), |&b| {
            let next = self.links[b as usize][1];
            (next != NIL).then_some(next)
        })
        .map(|b| self.lane_key(b, ticks));
        lane.chain(self.ranked.iter().copied())
    }

    fn lane_key(&self, b: u32, ticks: &[u64]) -> Key {
        (self.lane_rank, ticks[b as usize], BlockId(b))
    }

    /// Structural check: lane links agree in both directions, lane ticks
    /// strictly increase from head to tail, only the lane holds
    /// `lane_rank`, and the lane's counted length matches its walk.
    pub(crate) fn check_invariants(&self, ticks: &[u64]) -> Result<(), String> {
        let mut prev = NIL;
        let mut walked = 0usize;
        let mut b = self.head;
        while b != NIL {
            walked += 1;
            if walked > self.lane_len {
                return Err(format!("lane longer than its count {}", self.lane_len));
            }
            let [p, n] = self.links[b as usize];
            if p != prev {
                return Err(format!("blk#{b} links back to {p}, not {prev}"));
            }
            if prev != NIL && ticks[prev as usize] >= ticks[b as usize] {
                return Err(format!(
                    "lane tick {} of blk#{b} does not follow {} of blk#{prev}",
                    ticks[b as usize], ticks[prev as usize]
                ));
            }
            prev = b;
            b = n;
        }
        if prev != self.tail {
            return Err(format!("lane ends at {prev}, tail is {}", self.tail));
        }
        if walked != self.lane_len {
            return Err(format!(
                "lane walk found {walked} entries, count is {}",
                self.lane_len
            ));
        }
        if let Some(key) = self.ranked.iter().find(|k| k.0 == self.lane_rank) {
            return Err(format!("ranked entry {key:?} carries the lane rank"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LANE: u64 = u64::MAX;

    fn key(rank: u64, tick: u64, id: u32) -> Key {
        (rank, tick, BlockId(id))
    }

    #[test]
    fn victims_leave_in_key_order_across_both_lanes() {
        let ticks = [5, 1, 3, 2, 4];
        let mut set = EvictableSet::new(LANE);
        set.insert(key(7, 1, 1), &ticks);
        set.insert(key(7, 2, 3), &ticks);
        for id in [2, 4, 0] {
            set.insert(key(LANE, ticks[id], id as u32), &ticks);
        }
        set.check_invariants(&ticks).unwrap();
        assert_eq!(set.len(), 5);
        let order: Vec<u32> = std::iter::from_fn(|| set.pop_first(&ticks))
            .map(|b| b.0)
            .collect();
        // Rank 7 first (ticks 1, 2), then the lane by tick (3, 4, 5).
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn an_older_lane_entry_is_placed_by_tick() {
        let ticks = [10, 20, 15];
        let mut set = EvictableSet::new(0);
        set.insert(key(0, 10, 0), &ticks);
        set.insert(key(0, 20, 1), &ticks);
        set.insert(key(0, 15, 2), &ticks);
        set.check_invariants(&ticks).unwrap();
        let order: Vec<u32> = set.iter(&ticks).map(|k| k.2 .0).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn removal_relinks_the_lane() {
        let ticks = [1, 2, 3, 4];
        let mut set = EvictableSet::new(0);
        for id in 0..4u32 {
            set.insert(key(0, ticks[id as usize], id), &ticks);
        }
        set.remove(key(0, 2, 1));
        set.remove(key(0, 1, 0));
        set.remove(key(0, 4, 3));
        set.check_invariants(&ticks).unwrap();
        assert_eq!(set.first(&ticks), Some(key(0, 3, 2)));
        set.remove(key(0, 3, 2));
        set.check_invariants(&ticks).unwrap();
        assert_eq!(set.first(&ticks), None);
        assert_eq!(set.len(), 0);
    }
}
