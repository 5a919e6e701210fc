//! Chain hashing of token blocks (vLLM-style prefix keys).
//!
//! A full block's identity is the hash of *all tokens from the start of the
//! sequence through the end of that block* — computed incrementally as
//! `hash(parent_chain_hash, block_tokens)`. Two sequences share a cached
//! block if and only if they agree on the entire prefix up to it.
//!
//! It also holds [`IdHasher`], the cheap hasher for the maps keyed by
//! those chain hashes and by sequence handles.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use agentsim_simkit::rng::splitmix64;

use crate::tokens::Token;

/// Seed for the first block in a chain (no parent).
pub const CHAIN_ROOT: u64 = 0x005E_ED0F_C4A1;

/// Hashes one full block of tokens given the parent chain hash.
pub fn chain_hash(parent: u64, block_tokens: &[Token]) -> u64 {
    let mut h = splitmix64(parent ^ 0xB10C);
    for &t in block_tokens {
        h = splitmix64(h ^ t);
    }
    h
}

/// Computes the chain hashes of every *full* block in a token stream.
///
/// The trailing partial block (if any) has no hash — it cannot be shared.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn chain_hashes(tokens: &[Token], block_size: usize) -> Vec<u64> {
    assert!(block_size > 0, "block size must be positive");
    let mut hashes = Vec::with_capacity(tokens.len() / block_size);
    let mut parent = CHAIN_ROOT;
    for chunk in tokens.chunks_exact(block_size) {
        parent = chain_hash(parent, chunk);
        hashes.push(parent);
    }
    hashes
}

/// A multiplicative hasher for `u64` keys that are already well spread:
/// chain hashes (splitmix output) and sequential handles. One multiply by
/// an odd constant replaces SipHash's rounds, and it is a bijection on
/// every low-bit window, so sequential keys never collide in a table's
/// index bits. No result may depend on map iteration order, which the
/// default hasher already randomizes per process.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by chain hashes or handles, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_prefixes_share_hashes() {
        let a: Vec<Token> = (0..64).collect();
        let mut b = a.clone();
        b.extend(100..116);
        let ha = chain_hashes(&a, 16);
        let hb = chain_hashes(&b, 16);
        assert_eq!(ha.len(), 4);
        assert_eq!(hb.len(), 5);
        assert_eq!(&hb[..4], &ha[..]);
    }

    #[test]
    fn divergence_breaks_all_later_hashes() {
        let a: Vec<Token> = (0..64).collect();
        let mut b = a.clone();
        b[0] = 999; // first token differs
        let ha = chain_hashes(&a, 16);
        let hb = chain_hashes(&b, 16);
        for (x, y) in ha.iter().zip(&hb) {
            assert_ne!(x, y, "chain must diverge from the first block on");
        }
    }

    #[test]
    fn mid_sequence_divergence_keeps_earlier_blocks() {
        let a: Vec<Token> = (0..64).collect();
        let mut b = a.clone();
        b[40] = 999; // diverges inside block 2
        let ha = chain_hashes(&a, 16);
        let hb = chain_hashes(&b, 16);
        assert_eq!(ha[0], hb[0]);
        assert_eq!(ha[1], hb[1]);
        assert_ne!(ha[2], hb[2]);
        assert_ne!(ha[3], hb[3]);
    }

    #[test]
    fn partial_blocks_are_not_hashed() {
        let tokens: Vec<Token> = (0..20).collect();
        assert_eq!(chain_hashes(&tokens, 16).len(), 1);
        assert_eq!(chain_hashes(&tokens[..15], 16).len(), 0);
    }

    #[test]
    fn hash_depends_on_parent() {
        let block: Vec<Token> = (0..16).collect();
        assert_ne!(chain_hash(1, &block), chain_hash(2, &block));
    }

    #[test]
    fn id_hasher_spreads_sequential_keys_over_index_bits() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let low: HashSet<u64> = (0..1024u64).map(|k| build.hash_one(k) & 1023).collect();
        assert_eq!(low.len(), 1024, "sequential keys fill every low-bit slot");
        let mut map: IdMap<u64, u64> = IdMap::default();
        map.insert(7, 1);
        assert_eq!(map.get(&7), Some(&1));
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = chain_hashes(&[1, 2, 3], 0);
    }
}
