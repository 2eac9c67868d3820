//! Band hashing and the arena band table shared by [`LshIndex`] and the
//! LSH Ensemble partitions.
//!
//! A band is a contiguous run of `r` signature slots. Its hash folds
//! `(r, band index, slots)` one 64-bit word at a time, so hashing a band
//! allocates nothing, and bands of different row counts or positions land
//! in one table without sharing buckets. Band hashes are never persisted
//! (snapshots carry signatures), so they only need to be deterministic.
//!
//! [`BandTable`] is one hash table for every band of every row count: a
//! map from band hash to the newest posting of that bucket, chaining
//! backwards through one arena of `(id, next)` nodes. An insert appends one
//! node and touches one map entry; there is no per-bucket allocation.
//!
//! [`LshIndex`]: crate::LshIndex

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the word-at-a-time band hash (2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A second odd multiplier, for the start state and the map hasher.
const MIX2: u64 = 0xD6E8_FEB8_6659_FD93;

/// One bijective mixing step: equal states mixed with different words
/// stay different, so bands that differ in exactly one slot never
/// collide.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MIX).rotate_left(29)
}

/// Hash of band `band` of `r` rows, whose slots are `slots`.
#[inline]
pub(crate) fn band_hash(r: usize, band: usize, slots: &[u64]) -> u64 {
    let mut h = mix(mix(MIX2, r as u64), band as u64);
    for &s in slots {
        h = mix(h, s);
    }
    h
}

/// Seedless hasher for keys that are already band hashes: one multiply
/// spreads the key over both the bucket-index and the tag bits. Being
/// seedless trades flooding resistance for speed: tokens searched for
/// colliding band hashes under a known MinHash seed could slow inserts,
/// never change results.
#[derive(Default)]
struct BandKeyHasher(u64);

impl Hasher for BandKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(MIX2);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// Every band bucket of one index: band hash → newest posting, chained
/// backwards through one arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct BandTable {
    heads: HashMap<u64, u32, BuildHasherDefault<BandKeyHasher>>,
    /// `(id, index of the next older posting in the same bucket or NIL)`.
    arena: Vec<(u32, u32)>,
}

impl BandTable {
    /// An empty table with room for `postings` band postings.
    pub(crate) fn with_capacity(postings: usize) -> BandTable {
        BandTable {
            heads: HashMap::with_capacity_and_hasher(postings, Default::default()),
            arena: Vec::with_capacity(postings),
        }
    }

    /// Post `id` under each of the first `b` bands of `r` rows of `sig`.
    pub(crate) fn insert(&mut self, id: u32, sig: &[u64], b: usize, r: usize) {
        for (band, slots) in sig.chunks_exact(r).take(b).enumerate() {
            assert!(self.arena.len() < NIL as usize, "band table is full");
            let node = self.arena.len() as u32;
            let next = self.heads.insert(band_hash(r, band, slots), node);
            self.arena.push((id, next.unwrap_or(NIL)));
        }
    }

    /// Every id posted under the first `b` bands of `r` rows of `sig`.
    /// An id is yielded once per band it matches in.
    pub(crate) fn probe<'a>(
        &'a self,
        sig: &'a [u64],
        b: usize,
        r: usize,
    ) -> impl Iterator<Item = u32> + 'a {
        sig.chunks_exact(r)
            .take(b)
            .enumerate()
            .flat_map(move |(band, slots)| self.bucket(band_hash(r, band, slots)))
    }

    /// The ids posted under band hash `h`, newest first.
    fn bucket(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let mut node = self.heads.get(&h).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            let (id, next) = *self.arena.get(node as usize)?;
            node = next;
            Some(id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn band_hash_separates_row_count_position_and_slots() {
        let slots = [1u64, 2, 3, 4];
        let h = band_hash(4, 0, &slots);
        assert_eq!(h, band_hash(4, 0, &slots), "deterministic");
        assert_ne!(h, band_hash(4, 1, &slots));
        assert_ne!(h, band_hash(2, 0, &slots));
        assert_ne!(h, band_hash(4, 0, &[1, 2, 3, 5]));
        assert_ne!(band_hash(1, 0, &[0]), band_hash(1, 0, &[u64::MAX]));
    }

    #[test]
    fn single_slot_bands_over_a_tiny_alphabet_do_not_collide() {
        let mut seen = HashSet::new();
        for r in [1usize, 2, 4] {
            for band in 0..64 {
                for v in 0..16u64 {
                    let slots = vec![v; r];
                    assert!(seen.insert(band_hash(r, band, &slots)), "{r} {band} {v}");
                }
            }
        }
    }

    #[test]
    fn buckets_chain_newest_first_and_probe_matching_bands_only() {
        let mut t = BandTable::with_capacity(0);
        let a = [7u64, 8, 9, 10];
        let b = [7u64, 8, 0, 0];
        for r in [1, 2, 4] {
            t.insert(0, &a, 4 / r, r);
            t.insert(1, &b, 4 / r, r);
        }
        assert_eq!(t.arena.len(), 2 * (4 + 2 + 1));
        // r = 2: band 0 is shared, band 1 is not.
        assert_eq!(t.probe(&a, 2, 2).collect::<Vec<_>>(), vec![1, 0, 0]);
        assert_eq!(t.probe(&a, 1, 2).collect::<Vec<_>>(), vec![1, 0]);
        assert_eq!(t.probe(&b, 1, 4).collect::<Vec<_>>(), vec![1]);
        // r = 1: the zero slots match `b` only at the positions it has them.
        assert_eq!(t.probe(&[0, 0, 0, 0], 2, 1).count(), 0);
        assert_eq!(t.probe(&[0, 0, 0, 0], 4, 1).collect::<Vec<_>>(), vec![1, 1]);
    }
}
