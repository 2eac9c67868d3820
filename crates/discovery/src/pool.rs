//! A shared string pool: dense `u32` ids for overlap tokens, and the
//! [`TokenIndex`] every discovery leg keeps its token sets in.
//!
//! Discovery engines compare *sets of tokens*. Storing each column's domain
//! as `HashSet<String>` re-hashes the same strings for every (query,
//! candidate) pair; interning tokens once at index-build time turns the
//! exact-containment verification into `u32` set probes — the same
//! dictionary-encoding move the integrate crate applies to cell values.
//!
//! Under lake churn the pool would grow without bound: tokens of removed
//! tables stay interned (dead dictionary weight). [`StringPool::compact`]
//! supports generation-based compaction — keep only the ids a caller
//! proves live, reassign dense ids, and hand back the old→new remap so
//! callers can rewrite their stored id sets. `TokenIndex` is that caller,
//! once for all three legs.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Interns strings to dense `u32` ids. Ids are assigned in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct StringPool {
    ids: HashMap<String, u32>,
    /// Reverse map, `id as usize → string`; always the same length as
    /// `ids`. Needed so compaction can re-intern survivors without the
    /// caller retaining any strings.
    strings: Vec<String>,
}

/// Sentinel in the remap returned by [`StringPool::compact`]: the old id
/// was dropped (its token was dead).
pub const POOL_ID_DROPPED: u32 = u32::MAX;

impl StringPool {
    /// An empty pool.
    pub fn new() -> StringPool {
        StringPool::default()
    }

    /// Intern `s`, assigning a fresh id the first time it is seen.
    pub fn intern(&mut self, s: &str) -> u32 {
        match self.ids.get(s) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.ids.len()).expect("pool id space");
                self.ids.insert(s.to_string(), id);
                self.strings.push(s.to_string());
                id
            }
        }
    }

    /// Id of an already-interned string, if any. A miss means the token
    /// occurs nowhere in the indexed corpus.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// The string behind an id, if the id was ever assigned.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Drop every id not in `live` and reassign the survivors dense ids
    /// (ascending old-id order, so relative order is stable). Returns the
    /// old→new remap, indexed by old id; dropped ids map to
    /// [`POOL_ID_DROPPED`]. Callers must rewrite every stored id through
    /// the remap — ids from before the compaction are otherwise dangling.
    pub fn compact(&mut self, live: &HashSet<u32>) -> Vec<u32> {
        let mut remap = vec![POOL_ID_DROPPED; self.strings.len()];
        let mut strings = Vec::with_capacity(live.len());
        let mut ids = HashMap::with_capacity(live.len());
        for (old, s) in std::mem::take(&mut self.strings).into_iter().enumerate() {
            if live.contains(&(old as u32)) {
                let new = strings.len() as u32;
                remap[old] = new;
                ids.insert(s.clone(), new);
                strings.push(s);
            }
        }
        self.ids = ids;
        self.strings = strings;
        remap
    }
}

/// Floor on the retired-token weight before a removal may compact a
/// [`TokenIndex`]; keeps tiny lakes from compacting on every remove. The
/// SANTOS and metadata legs use it as is; the joinable leg's
/// `LshEnsembleConfig::pool_compact_min` defaults to it.
pub(crate) const POOL_COMPACT_MIN: usize = 1024;

/// One leg's interned token sets and their inverted index: each key
/// (a column domain, or a table slot) maps to the ids of its distinct
/// tokens, and each id to the keys whose sets contain it. Insert and
/// remove keep the two exact inverses of each other.
///
/// Removal retires a key's postings and adds its set size to the retired
/// weight. Once that overtakes both the live weight (Σ set sizes) and the
/// floor, the same call compacts: the pool drops every id no live set
/// holds, and every set and posting is rewritten through the remap. So
/// every mutation ends with `retired <= max(live, floor)`, which bounds the
/// pool at about twice the live weight however long churn runs.
pub(crate) struct TokenIndex<K> {
    pool: StringPool,
    sets: HashMap<K, HashSet<u32>>,
    postings: HashMap<u32, Vec<K>>,
    live_weight: usize,
    retired_weight: usize,
    generation: u64,
    compact_min: usize,
}

impl<K: Copy + Eq + Hash> TokenIndex<K> {
    /// An empty index that compacts only once the retired weight also
    /// exceeds `compact_min`.
    pub(crate) fn new(compact_min: usize) -> TokenIndex<K> {
        TokenIndex {
            pool: StringPool::new(),
            sets: HashMap::new(),
            postings: HashMap::new(),
            live_weight: 0,
            retired_weight: 0,
            generation: 0,
            compact_min,
        }
    }

    /// Index `key` under the distinct `tokens`, interning new ones. A key
    /// already present is removed first, exactly as [`TokenIndex::remove`]
    /// would.
    pub(crate) fn insert<'t>(&mut self, key: K, tokens: impl IntoIterator<Item = &'t str>) {
        if self.sets.contains_key(&key) {
            self.remove([key]);
        }
        let ids: HashSet<u32> = tokens.into_iter().map(|t| self.pool.intern(t)).collect();
        for &id in &ids {
            self.postings.entry(id).or_default().push(key);
        }
        self.live_weight += ids.len();
        self.sets.insert(key, ids);
    }

    /// Retire every listed key that is indexed, then compact once if the
    /// retired weight has overtaken `max(live, floor)`.
    /// `O(their postings)`, plus `O(pool + live weight)` when compacting.
    pub(crate) fn remove(&mut self, keys: impl IntoIterator<Item = K>) {
        for key in keys {
            let Some(ids) = self.sets.remove(&key) else {
                continue;
            };
            for id in &ids {
                if let Some(list) = self.postings.get_mut(id) {
                    if let Some(pos) = list.iter().position(|k| *k == key) {
                        list.swap_remove(pos);
                    }
                    if list.is_empty() {
                        self.postings.remove(id);
                    }
                }
            }
            self.live_weight -= ids.len();
            self.retired_weight += ids.len();
        }
        if self.retired_weight > self.live_weight.max(self.compact_min) {
            self.compact();
        }
    }

    /// Drop every id no live set holds (exactly the ids without postings
    /// entries), re-densify, and rewrite sets and postings through the
    /// remap.
    fn compact(&mut self) {
        let live: HashSet<u32> = self.postings.keys().copied().collect();
        let remap = self.pool.compact(&live);
        for ids in self.sets.values_mut() {
            *ids = ids
                .iter()
                .map(|&id| remap[id as usize])
                .inspect(|&id| debug_assert_ne!(id, POOL_ID_DROPPED, "live id dropped"))
                .collect();
        }
        self.postings = std::mem::take(&mut self.postings)
            .into_iter()
            .map(|(id, list)| (remap[id as usize], list))
            .collect();
        self.retired_weight = 0;
        self.generation += 1;
    }

    /// The id of an indexed token. Query tokens resolve here and are never
    /// interned: a miss means no key holds the token.
    pub(crate) fn token_id(&self, token: &str) -> Option<u32> {
        self.pool.get(token)
    }

    /// The token-id set of an indexed key.
    pub(crate) fn ids(&self, key: &K) -> Option<&HashSet<u32>> {
        self.sets.get(key)
    }

    /// Every indexed key, in no particular order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.sets.keys().copied()
    }

    /// Number of indexed keys.
    pub(crate) fn len(&self) -> usize {
        self.sets.len()
    }

    /// The keys whose sets contain `id`, if any do.
    pub(crate) fn posting(&self, id: u32) -> Option<&[K]> {
        self.postings.get(&id).map(Vec::as_slice)
    }

    /// `|q ∩ set|` for every key sharing at least one of the distinct ids
    /// `q_ids`.
    pub(crate) fn overlap<'q>(
        &self,
        q_ids: impl IntoIterator<Item = &'q u32>,
    ) -> HashMap<K, usize> {
        let mut overlap = HashMap::new();
        for &id in q_ids {
            for &key in self.posting(id).unwrap_or_default() {
                *overlap.entry(key).or_insert(0) += 1;
            }
        }
        overlap
    }

    /// Distinct tokens interned, live plus not-yet-compacted dead ones.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Distinct tokens with at least one posting.
    pub(crate) fn posted_tokens(&self) -> usize {
        self.postings.len()
    }

    /// Total posting entries; always the live weight.
    pub(crate) fn posting_entries(&self) -> usize {
        self.postings.values().map(Vec::len).sum()
    }

    /// How many times the pool has been compacted.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut p = StringPool::new();
        let a = p.intern("berlin");
        let b = p.intern("boston");
        assert_eq!(p.intern("berlin"), a);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn get_does_not_insert() {
        let mut p = StringPool::new();
        assert_eq!(p.get("x"), None);
        assert!(p.is_empty());
        let id = p.intern("x");
        assert_eq!(p.get("x"), Some(id));
    }

    #[test]
    fn resolve_round_trips() {
        let mut p = StringPool::new();
        let a = p.intern("alpha");
        let b = p.intern("beta");
        assert_eq!(p.resolve(a), Some("alpha"));
        assert_eq!(p.resolve(b), Some("beta"));
        assert_eq!(p.resolve(99), None);
    }

    #[test]
    fn compact_drops_dead_ids_and_remaps_survivors() {
        let mut p = StringPool::new();
        let a = p.intern("keep_a");
        let dead = p.intern("drop_me");
        let b = p.intern("keep_b");
        let live: HashSet<u32> = [a, b].into_iter().collect();
        let remap = p.compact(&live);
        assert_eq!(p.len(), 2);
        assert_eq!(remap[dead as usize], POOL_ID_DROPPED);
        let (na, nb) = (remap[a as usize], remap[b as usize]);
        assert_ne!(na, POOL_ID_DROPPED);
        assert_ne!(nb, POOL_ID_DROPPED);
        // Survivors keep their relative order, ids re-densify from 0.
        assert_eq!((na, nb), (0, 1));
        assert_eq!(p.resolve(na), Some("keep_a"));
        assert_eq!(p.resolve(nb), Some("keep_b"));
        assert_eq!(p.get("drop_me"), None);
        // Re-interning a dropped token assigns a fresh dense id.
        assert_eq!(p.intern("drop_me"), 2);
    }

    #[test]
    fn compact_with_everything_live_is_identity() {
        let mut p = StringPool::new();
        let ids: Vec<u32> = ["x", "y", "z"].iter().map(|s| p.intern(s)).collect();
        let live: HashSet<u32> = ids.iter().copied().collect();
        let remap = p.compact(&live);
        for id in ids {
            assert_eq!(remap[id as usize], id);
        }
        assert_eq!(p.len(), 3);
    }

    /// Insert `tokens` under `key` in the index and in the model.
    fn insert(
        index: &mut TokenIndex<u8>,
        model: &mut HashMap<u8, HashSet<String>>,
        key: u8,
        tokens: &[&str],
    ) {
        index.insert(key, tokens.iter().copied());
        model.insert(key, tokens.iter().map(|t| t.to_string()).collect());
    }

    /// Every invariant of a [`TokenIndex`] against the naive model.
    fn check(index: &TokenIndex<u8>, model: &HashMap<u8, HashSet<String>>) {
        let mut keys: Vec<u8> = index.keys().collect();
        keys.sort_unstable();
        let mut want: Vec<u8> = model.keys().copied().collect();
        want.sort_unstable();
        assert_eq!(keys, want, "indexed keys");
        let mut inverse: HashMap<u32, HashSet<u8>> = HashMap::new();
        for (key, tokens) in model {
            let ids = index.ids(key).expect("live key");
            let resolved: HashSet<String> = ids
                .iter()
                .map(|&id| index.pool.resolve(id).expect("live id").to_string())
                .collect();
            assert_eq!(&resolved, tokens, "key {key} resolves to its tokens");
            for &id in ids {
                inverse.entry(id).or_default().insert(*key);
            }
        }
        let postings: HashMap<u32, HashSet<u8>> = index
            .postings
            .iter()
            .map(|(&id, list)| {
                let set: HashSet<u8> = list.iter().copied().collect();
                assert_eq!(set.len(), list.len(), "duplicate posting for id {id}");
                (id, set)
            })
            .collect();
        assert_eq!(postings, inverse, "postings invert the sets");
        let live: usize = model.values().map(HashSet::len).sum();
        assert_eq!(index.live_weight, live);
        assert_eq!(index.posting_entries(), live);
        assert!(
            index.pool_len() <= (2 * live).max(1),
            "pool {} over twice the live weight {live}",
            index.pool_len()
        );
    }

    proptest! {
        /// Random insert, replace and remove sequences over a few keys at
        /// floor 0 agree with a naive key → token-set map after every
        /// operation, and keep the pool within twice the live weight.
        #[test]
        fn token_index_matches_a_naive_model(
            ops in prop::collection::vec(
                (0u8..4, prop::collection::vec("[a-h]{1,2}", 0..7), any::<bool>()),
                1..40,
            )
        ) {
            let mut index = TokenIndex::new(0);
            let mut model = HashMap::new();
            for (key, tokens, remove) in ops {
                if remove {
                    index.remove([key]);
                    model.remove(&key);
                } else {
                    let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
                    insert(&mut index, &mut model, key, &tokens);
                }
                check(&index, &model);
            }
        }
    }

    #[test]
    fn removal_compacts_once_retired_weight_overtakes_live() {
        let mut index = TokenIndex::new(0);
        let mut model = HashMap::new();
        insert(&mut index, &mut model, 0, &["stay1", "stay2"]);
        insert(&mut index, &mut model, 1, &["stay1", "dead1", "dead2"]);
        // Replacing key 1 retires 3 against 2 live: compaction fires
        // before the new tokens are interned.
        insert(&mut index, &mut model, 1, &["fresh"]);
        assert_eq!(index.generation(), 1);
        assert_eq!(index.pool_len(), 3, "stay1, stay2 and fresh survive");
        assert_eq!(index.token_id("dead1"), None);
        check(&index, &model);

        index.remove([1, 7]);
        model.remove(&1);
        assert_eq!(index.generation(), 1, "1 retired vs 2 live: no compaction");
        index.remove([0]);
        model.remove(&0);
        assert_eq!(index.generation(), 2);
        assert_eq!(index.pool_len(), 0);
        check(&index, &model);
    }

    #[test]
    fn the_floor_defers_compaction() {
        let mut index = TokenIndex::new(POOL_COMPACT_MIN);
        index.insert(0u8, ["a", "b", "c"]);
        index.remove([0]);
        assert_eq!(index.generation(), 0);
        assert_eq!(index.pool_len(), 3, "dead tokens wait for the floor");
        assert_eq!(index.posted_tokens(), 0);
    }
}
