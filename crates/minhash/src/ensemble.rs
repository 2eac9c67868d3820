//! The LSH Ensemble containment-search index (Zhu et al., VLDB 2016),
//! incrementally maintainable.
//!
//! Domains (column value sets) are partitioned by set size (equi-depth).
//! Each partition bands every domain at every power-of-two row count
//! `r ≤ num_perm`, all into one arena band table (see `band.rs`). A
//! containment query converts its threshold into a per-partition Jaccard
//! threshold using the partition's upper size bound, picks the
//! (near-)optimal `(b, r)` for that threshold among the materialized `r`
//! values, and probes `b` bands.
//!
//! **Mutation.** The built index supports churn without O(lake) rebuilds:
//! [`LshEnsemble::insert`] stages a new domain into the best-fitting
//! existing partition (stretching its size bound when needed), and
//! [`LshEnsemble::remove`] tombstones a key — dead postings stay in the
//! banding tables but are filtered out of query results. Both operations
//! are `O(changed domain)`. Because staged inserts and stretched bounds
//! slowly degrade the equi-depth layout, the index tracks a *dirtiness*
//! count and re-partitions from its retained `(key, size, signature)`
//! entries once dirtiness exceeds a configurable fraction of the live
//! domain count ([`LshEnsemble::set_rebalance_threshold`]). A rebalance
//! produces exactly the layout a fresh build over the live entries would —
//! the canonical form the incremental-oracle tests pin.
//!
//! The index is generic over the domain **key type** `K` (default
//! `String`): callers that identify domains structurally — e.g. the
//! discovery layer's `(table_idx, col)` pairs — index copyable ids instead
//! of formatted strings.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::band::BandTable;
use crate::hasher::{MinHasher, Signature};
use crate::params::{containment_to_jaccard, optimal_params_restricted};

/// Default fraction of live domains that may be dirty (staged or
/// tombstoned) before a mutation triggers re-partitioning.
pub const DEFAULT_REBALANCE_THRESHOLD: f64 = 0.25;

/// The row counts the ensemble bands at: every power of two `≤ num_perm`.
fn band_rows(num_perm: usize) -> Vec<usize> {
    std::iter::successors(Some(1usize), |r| Some(r * 2))
        .take_while(|&r| r <= num_perm)
        .collect()
}

struct Partition<K> {
    /// Maximum domain size in this partition (the `u` of the containment →
    /// Jaccard conversion).
    upper: usize,
    lower: usize,
    /// Posting id → key. A replaced key holds two ids until the next
    /// rebalance; queries dedupe by key.
    keys: Vec<K>,
    /// Every `(r, band)` bucket of every domain in the partition.
    bands: BandTable,
}

impl<K: Clone + Eq + Hash> Partition<K> {
    /// An empty partition with room for `domains` domains of
    /// `bands_per_domain` band postings each.
    fn with_capacity(
        lower: usize,
        upper: usize,
        domains: usize,
        bands_per_domain: usize,
    ) -> Partition<K> {
        Partition {
            upper,
            lower,
            keys: Vec::with_capacity(domains),
            bands: BandTable::with_capacity(domains * bands_per_domain),
        }
    }

    /// Band one domain. Build, staged insert and rebalance all land here.
    fn insert(&mut self, key: K, sig: &Signature, rs: &[usize]) {
        let id = self.keys.len() as u32;
        self.keys.push(key);
        for &r in rs {
            self.bands.insert(id, &sig.0, sig.len() / r, r);
        }
    }

    fn query(&self, sig: &Signature, b: usize, r: usize, hits: &mut HashSet<K>) {
        hits.extend(
            self.bands
                .probe(&sig.0, b, r)
                .map(|id| self.keys[id as usize].clone()),
        );
    }
}

/// Equi-depth partitioning over borrowed `(key, size, signature)` entries
/// sorted by `(size, key)` — shared by the builder and by incremental
/// rebalances so both produce the identical canonical layout.
fn partition_entries<K: Clone + Eq + Hash>(
    entries: &[(&K, usize, &Signature)],
    num_partitions: usize,
    rs: &[usize],
) -> Vec<Partition<K>> {
    if entries.is_empty() {
        return Vec::new();
    }
    let per = entries.len().div_ceil(num_partitions.max(1));
    let num_perm = entries[0].2.len();
    let bands_per_domain = rs.iter().map(|r| num_perm / r).sum();
    entries
        .chunks(per)
        .map(|chunk| {
            let (lower, upper) = (chunk[0].1, chunk[chunk.len() - 1].1);
            let mut p = Partition::with_capacity(lower, upper, chunk.len(), bands_per_domain);
            for &(key, _, sig) in chunk {
                p.insert(key.clone(), sig, rs);
            }
            p
        })
        .collect()
}

/// Borrow `(key, size, signature)` entries in canonical `(size, key)` order.
fn canonical_order<'a, K: Ord + 'a>(
    entries: impl Iterator<Item = (&'a K, usize, &'a Signature)>,
) -> Vec<(&'a K, usize, &'a Signature)> {
    let mut sorted: Vec<_> = entries.collect();
    sorted.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(b.0)));
    sorted
}

/// Accumulates domains before partitioning. `K` is the domain key type.
pub struct LshEnsembleBuilder<K = String> {
    hasher: MinHasher,
    num_perm: usize,
    entries: Vec<(K, usize, Signature)>,
}

impl<K: Clone + Eq + Hash + Ord> LshEnsembleBuilder<K> {
    /// Builder with `num_perm` hash functions and a deterministic seed.
    pub fn new(num_perm: usize, seed: u64) -> LshEnsembleBuilder<K> {
        LshEnsembleBuilder {
            hasher: MinHasher::new(num_perm, seed),
            num_perm,
            entries: Vec::new(),
        }
    }

    /// The hasher queries must use to be comparable with this index.
    pub fn hasher(&self) -> &MinHasher {
        &self.hasher
    }

    /// Hash and stage a domain under `key`. Its size is the number of
    /// distinct tokens: a repeated token counts once.
    pub fn insert_tokens<'a, I: IntoIterator<Item = &'a str>>(&mut self, key: K, tokens: I) {
        let toks: HashSet<&str> = tokens.into_iter().collect();
        let sig = self.hasher.signature(toks.iter().copied());
        self.entries.push((key, toks.len(), sig));
    }

    /// Stage a pre-computed signature (size = domain cardinality).
    pub fn insert_signature(&mut self, key: K, size: usize, sig: Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        self.entries.push((key, size, sig));
    }

    /// Number of staged domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no domain has been staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Partition (equi-depth by size) and build the banding tables.
    pub fn build(self, num_partitions: usize) -> LshEnsemble<K> {
        let num_partitions = num_partitions.max(1);
        let rs = band_rows(self.num_perm);
        let sorted = canonical_order(self.entries.iter().map(|(k, size, sig)| (k, *size, sig)));
        let partitions = partition_entries(&sorted, num_partitions, &rs);
        LshEnsemble {
            num_perm: self.num_perm,
            allowed_r: rs,
            num_partitions,
            partitions,
            entries: self
                .entries
                .into_iter()
                .map(|(k, size, sig)| (k, (size, sig)))
                .collect(),
            staged: HashSet::new(),
            tombstones: HashSet::new(),
            rebalance_threshold: DEFAULT_REBALANCE_THRESHOLD,
        }
    }
}

/// The built containment index. Query with a signature from the builder's
/// [`MinHasher`], the query set's cardinality, and a containment threshold.
/// Supports incremental [`insert`](LshEnsemble::insert) /
/// [`remove`](LshEnsemble::remove) — see the module docs.
pub struct LshEnsemble<K = String> {
    num_perm: usize,
    allowed_r: Vec<usize>,
    num_partitions: usize,
    partitions: Vec<Partition<K>>,
    /// Live domains: `key → (size, signature)`. Retained so a rebalance can
    /// re-partition without the caller replaying anything.
    entries: HashMap<K, (usize, Signature)>,
    /// Keys inserted since the last (re)build. Their partition placement is
    /// best-effort, so recall-critical callers should verify them exactly —
    /// [`LshEnsemble::staged_keys`] exposes the set.
    staged: HashSet<K>,
    /// Keys removed since the last (re)build whose postings still sit in
    /// the banding tables; filtered out of every query result.
    tombstones: HashSet<K>,
    /// Dirtiness fraction that triggers re-partitioning.
    rebalance_threshold: f64,
}

/// One partition's entry in a query's probe schedule: which partition to
/// probe and the best containment score any of its domains could possibly
/// achieve against a query of the planning size.
///
/// Produced by [`LshEnsemble::probe_plan`]; consumed by budget-aware
/// schedulers (the discovery layer's `TopKPlanner`) that probe partitions
/// best-bound-first and stop early once the running top-k verified score
/// provably beats every unprobed partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionProbe {
    /// Index of the partition, for [`LshEnsemble::query_partition`].
    pub partition: usize,
    /// The partition's upper domain-size bound (its `u`).
    pub upper: usize,
    /// Upper bound on the containment `|Q ∩ X| / |Q|` of any domain `X`
    /// stored in this partition: `min(1, upper / query_size)`. Exact-
    /// verification scores can never exceed it, which is what makes
    /// early termination sound.
    pub max_containment: f64,
}

impl<K: Clone + Eq + Hash + Ord> LshEnsemble<K> {
    /// Candidate keys whose domains likely contain at least `threshold` of
    /// the query set. Candidates are *probabilistic* — callers verify exact
    /// containment against the real token sets (the discovery layer does).
    pub fn query(&self, sig: &Signature, query_size: usize, threshold: f64) -> Vec<K> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits = HashSet::new();
        for idx in 0..self.partitions.len() {
            self.probe_partition_into(idx, sig, query_size, threshold, &mut hits);
        }
        if !self.tombstones.is_empty() {
            hits.retain(|k| !self.tombstones.contains(k));
        }
        let mut out: Vec<K> = hits.into_iter().collect();
        out.sort();
        out
    }

    /// The query-time probe schedule for a query of `query_size` distinct
    /// tokens: every partition with its containment upper bound, ordered
    /// best-bound-first (ties broken by partition index, so the schedule is
    /// deterministic).
    ///
    /// Probing in this order lets a top-k scheduler stop as soon as its
    /// k-th best *verified* score is provably unbeatable by any unprobed
    /// partition — the candidate-cap lever that turns a probe-all scan into
    /// a budgeted search. Probing all scheduled partitions (and filtering
    /// tombstones) is exactly equivalent to [`LshEnsemble::query`].
    pub fn probe_plan(&self, query_size: usize) -> Vec<PartitionProbe> {
        let q = query_size.max(1) as f64;
        let mut plan: Vec<PartitionProbe> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(partition, p)| PartitionProbe {
                partition,
                upper: p.upper,
                max_containment: (p.upper as f64 / q).min(1.0),
            })
            .collect();
        plan.sort_by(|a, b| {
            b.max_containment
                .total_cmp(&a.max_containment)
                .then(a.partition.cmp(&b.partition))
        });
        plan
    }

    /// Probe a single partition (by [`PartitionProbe::partition`] index)
    /// and return its candidate keys, tombstone-filtered and sorted for
    /// determinism. The `(b, r)` banding parameters are chosen exactly as
    /// [`LshEnsemble::query`] chooses them for this partition, so the union
    /// of all partitions' candidates equals the probe-all result.
    pub fn query_partition(
        &self,
        partition: usize,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
    ) -> Vec<K> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits = HashSet::new();
        self.probe_partition_into(partition, sig, query_size, threshold, &mut hits);
        if !self.tombstones.is_empty() {
            hits.retain(|k| !self.tombstones.contains(k));
        }
        let mut out: Vec<K> = hits.into_iter().collect();
        out.sort();
        out
    }

    /// Shared per-partition probe: threshold → per-partition Jaccard via
    /// the partition's upper bound, then the optimal materialized `(b, r)`.
    fn probe_partition_into(
        &self,
        partition: usize,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
        hits: &mut HashSet<K>,
    ) {
        let Some(p) = self.partitions.get(partition) else {
            return;
        };
        let j = containment_to_jaccard(threshold, query_size, p.upper);
        let (b, r) = optimal_params_restricted(j, self.num_perm, &self.allowed_r);
        p.query(sig, b, r, hits);
    }

    /// Insert (or replace) a domain in the live index. The entry lands in
    /// the best-fitting existing partition — stretching that partition's
    /// size bounds when the size falls outside every bound — and is marked
    /// *staged* until the next rebalance. `O(1)` partitions touched.
    pub fn insert(&mut self, key: K, size: usize, sig: Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        if self.entries.contains_key(&key) {
            self.remove(&key);
        }
        self.entries.insert(key.clone(), (size, sig));
        self.staged.insert(key.clone());
        // A re-inserted key must not stay suppressed by its own tombstone.
        // Postings of the *old* version may resurface as candidates until
        // the next rebalance — recall-safe, callers verify exactly.
        self.tombstones.remove(&key);
        if self.partitions.is_empty() {
            self.rebalance();
            return;
        }
        // First partition whose upper bound admits the size, else the last
        // partition stretched upward. Stretching `upper` only lowers that
        // partition's converted Jaccard threshold — recall-safe.
        let idx = self
            .partitions
            .iter()
            .position(|p| size <= p.upper)
            .unwrap_or(self.partitions.len() - 1);
        let p = &mut self.partitions[idx];
        p.upper = p.upper.max(size);
        p.lower = p.lower.min(size);
        let sig = &self.entries[&key].1;
        p.insert(key, sig, &self.allowed_r);
        self.maybe_rebalance();
    }

    /// Tombstone a domain: it disappears from query results immediately;
    /// its banding postings are reclaimed at the next rebalance. Returns
    /// `false` when the key was not live.
    pub fn remove(&mut self, key: &K) -> bool {
        if self.entries.remove(key).is_none() {
            return false;
        }
        // Staged keys flip straight to tombstones too: their postings
        // linger in the banding tables until the next rebalance.
        self.staged.remove(key);
        self.tombstones.insert(key.clone());
        self.maybe_rebalance();
        true
    }

    /// Keys inserted since the last rebalance. Their partition placement is
    /// best-effort; exact-verification layers scan them explicitly so a
    /// freshly added domain can never be an LSH false negative.
    pub fn staged_keys(&self) -> impl Iterator<Item = &K> {
        self.staged.iter()
    }

    /// Staged inserts + tombstones since the last rebalance.
    pub fn dirtiness(&self) -> usize {
        self.staged.len() + self.tombstones.len()
    }

    /// Set the dirtiness fraction (of live domains) above which a mutation
    /// triggers re-partitioning. `0.0` rebalances on every mutation;
    /// `f64::INFINITY` never rebalances automatically.
    pub fn set_rebalance_threshold(&mut self, fraction: f64) {
        assert!(fraction >= 0.0, "rebalance threshold must be non-negative");
        self.rebalance_threshold = fraction;
    }

    fn maybe_rebalance(&mut self) {
        let budget = (self.entries.len() as f64 * self.rebalance_threshold).ceil();
        if self.dirtiness() as f64 > budget {
            self.rebalance();
        }
    }

    /// Re-partition the live entries into the canonical equi-depth layout
    /// (identical to a fresh build over the same entries), clearing all
    /// staged/tombstone state. `O(live domains)`.
    pub fn rebalance(&mut self) {
        // Drop the old tables first: they are dead once we re-band.
        self.partitions = Vec::new();
        let sorted = canonical_order(self.entries.iter().map(|(k, (size, sig))| (k, *size, sig)));
        self.partitions = partition_entries(&sorted, self.num_partitions, &self.allowed_r);
        self.staged.clear();
        self.tombstones.clear();
    }

    /// Number of partitions actually built.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The `(lower, upper)` size bounds of each partition, in order.
    pub fn partition_bounds(&self) -> Vec<(usize, usize)> {
        self.partitions.iter().map(|p| (p.lower, p.upper)).collect()
    }

    /// Total number of live (indexed, not tombstoned) domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the index holds no live domains.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live `(key, size, signature)` entries in canonical `(size, key)`
    /// order — the durable sketch export. Feeding these back through
    /// [`LshEnsembleBuilder::insert_signature`] and building reproduces
    /// this index's canonical layout without recomputing a single MinHash
    /// signature, which is what lets a snapshot warm-start skip the
    /// per-token hashing pass entirely.
    pub fn export_entries(&self) -> Vec<(K, usize, Signature)> {
        canonical_order(self.entries.iter().map(|(k, (size, sig))| (k, *size, sig)))
            .into_iter()
            .map(|(k, size, sig)| (k.clone(), size, sig.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    fn build_demo() -> (LshEnsemble<String>, MinHasher) {
        let mut b = LshEnsembleBuilder::new(256, 17);
        // A larger domain fully containing the query universe.
        let big = toks("q", 0..50)
            .into_iter()
            .chain(toks("extra", 0..150))
            .collect::<Vec<_>>();
        b.insert_tokens("big_superset".to_string(), big.iter().map(String::as_str));
        // A small domain equal to half the query.
        let half = toks("q", 0..25);
        b.insert_tokens("half".to_string(), half.iter().map(String::as_str));
        // Disjoint noise domains of assorted sizes.
        for i in 0..20 {
            let noise = toks(&format!("n{i}_"), 0..(10 + i * 17));
            b.insert_tokens(format!("noise{i}"), noise.iter().map(String::as_str));
        }
        let hasher = b.hasher().clone();
        (b.build(4), hasher)
    }

    /// Pairs decisively above the converted Jaccard threshold must be
    /// recalled. (Pairs *at* the threshold collide with ~50% probability by
    /// construction — the S-curve is centred there — so the test avoids the
    /// borderline regime; exact verification downstream handles it.)
    #[test]
    fn finds_superset_above_threshold() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&sig, q.len(), 0.5);
        assert!(
            hits.iter().any(|h| h == "big_superset"),
            "containment-1.0 domain must be found: {hits:?}"
        );
        assert!(
            !hits.iter().any(|h| h.starts_with("noise")),
            "disjoint noise should not surface: {hits:?}"
        );
    }

    #[test]
    fn exported_sketches_rebuild_the_index_without_hashing() {
        let (index, hasher) = build_demo();
        let exported = index.export_entries();
        assert_eq!(exported.len(), index.len());
        // Canonical (size, key) order, the same order build() sorts into.
        for w in exported.windows(2) {
            assert!((w[0].1, &w[0].0) < (w[1].1, &w[1].0), "unsorted export");
        }
        // Rebuild purely from signatures: zero signature computations…
        let mut b: LshEnsembleBuilder<String> = LshEnsembleBuilder::new(256, 17);
        let warm_hasher = b.hasher().clone();
        for (key, size, sig) in exported {
            b.insert_signature(key, size, sig);
        }
        let rebuilt = b.build(index.partition_count());
        assert_eq!(warm_hasher.signatures_computed(), 0);
        // …and identical layout and query behavior.
        assert_eq!(rebuilt.partition_bounds(), index.partition_bounds());
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let mut a = index.query(&sig, q.len(), 0.5);
        let mut b = rebuilt.query(&sig, q.len(), 0.5);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn lower_threshold_also_finds_partial_container() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&sig, q.len(), 0.3);
        assert!(hits.iter().any(|h| h == "big_superset"));
        assert!(
            hits.iter().any(|h| h == "half"),
            "0.5-containment domain should pass a 0.3 threshold: {hits:?}"
        );
    }

    #[test]
    fn partitions_are_size_ordered() {
        let (index, _) = build_demo();
        let bounds = index.partition_bounds();
        assert_eq!(bounds.len(), index.partition_count());
        for w in bounds.windows(2) {
            assert!(w[0].1 <= w[1].0 || w[0].1 <= w[1].1, "bounds: {bounds:?}");
        }
        for (lo, hi) in bounds {
            assert!(lo <= hi);
        }
    }

    #[test]
    fn empty_index_queries_cleanly() {
        let b = LshEnsembleBuilder::<String>::new(64, 1);
        let hasher = b.hasher().clone();
        let index = b.build(4);
        assert!(index.is_empty());
        let sig = hasher.signature(["x"]);
        assert!(index.query(&sig, 1, 0.5).is_empty());
    }

    #[test]
    fn builder_len_tracks_inserts() {
        let mut b = LshEnsembleBuilder::new(64, 1);
        assert!(b.is_empty());
        b.insert_tokens("a", ["1", "2"]);
        b.insert_signature("b", 3, MinHasher::new(64, 1).signature(["x", "y", "z"]));
        assert_eq!(b.len(), 2);
        let index = b.build(8);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn insert_tokens_sizes_a_domain_by_its_distinct_tokens() {
        let mut b = LshEnsembleBuilder::new(64, 1);
        b.insert_tokens("dup", ["x", "x", "y"]);
        b.insert_tokens("set", ["y", "x"]);
        let exported = b.build(1).export_entries();
        let sizes: Vec<(&str, usize)> = exported.iter().map(|(k, n, _)| (*k, *n)).collect();
        assert_eq!(sizes, vec![("dup", 2), ("set", 2)]);
        assert_eq!(
            exported[0].2, exported[1].2,
            "duplicates do not move the signature"
        );
    }

    #[test]
    fn results_are_deterministic() {
        let (i1, h1) = build_demo();
        let (i2, _) = build_demo();
        let q = toks("q", 0..50);
        let sig = h1.signature(q.iter().map(String::as_str));
        assert_eq!(i1.query(&sig, 50, 0.5), i2.query(&sig, 50, 0.5));
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn mismatched_query_signature_panics() {
        let (index, _) = build_demo();
        index.query(&Signature(vec![0; 32]), 10, 0.5);
    }

    #[test]
    fn removed_key_disappears_from_queries_immediately() {
        let (mut index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        assert!(index
            .query(&sig, q.len(), 0.5)
            .iter()
            .any(|h| h == "big_superset"));
        let n = index.len();
        assert!(index.remove(&"big_superset".to_string()));
        assert!(!index.remove(&"big_superset".to_string()), "already gone");
        assert_eq!(index.len(), n - 1);
        assert!(
            !index
                .query(&sig, q.len(), 0.5)
                .iter()
                .any(|h| h == "big_superset"),
            "tombstoned key must not surface"
        );
    }

    #[test]
    fn inserted_key_is_queryable_without_rebuild() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY); // isolate the staged path
        let fresh = toks("q", 0..50)
            .into_iter()
            .chain(toks("new", 0..80))
            .collect::<Vec<_>>();
        let sig = hasher.signature(fresh.iter().map(String::as_str));
        index.insert("fresh_superset".to_string(), fresh.len(), sig);
        assert!(index.staged_keys().any(|k| k == "fresh_superset"));
        assert_eq!(index.dirtiness(), 1);

        let q = toks("q", 0..50);
        let qsig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&qsig, q.len(), 0.5);
        assert!(
            hits.iter().any(|h| h == "fresh_superset"),
            "staged superset must be found: {hits:?}"
        );
    }

    #[test]
    fn rebalance_restores_canonical_layout_and_clears_dirtiness() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        // Churn: drop two noise domains, add one new one.
        index.remove(&"noise0".to_string());
        index.remove(&"noise1".to_string());
        let newd = toks("nd", 0..40);
        index.insert(
            "newdom".to_string(),
            newd.len(),
            hasher.signature(newd.iter().map(String::as_str)),
        );
        assert_eq!(index.dirtiness(), 3);
        index.rebalance();
        assert_eq!(index.dirtiness(), 0);

        // Canonical form: identical to a fresh build over the same domains.
        let mut b = LshEnsembleBuilder::new(256, 17);
        let big = toks("q", 0..50)
            .into_iter()
            .chain(toks("extra", 0..150))
            .collect::<Vec<_>>();
        b.insert_tokens("big_superset".to_string(), big.iter().map(String::as_str));
        let half = toks("q", 0..25);
        b.insert_tokens("half".to_string(), half.iter().map(String::as_str));
        for i in 2..20 {
            let noise = toks(&format!("n{i}_"), 0..(10 + i * 17));
            b.insert_tokens(format!("noise{i}"), noise.iter().map(String::as_str));
        }
        b.insert_tokens("newdom".to_string(), newd.iter().map(String::as_str));
        let fresh = b.build(4);
        assert_eq!(index.partition_bounds(), fresh.partition_bounds());
        let q = toks("q", 0..50);
        let qsig = hasher.signature(q.iter().map(String::as_str));
        assert_eq!(
            index.query(&qsig, q.len(), 0.4),
            fresh.query(&qsig, q.len(), 0.4),
            "rebalanced index must answer like a fresh build"
        );
    }

    #[test]
    fn dirtiness_threshold_triggers_automatic_rebalance() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(0.1); // 22 domains → budget ⌈2.2⌉ = 3
        for i in 0..3 {
            let d = toks(&format!("auto{i}_"), 0..30);
            index.insert(
                format!("auto{i}"),
                d.len(),
                hasher.signature(d.iter().map(String::as_str)),
            );
        }
        assert!(
            index.dirtiness() <= 3,
            "4th dirty op must have rebalanced, dirtiness {}",
            index.dirtiness()
        );
    }

    #[test]
    fn replacing_a_key_keeps_one_live_copy() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        let n = index.len();
        let d = toks("q", 0..50);
        index.insert(
            "half".to_string(),
            d.len(),
            hasher.signature(d.iter().map(String::as_str)),
        );
        assert_eq!(index.len(), n, "replace keeps the live count");
        let q = toks("q", 0..50);
        let qsig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&qsig, q.len(), 0.9);
        assert!(
            hits.iter().filter(|h| *h == "half").count() <= 1,
            "stale copy must not resurface: {hits:?}"
        );
        assert!(
            hits.iter().any(|h| h == "half"),
            "the replacement (now a full superset) should be found: {hits:?}"
        );
    }

    #[test]
    fn probe_plan_covers_every_partition_best_bound_first() {
        let (index, _) = build_demo();
        let plan = index.probe_plan(50);
        assert_eq!(plan.len(), index.partition_count());
        // Every partition appears exactly once.
        let mut seen: Vec<usize> = plan.iter().map(|p| p.partition).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..index.partition_count()).collect::<Vec<_>>());
        // Bounds are descending and consistent with min(1, upper/q).
        for w in plan.windows(2) {
            assert!(w[0].max_containment >= w[1].max_containment, "{plan:?}");
        }
        for p in &plan {
            let expect = (p.upper as f64 / 50.0).min(1.0);
            assert!((p.max_containment - expect).abs() < 1e-12, "{p:?}");
        }
    }

    #[test]
    fn partitionwise_probing_equals_probe_all_query() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        // Add churn so tombstone filtering is exercised on both paths.
        index.remove(&"noise3".to_string());
        let fresh = toks("q", 0..50)
            .into_iter()
            .chain(toks("fp", 0..90))
            .collect::<Vec<_>>();
        index.insert(
            "churned".to_string(),
            fresh.len(),
            hasher.signature(fresh.iter().map(String::as_str)),
        );
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        for threshold in [0.3, 0.5, 0.8] {
            let mut union: Vec<String> = index
                .probe_plan(q.len())
                .iter()
                .flat_map(|p| index.query_partition(p.partition, &sig, q.len(), threshold))
                .collect();
            union.sort();
            union.dedup();
            assert_eq!(
                union,
                index.query(&sig, q.len(), threshold),
                "partitionwise union diverged at threshold {threshold}"
            );
        }
    }

    #[test]
    fn query_partition_out_of_range_is_empty() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..10);
        let sig = hasher.signature(q.iter().map(String::as_str));
        assert!(index.query_partition(999, &sig, q.len(), 0.5).is_empty());
    }

    #[test]
    fn insert_into_empty_index_bootstraps_a_partition() {
        let b = LshEnsembleBuilder::<String>::new(64, 5);
        let hasher = b.hasher().clone();
        let mut index = b.build(4);
        let d = toks("x", 0..20);
        index.insert(
            "only".to_string(),
            d.len(),
            hasher.signature(d.iter().map(String::as_str)),
        );
        assert_eq!(index.len(), 1);
        let qsig = hasher.signature(d.iter().map(String::as_str));
        assert_eq!(index.query(&qsig, d.len(), 0.5), vec!["only".to_string()]);
    }
}
