//! Property-based tests: MinHash estimation quality, LSH recall for
//! guaranteed-identical signatures, and an independent banding oracle for
//! the LSH Ensemble's candidate sets.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use dialite_minhash::{
    containment_to_jaccard, optimal_params_restricted, LshEnsembleBuilder, LshIndex, MinHasher,
    Signature,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With 256 permutations the standard error is ~1/√256 ≈ 0.0625; allow
    /// a generous 5σ band so the test is solid while still meaningful.
    #[test]
    fn estimate_within_5_sigma(
        a in prop::collection::hash_set(0u32..500, 10..80),
        b in prop::collection::hash_set(0u32..500, 10..80),
    ) {
        let hasher = MinHasher::new(256, 11);
        let ta: Vec<String> = a.iter().map(|i| format!("t{i}")).collect();
        let tb: Vec<String> = b.iter().map(|i| format!("t{i}")).collect();
        let sa = hasher.signature(ta.iter().map(String::as_str));
        let sb = hasher.signature(tb.iter().map(String::as_str));
        let inter = a.intersection(&b).count();
        let union = a.len() + b.len() - inter;
        let truth = inter as f64 / union as f64;
        let est = sa.estimate_jaccard(&sb);
        prop_assert!((est - truth).abs() < 5.0 * 0.0625, "est {est} vs truth {truth}");
    }

    #[test]
    fn signature_is_permutation_invariant(items in prop::collection::vec("[a-z]{1,8}", 1..40)) {
        let hasher = MinHasher::new(64, 5);
        let fwd = hasher.signature(items.iter().map(String::as_str));
        let mut rev = items.clone();
        rev.reverse();
        let bwd = hasher.signature(rev.iter().map(String::as_str));
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn lsh_always_finds_exact_duplicate(
        items in prop::collection::hash_set("[a-z0-9]{1,8}", 1..40),
        threshold in 0.1f64..0.95,
    ) {
        let hasher = MinHasher::new(64, 21);
        let mut index = LshIndex::new(threshold, 64);
        let v: Vec<&str> = items.iter().map(String::as_str).collect();
        let sig = hasher.signature(v.iter().copied());
        index.insert("dup", &sig);
        let hits = index.query(&sig);
        prop_assert!(hits.contains(&"dup".to_string()));
    }

    #[test]
    fn ensemble_always_finds_identical_domain(
        items in prop::collection::hash_set("[a-z0-9]{1,8}", 2..40),
        parts in 1usize..6,
    ) {
        let mut b = LshEnsembleBuilder::new(64, 3);
        let v: Vec<&str> = items.iter().map(String::as_str).collect();
        b.insert_tokens("self", v.iter().copied());
        // noise
        b.insert_tokens("noise", ["zzzz1", "zzzz2", "zzzz3"]);
        let hasher = b.hasher().clone();
        let index = b.build(parts);
        let sig = hasher.signature(v.iter().copied());
        let hits = index.query(&sig, items.len(), 0.9);
        prop_assert!(hits.contains(&"self"), "hits: {hits:?}");
    }

    #[test]
    fn ensemble_candidates_subset_of_indexed_keys(
        domains in prop::collection::vec(
            prop::collection::hash_set("[a-z]{1,6}", 1..20), 1..10),
    ) {
        let mut b = LshEnsembleBuilder::new(64, 9);
        let mut keys = HashSet::new();
        for (i, d) in domains.iter().enumerate() {
            let key = format!("d{i}");
            keys.insert(key.clone());
            b.insert_tokens(key, d.iter().map(String::as_str));
        }
        let hasher = b.hasher().clone();
        let index = b.build(3);
        let q: Vec<&str> = domains[0].iter().map(String::as_str).collect();
        let sig = hasher.signature(q.iter().copied());
        for hit in index.query(&sig, q.len(), 0.5) {
            prop_assert!(keys.contains(&hit));
        }
    }
}

// ---------------------------------------------------------------------------
// Banding oracle: the ensemble's candidate sets against an independent model
// that matches bands by slice equality. Signatures come from a three-value
// alphabet, so bands of every row count `r` collide between domains and the
// oracle exercises real bucket sharing, not just self-matches.
// ---------------------------------------------------------------------------

const ORACLE_PERM: usize = 16;

/// Slot alphabet: two small values plus the maximum, so hashing sees the
/// all-ones word too.
const ALPHABET: [u64; 3] = [0, 1, u64::MAX];

fn low_entropy_sig(picks: &[usize]) -> Signature {
    Signature(picks.iter().map(|&p| ALPHABET[p]).collect())
}

fn sig_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..3, ORACLE_PERM)
}

/// The row counts the ensemble materializes: powers of two up to `num_perm`.
fn allowed_r() -> Vec<usize> {
    std::iter::successors(Some(1usize), |r| Some(r * 2))
        .take_while(|&r| r <= ORACLE_PERM)
        .collect()
}

/// A query signature: a copy of an indexed signature (picked by `pick`)
/// with a few slots overwritten, so long bands match too; or a fresh
/// random one when nothing is indexed.
fn query_sig(
    pool: &[Signature],
    pick: usize,
    edits: &[(usize, usize)],
    fresh: &[usize],
) -> Signature {
    let mut sig = if pool.is_empty() {
        low_entropy_sig(fresh)
    } else {
        pool[pick % pool.len()].clone()
    };
    for &(pos, val) in edits {
        sig.0[pos % ORACLE_PERM] = ALPHABET[val];
    }
    sig
}

/// Keys of `postings` that share at least one of the first `b` bands of
/// `r` rows with `query`, compared slot by slot.
fn band_matches(
    postings: &[(u32, Signature)],
    query: &Signature,
    query_size: usize,
    threshold: f64,
    upper: usize,
) -> HashSet<u32> {
    let j = containment_to_jaccard(threshold, query_size, upper);
    let (b, r) = optimal_params_restricted(j, ORACLE_PERM, &allowed_r());
    postings
        .iter()
        .filter(|(_, sig)| {
            (0..b).any(|band| {
                let lo = band * r;
                sig.0[lo..lo + r] == query.0[lo..lo + r]
            })
        })
        .map(|(k, _)| *k)
        .collect()
}

/// The model's one partition: its size bounds and every posting banded
/// into it since the last rebalance.
struct ModelPartition {
    lower: usize,
    upper: usize,
    postings: Vec<(u32, Signature)>,
}

/// Model of a one-partition ensemble that never rebalances on its own.
#[derive(Default)]
struct OnePartitionModel {
    live: BTreeMap<u32, (usize, Signature)>,
    /// `None` while the ensemble has no partition.
    partition: Option<ModelPartition>,
    tombstones: HashSet<u32>,
}

impl OnePartitionModel {
    fn rebalance(&mut self) {
        self.tombstones.clear();
        self.partition = if self.live.is_empty() {
            None
        } else {
            let sizes = self.live.values().map(|(s, _)| *s);
            let lower = sizes.clone().min().unwrap();
            let upper = sizes.max().unwrap();
            let postings = self
                .live
                .iter()
                .map(|(k, (_, sig))| (*k, sig.clone()))
                .collect();
            Some(ModelPartition {
                lower,
                upper,
                postings,
            })
        };
    }

    fn insert(&mut self, key: u32, size: usize, sig: Signature) {
        self.live.insert(key, (size, sig.clone()));
        // A replacement tombstones and revives the key in one step; the old
        // postings stay in the bucket chains until the next rebalance.
        self.tombstones.remove(&key);
        match &mut self.partition {
            None => self.rebalance(),
            Some(p) => {
                p.lower = p.lower.min(size);
                p.upper = p.upper.max(size);
                p.postings.push((key, sig));
            }
        }
    }

    fn remove(&mut self, key: u32) -> bool {
        let live = self.live.remove(&key).is_some();
        if live {
            self.tombstones.insert(key);
        }
        live
    }

    fn query(&self, sig: &Signature, query_size: usize, threshold: f64) -> Vec<u32> {
        let Some(p) = &self.partition else {
            return Vec::new();
        };
        let mut out: Vec<u32> = band_matches(&p.postings, sig, query_size, threshold, p.upper)
            .into_iter()
            .filter(|k| !self.tombstones.contains(k))
            .collect();
        out.sort_unstable();
        out
    }

    fn bounds(&self) -> Vec<(usize, usize)> {
        self.partition.iter().map(|p| (p.lower, p.upper)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert, replace, remove and rebalance on a one-partition ensemble:
    /// every query's candidates equal the slice-equality model, with a
    /// replaced key's old postings still matching until a rebalance.
    #[test]
    fn one_partition_churn_matches_banding_model(
        initial in prop::collection::vec((1usize..40, sig_strategy()), 0..8),
        ops in prop::collection::vec(
            (
                0u8..8,
                0u32..12,
                1usize..40,
                sig_strategy(),
                (0usize..64, prop::collection::vec((0usize..64, 0usize..3), 0..3)),
                1usize..60,
                0.05f64..1.0,
            ),
            1..40,
        ),
    ) {
        let mut builder = LshEnsembleBuilder::<u32>::new(ORACLE_PERM, 1);
        let mut model = OnePartitionModel::default();
        for (key, (size, picks)) in initial.iter().enumerate() {
            let sig = low_entropy_sig(picks);
            builder.insert_signature(key as u32, *size, sig.clone());
            model.live.insert(key as u32, (*size, sig));
        }
        model.rebalance();
        let mut index = builder.build(1);
        index.set_rebalance_threshold(f64::INFINITY);

        for (kind, key, size, picks, (pick, edits), query_size, threshold) in ops {
            let sig = low_entropy_sig(&picks);
            match kind {
                0..=3 => {
                    index.insert(key, size, sig.clone());
                    model.insert(key, size, sig.clone());
                }
                4..=5 => {
                    prop_assert_eq!(index.remove(&key), model.remove(key));
                }
                6 => {
                    index.rebalance();
                    model.rebalance();
                }
                _ => {}
            }
            prop_assert_eq!(index.partition_bounds(), model.bounds());
            let pool: Vec<Signature> = model
                .partition
                .iter()
                .flat_map(|p| p.postings.iter().map(|(_, s)| s.clone()))
                .collect();
            let q = query_sig(&pool, pick, &edits, &picks);
            let expect = model.query(&q, query_size, threshold);
            prop_assert_eq!(index.query(&q, query_size, threshold), expect.clone());
            prop_assert_eq!(index.query_partition(0, &q, query_size, threshold), expect);
        }
    }

    /// A fresh multi-partition build: canonical `(size, key)` chunking, and
    /// per-partition candidates equal to the slice-equality model at each
    /// partition's own upper bound.
    #[test]
    fn fresh_build_matches_banding_model(
        domains in prop::collection::vec((1usize..40, sig_strategy()), 1..30),
        parts in 1usize..7,
        queries in prop::collection::vec(
            (
                (0usize..64, prop::collection::vec((0usize..64, 0usize..3), 0..3)),
                sig_strategy(),
                1usize..60,
                0.05f64..1.0,
            ),
            1..6,
        ),
    ) {
        let mut builder = LshEnsembleBuilder::<u32>::new(ORACLE_PERM, 1);
        let mut entries: Vec<(u32, usize, Signature)> = Vec::new();
        for (key, (size, picks)) in domains.iter().enumerate() {
            let sig = low_entropy_sig(picks);
            builder.insert_signature(key as u32, *size, sig.clone());
            entries.push((key as u32, *size, sig));
        }
        let index = builder.build(parts);

        entries.sort_by_key(|(k, size, _)| (*size, *k));
        let per = entries.len().div_ceil(parts);
        let chunks: Vec<&[(u32, usize, Signature)]> = entries.chunks(per).collect();
        let bounds: Vec<(usize, usize)> = chunks
            .iter()
            .map(|c| (c[0].1, c[c.len() - 1].1))
            .collect();
        prop_assert_eq!(index.partition_bounds(), bounds.clone());

        let pool: Vec<Signature> = entries.iter().map(|(_, _, s)| s.clone()).collect();
        for ((pick, edits), fresh, query_size, threshold) in queries {
            let q = query_sig(&pool, pick, &edits, &fresh);
            let mut union = BTreeSet::new();
            for (p, chunk) in chunks.iter().enumerate() {
                let postings: Vec<(u32, Signature)> =
                    chunk.iter().map(|(k, _, s)| (*k, s.clone())).collect();
                let mut expect: Vec<u32> =
                    band_matches(&postings, &q, query_size, threshold, bounds[p].1)
                        .into_iter()
                        .collect();
                expect.sort_unstable();
                union.extend(expect.iter().copied());
                prop_assert_eq!(index.query_partition(p, &q, query_size, threshold), expect);
            }
            prop_assert_eq!(
                index.query(&q, query_size, threshold),
                union.into_iter().collect::<Vec<_>>()
            );
        }
    }
}
