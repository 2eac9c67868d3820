//! MinHash signatures over string token sets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dialite_text::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime 2^61 − 1, the modulus of the universal hash family.
const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// A seeded family of `num_perm` universal hash functions producing MinHash
/// signatures. Two `MinHasher`s with the same `num_perm` and `seed` are
/// interchangeable — signatures are only comparable within one family.
#[derive(Debug, Clone)]
pub struct MinHasher {
    a: Vec<u64>,
    b: Vec<u64>,
    // Signatures computed through this family, shared across clones —
    // the observable "sketch work" that warm-start recovery from durable
    // snapshots is meant to avoid (asserted by the recovery oracle).
    work: Arc<AtomicU64>,
}

/// A MinHash signature: the element-wise minimum of each hash function over
/// the input set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Vec<u64>);

impl MinHasher {
    /// Create a family of `num_perm` hash functions from a seed.
    pub fn new(num_perm: usize, seed: u64) -> MinHasher {
        assert!(num_perm > 0, "num_perm must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = (0..num_perm)
            .map(|_| rng.gen_range(1..MERSENNE_61))
            .collect();
        let b = (0..num_perm)
            .map(|_| rng.gen_range(0..MERSENNE_61))
            .collect();
        MinHasher {
            a,
            b,
            work: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of hash functions / signature length.
    pub fn num_perm(&self) -> usize {
        self.a.len()
    }

    /// How many signatures this family has computed so far, counted across
    /// all clones of the family (clones share the counter). Recovery tests
    /// use this to assert that warm-starting an index from persisted
    /// sketches does `O(events since snapshot)` hashing, not `O(lake)`.
    pub fn signatures_computed(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Compute the signature of a set of string tokens.
    ///
    /// An empty set yields the all-`u64::MAX` signature, which estimates
    /// Jaccard 1.0 against another empty set and ~0 against anything else.
    pub fn signature<'a, I: IntoIterator<Item = &'a str>>(&self, tokens: I) -> Signature {
        self.work.fetch_add(1, Ordering::Relaxed);
        let mut mins = vec![u64::MAX; self.a.len()];
        for tok in tokens {
            let x = fnv1a64(tok.as_bytes());
            for ((m, &a), &b) in mins.iter_mut().zip(&self.a).zip(&self.b) {
                *m = (*m).min(affine_mod_p(a, x, b));
            }
        }
        Signature(mins)
    }
}

/// `(a·x + b) mod (2^61 − 1)` for `a, b < 2^61 − 1`, bit-identical to the
/// `u128 %` reference. Since `2^61 ≡ 1 (mod p)`, folding the bits above
/// bit 61 onto the low 61 bits preserves the residue: the first fold takes
/// `v < 2^125` below `2^64 + 2^61`, the second below `p + 9`, and one
/// conditional subtraction finishes.
#[inline]
fn affine_mod_p(a: u64, x: u64, b: u64) -> u64 {
    let p = u128::from(MERSENNE_61);
    let v = u128::from(a) * u128::from(x) + u128::from(b);
    let v = (v & p) + (v >> 61);
    let v = ((v & p) + (v >> 61)) as u64;
    if v >= MERSENNE_61 {
        v - MERSENNE_61
    } else {
        v
    }
}

impl Signature {
    /// Unbiased estimate of the Jaccard similarity of the underlying sets:
    /// the fraction of agreeing signature slots.
    pub fn estimate_jaccard(&self, other: &Signature) -> f64 {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "signatures from different families are not comparable"
        );
        let agree = self
            .0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.0.len() as f64
    }

    /// Signature length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for a zero-length signature (never produced by [`MinHasher`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The reference arithmetic `affine_mod_p` replaces.
    fn affine_mod_p_u128(a: u64, x: u64, b: u64) -> u64 {
        ((u128::from(a) * u128::from(x) + u128::from(b)) % u128::from(MERSENNE_61)) as u64
    }

    const P: u64 = MERSENNE_61;

    #[test]
    fn fold_matches_u128_remainder_at_the_edges() {
        for a in [1, 2, P - 2, P - 1] {
            for x in [0, 1, P - 1, P, P + 1, u64::MAX - 1, u64::MAX] {
                for b in [0, 1, P - 2, P - 1] {
                    assert_eq!(
                        affine_mod_p(a, x, b),
                        affine_mod_p_u128(a, x, b),
                        "{a} {x} {b}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fold_matches_u128_remainder(
            a in prop_oneof![Just(1u64), Just(P - 1), 1u64..P],
            x in prop_oneof![Just(0u64), Just(P), Just(P + 1), Just(u64::MAX), any::<u64>()],
            b in prop_oneof![Just(0u64), Just(P - 1), 0u64..P],
        ) {
            prop_assert_eq!(affine_mod_p(a, x, b), affine_mod_p_u128(a, x, b));
        }
    }

    fn sig_of(h: &MinHasher, items: &[&str]) -> Signature {
        h.signature(items.iter().copied())
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let h = MinHasher::new(64, 42);
        let a = sig_of(&h, &["x", "y", "z"]);
        let b = sig_of(&h, &["z", "y", "x"]);
        assert_eq!(a, b);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn signature_is_deterministic_across_instances() {
        let h1 = MinHasher::new(32, 7);
        let h2 = MinHasher::new(32, 7);
        assert_eq!(sig_of(&h1, &["a", "b"]), sig_of(&h2, &["a", "b"]));
    }

    #[test]
    fn different_seeds_give_different_families() {
        let h1 = MinHasher::new(32, 1);
        let h2 = MinHasher::new(32, 2);
        assert_ne!(sig_of(&h1, &["a", "b"]), sig_of(&h2, &["a", "b"]));
    }

    #[test]
    fn jaccard_estimate_tracks_true_jaccard() {
        let h = MinHasher::new(256, 13);
        // Two sets with known Jaccard 50/150 = 1/3.
        let a: Vec<String> = (0..100).map(|i| format!("tok{i}")).collect();
        let b: Vec<String> = (50..150).map(|i| format!("tok{i}")).collect();
        let sa = h.signature(a.iter().map(String::as_str));
        let sb = h.signature(b.iter().map(String::as_str));
        let est = sa.estimate_jaccard(&sb);
        let true_j = {
            let sa: HashSet<_> = a.iter().collect();
            let sb: HashSet<_> = b.iter().collect();
            sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
        };
        assert!(
            (est - true_j).abs() < 0.12,
            "estimate {est} too far from true {true_j}"
        );
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let h = MinHasher::new(256, 99);
        let a: Vec<String> = (0..80).map(|i| format!("a{i}")).collect();
        let b: Vec<String> = (0..80).map(|i| format!("b{i}")).collect();
        let sa = h.signature(a.iter().map(String::as_str));
        let sb = h.signature(b.iter().map(String::as_str));
        assert!(sa.estimate_jaccard(&sb) < 0.1);
    }

    #[test]
    fn empty_set_signature_is_max() {
        let h = MinHasher::new(8, 0);
        let s = h.signature([]);
        assert!(s.0.iter().all(|&m| m == u64::MAX));
    }

    #[test]
    fn work_counter_tracks_signatures_across_clones() {
        let h = MinHasher::new(8, 3);
        assert_eq!(h.signatures_computed(), 0);
        let _ = sig_of(&h, &["a"]);
        let clone = h.clone();
        let _ = sig_of(&clone, &["b"]);
        // Clones share one counter: both computations are visible on both.
        assert_eq!(h.signatures_computed(), 2);
        assert_eq!(clone.signatures_computed(), 2);
        // A fresh family starts its own ledger.
        assert_eq!(MinHasher::new(8, 3).signatures_computed(), 0);
    }

    #[test]
    #[should_panic(expected = "not comparable")]
    fn mismatched_lengths_panic() {
        let a = Signature(vec![1, 2]);
        let b = Signature(vec![1]);
        let _ = a.estimate_jaccard(&b);
    }

    #[test]
    #[should_panic(expected = "num_perm must be positive")]
    fn zero_perm_panics() {
        let _ = MinHasher::new(0, 1);
    }
}
