//! Pins MinHash signatures bit for bit.
//!
//! Durable snapshots persist signatures, and a warm start reuses them when
//! `SketchSnapshot::matches_family` holds — a check on `(num_perm, seed)`
//! only. Any change to the hash arithmetic that moved a single slot would
//! silently mix two hash families in one index after a restart. The
//! constants below were recorded from the `u128 %` reference arithmetic;
//! every faster implementation must reproduce them exactly.

use dialite_minhash::MinHasher;
use dialite_text::fnv1a64;

/// Fixed token sets covering the edge cases: the empty set, the empty
/// string, one token, non-ASCII text, and sets of a few hundred tokens.
fn token_sets() -> Vec<Vec<String>> {
    let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    vec![
        Vec::new(),
        owned(&[""]),
        owned(&["a"]),
        owned(&["x", "y", "z"]),
        owned(&["Toronto", "Montréal", "東京", "São Paulo", "🦀"]),
        (0..100).map(|i| format!("tok{i}")).collect(),
        (0..700).map(|i| format!("v{i}")).collect(),
        (0..64).map(|i| format!("{}", i * 7919)).collect(),
    ]
}

/// FNV-1a over the little-endian bytes of every slot of every signature.
fn digest(num_perm: usize, seed: u64) -> u64 {
    let hasher = MinHasher::new(num_perm, seed);
    let mut bytes = Vec::new();
    for set in token_sets() {
        let sig = hasher.signature(set.iter().map(String::as_str));
        assert_eq!(sig.len(), num_perm);
        for slot in &sig.0 {
            bytes.extend_from_slice(&slot.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn signatures_at_the_discovery_default_family_are_pinned() {
    // (256, 0x1517) is the `LshEnsembleConfig` default.
    assert_eq!(digest(256, 0x1517), 4977839503563243282);
}

#[test]
fn signatures_at_a_small_family_are_pinned() {
    assert_eq!(digest(64, 17), 2497047004696374473);
}

#[test]
fn single_slots_are_pinned() {
    let hasher = MinHasher::new(64, 17);
    let sig = hasher.signature(["a"]);
    assert_eq!(
        (sig.0[0], sig.0[63]),
        (1029972439029858153, 1638954131125766763)
    );
}
