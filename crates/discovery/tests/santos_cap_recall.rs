//! SANTOS candidate-cap oracle: capped, bound-ranked retrieval vs the
//! exhaustive (score-everything) engine on the type-dense
//! `SantosWorkload`.
//!
//! Pinned guarantees, mirroring `lshe_recall.rs` for the joinable leg:
//!
//! * **Exactness at covering caps:** over random type-dense lakes, any
//!   finite `cap >= lake size` equals the exhaustive output byte-for-byte
//!   (keys, scores, order, tie-breaks) — the bound-soundness oracle for
//!   the type-overlap upper bound and its early-termination rule — and a
//!   binding cap returns a subset of the exhaustive answer at exact
//!   scores.
//! * **Recall floor at the default cap:** top-k recall against the
//!   exhaustive oracle stays ≥ 0.9 (the workload's printed baseline is
//!   recorded in ROADMAP Open items).
//! * **Work reduction:** the capped path scores ≥ 5× fewer candidates
//!   than the exhaustive path on the type-dense lake — the whole point of
//!   the cap.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dialite_datagen::workloads::SantosWorkload;
use dialite_discovery::{DiscoveryBudget, SantosConfig, SantosDiscovery, TableQuery};
use dialite_table::DataLake;
use proptest::prelude::*;

const K: usize = 10;

fn workload() -> SantosWorkload {
    SantosWorkload {
        queries: 8,
        ..SantosWorkload::default()
    }
}

fn build(trace: &dialite_datagen::SantosTrace) -> (DataLake, SantosDiscovery) {
    let lake = DataLake::from_tables(trace.tables.clone()).unwrap();
    let engine = SantosDiscovery::build(&lake, Arc::new(trace.kb.clone()), SantosConfig::default());
    (lake, engine)
}

proptest! {
    /// Covering caps are exact and tight caps sound, over random lakes:
    /// on a type-dense lake small enough for CI, any cap covering the lake
    /// equals the exhaustive output byte-for-byte, and a binding cap
    /// returns a subset of the exhaustive answer at exact scores.
    #[test]
    fn covering_cap_equals_exhaustive_exactly(seed in any::<u64>()) {
        let trace = SantosWorkload {
            tables: 80,
            queries: 3,
            seed,
            ..SantosWorkload::default()
        }
        .generate();
        let (lake, engine) = build(&trace);
        for q in &trace.queries {
            let query = TableQuery::with_column(q.clone(), 0);
            let full: HashMap<String, f64> = engine
                .discover_capped(&query, usize::MAX, usize::MAX)
                .0
                .into_iter()
                .map(|d| (d.table, d.score))
                .collect();
            for k in [1, K, 50] {
                let (exhaustive, _) = engine.discover_capped(&query, k, usize::MAX);
                let (capped, stats) = engine.discover_capped(&query, k, lake.len());
                prop_assert_eq!(
                    &capped,
                    &exhaustive,
                    "cap covering the lake must be exact for {} at k={}",
                    q.name(),
                    k
                );
                prop_assert!(!stats.cap_hit, "covering cap must never bind: {:?}", stats);
                prop_assert!(!stats.full_scan, "typed queries must use the type index");
                let (tight, _) = engine.discover_capped(&query, k, 2);
                prop_assert!(tight.len() <= k.min(2));
                for d in &tight {
                    prop_assert_eq!(
                        full.get(&d.table),
                        Some(&d.score),
                        "tight-cap hit {} must carry its exact score",
                        &d.table
                    );
                }
            }
        }
    }
}

#[test]
fn default_cap_holds_the_recall_floor_and_cuts_scoring_5x() {
    let trace = workload().generate();
    let (_lake, engine) = build(&trace);
    let cap = DiscoveryBudget::default().santos_candidates;

    let mut truth_hits = 0usize;
    let mut recalled = 0usize;
    let mut exhaustive_scored = 0usize;
    let mut capped_scored = 0usize;
    let mut retrieved = 0usize;
    for q in &trace.queries {
        let query = TableQuery::with_column(q.clone(), 0);
        let (exhaustive, ex_stats) = engine.discover_capped(&query, K, usize::MAX);
        // The untruncated truth (k = MAX), computed once per query: a
        // capped hit may legitimately fall outside the exhaustive top-K,
        // but it must exist in the full ranking at the same score.
        let (truth, _) = engine.discover_capped(&query, usize::MAX, usize::MAX);
        let (capped, stats) = engine.discover_capped(&query, K, cap);
        assert!(!stats.full_scan, "typed query fell back to full scan");
        assert!(
            stats.candidates_scored <= cap,
            "cap violated: {} > {cap}",
            stats.candidates_scored
        );
        // Soundness: capped hits are a subset of the exhaustive output at
        // identical scores — the cap drops work, it never invents results.
        for hit in &capped {
            let full = truth
                .iter()
                .find(|d| d.table == hit.table)
                .unwrap_or_else(|| panic!("{} invented by the cap", hit.table));
            assert_eq!(hit.score, full.score, "score drifted for {}", hit.table);
        }

        let want: HashSet<&str> = exhaustive.iter().map(|d| d.table.as_str()).collect();
        let got: HashSet<&str> = capped.iter().map(|d| d.table.as_str()).collect();
        truth_hits += want.len();
        recalled += want.intersection(&got).count();
        exhaustive_scored += ex_stats.candidates_scored;
        capped_scored += stats.candidates_scored;
        retrieved += stats.candidates_retrieved;
    }

    assert!(
        truth_hits >= 4 * trace.queries.len(),
        "workload too thin to quantify recall: {truth_hits} truth hits"
    );
    let recall = recalled as f64 / truth_hits as f64;
    let reduction = exhaustive_scored as f64 / (capped_scored.max(1)) as f64;
    println!(
        "santos cap recall@{K}: {recall:.3} over {truth_hits} oracle hits at cap {cap}; \
         scored {capped_scored} vs exhaustive {exhaustive_scored} ({reduction:.1}x fewer, \
         {retrieved} retrieved)"
    );
    assert!(
        recall >= 0.9,
        "capped recall degraded below the floor: {recall:.3}"
    );
    assert!(
        reduction >= 5.0,
        "cap must cut scored candidates at least 5x on the type-dense lake, got {reduction:.1}x"
    );
    // The lake really is type-dense: the type index retrieves a large
    // candidate fraction per query, which is why the cap matters at all.
    assert!(
        retrieved >= trace.queries.len() * 400,
        "workload lost its type density: {retrieved} retrieved over {} queries",
        trace.queries.len()
    );
}

#[test]
fn incremental_maintenance_keeps_capped_retrieval_exact() {
    // The cap machinery reads `by_type` and the per-table semantics; churn
    // maintains both. A capped query after upsert/remove must equal the
    // same query against a freshly built engine.
    let trace = SantosWorkload {
        tables: 60,
        queries: 3,
        ..SantosWorkload::default()
    }
    .generate();
    let mut lake = DataLake::from_tables(trace.tables.clone()).unwrap();
    let kb = Arc::new(trace.kb.clone());
    let mut engine = SantosDiscovery::build(&lake, kb.clone(), SantosConfig::default());

    let (gone, _) = lake.remove_table(trace.tables[3].name()).unwrap();
    engine.remove_table(gone);
    let newcomer = trace.tables[5].clone().renamed("santos_fresh");
    let slot = lake.add_table(newcomer.clone()).unwrap();
    engine.upsert_table(slot, &newcomer);

    let fresh = SantosDiscovery::build(&lake, kb, SantosConfig::default());
    for q in &trace.queries {
        let query = TableQuery::with_column(q.clone(), 0);
        for cap in [8, lake.len(), usize::MAX] {
            assert_eq!(
                engine.discover_capped(&query, K, cap).0,
                fresh.discover_capped(&query, K, cap).0,
                "churned capped retrieval diverged at cap {cap} for {}",
                q.name()
            );
        }
    }
}
