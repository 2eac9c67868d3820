//! Work-counter golden test for every bounded (best-bound-first) search
//! in the discovery crate: typed SANTOS, typeless SANTOS, metadata, the
//! cost-bounded exact posting path and the planner's partition schedule.
//!
//! Each leg runs on fixed seeds under [`DiscoveryBudget::default`] and
//! under a tight budget (small SANTOS / metadata caps, `max_partitions`,
//! `max_verifications` and `postings`). The test pins:
//!
//! * **Every loop exit fires**: `cap_hit`, `bound_pruned`,
//!   `typeless_pruned`, `terminated_early`, `budget_exhausted` and
//!   `postings_skipped` are each observed at least once, so no exit of
//!   the bounded loops goes unexercised.
//! * **Work counters and outputs are frozen**: the stats counters summed
//!   over every query, and a digest of every returned hit list, equal
//!   constants recorded from the engines as they stood before the
//!   bounded loops were consolidated. A refactor of the loops must keep
//!   both the answers *and* the work done to reach them identical.
//!
//! The unlimited budget is deliberately absent: `usize::MAX` caps take the
//! exhaustive oracle paths, which the oracle suites already pin.

use std::sync::Arc;

use dialite_datagen::workloads::{HeterogeneousLakeWorkload, SantosWorkload};
use dialite_discovery::{
    Discovered, DiscoveryBudget, LakeIndex, LakeIndexConfig, LshEnsembleConfig, MetadataConfig,
    MetadataStats, QueryBudget, SantosConfig, SantosDiscovery, SantosStats, TableQuery, TopKStats,
};
use dialite_kb::KbBuilder;
use dialite_table::{DataLake, Table, Value};
use dialite_text::fnv1a64;

/// Summed work counters over every query of the golden run. Flags are
/// counted (how many queries set them), counters summed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    santos_retrieved: usize,
    santos_scored: usize,
    santos_bound_pruned: usize,
    santos_typeless_pruned: usize,
    santos_cap_hits: usize,
    santos_full_scans: usize,
    meta_retrieved: usize,
    meta_scored: usize,
    meta_bound_pruned: usize,
    meta_cap_hits: usize,
    meta_full_scans: usize,
    topk_exact_paths: usize,
    topk_cache_hits: usize,
    topk_probed: usize,
    topk_pruned: usize,
    topk_verified: usize,
    topk_terminated_early: usize,
    topk_budget_exhausted: usize,
    topk_exact_budget_exhausted: usize,
    topk_postings_skipped: usize,
}

impl Tally {
    fn santos(&mut self, s: &SantosStats) {
        self.santos_retrieved += s.candidates_retrieved;
        self.santos_scored += s.candidates_scored;
        self.santos_bound_pruned += s.bound_pruned;
        self.santos_typeless_pruned += s.typeless_pruned;
        self.santos_cap_hits += usize::from(s.cap_hit);
        self.santos_full_scans += usize::from(s.full_scan);
    }

    fn metadata(&mut self, s: &MetadataStats) {
        self.meta_retrieved += s.candidates_retrieved;
        self.meta_scored += s.candidates_scored;
        self.meta_bound_pruned += s.bound_pruned;
        self.meta_cap_hits += usize::from(s.cap_hit);
        self.meta_full_scans += usize::from(s.full_scan);
    }

    fn topk(&mut self, s: &TopKStats) {
        self.topk_exact_paths += usize::from(s.exact_path);
        self.topk_cache_hits += usize::from(s.cache_hit);
        self.topk_probed += s.partitions_probed;
        self.topk_pruned += s.partitions_pruned;
        self.topk_verified += s.candidates_verified;
        self.topk_terminated_early += usize::from(s.terminated_early);
        self.topk_budget_exhausted += usize::from(s.budget_exhausted);
        self.topk_exact_budget_exhausted += usize::from(s.budget_exhausted && s.exact_path);
        self.topk_postings_skipped += s.postings_skipped;
    }
}

/// Order-sensitive FNV digest of hit lists: table names and the exact
/// score bits, so any change in membership, order or score shows.
#[derive(Debug, Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn add(&mut self, leg: &str, hits: &[Discovered]) {
        self.0.extend_from_slice(leg.as_bytes());
        self.0.push(b'[');
        for d in hits {
            self.0.extend_from_slice(d.table.as_bytes());
            self.0.push(b'=');
            self.0.extend_from_slice(&d.score.to_bits().to_le_bytes());
            self.0.push(b';');
        }
        self.0.push(b']');
    }

    fn value(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

const KS: [usize; 3] = [1, 3, 10];

/// The tight budget: every cap small enough to bind on these lakes.
fn tight() -> DiscoveryBudget {
    DiscoveryBudget::default()
        .with_santos_candidates(4)
        .with_metadata_candidates(4)
        .with_joinable(
            QueryBudget::unlimited()
                .with_max_partitions(2)
                .with_max_verifications(6)
                .with_max_postings(24),
        )
}

fn budgets() -> [DiscoveryBudget; 2] {
    [DiscoveryBudget::default(), tight()]
}

/// Typed SANTOS on the type-dense workload: the bound-ranked path over
/// the type inverted index.
fn run_typed_santos(tally: &mut Tally, digest: &mut Digest) {
    for seed in [31u64, 7] {
        let trace = SantosWorkload {
            tables: 160,
            queries: 4,
            seed,
            ..SantosWorkload::default()
        }
        .generate();
        let lake = DataLake::from_tables(trace.tables.clone()).unwrap();
        let engine =
            SantosDiscovery::build(&lake, Arc::new(trace.kb.clone()), SantosConfig::default());
        for q in &trace.queries {
            let query = TableQuery::with_column(q.clone(), 0);
            for budget in budgets() {
                for k in KS {
                    let (hits, stats) = engine.discover_capped(&query, k, budget.santos_candidates);
                    assert!(!stats.full_scan, "typed query must use the type index");
                    tally.santos(&stats);
                    digest.add("santos-typed", &hits);
                }
            }
        }
    }
}

/// Hetero lake small enough for debug-build CI, with some tables and
/// queries past the exact-path fallback so the sketch planner runs too.
fn hetero(seed: u64) -> HeterogeneousLakeWorkload {
    HeterogeneousLakeWorkload {
        tables: 300,
        clusters: 6,
        cluster_headers: 8,
        max_cols: 4,
        max_rows: 64,
        value_vocab: 200,
        queries: 6,
        query_rows: 24,
        seed,
        ..HeterogeneousLakeWorkload::default()
    }
}

/// The other legs over a heterogeneous lake behind one [`LakeIndex`]
/// with the metadata leg on and an empty KB (so SANTOS is typeless):
/// typeless SANTOS, metadata, and the planner's exact and sketch paths.
fn run_hetero_legs(tally: &mut Tally, digest: &mut Digest) {
    for seed in [83u64, 5] {
        let spec = hetero(seed);
        let mut lake = spec.lake();
        // The generator's headers are single tokens, against which the
        // header-overlap bound is never strictly beaten. Real corpora also
        // carry multi-token headers ("country name"): add a few tables
        // whose one header folds each probe's tokens, and probe with the
        // folded header too, so the metadata bound has something to prune.
        let mut header_queries: Vec<Table> = spec.header_queries();
        for q in spec.header_queries() {
            let tokens: Vec<String> = q
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let folded = tokens.join(" ");
            let probe = || vec![vec![Value::Text("probe".to_string())]];
            for copy in 0..3 {
                let name = format!("{}_folded_t{copy}", q.name());
                lake.add_table(Table::from_rows(&name, &[folded.as_str()], probe()).unwrap())
                    .unwrap();
            }
            let name = format!("{}_folded", q.name());
            header_queries.push(Table::from_rows(&name, &[folded.as_str()], probe()).unwrap());
        }
        let config = LakeIndexConfig {
            santos: SantosConfig::default(),
            lshe: LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                ..LshEnsembleConfig::default()
            },
            metadata: Some(MetadataConfig::default()),
        };
        let index = LakeIndex::build(&lake, Arc::new(KbBuilder::new().build()), config);
        let metadata = index.metadata().expect("metadata leg is configured");
        let value_queries: Vec<Table> = spec.queries();
        for budget in budgets() {
            for k in KS {
                for q in &value_queries {
                    let query = TableQuery::with_column(q.clone(), 0);
                    let (hits, stats) =
                        index
                            .santos()
                            .discover_capped(&query, k, budget.santos_candidates);
                    tally.santos(&stats);
                    digest.add("santos-typeless", &hits);
                    let (hits, stats) = index.planner().discover_top_k_with_stats(
                        index.lshe(),
                        &query,
                        k,
                        &budget.joinable,
                    );
                    tally.topk(&stats);
                    digest.add("joinable", &hits);
                }
                for q in &header_queries {
                    let query = TableQuery::new(q.clone());
                    let (hits, stats) =
                        metadata.discover_capped(&query, k, budget.metadata_candidates);
                    tally.metadata(&stats);
                    digest.add("metadata", &hits);
                }
            }
        }
    }
}

#[test]
fn bounded_loops_do_the_recorded_work_and_return_the_recorded_hits() {
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    run_typed_santos(&mut tally, &mut digest);
    run_hetero_legs(&mut tally, &mut digest);
    println!("{tally:#?}\ndigest: {:#018x}", digest.value());

    // Every exit of the bounded loops fires at least once.
    assert!(tally.santos_cap_hits > 0, "SANTOS cap never hit");
    assert!(tally.meta_cap_hits > 0, "metadata cap never hit");
    assert!(tally.santos_bound_pruned > 0, "typed bound never pruned");
    assert!(tally.meta_bound_pruned > 0, "metadata bound never pruned");
    assert!(
        tally.santos_typeless_pruned > 0,
        "typeless bound never pruned"
    );
    assert!(
        tally.topk_terminated_early > 0,
        "planner never stopped early"
    );
    assert!(
        tally.topk_exact_budget_exhausted > 0,
        "postings budget never bound"
    );
    assert!(
        tally.topk_budget_exhausted > tally.topk_exact_budget_exhausted,
        "sketch-path budget never bound"
    );
    assert!(
        tally.topk_postings_skipped > 0,
        "exact path never skipped postings"
    );
    assert!(tally.topk_exact_paths > 0, "exact path never taken");
    assert!(
        tally.topk_probed > 0,
        "sketch path never probed a partition"
    );
    assert_eq!(tally.santos_full_scans + tally.meta_full_scans, 0);

    assert_eq!(tally, GOLDEN_TALLY, "work counters drifted");
    assert_eq!(digest.value(), GOLDEN_DIGEST, "returned hits drifted");
}

/// Recorded from the engines before the bounded loops were consolidated.
const GOLDEN_TALLY: Tally = Tally {
    santos_retrieved: 8646,
    santos_scored: 1482,
    santos_bound_pruned: 3734,
    santos_typeless_pruned: 710,
    santos_cap_hits: 38,
    santos_full_scans: 0,
    meta_retrieved: 4056,
    meta_scored: 1688,
    meta_bound_pruned: 1208,
    meta_cap_hits: 48,
    meta_full_scans: 0,
    topk_exact_paths: 42,
    topk_cache_hits: 25,
    topk_probed: 36,
    topk_pruned: 84,
    topk_verified: 695,
    topk_terminated_early: 3,
    topk_budget_exhausted: 21,
    topk_exact_budget_exhausted: 6,
    topk_postings_skipped: 261,
};

const GOLDEN_DIGEST: u64 = 0xd4cf_e2da_335d_ca33;
