//! Shard oracle: a [`ShardedLakeIndex`] at any shard count must be
//! observationally identical to the single index — the storage/execution
//! split is an implementation detail, never a semantics change.
//!
//! Three properties are pinned:
//!
//! * **Byte-identity across shard counts**: with the LSH sketch bypassed
//!   (`exact_fallback_below = usize::MAX`, the same regime as the
//!   incremental oracle), discovery output is a pure function of lake
//!   state, so N ∈ {1, 2, 4, 8} shards must agree bit-for-bit with the
//!   single index on keys *and* scores — across churn traces (per-shard
//!   incremental `sync` included), at unlimited *and* finite budgets, on
//!   the full two-leg stage and on the joinable top-k leg alone.
//! * **Telemetry lockstep**: the merged window equals the fold of the
//!   per-shard windows, counter for counter, at every query point.
//! * **Merge under thread churn**: a [`ShardedTelemetry`] recorded into
//!   from any number of concurrent threads snapshots to exactly the
//!   single-threaded fold of the same recordings — counters and latency
//!   histograms both (sums are order-independent; whole-microsecond
//!   durations keep the f64 mean accumulation exact).
//! * **Warm == cold at every shard count**: a sharded index warm-started
//!   from its own sketch export hashes nothing and answers exactly like
//!   the cold build; a snapshot from a foreign hash family hashes every
//!   domain afresh and still answers exactly like it.

use std::sync::Arc;
use std::time::Duration;

use dialite_datagen::workloads::{ChurnOp, ChurnWorkload, HeterogeneousLakeWorkload};
use dialite_discovery::{
    Discovered, DiscoveryBudget, DiscoveryTelemetry, LakeIndexConfig, LshEnsembleConfig,
    MetadataConfig, MetadataStats, QueryBudget, SantosConfig, SantosStats, ShardedLakeIndex,
    ShardedTelemetry, TableQuery, TopKStats,
};
use dialite_kb::curated::covid_kb;
use dialite_table::DataLake;
use proptest::prelude::*;

/// Sketch-free config (the incremental oracle's): every stored domain is
/// verified exactly, so discovery output is deterministic given the lake —
/// the precondition for byte-identity across shardings. The tiny dirtiness
/// budget forces tombstone-triggered rebalances inside the traces, and the
/// metadata leg is enabled so the oracle covers the full three-leg stage.
fn exact_config() -> LakeIndexConfig {
    LakeIndexConfig {
        santos: SantosConfig::default(),
        lshe: LshEnsembleConfig {
            num_perm: 64,
            num_partitions: 4,
            exact_fallback_below: usize::MAX,
            rebalance_dirtiness: 0.15,
            ..LshEnsembleConfig::default()
        },
        metadata: Some(MetadataConfig::default()),
    }
}

/// Merged telemetry must equal the fold of the per-shard windows —
/// counters, latency sample counts, everything.
fn assert_telemetry_lockstep(index: &ShardedLakeIndex) {
    let merged = index.telemetry();
    let mut folded = DiscoveryTelemetry::default();
    for window in index.telemetry_per_shard() {
        folded.merge(&window);
    }
    assert_eq!(merged.topk, folded.topk, "topk counters out of lockstep");
    assert_eq!(
        merged.santos, folded.santos,
        "santos counters out of lockstep"
    );
    assert_eq!(
        merged.metadata, folded.metadata,
        "metadata counters out of lockstep"
    );
    assert_eq!(
        merged.joinable_latency.samples,
        folded.joinable_latency.samples
    );
    assert_eq!(merged.santos_latency.samples, folded.santos_latency.samples);
    assert_eq!(
        merged.metadata_latency.samples,
        folded.metadata_latency.samples
    );
}

proptest! {
    /// The main oracle: every shard count answers every query point of a
    /// random churn trace exactly like the single index — both legs,
    /// budgeted and unlimited — and merged telemetry stays in lockstep
    /// with the per-shard sums throughout.
    #[test]
    fn sharded_discovery_equals_single_index_across_churn(
        seed in any::<u64>(),
        ops in 12usize..28,
    ) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 12,
            vocab: 150,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        let config = exact_config();
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let single = ShardedLakeIndex::build(&lake, kb.clone(), config.clone(), 1);
        let sharded: Vec<ShardedLakeIndex> = [2usize, 4, 8]
            .iter()
            .map(|&n| ShardedLakeIndex::build(&lake, kb.clone(), config.clone(), n))
            .collect();
        // Finite but covering on these small lakes (every split slice
        // still admits the whole stripe), so budget-splitting itself is
        // exercised without perturbing the exact-path output.
        let budgets = [DiscoveryBudget::unlimited(), DiscoveryBudget::default()];
        let topk_budget = QueryBudget::unlimited();
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = &op {
                single.sync(&lake);
                let query = TableQuery::with_column(q.clone(), 0);
                for index in &sharded {
                    index.sync(&lake);
                    prop_assert!(index.is_current(&lake));
                    for budget in &budgets {
                        prop_assert_eq!(
                            index.discover_all_budgeted(&query, 6, budget),
                            single.discover_all_budgeted(&query, 6, budget),
                            "{}-shard stage diverged from single index at query {}",
                            index.shard_count(),
                            compared
                        );
                    }
                    prop_assert_eq!(
                        index.discover_top_k(&query, 6, &topk_budget),
                        single.discover_top_k(&query, 6, &topk_budget),
                        "{}-shard top-k diverged from single index at query {}",
                        index.shard_count(),
                        compared
                    );
                    assert_telemetry_lockstep(index);
                }
                compared += 1;
            } else {
                op.apply(&mut lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }

    /// Thread-churn merge property: however the recordings are spread
    /// over concurrent threads, the sharded snapshot equals the
    /// single-threaded fold of the exact same recordings. Durations are
    /// whole microseconds, so even the histograms' f64 mean accumulation
    /// is exact and the windows compare equal as a whole.
    #[test]
    fn sharded_telemetry_snapshot_equals_single_threaded_fold(
        seed in any::<u64>(),
        threads in 1usize..9,
        per_thread in 1usize..24,
    ) {
        // Deterministic per-(thread, i) recordings derived from the seed.
        let stats_at = |t: usize, i: usize| {
            let x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((t * 1_000 + i) as u64);
            let topk = TopKStats {
                cache_hit: x & 1 == 0,
                exact_path: x & 2 == 0,
                partitions_probed: (x % 7) as usize,
                partitions_pruned: (x % 5) as usize,
                candidates_verified: (x % 97) as usize,
                terminated_early: x & 4 == 0,
                budget_exhausted: x & 8 == 0,
                postings_skipped: (x % 31) as usize,
            };
            let santos = SantosStats {
                candidates_retrieved: (x % 211) as usize,
                candidates_scored: (x % 89) as usize,
                bound_pruned: (x % 13) as usize,
                cap_hit: x & 16 == 0,
                full_scan: x & 32 == 0,
                typeless_pruned: (x % 17) as usize,
            };
            let metadata = MetadataStats {
                candidates_retrieved: (x % 151) as usize,
                candidates_scored: (x % 67) as usize,
                bound_pruned: (x % 11) as usize,
                cap_hit: x & 64 == 0,
                full_scan: x & 128 == 0,
            };
            let latency = Duration::from_micros(x % 2_000_000);
            (topk, santos, metadata, latency)
        };

        let mut expected = DiscoveryTelemetry::default();
        for t in 0..threads {
            for i in 0..per_thread {
                let (topk, santos, metadata, latency) = stats_at(t, i);
                expected.record_topk(&topk, latency);
                expected.record_santos(&santos, latency);
                expected.record_metadata(&metadata, latency);
            }
        }

        let sharded = ShardedTelemetry::default();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let sharded = &sharded;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let (topk, santos, metadata, latency) = stats_at(t, i);
                        sharded.record_topk(&topk, latency);
                        sharded.record_santos(&santos, latency);
                        sharded.record_metadata(&metadata, latency);
                    }
                });
            }
        });

        prop_assert_eq!(sharded.snapshot(), expected);

        // Reset zeroes every shard, whichever threads recorded into them.
        sharded.reset();
        prop_assert_eq!(sharded.snapshot(), DiscoveryTelemetry::default());
    }
}

/// Every budgeted answer of `index` over the value and header queries.
fn answers(
    index: &ShardedLakeIndex,
    queries: &[TableQuery],
) -> Vec<Vec<(String, Vec<Discovered>)>> {
    let budgets = [DiscoveryBudget::unlimited(), DiscoveryBudget::default()];
    queries
        .iter()
        .flat_map(|q| budgets.iter().map(|b| index.discover_all_budgeted(q, 5, b)))
        .collect()
}

/// `build_warm` is the cold `build` plus sketch reuse, at N ∈ {1, 2, 4}:
/// the index's own export leaves no MinHash pass to run, a foreign-family
/// export (flipped `seed`) reuses nothing, and neither changes an answer.
/// Runs the sketch path (default `exact_fallback_below`) on a small
/// heterogeneous lake with all three legs on.
#[test]
fn warm_build_matches_cold_build_at_every_shard_count() {
    let spec = HeterogeneousLakeWorkload {
        tables: 160,
        clusters: 5,
        cluster_headers: 6,
        max_cols: 4,
        max_rows: 48,
        value_vocab: 150,
        queries: 4,
        query_rows: 20,
        seed: 29,
        ..HeterogeneousLakeWorkload::default()
    };
    let lake = spec.lake();
    let kb = Arc::new(covid_kb());
    let config = LakeIndexConfig {
        santos: SantosConfig::default(),
        lshe: LshEnsembleConfig {
            num_perm: 64,
            num_partitions: 4,
            ..LshEnsembleConfig::default()
        },
        metadata: Some(MetadataConfig::default()),
    };
    let queries: Vec<TableQuery> = spec
        .queries()
        .into_iter()
        .map(|q| TableQuery::with_column(q, 0))
        .chain(spec.header_queries().into_iter().map(TableQuery::new))
        .collect();
    for shards in [1usize, 2, 4] {
        let cold = ShardedLakeIndex::build(&lake, kb.clone(), config.clone(), shards);
        let cold_work = cold.sketch_work();
        assert!(cold_work > 0, "a cold build hashes every domain");
        let sketches = cold.export_sketches();

        let warm =
            ShardedLakeIndex::build_warm(&lake, kb.clone(), config.clone(), shards, &sketches);
        assert_eq!(
            warm.sketch_work(),
            0,
            "{shards} shards: the index's own export must skip every MinHash pass"
        );
        assert_eq!(warm.export_sketches(), sketches, "{shards} shards");

        let mut foreign = sketches.clone();
        foreign.seed ^= 1;
        let refit =
            ShardedLakeIndex::build_warm(&lake, kb.clone(), config.clone(), shards, &foreign);
        assert_eq!(
            refit.sketch_work(),
            cold_work,
            "{shards} shards: a foreign-family snapshot must hash every domain"
        );

        let expected = answers(&cold, &queries);
        assert_eq!(answers(&warm, &queries), expected, "{shards} shards: warm");
        assert_eq!(
            answers(&refit, &queries),
            expected,
            "{shards} shards: foreign"
        );
    }
}
