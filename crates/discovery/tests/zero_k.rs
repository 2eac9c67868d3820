//! `k == 0` regression: asking any public discovery entry point for zero
//! results returns an empty list — never a panic, never wasted work.
//!
//! The lake is built so the joinable leg's cost-bounded posting merge is
//! *truncated* (hub tokens shared by every table push the longest lists
//! past the residual-threshold stop), the shape where a top-k window
//! indexed at `k - 1` used to underflow.

use std::sync::Arc;

use dialite_discovery::{
    Discovery, DiscoveryBudget, LakeIndex, LakeIndexConfig, LshEnsembleConfig,
    LshEnsembleDiscovery, MetadataConfig, MetadataDiscovery, QueryBudget, SantosConfig,
    SantosDiscovery, ShardedLakeIndex, TableQuery, TopKPlanner,
};
use dialite_kb::curated::covid_kb;
use dialite_table::{fixtures, DataLake, Table, Value};

/// The COVID demo lake plus `hubs` one-column tables sharing four hub
/// tokens and holding eight private ones each.
fn hub_lake(hubs: usize) -> DataLake {
    let mut lake = fixtures::covid_lake();
    for t in 0..hubs {
        let mut rows: Vec<Vec<Value>> = (0..4)
            .map(|h| vec![Value::Text(format!("hub{h}"))])
            .collect();
        for i in 0..8 {
            rows.push(vec![Value::Text(format!("t{t}_v{i}"))]);
        }
        lake.add(Table::from_rows(&format!("t{t}"), &["k"], rows).unwrap())
            .unwrap();
    }
    lake
}

/// Ten tokens of hub table `t3`: the four hub tokens and six private
/// ones — a typeless query under the exact-path fallback whose merge
/// stops before the hub lists.
fn hub_query(lake: &DataLake) -> TableQuery {
    let mut toks: Vec<String> = lake
        .get("t3")
        .unwrap()
        .column_token_set(0)
        .into_iter()
        .collect();
    toks.sort();
    toks.truncate(10);
    let rows: Vec<Vec<Value>> = toks.into_iter().map(|t| vec![Value::Text(t)]).collect();
    TableQuery::with_column(Table::from_rows("q", &["k"], rows).unwrap(), 0)
}

fn queries(lake: &DataLake) -> Vec<TableQuery> {
    vec![
        hub_query(lake),
        TableQuery::with_column(fixtures::fig2_query(), 1),
    ]
}

fn index_config() -> LakeIndexConfig {
    LakeIndexConfig {
        metadata: Some(MetadataConfig::default()),
        ..LakeIndexConfig::default()
    }
}

/// Budgets every capped entry point is called under: unlimited (the
/// exhaustive paths), the default and a tight one.
fn budgets() -> [DiscoveryBudget; 3] {
    [
        DiscoveryBudget::unlimited(),
        DiscoveryBudget::default(),
        DiscoveryBudget::default()
            .with_santos_candidates(1)
            .with_metadata_candidates(1)
            .with_joinable(QueryBudget::unlimited().with_max_postings(4)),
    ]
}

#[test]
fn lsh_ensemble_returns_nothing_for_k_zero() {
    let lake = hub_lake(12);
    let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
    let planner = TopKPlanner::new();
    for q in queries(&lake) {
        assert!(!engine.discover(&q, 1).is_empty(), "fixture must have hits");
        assert!(engine.discover(&q, 0).is_empty());
        assert!(engine.exact_merge_oracle(&q, 0).is_empty());
        for budget in budgets() {
            let (hits, _) = planner.discover_top_k_with_stats(&engine, &q, 0, &budget.joinable);
            assert!(hits.is_empty());
        }
    }
}

#[test]
fn santos_returns_nothing_for_k_zero_typed_and_typeless() {
    let lake = hub_lake(12);
    let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
    // The hub query is typeless (no KB coverage); the Fig. 2 query typed.
    for q in queries(&lake) {
        assert!(!engine.discover(&q, 1).is_empty(), "fixture must have hits");
        assert!(engine.discover(&q, 0).is_empty());
        for cap in [usize::MAX, 128, 1, 0] {
            let (hits, stats) = engine.discover_capped(&q, 0, cap);
            assert!(hits.is_empty(), "cap {cap}");
            assert_eq!(stats.candidates_scored, 0, "k = 0 must score nothing");
        }
    }
}

#[test]
fn metadata_returns_nothing_for_k_zero() {
    let lake = hub_lake(12);
    let engine = MetadataDiscovery::build(&lake, MetadataConfig::default());
    for q in queries(&lake) {
        assert!(!engine.discover(&q, 1).is_empty(), "fixture must have hits");
        assert!(engine.discover(&q, 0).is_empty());
        for cap in [usize::MAX, 128, 1, 0] {
            let (hits, stats) = engine.discover_capped(&q, 0, cap);
            assert!(hits.is_empty(), "cap {cap}");
            assert_eq!(stats.candidates_scored, 0, "k = 0 must score nothing");
        }
    }
}

#[test]
fn lake_index_returns_nothing_for_k_zero() {
    let lake = hub_lake(12);
    let index = LakeIndex::build(&lake, Arc::new(covid_kb()), index_config());
    for q in queries(&lake) {
        assert!(!index.discover(&q, 1).is_empty(), "fixture must have hits");
        assert!(index.discover(&q, 0).is_empty());
        for (_, hits) in index.discover_all(&q, 0) {
            assert!(hits.is_empty());
        }
        for budget in budgets() {
            for (leg, hits) in index.discover_all_budgeted(&q, 0, &budget) {
                assert!(hits.is_empty(), "{leg}");
            }
            assert!(index.discover_top_k(&q, 0, &budget.joinable).is_empty());
        }
    }
}

#[test]
fn sharded_index_returns_nothing_for_k_zero() {
    let lake = hub_lake(12);
    for shards in [1, 3] {
        let index = ShardedLakeIndex::build(&lake, Arc::new(covid_kb()), index_config(), shards);
        for q in queries(&lake) {
            assert!(!index.discover(&q, 1).is_empty(), "fixture must have hits");
            assert!(index.discover(&q, 0).is_empty());
            for (_, hits) in index.discover_all(&q, 0) {
                assert!(hits.is_empty());
            }
            for budget in budgets() {
                for (leg, hits) in index.discover_all_budgeted(&q, 0, &budget) {
                    assert!(hits.is_empty(), "{leg}");
                }
                assert!(index.discover_top_k(&q, 0, &budget.joinable).is_empty());
            }
        }
    }
}
