//! The repository benchmark: three closed-loop workloads over DIALITE,
//! timed end to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|serve-hot|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The report lines come first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. The process exits non-zero when any output check fails.

mod common;
mod digest;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use std::time::Duration;

use dialite_discovery::DiscoveryTelemetry;

use common::{Args, BuildProbe};
use report::Report;
use trace::{Breakdown, LAYERS};

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("table.ingest_ms", "ms"),
    ("table.tokenize_ms", "ms"),
    ("table.churn_apply_us", "us"),
    ("minhash.sign_ms", "ms"),
    ("minhash.band_ms", "ms"),
    ("minhash.signatures", "count"),
    ("discovery.build_ms", "ms"),
    ("discovery.build.lshe_ms", "ms"),
    ("discovery.build.santos_ms", "ms"),
    ("discovery.build.metadata_ms", "ms"),
    ("discovery.size.lshe_postings", "count"),
    ("discovery.size.santos_postings", "count"),
    ("discovery.size.metadata_postings", "count"),
    ("discovery.size.pool", "count"),
    ("discovery.query.joinable_us", "us"),
    ("discovery.query.santos_us", "us"),
    ("discovery.query.metadata_us", "us"),
    ("discovery.topk.cache_hit_ratio", "ratio"),
    ("discovery.topk.partitions_probed", "count"),
    ("discovery.topk.partitions_pruned", "count"),
    ("discovery.topk.candidates_verified", "count"),
    ("discovery.topk.postings_skipped", "count"),
    ("discovery.topk.exact_path", "ratio"),
    ("discovery.santos.candidates_scored", "count"),
    ("discovery.santos.scored_per_hit", "ratio"),
    ("discovery.santos.cap_hits", "ratio"),
    ("discovery.metadata.candidates_scored", "count"),
    ("discovery.metadata.cap_hits", "ratio"),
    ("discovery.sync_us", "us"),
    ("discovery.sync.signatures", "count"),
    ("discovery.warm_build_ms", "ms"),
    ("shard.scored_imbalance", "ratio"),
    ("serving.busy", "count"),
    ("serving.query_overhead_us", "us"),
    ("durable.append_us", "us"),
    ("durable.log_records", "count"),
    ("durable.snapshot_ms", "ms"),
    ("durable.snapshot_bytes", "bytes"),
    ("durable.open_ms", "ms"),
    ("durable.replayed", "count"),
    ("align.ms", "ms"),
    ("align.columns", "count"),
    ("align.ids", "count"),
    ("integrate.alite_ms", "ms"),
    ("integrate.alite_rows", "count"),
    ("integrate.outer_join_ms", "ms"),
    ("integrate.outer_join_rows", "count"),
    ("integrate.rows_in", "count"),
    ("analyze.describe_ms", "ms"),
    ("analyze.er_ms", "ms"),
    ("analyze.er_entities", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("self.table_share", "ratio"),
    ("self.minhash_share", "ratio"),
    ("self.discovery_share", "ratio"),
    ("self.shard_share", "ratio"),
    ("self.serving_share", "ratio"),
    ("self.align_share", "ratio"),
    ("self.integrate_share", "ratio"),
    ("self.analyze_share", "ratio"),
    ("self.durable_share", "ratio"),
];

/// Share of traced wall time that must sit inside named layer spans.
const MIN_COVERAGE: f64 = 0.9;

/// Per-query work counters of the discovery legs, from the program's own
/// telemetry window. `santos_hits` is the number of SANTOS hits the
/// benchmark saw returned over the same window.
pub fn discovery_counters(report: &mut Report, t: &DiscoveryTelemetry, santos_hits: u64) {
    let per = |v: u64, n: u64| v as f64 / n.max(1) as f64;
    let q = t.topk.queries;
    let n = q as usize;
    report.metric(
        "discovery.topk.cache_hit_ratio",
        per(t.topk.cache_hits, t.topk.cache_hits + t.topk.cache_misses),
        "ratio",
        n,
    );
    report.metric(
        "discovery.topk.partitions_probed",
        per(t.topk.partitions_probed, q),
        "count",
        n,
    );
    report.metric(
        "discovery.topk.partitions_pruned",
        per(t.topk.partitions_pruned, q),
        "count",
        n,
    );
    report.metric(
        "discovery.topk.candidates_verified",
        per(t.topk.candidates_verified, q),
        "count",
        n,
    );
    report.metric(
        "discovery.topk.postings_skipped",
        per(t.topk.postings_skipped, q),
        "count",
        n,
    );
    report.metric(
        "discovery.topk.exact_path",
        per(t.topk.exact_path, q),
        "ratio",
        n,
    );
    let s = t.santos.queries;
    report.metric(
        "discovery.santos.candidates_scored",
        per(t.santos.candidates_scored, s),
        "count",
        s as usize,
    );
    report.metric(
        "discovery.santos.scored_per_hit",
        per(t.santos.candidates_scored, santos_hits),
        "ratio",
        santos_hits as usize,
    );
    report.metric(
        "discovery.santos.cap_hits",
        per(t.santos.cap_hits, s),
        "ratio",
        s as usize,
    );
    let m = t.metadata.queries;
    report.metric(
        "discovery.metadata.candidates_scored",
        per(t.metadata.candidates_scored, m),
        "count",
        m as usize,
    );
    report.metric(
        "discovery.metadata.cap_hits",
        per(t.metadata.cap_hits, m),
        "ratio",
        m as usize,
    );
}

/// Work scored per shard, max over mean: 1.0 is a perfect stripe balance.
pub fn scored_imbalance(per_shard: &[DiscoveryTelemetry]) -> f64 {
    let scored: Vec<f64> = per_shard
        .iter()
        .map(|t| {
            (t.topk.candidates_verified + t.santos.candidates_scored + t.metadata.candidates_scored)
                as f64
        })
        .collect();
    let mean = scored.iter().sum::<f64>() / scored.len().max(1) as f64;
    let max = scored.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// The traced run's attribution: coverage, overhead, self time per layer,
/// and the set-up's layer-by-layer build costs and sizes.
pub fn traced_summary(
    report: &mut Report,
    window: &Breakdown,
    wall: Duration,
    clients: usize,
    overhead: f64,
    setup: &Breakdown,
    probe: &BuildProbe,
) {
    let wall_ns = wall.as_nanos() as f64 * clients as f64;
    let spans = window.by_name.values().map(|&(_, n)| n as usize).sum();
    let coverage = window.rooted_ns as f64 / wall_ns;
    report.metric("trace.coverage", coverage, "ratio", spans);
    report.check(coverage >= MIN_COVERAGE, || {
        format!("named layer spans cover only {coverage:.3} of the traced wall time")
    });
    report.metric("trace.overhead", overhead, "ratio", 1);
    report.info(format!(
        "tracing overhead {:+.2}% over the untraced loop",
        overhead * 100.0
    ));
    // Shares of the summed self time, so parallel shard children cannot
    // push the total past one.
    let total = window.self_total_ns().max(1) as f64;
    for layer in LAYERS {
        let own = window.self_ns.get(layer).copied().unwrap_or(0) as f64;
        report.metric(&format!("self.{layer}_share"), own / total, "ratio", 1);
    }
    for (metric, span) in [
        ("table.ingest_ms", "table.ingest"),
        ("table.tokenize_ms", "table.tokenize"),
        ("minhash.sign_ms", "minhash.sign"),
        ("minhash.band_ms", "minhash.band"),
        ("discovery.build_ms", "discovery.build"),
        ("discovery.build.lshe_ms", "discovery.build.lshe"),
        ("discovery.build.santos_ms", "discovery.build.santos"),
        ("discovery.build.metadata_ms", "discovery.build.metadata"),
    ] {
        report.metric(
            metric,
            setup.total_ms(span),
            "ms",
            setup.count(span) as usize,
        );
    }
    common::report_probe(report, probe);
}

/// Order the result line's metrics as `declared`, add a 0 for declared
/// metrics the workload has no layer for, and flag undeclared ones.
fn settle(report: &mut Report, declared: &[(&str, &'static str)], fill: bool) {
    let mut metrics = std::mem::take(&mut report.metrics);
    for m in &metrics {
        let known = declared.iter().any(|(n, u)| *n == m.name && *u == m.unit);
        report.check(known, || {
            format!("metric {} ({}) is not declared", m.name, m.unit)
        });
    }
    for &(name, unit) in declared {
        match metrics.iter().position(|m| m.name == name) {
            Some(i) => report.metrics.push(metrics.swap_remove(i)),
            None if fill => report.metric(name, 0.0, unit, 0),
            None => report.check(false, || format!("metric {name} was not measured")),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload pipeline|serve-hot|serve-churn \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.info(format!("host cpus {cpus}"));
    match args.workload.as_str() {
        "pipeline" => pipeline::run(&args, &mut report),
        "serve-hot" => serve::run(&args, serve::Mode::Hot, &mut report),
        "serve-churn" => serve::run(&args, serve::Mode::Churn, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let attempted = report.attempted.max(1);
    let ok = (attempted - report.failed.min(attempted)) as f64 / attempted as f64;
    report.put(!args.trace, "ok_ratio", ok, "ratio", attempted as usize);
    report.put(!args.trace, "peak_rss_mb", report::peak_rss_mb(), "MB", 1);
    report.note(
        "failed_ratio",
        report.failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    );
    if args.trace {
        settle(&mut report, PER_LAYER, true);
    } else {
        settle(&mut report, END_TO_END, false);
    }
    let header = format!(
        "{} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print!("{}", report.human(&header));
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared metric lists and `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, list) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared: Vec<(String, String)> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk[..chunk.find('"').unwrap()].to_string();
                    let unit = chunk.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit[..unit.find('"').unwrap()].to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{section}");
        }
    }

    #[test]
    fn settle_orders_fills_and_flags() {
        let mut r = Report::default();
        r.metric("ok_ratio", 1.0, "ratio", 1);
        r.metric("setup_s", 2.0, "s", 3);
        settle(
            &mut r,
            &[("setup_s", "s"), ("ok_ratio", "ratio"), ("x", "ms")],
            true,
        );
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "ok_ratio", "x"]);
        assert!(r.correct());
        settle(&mut r, &[("setup_s", "s"), ("y", "ms")], false);
        assert!(!r.correct());
        assert_eq!(scored_imbalance(&[]), 1.0);
    }
}
