//! Pieces every workload shares: arguments, the index configuration, timed
//! set-up repetitions and the layer-by-layer build probe.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dialite_discovery::{
    LakeIndexConfig, LshEnsembleDiscovery, MetadataConfig, MetadataDiscovery, SantosDiscovery,
    ShardRouter,
};
use dialite_kb::curated::covid_kb;
use dialite_kb::KnowledgeBase;
use dialite_minhash::LshEnsembleBuilder;
use dialite_table::{DataLake, Table};

use crate::report::Report;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The index configuration every workload serves: the default SANTOS and
/// LSH Ensemble legs plus the metadata (header-match) leg.
pub fn index_config() -> LakeIndexConfig {
    LakeIndexConfig {
        metadata: Some(MetadataConfig::default()),
        ..LakeIndexConfig::default()
    }
}

pub fn kb() -> Arc<KnowledgeBase> {
    Arc::new(covid_kb())
}

/// Ingest tables into a fresh lake, in order.
pub fn ingest(tables: Vec<Table>) -> DataLake {
    let mut lake = DataLake::new();
    for t in tables {
        lake.add_table(t).expect("generated names are unique");
    }
    lake
}

/// Run `setup` `reps` times on fresh inputs; returns the median seconds
/// and the last set-up's product. `prepare` (untimed) makes each
/// repetition's inputs.
pub fn timed_setups<I, T>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut setup: impl FnMut(I) -> T,
) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous product first, so repetitions do not stack up
        // in memory or pay for each other's deallocation.
        drop(last.take());
        let input = prepare();
        let t0 = Instant::now();
        let out = setup(input);
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (
        crate::stats::median(&secs),
        last.expect("at least one set-up"),
    )
}

/// Sizes and work the build probe observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildProbe {
    pub lshe_postings: usize,
    pub santos_postings: usize,
    pub metadata_postings: usize,
    pub pool: usize,
    pub signatures: usize,
}

/// Build every discovery leg of every shard stripe once more, leg by leg,
/// under its own span, and split the LSH Ensemble build into its MinHash
/// signing and its partition banding — the build-cost-by-leg breakdown.
pub fn probe_build(
    lake: &DataLake,
    kb: &Arc<KnowledgeBase>,
    config: &LakeIndexConfig,
    shards: usize,
    tr: &mut Tracer,
) -> BuildProbe {
    let router = ShardRouter::new(shards);
    let mut probe = BuildProbe::default();
    for s in 0..router.shards() {
        let scope = router.scope(s);
        let lshe = tr.span("discovery.build.lshe", |_| {
            LshEnsembleDiscovery::build_scoped(lake, config.lshe.clone(), scope)
        });
        probe.lshe_postings += lshe.posting_stats().1;
        probe.pool += lshe.pool_len();
        drop(lshe);
        let santos = tr.span("discovery.build.santos", |_| {
            SantosDiscovery::build_scoped(lake, kb.clone(), config.santos.clone(), scope)
        });
        probe.santos_postings += santos.token_posting_stats().1;
        drop(santos);
        if let Some(mc) = &config.metadata {
            let meta = tr.span("discovery.build.metadata", |_| {
                MetadataDiscovery::build_scoped(lake, mc.clone(), scope)
            });
            probe.metadata_postings += meta.header_posting_stats().1;
        }

        // The LSH Ensemble build, phase by phase: tokenize each column
        // domain, sign it, then band the signatures into partitions.
        let domains: Vec<((u32, u32), HashSet<String>)> = tr.span("table.tokenize", |_| {
            let mut out = Vec::new();
            for (slot, table) in lake.entries_routed(scope.shard(), scope.of()) {
                for c in 0..table.column_count() {
                    let tokens = table.column_token_set(c);
                    if !tokens.is_empty() {
                        out.push(((slot, c as u32), tokens));
                    }
                }
            }
            out
        });
        let mut builder = LshEnsembleBuilder::new(config.lshe.num_perm, config.lshe.seed);
        tr.span("minhash.sign", |_| {
            for (key, tokens) in &domains {
                let sig = builder
                    .hasher()
                    .signature(tokens.iter().map(String::as_str));
                builder.insert_signature(*key, tokens.len(), sig);
            }
        });
        probe.signatures += domains.len();
        drop(domains);
        let ensemble = tr.span("minhash.band", |_| {
            builder.build(config.lshe.num_partitions)
        });
        drop(ensemble);
    }
    probe
}

/// Put the build probe's sizes into the report.
pub fn report_probe(report: &mut Report, probe: &BuildProbe) {
    report.metric(
        "discovery.size.lshe_postings",
        probe.lshe_postings as f64,
        "count",
        1,
    );
    report.metric(
        "discovery.size.santos_postings",
        probe.santos_postings as f64,
        "count",
        1,
    );
    report.metric(
        "discovery.size.metadata_postings",
        probe.metadata_postings as f64,
        "count",
        1,
    );
    report.metric("discovery.size.pool", probe.pool as f64, "count", 1);
    report.metric("minhash.signatures", probe.signatures as f64, "count", 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv(
            "--workload serve-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-hot");
        assert_eq!(a.seed, 7);
        assert_eq!(a.window(), Duration::from_secs(10));
        assert!(a.trace);
        assert!(Args::parse(&argv("--workload x --seed 1")).is_err());
        assert!(Args::parse(&argv("--workload x --seed 1 --seconds 0")).is_err());
        assert!(Args::parse(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(Args::parse(&argv("--seed")).is_err());
    }
}
