//! The serving workloads: a heterogeneous lake behind the discovery
//! service, driven by closed-loop clients replaying a read/churn trace.
//!
//! * `serve-hot` — no durability, 95:5 reads to writes over a query pool
//!   small enough for the planner's signature cache.
//! * `serve-churn` — the durable service, 50:50 over a pool that overflows
//!   the cache, then a restart from the commitlog and snapshot.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dialite_core::{DurableConfig, DurableLake, DurableService, Pipeline};
use dialite_datagen::{ChurnOp, HeterogeneousLakeWorkload, ServingOp};
use dialite_discovery::{
    top_k_discovered, Discovered, Discovery, DiscoveryBudget, DiscoveryService, LakeIndex,
    ServingConfig, ShardRouter, ShardedLakeIndex, TableQuery,
};
use dialite_kb::KnowledgeBase;
use dialite_minhash::SketchSnapshot;
use dialite_table::{DataLake, Table};

use crate::common::{self, Args, SETUP_REPS};
use crate::digest;
use crate::report::Report;
use crate::stats::{self, Samples};
use crate::trace::{Breakdown, Tracer};
use crate::{discovery_counters, scored_imbalance, traced_summary};

/// Closed-loop client threads (the host's CPU count).
pub const CLIENTS: usize = 2;
/// Index shards.
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Churn,
}

impl Mode {
    /// Lake tables. The churn lake is smaller so that its 50% writes push
    /// the LSH Ensemble past its re-partitioning threshold several times
    /// in every run, not zero or one times depending on the run's speed.
    pub fn tables(self) -> usize {
        match self {
            Mode::Hot => 8_000,
            Mode::Churn => 1_500,
        }
    }

    /// Query-pool size.
    pub fn pool(self) -> usize {
        match self {
            Mode::Hot => 1024,
            Mode::Churn => 2048,
        }
    }

    /// Distinct queries in play at any one time: 64 fits the planner's
    /// 64-entry signature cache, the whole 2048-query pool overflows it.
    pub fn working_set(self) -> usize {
        match self {
            Mode::Hot => 64,
            Mode::Churn => 2048,
        }
    }

    pub fn read_ratio(self) -> f64 {
        match self {
            Mode::Hot => 0.95,
            Mode::Churn => 0.5,
        }
    }

    /// Trace length; clients wrap around when a run outlasts it.
    pub fn ops(self) -> usize {
        match self {
            Mode::Hot => 40_000,
            Mode::Churn => 16_000,
        }
    }
}

/// Reads after which the hot working set moves on to the next slice of
/// the pool.
const PHASE_READS: usize = 512;

/// The pool query the `k`-th read of the trace asks: reads cycle through
/// a working set of consecutive pool entries, and the working set moves
/// along the pool every [`PHASE_READS`] reads.
fn read_target(mode: Mode, k: usize) -> usize {
    let ws = mode.working_set();
    ((k / PHASE_READS) * ws + k % ws) % mode.pool()
}

pub fn spec(mode: Mode, seed: u64) -> HeterogeneousLakeWorkload {
    HeterogeneousLakeWorkload {
        tables: mode.tables(),
        queries: mode.pool(),
        seed,
        ..HeterogeneousLakeWorkload::default()
    }
}

pub struct Inputs {
    pub tables: Vec<Table>,
    pub queries: Vec<TableQuery>,
    pub ops: Vec<ServingOp>,
    pub digest: u64,
}

fn op_digest(op: &ServingOp) -> u64 {
    match op {
        ServingOp::Query(i) => digest::fold(0, *i as u64),
        ServingOp::Mutate(ChurnOp::Add(t)) => digest::fold(1, digest::tables([t])),
        ServingOp::Mutate(ChurnOp::Replace(t)) => digest::fold(2, digest::tables([t])),
        ServingOp::Mutate(ChurnOp::Remove(name)) => digest::fold(3, digest::of(name)),
        ServingOp::Mutate(ChurnOp::Query(t)) => digest::fold(4, digest::tables([t])),
    }
}

pub fn inputs(mode: Mode, seed: u64) -> Inputs {
    let spec = spec(mode, seed);
    let tables: Vec<Table> = spec.stream().collect();
    let (pool, mut ops) = spec.serving_ops(mode.ops(), mode.read_ratio());
    // Reads follow `read_target` instead of the trace's Zipf ranks: with
    // Zipf popularity one or two queries carry most of the reads, so every
    // latency figure would hang on which table the seed happened to put
    // first. Many distinct queries per run keep runs of different seeds
    // comparable.
    let mut k = 0usize;
    for op in ops.iter_mut() {
        if let ServingOp::Query(i) = op {
            *i = read_target(mode, k);
            k += 1;
        }
    }
    let mut d = digest::fold(digest::tables(&tables), digest::tables(&pool));
    for op in &ops {
        d = digest::fold(d, op_digest(op));
    }
    Inputs {
        tables,
        queries: pool
            .into_iter()
            .map(|t| TableQuery::with_column(t, 0))
            .collect(),
        ops,
        digest: d,
    }
}

/// A directory for the durable store, inside the working
/// directory; removed again when dropped.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let dir = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the durable store directory");
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".perfbench");
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What a lake holds: its version and every table's name and content
/// digest, in name order.
#[derive(Debug, PartialEq)]
struct LakeSummary {
    version: u64,
    tables: Vec<(String, u64)>,
}

impl LakeSummary {
    fn of(lake: &DataLake) -> LakeSummary {
        let mut tables: Vec<(String, u64)> = lake
            .tables()
            .map(|t| (t.name().to_string(), digest::table(t)))
            .collect();
        tables.sort();
        LakeSummary {
            version: lake.version(),
            tables,
        }
    }

    /// `Ok` when `recovered` agrees on version, table count and every
    /// table's content.
    fn matches(&self, recovered: &DataLake) -> Result<(), String> {
        let got = LakeSummary::of(recovered);
        if got.version != self.version {
            return Err(format!(
                "recovered version {} != served version {}",
                got.version, self.version
            ));
        }
        if got.tables.len() != self.tables.len() {
            return Err(format!(
                "recovered {} tables, served {}",
                got.tables.len(),
                self.tables.len()
            ));
        }
        match got.tables.iter().zip(&self.tables).find(|(a, b)| a != b) {
            Some((_, (name, _))) => Err(format!("table {name} differs after recovery")),
            None => Ok(()),
        }
    }
}

/// What one client thread observed.
#[derive(Default)]
struct ClientOut {
    attempted: u64,
    failed: u64,
    queries: Samples,
    mutations: Samples,
    santos_hits: u64,
    errors: Vec<String>,
    tracer: Option<Tracer>,
}

/// Either serving front end, behind the two calls the clients make.
trait Front: Sync {
    fn query(&self, q: &TableQuery, tr: &mut Tracer) -> Result<(u64, Legs), String>;
    fn mutate(&self, op: &ServingOp, tr: &mut Tracer) -> Result<u64, String>;
}

type Legs = Vec<(String, Vec<Discovered>)>;

/// The untraced front ends: the program's own services.
enum Service {
    Hot(DiscoveryService),
    Churn(DurableService),
}

impl Service {
    fn inner(&self) -> &DiscoveryService {
        match self {
            Service::Hot(s) => s,
            Service::Churn(d) => d.service(),
        }
    }
}

impl Front for Service {
    fn query(&self, q: &TableQuery, _: &mut Tracer) -> Result<(u64, Legs), String> {
        self.inner()
            .query_default(q)
            .map(|r| (r.version, r.results))
            .map_err(|e| e.to_string())
    }

    fn mutate(&self, op: &ServingOp, _: &mut Tracer) -> Result<u64, String> {
        match self {
            Service::Hot(s) => Ok(s.mutate(|lake| op.apply_tolerant(lake))),
            Service::Churn(d) => d
                .mutate(|lake| op.apply_tolerant(lake))
                .map_err(|e| e.to_string()),
        }
    }
}

/// The service composed from public pieces — one scoped `LakeIndex` per
/// stripe, the lake behind a lock, the commitlog behind another — so every
/// call into a layer can sit inside its own span. Queries hold the lake
/// read guard for a consistent view instead of the service's lock-free
/// version protocol.
struct Composed {
    lake: RwLock<DataLake>,
    shards: Vec<RwLock<LakeIndex>>,
    durable: Option<Mutex<DurableLake>>,
    budget: DiscoveryBudget,
    k: usize,
    sync_signatures: AtomicU64,
}

impl Composed {
    fn sketches(&self) -> SketchSnapshot {
        let mut merged = SketchSnapshot::default();
        for shard in &self.shards {
            let part = shard.read().expect("shard lock").export_sketches();
            merged.num_perm = part.num_perm;
            merged.seed = part.seed;
            merged.domains.extend(part.domains);
        }
        merged
            .domains
            .sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        merged
    }

    fn sketch_work(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock").sketch_work())
            .sum()
    }
}

/// One shard's three legs, in the order `LakeIndex::discover_all_budgeted`
/// runs them.
fn shard_legs(
    ix: &LakeIndex,
    q: &TableQuery,
    k: usize,
    budget: &DiscoveryBudget,
    tr: &mut Tracer,
) -> Legs {
    let (santos, _) = tr.span("discovery.query.santos", |_| {
        ix.santos().discover_capped(q, k, budget.santos_candidates)
    });
    let (joinable, _) = tr.span("discovery.query.joinable", |_| {
        ix.discover_top_k_with_stats(q, k, &budget.joinable)
    });
    let mut legs = vec![
        (ix.santos().name().to_string(), santos),
        (ix.lshe().name().to_string(), joinable),
    ];
    if let Some(meta) = ix.metadata() {
        let (hits, _) = tr.span("discovery.query.metadata", |_| {
            meta.discover_capped(q, k, budget.metadata_candidates)
        });
        legs.push((meta.name().to_string(), hits));
    }
    legs
}

impl Front for Composed {
    fn query(&self, q: &TableQuery, tr: &mut Tracer) -> Result<(u64, Legs), String> {
        let root = tr.begin("serving.query");
        let lake = self.lake.read().map_err(|_| "lake lock poisoned")?;
        let version = lake.version();
        let split = self.budget.split(self.shards.len());
        let fan = tr.begin("shard.fanout");
        let parent = fan.as_ref().map(|o| o.id());
        let per_shard: Vec<(Legs, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.shards[1..]
                .iter()
                .map(|shard| {
                    let mut ct = tr.child(parent);
                    let split = &split;
                    scope.spawn(move || {
                        let ix = shard.read().expect("shard lock");
                        (shard_legs(&ix, q, self.k, split, &mut ct), ct)
                    })
                })
                .collect();
            let mut ct = tr.child(parent);
            let ix = self.shards[0].read().expect("shard lock");
            let mut out = vec![(shard_legs(&ix, q, self.k, &split, &mut ct), ct)];
            drop(ix);
            out.extend(handles.into_iter().map(|h| h.join().expect("shard thread")));
            out
        });
        let mut legs_per_shard = Vec::with_capacity(per_shard.len());
        for (legs, ct) in per_shard {
            tr.absorb(ct);
            legs_per_shard.push(legs);
        }
        tr.end(fan);
        // Concatenate the stripes' legs and re-rank each leg once; a single
        // stripe passes through untouched.
        let merged = tr.span("shard.merge", |_| {
            let mut merged = legs_per_shard.remove(0);
            if legs_per_shard.is_empty() {
                return merged;
            }
            for legs in legs_per_shard {
                for ((_, acc), (_, hits)) in merged.iter_mut().zip(legs) {
                    acc.extend(hits);
                }
            }
            for (_, acc) in merged.iter_mut() {
                *acc = top_k_discovered(std::mem::take(acc), self.k);
            }
            merged
        });
        drop(lake);
        tr.end(root);
        Ok((version, merged))
    }

    fn mutate(&self, op: &ServingOp, tr: &mut Tracer) -> Result<u64, String> {
        let root = tr.begin("serving.mutate");
        let mut lake = self.lake.write().map_err(|_| "lake lock poisoned")?;
        let since = lake.version();
        tr.span("table.churn_apply", |_| op.apply_tolerant(&mut lake));
        if let Some(durable) = &self.durable {
            tr.span("durable.append", |_| {
                durable
                    .lock()
                    .map_err(|_| "durable lock poisoned".to_string())?
                    .append_since(&lake, since)
                    .map_err(|e| e.to_string())
            })?;
        }
        let before = self.sketch_work();
        tr.span("discovery.sync", |_| {
            for shard in &self.shards {
                shard.write().expect("shard lock").sync(&lake);
            }
        });
        self.sync_signatures
            .fetch_add(self.sketch_work() - before, Ordering::Relaxed);
        let version = lake.version();
        drop(lake);
        tr.end(root);
        Ok(version)
    }
}

/// Replay the trace from `CLIENTS` closed-loop clients for `window`.
/// Returns the per-client observations and the wall time.
fn drive(
    front: &dyn Front,
    inputs: &Inputs,
    window: Duration,
    traced: bool,
) -> (Vec<ClientOut>, Duration) {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + window;
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let mut tr = Tracer::new(traced, start);
                    let mut seen = 0u64;
                    while Instant::now() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        tr.set_request(i as u64 + 1);
                        let op = &inputs.ops[i % inputs.ops.len()];
                        out.attempted += 1;
                        let t0 = Instant::now();
                        let result = match op {
                            ServingOp::Query(p) => {
                                front.query(&inputs.queries[*p], &mut tr).map(|(v, legs)| {
                                    out.santos_hits += legs[0].1.len() as u64;
                                    v
                                })
                            }
                            ServingOp::Mutate(_) => front.mutate(op, &mut tr),
                        };
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        match result {
                            Ok(version) => {
                                match op {
                                    ServingOp::Query(_) => out.queries.push(us),
                                    ServingOp::Mutate(_) => out.mutations.push(us),
                                }
                                if version < seen {
                                    out.errors
                                        .push(format!("client saw version {version} after {seen}"));
                                }
                                seen = seen.max(version);
                            }
                            Err(e) => {
                                out.failed += 1;
                                if out.errors.len() < 4 {
                                    out.errors.push(format!("op {i} failed: {e}"));
                                }
                            }
                        }
                    }
                    out.tracer = Some(tr);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (outs, start.elapsed())
}

/// Fold client observations into the report's counts and checks.
fn merge(report: &mut Report, outs: &mut [ClientOut]) -> (Samples, Samples, u64) {
    let mut queries = Samples::default();
    let mut mutations = Samples::default();
    let mut hits = 0;
    for out in outs.iter_mut() {
        report.attempted += out.attempted;
        report.failed += out.failed;
        for e in out.errors.drain(..) {
            report.check(false, || e);
        }
        queries.extend(std::mem::take(&mut out.queries));
        mutations.extend(std::mem::take(&mut out.mutations));
        hits += out.santos_hits;
    }
    (queries, mutations, hits)
}

fn service_config() -> ServingConfig {
    ServingConfig::default()
}

/// Build the untraced service over a fresh lake (and, for `serve-churn`,
/// a fresh durable store snapshotted at the start).
fn setup_service(mode: Mode, tables: Vec<Table>, dir: &Path) -> Service {
    match mode {
        Mode::Hot => Service::Hot(DiscoveryService::with_shards(
            common::ingest(tables),
            common::kb(),
            common::index_config(),
            service_config(),
            SHARDS,
        )),
        Mode::Churn => {
            let (pipeline, mut lake, durable) = Pipeline::open_durable_configured(
                dir,
                SHARDS,
                DurableConfig::default(),
                common::index_config(),
            )
            .expect("open the durable store");
            for t in tables {
                lake.add_table(t).expect("generated names are unique");
            }
            let service = pipeline
                .serve_durable(lake, service_config().max_in_flight, durable)
                .expect("the pipeline has indexed discovery");
            service.snapshot().expect("initial snapshot");
            Service::Churn(service)
        }
    }
}

pub fn run(args: &Args, mode: Mode, report: &mut Report) {
    let inputs = inputs(mode, args.seed);
    report.check(
        inputs.digest == self::inputs(mode, args.seed).digest,
        || "serving inputs differ between two generations of one seed".into(),
    );
    report.info(format!("input digest {:016x}", inputs.digest));
    let gated = !args.trace;
    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut store_dir = None;
    let (setup_s, service) = common::timed_setups(
        reps,
        || {
            drop(store_dir.take());
            let s = StoreDir::new("serve");
            let dir = s.0.clone();
            store_dir = Some(s);
            (inputs.tables.clone(), dir)
        },
        |(tables, dir)| setup_service(mode, tables, &dir),
    );
    let store_dir = store_dir.expect("a durable directory per set-up");

    // Reference answers at the initial lake state, for the traced
    // composition to reproduce.
    let probes = inputs.queries.len().min(32);
    let reference: Vec<Legs> = inputs.queries[..probes]
        .iter()
        .map(|q| service.inner().query_default(q).map(|r| r.results))
        .collect::<Result<_, _>>()
        .unwrap_or_default();
    service.inner().reset_telemetry();
    service.inner().with_state(|_, ix| ix.reset_telemetry());

    let (mut outs, wall) = drive(&service, &inputs, window, false);
    let (queries, mutations, santos_hits) = merge(report, &mut outs);
    let completed = queries.len() + mutations.len();
    let latency_ms = Samples(queries.0.iter().map(|us| us / 1e3).collect());

    report.put(gated, "setup_s", setup_s, "s", reps);
    report.put(
        gated,
        "latency_p50_ms",
        latency_ms.percentile(50.0),
        "ms",
        queries.len(),
    );
    report.put(
        gated,
        "latency_p90_ms",
        latency_ms.percentile(90.0),
        "ms",
        queries.len(),
    );
    report.put(
        gated,
        "ops_per_s",
        completed as f64 / wall.as_secs_f64(),
        "1/s",
        completed,
    );
    report.note(
        "query_p50_us",
        queries.percentile(50.0),
        "us",
        queries.len(),
    );
    report.note(
        "query_p99_us",
        queries.percentile(99.0),
        "us",
        queries.len(),
    );
    report.note(
        "mutate_p50_us",
        mutations.percentile(50.0),
        "us",
        mutations.len(),
    );
    report.note(
        "mutate_p99_us",
        mutations.percentile(99.0),
        "us",
        mutations.len(),
    );
    if let Some(p) = stats::tail_percentile(mutations.len()) {
        report.info(format!("mutations support up to p{p}"));
    }
    report.check(queries.supports(99.0), || {
        format!("{} queries are too few for a p99", queries.len())
    });
    if mode == Mode::Churn {
        report.check(mutations.supports(99.0), || {
            format!("{} mutations are too few for a p99", mutations.len())
        });
    }

    let serving = service.inner().telemetry();
    let own_mean =
        serving.query_latency.total_micros as f64 / serving.query_latency.samples.max(1) as f64;
    let discovery = service.inner().discovery_telemetry();
    let per_shard = service.inner().with_state(|_, ix| ix.telemetry_per_shard());
    report.check(serving.rejected == 0, || {
        format!("{} queries were refused as busy", serving.rejected)
    });

    if mode == Mode::Churn && !args.trace {
        let served = service.inner().with_state(|lake, _| LakeSummary::of(lake));
        drop(service);
        let t0 = Instant::now();
        let (pipeline, lake, durable) = Pipeline::open_durable_configured(
            &store_dir.0,
            SHARDS,
            DurableConfig::default(),
            common::index_config(),
        )
        .expect("reopen the durable store");
        let answer = pipeline.discover_stage(&lake, &inputs.queries[0]);
        report.note("recover_s", t0.elapsed().as_secs_f64(), "s", 1);
        report.check(!answer.is_empty(), || {
            "recovered pipeline gave no answer".into()
        });
        if let Err(e) = served.matches(&lake) {
            report.check(false, || e);
        }
        drop((pipeline, lake, durable));
        return;
    }
    if !args.trace {
        return;
    }
    drop(service);
    drop(store_dir);

    // Per-layer counters of the untraced loop.
    discovery_counters(report, &discovery, santos_hits);
    report.metric(
        "shard.scored_imbalance",
        scored_imbalance(&per_shard),
        "ratio",
        SHARDS,
    );
    report.metric("serving.busy", serving.rejected as f64, "count", 1);
    report.metric(
        "serving.query_overhead_us",
        queries.mean() - own_mean,
        "us",
        queries.len(),
    );

    traced(mode, &inputs, &reference, &queries, window, report);
}

/// The traced run: set-up, loop and (for `serve-churn`) restart composed
/// from public pieces, every layer call inside a span.
fn traced(
    mode: Mode,
    inputs: &Inputs,
    reference: &[Legs],
    untraced_queries: &Samples,
    window: Duration,
    report: &mut Report,
) {
    let kb: Arc<KnowledgeBase> = common::kb();
    let config = common::index_config();
    let store_dir = StoreDir::new("traced");
    let mut st = Tracer::new(true, Instant::now());
    let lake = st.span("table.ingest", |_| common::ingest(inputs.tables.clone()));
    let router = ShardRouter::new(SHARDS);
    let shards: Vec<RwLock<LakeIndex>> = st.span("discovery.build", |_| {
        (0..router.shards())
            .map(|s| {
                RwLock::new(LakeIndex::build_scoped(
                    &lake,
                    kb.clone(),
                    config.clone(),
                    router.scope(s),
                ))
            })
            .collect()
    });
    let probe = common::probe_build(&lake, &kb, &config, SHARDS, &mut st);
    let mut composed = Composed {
        lake: RwLock::new(lake),
        shards,
        durable: None,
        budget: service_config().budget,
        k: service_config().k,
        sync_signatures: AtomicU64::new(0),
    };
    if mode == Mode::Churn {
        let (mut durable, _) = st.span("durable.open", |_| {
            DurableLake::open(&store_dir.0, DurableConfig::default())
                .expect("open the durable store")
        });
        let sketches = composed.sketches();
        st.span("durable.snapshot", |_| {
            let lake = composed.lake.read().expect("lake lock");
            durable
                .write_snapshot(&lake, Some(&sketches))
                .expect("initial snapshot")
        });
        composed.durable = Some(Mutex::new(durable));
    }
    let mut setup = Breakdown::default();
    setup.add(&st.spans);
    report.metric(
        "durable.snapshot_ms",
        setup.total_ms("durable.snapshot"),
        "ms",
        setup.count("durable.snapshot") as usize,
    );
    report.metric(
        "durable.snapshot_bytes",
        dir_bytes(&store_dir.0) as f64,
        "bytes",
        1,
    );

    // The composition answers exactly as the service did at the same
    // initial state.
    let mut quiet = Tracer::new(false, Instant::now());
    for (i, want) in reference.iter().enumerate() {
        let got = composed.query(&inputs.queries[i], &mut quiet).map(|r| r.1);
        report.check(got.as_ref() == Ok(want), || {
            format!("traced composition answered query {i} differently from the service")
        });
    }
    report.check(!reference.is_empty(), || {
        "no reference answers recorded".into()
    });
    for shard in &composed.shards {
        shard.read().expect("shard lock").reset_telemetry();
    }

    let (mut outs, wall) = drive(&composed, inputs, window, true);
    let mut breakdown = Breakdown::default();
    for out in &outs {
        if let Some(tr) = &out.tracer {
            breakdown.add(&tr.spans);
        }
    }
    let (queries, mutations, _) = merge(report, &mut outs);
    let overhead = if untraced_queries.len() > 0 && queries.len() > 0 {
        queries.mean() / untraced_queries.mean() - 1.0
    } else {
        0.0
    };
    for (metric, span) in [
        ("discovery.query.joinable_us", "discovery.query.joinable"),
        ("discovery.query.santos_us", "discovery.query.santos"),
        ("discovery.query.metadata_us", "discovery.query.metadata"),
        ("discovery.sync_us", "discovery.sync"),
        ("table.churn_apply_us", "table.churn_apply"),
        ("durable.append_us", "durable.append"),
    ] {
        report.metric(
            metric,
            breakdown.mean_us(span),
            "us",
            breakdown.count(span) as usize,
        );
    }
    report.metric(
        "discovery.sync.signatures",
        composed.sync_signatures.load(Ordering::Relaxed) as f64 / mutations.len().max(1) as f64,
        "count",
        mutations.len(),
    );
    traced_summary(report, &breakdown, wall, CLIENTS, overhead, &setup, &probe);

    if mode == Mode::Churn {
        let durable = composed.durable.take().expect("durable composition");
        let log_records = durable.lock().expect("durable lock").log_len();
        report.metric("durable.log_records", log_records as f64, "count", 1);
        drop(durable);
        let served = LakeSummary::of(&composed.lake.into_inner().expect("lake lock"));
        drop(composed.shards);

        // Restart, composed as `Pipeline::open_durable_configured` does it.
        let mut rt = Tracer::new(true, Instant::now());
        let (durable, recovery) = rt.span("durable.open", |_| {
            DurableLake::open(&store_dir.0, DurableConfig::default()).expect("reopen")
        });
        let index = rt.span("discovery.warm_build", |_| match &recovery.sketches {
            Some(sketches) => ShardedLakeIndex::build_warm(
                &recovery.snapshot,
                kb.clone(),
                config.clone(),
                SHARDS,
                sketches,
            ),
            None => ShardedLakeIndex::build(&recovery.snapshot, kb.clone(), config.clone(), SHARDS),
        });
        rt.span("discovery.replay_sync", |_| index.sync(&recovery.lake));
        let answer = rt.span("serving.first_query", |_| {
            index.discover_all_budgeted(
                &inputs.queries[0],
                service_config().k,
                &service_config().budget,
            )
        });
        report.check(!answer.is_empty(), || {
            "recovered index gave no answer".into()
        });
        if let Err(e) = served.matches(&recovery.lake) {
            report.check(false, || e);
        }
        let mut restart = Breakdown::default();
        restart.add(&rt.spans);
        report.metric("durable.open_ms", restart.total_ms("durable.open"), "ms", 1);
        report.metric(
            "discovery.warm_build_ms",
            restart.total_ms("discovery.warm_build"),
            "ms",
            1,
        );
        report.metric("durable.replayed", recovery.replayed as f64, "count", 1);
        drop((durable, index));
    }
}
