//! The `pipeline` workload: discover → align → integrate → analyze over a
//! heterogeneous open-data-shaped lake, one closed-loop client.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dialite_align::{HolisticMatcher, KbAnnotator};
use dialite_analyze::{stats::describe, EntityResolver};
use dialite_core::{Pipeline, PipelineError};
use dialite_datagen::HeterogeneousLakeWorkload;
use dialite_discovery::{union_integration_set, Discovered, TableQuery};
use dialite_integrate::{AliteFd, Integrator, OuterJoinIntegrator};
use dialite_table::{DataLake, Table};

use crate::common::{self, Args, SETUP_REPS};
use crate::digest;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Breakdown, Tracer};
use crate::{discovery_counters, traced_summary};

/// Lake tables.
pub const TABLES: usize = 4_000;
/// Rows of the largest lake tables.
pub const MAX_ROWS: usize = 64;
/// Value-mode queries; as many header-mode queries ride along.
pub const QUERIES: usize = 1_024;
/// Tables each discovery engine returns per query. The outer-join
/// comparison integrator takes the Cartesian product of integration-set
/// tables that share no aligned column, so its output grows exponentially
/// with the set size: at the demo's default of 5 some seeds drive it past
/// two million rows and tens of gigabytes.
pub const TOP_K: usize = 2;

pub fn spec(seed: u64) -> HeterogeneousLakeWorkload {
    HeterogeneousLakeWorkload {
        tables: TABLES,
        queries: QUERIES,
        max_rows: MAX_ROWS,
        seed,
        ..HeterogeneousLakeWorkload::default()
    }
}

/// The generated inputs: the lake tables and the interleaved query stream
/// (value query `i`, then header query `i`).
pub struct Inputs {
    pub tables: Vec<Table>,
    pub queries: Vec<TableQuery>,
    pub digest: u64,
}

pub fn inputs(seed: u64) -> Inputs {
    let spec = spec(seed);
    let tables: Vec<Table> = spec.stream().collect();
    let values = spec.queries();
    let headers = spec.header_queries();
    let digest = digest::fold(
        digest::tables(&tables),
        digest::tables(values.iter().chain(&headers)),
    );
    let queries = values
        .into_iter()
        .zip(headers)
        .flat_map(|(v, h)| [TableQuery::with_column(v, 0), TableQuery::new(h)])
        .collect();
    Inputs {
        tables,
        queries,
        digest,
    }
}

/// Content digest and row count of one integrated table.
type Out = (u64, usize);

/// What one pipeline run produced, for the output checks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunDigest {
    alite: Out,
    outer_join: Out,
}

fn out(t: &Table) -> Out {
    (digest::table(t), t.row_count())
}

/// The stage pieces `Pipeline::demo_configured` assembles, held by the
/// benchmark so the traced run can call each one itself.
struct Stages {
    matcher: HolisticMatcher,
    alite: AliteFd,
    outer_join: OuterJoinIntegrator,
    er: EntityResolver,
}

impl Stages {
    fn demo() -> Stages {
        Stages {
            matcher: HolisticMatcher::default()
                .with_annotator(Arc::new(KbAnnotator::new(common::kb()))),
            alite: AliteFd::default(),
            outer_join: OuterJoinIntegrator,
            er: EntityResolver::demo_default(),
        }
    }
}

/// Work counts of one traced run.
#[derive(Default)]
struct Work {
    columns: usize,
    ids: usize,
    rows_in: usize,
    alite_rows: usize,
    outer_join_rows: usize,
    er_entities: usize,
}

/// The outputs `Pipeline::run` itself integrates a query to.
fn reference(
    pipeline: &Pipeline,
    lake: &DataLake,
    query: &TableQuery,
) -> Result<RunDigest, PipelineError> {
    let run = pipeline.run(lake, query)?;
    Ok(RunDigest {
        alite: out(run.integrated.table()),
        outer_join: out(run.alternatives[0].1.table()),
    })
}

/// `Pipeline::run` composed from its public pieces, each under a span.
/// Returns the outputs' digest when `digest` asks for it (digesting is
/// not a layer's work, so it is skipped on runs that are not checked) and
/// the number of SANTOS hits.
fn run_traced(
    pipeline: &Pipeline,
    lake: &DataLake,
    query: &TableQuery,
    stages: &Stages,
    tr: &mut Tracer,
    work: &mut Work,
    digest: bool,
) -> Result<(Option<RunDigest>, u64), PipelineError> {
    let discovered = tr.span("discovery.stage", |_| pipeline.discover_stage(lake, query));
    let set = tr.span("table.integration_set", |_| {
        let results: Vec<Vec<Discovered>> =
            discovered.iter().map(|(_, hits)| hits.clone()).collect();
        let mut set: Vec<Arc<Table>> = vec![query.table.clone()];
        for name in union_integration_set(&results) {
            set.push(lake.require(&name)?);
        }
        Ok::<_, PipelineError>(set)
    })?;
    if set.len() == 1 {
        return Err(PipelineError::EmptyIntegrationSet);
    }
    let refs: Vec<&Table> = set.iter().map(|t| t.as_ref()).collect();
    let alignment = tr.span("align.holistic", |_| stages.matcher.align(&refs));
    let alite = tr.span("integrate.alite", |_| {
        stages.alite.integrate(&refs, &alignment)
    })?;
    let outer = tr.span("integrate.outer_join", |_| {
        stages.outer_join.integrate(&refs, &alignment)
    })?;
    std::hint::black_box(tr.span("analyze.describe", |_| describe(alite.table())));
    let er = tr.span("analyze.er", |_| stages.er.resolve(alite.table()));

    work.columns += refs.iter().map(|t| t.column_count()).sum::<usize>();
    work.ids += alignment.num_ids();
    work.rows_in += refs.iter().map(|t| t.row_count()).sum::<usize>();
    work.alite_rows += alite.row_count();
    work.outer_join_rows += outer.row_count();
    work.er_entities += er.entity_count();
    let digest = digest.then(|| RunDigest {
        alite: out(alite.table()),
        outer_join: out(outer.table()),
    });
    Ok((digest, discovered[0].1.len() as u64))
}

/// Checks every run's outputs against the first run of the same query.
struct Checker {
    reference: Vec<Option<RunDigest>>,
    checked: Vec<u32>,
}

impl Checker {
    fn new(n: usize) -> Checker {
        Checker {
            reference: vec![None; n],
            checked: vec![0; n],
        }
    }

    /// Whether a run of query `q` should be digested: the warm-up's and
    /// the untraced loop's first.
    fn wants(&self, q: usize) -> bool {
        self.checked[q] < 2
    }

    fn check(&mut self, report: &mut Report, q: usize, got: RunDigest, what: &str) {
        self.checked[q] += 1;
        match self.reference[q] {
            None => self.reference[q] = Some(got),
            Some(want) => report.check(want == got, || {
                format!("{what}: query {q} integrated to {got:?}, earlier run gave {want:?}")
            }),
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let inputs = inputs(args.seed);
    report.check(inputs.digest == self::inputs(args.seed).digest, || {
        "pipeline inputs differ between two generations of one seed".into()
    });
    report.info(format!("input digest {:016x}", inputs.digest));

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, (lake, pipeline)) = common::timed_setups(
        reps,
        || inputs.tables.clone(),
        |tables| {
            let lake = common::ingest(tables);
            let mut pipeline = Pipeline::demo_configured(&lake, 1, common::index_config());
            pipeline.set_top_k(TOP_K);
            (lake, pipeline)
        },
    );

    let queries = &inputs.queries;
    let n = queries.len();
    let er = EntityResolver::demo_default();
    let mut checker = Checker::new(n);
    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };

    // Warm-up: one untimed pass over every query fills the planner's
    // caches and records each query's reference outputs.
    let mut largest = 0usize;
    for (q, query) in queries.iter().enumerate() {
        report.attempted += 1;
        match reference(&pipeline, &lake, query) {
            Ok(want) => {
                largest = largest.max(want.outer_join.1);
                checker.check(report, q, want, "Pipeline::run");
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("query {q} failed: {e}"));
            }
        }
    }

    // Untraced closed loop: one client, each run waits for the previous.
    pipeline.reset_telemetry();
    let mut latency = Samples::default();
    let mut per_query: Vec<Samples> = vec![Samples::default(); n];
    let mut busy = Duration::ZERO;
    let mut santos_hits = 0u64;
    let deadline = Instant::now() + window;
    let mut i = 0usize;
    while Instant::now() < deadline || latency.len() == 0 {
        let q = i % n;
        i += 1;
        report.attempted += 1;
        let t0 = Instant::now();
        let result = pipeline.run(&lake, &queries[q]).inspect(|run| {
            let table = run.integrated.table();
            std::hint::black_box(describe(table));
            std::hint::black_box(er.resolve(table));
        });
        let dt = t0.elapsed();
        match result {
            Ok(run) => {
                busy += dt;
                santos_hits += run.discovered[0].1.len() as u64;
                latency.push(dt.as_secs_f64() * 1e3);
                per_query[q].push(dt.as_secs_f64() * 1e3);
                if checker.wants(q) {
                    let got = RunDigest {
                        alite: out(run.integrated.table()),
                        outer_join: out(run.alternatives[0].1.table()),
                    };
                    checker.check(report, q, got, "Pipeline::run");
                }
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("query {q} failed: {e}"));
            }
        }
    }
    let completed = latency.len();
    report.info(format!("largest outer join of any query: {largest} rows"));
    let gated = !args.trace;
    let runs_per_s = completed as f64 / busy.as_secs_f64();
    report.put(gated, "setup_s", setup_s, "s", reps);
    report.put(
        gated,
        "latency_p50_ms",
        latency.percentile(50.0),
        "ms",
        completed,
    );
    report.put(
        gated,
        "latency_p90_ms",
        latency.percentile(90.0),
        "ms",
        completed,
    );
    report.put(gated, "ops_per_s", runs_per_s, "1/s", completed);
    report.note("run_p50_ms", latency.percentile(50.0), "ms", completed);
    report.note("run_p90_ms", latency.percentile(90.0), "ms", completed);
    report.note("runs_per_s", runs_per_s, "1/s", completed);
    if gated {
        report.check(latency.supports(90.0), || {
            format!("{completed} runs are too few for a p90 with ten runs beyond it")
        });
        return;
    }

    // Traced closed loop over the same query stream, composed stage by
    // stage; every run must integrate to exactly what `Pipeline::run` gave.
    let stages = Stages::demo();
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let mut work = Work::default();
    let mut traced: Vec<Samples> = vec![Samples::default(); n];
    let deadline = Instant::now() + window;
    let mut j = 0usize;
    while Instant::now() < deadline || j == 0 {
        let q = j % n;
        j += 1;
        tr.set_request(j as u64);
        let t0 = Instant::now();
        let first = traced[q].0.is_empty();
        let result = run_traced(
            &pipeline,
            &lake,
            &queries[q],
            &stages,
            &mut tr,
            &mut work,
            first,
        );
        let dt = t0.elapsed();
        report.attempted += 1;
        match result {
            Ok((got, hits)) => {
                santos_hits += hits;
                traced[q].push(dt.as_secs_f64() * 1e3);
                if let Some(got) = got {
                    checker.check(report, q, got, "traced composition");
                }
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("traced query {q} failed: {e}"));
            }
        }
    }
    let wall = origin.elapsed();
    let runs = traced.iter().map(Samples::len).sum::<usize>().max(1);
    let mut breakdown = Breakdown::default();
    breakdown.add(&tr.spans);
    let per = |v: usize| v as f64 / runs as f64;
    report.metric(
        "align.ms",
        breakdown.mean_us("align.holistic") / 1e3,
        "ms",
        runs,
    );
    report.metric("align.columns", per(work.columns), "count", runs);
    report.metric("align.ids", per(work.ids), "count", runs);
    report.metric(
        "integrate.alite_ms",
        breakdown.mean_us("integrate.alite") / 1e3,
        "ms",
        runs,
    );
    report.metric("integrate.alite_rows", per(work.alite_rows), "count", runs);
    report.metric(
        "integrate.outer_join_ms",
        breakdown.mean_us("integrate.outer_join") / 1e3,
        "ms",
        runs,
    );
    report.metric(
        "integrate.outer_join_rows",
        per(work.outer_join_rows),
        "count",
        runs,
    );
    report.metric("integrate.rows_in", per(work.rows_in), "count", runs);
    report.metric(
        "analyze.describe_ms",
        breakdown.mean_us("analyze.describe") / 1e3,
        "ms",
        runs,
    );
    report.metric(
        "analyze.er_ms",
        breakdown.mean_us("analyze.er") / 1e3,
        "ms",
        runs,
    );
    report.metric("analyze.er_entities", per(work.er_entities), "count", runs);
    let telemetry = pipeline.telemetry().unwrap_or_default();
    discovery_counters(report, &telemetry, santos_hits);
    for (metric, latency) in [
        ("discovery.query.joinable_us", &telemetry.joinable_latency),
        ("discovery.query.santos_us", &telemetry.santos_latency),
        ("discovery.query.metadata_us", &telemetry.metadata_latency),
    ] {
        report.metric(
            metric,
            latency.total_micros as f64 / latency.samples.max(1) as f64,
            "us",
            latency.samples as usize,
        );
    }
    report.metric("shard.scored_imbalance", 1.0, "ratio", 1);

    // Tracing overhead: traced over untraced time on the queries both
    // loops ran, each query weighted once.
    let (mut plain, mut with) = (0.0, 0.0);
    for (a, b) in per_query.iter().zip(&traced) {
        if a.len() > 0 && b.len() > 0 {
            plain += a.mean();
            with += b.mean();
        }
    }
    let overhead = if plain > 0.0 { with / plain - 1.0 } else { 0.0 };

    // Set-up, traced once more layer by layer on a fresh lake.
    let mut st = Tracer::new(true, Instant::now());
    let lake2 = st.span("table.ingest", |_| common::ingest(inputs.tables.clone()));
    let p2 = st.span("discovery.build", |_| {
        Pipeline::demo_configured(&lake2, 1, common::index_config())
    });
    drop(p2);
    let probe = common::probe_build(&lake2, &common::kb(), &common::index_config(), 1, &mut st);
    let mut setup = Breakdown::default();
    setup.add(&st.spans);
    traced_summary(report, &breakdown, wall, 1, overhead, &setup, &probe);
}
