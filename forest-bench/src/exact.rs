//! `exact`: the exact exchange path on churned graphs. Set-up builds 32
//! `DynamicDecomposer`s (ExactMatroid), each on a planted union of three
//! forests churned with random deletes and inserts. One job is
//! `DynamicDecomposer::snapshot()` of one of them, a cold ExactMatroid run
//! on its churned graph; jobs cycle through the 32. The cost of one such
//! run varies by a factor of two between graphs of the same size, so a run
//! takes its median over many graphs rather than over repeats of one.

use crate::measure::{self, Samples, JOB_SPAN};
use crate::{Ctx, Outcome, Scale};
use forest_decomp::api::{
    derive_seed, Decomposer, DecompositionReport, DecompositionRequest, DynamicDecomposer,
    EdgeUpdate, Engine, ProblemKind, Validate,
};
use forest_decomp::FdError;
use forest_graph::{generators, matroid, EdgeId, MultiGraph, VertexId};
use forest_obs::{Span, Stopwatch};
use rand::{rngs::StdRng, Rng, SeedableRng};

struct Sizes {
    graphs: usize,
    vertices: usize,
    churn_updates: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            graphs: 32,
            vertices: 320,
            churn_updates: 3_200,
        },
        Scale::Tiny => Sizes {
            graphs: 3,
            vertices: 60,
            churn_updates: 200,
        },
    }
}

fn request() -> DecompositionRequest {
    DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(13)
        .without_validation()
}

/// Applies `updates` single updates, alternating a delete of a random live
/// edge with an insert of a random vertex pair.
fn churn(dd: &mut DynamicDecomposer, rng: &mut StdRng, updates: usize) -> Result<(), FdError> {
    let n = dd.num_vertices();
    let mut live: Vec<EdgeId> = dd.live_graph().live_edges().map(|(e, _, _)| e).collect();
    let mut applied = 0;
    while applied < updates {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        dd.apply(EdgeUpdate::delete(victim))?;
        applied += 1;
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if applied == updates || u == v {
            continue;
        }
        live.push(
            dd.apply(EdgeUpdate::insert(VertexId::new(u), VertexId::new(v)))?
                .edge,
        );
        applied += 1;
    }
    Ok(())
}

/// One churned decomposer and the live graph its `snapshot()` runs on.
struct Churned {
    dd: DynamicDecomposer,
    graph: MultiGraph,
}

struct Input {
    churned: Vec<Churned>,
    /// Fallback rate over all churn streams.
    fallback_rate: f64,
}

fn setup(ctx: &Ctx, sizes: &Sizes) -> Result<Input, String> {
    let mut churned = Vec::with_capacity(sizes.graphs);
    let (mut fallbacks, mut updates) = (0, 0);
    for i in 0..sizes.graphs {
        let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, i as u64));
        let base = generators::planted_forest_union(sizes.vertices, 3, &mut rng);
        let mut dd = DynamicDecomposer::from_graph(request(), &base).map_err(|e| e.to_string())?;
        let before = dd.stats();
        churn(&mut dd, &mut rng, sizes.churn_updates).map_err(|e| format!("churn: {e}"))?;
        let after = dd.stats();
        fallbacks += (after.exchanges + after.budget_raises + after.compactions)
            - (before.exchanges + before.budget_raises + before.compactions);
        updates += after.updates - before.updates;
        let (graph, _) = dd.snapshot_graph();
        churned.push(Churned { dd, graph });
    }
    Ok(Input {
        churned,
        fallback_rate: fallbacks as f64 / updates.max(1) as f64,
    })
}

/// Validates the report of a job on graph `i` and checks its bytes
/// against the run's first report on that graph.
fn check(
    i: usize,
    report: &DecompositionReport,
    input: &Input,
    first: &mut [Option<Vec<u8>>],
    out: &mut Outcome,
) {
    if let Err(e) = report.validate(&input.churned[i].graph) {
        out.problem(format!("snapshot {i} failed validation: {e}"));
    }
    let bytes = report.canonical_bytes();
    match &first[i] {
        None => first[i] = Some(bytes),
        Some(r) if *r != bytes => out.problem(format!("snapshot {i} differs between jobs")),
        Some(_) => {}
    }
}

/// The traced job on `c`: the two public calls `snapshot()` is defined as
/// (the compacted live graph, then a cold run on it), each under its own
/// span. Returns the job time, the `snapshot_graph` time and the report.
fn traced_job(
    c: &Churned,
    decomposer: &Decomposer,
) -> Result<(f64, f64, DecompositionReport), FdError> {
    let _job = Span::enter(JOB_SPAN);
    let t = Stopwatch::start();
    let (g, graph_ms) = {
        let _s = Span::enter("bench.dynamic.snapshot_graph");
        let t = Stopwatch::start();
        let (g, _) = c.dd.snapshot_graph();
        (g, measure::ms(&t))
    };
    let _s = Span::enter("bench.facade.run");
    let report = decomposer.run(g)?;
    Ok((measure::ms(&t), graph_ms, report))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = sizes(ctx.scale);
    let (input, setup_s) = measure::repeated_setup(measure::SETUP_REPEATS, || setup(ctx, &sizes))?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let graphs = input.churned.len();
    let mut first = vec![None; graphs];

    // Untraced jobs: the whole run, or the first 40% of a traced one; at
    // least one pass over every graph.
    let untraced_seconds = if ctx.trace {
        ctx.seconds * 0.4
    } else {
        ctx.seconds
    };
    let mut jobs = Samples::default();
    let mut colors = vec![0; graphs];
    let clock = Stopwatch::start();
    while measure::keep_going(&clock, untraced_seconds, out.attempted as usize, graphs) {
        let i = out.attempted as usize % graphs;
        out.attempted += 1;
        let t = Stopwatch::start();
        let result = input.churned[i].dd.snapshot();
        let ms = measure::ms(&t);
        match result {
            Ok(report) => {
                jobs.push(ms);
                check(i, &report, &input, &mut first, &mut out);
                colors[i] = report.num_colors;
            }
            Err(e) => {
                eprintln!("exact: snapshot failed: {e}");
                out.failed += 1;
            }
        }
    }
    out.metrics
        .set("colors", colors.iter().sum::<usize>() as f64);
    let mean_edges = input
        .churned
        .iter()
        .map(|c| c.graph.num_edges())
        .sum::<usize>() as f64
        / graphs as f64;

    if ctx.trace {
        let decomposer = Decomposer::new(request());
        let mut traced = Samples::default();
        let mut graph_ms = Samples::default();
        let mut coverage = Vec::new();
        let mut folds = Vec::new();
        let clock = Stopwatch::start();
        let mut attempted = 0;
        while measure::keep_going(&clock, ctx.seconds - untraced_seconds, attempted, 1) {
            let i = attempted % graphs;
            attempted += 1;
            measure::start_tracing();
            let result = traced_job(&input.churned[i], &decomposer);
            let fold = measure::stop_tracing();
            coverage.push(fold.totals(JOB_SPAN));
            match result {
                Ok((ms, g_ms, report)) => {
                    traced.push(ms);
                    graph_ms.push(g_ms);
                    folds.push(fold);
                    check(i, &report, &input, &mut first, &mut out);
                }
                Err(e) => {
                    eprintln!("exact: traced run failed: {e}");
                    out.failed += 1;
                }
            }
        }
        out.attempted += attempted as u64;
        out.record_coverage(&coverage);
        if let Some(fold) = folds.get(traced.median_index()) {
            fold.print_table("exact");
        }
        let m = &mut out.metrics;
        m.set("trace.overhead_frac", traced.median() / jobs.median() - 1.0);
        // Per graph, like the job: medians over every churned graph.
        m.set("matroid.snapshot_graph_ms", graph_ms.median());
        let per_graph = |f: &dyn Fn(&MultiGraph)| -> f64 {
            let times: Samples = input
                .churned
                .iter()
                .map(|c| {
                    let t = Stopwatch::start();
                    f(&c.graph);
                    measure::ms(&t)
                })
                .collect();
            times.median()
        };
        m.set(
            "matroid.arboricity_ms",
            per_graph(&|g| {
                std::hint::black_box(matroid::arboricity(g));
            }),
        );
        m.set(
            "matroid.exact_decomposition_ms",
            per_graph(&|g| {
                std::hint::black_box(matroid::exact_forest_decomposition(g));
            }),
        );
        m.set("dynamic.fallback_rate", input.fallback_rate);
        m.set("dynamic.apply_batch_us", apply_batch_us(ctx, &input)?);
    } else {
        out.record_jobs(&jobs);
        out.metrics
            .set("edges_per_s", mean_edges / (jobs.median() / 1e3));
        out.metrics.set("peak_rss_mb", measure::peak_rss_mb("self"));
    }

    // Once per run, outside the timed jobs: each snapshot() must be the
    // cold run on the same graph.
    let cold = Decomposer::new(request());
    for (c, bytes) in input.churned.iter().zip(&first) {
        let Some(bytes) = bytes else { continue };
        match cold.run(&c.graph) {
            Ok(report) if report.canonical_bytes() == *bytes => {}
            Ok(_) => out.problem("snapshot() differs from a cold Decomposer::run"),
            Err(e) => out.problem(format!("cold run failed: {e}")),
        }
    }
    Ok(out)
}

/// Median time of one `apply_batch` of 8 updates (4 deletes, 4 inserts)
/// on a copy of the first churned decomposer, in microseconds.
fn apply_batch_us(ctx: &Ctx, input: &Input) -> Result<f64, String> {
    let mut dd = input.churned[0].dd.clone();
    let n = dd.num_vertices();
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, u64::MAX));
    let mut live: Vec<EdgeId> = dd.live_graph().live_edges().map(|(e, _, _)| e).collect();
    let mut times = Samples::default();
    for _ in 0..200 {
        let mut batch: Vec<EdgeUpdate> = (0..4)
            .map(|_| EdgeUpdate::delete(live.swap_remove(rng.gen_range(0..live.len()))))
            .collect();
        while batch.len() < 8 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                batch.push(EdgeUpdate::insert(VertexId::new(u), VertexId::new(v)));
            }
        }
        let t = Stopwatch::start();
        let report = dd
            .apply_batch(&batch)
            .map_err(|e| format!("apply_batch: {e}"))?;
        times.push(t.elapsed_nanos() as f64 / 1e3);
        live.extend(report.inserted_edges);
    }
    Ok(times.median())
}
