//! `batch`: many small inputs through `Decomposer::run_batch` on the default
//! rayon threads. One job is one `run_batch` call per row: Forest ×
//! HarrisSuVu and Forest × ExactMatroid over 128 graphs (the historic 64
//! planted multigraphs plus 64 seeded simple ones), and StarForest ×
//! HarrisSuVu over the 64 simple graphs (star forests need simple inputs).

use crate::measure::{self, Algo2Counters, RoundTally, Samples, SpanFold, JOB_SPAN};
use crate::{Ctx, Outcome, Scale};
use forest_decomp::api::{
    Decomposer, DecompositionReport, DecompositionRequest, Engine, ProblemKind, Validate,
};
use forest_graph::{generators, matroid, MultiGraph};
use forest_obs::{Span, Stopwatch};
use rand::{rngs::StdRng, SeedableRng};

const EPSILON: f64 = 0.5;

/// One `run_batch` call of a job.
struct Row {
    name: &'static str,
    decomposer: Decomposer,
    /// Whether the row runs on the simple graphs only.
    simple_only: bool,
}

struct Inputs {
    forest: Vec<MultiGraph>,
    simple: Vec<MultiGraph>,
}

impl Inputs {
    fn of(&self, row: &Row) -> &[MultiGraph] {
        if row.simple_only {
            &self.simple
        } else {
            &self.forest
        }
    }
}

fn rows() -> Vec<Row> {
    let request = |problem, engine| {
        Decomposer::new(
            DecompositionRequest::new(problem)
                .with_engine(engine)
                .with_alpha(3)
                .with_epsilon(EPSILON)
                .with_seed(9)
                .without_validation(),
        )
    };
    vec![
        Row {
            name: "hsv",
            decomposer: request(ProblemKind::Forest, Engine::HarrisSuVu),
            simple_only: false,
        },
        Row {
            name: "exact",
            decomposer: request(ProblemKind::Forest, Engine::ExactMatroid),
            simple_only: false,
        },
        Row {
            name: "star",
            decomposer: request(ProblemKind::StarForest, Engine::HarrisSuVu),
            simple_only: true,
        },
    ]
}

fn inputs(ctx: &Ctx) -> Inputs {
    let count = match ctx.scale {
        Scale::Full => 64,
        Scale::Tiny => 8,
    };
    let size = |i: usize| 48 + (i % 7) * 8;
    // The historic multigraphs keep their fixed seed; the simple graphs
    // follow the run's seed.
    let mut historic = StdRng::seed_from_u64(8);
    let mut seeded = StdRng::seed_from_u64(ctx.seed);
    let simple: Vec<MultiGraph> = (0..count)
        .map(|i| generators::planted_simple_arboricity(size(i), 3, &mut seeded).into())
        .collect();
    let mut forest: Vec<MultiGraph> = (0..count)
        .map(|i| generators::planted_forest_union(size(i), 3, &mut historic))
        .collect();
    forest.extend(simple.iter().cloned());
    Inputs { forest, simple }
}

/// The reports of one job, row by row and aligned with the row's inputs
/// (`None` where the run failed), and each row's `run_batch` time.
struct Job {
    ms: f64,
    row_ms: Vec<f64>,
    reports: Vec<Vec<Option<DecompositionReport>>>,
    failed: u64,
}

fn job(rows: &[Row], inputs: &Inputs) -> Job {
    let clock = Stopwatch::start();
    let mut row_ms = Vec::with_capacity(rows.len());
    let mut results = Vec::with_capacity(rows.len());
    for row in rows {
        let t = Stopwatch::start();
        results.push(row.decomposer.run_batch(inputs.of(row)));
        row_ms.push(measure::ms(&t));
    }
    let ms = measure::ms(&clock);
    let mut failed = 0;
    let reports = results
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|r| {
                    r.map_err(|e| {
                        eprintln!("batch: run failed: {e}");
                        failed += 1;
                    })
                    .ok()
                })
                .collect()
        })
        .collect();
    Job {
        ms,
        row_ms,
        reports,
        failed,
    }
}

/// Validates every report of a job against its graph and checks its
/// canonical bytes against the run's first job.
fn check(
    rows: &[Row],
    inputs: &Inputs,
    reports: &[Vec<Option<DecompositionReport>>],
    reference: &mut Option<Vec<u64>>,
    out: &mut Outcome,
) {
    let mut hashes = Vec::new();
    for (row, row_reports) in rows.iter().zip(reports) {
        for (g, report) in inputs.of(row).iter().zip(row_reports) {
            let Some(report) = report else { continue };
            if let Err(e) = report.validate(g) {
                out.problem(format!("{} report failed validation: {e}", row.name));
            }
            hashes.push(measure::fnv64(&report.canonical_bytes()));
        }
    }
    match reference {
        None => *reference = Some(hashes),
        Some(r) if *r != hashes => out.problem("canonical bytes differ between jobs of one run"),
        Some(_) => {}
    }
}

/// A plain single-threaded `run` loop over each row's graphs, the traced
/// job of this workload. Returns the pass time and each row's time.
fn sequential_pass(rows: &[Row], inputs: &Inputs, out: &mut Outcome) -> (f64, Vec<f64>) {
    let _job = Span::enter(JOB_SPAN);
    let clock = Stopwatch::start();
    let mut row_ms = Vec::with_capacity(rows.len());
    for row in rows {
        let t = Stopwatch::start();
        for g in inputs.of(row) {
            let result = {
                let _run = Span::enter("bench.facade.run");
                row.decomposer.run(g)
            };
            out.attempted += 1;
            match result {
                Ok(report) => {
                    let _validate = Span::enter("bench.report.validate");
                    if let Err(e) = report.validate(g) {
                        out.problem(format!("{} report failed validation: {e}", row.name));
                    }
                }
                Err(e) => {
                    eprintln!("batch: sequential run failed: {e}");
                    out.failed += 1;
                }
            }
        }
        row_ms.push(measure::ms(&t));
    }
    (measure::ms(&clock), row_ms)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let rows = rows();
    // Set-up makes the inputs and runs one warm-up job, so lazy set-up
    // inside the library is finished before anything is timed.
    let (inputs, setup_s) = measure::repeated_setup(measure::SETUP_REPEATS, || {
        let inputs = inputs(ctx);
        let warm = job(&rows, &inputs);
        if warm.failed > 0 {
            return Err(format!("{} runs failed in the warm-up job", warm.failed));
        }
        Ok(inputs)
    })?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let mut reference = None;
    let mut first_reports = None;

    let untraced_seconds = if ctx.trace {
        ctx.seconds * 0.4
    } else {
        ctx.seconds
    };
    let mut jobs = Samples::default();
    let mut row_samples = vec![Samples::default(); rows.len()];
    let mut seq_samples = Samples::default();
    let mut seq_row_samples = vec![Samples::default(); rows.len()];
    let clock = Stopwatch::start();
    let mut done = 0;
    while measure::keep_going(&clock, untraced_seconds, done, 1) {
        done += 1;
        let j = job(&rows, &inputs);
        out.attempted += rows.iter().map(|r| inputs.of(r).len() as u64).sum::<u64>();
        out.failed += j.failed;
        jobs.push(j.ms);
        for (s, ms) in row_samples.iter_mut().zip(&j.row_ms) {
            s.push(*ms);
        }
        check(&rows, &inputs, &j.reports, &mut reference, &mut out);
        if first_reports.is_none() {
            first_reports = Some(j.reports);
        }
        if ctx.trace {
            // The untraced sequential pass, the base of the speed-up and
            // of the tracing overhead.
            let (ms, per_row) = sequential_pass(&rows, &inputs, &mut out);
            seq_samples.push(ms);
            for (s, ms) in seq_row_samples.iter_mut().zip(&per_row) {
                s.push(*ms);
            }
        }
    }
    let reports = first_reports.unwrap_or_default();

    if !ctx.trace {
        out.record_jobs(&jobs);
        let edges: usize = rows
            .iter()
            .map(|r| {
                inputs
                    .of(r)
                    .iter()
                    .map(MultiGraph::num_edges)
                    .sum::<usize>()
            })
            .sum();
        out.metrics
            .set("edges_per_s", edges as f64 / (jobs.median() / 1e3));
        let colors: usize = reports
            .iter()
            .flatten()
            .flatten()
            .map(|r| r.num_colors)
            .sum();
        out.metrics.set("colors", colors as f64);
        out.metrics.set("peak_rss_mb", measure::peak_rss_mb("self"));
        return Ok(out);
    }

    // Traced sequential passes give the per-layer split (rayon worker span
    // buffers are not flushed at scope exit, so `run_batch` itself is not
    // split).
    let mut traced: Vec<(f64, SpanFold, Algo2Counters)> = Vec::new();
    let mut coverage = Vec::new();
    let clock = Stopwatch::start();
    while measure::keep_going(&clock, ctx.seconds - untraced_seconds, traced.len(), 1) {
        let before = Algo2Counters::read();
        measure::start_tracing();
        let (ms, _) = sequential_pass(&rows, &inputs, &mut out);
        let fold = measure::stop_tracing();
        coverage.push(fold.totals(JOB_SPAN));
        traced.push((ms, fold, before.since()));
    }
    out.record_coverage(&coverage);
    let traced_ms: Samples = traced.iter().map(|(ms, _, _)| *ms).collect();
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_frac",
        traced_ms.median() / seq_samples.median() - 1.0,
    );
    if let Some((_, fold, counters)) = traced.get(traced_ms.median_index()) {
        fold.print_table("batch");
        m.set(
            "algo2.cluster_loop_self_ms",
            fold.self_ms("algo2.cluster_loop"),
        );
        m.set("hpartition.peel_self_ms", fold.self_ms("hpartition.peel"));
        counters.record(m);
    }
    let (mut batch_sum, mut seq_sum) = (0.0, 0.0);
    for ((row, batch), seq) in rows.iter().zip(&row_samples).zip(&seq_row_samples) {
        m.set(&format!("batch.run_batch_ms.{}", row.name), batch.median());
        m.set(&format!("batch.sequential_ms.{}", row.name), seq.median());
        batch_sum += batch.median();
        seq_sum += seq.median();
    }
    m.set("batch.parallel_speedup", seq_sum / batch_sum);

    let mut rounds = RoundTally::default();
    for (row, row_reports) in rows.iter().zip(&reports) {
        if row.decomposer.request().engine == Engine::HarrisSuVu {
            for (g, report) in inputs.of(row).iter().zip(row_reports) {
                if let Some(report) = report {
                    rounds.add(&report.ledger, g.num_vertices(), EPSILON);
                }
            }
        }
    }
    rounds.record(m);

    // The matroid layer on the Exact row's graphs, called directly.
    let t = Stopwatch::start();
    for g in &inputs.forest {
        std::hint::black_box(matroid::arboricity(g));
    }
    m.set("matroid.arboricity_ms", measure::ms(&t));
    let t = Stopwatch::start();
    for g in &inputs.forest {
        std::hint::black_box(matroid::exact_forest_decomposition(g));
    }
    m.set("matroid.exact_decomposition_ms", measure::ms(&t));
    Ok(out)
}
