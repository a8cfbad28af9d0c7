//! `ingest`: the north-star path, single thread. One job turns a binary
//! edge file into a validated report: `extsort::build_csr_from_edge_file`
//! with a sort buffer small enough to spill, `Decomposer::run_out_of_core`
//! under a budget of CSR bytes / 8, then `Validate::validate` against
//! `CsrGraph::load_mmap` of the same file.

use crate::measure::{self, Algo2Counters, RoundTally, Samples, SpanFold, JOB_SPAN};
use crate::{Ctx, Outcome, Scale};
use forest_decomp::api::{
    Decomposer, DecompositionRequest, Engine, OocConfig, OocOutcome, ProblemKind, Validate,
};
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, BuildStats, EdgeListFormat, ExtsortConfig,
};
use forest_graph::{generators, MmapCsr, MultiGraph};
use forest_obs::{Span, Stopwatch};
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;

const EPSILON: f64 = 0.5;

struct Sizes {
    vertices: usize,
    sort_buffer_bytes: usize,
    min_spilled_runs: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // 600k edges = 1.2M incidence records of 12 bytes: a 1 MiB buffer
        // spills about 14 runs.
        Scale::Full => Sizes {
            vertices: 200_000,
            sort_buffer_bytes: 1 << 20,
            min_spilled_runs: 10,
        },
        Scale::Tiny => Sizes {
            vertices: 4_000,
            sort_buffer_bytes: 16 << 10,
            min_spilled_runs: 2,
        },
    }
}

struct Input {
    graph: MultiGraph,
    edge_file: PathBuf,
    edge_file_bytes: u64,
    csr_file: PathBuf,
}

fn setup(ctx: &Ctx, sizes: &Sizes) -> Result<Input, String> {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let graph = generators::planted_forest_union(sizes.vertices, 3, &mut rng);
    let edge_file = ctx.work_dir.join("ingest.edges");
    write_binary_edge_file(
        &edge_file,
        graph.edges().map(|(_, u, v)| (u.raw(), v.raw())),
    )
    .map_err(|e| format!("writing {}: {e}", edge_file.display()))?;
    let edge_file_bytes = std::fs::metadata(&edge_file)
        .map_err(|e| format!("stat {}: {e}", edge_file.display()))?
        .len();
    Ok(Input {
        graph,
        edge_file,
        edge_file_bytes,
        csr_file: ctx.work_dir.join("ingest.csr"),
    })
}

/// One job's results and the time of each layer call in it.
struct Job {
    ms: f64,
    build: BuildStats,
    build_ms: f64,
    ooc: OocOutcome,
    ooc_ms: f64,
    load_ms: f64,
    validate_ms: f64,
    validation: Result<(), String>,
}

fn job(input: &Input, sizes: &Sizes, decomposer: &Decomposer) -> Result<Job, String> {
    let _job = Span::enter(JOB_SPAN);
    let clock = Stopwatch::start();

    let span = Span::enter("bench.extsort.build_csr_from_edge_file");
    let t = Stopwatch::start();
    let build = build_csr_from_edge_file(
        &input.edge_file,
        EdgeListFormat::BinaryU32,
        &input.csr_file,
        &ExtsortConfig::with_budget(sizes.sort_buffer_bytes),
    )
    .map_err(|e| format!("extsort: {e}"))?;
    let build_ms = measure::ms(&t);
    drop(span);

    let budget = usize::try_from(build.output_bytes / 8).map_err(|e| e.to_string())?;
    let span = Span::enter("bench.oocore.run_out_of_core");
    let t = Stopwatch::start();
    let ooc = decomposer
        .run_out_of_core(&input.csr_file, &OocConfig::with_budget(budget))
        .map_err(|e| format!("run_out_of_core: {e}"))?;
    let ooc_ms = measure::ms(&t);
    drop(span);

    let span = Span::enter("bench.csr.load_mmap");
    let t = Stopwatch::start();
    let csr = MmapCsr::load_mmap(&input.csr_file).map_err(|e| format!("load_mmap: {e}"))?;
    let load_ms = measure::ms(&t);
    drop(span);

    let span = Span::enter("bench.report.validate");
    let t = Stopwatch::start();
    let validation = ooc.report.validate(&csr).map_err(|e| e.to_string());
    let validate_ms = measure::ms(&t);
    drop(span);

    Ok(Job {
        ms: measure::ms(&clock),
        build,
        build_ms,
        ooc,
        ooc_ms,
        load_ms,
        validate_ms,
        validation,
    })
}

/// Checks one job's output: valid, spilled enough, and byte-identical to
/// the run's first report.
fn check(job: &Job, sizes: &Sizes, first: &mut Option<Vec<u8>>, out: &mut Outcome) {
    if let Err(e) = &job.validation {
        out.problem(format!("report failed validation: {e}"));
    }
    if job.build.spilled_runs < sizes.min_spilled_runs {
        out.problem(format!(
            "extsort spilled {} runs, fewer than {}",
            job.build.spilled_runs, sizes.min_spilled_runs
        ));
    }
    let bytes = job.ooc.report.canonical_bytes();
    match first {
        None => *first = Some(bytes),
        Some(reference) if *reference != bytes => {
            out.problem("canonical bytes differ between jobs of one run")
        }
        Some(_) => {}
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = sizes(ctx.scale);
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_alpha(3)
            .with_epsilon(EPSILON)
            .with_seed(9)
            .without_validation(),
    );
    let (input, setup_s) = measure::repeated_setup(measure::SETUP_REPEATS, || setup(ctx, &sizes))?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let mut first_bytes = None;
    let mut num_shards = 0;

    // Untraced jobs: the whole run, or the first 40% of a traced one.
    let untraced_seconds = if ctx.trace {
        ctx.seconds * 0.4
    } else {
        ctx.seconds
    };
    let mut untraced = Samples::default();
    let clock = Stopwatch::start();
    let mut attempted = 0;
    while measure::keep_going(&clock, untraced_seconds, attempted, 1) {
        attempted += 1;
        match job(&input, &sizes, &decomposer) {
            Ok(j) => {
                untraced.push(j.ms);
                check(&j, &sizes, &mut first_bytes, &mut out);
                num_shards = j.ooc.stats.num_shards;
                out.metrics.set("colors", j.ooc.report.num_colors as f64);
            }
            Err(e) => {
                eprintln!("ingest: job failed: {e}");
                out.failed += 1;
            }
        }
    }
    out.attempted = attempted as u64;

    if ctx.trace {
        let mut traced: Vec<(Job, SpanFold, Algo2Counters)> = Vec::new();
        let mut coverage = Vec::new();
        let clock = Stopwatch::start();
        let mut attempted = 0;
        while measure::keep_going(&clock, ctx.seconds - untraced_seconds, attempted, 1) {
            attempted += 1;
            let before = Algo2Counters::read();
            measure::start_tracing();
            let result = job(&input, &sizes, &decomposer);
            let fold = measure::stop_tracing();
            match result {
                Ok(j) => {
                    check(&j, &sizes, &mut first_bytes, &mut out);
                    coverage.push(fold.totals(JOB_SPAN));
                    traced.push((j, fold, before.since()));
                }
                Err(e) => {
                    eprintln!("ingest: traced job failed: {e}");
                    out.failed += 1;
                }
            }
        }
        out.attempted += attempted as u64;
        out.record_coverage(&coverage);
        let traced_ms: Samples = traced.iter().map(|(j, _, _)| j.ms).collect();
        if let Some((j, fold, counters)) = traced.get(traced_ms.median_index()) {
            fold.print_table("ingest");
            out.metrics.set(
                "trace.overhead_frac",
                traced_ms.median() / untraced.median() - 1.0,
            );
            record_layers(&mut out, &input, j, fold, counters);
        }
    } else {
        out.record_jobs(&untraced);
        let m = input.graph.num_edges() as f64;
        out.metrics
            .set("edges_per_s", m / (untraced.median() / 1e3));
        out.metrics.set("peak_rss_mb", measure::peak_rss_mb("self"));
    }

    // Once per run, outside the timed jobs: the out-of-core report must be
    // the in-memory sharded run's at the same shard count.
    if let Some(reference) = &first_bytes {
        match decomposer.run_sharded(&input.graph, num_shards) {
            Ok(sharded) if sharded.canonical_bytes() == *reference => {}
            Ok(_) => out.problem(format!(
                "run_out_of_core differs from run_sharded at {num_shards} shards"
            )),
            Err(e) => out.problem(format!("run_sharded failed: {e}")),
        }
    }
    let _ = std::fs::remove_file(&input.edge_file);
    let _ = std::fs::remove_file(&input.csr_file);
    Ok(out)
}

fn record_layers(out: &mut Outcome, input: &Input, j: &Job, fold: &SpanFold, c: &Algo2Counters) {
    let m = &mut out.metrics;
    let nanos_ms = |n: u64| n as f64 / 1e6;
    m.set("extsort.build_ms", j.build_ms);
    m.set("extsort.read_spill_ms", nanos_ms(j.build.read_spill_nanos));
    m.set("extsort.merge_ms", nanos_ms(j.build.merge_nanos));
    m.set("extsort.spilled_runs", j.build.spilled_runs as f64);
    m.set(
        "extsort.mb_per_s",
        input.edge_file_bytes as f64 / 1e6 / (j.build_ms / 1e3),
    );
    m.set("csr.load_mmap_ms", j.load_ms);
    m.set("csr.file_mb", j.build.output_bytes as f64 / 1e6);
    m.set("report.validate_ms", j.validate_ms);

    // Phases and total of the same call.
    let s = &j.ooc.stats;
    let phases = [
        ("ooc.plan_ms", s.plan_nanos),
        ("ooc.shard_walk_ms", s.decompose_nanos),
        ("ooc.stitch_ms", s.stitch_nanos),
        ("ooc.assemble_ms", s.assemble_nanos),
    ];
    m.set("ooc.run_ms", j.ooc_ms);
    for (name, nanos) in phases {
        m.set(name, nanos_ms(nanos));
    }
    let phase_ms: f64 = phases.iter().map(|(_, n)| nanos_ms(*n)).sum();
    m.set("ooc.unattributed_ms", j.ooc_ms - phase_ms);
    m.set("ooc.num_shards", s.num_shards as f64);
    m.set("ooc.boundary_edges", s.boundary_edges as f64);
    m.set(
        "ooc.peak_resident_frac",
        s.peak_resident_bytes as f64 / s.memory_budget_bytes.max(1) as f64,
    );

    m.set(
        "algo2.cluster_loop_self_ms",
        fold.self_ms("algo2.cluster_loop"),
    );
    m.set("hpartition.peel_self_ms", fold.self_ms("hpartition.peel"));
    c.record(m);
    let mut rounds = RoundTally::default();
    rounds.add(&j.ooc.report.ledger, input.graph.num_vertices(), EPSILON);
    rounds.record(m);
}
