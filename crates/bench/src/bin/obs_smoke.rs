//! The observability smoke run CI executes: one instrumented end-to-end
//! pipeline — raw edge file → external-sort CSR build → out-of-core
//! decomposition → in-process server publish/query (including the PR 10
//! `Metrics` op) — whose drained spans must validate structurally and
//! cover all three instrumented layers (`extsort.*` in forest-graph,
//! `ooc.*` in forest-decomp, `versioned.publish` in the service path) in
//! a single chrome-trace JSON. A recorder-disabled run of the identical
//! pipeline is asserted byte-identical first: the trace is free evidence,
//! never an input. Last, the disabled-path bound: the per-site cost of a
//! recorder-off `Span::enter`, times the span sites one batch run visits,
//! must stay below 3% of that batch run's wall clock.
//!
//! Usage: `obs_smoke [trace-output.json]` (default `obs_trace.json`).
//! Exits non-zero on any violated contract; prints a one-line summary per
//! stage so the CI log shows where a failure happened.

use forest_decomp::api::oocore::OocConfig;
use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind};
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, EdgeListFormat, ExtsortConfig,
};
use forest_graph::{generators, MultiGraph};
use forest_obs::clock::Stopwatch;
use forest_obs::export::{chrome_trace_json, prometheus_text, validate_trace};
use forest_obs::{recorder, Phase, Registry, Span, TraceEvent};
use forest_serve::{GraphSource, Request, Response, ServerState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One full pipeline pass: build the CSR from the edge file, decompose it
/// out of core, and return the canonical report bytes.
fn pipeline(edge_file: &std::path::Path, csr_file: &std::path::Path) -> Vec<u8> {
    let build = build_csr_from_edge_file(
        edge_file,
        EdgeListFormat::BinaryU32,
        csr_file,
        &ExtsortConfig::with_budget(32 << 10),
    )
    .expect("extsort build");
    assert!(build.spilled_runs > 1, "budget too big to exercise spills");
    let csr_bytes = std::fs::metadata(csr_file).expect("csr metadata").len() as usize;
    let outcome = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_alpha(4)
            .with_seed(9)
            .without_validation(),
    )
    .run_out_of_core(csr_file, &OocConfig::with_budget(csr_bytes / 4))
    .expect("out-of-core run");
    outcome.report.canonical_bytes()
}

/// Drives the in-process server: register, two update batches, queries,
/// and the `Metrics` op twice to check monotonicity.
fn drive_server() {
    use forest_decomp::api::EdgeUpdate;
    let state = ServerState::new();
    let resp = state.handle(&Request::RegisterGraph {
        tenant: "ci".into(),
        graph: "smoke".into(),
        engine: Engine::ExactMatroid,
        epsilon: 0.5,
        seed: 13,
        source: GraphSource::Edges {
            num_vertices: 64,
            edges: (0..63u64).map(|i| (i, i + 1)).collect(),
        },
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let metrics = |state: &ServerState| -> (u64, Vec<(String, u64)>) {
        match state.handle(&Request::Metrics {
            tenant: "ci".into(),
            graph: "smoke".into(),
        }) {
            Response::MetricsReport { epoch, entries } => (epoch, entries),
            other => panic!("metrics op failed: {other:?}"),
        }
    };
    let (_, before) = metrics(&state);
    for batch in 0..2u64 {
        let resp = state.handle(&Request::ApplyUpdates {
            tenant: "ci".into(),
            graph: "smoke".into(),
            updates: (0..8)
                .map(|i| EdgeUpdate::insert(i, (i + batch as usize * 8 + 9) % 64))
                .collect(),
        });
        assert!(matches!(resp, Response::Applied { .. }), "{resp:?}");
        let resp = state.handle(&Request::ColorOfEdge {
            tenant: "ci".into(),
            graph: "smoke".into(),
            edge: 0,
        });
        assert!(matches!(resp, Response::EdgeColor { .. }), "{resp:?}");
    }
    let (epoch, after) = metrics(&state);
    assert_eq!(epoch, 2, "two published batches");
    for ((name, then), (name2, now)) in before.iter().zip(after.iter()) {
        assert_eq!(name, name2, "metric names must be stable");
        assert!(now >= then, "{name} went backwards: {then} -> {now}");
    }
}

/// The 64-graph batch the disabled-path bound is measured on: planted
/// multigraphs, n in 48..96, α 3.
fn batch_workload() -> Vec<MultiGraph> {
    let mut rng = StdRng::seed_from_u64(8);
    (0..64)
        .map(|i| generators::planted_forest_union(48 + (i % 7) * 8, 3, &mut rng))
        .collect()
}

fn median_ms<F: FnMut()>(samples: usize, mut run: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Stopwatch::start();
            run();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Asserts that span sites cost under 3% of a batch run while the recorder
/// is off: the microbenched cost of a recorder-off `Span::enter`,
/// multiplied by the span sites one instrumented batch run visits, over
/// the recorder-off batch wall clock.
fn disabled_path_bound() {
    let graphs = batch_workload();
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(9)
            .without_validation(),
    );
    let run_batch = || {
        for g in &graphs {
            decomposer.run(g).unwrap();
        }
    };
    // Span sites one instrumented batch run visits (Begin + Instant
    // events are each one `Span::enter`/`event` call).
    recorder().clear();
    recorder().enable();
    run_batch();
    recorder().disable();
    let batch_span_sites = recorder()
        .drain()
        .iter()
        .filter(|e| !matches!(e.phase, Phase::End))
        .count();
    let batch_disabled_ms = median_ms(5, run_batch);

    // `black_box` keeps the guard from being optimized to nothing; the
    // probe span name never records because the recorder is off.
    let probe_iters = 4_000_000u64;
    let probe = Stopwatch::start();
    for _ in 0..probe_iters {
        let _ = std::hint::black_box(Span::enter("obs.disabled_probe"));
    }
    let ns_per_disabled_span = probe.elapsed_nanos() as f64 / probe_iters as f64;
    let disabled_bound_pct =
        batch_span_sites as f64 * ns_per_disabled_span / (batch_disabled_ms * 1e6) * 100.0;
    assert!(
        disabled_bound_pct < 3.0,
        "disabled-path bound {disabled_bound_pct:.4}% breaches the 3% criterion \
         ({batch_span_sites} sites x {ns_per_disabled_span:.2} ns over {batch_disabled_ms:.1} ms)"
    );
    eprintln!(
        "obs_smoke: disabled-path bound {disabled_bound_pct:.4}% < 3% \
         ({batch_span_sites} sites x {ns_per_disabled_span:.2} ns over {batch_disabled_ms:.1} ms)"
    );
}

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "obs_trace.json".to_string());
    let dir = std::env::temp_dir();
    let edge_file = dir.join(format!("obs-smoke-{}.edges", std::process::id()));
    let csr_file = dir.join(format!("obs-smoke-{}.csr", std::process::id()));
    let g = generators::fat_path(6_000, 4);
    write_binary_edge_file(&edge_file, g.edges().map(|(_, u, v)| (u.raw(), v.raw())))
        .expect("write edge file");

    // Baseline: recorder off (the default, asserted rather than assumed).
    assert!(!recorder().is_enabled(), "recorder must start disabled");
    let quiet_bytes = pipeline(&edge_file, &csr_file);
    eprintln!("obs_smoke: disabled-recorder pipeline done");

    // The instrumented pass: identical bytes, plus a trace.
    recorder().clear();
    recorder().enable();
    let traced_bytes = pipeline(&edge_file, &csr_file);
    drive_server();
    recorder().disable();
    let events: Vec<TraceEvent> = recorder().drain();
    std::fs::remove_file(&edge_file).ok();
    std::fs::remove_file(&csr_file).ok();
    assert_eq!(
        quiet_bytes, traced_bytes,
        "instrumented run must be byte-identical to the disabled run"
    );
    eprintln!(
        "obs_smoke: instrumented pipeline byte-identical, {} events drained",
        events.len()
    );

    // Structural validation: balanced spans, monotone per-thread stamps.
    validate_trace(&events).expect("trace must validate");
    // All three layers in the one trace.
    for required in [
        "extsort.read_spill", // forest-graph
        "extsort.merge",
        "ooc.run", // forest-decomp
        "ooc.plan",
        "ooc.shard_walk",
        "ooc.shard",
        "ooc.stitch",
        "ooc.assemble",
        "versioned.publish", // the service layer
    ] {
        assert!(
            events.iter().any(|e| e.name == required),
            "span {required:?} missing from the trace"
        );
    }
    eprintln!("obs_smoke: trace validated, all three layers present");

    let json = chrome_trace_json(&events);
    std::fs::write(&trace_path, &json).expect("write trace");
    eprintln!(
        "obs_smoke: wrote {trace_path} ({} bytes, {} events)",
        json.len(),
        events.len()
    );

    // The metric registry made it through the same run; print the
    // prometheus exposition head so the CI log carries real numbers.
    let snapshot = Registry::global().snapshot();
    assert!(
        snapshot.iter().any(|m| m.name == "extsort.builds_total"),
        "registry missing extsort counters"
    );
    assert!(
        snapshot.iter().any(|m| m.name == "ooc.runs_total"),
        "registry missing out-of-core counters"
    );
    let text = prometheus_text(&snapshot);
    for line in text.lines().take(12) {
        eprintln!("obs_smoke: {line}");
    }

    disabled_path_bound();
    println!(
        "obs_smoke: ok ({} events, {} metrics)",
        events.len(),
        snapshot.len()
    );
}
