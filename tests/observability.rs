//! The observability non-interference contract: recorder state is
//! invisible to every decomposition. `canonical_bytes` must be identical
//! whether the span recorder is disabled (the default), enabled, or
//! enabled with a sink already holding thousands of buffered events —
//! across the full `(problem, engine)` support matrix. The instrumentation
//! sweep only ever *reads* the clock and *writes* metrics/spans; the
//! moment it consumed randomness or reordered work, these tests would
//! catch the drift.
//!
//! The recorder is process-global, so every case serializes on a lock and
//! restores the disabled/empty state before releasing it.
//!
//! One more test pins the registry metric and span names the benchmark
//! reads by string.

use forest_decomp::algorithm2::{algorithm2, Algorithm2Config};
use forest_decomp::api::{
    Decomposer, DecompositionRequest, EdgeUpdate, Engine, ProblemKind, VersionedDecomposer,
};
use forest_graph::{generators, ListAssignment, MultiGraph, VertexId};
use forest_obs::metrics::MetricDetail;
use forest_obs::{event, recorder, Registry, Span};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes recorder toggling across the binary's test threads.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// A simple graph every problem kind can run on (star problems require
/// simplicity).
fn workload(n: usize, graph_seed: u64) -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    generators::planted_simple_arboricity(n.max(8), 3, &mut rng)
        .graph()
        .clone()
}

fn supported(problem: ProblemKind, engine: Engine) -> bool {
    match engine {
        Engine::HarrisSuVu => true,
        Engine::BarenboimElkin | Engine::ExactMatroid => {
            matches!(problem, ProblemKind::Forest | ProblemKind::Orientation)
        }
        Engine::Folklore2Alpha => matches!(problem, ProblemKind::StarForest),
    }
}

/// One run of the facade under the recorder state the caller arranged.
fn canonical_run(problem: ProblemKind, engine: Engine, seed: u64, g: &MultiGraph) -> Vec<u8> {
    Decomposer::new(
        DecompositionRequest::new(problem)
            .with_engine(engine)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(seed),
    )
    .run(g)
    .expect("supported combination")
    .canonical_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Disabled vs enabled vs full-sink recorder: three byte-identical
    /// runs for every supported `(problem, engine)` the case draws.
    #[test]
    fn recorder_state_never_changes_canonical_bytes(
        (combo, seed, n, graph_seed) in (0..16usize, 0..10_000u64, 8..48usize, 0..64u64)
    ) {
        let problem = ProblemKind::ALL[combo / Engine::ALL.len()];
        let engine = Engine::ALL[combo % Engine::ALL.len()];
        if !supported(problem, engine) {
            return Ok(());
        }
        let g = workload(n, graph_seed);

        let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        recorder().disable();
        recorder().clear();
        let disabled = canonical_run(problem, engine, seed, &g);

        recorder().enable();
        let enabled = canonical_run(problem, engine, seed, &g);

        // A sink already loaded with thousands of buffered events: the
        // slow path keeps pushing chunks, the decomposition must not care.
        for i in 0..4_096u32 {
            if i % 2 == 0 {
                let _span = Span::enter("obs.filler");
                event("obs.filler_event");
            } else {
                event("obs.filler_event");
            }
        }
        let full_sink = canonical_run(problem, engine, seed, &g);

        recorder().disable();
        recorder().clear();
        drop(_guard);

        prop_assert_eq!(&disabled, &enabled);
        prop_assert_eq!(&disabled, &full_sink);
    }

    /// Toggling the recorder *between* runs of the same request is also
    /// invisible: a disabled run after an instrumented one reproduces the
    /// first disabled run exactly (no state leaks through the sink drain).
    #[test]
    fn drain_between_runs_is_invisible(
        (combo, seed) in (0..16usize, 0..10_000u64)
    ) {
        let problem = ProblemKind::ALL[combo / Engine::ALL.len()];
        let engine = Engine::ALL[combo % Engine::ALL.len()];
        if !supported(problem, engine) {
            return Ok(());
        }
        let g = workload(24, 5);

        let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        recorder().disable();
        recorder().clear();
        let before = canonical_run(problem, engine, seed, &g);
        recorder().enable();
        canonical_run(problem, engine, seed, &g);
        let drained = recorder().drain();
        recorder().disable();
        let after = canonical_run(problem, engine, seed, &g);
        recorder().clear();
        drop(_guard);

        // The facade span recorded during the enabled run made it out.
        prop_assert!(
            drained.iter().any(|e| e.name == "decomp.run"),
            "instrumented run produced no facade span"
        );
        prop_assert_eq!(&before, &after);
    }
}

/// Current value of a registry counter (0 before first use).
fn counter(name: &str) -> u64 {
    Registry::global().value_of(name).unwrap_or(0)
}

/// Observation count of a registry histogram (0 before first use).
fn histogram_count(name: &str) -> u64 {
    Registry::global()
        .snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .and_then(|m| match m.detail {
            MetricDetail::Histogram(h) => Some(h.count),
            _ => None,
        })
        .unwrap_or(0)
}

/// The benchmark harness reads these registry metrics and spans by name
/// and treats a missing one as 0, so a rename would go unnoticed there.
/// A forced-radii HSV run (the only way into the `PowerView` expansion
/// counter) plus a versioned update batch must move every one of them.
#[test]
fn benchmark_metric_and_span_names_are_emitted() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    recorder().disable();
    recorder().clear();

    let g = generators::fat_path(300, 2);
    let clusters = counter("algo2.clusters_total");
    let expansions = counter("algo2.ball_expansions_total");
    let peel_rounds = counter("hpartition.peel_rounds_total");
    let batches = histogram_count("dynamic.batch_nanos");

    recorder().enable();
    Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(2)
            .with_radii(8, 4)
            .with_seed(9),
    )
    .run(&g)
    .expect("forced-radii HSV run");
    let mut versioned = VersionedDecomposer::from_graph(
        DecompositionRequest::new(ProblemKind::Forest).with_engine(Engine::ExactMatroid),
        &generators::path(16),
    )
    .expect("versioned decomposer");
    versioned
        .apply_batch(&[EdgeUpdate::insert(VertexId::new(0), VertexId::new(2))])
        .expect("update batch");
    versioned.publish();
    recorder().disable();
    let events = recorder().drain();

    assert!(counter("algo2.clusters_total") > clusters);
    assert!(counter("algo2.ball_expansions_total") > expansions);
    assert!(counter("hpartition.peel_rounds_total") > peel_rounds);
    assert!(histogram_count("dynamic.batch_nanos") > batches);
    for span in ["algo2.cluster_loop", "hpartition.peel", "versioned.publish"] {
        assert!(
            events.iter().any(|e| e.name == span),
            "span {span:?} missing from the trace"
        );
    }

    // Every test of this binary runs its decompositions under the lock, so
    // the expansion counter moves by exactly this run's expansions.
    let lists = ListAssignment::uniform(g.num_edges(), 3);
    let config = Algorithm2Config::new(0.5, 2).with_radii(8, 4);
    let before = counter("algo2.ball_expansions_total");
    let out =
        algorithm2(&g, &lists, &config, &mut StdRng::seed_from_u64(9)).expect("algorithm2 run");
    let stats = &out.pipeline_stats;
    assert!(stats.power_ball_expansions > 0);
    assert_eq!(
        counter("algo2.ball_expansions_total") - before,
        stats.power_ball_expansions
    );
}
