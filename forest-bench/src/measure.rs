//! Measurement plumbing shared by the workloads: the metric catalogue, job
//! sampling with medians and tails, peak memory, the host's parallel
//! capacity, and the fold of drained `forest-obs` spans into inclusive and
//! self time per span name.

use forest_obs::{Phase, Registry, Stopwatch, TraceEvent};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_ms", "ms"),
    ("job_ms_tail", "ms"),
    ("edges_per_s", "1/s"),
    ("colors", "count"),
    ("peak_rss_mb", "MB"),
];

/// Operations of the `serve` request stream, as they appear in the
/// `server.*_us.<op>` metric names.
pub const SERVE_OPS: [&str; 4] = [
    "apply_updates",
    "color_of_edge",
    "forest_of_vertex",
    "watermark",
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.rayon_threads", "count"),
    ("host.parallel_capacity", "x"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("serve.query_us", "us"),
    ("serve.query_us_tail", "us"),
    ("serve.update_us", "us"),
    ("serve.update_us_tail", "us"),
    ("serve.ops_per_s", "1/s"),
    ("extsort.build_ms", "ms"),
    ("extsort.read_spill_ms", "ms"),
    ("extsort.merge_ms", "ms"),
    ("extsort.spilled_runs", "count"),
    ("extsort.mb_per_s", "MB/s"),
    ("csr.load_mmap_ms", "ms"),
    ("csr.file_mb", "MB"),
    ("report.validate_ms", "ms"),
    ("ooc.run_ms", "ms"),
    ("ooc.plan_ms", "ms"),
    ("ooc.shard_walk_ms", "ms"),
    ("ooc.stitch_ms", "ms"),
    ("ooc.assemble_ms", "ms"),
    ("ooc.unattributed_ms", "ms"),
    ("ooc.num_shards", "count"),
    ("ooc.boundary_edges", "count"),
    ("ooc.peak_resident_frac", "frac"),
    ("algo2.cluster_loop_self_ms", "ms"),
    ("hpartition.peel_self_ms", "ms"),
    ("algo2.clusters", "count"),
    ("algo2.ball_expansions", "count"),
    ("algo2.cache_hit_ratio", "frac"),
    ("hpartition.peel_rounds", "count"),
    ("rounds.total", "rounds"),
    ("rounds.hpartition", "rounds"),
    ("rounds.algorithm2", "rounds"),
    ("rounds.orientation", "rounds"),
    ("rounds.star_forest", "rounds"),
    ("rounds.stitch", "rounds"),
    ("rounds.other", "rounds"),
    ("rounds.ratio_to_bound", "x"),
    ("batch.run_batch_ms.hsv", "ms"),
    ("batch.run_batch_ms.exact", "ms"),
    ("batch.run_batch_ms.star", "ms"),
    ("batch.sequential_ms.hsv", "ms"),
    ("batch.sequential_ms.exact", "ms"),
    ("batch.sequential_ms.star", "ms"),
    ("batch.parallel_speedup", "x"),
    ("matroid.snapshot_graph_ms", "ms"),
    ("matroid.arboricity_ms", "ms"),
    ("matroid.exact_decomposition_ms", "ms"),
    ("dynamic.apply_batch_us", "us"),
    ("dynamic.fallback_rate", "frac"),
    ("versioned.publish_us", "us"),
    ("server.handle_us.apply_updates", "us"),
    ("server.handle_us.color_of_edge", "us"),
    ("server.handle_us.forest_of_vertex", "us"),
    ("server.handle_us.watermark", "us"),
    ("server.codec_us.apply_updates", "us"),
    ("server.codec_us.color_of_edge", "us"),
    ("server.codec_us.forest_of_vertex", "us"),
    ("server.codec_us.watermark", "us"),
    ("server.transport_us.apply_updates", "us"),
    ("server.transport_us.color_of_edge", "us"),
    ("server.transport_us.forest_of_vertex", "us"),
    ("server.transport_us.watermark", "us"),
];

/// The smallest share of the traced jobs' wall time their layer spans must
/// cover: `1 - Σ self(bench.job) / Σ inclusive(bench.job)` over the run.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// Name of the span every traced job runs under.
pub const JOB_SPAN: &str = "bench.job";

/// Named metric values of one run; units come from the catalogue.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let key = catalogue_name(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.0.insert(key, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders the `metrics` object: every metric of `catalogue`, in
    /// catalogue order, with unrecorded ones as 0.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Names whose recorded value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(k, _)| *k)
            .collect()
    }
}

fn catalogue_name(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
}

/// Wall-clock samples of one kind, in their own unit.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Every sample multiplied by `factor` (a unit change).
    pub fn scaled(&self, factor: f64) -> Samples {
        self.0.iter().map(|v| v * factor).collect()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count); 0
    /// without samples.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest of the percentiles 99.9, 99 and 90 with at least ten
    /// samples beyond it, as `(percentile, value)` by nearest rank. Below
    /// 100 samples none has; p90 is reported all the same, because the
    /// maximum of a few samples swings with every host hiccup.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let rank = |p: f64| (v.len() as f64 * p / 100.0).ceil() as usize;
        let p = [99.9, 99.0]
            .into_iter()
            .find(|&p| v.len() - rank(p) >= 10)
            .unwrap_or(90.0);
        (p, v.get(rank(p).max(1) - 1).copied().unwrap_or(0.0))
    }

    /// Index of the sample closest to the median (the "median sample",
    /// whose companion numbers are reported together).
    pub fn median_index(&self) -> usize {
        let m = self.median();
        (0..self.0.len())
            .min_by(|&a, &b| (self.0[a] - m).abs().total_cmp(&(self.0[b] - m).abs()))
            .unwrap_or(0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

/// Whether a timed loop that started at `clock` should start another job:
/// until `seconds` have passed and at least `min_jobs` ran.
pub fn keep_going(clock: &Stopwatch, seconds: f64, done: usize, min_jobs: usize) -> bool {
    done < min_jobs || clock.elapsed().as_secs_f64() < seconds
}

/// Milliseconds since `clock` started.
pub fn ms(clock: &Stopwatch) -> f64 {
    clock.elapsed_nanos() as f64 / 1e6
}

/// How often a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` `repeats` times and returns the last state with the
/// median set-up time in seconds. Earlier states are dropped (and their
/// resources released) before the next set-up starts.
pub fn repeated_setup<T, E>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut times = Samples::default();
    let mut state = None;
    for _ in 0..repeats.max(1) {
        drop(state.take());
        let clock = Stopwatch::start();
        state = Some(setup()?);
        times.push(clock.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), times.median()))
}

/// Peak resident memory of process `pid` (`"self"` for this one) in MB,
/// from `VmHWM`; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now, from `/proc/self/status`.
pub fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(1)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A fixed integer kernel: `steps` rounds of xorshift64.
fn spin(steps: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The two-thread ÷ one-thread throughput of [`spin`], median of three
/// measurements: how much parallel speed this host actually offers.
pub fn parallel_capacity() -> f64 {
    const STEPS: u64 = 30_000_000;
    let mut ratios = Samples::default();
    for round in 0..3u64 {
        let one = Stopwatch::start();
        std::hint::black_box(spin(std::hint::black_box(STEPS), round));
        let one_s = one.elapsed().as_secs_f64();
        let two = Stopwatch::start();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| s.spawn(move || spin(std::hint::black_box(STEPS), round + t)))
                .collect();
            for w in workers {
                std::hint::black_box(w.join().expect("spin worker panicked"));
            }
        });
        ratios.push(2.0 * one_s / two.elapsed().as_secs_f64());
    }
    ratios.median()
}

/// Inclusive and self time of every span name in a drained event list.
#[derive(Debug, Default)]
pub struct SpanFold {
    by_name: BTreeMap<&'static str, SpanTotals>,
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Closed spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub inclusive_ns: u64,
    /// Sum of their durations minus the time their child spans cover.
    pub self_ns: u64,
}

impl SpanFold {
    /// Folds `events`; spans without both a begin and an end are skipped.
    pub fn fold(events: &[TraceEvent]) -> SpanFold {
        struct Open {
            name: &'static str,
            begin: u64,
            end: Option<u64>,
            parent: u64,
        }
        let mut spans: BTreeMap<u64, Open> = BTreeMap::new();
        for ev in events {
            match ev.phase {
                Phase::Begin => {
                    spans.insert(
                        ev.span,
                        Open {
                            name: ev.name,
                            begin: ev.ts_nanos,
                            end: None,
                            parent: ev.parent,
                        },
                    );
                }
                Phase::End => {
                    if let Some(open) = spans.get_mut(&ev.span) {
                        open.end = Some(ev.ts_nanos);
                    }
                }
                Phase::Instant => {}
            }
        }
        let closed: Vec<(u64, &Open, u64)> = spans
            .iter()
            .filter_map(|(id, o)| o.end.map(|end| (*id, o, end.saturating_sub(o.begin))))
            .collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, open, dur) in &closed {
            *child_ns.entry(open.parent).or_default() += dur;
        }
        let mut fold = SpanFold::default();
        for (id, open, dur) in closed {
            let self_ns = dur.saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
            let t = fold.by_name.entry(open.name).or_default();
            t.count += 1;
            t.inclusive_ns += dur;
            t.self_ns += self_ns;
        }
        fold
    }

    /// Writes the span table, largest self time first, to standard error:
    /// where a traced run's time went, at a glance.
    pub fn print_table(&self, workload: &str) {
        let mut rows: Vec<_> = self.by_name.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        eprintln!(
            "{workload}: {:<40} {:>8} {:>14} {:>9}",
            "span", "count", "inclusive_ms", "self_ms"
        );
        for (name, t) in rows {
            eprintln!(
                "{workload}: {name:<40} {:>8} {:>14.3} {:>9.3}",
                t.count,
                t.inclusive_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }

    /// Totals of `name` (zero when it never closed).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name` summed over its spans, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.totals(name).self_ns as f64 / 1e6
    }

    /// Mean self time of one `name` span, in microseconds.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / 1e3 / t.count as f64
        }
    }
}

/// Enables the process recorder and drops anything buffered before.
pub fn start_tracing() {
    let rec = forest_obs::recorder();
    rec.clear();
    rec.enable();
}

/// Disables the recorder and folds everything it recorded.
pub fn stop_tracing() -> SpanFold {
    let rec = forest_obs::recorder();
    rec.disable();
    SpanFold::fold(&rec.drain())
}

/// Current value of a registry counter or gauge (0 before first use).
pub fn counter(name: &str) -> u64 {
    Registry::global().value_of(name).unwrap_or(0)
}

/// `(count, sum)` of a registry histogram (zeros before first use).
pub fn histogram(name: &str) -> (u64, u64) {
    Registry::global()
        .snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .and_then(|m| match m.detail {
            forest_obs::metrics::MetricDetail::Histogram(h) => Some((h.count, h.sum)),
            _ => None,
        })
        .unwrap_or((0, 0))
}

/// Deltas of the Algorithm 2 / H-partition registry counters across one
/// job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Algo2Counters {
    clusters: u64,
    expansions: u64,
    cache_hits: u64,
    peel_rounds: u64,
}

impl Algo2Counters {
    /// The counters now.
    pub fn read() -> Self {
        Algo2Counters {
            clusters: counter("algo2.clusters_total"),
            expansions: counter("algo2.ball_expansions_total"),
            cache_hits: counter("algo2.cache_hits_total"),
            peel_rounds: counter("hpartition.peel_rounds_total"),
        }
    }

    /// What happened between `self` (before) and now.
    pub fn since(self) -> Self {
        let now = Algo2Counters::read();
        Algo2Counters {
            clusters: now.clusters - self.clusters,
            expansions: now.expansions - self.expansions,
            cache_hits: now.cache_hits - self.cache_hits,
            peel_rounds: now.peel_rounds - self.peel_rounds,
        }
    }

    /// Records the `algo2.*` and `hpartition.peel_rounds` metrics.
    pub fn record(&self, m: &mut Metrics) {
        m.set("algo2.clusters", self.clusters as f64);
        m.set("algo2.ball_expansions", self.expansions as f64);
        let ratio = if self.expansions == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.expansions as f64
        };
        m.set("algo2.cache_hit_ratio", ratio);
        m.set("hpartition.peel_rounds", self.peel_rounds as f64);
    }
}

/// LOCAL rounds of a set of reports, grouped into the fixed `rounds.*`
/// phases, plus the paper's bound `Σ log₂³ n / ε` over the same reports.
#[derive(Clone, Debug, Default)]
pub struct RoundTally {
    phases: BTreeMap<&'static str, f64>,
    total: f64,
    bound: f64,
}

impl RoundTally {
    /// Adds one report's ledger, from a run on `n` vertices with slack
    /// `epsilon`.
    pub fn add(&mut self, ledger: &local_model::RoundLedger, n: usize, epsilon: f64) {
        for charge in ledger.charges() {
            *self.phases.entry(round_phase(&charge.label)).or_default() += charge.rounds as f64;
        }
        self.total += ledger.total_rounds() as f64;
        self.bound += (n.max(2) as f64).log2().powi(3) / epsilon;
    }

    /// Records `rounds.*`.
    pub fn record(&self, m: &mut Metrics) {
        m.set("rounds.total", self.total);
        for phase in [
            "hpartition",
            "algorithm2",
            "orientation",
            "star_forest",
            "stitch",
            "other",
        ] {
            let value = self.phases.get(phase).copied().unwrap_or(0.0);
            m.set(&format!("rounds.{phase}"), value);
        }
        let ratio = if self.bound > 0.0 {
            self.total / self.bound
        } else {
            0.0
        };
        m.set("rounds.ratio_to_bound", ratio);
    }
}

/// The fixed phase a ledger label belongs to. Labels carry sizes and shard
/// prefixes, so they are matched on the words that name the phase.
fn round_phase(label: &str) -> &'static str {
    let l = label.to_ascii_lowercase();
    if l.contains("stitch") {
        "stitch"
    } else if l.contains("h-partition") {
        "hpartition"
    } else if l.contains("orientation") || l.contains("cole-vishkin") {
        "orientation"
    } else if l.contains("star") || l.contains("matching") {
        "star_forest"
    } else if l.contains("cluster")
        || l.contains("network decomposition")
        || l.contains("cut")
        || l.contains("radius")
        || l.contains("algorithm2")
    {
        "algorithm2"
    } else {
        "other"
    }
}

/// FNV-1a of `bytes`: a compact fingerprint for comparing canonical bytes
/// across jobs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
