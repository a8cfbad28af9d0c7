//! `forest-bench`: the repository's benchmark.
//!
//! One invocation runs one named workload for a fixed time, checks every
//! output it produced, and prints one JSON object as its last line of
//! standard output:
//!
//! ```text
//! forest-bench --workload <ingest|batch|serve|exact> --seed <n> --seconds <s> --trace <0|1>
//!              [--server-bin <path>] [--work-dir <dir>] [--scale <full|tiny>]
//! ```
//!
//! With `--trace 0` the object carries the end-to-end metrics, measured
//! with the `forest-obs` recorder off; with `--trace 1` it carries the
//! per-layer metrics of a traced run (see `measure::PER_LAYER` and
//! README.md). A wrong output, or a traced job whose layer spans cover too
//! little of its wall time, makes the run report `"correct": false` and exit
//! with code 1.

mod batch;
mod exact;
mod ingest;
mod measure;
mod serve;

use measure::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Input sizes: `Full` is the benchmark, `Tiny` the smoke-test size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined with.
    Full,
    /// Sizes small enough to run every workload in a few seconds.
    Tiny,
}

/// Everything a workload needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// The `forest-serve` executable (`serve` only).
    pub server_bin: Option<PathBuf>,
    /// Directory for the files a workload writes.
    pub work_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values; unset ones print as 0.
    pub metrics: Metrics,
    /// Operations attempted (jobs, or requests on `serve`).
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Correctness violations found by the checks.
    pub problems: Vec<String>,
    /// Samples behind `job_ms` and the percentile `job_ms_tail` reports.
    pub job_samples: usize,
    /// Percentile of the reported tail.
    pub tail_percentile: f64,
    /// Most threads the process had while the load ran (`serve` only).
    pub load_threads: usize,
    /// Connections the load generator opened (`serve` only).
    pub load_connections: usize,
}

impl Outcome {
    /// Records a correctness violation.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Records `job_ms`, `job_ms_tail` and the sample bookkeeping from
    /// per-job milliseconds.
    pub fn record_jobs(&mut self, jobs: &measure::Samples) {
        let (pct, tail) = jobs.tail();
        self.metrics.set("job_ms", jobs.median());
        self.metrics.set("job_ms_tail", tail);
        self.job_samples = jobs.len();
        self.tail_percentile = pct;
    }

    /// Records the traced-run coverage check from the job-span totals of
    /// the run's traced jobs.
    pub fn record_coverage(&mut self, jobs: &[measure::SpanTotals]) {
        let self_ns: u64 = jobs.iter().map(|t| t.self_ns).sum();
        let inclusive_ns: u64 = jobs.iter().map(|t| t.inclusive_ns).sum();
        if inclusive_ns == 0 {
            self.problem("the traced run closed no job span");
            return;
        }
        let coverage = 1.0 - self_ns as f64 / inclusive_ns as f64;
        self.metrics.set("trace.coverage_frac", coverage);
        if coverage < 1.0 - measure::COVERAGE_TOLERANCE {
            self.problem(format!(
                "layer spans cover only {:.1}% of the traced jobs (tolerance {}%)",
                coverage * 100.0,
                measure::COVERAGE_TOLERANCE * 100.0
            ));
        }
    }
}

fn usage() -> String {
    "usage: forest-bench --workload <ingest|batch|serve|exact> --seed <n> --seconds <s> \
     --trace <0|1> [--server-bin <path>] [--work-dir <dir>] [--scale <full|tiny>]"
        .to_string()
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        server_bin: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--server-bin" => ctx.server_bin = Some(PathBuf::from(&value)),
            "--work-dir" => ctx.work_dir = PathBuf::from(&value),
            "--scale" => {
                ctx.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("must be full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    ctx.seed = seed.ok_or_else(|| missing("--seed"))?;
    ctx.seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    ctx.trace = trace.ok_or_else(|| missing("--trace"))?;
    Ok((workload.ok_or_else(|| missing("--workload"))?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("forest-bench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!(
            "forest-bench: cannot create {}: {err}",
            ctx.work_dir.display()
        );
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "ingest" => ingest::run(&ctx),
        "batch" => batch::run(&ctx),
        "serve" => serve::run(&ctx),
        "exact" => exact::run(&ctx),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("forest-bench: {workload}: {msg}");
            return ExitCode::FAILURE;
        }
    };

    // The host record: measured after the workload so it does not compete
    // with it, stored with every run.
    let nproc = measure::nproc();
    let rayon_threads = rayon::current_num_threads();
    let capacity = measure::parallel_capacity();
    if ctx.trace {
        outcome.metrics.set("host.nproc", nproc as f64);
        outcome
            .metrics
            .set("host.rayon_threads", rayon_threads as f64);
        outcome.metrics.set("host.parallel_capacity", capacity);
    }
    let bad = outcome.metrics.non_finite();
    if !bad.is_empty() {
        outcome.problem(format!("non-finite metric values: {bad:?}"));
    }
    for p in &outcome.problems {
        eprintln!("forest-bench: {workload}: INCORRECT: {p}");
    }
    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"rayon_threads\": {rayon_threads}, \
         \"parallel_capacity\": {capacity}}}, \"workload\": \"{workload}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"job_samples\": {}, \"tail_percentile\": {}, \
         \"load_threads\": {}, \"load_connections\": {}}}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        outcome.job_samples,
        outcome.tail_percentile,
        outcome.load_threads,
        outcome.load_connections,
    );
    let catalogue = if ctx.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(catalogue)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
