//! Smoke test of the benchmark: every workload at tiny size, untraced and
//! traced. Each run must pass its own correctness gate and print exactly
//! the metrics `BENCHMARK.json` names, each with its unit. `serve`'s load
//! generator must stay within `nproc` threads and connections.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`
/// (`"end_to_end"` or `"per_layer"`).
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let from = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// `(name, value, unit)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut out = Vec::new();
    for part in body.split("}, ").chain(std::iter::once("")) {
        let Some(name_end) = part.find("\": {\"value\": ") else {
            continue;
        };
        let name = part[..name_end].trim_start_matches(['"', ' ']).to_string();
        let rest = &part[name_end + 13..];
        let value_end = rest.find(',').expect("value then unit");
        let value: f64 = rest[..value_end].parse().expect("numeric value");
        let unit_from = rest.find("\"unit\": \"").expect("unit") + 9;
        let unit =
            rest[unit_from..unit_from + rest[unit_from..].find('"').expect("quote")].to_string();
        out.push((name, value, unit));
    }
    out
}

/// The `forest-serve` binary, built once into this package's target
/// directory.
fn server_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let bench = Path::new(env!("CARGO_BIN_EXE_forest-bench"));
        let target = bench
            .parent()
            .and_then(Path::parent)
            .expect("binary sits in <target>/<profile>/");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "forest-serve",
            ])
            .args(["--bin", "forest-serve", "--manifest-path"])
            .arg(&manifest)
            .arg("--target-dir")
            .arg(target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building forest-serve failed");
        target.join("release").join("forest-serve")
    })
}

/// Runs one tiny workload and returns its last two output lines (host
/// record, result).
fn run(workload: &str, trace: u8) -> (String, String) {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_forest-bench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .arg("--server-bin")
        .arg(server_bin())
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("forest-bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line").to_string();
    let host = lines.next().expect("host line").to_string();
    (host, result)
}

fn check_workload(workload: &str) -> String {
    let mut serve_host = String::new();
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (host, result) = run(workload, trace);
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        let got = metrics(&result);
        let want = catalogue(section);
        let got_names: Vec<(String, String)> =
            got.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
        assert_eq!(got_names, want, "{workload} --trace {trace} metrics");
        for (name, value, _) in &got {
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            if trace == 0 {
                assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
        }
        serve_host = host;
    }
    serve_host
}

/// The value of `"key": <n>` in the host record.
fn host_field(host: &str, key: &str) -> usize {
    let from = host.find(&format!("\"{key}\": ")).expect("host field") + key.len() + 4;
    let digits: String = host[from..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("integer field")
}

#[test]
fn ingest_emits_every_metric() {
    check_workload("ingest");
}

#[test]
fn batch_emits_every_metric() {
    check_workload("batch");
}

#[test]
fn exact_emits_every_metric() {
    check_workload("exact");
}

#[test]
fn serve_emits_every_metric_within_nproc_threads_and_connections() {
    let host = check_workload("serve");
    let nproc = host_field(&host, "nproc");
    let threads = host_field(&host, "load_threads");
    let connections = host_field(&host, "load_connections");
    assert!((1..=nproc).contains(&threads), "{threads} load threads");
    assert!(
        (1..=nproc).contains(&connections),
        "{connections} connections"
    );
}
