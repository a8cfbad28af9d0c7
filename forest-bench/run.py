#!/usr/bin/env python3
"""Builds forest-bench and the forest-serve binary from source, then runs one
workload of the benchmark.

Usage, from the root of the repository:

    python3 forest-bench/run.py --workload <ingest|batch|serve|exact> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory) and to standard error; files the workloads write go to a fresh
directory under .bench_work that is removed afterwards. The last line of
standard output is the run's JSON result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("forest-bench: the repository's sources are not next to "
              "forest-bench/; run it from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not (build(os.path.join(ROOT, "Cargo.toml"), "-p", "forest-serve",
                  "--bin", "forest-serve", env=env)
            and build(os.path.join(HERE, "Cargo.toml"), env=env)):
        print("forest-bench: build failed", file=sys.stderr)
        return 2
    work_root = os.path.abspath(".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        cmd = [os.path.join(target, "release", "forest-bench"), *sys.argv[1:],
               "--server-bin", os.path.join(target, "release", "forest-serve"),
               "--work-dir", work]
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
