#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload knapsack-fine --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --self-test

The first form builds `ftbb-noded` from the repository's workspace and the
benchmark package beside this file (both in release mode, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs the benchmark with
the given arguments. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. `--self-test` runs the
benchmark package's own tests instead, including a smoke run of every
workload at a tiny size.

Exits 2 without printing a result when the sources are missing or do not
build.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cargo(args, env):
    """Run cargo with its output on standard error; True on success."""
    try:
        done = subprocess.run(["cargo", *args], env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"e2ebench: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    workspace = ROOT / "Cargo.toml"
    if not workspace.is_file():
        print(f"e2ebench: no repository manifest at {workspace}", file=sys.stderr)
        return 2
    noded_build = ["build", "--release", "--offline", "--manifest-path", str(workspace),
                   "-p", "ftbb-wire", "--bin", "ftbb-noded"]
    if not cargo(noded_build, env):
        print("e2ebench: building ftbb-noded failed", file=sys.stderr)
        return 2
    noded = target / "release" / "ftbb-noded"
    manifest = str(HERE / "Cargo.toml")
    if argv[:1] == ["--self-test"]:
        env["E2EBENCH_NODED"] = str(noded)
        ok = cargo(["test", "--release", "--offline", "--manifest-path", manifest, *argv[1:]], env)
        return 0 if ok else 1
    if not cargo(["build", "--release", "--offline", "--manifest-path", manifest], env):
        print("e2ebench: building the benchmark failed", file=sys.stderr)
        return 2
    env["E2EBENCH_COMMAND"] = " ".join(["python3", "e2ebench/run.py", *argv])
    bench = target / "release" / "ftbb-e2ebench"
    cmd = [str(bench), "--noded", str(noded), "--out", str(HERE / "results"), *argv]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
