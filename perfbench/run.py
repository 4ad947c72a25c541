#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <study|comprehensive> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository.  The benchmark package
(perfbench/Cargo.toml) is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build), then run; its standard output is passed through,
and its last line is the JSON result.  Build output goes to standard error.
If the build fails (for instance because the repository's crates are not
next to this directory) the script exits non-zero without printing a
result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "comprehensive")


# Directories that hold build outputs, never sources.
NOT_SOURCES = {"target", ".bench_build", "__pycache__"}


def source_hash():
    """SHA-256 over the sources the benchmark builds (the workspace crates,
    the vendored dependencies and this package, without build outputs), so
    results from a checkout without git history still name the code they
    measured, and runs of different code never take each other's results
    as a reference."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for root in (ROOT / "crates", ROOT / "src", ROOT / "vendor", HERE):
        if root.is_dir():
            files.extend(
                p
                for p in root.rglob("*")
                if p.is_file()
                and NOT_SOURCES.isdisjoint(p.relative_to(ROOT).parts)
            )
    for path in sorted(f for f in files if f.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, env, stdout):
    """Run cmd to completion; if this script is interrupted, stop the child
    and wait for it before leaving."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    code = run(build, env, sys.stderr)
    if code != 0:
        print(f"perfbench: build failed with exit code {code}", file=sys.stderr)
        return code if code > 0 else 1

    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", str(out_dir),
        "--commit", commit(),
        "--source-hash", source_hash(),
    ]
    sys.stdout.flush()
    return run(bench, env, None)


if __name__ == "__main__":
    sys.exit(main())
