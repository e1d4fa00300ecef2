#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fem-deep --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary under .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs rebuild incrementally. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. The exit code is the binary's: 0 on success, 1 on an oracle
mismatch, 2 on bad arguments or a pinned environment variable.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Variables that change what the library runs (pool size, tuning,
# calibration, memory knobs, metrics side channel, graph files).
PINNED_ENV = ["MICG_MAX_THREADS", "MICG_TUNE", "MICG_CALIB", "MICG_MEMOPT",
              "MICG_METRICS_JSON", "MICG_GRAPH_DIR"]


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally; returns the build dir."""
    if not (ROOT / "src" / "micg").is_dir():
        sys.exit("perfbench: library sources (src/micg) are missing")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out


def commit_id():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def source_digest():
    """sha256 over the library sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()
    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        print("perfbench: unset %s; results under it are not comparable"
              % ", ".join(pinned), file=sys.stderr)
        return 2
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    run_dir = build_dir() / "run"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", os.path.relpath(run_dir, ROOT),
           "--commit", commit_id(), "--source-digest", source_digest()] + extra
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
