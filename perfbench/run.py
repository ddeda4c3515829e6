#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke        # self-test + tiny variant of every workload
    python3 perfbench/run.py --self-test    # negative self-test of the checker only
    python3 perfbench/run.py --build-only

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles the library from ../src) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark binary,
whose last stdout line is the JSON result. The exit code is non-zero when
the build fails or any check of the run fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD_DIR / "faircache_perfbench"
WORKLOADS = ["place-er100k", "lifecycle-er3k", "serve-read", "serve-write"]
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def cached_source_dir():
    """The source directory BUILD_DIR was configured from, or None."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cached = cached_source_dir()
    if cached is not None and cached != BENCH_DIR:
        # An absolute CARGO_TARGET_DIR shared by two checkouts: the cache
        # would rebuild the other checkout's sources, so start afresh.
        log(f"perfbench: {BUILD_DIR} was configured from {cached}; "
            "reconfiguring for this checkout")
        shutil.rmtree(BUILD_DIR)
        cached = None
    steps = []
    if cached is None:
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          env=env).returncode != 0:
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [str(BINARY), *args, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, None
    return done.returncode, done.stdout


def smoke():
    """Negative self-test, then every workload's tiny variant, untraced and
    traced, checking the result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    code, _ = run_binary(["--self-test"])
    ok = code == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_binary(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"], capture=True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
                names = list(result["metrics"])
                good = (code == 0 and result["correct"] and
                        result["failed"] == 0 and names == expected[trace])
            except (IndexError, ValueError, KeyError, TypeError):
                good = False
            print(f"smoke {workload:<15} trace={trace}  "
                  f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    print("smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    if not build():
        return 1
    if argv == ["--build-only"]:
        return 0
    if argv == ["--smoke"]:
        return smoke()
    code, _ = run_binary(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
