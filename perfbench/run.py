#!/usr/bin/env python3
"""Builds the engine benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (engine library from src/ plus the benchmark) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
Build output goes to stderr; stdout is the benchmark's own, whose last line
is the JSON result. The exit status is the benchmark's (non-zero when a
check failed), or 2 when the build is impossible or fails.
"""
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def main(argv):
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "engine" / "engine.h").is_file():
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    cmd = [str(build_dir / "perfbench"), *argv,
           "--state_dir", str(build_root / "perfbench-state")]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
