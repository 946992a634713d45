#!/usr/bin/env python3
"""Builds servebench against the program in src/ and runs one workload.

Usage, from the root of the repository:

  python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/servebench (default .bench_build/servebench)
and is incremental; its output goes to stderr. Traced runs write their spans
under <build>/traces. The last line of stdout is the run's JSON result.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_step(command):
    result = subprocess.run([str(part) for part in command], stdout=sys.stderr)
    if result.returncode != 0:
        print(f"servebench: {' '.join(map(str, command))} failed", file=sys.stderr)
        sys.exit(result.returncode or 1)


def main():
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        print("servebench: the program under test is missing: no src/engine/engine.h "
              f"under {ROOT}; the benchmark carries no copy of it", file=sys.stderr)
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build = build_root / "servebench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    run_step(["cmake", "--build", build, "--target", "servebench", "-j", jobs])
    traces = build / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    binary = build / "servebench"
    return subprocess.run([str(binary), *sys.argv[1:], "--out-dir", str(traces)]).returncode


if __name__ == "__main__":
    sys.exit(main())
