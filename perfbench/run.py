"""Benchmark entry point: one workload, one seed, one JSON result line.

  python3 perfbench/run.py --workload verify-full --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics of the workload, ``--trace 1`` the per-layer metrics
(see README.md).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, sizes and sample counts.  Exits 2 without a
result when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sizes import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mahonian; "
    "d = time.perf_counter() - t; print(d, mahonian.__file__)"
)


def pinned_env():
    """Fresh-interpreter environment: library from src/, no thread pool,
    fixed hashing, and the default bytecode cache."""
    env = dict(os.environ)
    env.pop("MAHONIAN_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_library(reported_file):
    if not Path(reported_file).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported mahonian from {reported_file}, not from {ROOT / 'src'}")


def setup_seconds(env, repeats):
    """Median time of ``import mahonian`` in fresh interpreters, after one warm-up import."""
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
        ).stdout.split()
        check_library(out[1])
        if i:
            times.append(float(out[0]))
    return statistics.median(times)


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mahonian" / "__init__.py").is_file():
        print(f"no library to measure: {ROOT / 'src' / 'mahonian'} is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    started = time.perf_counter()
    env = pinned_env()
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.trace:
        cmd += ["--spans-out", str(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")]
    child = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"measure.py exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])
    check_library(result["mahonian_file"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = setup_seconds(env, SIZES[args.size]["setup_repeats"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "pythonhashseed": env["PYTHONHASHSEED"],
        "run_s": time.perf_counter() - started,
        **result["detail"],
    }
    record["sizes"] = SIZES[args.size] if args.trace else SIZES[args.size][args.workload]
    if result["failed"] == 0 and set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print("record " + json.dumps(record))
    for name, value in sorted(metrics.items()):
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
