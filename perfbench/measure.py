"""Measure one workload in this interpreter and print one JSON line.

Started by ``run.py`` in a fresh interpreter with a pinned environment;
running it by hand needs ``PYTHONPATH=src``.

  python3 perfbench/measure.py --workload long-inputs --seed 1 --seconds 10 --trace 0

Load is closed-loop: one thread works through the workload's fixed item
list, pass after pass, until ``--seconds`` would be exceeded (at least
``MIN_PASSES`` passes).  With ``--trace 0`` nothing is traced and the
line holds the end-to-end figures.  With ``--trace 1`` every workload is
run in alternating untraced and traced passes, ``verify-full`` is run
once more under cProfile, and the line holds the per-layer figures; the
spans are written to ``--spans-out`` when everything has finished.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

import mahonian
import workloads
from mahonian.verify import run_suite
from sizes import SIZES, WORKLOADS

MIN_PASSES = 3
TAIL_BEYOND = 10
SHARE_MODULES = ("words", "foata", "partitions", "bijections", "laurent", "genfun", "verify")
COUNTED_CALLS = (("foata", "foata"), ("foata", "foata_inverse"), ("words", "inv"), ("partitions", "conjugate"))


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, pass id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


class NoTracer:
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


def _failure(item, tracer):
    """None when every gate of the item holds, else what failed."""
    try:
        with tracer.span("item"):
            gates = item.run(tracer)
    except Exception as exc:  # the library raised: a failed item, not a crashed benchmark
        return f"{item.label}: {type(exc).__name__}: {exc}"
    wrong = [gate for gate, got, want in gates if got != want]
    return f"{item.label}: {wrong[0]}" if wrong else None


def run_pass(items, tracer):
    """Work through the items once; returns (wall seconds, [(seconds, failure or None)])."""
    results = []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        failure = _failure(item, tracer)
        results.append((time.perf_counter() - t0, failure))
    return time.perf_counter() - start, results


def _failures(passes):
    return [failure for _, results in passes for _, failure in results if failure]


def run_passes(items, seconds, tracer_for_pass):
    """Repeat passes until the next one would end past ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(items, tracer_for_pass(len(passes))))
        elapsed = time.perf_counter() - start
        walls = [wall for wall, _ in passes]
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return passes


def tail_percentile(items_per_pass):
    """Highest whole percentile with at least TAIL_BEYOND items of one pass beyond it."""
    return max(1, min(99, math.floor(100 * (1 - TAIL_BEYOND / items_per_pass))))


def end_to_end(items, seconds):
    """Each timing is the median over passes of that pass's figure.

    A pass whose gates all held gives its wall time, its median item time
    and its ``tail_percentile`` item time; a pass with a failed gate gives
    no timing at all."""
    passes = run_passes(items, seconds, lambda _: NoTracer())
    attempted = sum(len(results) for _, results in passes)
    failures = _failures(passes)
    pct = tail_percentile(len(items))
    good = [(wall, [1000 * t for t, _ in results]) for wall, results in passes if not any(f for _, f in results)]
    metrics = {}
    if good:
        metrics["wall_s"] = statistics.median(wall for wall, _ in good)
        metrics["item_p50_ms"] = statistics.median(statistics.median(ms) for _, ms in good)
        metrics["item_tail_ms"] = statistics.median(
            statistics.quantiles(ms, n=100, method="inclusive")[pct - 1] for _, ms in good
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": {
            "first_failure": failures[0] if failures else None,
            "passes": len(passes),
            "timed_passes": len(good),
            "items_per_pass": len(items),
            "tail_percentile": pct,
            "item_samples": len(items) * len(good),
            "fail_ratio": len(failures) / attempted,
        },
    }


def _layer_totals(tracer, traced_passes):
    """Median over traced passes of each layer span's per-pass total, in ms."""
    per_pass: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    for name, start, end, _, pass_id in tracer.spans:
        if name == "item":
            continue
        per_pass.setdefault(name, [0.0] * traced_passes)[pass_id] += 1000 * (end - start)
        calls[name] = calls.get(name, 0) + 1
    totals = {f"{name}_ms": statistics.median(vals) for name, vals in per_pass.items()}
    return totals, {name: n // traced_passes for name, n in calls.items()}


def _profile_shares(profile):
    """cProfile self-time share (%) by module file, and exact call counts."""
    src = Path(mahonian.__file__).resolve().parent
    prof = cProfile.Profile()
    prof.enable()
    reports = run_suite(profile)
    prof.disable()
    stats = pstats.Stats(prof).stats
    by_module = dict.fromkeys(SHARE_MODULES + ("other",), 0.0)
    calls = {}
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.items():
        path = Path(filename)
        module = path.stem if path.parent.resolve() == src and path.stem in SHARE_MODULES else "other"
        by_module[module] += tottime
        if (module, func) in COUNTED_CALLS:
            calls[f"calls.{module}.{func}"] = ncalls
    total = sum(by_module.values())
    shares = {f"share.{m}": 100 * t / total for m, t in by_module.items()}
    return shares, calls, reports


def per_layer(seed, seconds, size, spans_out):
    metrics, span_calls = {}, {}
    attempted, failures = 0, []
    all_spans = []
    for workload in WORKLOADS:
        items = workloads.build(workload, seed, size)
        tracer = Tracer()

        def tracer_for_pass(i):
            if i % 2 == 0:
                return NoTracer()
            tracer.pass_id = i // 2
            return tracer

        passes = run_passes(items, seconds / len(WORKLOADS), tracer_for_pass)
        if len(passes) % 2:
            passes.append(run_pass(items, tracer_for_pass(len(passes))))
        attempted += sum(len(results) for _, results in passes)
        failures += _failures(passes)
        untraced = statistics.median(wall for wall, _ in passes[0::2])
        traced = statistics.median(wall for wall, _ in passes[1::2])
        metrics[f"trace_overhead_ratio.{workload}"] = traced / untraced
        totals, counts = _layer_totals(tracer, len(passes) // 2)
        metrics.update(totals)
        span_calls.update(counts)
        all_spans.extend(
            {"workload": workload, "name": n, "start": s, "end": e, "parent": p, "pass": k}
            for n, s, e, p, k in tracer.spans
        )
    shares, calls, reports = _profile_shares(SIZES[size]["verify-full"]["profile"])
    metrics.update(shares)
    metrics.update(calls)
    attempted += len(reports)
    failures += [f"{r.check}: verdict {r.verdict}" for r in reports if not r.passed]
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w") as fh:
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": {
            "first_failure": failures[0] if failures else None,
            "fail_ratio": len(failures) / attempted,
            "span_calls_per_pass": span_calls,
            "spans": len(all_spans),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    if args.trace:
        result = per_layer(args.seed, args.seconds, args.size, args.spans_out)
    else:
        result = end_to_end(workloads.build(args.workload, args.seed, args.size), args.seconds)
    result["mahonian_file"] = mahonian.__file__
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
