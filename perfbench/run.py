#!/usr/bin/env python3
"""Benchmark of the mfbm package: one workload per call.

    python3 perfbench/run.py --workload exact-wide --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics of the workload; with ``--trace 1``
untraced and traced iterations alternate and the JSON holds the
per-layer metrics, taken from the traced iterations, and the tracing
overhead. Lines before it give the same figures for people, and the
environment. Spans and the result record are written to
``.perfbench-out/`` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
MAX_CHANCE_GATE_FAILURES = 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sample_rps": "1/s",
    "peak_mb": "MB",
}
PER_LAYER = {
    "params.validate_s": "s",
    "covariance.lag_block_array_s": "s",
    "covariance.lag_block_array_calls": "count",
    "covariance.increment_covariance_s": "s",
    "covariance.increment_covariance_calls": "count",
    "existence.check_admissibility_s": "s",
    "representations.params_from_ma_s": "s",
    "circulant.build_plan_self_s": "s",
    "circulant.embedding_m": "count",
    "circulant.doublings": "count",
    "circulant.plan_bytes": "B",
    "circulant.simulate_s": "s",
    "circulant.simulate_ms_per_replicate": "ms",
    "circulant.colour_bytes_per_replicate": "B",
    "stats.ensemble_from_paths_s": "s",
    "stats.compare_report_self_s": "s",
    "stats.cells": "count",
    "cli.import_s": "s",
    "cli.simulate_self_s": "s",
    "cli.verify_self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "limits.simulate_partial_sums_self_s": "s",
    "limits.realize_kernel_s": "s",
    "limits.realize_kernel_calls": "count",
    "limits.fftconvolve_s": "s",
    "limits.fftconvolve_calls": "count",
    "limits.limit_target_s": "s",
    "limits.innovations_per_replicate": "count",
    "trace.overhead_frac": "1",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS thread pools at the usable core count; must precede numpy."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))
    return cores


def environment(cores: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cores,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def layer_metrics(spans: list[list], info: dict) -> dict:
    """Per-layer figures of one traced iteration (0 where a layer is not reached)."""
    from tracing import SpanTotals

    t = SpanTotals(spans)
    sim_reps = t.info_sum("circulant.simulate", "replicates")
    imports = t.calls["cli.import"]
    return {
        "params.validate_s": t.total["params.validate"],
        "covariance.lag_block_array_s": t.total["covariance.lag_block_array"],
        "covariance.lag_block_array_calls": t.calls["covariance.lag_block_array"],
        "covariance.increment_covariance_s": t.total["covariance.increment_covariance"],
        "covariance.increment_covariance_calls": t.calls["covariance.increment_covariance"],
        "existence.check_admissibility_s": t.total["existence.check_admissibility"],
        "representations.params_from_ma_s": t.total["representations.params_from_ma"],
        "circulant.build_plan_self_s": t.self_time["circulant.build_plan"],
        "circulant.embedding_m": t.info_last("circulant.build_plan", "m"),
        "circulant.doublings": t.info_last("circulant.build_plan", "doublings"),
        "circulant.plan_bytes": t.info_last("circulant.build_plan", "plan_bytes"),
        "circulant.simulate_s": t.total["circulant.simulate"],
        "circulant.simulate_ms_per_replicate": (
            1e3 * t.total["circulant.simulate"] / sim_reps if sim_reps else 0.0
        ),
        "circulant.colour_bytes_per_replicate": t.info_last("circulant.build_plan", "colour_bytes"),
        "stats.ensemble_from_paths_s": t.total["stats.ensemble_from_paths"],
        "stats.compare_report_self_s": t.self_time["stats.compare_report"],
        "stats.cells": t.info_sum("stats.compare_report", "cells"),
        "cli.import_s": t.total["cli.import"] / imports if imports else 0.0,
        "cli.simulate_self_s": t.self_where("cli.main", "command", "simulate"),
        "cli.verify_self_s": t.self_where("cli.main", "command", "verify"),
        "cli.bytes_written": info.get("bytes_written", 0),
        "cli.files_written": info.get("files_written", 0),
        "limits.simulate_partial_sums_self_s": t.self_time["limits.simulate_partial_sums"],
        "limits.realize_kernel_s": t.total["limits.realize_kernel"],
        "limits.realize_kernel_calls": t.calls["limits.realize_kernel"],
        "limits.fftconvolve_s": t.total["limits.fftconvolve"],
        "limits.fftconvolve_calls": t.calls["limits.fftconvolve"],
        "limits.limit_target_s": t.total["limits.limit_target"],
        "limits.innovations_per_replicate": t.info_sum("limits.simulate_partial_sums", "innovations"),
    }


def iteration_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


class Run:
    """Iterations of one workload with their checks and figures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.gate_failures = 0
        self.defects: list[str] = []

    def iterate(self, k: int, tracer=None, trace_memory: bool = False):
        """One checked iteration; None when it raised.

        With trace_memory the tracemalloc peak of the run (not of its
        checks) is stored as outcome.info["peak_mb"].
        """
        from tracing import installed

        self.attempted += 1
        seed = iteration_seed(self.seed, k)
        try:
            if tracer is not None:
                with installed(tracer), tracer.span("iteration", {"k": k, "seed": seed}):
                    outcome = self.workload.run(seed, tracer)
            elif trace_memory:
                tracemalloc.start()
                try:
                    outcome = self.workload.run(seed)
                    outcome.info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                finally:
                    tracemalloc.stop()
            else:
                outcome = self.workload.run(seed)
            gate_ok, defects = self.workload.check(outcome)
        except Exception:
            outcome, gate_ok, defects = None, True, [traceback.format_exc()]
        self.failed += bool(defects) or not gate_ok
        self.gate_failures += not gate_ok
        self.defects += defects
        if outcome is not None:
            outcome.state.clear()
        return outcome

    def correct(self) -> bool:
        """No defect, and no more verify-gate failures than chance explains.

        The gate is a statistical test: on correct samples one
        iteration in a few hundred fails it by chance, while a sampler
        of the wrong law fails it every time. A single gate failure in
        a run still counts in `failed`; two or more make the run wrong.
        """
        return not self.defects and self.gate_failures <= MAX_CHANCE_GATE_FAILURES


def median(values):
    return statistics.median(values) if values else float("nan")


def upper_decile(values):
    """90th percentile, interpolated between samples (the largest of one).

    Iteration times on a shared host fall into two levels about 1.5x
    apart, held for tens of seconds to minutes: a loaded one and a
    faster one. The median of a run flips between them with the share
    of the run spent in each; the upper decile reads the loaded level
    whenever a run holds a little of it, which nearly every run does.
    """
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfbm" / "__init__.py").is_file():
        print(f"error: no mfbm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(cores)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](workdir, load_reference())
        run = Run(workload, args.seed)
        k = 0
        peak = None
        if workload.in_process:
            # an untimed pass, which also lets lazy imports and caches settle
            outcome = run.iterate(k, trace_memory=True)
            peak = outcome.info["peak_mb"] if outcome is not None else float("nan")
            k += 1
        walls, setups, traced_walls, layers = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        min_timed = 2 * MIN_TRACED_ITERATIONS if args.trace else MIN_ITERATIONS
        timed = 0
        while time.perf_counter() < deadline or timed < min_timed:
            traced = bool(args.trace) and timed % 2 == 1
            first = len(tracer.spans)
            outcome = run.iterate(k, tracer if traced else None)
            k += 1
            timed += 1
            if outcome is None:
                continue
            if traced:
                traced_walls.append(outcome.wall)
                layers.append(layer_metrics(tracer.spans[first:], outcome.info))
            else:
                walls.append(outcome.wall)
                setups.append(outcome.setup)
        if peak is None:
            peak = workload.peak_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall, setup = upper_decile(walls), upper_decile(setups)
    figures = {
        "wall_s": wall,
        "setup_s": setup,
        "sample_rps": workload.replicates / (wall - setup),
        "peak_mb": peak,
    }
    units = END_TO_END
    if args.trace:
        figures = {name: median([layer[name] for layer in layers]) for name in PER_LAYER
                   if name != "trace.overhead_frac"}
        figures["trace.overhead_frac"] = upper_decile(traced_walls) / wall - 1.0
        units = PER_LAYER
    correct = run.correct()
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in units},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, env=env,
                  samples={"wall_s": walls, "setup_s": setups, "traced_wall_s": traced_walls},
                  gate_failures=run.gate_failures, defects=run.defects)
    with open(OUT_DIR / f"result-{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(OUT_DIR / f"spans-{stem}.json", "w") as handle:
            json.dump(tracer.spans, handle)

    for defect in run.defects:
        print(f"FAILED: {defect}", file=sys.stderr)
    if run.gate_failures:
        print(f"FAILED: verify gate in {run.gate_failures} iteration(s)", file=sys.stderr)
    print(f"env: {json.dumps(env)}")
    print(f"{args.workload}: {len(walls)} timed iterations, {len(traced_walls)} traced")
    for name, unit in units.items():
        print(f"  {name:40s} {figures[name]:.6g} {unit}")
    print(f"  {'failed_frac':40s} {run.failed / run.attempted:.6g} (failed {run.failed} of "
          f"{run.attempted} iterations)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
