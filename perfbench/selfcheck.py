#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload briefly, untraced once and traced with two seeds,
and fails (exit 1) unless:

- BENCHMARK.json names exactly the metrics and units run.py reports;
- every run checks its outputs correct, with no failed iteration;
- every named metric is present with its unit, and end-to-end values
  are finite and positive;
- counts and computed bytes (per-layer metrics in ``count`` or ``B``,
  except the measured ``cli.bytes_written``, whose CSV text length
  depends on the sampled values) are identical across the two traced
  runs.

Takes about five minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402

SECONDS = "1"
SEEDS = (1, 2)
MEASURED_NOT_COMPUTED = {"cli.bytes_written"}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    problems = []
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_e2e != END_TO_END:
        problems.append(f"end_to_end in BENCHMARK.json {declared_e2e} != run.py {END_TO_END}")
    if declared_layer != PER_LAYER:
        problems.append(f"per_layer in BENCHMARK.json {declared_layer} != run.py {PER_LAYER}")

    repeatable = [name for name, unit in PER_LAYER.items()
                  if unit in ("count", "B") and name not in MEASURED_NOT_COMPUTED]
    for workload in (w["name"] for w in bench["workloads"]):
        results = {(0, SEEDS[0]): run(workload, SEEDS[0], 0)}
        for seed in SEEDS:
            results[(1, seed)] = run(workload, seed, 1)
        for (trace, seed), result in results.items():
            label = f"{workload} seed {seed} trace {trace}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            expected = PER_LAYER if trace else END_TO_END
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics/units {got} != {expected}")
            if not trace:
                for name, m in result["metrics"].items():
                    if not (math.isfinite(m["value"]) and m["value"] > 0):
                        problems.append(f"{label}: {name} = {m['value']}")
        first, second = (results[(1, seed)]["metrics"] for seed in SEEDS)
        for name in repeatable:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} differs across runs: "
                                f"{first[name]['value']} vs {second[name]['value']}")
        print(f"{workload}: checked {len(results)} runs", flush=True)

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
