"""The benchmark's three workloads: generated inputs, one iteration, checks.

Every workload derives its sampling seeds from the benchmark seed and
checks the outputs of every iteration:

- the statistical verify gate against the closed-form covariances
  (``ReportSummary.ok``; exit code 0 of ``mfbm verify``), where the
  workload runs one;
- a fingerprint of fixed ``(seed, replicate)`` outputs against
  ``reference.json``, at float round-off tolerance, so that a speed-up
  that changes any sampled path is caught.

The lag grids give 200 report cells per gate. ``ReportSummary.ok``
allows a share of 0.005 of cells beyond |z| = 4, which is one cell from
200 cells up and none below; lag-0 cross cells appear twice, as (i, j)
and (j, i). The gate is a statistical test, so correct samples fail it
now and then: at p = 5 an iteration failed in 2.7% of 1000 trials at
R = 32 with lags 0..4, 0.6% with lags 0..7, and 0.28% of 4000 trials at
R = 64 with lags 0..7. A gate failure counts as a failed iteration; the
run is judged wrong when two iterations fail it (see run.Run.correct).
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mfbm import circulant, limits, stats
from mfbm.limits import KernelSide, KernelSpec
from mfbm.params import MfbmParams, dump_params

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
# fixed sampling seed of the fingerprinted outputs
REFERENCE_SEED = 1007_0828
FINGERPRINT_ROWS = 16
# fingerprints agree to round-off; any real change to a path is far larger
FINGERPRINT_RTOL = 1e-9
CHILD_TIMEOUT_S = 120


@dataclass
class Outcome:
    """One iteration: its timings and what the checks need."""

    wall: float
    setup: float
    state: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def fingerprint(values: np.ndarray) -> dict:
    """Compact summary of an (R, n, p) array: fixed rows, sums, squares."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    rows = np.unique(np.linspace(0, n - 1, FINGERPRINT_ROWS).astype(int))
    return {
        "shape": list(values.shape),
        "rows": values[:, rows, :].tolist(),
        "sum": values.sum(axis=1).tolist(),
        "sumsq": (values**2).sum(axis=1).tolist(),
    }


def fingerprint_mismatch(got: dict, ref: dict, label: str) -> list[str]:
    """Failures found comparing a fingerprint against its reference."""
    if got["shape"] != ref["shape"]:
        return [f"{label}: shape {got['shape']} != reference {ref['shape']}"]
    n = ref["shape"][1]
    sumsq = np.array(ref["sumsq"])
    scale = float(np.sqrt(sumsq.max() / n))
    tolerances = {
        "rows": FINGERPRINT_RTOL * scale,
        "sum": FINGERPRINT_RTOL * scale * np.sqrt(n),
        "sumsq": FINGERPRINT_RTOL * float(sumsq.max()),
    }
    out = []
    for key, tol in tolerances.items():
        err = float(np.max(np.abs(np.array(got[key]) - np.array(ref[key]))))
        if not err <= tol:
            out.append(f"{label}: {key} differs from reference by {err:.3e} (tolerance {tol:.3e})")
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


class Workload:
    """Base: in-process workloads have their peak memory read by tracemalloc."""

    name = ""
    replicates = 0
    in_process = True

    def __init__(self, workdir: Path, reference: dict | None):
        self.workdir = workdir
        self.reference = reference

    def run(self, seed: int, tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> tuple[bool, list[str]]:
        """Whether the verify gate passed, and every other failure found."""
        raise NotImplementedError

    def fingerprints(self) -> dict:
        """Reference outputs at REFERENCE_SEED, keyed as in reference.json."""
        raise NotImplementedError

    def check_fingerprints(self, got: dict) -> list[str]:
        out = []
        for key, value in got.items():
            out += fingerprint_mismatch(value, self.reference[key], key)
        return out


class ExactWide(Workload):
    """Library chain build_plan -> simulate -> ensemble_from_paths -> compare_report.

    p = 5 at n = 65536 (embedding order 2^17): planning and the
    per-replicate colouring and FFT carry the cost.
    """

    name = "exact-wide"
    N = 65536
    replicates = 64
    LAGS = range(8)
    PARAMS = MfbmParams(
        H=np.array([0.25, 0.35, 0.45, 0.55, 0.65]),
        sigma=np.array([1.0, 0.5, 2.0, 1.0, 1.5]),
        rho=np.full((5, 5), 0.2) + 0.8 * np.eye(5),
        eta=0.05 * (np.triu(np.ones((5, 5)), 1) - np.tril(np.ones((5, 5)), -1)),
    )

    def run(self, seed, tracer=None):
        config = circulant.SimulationConfig(n=self.N, seed=seed, replicates=self.replicates)
        t0 = time.perf_counter()
        plan = circulant.build_plan(self.PARAMS, config)
        t1 = time.perf_counter()
        values = stats.ensemble_from_paths(circulant.simulate(plan, config))
        _, summary = stats.compare_report(values, self.PARAMS, self.LAGS)
        t2 = time.perf_counter()
        return Outcome(wall=t2 - t0, setup=t1 - t0, state={"plan": plan, "summary": summary})

    def _reference_paths(self, plan):
        config = circulant.SimulationConfig(n=self.N, seed=REFERENCE_SEED, replicates=2)
        return {self.name: fingerprint(stats.ensemble_from_paths(circulant.simulate(plan, config)))}

    def check(self, outcome):
        gate_ok = outcome.state["summary"].ok
        return gate_ok, self.check_fingerprints(self._reference_paths(outcome.state["plan"]))

    def fingerprints(self):
        plan = circulant.build_plan(self.PARAMS, circulant.SimulationConfig(n=self.N))
        return self._reference_paths(plan)


class CliShort(Workload):
    """`mfbm simulate` then `mfbm verify` as child processes, p = 2, n = 1024.

    Tiny embedding, many replicates: CSV formatting and parsing plus the
    cold import dominate. Set-up is a cold `mfbm check` child.
    """

    name = "cli-short"
    N = 1024
    replicates = 400
    LAGS = "0:49:50"
    in_process = False
    PARAMS = MfbmParams(
        H=np.array([0.3, 0.7]),
        sigma=np.array([1.0, 2.0]),
        rho=np.array([[1.0, 0.3], [0.3, 1.0]]),
        eta=np.array([[0.0, 0.1], [-0.1, 0.0]]),
    )

    def __init__(self, workdir, reference):
        super().__init__(workdir, reference)
        self.params_path = workdir / "params.json"
        dump_params(self.PARAMS, self.params_path)
        self.plan = circulant.build_plan(self.PARAMS, circulant.SimulationConfig(n=self.N))
        root = HERE.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.children = 0

    def _child(self, args: list[str], tracer) -> tuple[int, float]:
        """Run one CLI command to completion; return its exit code and wall time."""
        self.children += 1
        log = self.workdir / f"child-{self.children}.log"
        spans_path = self.workdir / f"spans-{self.children}.json"
        if tracer is None:
            argv = [sys.executable, "-m", "mfbm", *args]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), repr(time.monotonic()),
                    str(spans_path), *args]
        t0 = time.perf_counter()
        with open(log, "wb") as handle:
            proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=self.env)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        elapsed = time.perf_counter() - t0
        if tracer is not None and spans_path.exists():
            with open(spans_path) as handle:
                tracer.adopt(json.load(handle))
        return code, elapsed

    def run(self, seed, tracer=None):
        out_dir = self.workdir / "paths"
        report = self.workdir / "report.csv"
        shutil.rmtree(out_dir, ignore_errors=True)
        params = str(self.params_path)
        check_code, setup = self._child(["check", "--params", params], tracer)
        t0 = time.perf_counter()
        sim_code, _ = self._child(
            ["simulate", "--params", params, "--n", str(self.N), "--replicates",
             str(self.replicates), "--seed", str(seed), "--out", str(out_dir)],
            tracer,
        )
        verify_code, _ = self._child(
            ["verify", "--paths", str(out_dir), "--params", params, "--lags", self.LAGS,
             "--out", str(report)],
            tracer,
        )
        wall = time.perf_counter() - t0
        written = [report, *out_dir.iterdir()] if out_dir.is_dir() else []
        return Outcome(
            wall=wall,
            setup=setup,
            state={"seed": seed, "codes": (check_code, sim_code, verify_code), "out": out_dir},
            info={
                "files_written": len(written),
                "bytes_written": sum(f.stat().st_size for f in written if f.exists()),
            },
        )

    def _library_paths(self, seed: int, replicates: int) -> np.ndarray:
        config = circulant.SimulationConfig(n=self.N, seed=seed, replicates=replicates)
        return stats.ensemble_from_paths(circulant.simulate(self.plan, config))

    def check(self, outcome):
        check_code, sim_code, verify_code = outcome.state["codes"]
        # verify exits 1 exactly when the gate fails
        gate_ok = verify_code == 0
        failures = [
            f"{self.name}: mfbm {command} exited with {code}"
            for command, code, allowed in (
                ("check", check_code, (0,)),
                ("simulate", sim_code, (0,)),
                ("verify", verify_code, (0, 1)),
            )
            if code not in allowed
        ]
        out_dir = outcome.state["out"]
        if failures or not out_dir.is_dir():
            return gate_ok, failures or [f"{self.name}: no output directory"]
        with open(out_dir / "manifest.json") as handle:
            manifest = json.load(handle)
        if not manifest.get("exact") or manifest.get("replicates") != self.replicates:
            failures.append(f"{self.name}: manifest reports {manifest}")
        if len(list(out_dir.glob("path_*.csv"))) != self.replicates:
            failures.append(f"{self.name}: wrong number of path files")
        # the files hold the library's paths for the same (seed, replicate), at %.12g
        expected = self._library_paths(outcome.state["seed"], 2)
        for r in range(2):
            written = np.loadtxt(out_dir / f"path_{r:05d}.csv", delimiter=",", skiprows=1,
                                 ndmin=2)[:, 1:]
            scale = float(np.abs(expected[r]).max())
            if written.shape != expected[r].shape or not np.allclose(
                written, expected[r], rtol=1e-10, atol=1e-11 * scale
            ):
                failures.append(f"{self.name}: path_{r:05d}.csv differs from the library's path")
        return gate_ok, failures + self.check_fingerprints(self.fingerprints())

    def fingerprints(self):
        return {self.name: fingerprint(self._library_paths(REFERENCE_SEED, 2))}

    @staticmethod
    def peak_mb() -> float:
        """Largest resident set of any child this process has waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _pos(alpha, d):
    return KernelSide(regime="power_pos", alpha=alpha, d=d)


def _neg(alpha, d):
    return KernelSide(regime="power_neg", alpha=alpha, d=d)


class PsumCross(Workload):
    """simulate_partial_sums at n = 512 and 4096 on a p = 2 grid with cross terms.

    Both power regimes appear, so limits carries almost all the cost.
    Set-up is limit_target plus realize_kernel for every cell at K = 4n.
    """

    name = "psum-cross"
    NS = (512, 4096)
    R = 200
    replicates = R * len(NS)
    TAUS = (0.25, 0.5, 1.0)
    SPEC = KernelSpec(
        plus=((_pos(1.0, 0.2), _pos(0.5, 0.2)), (None, _neg(1.0, -0.2))),
        minus=((None, None), (_neg(0.4, -0.2), None)),
    )

    def run(self, seed, tracer=None):
        t0 = time.perf_counter()
        limits.limit_target(self.SPEC)
        for n in self.NS:
            for side in ("plus", "minus"):
                for i in range(self.SPEC.p):
                    for j in range(self.SPEC.p):
                        limits.realize_kernel(self.SPEC, side, i, j, 4 * n)
        t1 = time.perf_counter()
        sums = [
            limits.simulate_partial_sums(self.SPEC, n, self.TAUS, seed=seed, replicates=self.R)
            for n in self.NS
        ]
        t2 = time.perf_counter()
        return Outcome(wall=t2 - t0, setup=t1 - t0, state={"sums": sums})

    def check(self, outcome):
        failures = []
        shape = (self.R, len(self.TAUS), self.SPEC.p)
        for n, values in zip(self.NS, outcome.state["sums"]):
            if values.shape != shape or not np.all(np.isfinite(values)):
                failures.append(f"{self.name}: n={n} output has shape {values.shape} or non-finite values")
        return True, failures + self.check_fingerprints(self.fingerprints())

    def fingerprints(self):
        return {
            f"{self.name}-{n}": fingerprint(
                limits.simulate_partial_sums(self.SPEC, n, self.TAUS, seed=REFERENCE_SEED,
                                             replicates=2)
            )
            for n in self.NS
        }


WORKLOADS = {w.name: w for w in (ExactWide, CliShort, PsumCross)}
