"""Span recording around the public functions of the mfbm modules.

Each wrapper replaces a function under the name its caller binds (for
example ``mfbm.circulant.lag_block_array``, which ``build_plan``
resolves at call time), so the package source is never edited. Spans
are kept in memory as ``[id, parent, name, start, end, info]`` lists
and written out once, when the benchmark ends.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np


def _plan_info(args, kwargs, plan):
    config = args[1] if len(args) > 1 else kwargs["config"]
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    return {
        "m": plan.m,
        "doublings": int(np.log2(plan.m // config.resolved_m())),
        "plan_bytes": sum(a.nbytes for a in arrays),
        "colour_bytes": plan.sqrt_blocks.nbytes,
    }


def _simulate_info(args, kwargs, paths):
    return {"replicates": len(paths)}


def _report_info(args, kwargs, result):
    return {"cells": len(result[0])}


def _main_info(args, kwargs, code):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


def _partial_sums_info(args, kwargs, values):
    spec, n = args[0], (args[1] if len(args) > 1 else kwargs["n"])
    truncation = kwargs.get("truncation") or spec.truncation or 4 * n
    return {
        "replicates": int(values.shape[0]),
        "innovations": spec.p * (n + 2 * truncation),
    }


# (attribute as the caller binds it, span name, probe of args and result)
WRAPS = [
    ("mfbm.circulant.validate", "params.validate", None),
    ("mfbm.cli.validate", "params.validate", None),
    ("mfbm.circulant.lag_block_array", "covariance.lag_block_array", None),
    ("mfbm.circulant.increment_covariance", "covariance.increment_covariance", None),
    ("mfbm.stats.increment_covariance", "covariance.increment_covariance", None),
    ("mfbm.circulant.check_admissibility", "existence.check_admissibility", None),
    ("mfbm.cli.check_admissibility", "existence.check_admissibility", None),
    ("mfbm.limits.params_from_ma", "representations.params_from_ma", None),
    ("mfbm.circulant.build_plan", "circulant.build_plan", _plan_info),
    ("mfbm.cli.build_plan", "circulant.build_plan", _plan_info),
    ("mfbm.circulant.simulate", "circulant.simulate", _simulate_info),
    ("mfbm.cli.simulate", "circulant.simulate", _simulate_info),
    ("mfbm.stats.ensemble_from_paths", "stats.ensemble_from_paths", None),
    ("mfbm.stats.compare_report", "stats.compare_report", _report_info),
    ("mfbm.cli.compare_report", "stats.compare_report", _report_info),
    ("mfbm.cli.main", "cli.main", _main_info),
    ("mfbm.limits.limit_target", "limits.limit_target", None),
    ("mfbm.limits.realize_kernel", "limits.realize_kernel", None),
    ("mfbm.limits.fftconvolve", "limits.fftconvolve", None),
    ("mfbm.limits.simulate_partial_sums", "limits.simulate_partial_sums", _partial_sums_info),
]


class Tracer:
    """In-memory span list with a stack of open spans for parent ids."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str, start: float) -> list:
        parent = self._open[-1] if self._open else None
        span = [len(self.spans), parent, name, start, None, None]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def _end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, info: dict | None = None):
        span = self._begin(name, time.perf_counter())
        span[5] = info
        try:
            yield span
        finally:
            self._end(span)

    def record(self, name: str, start: float, end: float, info: dict | None = None) -> None:
        """Add a finished span, e.g. one measured in another process."""
        parent = self._open[-1] if self._open else None
        self.spans.append([len(self.spans), parent, name, start, end, info])

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by a child process under the open span."""
        offset = len(self.spans)
        root = self._open[-1] if self._open else None
        for sid, parent, name, start, end, info in spans:
            new_parent = root if parent is None else parent + offset
            self.spans.append([sid + offset, new_parent, name, start, end, info])

    def wrap(self, fn, name: str, probe=None):
        def traced(*args, **kwargs):
            span = self._begin(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every function in WRAPS by a traced one; restore on exit."""
    saved = []
    try:
        for path, name, probe in WRAPS:
            module_name, attr = path.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, probe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanTotals:
    """Per-name duration, self time, call count and probe values of a span set.

    Self time is a span's duration minus that of its direct children.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_time = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                self.child_time[parent] += end - start
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.info = defaultdict(list)
        for sid, _, name, start, end, info in spans:
            self.total[name] += end - start
            self.self_time[name] += end - start - self.child_time[sid]
            self.calls[name] += 1
            if info is not None:
                self.info[name].append(info)

    def info_sum(self, name: str, key: str):
        return sum(i[key] for i in self.info[name] if key in i)

    def info_last(self, name: str, key: str):
        values = [i[key] for i in self.info[name] if key in i]
        return values[-1] if values else 0

    def self_where(self, name: str, key: str, value) -> float:
        """Self time of the spans of `name` whose probe recorded key == value."""
        return sum(
            end - start - self.child_time[sid]
            for sid, _, n, start, end, info in self.spans
            if n == name and info is not None and info.get(key) == value
        )
