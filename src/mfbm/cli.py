"""Command line front end.

Subcommands: covariance, spectrum, check, represent, simulate, verify,
limits. Every one that needs process parameters reads the same JSON
schema with keys p, H, sigma, rho, eta. Numeric CSV output uses %.12g.

Exit codes: 0 success (check: admissible; verify: gate passed), 1 for a
negative answer (no valid covariance, a failed embedding), 2 bad input.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from pathlib import Path
from typing import Iterator

import numpy as np

# simulate is unused here, but the benchmark tracer (perfbench/tracing.py)
# wraps it under this module's name
from .circulant import (  # noqa: F401
    CirculantEmbeddingError,
    SimulationConfig,
    _run_meta,
    _sampler,
    build_plan,
    simulate,
)
from .covariance import _blocks, _increments, lag_block_array
from .existence import (
    CovarianceExistenceError,
    SpecialCase,
    admissible_boundary,
    check_admissibility,
    max_correlation,
)
from .limits import limit_target, load_kernel_spec, simulate_partial_sums
# validate is unused here, but the benchmark tracer (perfbench/tracing.py)
# wraps it under this module's name
from .params import load_params, params_to_dict, validate  # noqa: F401
from .representations import ma_from_spectral, spectral_factor, spectral_factor_p2
from .spectral import _coherence, _density, _omega_array, admissibility_matrix
# compare_report is unused here, but the benchmark tracer wraps it under this
# module's name
from .stats import (  # noqa: F401
    _check_components,
    _checked_lags,
    _lag_sums,
    _report,
    compare_report,
    replicate_mean_stderr,
)

__all__ = ["main", "build_parser"]

_FMT = "%.12g"
# paths that simulate draws before it writes them, and that verify folds
# into its lag sums, at a time: a few dozen, so neither command holds more
# than this many whatever the replicate count
_BATCH = 32
_GRID_OPTIONS = ("--lags", "--omegas", "--taus", "--max-corr-grid", "--n-grid")


def _fmt(x) -> str:
    return _FMT % float(x)


def _parse_grid(text: str) -> np.ndarray:
    """Grid argument: 'start:stop:count' or a comma separated list.

    A grid with no values, or with a NaN or infinite one, is refused:
    every command would otherwise report on nothing, or write NaN rows,
    and succeed.
    """
    text = text.strip()
    ranged = ":" in text
    if ranged:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError(f"grid {text!r} must look like start:stop:count")
        count = int(fields.pop())
        if count < 1:
            raise ValueError("grid count must be positive")
    else:
        fields = [f for f in text.split(",") if f.strip() != ""]
    values = np.array([float(f) for f in fields])
    if ranged:
        # non-finite ends, or finite ones whose span overflows, are
        # refused below, from the grid they make
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.linspace(*values, count)
    if values.size == 0:
        raise ValueError(f"grid {text!r} holds no values")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid {text!r} holds a non-finite value")
    return values


def _parse_int_grid(text: str) -> list[int]:
    values = _parse_grid(text)
    out = []
    for v in values:
        if v != int(v):
            raise ValueError(f"expected integers, got {v}")
        out.append(int(v))
    return out


@contextlib.contextmanager
def _output(path: str | None):
    """stdout for path None or '-', else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _require_finite(values: np.ndarray, what: str) -> None:
    """Refuse a computed table holding a NaN or infinite value, so that no
    command writes one and succeeds."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"the {what} is not finite at these inputs: a float over- or underflowed")


def _write_rows(path: str | None, header: list[str], rows) -> None:
    with _output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_covariance(args) -> int:
    params = load_params(args.params)
    lags = _parse_grid(args.lags)
    with np.errstate(all="ignore"):
        blocks = lag_block_array(params, lags, args.delta)
    _require_finite(blocks, "covariance")
    rows = [
        [i, j, _fmt(h), _fmt(args.delta), _fmt(g)]
        for h, block in zip(lags, blocks)
        for (i, j), g in np.ndenumerate(block)
    ]
    _write_rows(args.out, ["i", "j", "h", "delta", "gamma"], rows)
    return 0


def _cmd_spectrum(args) -> int:
    params = load_params(args.params)
    omegas = _omega_array(_parse_grid(args.omegas), args.delta)
    q = admissibility_matrix(params)
    i, j = np.indices((params.p, params.p))
    with np.errstate(all="ignore"):
        dens = _density(params, q, i, j, omegas, args.delta).transpose(2, 0, 1)
    _require_finite(dens, "spectral density")
    coh = _coherence(q)
    rows = [
        [i, j, _fmt(omegas[k]), _fmt(args.delta), _fmt(s.real), _fmt(s.imag), _fmt(coh[i, j])]
        for (k, i, j), s in np.ndenumerate(dens)
    ]
    _write_rows(
        args.out, ["i", "j", "omega", "delta", "re_S", "im_S", "coherence"], rows
    )
    return 0


def _cmd_check(args) -> int:
    params = load_params(args.params)
    if args.boundary:
        if params.p != 2:
            raise ValueError("--boundary needs a two component parameter file")
        curve = admissible_boundary(params.H[0], params.H[1], n_points=args.points)
        _write_rows(
            args.out, ["rho", "eta_prime"], [[_fmt(a), _fmt(b)] for a, b in curve]
        )
        return 0
    if args.max_corr_grid is not None:
        hs = _parse_grid(args.max_corr_grid)
        case = SpecialCase(args.case)
        rows = []
        for h1 in hs:
            for h2 in hs:
                rows.append([_fmt(h1), _fmt(h2), _fmt(max_correlation(h1, h2, case))])
        _write_rows(args.out, ["H1", "H2", "max_rho"], rows)
        return 0
    report = check_admissibility(params)
    print(
        f"admissible: {report.admissible}  "
        f"min_eigenvalue: {_fmt(report.min_eigenvalue)}  "
        f"threshold: {_fmt(report.threshold)}"
        + (
            f"  coherence: {_fmt(report.coherence)}"
            if report.coherence is not None
            else ""
        )
    )
    return 0 if report.admissible else 1


def _cmd_represent(args) -> int:
    params = load_params(args.params)
    a = (spectral_factor_p2 if params.p == 2 else spectral_factor)(params).matrix
    payload = {
        "A_re": a.real.tolist(),
        "A_im": a.imag.tolist(),
        "M_plus": None,
        "M_minus": None,
    }
    try:
        ma = ma_from_spectral(a, params.H)
        payload["M_plus"] = ma.m_plus.tolist()
        payload["M_minus"] = ma.m_minus.tolist()
    except ValueError as exc:
        print(f"moving average weights omitted: {exc}", file=sys.stderr)
    with _output(args.out) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return 0


def _cmd_simulate(args) -> int:
    params = load_params(args.params)
    config = SimulationConfig(
        n=args.n,
        m=args.m,
        seed=args.seed,
        replicates=args.replicates,
        eig_policy=args.eig_policy,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    plan = build_plan(params, config)
    draw = _sampler(plan, config)
    batch = np.empty((min(config.replicates, _BATCH), config.n, params.p))
    header = ",".join(["t"] + [f"X_{k + 1}" for k in range(params.p)]) + "\n"
    row = "%d" + ("," + _FMT) * params.p + "\n"
    t0 = 0 if args.integrate else 1
    for r in range(config.replicates):
        path = batch[r % _BATCH]
        if r % _BATCH == 0:
            # the batch is drawn back to back, the sampler's buffers still
            # in cache: a draw between two file writes runs measurably
            # slower at small m
            for k, out in enumerate(batch[: config.replicates - r]):
                draw(r + k, out)
        if args.integrate:
            # the path from zero: numpy accumulates each column in time order
            path = np.vstack((np.zeros((1, params.p)), np.cumsum(path, axis=0)))
        with open(out_dir / f"path_{r:05d}.csv", "w", newline="") as handle:
            handle.write(header)
            handle.writelines(
                row % (t0 + t, *x) for t, x in enumerate(path.tolist())
            )
    wall = time.perf_counter() - start
    manifest = {
        "params": params_to_dict(params),
        **_run_meta(plan, config),
        "integrate": bool(args.integrate),
        "wall_time_seconds": wall,
    }
    with open(out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {config.replicates} paths to {out_dir} (m={plan.m}, exact={plan.exact})")
    return 0


def _read_increments(paths: str) -> Iterator[np.ndarray]:
    """The increments of every path CSV in the directory paths, one
    (n, p) array per file, in file name order.

    Files are parsed one at a time, so the ensemble is never held; an
    integrated file is differenced on its own. Whether the files hold
    integrated paths comes from manifest.json when it is present; without
    one, a t column starting at 0 means integrated. A CSV without the path
    header, e.g. a previously written report, is skipped and listed on
    stderr. Refused: a path file holding a NaN or infinite value, or
    increments of another shape than the first file's; and, once every
    file is read, no path file, a mix of integrated and increment files,
    or a count of path files other than the replicates manifest.json
    records, as when files of an earlier, larger run are left in the
    directory.
    """
    root = Path(paths)
    manifest = {}
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        with open(manifest_path) as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{manifest_path} is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("integrate"), bool):
            raise ValueError(
                f"{manifest_path} must hold a JSON object with \"integrate\" true or false"
            )
    manifest_integrate = manifest.get("integrate")
    first = None
    count = 0
    integrated_flags = set()
    skipped = []
    for f in sorted(root.glob("*.csv")):
        with open(f, newline="") as handle:
            if handle.readline().strip().split(",")[0] != "t":
                skipped.append(f"{f.name} (not a path file)")
                continue
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        if data.shape[0] == 0:
            raise ValueError(f"{f} holds no rows")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{f} holds a non-finite value")
        t0 = float(data[0, 0])
        if manifest_integrate is None:
            integrated = t0 == 0.0
        elif t0 != (0.0 if manifest_integrate else 1.0):
            raise ValueError(
                f"{f} has t starting at {t0:g}, which contradicts "
                f"integrate={manifest_integrate} in manifest.json"
            )
        else:
            integrated = manifest_integrate
        values = np.diff(data[:, 1:], axis=0) if integrated else data[:, 1:]
        if first is None:
            first, shape = f, values.shape
        elif values.shape != shape:
            raise ValueError(
                f"{f} holds increments of shape {values.shape}, "
                f"but {first} holds {shape}"
            )
        count += 1
        integrated_flags.add(integrated)
        yield values
    if skipped:
        noun = "file" if len(skipped) == 1 else "files"
        print(f"skipped {len(skipped)} {noun}: {', '.join(skipped)}", file=sys.stderr)
    if first is None:
        raise ValueError(f"no path files found under {paths}")
    if "replicates" in manifest and count != manifest["replicates"]:
        raise ValueError(
            f"{paths} holds {count} path files, but manifest.json records "
            f"{manifest['replicates']!r} replicates: files of an earlier run?"
        )
    if len(integrated_flags) != 1:
        raise ValueError("mixed integrated and increment path files")


def _lag_sums_of_files(paths: str, params, lags: list[int]) -> np.ndarray:
    """The stacked per-replicate lag sums (stats._lag_sums) of every path
    file under paths, one row per file.

    The component count and the lags are checked against the first file
    before any other is parsed. Files are copied into a buffer of _BATCH
    replicates, and each full buffer is folded into the sums, so the
    increments of at most that many files are held at once.
    """
    batch = None
    sums = []
    filled = 0
    for values in _read_increments(paths):
        if batch is None:
            _check_components(values.shape[1], params)
            _checked_lags(lags, len(values))
            batch = np.empty((_BATCH, *values.shape))
        batch[filled] = values
        filled += 1
        if filled == _BATCH:
            sums.append(_lag_sums(batch, lags))
            filled = 0
    if filled:
        sums.append(_lag_sums(batch[:filled], lags))
    return np.concatenate(sums)


def _cmd_verify(args) -> int:
    """Compare the path files under --paths against the closed form."""
    params = load_params(args.params)
    lags = _parse_int_grid(args.lags)
    comparisons, summary = _report(
        _lag_sums_of_files(args.paths, params, lags), params, lags, args.delta
    )
    rows = [
        [c.i, c.j, c.h, *map(_fmt, (c.delta, c.empirical, c.theoretical, c.stderr, c.z)),
         c.n_replicates]
        for c in comparisons
    ]
    _write_rows(
        args.out,
        ["i", "j", "h", "delta", "empirical", "theoretical", "stderr", "z", "n_replicates"],
        rows,
    )
    print(summary, file=sys.stderr)
    return 0 if summary.ok else 1


def _cmd_limits(args) -> int:
    spec = load_kernel_spec(args.kernels)
    params = limit_target(spec).params
    taus = _parse_grid(args.taus)
    # X(0) = 0: the covariance of X_i(tau), X_j(tau) is that of the steps
    # of length tau over [0, tau], at lag 0
    target = _blocks(_increments, params, np.zeros_like(taus), taus)
    rows = []
    for n in _parse_int_grid(args.n_grid):
        vals = simulate_partial_sums(
            spec,
            n=n,
            taus=taus,
            seed=args.seed,
            replicates=args.replicates,
            noise=args.noise,
        )
        emp, se = replicate_mean_stderr(vals[:, :, :, None] * vals[:, :, None, :])
        rows.extend(
            [n, _fmt(taus[t]), i, j, _fmt(e), _fmt(target[t, i, j]), _fmt(se[t, i, j])]
            for (t, i, j), e in np.ndenumerate(emp)
        )
    _write_rows(
        args.out,
        ["n", "tau", "component_i", "component_j", "empirical_cov", "target_cov", "mc_stderr"],
        rows,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbm",
        description="Exact simulation and second order analysis of "
        "multivariate fractional Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("covariance", help="increment cross-covariances on a lag grid")
    cov.add_argument("--params", required=True, help="parameter JSON file")
    cov.add_argument("--lags", required=True, help="lag grid, start:stop:count or list")
    cov.add_argument("--delta", type=float, default=1.0, help="increment step")
    cov.add_argument("--out", default=None, help="output CSV (default stdout)")
    cov.set_defaults(func=_cmd_covariance)

    spec = sub.add_parser("spectrum", help="cross-spectral density on a frequency grid")
    spec.add_argument("--params", required=True)
    spec.add_argument("--omegas", required=True, help="frequency grid, nonzero")
    spec.add_argument("--delta", type=float, default=1.0)
    spec.add_argument("--out", default=None)
    spec.set_defaults(func=_cmd_spectrum)

    chk = sub.add_parser("check", help="admissibility test and admissible-set data")
    chk.add_argument("--params", required=True)
    mode = chk.add_mutually_exclusive_group()
    mode.add_argument(
        "--boundary",
        action="store_true",
        help="emit the admissible boundary curve for the file's two H values",
    )
    chk.add_argument("--points", type=int, default=361, help="boundary resolution")
    mode.add_argument(
        "--max-corr-grid",
        default=None,
        help="emit max admissible correlation over this H grid",
    )
    chk.add_argument(
        "--case",
        default=SpecialCase.WELL_BALANCED.value,
        choices=[c.value for c in SpecialCase],
        help="special case for --max-corr-grid",
    )
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=_cmd_check)

    rep = sub.add_parser("represent", help="spectral factor and moving average weights")
    rep.add_argument("--params", required=True)
    rep.add_argument("--out", default=None, help="output JSON (default stdout)")
    rep.set_defaults(func=_cmd_represent)

    sim = sub.add_parser("simulate", help="draw exact sample paths")
    sim.add_argument("--params", required=True)
    sim.add_argument("--n", type=int, required=True, help="path length")
    sim.add_argument("--replicates", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--m", type=int, default=None, help="embedding order override")
    sim.add_argument(
        "--integrate",
        action="store_true",
        help="emit integrated paths from zero instead of increments",
    )
    sim.add_argument(
        "--eig-policy",
        default="grow",
        choices=["fail", "grow", "truncate"],
        help="response to a non-PSD embedding",
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="compare a path ensemble against closed forms")
    ver.add_argument("--paths", required=True, help="directory of path CSVs")
    ver.add_argument("--params", required=True)
    ver.add_argument("--lags", default="0:20:21", help="integer lag grid")
    ver.add_argument("--delta", type=float, default=1.0)
    ver.add_argument("--out", default=None, help="comparison CSV (default stdout)")
    ver.set_defaults(func=_cmd_verify)

    lim = sub.add_parser("limits", help="partial sum statistics against the limit law")
    lim.add_argument("--kernels", required=True, help="kernel spec JSON file")
    lim.add_argument("--n-grid", default="512,1024,2048", help="path lengths")
    lim.add_argument("--taus", default="0.5,1.0", help="partial sum fractions in [0,1]")
    lim.add_argument("--replicates", type=int, default=200)
    lim.add_argument("--seed", type=int, default=0)
    lim.add_argument("--noise", default="gaussian", choices=["gaussian", "rademacher"])
    lim.add_argument("--out", default=None)
    lim.set_defaults(func=_cmd_limits)

    return parser


def _attach_grid_values(argv) -> list[str]:
    """Rewrite 'option value' as 'option=value' for every grid option, so
    that a grid starting with '-' is not taken for an option. Abbreviated
    grid option names, which argparse accepts, are rewritten too; the bare
    '--' separator never is."""
    out = []
    rest = iter(argv)
    for arg in rest:
        grid = len(arg) > 2 and any(option.startswith(arg) for option in _GRID_OPTIONS)
        value = next(rest, None) if grid else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_grid_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (CovarianceExistenceError, CirculantEmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
