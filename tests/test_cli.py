import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfbm import (
    MfbmParams,
    SimulationConfig,
    SpecialCase,
    build_plan,
    coherence,
    cross_spectral_density,
    dump_params,
    limit_target,
    load_kernel_spec,
    load_params,
    max_correlation,
    mfbm_covariance,
    params_to_dict,
    simulate,
    simulate_partial_sums,
)
from mfbm.cli import _attach_grid_values, main
from conftest import make_params, random_admissible


@pytest.fixture
def params_file(tmp_path):
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    path = tmp_path / "params.json"
    dump_params(params, path)
    return str(path)


@pytest.fixture
def kernels_file(tmp_path):
    payload = {
        "p": 1,
        "plus": [[{"regime": "power_pos", "alpha": 1.0, "d": 0.2}]],
        "minus": [[None]],
    }
    path = tmp_path / "kernels.json"
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_covariance_subcommand(params_file, tmp_path):
    out = tmp_path / "cov.csv"
    rc = main(
        ["covariance", "--params", params_file, "--lags", "0,1,2", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 3 * 4
    cell = next(r for r in rows if r["i"] == "0" and r["j"] == "1" and r["h"] == "0")
    assert float(cell["gamma"]) == pytest.approx(0.3, rel=1e-10)
    assert list(rows[0]) == ["i", "j", "h", "delta", "gamma"]


def test_covariance_rejects_bad_grid(params_file):
    assert main(["covariance", "--params", params_file, "--lags", "0:x:3"]) == 2


def test_covariance_rejects_invalid_params(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"H": [0.3], "sigma": [1.0], "rho": [[1.0]]}))
    assert main(["covariance", "--params", str(bad), "--lags", "0"]) == 2


@pytest.mark.parametrize(
    "command, grid, delta",
    [("covariance", "--lags=0:2:3", "1e308"), ("spectrum", "--omegas=1e-300", "1")],
    ids=["covariance-overflow", "spectrum-underflow"],
)
def test_non_finite_results_exit_2(params_file, tmp_path, capsys, command, grid, delta):
    # covariance wrote nan cross pairs and an inf (1, 1) entry, spectrum a
    # 0/0 nan after underflow, both with numpy warnings and exit code 0
    out = tmp_path / "out.csv"
    argv = [command, "--params", params_file, grid, "--delta", delta, "--out", str(out)]
    assert main(argv) == 2
    assert "is not finite at these inputs" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_subcommand(tmp_path):
    single = tmp_path / "p1.json"
    dump_params(make_params([0.5]), single)
    out = tmp_path / "spec.csv"
    rc = main(
        ["spectrum", "--params", str(single), "--omegas", "3.141592653589793", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["i", "j", "omega", "delta", "re_S", "im_S", "coherence"]
    assert float(rows[0]["re_S"]) == pytest.approx(2.0 / np.pi**3, rel=1e-10)
    assert float(rows[0]["im_S"]) == 0.0


def test_spectrum_rows_match_scalar_density(tmp_path):
    params_path = tmp_path / "p3.json"
    dump_params(random_admissible(np.random.default_rng(3), 3), params_path)
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--params", str(params_path), "--omegas=-3:3:40", "--delta", "0.7"]
    assert main(argv + ["--out", str(out)]) == 0
    params = load_params(params_path)
    want = ["i,j,omega,delta,re_S,im_S,coherence"]
    for w in np.linspace(-3.0, 3.0, 40):
        for i in range(3):
            for j in range(3):
                s = cross_spectral_density(params, i, j, w, 0.7)
                c = coherence(params, i, j) if i != j else 1.0
                cells = (w, 0.7, s.real, s.imag, c)
                want.append(f"{i},{j}," + ",".join("%.12g" % v for v in cells))
    assert out.read_text().splitlines() == want


def test_spectrum_rejects_zero_frequency(params_file):
    assert main(["spectrum", "--params", params_file, "--omegas=-1,0,1"]) == 2


def test_check_admissible_and_not(params_file, tmp_path, capsys):
    assert main(["check", "--params", params_file]) == 0
    assert "admissible: True" in capsys.readouterr().out
    hot = tmp_path / "hot.json"
    dump_params(make_params([0.1, 0.8], rho01=0.9), hot)
    assert main(["check", "--params", str(hot)]) == 1
    assert "admissible: False" in capsys.readouterr().out


def test_check_has_no_tolerance_option(params_file):
    with pytest.raises(SystemExit) as caught:
        main(["check", "--params", params_file, "--psd-tol", "0"])
    assert caught.value.code == 2


def test_check_boundary_curve(params_file, tmp_path):
    out = tmp_path / "boundary.csv"
    rc = main(
        ["check", "--params", params_file, "--boundary", "--points", "17", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 17
    assert list(rows[0]) == ["rho", "eta_prime"]
    assert rows[0] == rows[-1]
    want = max_correlation(0.3, 0.7, SpecialCase.WELL_BALANCED)
    assert float(rows[0]["rho"]) == pytest.approx(want, rel=1e-9)
    assert float(rows[0]["eta_prime"]) == 0.0


def test_check_boundary_needs_two_components(tmp_path, capsys):
    three = tmp_path / "three.json"
    dump_params(make_params([0.3, 0.5, 0.7]), three)
    assert main(["check", "--params", str(three), "--boundary"]) == 2
    assert "--boundary needs a two component parameter file" in capsys.readouterr().err


def test_check_modes_exclude_each_other(params_file, capsys):
    # the boundary was written and the grid ignored without a word
    with pytest.raises(SystemExit) as caught:
        main(["check", "--params", params_file, "--boundary", "--max-corr-grid", "0.1,0.8"])
    assert caught.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_check_max_corr_grid(params_file, tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(
        [
            "check", "--params", params_file,
            "--max-corr-grid", "0.1,0.8",
            "--case", "well_balanced",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 4
    cell = next(r for r in rows if r["H1"] == "0.1" and r["H2"] == "0.8")
    assert float(cell["max_rho"]) == pytest.approx(0.5140241285804235, rel=1e-9)


def test_represent_emits_factor_and_weights(params_file, tmp_path):
    out = tmp_path / "factor.json"
    assert main(["represent", "--params", params_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"A_re", "A_im", "M_plus", "M_minus"}
    a = np.array(payload["A_re"]) + 1j * np.array(payload["A_im"])
    assert a.shape == (2, 2)
    assert payload["M_plus"] is not None
    assert np.isfinite(payload["M_plus"]).all()


def test_represent_omits_weights_at_half(tmp_path, capsys):
    half = tmp_path / "half.json"
    dump_params(make_params([0.5, 0.7], rho01=0.2), half)
    out = tmp_path / "factor.json"
    assert main(["represent", "--params", str(half), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["M_plus"] is None and payload["M_minus"] is None
    assert "omitted" in capsys.readouterr().err


def test_simulate_then_verify_round_trip(params_file, tmp_path):
    out_dir = tmp_path / "paths"
    rc = main(
        [
            "simulate", "--params", params_file,
            "--n", "24", "--replicates", "60", "--seed", "5",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    files = sorted(out_dir.glob("path_*.csv"))
    assert len(files) == 60
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for key in (
        "params", "n", "replicates", "seed", "eig_policy", "integrate", "m",
        "truncated_mass", "exact", "doublings", "min_rel_eigenvalue", "rng",
        "wall_time_seconds",
    ):
        assert key in manifest
    assert manifest["n"] == 24 and manifest["exact"] is True
    first = files[0].read_text().splitlines()
    assert first[0] == "t,X_1,X_2"
    assert first[1].startswith("1,")

    report = tmp_path / "report.csv"
    rc = main(
        [
            "verify", "--paths", str(out_dir), "--params", params_file,
            "--lags", "0:5:6", "--out", str(report),
        ]
    )
    assert rc == 0
    rows = read_csv(report)
    assert len(rows) == 6 * 4
    assert {r["h"] for r in rows} == {"0.0", "1.0", "2.0", "3.0", "4.0", "5.0"}


def test_simulate_manifest_records_embedding_growth(tmp_path):
    # order-4 embedding of n=3 is indefinite for this pair; order 8 is not
    params_path = tmp_path / "grows.json"
    dump_params(make_params([0.95, 0.6], rho01=-0.6), params_path)
    out_dir = tmp_path / "paths"
    rc = main(
        [
            "simulate", "--params", str(params_path),
            "--n", "3", "--m", "4", "--replicates", "2", "--out", str(out_dir),
        ]
    )
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["m"] == 8 and manifest["doublings"] == 1
    assert manifest["min_rel_eigenvalue"] > 0.0
    assert manifest["wall_time_seconds"] > 0.0


def test_simulate_rejects_lossy_minimal_order(params_file, tmp_path, capsys):
    # the fixture pair has eta01 != 0, so m = 2(n-1) = 16 would fold away
    # the asymmetry of the lag-8 block
    argv = ["simulate", "--params", params_file, "--n", "9", "--out", str(tmp_path / "x")]
    assert main(argv + ["--m", "16"]) == 2
    assert "m=32" in capsys.readouterr().err
    assert main(argv + ["--m", "32"]) == 0


def test_simulate_integrated_paths_verify(params_file, tmp_path):
    out_dir = tmp_path / "walks"
    rc = main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--integrate",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    first = (out_dir / "path_00000.csv").read_text().splitlines()
    assert first[1].split(",")[0] == "0"
    assert float(first[1].split(",")[1]) == 0.0
    rc = main(
        ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    )
    assert rc == 0


def assert_files_render(out, params, config, integrate):
    """The path files under out are the library's paths of config, at %.12g."""
    ensemble = simulate(build_plan(params, config), config).values
    if integrate:
        # paths from zero: the cumulative sum of the library's increments
        ensemble = np.concatenate(
            (np.zeros((len(ensemble), 1, params.p)), np.cumsum(ensemble, axis=1)), axis=1
        )
    assert len(list(out.glob("path_*.csv"))) == len(ensemble)
    header = ",".join(["t"] + [f"X_{k + 1}" for k in range(params.p)])
    t0 = 0 if integrate else 1
    for r, values in enumerate(ensemble):
        lines = [header] + [
            f"{t0 + t}," + ",".join("%.12g" % v for v in row)
            for t, row in enumerate(values)
        ]
        text = (out / f"path_{r:05d}.csv").read_text()
        assert text == "\n".join(lines) + "\n"


@pytest.mark.parametrize("integrate", [False, True])
def test_simulate_files_render_the_library_paths(params_file, tmp_path, integrate):
    out = tmp_path / "paths"
    argv = ["simulate", "--params", params_file, "--n", "40", "--replicates", "3"]
    argv += ["--seed", "9", "--out", str(out)] + (["--integrate"] if integrate else [])
    assert main(argv) == 0
    config = SimulationConfig(n=40, seed=9, replicates=3)
    assert_files_render(out, load_params(params_file), config, integrate)


@pytest.mark.parametrize("integrate", [False, True])
def test_simulate_streams_the_library_paths_at_p3(tmp_path, integrate):
    # CLI simulate writes each replicate as it is drawn; the files are the
    # library's ensemble all the same, for three components with eta != 0
    params = random_admissible(np.random.default_rng(3), 3)
    assert np.any(params.eta != 0.0)
    params_path = tmp_path / "p3.json"
    dump_params(params, params_path)
    out = tmp_path / "paths"
    argv = ["simulate", "--params", str(params_path), "--n", "37", "--replicates", "5"]
    argv += ["--seed", "4", "--out", str(out)] + (["--integrate"] if integrate else [])
    assert main(argv) == 0
    config = SimulationConfig(n=37, seed=4, replicates=5)
    assert_files_render(out, load_params(params_path), config, integrate)


def test_verify_flags_wrong_law(params_file, tmp_path):
    out_dir = tmp_path / "paths"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "24", "--replicates", "80", "--out", str(out_dir),
        ]
    )
    wrong = tmp_path / "wrong.json"
    dump_params(make_params([0.45, 0.55], rho01=0.3), wrong)
    rc = main(
        ["verify", "--paths", str(out_dir), "--params", str(wrong), "--lags", "0:5:6"]
    )
    assert rc == 1


def test_verify_reports_skipped_files(params_file, tmp_path, capsys):
    out_dir = tmp_path / "paths"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--out", str(out_dir),
        ]
    )
    (out_dir / "notes.csv").write_text("a,b\n1,2\n")
    capsys.readouterr()
    rc = main(
        ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    )
    assert rc == 0
    assert "skipped 1 file: notes.csv (not a path file)" in capsys.readouterr().err


def test_verify_reads_integrate_from_manifest(params_file, tmp_path):
    out_dir = tmp_path / "walks"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--integrate", "--out", str(out_dir),
        ]
    )
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    # t columns start at 0: a manifest claiming increments is contradicted
    manifest_path.write_text(json.dumps({**manifest, "integrate": False}))
    assert main(argv) == 2
    # without a manifest the t column decides
    manifest_path.unlink()
    assert main(argv) == 0


def shift_t(path, start):
    """Rewrite the t column of a path file to count from start."""
    lines = path.read_text().splitlines(keepends=True)
    rows = [line.split(",", 1)[1] for line in lines[1:]]
    path.write_text(lines[0] + "".join(f"{start + t},{row}" for t, row in enumerate(rows)))


def test_verify_without_a_manifest_needs_t_from_0_or_1(params_file, tmp_path, capsys):
    # t from 5 was read as increments, and verify exited 0
    out_dir = tmp_path / "paths"
    argv = ["simulate", "--params", params_file, "--n", "64", "--replicates", "40"]
    assert main(argv + ["--out", str(out_dir)]) == 0
    (out_dir / "manifest.json").unlink()
    for path in out_dir.glob("path_*.csv"):
        shift_t(path, 5)
    capsys.readouterr()
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    assert main(argv) == 2
    assert (
        f"error: {out_dir / 'path_00000.csv'} has t starting at 5: a path file's t "
        "starts at 0 (integrated) or 1 (increments)"
    ) in capsys.readouterr().err


@pytest.mark.parametrize("integrate", [False, True])
def test_verify_without_a_manifest_holds_every_file_to_the_first(
    params_file, tmp_path, capsys, integrate
):
    # the first file sets the rule; the first file that breaks it is named
    # before a later, unreadable one is parsed
    out_dir = tmp_path / "paths"
    argv = ["simulate", "--params", params_file, "--n", "16", "--replicates", "40"]
    assert main(argv + ["--out", str(out_dir)] + (["--integrate"] if integrate else [])) == 0
    (out_dir / "manifest.json").unlink()
    start = 0 if integrate else 1
    for r in (5, 9):
        shift_t(out_dir / f"path_{r:05d}.csv", 1 - start)
    (out_dir / "path_00039.csv").write_text("t,X_1,X_2\n1,0.5,oops\n")
    capsys.readouterr()
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    assert main(argv) == 2
    assert (
        f"error: {out_dir / 'path_00005.csv'} has t starting at {1 - start}, "
        f"which contradicts {out_dir / 'path_00000.csv'}, the first path file, "
        f"whose t starts at {start}"
    ) in capsys.readouterr().err


def test_verify_rejects_unreadable_path_file(params_file, tmp_path):
    out_dir = tmp_path / "paths"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--out", str(out_dir),
        ]
    )
    argv = ["verify", "--paths", str(out_dir), "--params", params_file]
    target = out_dir / "path_00000.csv"
    target.write_text("t,X_1,X_2\n1,0.5,oops\n")
    assert main(argv) == 2
    target.write_text("t,X_1,X_2\n")
    with pytest.warns(UserWarning, match="no data"):
        assert main(argv) == 2


def test_verify_rejects_unequal_path_lengths(params_file, tmp_path, capsys):
    out_dir = tmp_path / "paths"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--out", str(out_dir),
        ]
    )
    short = out_dir / "path_00003.csv"
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    # lags valid for the first file, which refuses the default 0..20 first
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "path_00003.csv holds increments of shape (15, 2)" in err
    assert "path_00000.csv holds (16, 2)" in err


@pytest.mark.parametrize("p", [3, 1])
def test_verify_rejects_a_component_count_not_p(params_file, tmp_path, capsys, p):
    # 3 columns used to end in an IndexError traceback; 1 column was
    # compared on cell (0, 0) alone, as if it were valid
    other = tmp_path / "other.json"
    dump_params(make_params([0.3, 0.7, 0.5][:p]), other)
    out_dir = tmp_path / "paths"
    argv = ["simulate", "--params", str(other), "--n", "16", "--replicates", "40"]
    assert main(argv + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["verify", "--paths", str(out_dir), "--params", params_file]) == 2
    assert f"has {p} components, the parameters p = 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_verify_rejects_a_non_finite_value(params_file, tmp_path, capsys, value):
    # a NaN used to make every cell it touched read nan, and verify exit 0
    out_dir = tmp_path / "paths"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--out", str(out_dir),
        ]
    )
    target = out_dir / "path_00007.csv"
    lines = target.read_text().splitlines(keepends=True)
    lines[3] = f"3,{value},0.5\n"
    target.write_text("".join(lines))
    capsys.readouterr()
    # lags valid for the first file, which refuses the default 0..20 first
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    assert main(argv) == 2
    assert f"{target} holds a non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["[1, 2]", "null", '{"n": 16}', '{"integrate": "false"}', "{"],
    ids=["list", "null", "no-integrate", "string-integrate", "not-json"],
)
def test_verify_rejects_a_bad_manifest(params_file, tmp_path, capsys, text):
    # a non-object used to end in a TypeError traceback, a missing key
    # printed "error: 'integrate'", and "false" read as true
    out_dir = tmp_path / "paths"
    main(
        [
            "simulate", "--params", params_file,
            "--n", "16", "--replicates", "40", "--out", str(out_dir),
        ]
    )
    (out_dir / "manifest.json").write_text(text)
    capsys.readouterr()
    assert main(["verify", "--paths", str(out_dir), "--params", params_file]) == 2
    assert str(out_dir / "manifest.json") in capsys.readouterr().err


# bytes that a CLI command's traced peak may grow by from 40 to 200
# replicates at n = 256, p = 2; holding the 160 extra replicates would
# add 655,360
WORKING_MEMORY_MARGIN = 160 * 1024


def traced_peak(argv) -> int:
    """The tracemalloc peak of one successful CLI command."""
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def simulate_argv(params_file, out_dir, replicates, integrate):
    argv = ["simulate", "--params", params_file, "--n", "256", "--replicates", str(replicates)]
    return argv + ["--out", str(out_dir)] + (["--integrate"] if integrate else [])


@pytest.mark.parametrize("integrate", [False, True])
def test_verify_working_memory(params_file, tmp_path, integrate):
    # path files are folded into per-replicate lag sums a batch at a time,
    # so the peak does not grow with the replicate count (the reader that
    # copied every file into one (R, n, p) buffer grew by a whole ensemble)
    peaks = []
    for reps in (40, 200):
        out_dir = tmp_path / f"paths-{reps}"
        assert main(simulate_argv(params_file, out_dir, reps, integrate)) == 0
        peaks.append(traced_peak(
            ["verify", "--paths", str(out_dir), "--params", params_file,
             "--lags", "0:3:4", "--out", str(tmp_path / "report.csv")]
        ))
    assert peaks[1] - peaks[0] <= WORKING_MEMORY_MARGIN, peaks


@pytest.mark.parametrize("integrate", [False, True])
def test_simulate_working_memory(params_file, tmp_path, integrate):
    # each replicate is written as it is drawn, into one reused row, so
    # the peak does not grow with the replicate count (drawing the whole
    # ensemble first grew by all of it)
    peaks = [
        traced_peak(simulate_argv(params_file, tmp_path / f"paths-{reps}", reps, integrate))
        for reps in (40, 200)
    ]
    assert peaks[1] - peaks[0] <= WORKING_MEMORY_MARGIN, peaks


def test_verify_refuses_path_files_left_by_an_earlier_run(params_file, tmp_path, capsys):
    # verify pooled all 40 files, 9 of them from seed 1, reported
    # n_replicates 40 against the manifest's 31 and exited 0
    out_dir = tmp_path / "paths"
    for replicates, seed in (("40", "1"), ("31", "2")):
        argv = ["simulate", "--params", params_file, "--n", "64", "--replicates", replicates]
        assert main([*argv, "--seed", seed, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:3:4"]
    assert main(argv) == 2
    assert "holds 40 path files, but manifest.json records 31 replicates" in (
        capsys.readouterr().err
    )
    for stale in range(31, 40):
        (out_dir / f"path_{stale:05d}.csv").unlink()
    assert main(argv) == 0


def test_verify_refuses_a_bad_lag_at_the_first_path_file(params_file, tmp_path, capsys):
    # lags and the component count are checked against the first file, so
    # the lag is named before the later, unreadable file is parsed
    out_dir = tmp_path / "paths"
    argv = ["simulate", "--params", params_file, "--n", "16", "--replicates", "40"]
    assert main(argv + ["--out", str(out_dir)]) == 0
    (out_dir / "path_00039.csv").write_text("t,X_1,X_2\n1,0.5,oops\n")
    capsys.readouterr()
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0,3,-16"]
    assert main(argv) == 2
    assert "error: |h|=16 must be smaller than the path length 16" in capsys.readouterr().err


def test_verify_rejects_empty_directory(params_file, tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["verify", "--paths", str(empty), "--params", params_file]) == 2


def test_simulate_rejects_inadmissible(tmp_path):
    hot = tmp_path / "hot.json"
    dump_params(make_params([0.1, 0.8], rho01=0.9), hot)
    rc = main(
        ["simulate", "--params", str(hot), "--n", "8", "--out", str(tmp_path / "x")]
    )
    assert rc == 1


# the pair (0.1, 0.8) with rho = 0.9 lies beyond its 0.514 ceiling; the
# edge file sits a relative 1e-11 above the ceiling of (0.3, 0.6), inside
# the existence rule's round-off tolerance
NO_COVARIANCE = {
    "p2": make_params([0.1, 0.8], rho01=0.9),
    "p3": make_params([0.1, 0.8, 0.5], rho01=0.9),
}
EDGE = make_params(
    [0.3, 0.6], rho01=max_correlation(0.3, 0.6, SpecialCase.WELL_BALANCED) * (1.0 + 1e-11)
)


def _existence_exit_codes(params, tmp_path) -> list[int]:
    path = tmp_path / "params.json"
    dump_params(params, path)
    return [
        main(["check", "--params", str(path)]),
        main(["simulate", "--params", str(path), "--n", "8", "--out", str(tmp_path / "runs")]),
        main(["represent", "--params", str(path), "--out", str(tmp_path / "factor.json")]),
    ]


@pytest.mark.parametrize("name", sorted(NO_COVARIANCE))
def test_commands_agree_on_a_set_without_covariance(tmp_path, capsys, name):
    # represent exited 2 here, against the documented 1 of check and simulate
    assert _existence_exit_codes(NO_COVARIANCE[name], tmp_path) == [1, 1, 1]
    assert capsys.readouterr().err.count("parameters admit no valid covariance") == 2


def test_commands_agree_on_the_edge_of_admissibility(tmp_path):
    # represent used to refuse this file through a cut-off of its own
    assert _existence_exit_codes(EDGE, tmp_path) == [0, 0, 0]


def _with_one_tol(params: MfbmParams, text: str) -> str:
    """The JSON of params with a "one_tol" key holding the JSON text."""
    return json.dumps(params_to_dict(params))[:-1] + f', "one_tol": {text}}}'


@pytest.mark.parametrize(
    "text",
    ["true", "[1]", '"1e-9"', "Infinity", "1e-5"],
    ids=["bool", "list", "string", "inf", "wider"],
)
def test_one_tol_must_be_a_finite_real_number(tmp_path, capsys, text):
    # true ran as one_tol = 1, [1] ended in a TypeError traceback, a
    # string was cast, and an infinite band made every pair unit-sum; the
    # band is now fixed, so any value but 1e-09 would change a pair's branch
    path = tmp_path / "params.json"
    path.write_text(_with_one_tol(make_params([0.3, 0.7], rho01=0.3), text))
    assert main(["check", "--params", str(path)]) == 2
    assert "one_tol must be" in capsys.readouterr().err


def test_a_file_written_with_one_tol_still_loads(tmp_path, capsys):
    # every file dump_params and simulate's manifest.json wrote while the
    # band was a setting carries "one_tol": 1e-09
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(_with_one_tol(params, "1e-09"))
    dump_params(params, new)
    assert "one_tol" not in json.loads(new.read_text())
    outputs = []
    for path in (old, new):
        assert main(["covariance", "--params", str(path), "--lags", "-2:2:5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_limits_subcommand(kernels_file, tmp_path):
    out = tmp_path / "limits.csv"
    rc = main(
        [
            "limits", "--kernels", kernels_file,
            "--n-grid", "64", "--taus", "1.0", "--replicates", "50",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert list(rows[0]) == [
        "n", "tau", "component_i", "component_j",
        "empirical_cov", "target_cov", "mc_stderr",
    ]
    assert len(rows) == 1
    assert float(rows[0]["target_cov"]) == pytest.approx(
        20.972324296796103, rel=1e-10
    )


def test_limits_target_rows_match_scalar_covariance(tmp_path):
    # the target column is printed from one all-pairs evaluation; it must
    # equal the per-pair closed form, tau = 0 included
    cell = {"regime": "power_pos", "alpha": 1.0, "d": 0.2}
    cross = {"regime": "power_pos", "alpha": -0.6, "d": 0.2}
    kernels = tmp_path / "k2.json"
    kernels.write_text(json.dumps({"plus": [[cell, cross], [None, cell]],
                                   "minus": [[None, None], [cross, None]]}))
    out = tmp_path / "limits.csv"
    argv = ["limits", "--kernels", str(kernels), "--n-grid", "16",
            "--taus", "0,0.25,1", "--replicates", "5", "--out", str(out)]
    assert main(argv) == 0
    params = limit_target(load_kernel_spec(kernels)).params
    rows = read_csv(out)
    assert len(rows) == 3 * 4
    for row in rows:
        i, j, tau = int(row["component_i"]), int(row["component_j"]), float(row["tau"])
        assert row["target_cov"] == "%.12g" % mfbm_covariance(params, i, j, tau, tau)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_limits_rejects_nonpositive_replicates(kernels_file, capsys, count):
    argv = ["limits", "--kernels", kernels_file, "--n-grid", "8", "--replicates", count]
    assert main(argv) == 2
    assert "replicates must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, grid",
    [
        ("covariance", "--lags", "-2,2"),
        ("covariance", "--lags", "-2:2:5"),
        ("spectrum", "--omegas", "-3:3:4"),
        ("spectrum", "--omega", "-3:3:4"),
        ("check", "--max-corr-grid", "0.1:0.9:3"),
        ("limits", "--taus", "0.5,1"),
        ("limits", "--n-grid", "8,16"),
    ],
)
def test_grid_options_take_both_forms(params_file, kernels_file, tmp_path, command, option, grid):
    # the spaced form may abbreviate the option; the attached one spells it out
    full = {"--omega": "--omegas"}.get(option, option)
    source = ["--kernels", kernels_file] if command == "limits" else ["--params", params_file]
    extra = ["--replicates", "5"] if command == "limits" else []
    spaced, attached = tmp_path / "spaced.csv", tmp_path / "attached.csv"
    assert main([command, *source, *extra, option, grid, "--out", str(spaced)]) == 0
    assert main([command, *source, *extra, f"{full}={grid}", "--out", str(attached)]) == 0
    assert spaced.read_bytes() == attached.read_bytes()
    assert len(read_csv(spaced)) > 0


def test_attach_grid_values_keeps_separator():
    argv = ["spectrum", "--omegas", "-3:3:4", "--", "-1"]
    assert _attach_grid_values(argv) == ["spectrum", "--omegas=-3:3:4", "--", "-1"]


GRID_COMMANDS = [
    ("covariance", "--lags"),
    ("spectrum", "--omegas"),
    ("check", "--max-corr-grid"),
    ("limits", "--taus"),
    ("limits", "--n-grid"),
    ("verify", "--lags"),
]


def grid_command_argv(command, params_file, kernels_file, tmp_path):
    """The command and the input files it needs besides its grid option."""
    source = ["--kernels", kernels_file] if command == "limits" else ["--params", params_file]
    if command == "verify":
        paths = tmp_path / "paths"
        argv = ["simulate", "--params", params_file, "--n", "8", "--replicates", "2"]
        assert main([*argv, "--out", str(paths)]) == 0
        source += ["--paths", str(paths)]
    return [command, *source]


@pytest.mark.parametrize("command, option", GRID_COMMANDS)
@pytest.mark.parametrize("grid", ["", " , "])
def test_grid_options_reject_empty_grid(
    params_file, kernels_file, tmp_path, capsys, command, option, grid
):
    argv = grid_command_argv(command, params_file, kernels_file, tmp_path)
    out = tmp_path / "out.csv"
    assert main([*argv, option, grid, "--out", str(out)]) == 2
    assert "holds no values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option", GRID_COMMANDS)
@pytest.mark.parametrize(
    "grid", ["nan", "1,inf", "-inf", "0:nan:3", "1:inf:2", "-1e308:1e308:3"]
)
def test_grid_options_reject_non_finite_values(
    params_file, kernels_file, tmp_path, capsys, command, option, grid
):
    # NaN rows written with exit code 0 would pass for data
    argv = grid_command_argv(command, params_file, kernels_file, tmp_path)
    out = tmp_path / "out.csv"
    assert main([*argv, option, grid, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option", GRID_COMMANDS)
@pytest.mark.parametrize(
    "grid, message",
    [("1:2", "must look like start:stop:count"), ("0:5:0", "grid count must be positive")],
    ids=["two-fields", "zero-count"],
)
def test_grid_options_reject_a_malformed_range(
    params_file, kernels_file, tmp_path, capsys, command, option, grid, message
):
    argv = grid_command_argv(command, params_file, kernels_file, tmp_path)
    assert main([*argv, option, grid, "--out", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [("verify", "--lags"), ("limits", "--n-grid")])
def test_integer_grids_reject_a_fraction(
    params_file, kernels_file, tmp_path, capsys, command, option
):
    argv = grid_command_argv(command, params_file, kernels_file, tmp_path)
    assert main([*argv, option, "0.5", "--out", str(tmp_path / "out.csv")]) == 2
    assert "error: expected integers, got 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["covariance", "spectrum", "verify"])
@pytest.mark.parametrize("delta", ["inf", "nan", "0"])
def test_delta_must_be_positive_and_finite(params_file, tmp_path, capsys, command, delta):
    # an infinite step used to write inf/NaN rows and exit 0 (verify: 1)
    argv = [command, "--params", params_file]
    if command == "verify":
        paths = tmp_path / "paths"
        sim = ["simulate", "--params", params_file, "--n", "8", "--replicates", "30"]
        assert main([*sim, "--out", str(paths)]) == 0
        argv += ["--paths", str(paths)]
    grid = ["--omegas", "1,2"] if command == "spectrum" else ["--lags", "0,1"]
    out = tmp_path / "out.csv"
    argv += [*grid, "--delta", delta, "--out", str(out)]
    assert main(argv) == 2
    assert "delta must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_input_files_reject_unknown_keys(params_file, kernels_file, tmp_path, capsys):
    # misspelt keys used to be dropped, leaving their defaults in force
    for source, key, argv in [
        (params_file, "one_tl", ["check", "--params"]),
        (kernels_file, "trunction", ["limits", "--n-grid", "8", "--kernels"]),
    ]:
        bad = tmp_path / f"bad-{key}.json"
        bad.write_text(json.dumps({**json.loads(Path(source).read_text()), key: 8}))
        assert main([*argv, str(bad)]) == 2
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", "[{}]", '"abc"'])
def test_input_files_must_hold_an_object(tmp_path, capsys, text):
    # these used to end in a TypeError traceback instead of exit 2
    path = tmp_path / "odd.json"
    path.write_text(text)
    assert main(["check", "--params", str(path)]) == 2
    assert main(["limits", "--kernels", str(path), "--n-grid", "8"]) == 2
    assert capsys.readouterr().err.count("must hold one JSON object") == 2


@pytest.mark.parametrize("command", ["check", "limits", "verify"])
def test_a_malformed_json_file_names_itself(params_file, tmp_path, capsys, command):
    # the parser's message named no file, and verify reads two JSON files
    bad = tmp_path / "bad.json"
    bad.write_text('{"H": [0.3,]}')
    argv = {
        "check": ["check", "--params", str(bad)],
        "limits": ["limits", "--n-grid", "8", "--kernels", str(bad)],
        "verify": ["verify", "--paths", str(tmp_path / "paths"), "--params", str(bad)],
    }[command]
    if command == "verify":
        sim = ["simulate", "--params", params_file, "--n", "8", "--replicates", "2"]
        assert main([*sim, "--out", str(tmp_path / "paths")]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {bad} is not valid JSON: " in capsys.readouterr().err


def test_limits_matches_per_cell_reference(tmp_path):
    power = lambda regime, alpha, d: {"regime": regime, "alpha": alpha, "d": d}
    payload = {
        "plus": [[power("power_pos", 1.0, 0.2), power("power_neg", 0.5, -0.2)],
                 [None, power("power_pos", 1.0, 0.3)]],
        "minus": [[None, None], [power("power_pos", 0.7, 0.3), None]],
    }
    kernels = tmp_path / "k2.json"
    kernels.write_text(json.dumps(payload))
    out = tmp_path / "limits.csv"
    argv = ["limits", "--kernels", str(kernels), "--n-grid", "16,40", "--taus", "0,0.5,1"]
    assert main(argv + ["--replicates", "30", "--seed", "4", "--out", str(out)]) == 0
    rows = read_csv(out)
    spec = load_kernel_spec(kernels)
    params = limit_target(spec).params
    taus = [0.0, 0.5, 1.0]
    want = []
    for n in (16, 40):
        vals = simulate_partial_sums(spec, n=n, taus=taus, seed=4, replicates=30)
        for t, tau in enumerate(taus):
            for i in range(2):
                for j in range(2):
                    prod = vals[:, t, i] * vals[:, t, j]
                    cells = (
                        prod.mean(),
                        mfbm_covariance(params, i, j, tau, tau),
                        prod.std(ddof=1) / np.sqrt(30),
                    )
                    want.append(((n, tau, i, j), cells))
    assert len(rows) == len(want)
    for row, (key, cells) in zip(rows, want):
        got_key = (int(row["n"]), float(row["tau"]), int(row["component_i"]),
                   int(row["component_j"]))
        assert got_key == key
        got = [float(row[k]) for k in ("empirical_cov", "target_cov", "mc_stderr")]
        for g, c in zip(got, cells):
            assert g == pytest.approx(float("%.12g" % c), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("truncation", [5000.5, True])
def test_limits_rejects_non_integer_truncation(kernels_file, tmp_path, capsys, truncation):
    # 5000.5 used to end in a numpy TypeError traceback; true ran as K = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(Path(kernels_file).read_text()),
                               "truncation": truncation}))
    argv = ["limits", "--kernels", str(bad), "--n-grid", "8", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert "truncation must be a positive integer" in capsys.readouterr().err


CELL = {"regime": "power_pos", "alpha": 1.0, "d": 0.2}


@pytest.mark.parametrize(
    "plus, message",
    [
        ([[{"alpha": 1.0, "d": 0.2}]], "is missing 'regime'"),
        ([[{"regime": "power_pos", "d": 0.2}]], "is missing 'alpha'"),
        ([[{**CELL, "alpha": "1"}]], "kernel alpha must be a real number, got '1'"),
        ([[{**CELL, "d": "x"}]], "kernel d must be a real number, got 'x'"),
        ([[{**CELL, "alpha": True}]], "kernel alpha must be a real number, got True"),
        ([[{**CELL, "alpha": float("inf")}]], "alpha must be finite and nonzero, got inf"),
        (5, "kernel spec 'plus' must be a list of lists, got 5"),
        ([[5]], "kernel grid cells must be objects or null"),
        ([[{**CELL, "beta": 1.0}]], "unknown kernel cell keys ['beta']"),
    ],
    ids=["no-regime", "no-alpha", "string-alpha", "string-d", "bool-alpha", "inf-alpha",
         "scalar-grid", "scalar-cell", "unknown-cell-key"],
)
def test_limits_rejects_malformed_kernel_cells(tmp_path, capsys, plus, message):
    # a missing key printed only the key, the strings and the scalar grid
    # ended in TypeError tracebacks, true ran as alpha = 1, and an infinite
    # alpha was blamed on row 0 carrying no variance
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"plus": plus, "minus": [[None]]}))
    argv = ["limits", "--kernels", str(path), "--n-grid", "8", "--replicates", "2"]
    assert main(argv + ["--taus", "1"]) == 2
    assert message in capsys.readouterr().err


def test_limits_rejects_mismatched_p(tmp_path):
    payload = {
        "p": 2,
        "plus": [[{"regime": "summable", "alpha": 1.0}]],
        "minus": [[None]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["limits", "--kernels", str(path), "--n-grid", "8"]) == 2


@pytest.mark.parametrize(
    "declared", [True, 1.7, [1], None], ids=["bool", "float", "list", "null"]
)
def test_input_files_refuse_a_non_integer_p(tmp_path, capsys, declared):
    # check exited 0 on true and 1.7 and 1 on [1]; limits exited 0 on true;
    # check exited 0 on null, which limits refused
    params = {**params_to_dict(make_params([0.3])), "p": declared}
    kernels = {"p": declared, "plus": [[CELL]], "minus": [[None]]}
    for name, payload, argv in [
        ("params", params, ["check", "--params"]),
        ("kernels", kernels, ["limits", "--n-grid", "8", "--replicates", "2", "--kernels"]),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, str(path)]) == 2
        assert "p must be a positive integer" in capsys.readouterr().err


def test_numbers_too_big_for_a_float_exit_2(tmp_path, capsys):
    # each ended in an OverflowError traceback with exit code 1, then in
    # "error: int too large to convert to float", which named no field
    huge = "1" * 401
    params = json.dumps(params_to_dict(make_params([0.3, 0.7], rho01=0.3)))
    kernels = json.dumps({"plus": [[{**CELL, "alpha": 1.0}]], "minus": [[None]]})
    check = ["check", "--params"]
    limits = ["limits", "--n-grid", "8", "--replicates", "2", "--kernels"]
    for name, text, argv, message in [
        ("one_tol", params[:-1] + f', "one_tol": {huge}}}', check,
         "one_tol is too large for a float"),
        ("H", params.replace('"H": [0.3,', f'"H": [{huge},'), check,
         "H holds a number too large for a float"),
        ("alpha", kernels.replace('"alpha": 1.0', f'"alpha": {huge}'), limits,
         "kernel alpha is too large for a float"),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert huge in text
        assert main([*argv, str(path)]) == 2, name
        assert f"error: {message}" in capsys.readouterr().err, name


def test_verify_reports_a_zero_spread_ensemble(params_file, tmp_path, capsys):
    # 30 identical all-zero paths leave every cell with stderr 0; the z
    # division used to end in a ZeroDivisionError traceback with exit 1
    out_dir = tmp_path / "paths"
    out_dir.mkdir()
    rows = "".join(f"{t},0,0\n" for t in range(1, 11))
    for r in range(30):
        (out_dir / f"path_{r:05d}.csv").write_text("t,X0,X1\n" + rows)
    report = tmp_path / "report.csv"
    argv = ["verify", "--paths", str(out_dir), "--params", params_file, "--lags", "0:1:2"]
    assert main([*argv, "--out", str(report)]) == 1
    assert "8 cells, max |z| = inf, fraction beyond 4 = 1.0000" in capsys.readouterr().err
    cells = read_csv(report)
    assert len(cells) == 8
    assert all(float(c["stderr"]) == 0.0 and not np.isfinite(float(c["z"])) for c in cells)


def test_module_entry_point(params_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mfbm", "check", "--params", params_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "admissible: True" in proc.stdout
