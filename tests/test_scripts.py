"""Each script under scripts/ runs end to end at tiny sizes."""
import csv
import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_admissible_region_data(monkeypatch, tmp_path):
    run_script(
        "admissible_region_data.py", monkeypatch,
        "--pairs", "0.3,0.7;0.5,0.5", "--points", "9", "--out-dir", str(tmp_path),
    )
    assert len(read_rows(tmp_path / "ceilings.csv")) == 3
    assert len(read_rows(tmp_path / "boundary_h0.3_h0.7.csv")) == 10


@pytest.mark.parametrize("from_file", [False, True])
def test_partial_sum_convergence(monkeypatch, tmp_path, from_file):
    out = tmp_path / "psum.csv"
    args = ["--n-grid", "16,32", "--replicates", "20", "--out", str(out)]
    if from_file:
        kernels = tmp_path / "k.json"
        kernels.write_text(json.dumps({
            "plus": [[{"regime": "power_pos", "alpha": 1.0, "d": 0.2}]],
            "minus": [[{"regime": "summable", "alpha": 0.5}]],
        }))
        args += ["--kernels", str(kernels)]
    run_script("partial_sum_convergence.py", monkeypatch, *args)
    rows = read_rows(out)
    assert rows[0][:2] == ["n", "component"]
    assert [row[0] for row in rows[1:]] == ["16", "32"]
