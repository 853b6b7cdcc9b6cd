"""The committed study specs and the scree demo run through the command line."""

import csv
import json
import runpy
import sys
from pathlib import Path

import pytest

from fdfactor import (
    classic_scree,
    empirical_eigensystem,
    lambda_scree,
    load_panel,
    select_frequencies,
)
from fdfactor.cli import main
from fdfactor.spectral import _one_blas_thread

ROOT = Path(__file__).resolve().parents[1]
STUDIES = sorted((ROOT / "studies").glob("*.json"))


def test_all_four_studies_are_committed():
    assert [p.name for p in STUDIES] == [
        "rough_anchors.json", "rough_grid.json", "test_power.json", "test_size.json",
    ]


@pytest.mark.parametrize("path", STUDIES, ids=lambda p: p.stem)
def test_study_runs_at_two_replications(tmp_path, capsys, path):
    spec = json.loads(path.read_text())
    spec["replications"] = 2
    small = tmp_path / path.name
    small.write_text(json.dumps(spec))
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(small), "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    methods = spec["methods"] if spec["kind"] == "sse" else ["noise-test"]
    assert len(rows) == len(spec["settings"]) * len(methods)
    assert [r["method"] for r in rows] == methods * len(spec["settings"])
    assert all(r["failures"] == "0" for r in rows)


def test_scree_demo_writes_what_fdfactor_scree_writes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["run_scree_demo.py", "--out", str(out)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / "run_scree_demo.py"), run_name="__main__")
    assert done.value.code == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "panel.csv", "scree.csv"]
    assert json.loads((out / "manifest.json").read_text())["command"] == "scree"
    assert set(json.loads(capsys.readouterr().out)) == {"suggested_L", "plateau_found"}

    with open(out / "scree.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["l"]) for r in rows] == list(range(1, 26))
    panel = load_panel(out / "panel.csv", header=True)
    with _one_blas_thread():  # the thread count every command computes on
        gamma = classic_scree(empirical_eigensystem(panel), 25).values
        lam = lambda_scree(panel, 25, select_frequencies(365, 0.1, 3)).values
    assert [float(r["gamma"]) for r in rows] == gamma.tolist()
    assert [float(r["lambda_inf"]) for r in rows] == lam.tolist()
