"""Workload inputs and command rounds for the fdfactor benchmark.

Inputs come from plain numpy seeded by ``--seed``, never from
``fdfactor.simulate``, so a change to the package's generators cannot
change what the CLI workloads read.  A workload is one *round*: each
of its commands once on each of its inputs.  The benchmark's single
client repeats the round in a closed loop, so every timed sample covers
the whole input pool.

Each command is a dict: ``name`` (the metric key), ``argv`` (passed to
``fdfactor.cli.main``), ``out`` (path to remove before the command so
each output is checked fresh) and ``check`` (what the worker verifies).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-paper", "cli-tall", "mc-paper")

#: T, p of the paper's daily-curve panels; one is 0.6 MB as float64, which
#: fits in a per-core L2 cache of a few MiB, and 1.4 MB of CSV
PAPER_T, PAPER_P = 200, 365
#: tall panel: T > p takes the p-side branch of ``fit``; 5.8 MB as float64
TALL_T = 2000
#: distinct panels cycled by cli-paper, so the loop is not one file re-read
PAPER_POOL = 3
#: share of cells blanked in the gappy copy that ``impute`` fills
MISSING_SHARE = 0.02
FACTOR_SD = (3.0, 2.0, 1.2)
NOISE_SD = 0.5
FACTORS = 3

#: Monte Carlo specs run round-robin by mc-paper, each 0.5-1 s on a 2-core x86 host
MC_SPECS = {
    # the 4 anchor settings of scripts/run_rough_table.py: small p, many
    # cheap replications, so per-call overhead dominates
    "rough_table": {
        "dgp": "rough", "kind": "sse",
        "settings": [
            {"p": 20, "T": 50, "sigma2": 0.01},
            {"p": 50, "T": 200, "sigma2": 0.05},
            {"p": 20, "T": 400, "sigma2": 0.1},
            {"p": 70, "T": 400, "sigma2": 0.01},
        ],
        "replications": 25, "methods": ["pca", "bspline"],
        "l_policy": "fixed", "l": 3,
    },
    # size and power of the noise test at the paper shape: AR(1) noise
    # generation, periodogram and Gasser variance
    "test_size": {
        "dgp": "rough", "kind": "noise-test",
        "settings": [
            {"p": 365, "T": 200, "sigma2": 4.0, "theta_ar": 0.0},
            {"p": 365, "T": 200, "sigma2": 1.0, "theta_ar": 0.4},
        ],
        "replications": 40, "cutoff": 0.1, "thinning": 3,
    },
    # smooth recovery with the plateau rule: lambda_scree, eigh, B-splines
    "smooth_scree": {
        "dgp": "smooth", "kind": "sse",
        "settings": [{"p": 365, "T": 200, "sigma2": 1.0, "theta_ar": 0.2}],
        "replications": 8, "methods": ["pca", "bspline"],
        "l_policy": "plateau", "scree_l_max": 12,
    },
}


def write_csv(path: Path, values: np.ndarray, missing=None) -> None:
    """Shortest round-trip reprs, so a reader gets the exact float64 values."""
    with open(path, "w") as fh:
        for i, row in enumerate(values.tolist()):
            cells = [repr(x) for x in row]
            if missing is not None:
                for j in np.flatnonzero(missing[i]):
                    cells[j] = "NA"
            fh.write(",".join(cells) + "\n")


def factor_panel(rng: np.random.Generator, T: int, p: int) -> np.ndarray:
    """Mean curve + 3 rough factors + iid noise.

    Loadings are random walks plus white noise, so every factor has
    power above the test's low-frequency cutoff and the test-statistic
    scree drops until the third factor is removed, then stays flat.
    """
    s = (np.arange(1, p + 1) - 0.5) / p
    mean = 10.0 + 8.0 * np.sin(2.0 * np.pi * (s - 0.3))
    white = rng.standard_normal((FACTORS, p))
    load = 3.0 * np.cumsum(white, axis=1) / np.sqrt(p) + white
    load /= np.sqrt(np.mean(load**2, axis=1, keepdims=True))
    scores = rng.standard_normal((T, FACTORS)) * np.asarray(FACTOR_SD)
    return mean + scores @ load + NOISE_SD * rng.standard_normal((T, p))


def _panel_files(work: Path, rng, tag: str, T: int, p: int) -> dict:
    values = factor_panel(rng, T, p)
    missing = rng.random((T, p)) < MISSING_SHARE
    files = {
        "csv": work / f"{tag}.csv",
        "gappy_csv": work / f"{tag}-gappy.csv",
        "values_npy": work / f"{tag}.npy",
        "missing_npy": work / f"{tag}-missing.npy",
    }
    write_csv(files["csv"], values)
    write_csv(files["gappy_csv"], values, missing)
    np.save(files["values_npy"], values)
    np.save(files["missing_npy"], missing)
    return {k: str(v) for k, v in files.items()}


def _cli_round(work: Path, rng, T: int, p: int, pool: int, full: bool) -> list:
    cmds = []
    for k in range(pool):
        tag = f"panel{k}"
        files = _panel_files(work, rng, tag, T, p)
        fit_out, test_out = str(work / f"{tag}-fit"), str(work / f"{tag}-test")
        imp_out = str(work / f"{tag}-imputed.csv")
        expect = {"T": T, "p": p, "L": FACTORS, **files}
        if full:
            fit_argv = ["fit", "--input", files["csv"], "--scree-auto",
                        "--trace-curve", "1", "--out", fit_out]
        else:
            fit_argv = ["fit", "--input", files["csv"], "--L", str(FACTORS),
                        "--out", fit_out]
        cmds += [
            {"name": "fit", "argv": fit_argv, "out": fit_out, "check": expect},
            {"name": "test", "argv": ["test", "--from-fit", fit_out, "--out", test_out],
             "out": test_out, "check": expect},
        ]
        if full:
            scree_out, diag_out = str(work / f"{tag}-scree"), str(work / f"{tag}-diag")
            cmds += [
                {"name": "scree", "argv": ["scree", "--input", files["csv"], "--out", scree_out],
                 "out": scree_out, "check": expect},
                {"name": "diagnose",
                 "argv": ["diagnose", "--from-fit", fit_out, "--cols", "1:60", "--out", diag_out],
                 "out": diag_out, "check": expect},
            ]
        cmds.append({"name": "impute",
                     "argv": ["impute", "--input", files["gappy_csv"], "--out", imp_out],
                     "out": imp_out, "check": expect})
    return cmds


def _mc_round(work: Path, seed: int) -> list:
    cmds = []
    for i, (name, body) in enumerate(MC_SPECS.items()):
        spec_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        spec_path = work / f"{name}.json"
        spec_path.write_text(json.dumps({**body, "seed": spec_seed}, indent=1))
        out = str(work / f"{name}-out")
        cmds.append({
            "name": name,
            "argv": ["simulate", "--spec", str(spec_path), "--out", out],
            "out": out,
            "check": {"seed": spec_seed, "spec": name},
        })
    return cmds


def prepare(workload: str, seed: int, work: Path) -> list:
    """Write the workload's inputs under ``work`` and return its round of commands."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli-paper":
        return _cli_round(work, rng, PAPER_T, PAPER_P, PAPER_POOL, full=True)
    if workload == "cli-tall":
        return _cli_round(work, rng, TALL_T, PAPER_P, 1, full=False)
    if workload == "mc-paper":
        return _mc_round(work, seed)
    raise ValueError(f"unknown workload {workload!r}")
