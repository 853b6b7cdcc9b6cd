import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdfactor import (
    RoughDgpConfig,
    add_noise,
    auto_thinning,
    classic_scree,
    empirical_eigensystem,
    fit,
    gen_ar1_noise,
    gen_rough_signals,
    lambda_scree,
    load_panel,
    residual_correlation,
    residual_covariance,
    save_fit,
    save_panel,
    select_frequencies,
    spectral,
)
from fdfactor.cli import main


def write_rough_csv(path, p=50, T=200, sigma2=0.01, seed=101):
    rng = np.random.default_rng(seed)
    signals, _ = gen_rough_signals(RoughDgpConfig(p=p, T=T, sigma2=sigma2), rng)
    observed = add_noise(signals, gen_ar1_noise(p, T, 0.0, np.sqrt(sigma2), rng))
    save_panel(observed, path)
    return observed


def write_plain_csv(path, values):
    with open(path, "w") as fh:
        for row in values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class TestFitCommand:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "panel.csv"
        write_plain_csv(data, rng.standard_normal((10, 20)))
        out = tmp_path / "out"
        code = main(["fit", "--input", str(data), "--L", "2", "--out", str(out)])
        assert code == 0
        signals = load_panel(out / "signals.csv", header=True)
        assert signals.values.shape == (10, 20)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["parameters"]["L"] == 2
        assert list((out).glob("manifest.json")) == [out / "manifest.json"]

    def test_invalid_order_exits_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(1).standard_normal((6, 8)))
        code = main(["fit", "--input", str(data), "--L", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "factor order" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--L", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_conflicting_mode_flags_exit_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(12).standard_normal((6, 8)))
        code = main(["fit", "--input", str(data), "--L", "2", "--scree-auto",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_no_mode_flag_exits_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(13).standard_normal((6, 8)))
        code = main(["fit", "--input", str(data), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_scree_auto_picks_near_three_on_rough_data(self, tmp_path, capsys):
        data = tmp_path / "rough.csv"
        write_rough_csv(data, p=50, T=200, sigma2=0.01, seed=2024)
        out = tmp_path / "out"
        code = main([
            "fit", "--input", str(data), "--header", "--scree-auto",
            "--cutoff", "0.0", "--lmax", "8", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert 2 <= manifest["parameters"]["L"] <= 5
        assert manifest["parameters"]["l_policy"] == "plateau"

    def test_trace_export(self, tmp_path):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(11).standard_normal((8, 12)))
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--L", "2", "--out", str(out),
                     "--trace-curve", "3", "--trace-points", "200"]) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "s,value"
        assert len(lines) == 201

    @pytest.mark.parametrize("flags", [["--trace-curve", "99"],
                                       ["--trace-curve", "3", "--trace-points", "1"]])
    def test_failing_trace_writes_nothing(self, tmp_path, capsys, flags):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(11).standard_normal((8, 12)))
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--L", "1", "--out", str(out)] + flags) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_mean_only_flag(self, tmp_path):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(3).standard_normal((6, 8)) + 7.0)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--mean-only", "--out", str(out)]) == 0
        signals = load_panel(out / "signals.csv", header=True)
        assert np.allclose(signals.values, signals.values.mean(axis=0))

    def test_mean_only_with_a_trace_exits_2_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(3).standard_normal((6, 8)))
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--mean-only", "--trace-curve", "3",
                     "--out", str(out)]) == 2
        assert "--trace-curve" in capsys.readouterr().err
        assert not out.exists()

    def test_mean_only_overflow_exits_3(self, tmp_path, capsys):
        values = np.random.default_rng(3).standard_normal((6, 8))
        values[[1, 4], 3] = 1.7e308  # the column sum leaves the float range
        data = tmp_path / "panel.csv"
        write_plain_csv(data, values)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--mean-only", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "mean curve is not finite" in err and "Traceback" not in err
        assert not out.exists()


class TestTestCommand:
    def test_json_report_schema(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(4).standard_normal((40, 30)) * 2.0)
        assert main(["test", "--input", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"sigma2_hat", "f", "lambda_fin", "p_fin", "lambda_inf", "p_inf"}

    def test_iid_residuals_rarely_reject(self, tmp_path, capsys):
        rng = np.random.default_rng(20240620)
        low = 0
        for run in range(20):
            data = tmp_path / f"resid{run}.csv"
            write_plain_csv(data, rng.standard_normal((100, 50)))
            assert main(["test", "--input", str(data)]) == 0
            report = json.loads(capsys.readouterr().out)
            low += report["p_inf"] < 0.1
        assert low <= 4

    def test_zero_residuals_exit_3(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.zeros((10, 12)))
        assert main(["test", "--input", str(data)]) == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma2", ["-1", "0", "nan", "inf"])
    def test_bad_sigma2_override_exits_2(self, tmp_path, capsys, sigma2):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(4).standard_normal((40, 30)))
        out = tmp_path / "report"
        assert main(["test", "--input", str(data), "--sigma2", sigma2, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--sigma2" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_statistic_exits_3(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(0).standard_normal((10, 12)))
        out = tmp_path / "report"
        assert main(["test", "--input", str(data), "--sigma2", "1e-154", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise-test statistic is not finite" in captured.err
        assert not out.exists()

    def test_strong_ar_noise_rejects_decisively(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        U = gen_ar1_noise(365, 200, 0.8, 1.0, 5)
        write_plain_csv(data, U)
        assert main(["test", "--input", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_inf"] < 1e-6

    def test_from_fit_directory(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_rough_csv(data, p=30, T=80, sigma2=0.05, seed=6)
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(data), "--header", "--L", "3",
                     "--out", str(fit_dir)]) == 0
        capsys.readouterr()
        assert main(["test", "--from-fit", str(fit_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f"] >= 2

    def test_xi_export(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(7).standard_normal((30, 40)))
        out = tmp_path / "report"
        assert main(["test", "--input", str(data), "--out", str(out)]) == 0
        lines = (out / "xi.csv").read_text().strip().splitlines()
        assert lines[0] == "index,theta,xi"
        assert (out / "report.json").exists() and (out / "manifest.json").exists()


class TestScreeCommand:
    def test_writes_curve_with_lmax_rows(self, tmp_path, capsys):
        data = tmp_path / "rough.csv"
        write_rough_csv(data, p=40, T=100, sigma2=0.05, seed=8)
        out = tmp_path / "scree"
        assert main(["scree", "--input", str(data), "--header", "--lmax", "6",
                     "--out", str(out)]) == 0
        lines = (out / "scree.csv").read_text().strip().splitlines()
        assert lines[0] == "l,gamma,lambda_inf"
        assert len(lines) == 7
        payload = json.loads(capsys.readouterr().out)
        assert "suggested_L" in payload

    @pytest.mark.parametrize("T, p", [(30, 40), (60, 20)])
    def test_one_decomposition_gives_both_screes(self, tmp_path, monkeypatch, T, p):
        data = tmp_path / "rough.csv"
        panel = write_rough_csv(data, p=p, T=T, sigma2=0.05, seed=12)
        sel = select_frequencies(p, 0.1, auto_thinning(p, T, 0.1))
        gamma = classic_scree(empirical_eigensystem(panel), 6).values
        lam = lambda_scree(panel, 6, sel).values
        shapes = []
        eigh = spectral.eigh_descending

        def spy(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(spectral, "eigh_descending", spy)
        out = tmp_path / "scree"
        assert main(["scree", "--input", str(data), "--header", "--lmax", "6",
                     "--out", str(out)]) == 0
        assert shapes == [(min(T, p), min(T, p))]
        with open(out / "scree.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["gamma"]) for r in rows] == gamma.tolist()
        assert [float(r["lambda_inf"]) for r in rows] == lam.tolist()


    def test_constant_rows_exit_3(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        write_plain_csv(data, np.outer(np.random.default_rng(6).standard_normal(20), np.ones(30)))
        out = tmp_path / "scree"
        assert main(["scree", "--input", str(data), "--lmax", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("numerical error: noise variance is 0.0; residuals are "
                                           "degenerate or beyond the float range\n")
        assert not out.exists()


class TestDiagnoseCommand:
    def test_exports_and_window(self, tmp_path):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(9).standard_normal((30, 24)))
        out = tmp_path / "diag"
        assert main(["diagnose", "--input", str(data), "--hmax", "10",
                     "--cols", "3:8", "--out", str(out)]) == 0
        acf = (out / "acf.csv").read_text().strip().splitlines()
        assert len(acf) == 12
        cov = np.loadtxt(out / "covariance.csv", delimiter=",")
        assert cov.shape == (6, 6)
        assert (out / "correlation.csv").exists() and (out / "xi.csv").exists()

    @pytest.mark.parametrize("shape, cols, flat", [((30, 12), None, 4), ((30, 12), "2:7", 4),
                                                   ((20, 60), "31:45", 36)])  # the last has T < p
    def test_matrices_read_back_exactly(self, tmp_path, shape, cols, flat):
        values = np.random.default_rng(14).standard_normal(shape)
        values[:, flat] = 2.5  # a zero-variance column: NaN correlations
        data = tmp_path / "resid.csv"
        write_plain_csv(data, values)
        out = tmp_path / "diag"
        argv = ["diagnose", "--input", str(data), "--out", str(out)]
        assert main(argv + (["--cols", cols] if cols else [])) == 0
        lo, hi = map(int, (cols or f"1:{shape[1]}").split(":"))
        window = slice(lo - 1, hi)
        panel = load_panel(data)
        expected = {"covariance.csv": residual_covariance(panel),
                    "correlation.csv": residual_correlation(panel)[0]}
        for name, matrix in expected.items():
            got = np.loadtxt(out / name, delimiter=",", ndmin=2)
            assert np.array_equal(got, matrix[window, window], equal_nan=True)
        assert np.isnan(np.loadtxt(out / "correlation.csv", delimiter=",")).any()

    def test_correlation_is_built_for_the_window_only(self, tmp_path, monkeypatch):
        import fdfactor.cli as cli

        shapes, build = [], cli._covariance_to_correlation

        def spy(C):
            shapes.append(C.shape)
            return build(C)

        monkeypatch.setattr(cli, "_covariance_to_correlation", spy)
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(9).standard_normal((20, 60)))
        assert main(["diagnose", "--input", str(data), "--cols", "31:45",
                     "--out", str(tmp_path / "diag")]) == 0
        assert shapes == [(15, 15)]

    def test_builds_the_covariance_once(self, tmp_path, monkeypatch):
        import fdfactor.cli as cli
        import fdfactor.diagnostics as diagnostics

        calls, build = [], diagnostics.residual_covariance

        def spy(residuals):
            calls.append(residuals)
            return build(residuals)

        for module in (cli, diagnostics):
            monkeypatch.setattr(module, "residual_covariance", spy)
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(9).standard_normal((30, 24)))
        assert main(["diagnose", "--input", str(data), "--out", str(tmp_path / "diag")]) == 0
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residuals_exit_3(self, tmp_path, capsys):
        values = np.random.default_rng(15).standard_normal((10, 12))
        values[4, 7] = 1e300
        data = tmp_path / "resid.csv"
        write_plain_csv(data, values)
        out = tmp_path / "diag"
        assert main(["diagnose", "--input", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "covariance is not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, quantity", [
        (["fit", "--L", "1"], "Gram matrix of the panel is not finite"),
        (["fit", "--scree-auto", "--lmax", "4"], "Gram matrix of the panel is not finite"),
        (["scree", "--lmax", "4"], "Gram matrix of the panel is not finite"),
        (["test"], "periodogram xi is not finite"),
    ], ids=["fit", "fit-auto", "scree", "test"])
    def test_overflowing_panel_exits_3_in_other_commands(self, tmp_path, capsys, command,
                                                         quantity):
        values = np.random.default_rng(15).standard_normal((10, 12))
        values[4, 7] = 1e300
        data = tmp_path / "panel.csv"
        write_plain_csv(data, values)
        out = tmp_path / "out"
        assert main(command + ["--input", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert quantity in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_window_exits_2(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(10).standard_normal((10, 8)))
        assert main(["diagnose", "--input", str(data), "--cols", "0:9",
                     "--out", str(tmp_path / "d")]) == 2

    def test_bad_curve_index_exits_2(self, tmp_path, capsys):
        data = tmp_path / "resid.csv"
        write_plain_csv(data, np.random.default_rng(11).standard_normal((10, 8)))
        for bad in ("0", "11"):
            assert main(["diagnose", "--input", str(data), "--curve", bad,
                         "--out", str(tmp_path / "d")]) == 2


class TestSimulateCommand:
    def write_spec(self, path, seed=424242):
        spec = {
            "dgp": "rough",
            "kind": "sse",
            "settings": [{"p": 20, "T": 40, "sigma2": 0.05}],
            "replications": 10,
            "seed": seed,
            "methods": ["pca"],
            "l_policy": "fixed",
            "l": 3,
        }
        path.write_text(json.dumps(spec))

    def test_end_to_end_and_seed_echo(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        self.write_spec(spec)
        out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        assert "seed: 424242" in capsys.readouterr().out
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_reruns_are_bit_identical(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        self.write_spec(spec)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["simulate", "--spec", str(spec), "--out", str(out2),
                     "--workers", "4"]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_derives_and_prints_seed_when_missing(self, tmp_path, capsys):
        spec = {
            "dgp": "rough", "kind": "sse",
            "settings": [{"p": 15, "T": 20, "sigma2": 0.01}],
            "replications": 2, "l": 2,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--spec", str(path), "--out", str(tmp_path / "s")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("seed: ")
        int(line.split(":")[1])


class TestSimulateSpecValidation:
    BASE = {
        "dgp": "rough", "kind": "sse",
        "settings": [{"p": 20, "T": 40, "sigma2": 0.05}],
        "replications": 2, "seed": 1,
    }

    def run(self, tmp_path, capsys, text, *argv):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code = main(["simulate", "--spec", str(path), "--out", str(tmp_path / "sim"), *argv])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, err, str(path), out

    def test_base_spec_runs(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, json.dumps(self.BASE))[0] == 0

    def test_missing_optional_keys_take_the_defaults(self, tmp_path, capsys):
        minimal = {k: v for k, v in self.BASE.items() if k != "kind"}
        assert self.run(tmp_path, capsys, json.dumps(minimal))[0] == 0
        with open(tmp_path / "sim" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert (row["kind"], row["method"], row["l_policy"], row["l_median"]) == \
            ("sse", "pca", "fixed", "3.0")

    @pytest.mark.parametrize("text", ["{not json", "", "\x00\xff"])
    def test_not_json_exits_2(self, tmp_path, capsys, text):
        code, err, path, _ = self.run(tmp_path, capsys, text)
        assert code == 2 and path in err and "JSON" in err

    @pytest.mark.parametrize("spec", ["[1, 2]", "3", '"rough"'])
    def test_non_object_exits_2(self, tmp_path, capsys, spec):
        code, err, path, _ = self.run(tmp_path, capsys, spec)
        assert code == 2 and path in err and "JSON object" in err

    @pytest.mark.parametrize("key", ["settings", "dgp", "replications"])
    def test_missing_required_key_exits_2(self, tmp_path, capsys, key):
        spec = {k: v for k, v in self.BASE.items() if k != key}
        code, err, path, _ = self.run(tmp_path, capsys, json.dumps(spec))
        assert code == 2 and path in err and repr(key) in err

    @pytest.mark.parametrize("key", ["p", "T", "sigma2"])
    def test_missing_setting_key_exits_2(self, tmp_path, capsys, key):
        setting = {k: v for k, v in self.BASE["settings"][0].items() if k != key}
        code, err, path, _ = self.run(tmp_path, capsys,
                                      json.dumps({**self.BASE, "settings": [setting]}))
        assert code == 2 and path in err and "settings[0]" in err and repr(key) in err

    @pytest.mark.parametrize("key, value", [
        ("replications", "ten"), ("replications", 2.5), ("seed", "x"), ("seed", True),
        ("settings", {"p": 20}), ("settings", [7]), ("dgp", 3), ("methods", "pca"),
        ("methods", [["pca"]]), ("cutoff", "0.1"), ("thinning", "3"), ("l", 2.0),
        ("scree_l_max", None), ("smooth_K", "21"), ("signal_variance", [25]),
    ])
    def test_wrongly_typed_field_exits_2(self, tmp_path, capsys, key, value):
        code, err, path, _ = self.run(tmp_path, capsys, json.dumps({**self.BASE, key: value}))
        assert code == 2 and path in err
        assert repr(key) in err or "settings[0]" in err

    @pytest.mark.parametrize("key, value", [("p", "20"), ("T", 40.5), ("sigma2", None),
                                            ("theta_ar", "0.2")])
    def test_wrongly_typed_setting_exits_2(self, tmp_path, capsys, key, value):
        setting = {**self.BASE["settings"][0], key: value}
        code, err, path, _ = self.run(tmp_path, capsys,
                                      json.dumps({**self.BASE, "settings": [setting]}))
        assert code == 2 and path in err and "settings[0]" in err and repr(key) in err

    @pytest.mark.parametrize("key, value", [("l_fixed", 5), ("l_polcy", "plateau")])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key, value):
        code, err, path, _ = self.run(tmp_path, capsys, json.dumps({**self.BASE, key: value}))
        assert code == 2 and path in err and repr(key) in err

    def test_unknown_setting_key_exits_2(self, tmp_path, capsys):
        setting = {**self.BASE["settings"][0], "theta": 0.4}
        code, err, path, _ = self.run(tmp_path, capsys,
                                      json.dumps({**self.BASE, "settings": [setting]}))
        assert code == 2 and path in err and "settings[0]" in err and "'theta'" in err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code, err, _, _ = self.run(tmp_path, capsys, json.dumps({**self.BASE, "seed": -1}))
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("fields, key", [
        ({"cutoff": 1.5}, "cutoff"), ({"cutoff": -0.1}, "cutoff"), ({"thinning": 0}, "thinning"),
        ({"l_policy": "plateau", "scree_l_max": 2}, "scree_l_max"), ({"l": 0}, "'l'"),
        ({"dgp": "smooth", "signal_variance": "NaN"}, "signal_variance"),
        ({"dgp": "smooth", "signal_variance": -1}, "signal_variance"),
    ], ids=["cutoff-1.5", "cutoff-neg", "thinning-0", "scree_l_max-2", "l-0",
            "signal_variance-nan", "signal_variance-neg"])
    def test_value_outside_its_domain_exits_2(self, tmp_path, capsys, fields, key):
        text = json.dumps({**self.BASE, **fields}).replace('"NaN"', "NaN")
        code, err, _, out = self.run(tmp_path, capsys, text)
        assert code == 2 and key in err and out == ""
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("dgp, kind, theta_ar", [
        ("rough", "sse", 1.5), ("rough", "noise-test", -1.0), ("smooth", "sse", -0.5),
    ])
    def test_bad_theta_ar_in_a_later_setting_exits_2_before_any_replication(
            self, tmp_path, capsys, monkeypatch, dgp, kind, theta_ar):
        import fdfactor.simulate as simulate

        calls = []
        for runner in ("_run_sse_rep", "_run_test_rep"):
            monkeypatch.setattr(simulate, runner, lambda *a: calls.append(a))
        settings = [{"p": 20, "T": 40, "sigma2": 0.05},
                    {"p": 20, "T": 40, "sigma2": 0.05, "theta_ar": theta_ar}]
        spec = {**self.BASE, "dgp": dgp, "kind": kind, "settings": settings}
        code, err, _, _ = self.run(tmp_path, capsys, json.dumps(spec))
        assert code == 2 and "settings[1]" in err and "theta_ar" in err and str(theta_ar) in err
        assert calls == [] and not (tmp_path / "sim").exists()

    def spy_runners(self, monkeypatch):
        import fdfactor.simulate as simulate

        calls = []
        for runner in ("_run_sse_rep", "_run_test_rep"):
            monkeypatch.setattr(simulate, runner, lambda *a: calls.append(a))
        return calls

    @pytest.mark.parametrize("fields, message", [
        ({"settings": [{"p": 20, "T": 40, "sigma2": 0.05}, {"p": 2, "T": 40, "sigma2": 0.05}],
          "replications": 50}, "settings[1]: rough DGP needs p >= 3, got 2"),
        ({"methods": ["pca", "pca"], "replications": 3}, "method 'pca' is listed more than once"),
        ({"dgp": "smooth", "smooth_K": 2}, "smooth_K must be >= 4 for the cubic spline basis, got 2"),
    ], ids=["rough-p-2-later", "repeated-method", "smooth_K-2"])
    def test_spec_fault_exits_2_before_the_seed_line_and_any_replication(
            self, tmp_path, capsys, monkeypatch, fields, message):
        calls = self.spy_runners(monkeypatch)
        code, err, _, out = self.run(tmp_path, capsys, json.dumps({**self.BASE, **fields}))
        assert code == 2 and message in err and out == ""
        assert calls == [] and not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("fields, key", [
        ({"settings": []}, "settings"),
        ({"methods": []}, "methods"),
        ({"kind": "noise-test", "settings": []}, "settings"),
    ], ids=["settings", "methods", "noise-test-settings"])
    def test_empty_study_list_exits_2_before_the_seed_line_and_any_replication(
            self, tmp_path, capsys, monkeypatch, fields, key):
        calls = self.spy_runners(monkeypatch)
        code, err, _, out = self.run(tmp_path, capsys, json.dumps({**self.BASE, **fields}))
        assert (code, out) == (2, "")
        assert err == f"error: {key} must list at least one entry\n"
        assert calls == [] and not (tmp_path / "sim").exists()

    def test_signal_variance_beyond_the_float_range_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        # 1e400 parses to inf; no replication may run on it, or warn on stderr
        calls = self.spy_runners(monkeypatch)
        text = json.dumps({**self.BASE, "dgp": "smooth"})[:-1] + ', "signal_variance": 1e400}'
        code, err, _, out = self.run(tmp_path, capsys, text)
        assert (code, out) == (2, "")
        assert err == "error: settings[0]: signal_variance must be finite and nonnegative, got inf\n"
        assert calls == [] and not (tmp_path / "sim").exists()

    def test_smooth_k_below_four_is_named_once_for_the_whole_spec(self, tmp_path, capsys):
        settings = [{"p": 20, "T": 40, "sigma2": 0.05}, {"p": 30, "T": 40, "sigma2": 0.05}]
        text = json.dumps({**self.BASE, "dgp": "smooth", "settings": settings, "smooth_K": 3})
        code, err, _, out = self.run(tmp_path, capsys, text)
        assert (code, out) == (2, "")
        assert err == "error: smooth_K must be >= 4 for the cubic spline basis, got 3\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2_before_the_seed_line(
            self, tmp_path, capsys, monkeypatch, workers):
        calls = self.spy_runners(monkeypatch)
        code, err, _, out = self.run(tmp_path, capsys, json.dumps(self.BASE), "--workers", workers)
        assert code == 2 and "--workers" in err and workers in err and out == ""
        assert calls == [] and not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("kind", ["sse", "noise-test"])
    def test_selection_fault_of_a_setting_counts_as_failures(self, tmp_path, capsys, kind):
        # one frequency survives cutoff 0.5 and thinning 3 at p=8: every replication fails
        spec = {**self.BASE, "kind": kind, "settings": [{"p": 8, "T": 40, "sigma2": 0.05}],
                "l_policy": "plateau", "cutoff": 0.5, "thinning": 3}
        assert self.run(tmp_path, capsys, json.dumps(spec))[0] == 0
        with open(tmp_path / "sim" / "summary.csv") as fh:
            assert [row["failures"] for row in csv.DictReader(fh)] == ["2"]

    @pytest.mark.parametrize("dgp, kind", [("rough", "noise-test"), ("smooth", "sse")])
    @pytest.mark.parametrize("sigma2", [-1, "NaN"])
    def test_invalid_sigma2_exits_2(self, tmp_path, capsys, dgp, kind, sigma2):
        setting = {"p": 20, "T": 40, "sigma2": sigma2}
        text = json.dumps({**self.BASE, "dgp": dgp, "kind": kind, "settings": [setting]})
        code, err, _, _ = self.run(tmp_path, capsys, text.replace('"NaN"', "NaN"))
        assert code == 2 and "sigma2" in err and str(float(sigma2)) in err

    @pytest.mark.parametrize("kind, method", [("sse", "pca"), ("noise-test", "noise-test")])
    def test_manifest_names_the_cause_of_each_failed_cell(self, tmp_path, capsys, kind, method):
        # the spec of test_selection_fault_of_a_setting_counts_as_failures, plus a setting that runs
        settings = [{"p": 8, "T": 40, "sigma2": 0.05}, {"p": 40, "T": 40, "sigma2": 0.05}]
        spec = {**self.BASE, "kind": kind, "settings": settings,
                "l_policy": "plateau", "cutoff": 0.5, "thinning": 3}
        code, _, _, out = self.run(tmp_path, capsys, json.dumps(spec))
        assert code == 0 and out == "seed: 1\n"
        with open(tmp_path / "sim" / "summary.csv") as fh:
            assert [row["failures"] for row in csv.DictReader(fh)] == ["2", "0"]
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert manifest["parameters"]["failures_by_cause"] == [
            {"p": 8, "T": 40, "sigma2": 0.05, "theta_ar": 0.0, "method": method,
             "causes": {"SelectionError": 2}}]

    @pytest.mark.parametrize("found", [True, False])
    def test_manifest_records_the_blas_threads_of_each_worker(self, tmp_path, capsys, monkeypatch, found):
        import fdfactor.simulate as simulate

        if not found:
            monkeypatch.setattr(simulate, "_blas_thread_setter", lambda: None)
        assert self.run(tmp_path, capsys, json.dumps(self.BASE), "--workers", "2")[0] == 0
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        expected = 1 if found and simulate._blas_thread_setter() is not None else None
        assert manifest["parameters"]["blas_threads_per_worker"] == expected
        assert manifest["blas_threads"] == expected


@pytest.fixture
def fake_blas(monkeypatch):
    """A process-wide BLAS thread count, 2, behind a fake ``openblas_set_num_threads_local``."""
    import fdfactor.simulate as simulate

    count = [2]

    def set_threads(n):
        previous, count[0] = count[0], n
        return previous

    monkeypatch.setattr(simulate, "_blas_thread_setter", lambda: set_threads)
    return count


class TestOneBlasThread:
    """Every command computes on one BLAS thread, and the caller gets its own count back."""

    COMMANDS = ["fit", "test", "scree", "diagnose", "impute", "simulate"]

    @staticmethod
    def argv(tmp_path, command):
        data, spec, out = tmp_path / "panel.csv", tmp_path / "spec.json", str(tmp_path / "out")
        write_plain_csv(data, np.random.default_rng(3).standard_normal((10, 20)))
        spec.write_text(json.dumps({"dgp": "rough", "settings": [{"p": 20, "T": 30, "sigma2": 0.05}],
                                    "replications": 2, "seed": 1}))
        source = ["--spec", str(spec)] if command == "simulate" else ["--input", str(data)]
        return [command, *source, "--out", out, *(["--L", "2"] if command == "fit" else [])]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_computes_on_one_thread(self, tmp_path, capsys, monkeypatch, fake_blas,
                                                  command):
        import fdfactor.cli as cli
        import fdfactor.simulate as simulate

        seen = []
        for module, name in [(cli, f"_cmd_{command}"), (simulate, "_run_sse_rep")]:
            def spy(*args, real=getattr(module, name)):
                seen.append(fake_blas[0])
                result = real(*args)
                seen.append(fake_blas[0])  # simulate's nested hold sets 1 over 1 and restores 1
                return result

            monkeypatch.setattr(module, name, spy)
        assert main(self.argv(tmp_path, command)) == 0
        assert set(seen) == {1} and len(seen) == (6 if command == "simulate" else 2)
        assert fake_blas == [2]
        if command != "impute":  # impute writes one file and no manifest
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["blas_threads"] == 1
        if command == "simulate":
            assert manifest["parameters"]["blas_threads_per_worker"] == 1

    @pytest.mark.parametrize("command", ["fit", "test", "scree", "diagnose"])
    def test_without_a_setter_the_manifest_says_null(self, tmp_path, capsys, monkeypatch, command):
        import fdfactor.simulate as simulate

        monkeypatch.setattr(simulate, "_blas_thread_setter", lambda: None)
        assert main(self.argv(tmp_path, command)) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["blas_threads"] is None

    def test_the_count_comes_back_after_every_exit(self, tmp_path, capsys, monkeypatch, fake_blas):
        import fdfactor.cli as cli

        flat = tmp_path / "flat.csv"
        write_plain_csv(flat, np.outer(np.random.default_rng(6).standard_normal(20), np.ones(30)))
        for argv, code in [(self.argv(tmp_path, "fit"), 0),
                           (["fit", "--input", str(tmp_path / "absent.csv"), "--L", "2",
                             "--out", str(tmp_path / "o2")], 2),
                           (["scree", "--input", str(flat), "--lmax", "4",
                             "--out", str(tmp_path / "o3")], 3)]:
            assert main(argv) == code and fake_blas == [2]

        def interrupted(args):
            assert fake_blas == [1]
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_fit", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(self.argv(tmp_path, "fit"))
        assert fake_blas == [2]

    def test_tall_fit_writes_the_same_bytes_whatever_the_callers_count(self, tmp_path, capsys):
        from fdfactor.simulate import _blas_thread_setter, _one_blas_thread

        setter = _blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        data = tmp_path / "tall.csv"
        write_rough_csv(data, p=365, T=2000, sigma2=0.05, seed=16)  # T > p: the p-side Gram
        written, previous = [], setter(1)
        try:
            for n in (1, 2):
                setter(n)
                out = tmp_path / f"fit-{n}"
                assert main(["fit", "--input", str(data), "--header", "--L", "3",
                             "--out", str(out)]) == 0
                assert setter(n) == n  # main gave the caller its count back
                written.append((out / "residuals.csv").read_bytes())
            with _one_blas_thread():
                save_fit(fit(load_panel(data, header=True), 3), tmp_path / "library")
        finally:
            setter(previous)
        assert written[0] == written[1] == (tmp_path / "library" / "residuals.csv").read_bytes()


class TestIoFaults:
    """Unreadable inputs and unwritable outputs exit 2 with the path, never a traceback."""

    @pytest.mark.parametrize("case", ["fit-input-dir", "simulate-spec-dir", "impute-out-dir",
                                      "fit-out-file", "test-out-file", "non-utf8-csv",
                                      "non-utf8-csv-header", "non-utf8-csv-impute",
                                      "oversized-cell"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, case):
        data = tmp_path / "panel.csv"
        write_plain_csv(data, np.random.default_rng(16).standard_normal((6, 8)))
        folder = tmp_path / "folder"
        folder.mkdir()
        bad = tmp_path / "bad.csv"
        if case.startswith("non-utf8-csv"):
            bad.write_bytes(b"1.0,2.0,3.0\n4.0,5.0,\xe96.0\n")
        elif case == "oversized-cell":
            bad.write_text("1.0,2.0\n" + "1" * 140_000 + ",2.0\n")
        if case == "test-out-file":  # a fit to test, so the report is computed before --out fails
            assert main(["fit", "--L", "1", "--input", str(data), "--out", str(folder)]) == 0
            capsys.readouterr()
        fit = ["fit", "--L", "1", "--out", str(tmp_path / "o")]
        argv, path = {
            "fit-input-dir": (fit + ["--input", str(folder)], folder),
            "simulate-spec-dir": (["simulate", "--spec", str(folder), "--out", str(tmp_path / "o")],
                                  folder),
            "impute-out-dir": (["impute", "--input", str(data), "--out", str(folder)], folder),
            "fit-out-file": (["fit", "--L", "1", "--input", str(data), "--out", str(data)], data),
            "test-out-file": (["test", "--from-fit", str(folder), "--thin", "1", "--out", str(data)],
                              data),
            "non-utf8-csv": (fit + ["--input", str(bad)], bad),
            "non-utf8-csv-header": (fit + ["--input", str(bad), "--header"], bad),
            "non-utf8-csv-impute": (["impute", "--input", str(bad), "--out", str(tmp_path / "o")],
                                    bad),
            "oversized-cell": (fit + ["--input", str(bad)], bad),
        }[case]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()
        assert out == ""


class TestClosedStdout:
    """A stdout whose reader has gone exits 2 with one error line, after the files are written."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["fit", "test", "simulate"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command, unbuffered):
        data, spec, out = tmp_path / "panel.csv", tmp_path / "spec.json", tmp_path / "o"
        write_plain_csv(data, np.random.default_rng(17).standard_normal((10, 20)))
        assert main(["fit", "--L", "1", "--input", str(data), "--out", str(tmp_path / "fit")]) == 0
        spec.write_text(json.dumps({"dgp": "rough", "kind": "sse", "settings": [{"p": 15, "T": 20, "sigma2": 0.01}],
                                    "replications": 2, "seed": 5, "l": 2}))
        argv = {"fit": ["fit", "--L", "2", "--input", str(data), "--out", str(out)],
                "test": ["test", "--from-fit", str(tmp_path / "fit")],
                "simulate": ["simulate", "--spec", str(spec), "--out", str(out)]}[command]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(main.__code__.co_filename).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command prints
        try:
            done = subprocess.run([sys.executable, "-m", "fdfactor.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]  # no traceback, no exit-flush noise
        # fit prints after writing its files; simulate's seed line comes before any replication or file
        written = sorted(f.name for f in (tmp_path / "fit").iterdir()) if command == "fit" else []
        assert sorted(f.name for f in out.glob("*")) == written


#: the table commands that reject a bad cell by name
CELL_COMMANDS = [pytest.param(argv, id=argv[0]) for argv in
                 (["fit", "--L", "1"], ["test"], ["scree", "--lmax", "4"], ["diagnose"])]
NAN_SPELLINGS = ["nan", "NaN", "-nan", "+nan", "-NaN", "+NaN"]


class TestNonFiniteCell:
    """A finite table with one non-finite cell exits 2 naming the cell's data row and column."""

    @pytest.mark.parametrize("header", [False, True], ids=["plain", "header"])
    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("command", CELL_COMMANDS)
    def test_exits_2_naming_the_cell(self, tmp_path, capsys, command, token, header):
        rows = [[repr(x) for x in row]
                for row in np.random.default_rng(17).standard_normal((10, 12)).tolist()]
        rows[6][4] = token
        if header:
            rows.insert(0, [repr((j + 0.5) / 12) for j in range(12)])
        data = tmp_path / "panel.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "out"
        argv = command + ["--input", str(data), "--out", str(out)] + (["--header"] if header else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: non-finite value at row 7, column 5\n"
        assert not out.exists()


class TestImputeCommand:
    def test_fills_gaps(self, tmp_path):
        src = tmp_path / "gappy.csv"
        src.write_text("0.0,1.0,,3.0\n1.0,1.0,1.0,1.0\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--input", str(src), "--out", str(out)]) == 0
        panel = load_panel(out)
        assert np.allclose(panel.values[0], [0, 1, 2, 3])

    def test_roundtrip_via_loader(self, tmp_path):
        src = tmp_path / "gappy.csv"
        src.write_text("0.0,0.5,1.0\nna,2.0,4.0\n1.0,nan,3.0\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--input", str(src), "--header", "--out", str(out)]) == 0
        panel = load_panel(out, header=True)
        assert np.allclose(panel.values, [[2.0, 2.0, 4.0], [1.0, 2.0, 3.0]])

    def test_missing_tokens_fill_to_exact_bytes(self, tmp_path):
        src = tmp_path / "gappy.csv"
        src.write_text("0.0,NA,2.0,\nnull,1.5,nan,3.0\n4.0,4.0,NaN,na\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--input", str(src), "--out", str(out)]) == 0
        assert out.read_text() == "0.0,1.0,2.0,2.0\n1.5,1.5,2.25,3.0\n4.0,4.0,4.0,4.0\n"

    @pytest.mark.parametrize("header", [False, True])
    def test_fills_a_single_curve(self, tmp_path, header):
        """In-row interpolation needs one curve, though a panel to fit needs two."""
        grid = "0.0,0.5,1.0\n" if header else ""
        src = tmp_path / "gappy.csv"
        src.write_text(grid + "1.0,,3.0\n")
        out = tmp_path / "filled.csv"
        flags = ["--header"] if header else []
        assert main(["impute", "--input", str(src), "--out", str(out)] + flags) == 0
        assert out.read_text() == grid + "1.0,2.0,3.0\n"

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e400"])
    def test_non_finite_cell_is_a_fault_not_a_gap(self, tmp_path, capsys, token):
        src = tmp_path / "table.csv"
        src.write_text(f"1.0,2.0,3.0\n1.0,NA,2.0\n1.0,{token},3.0\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--input", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: non-finite value at row 3, column 2\n"
        assert not out.exists()


class TestGapRule:
    """NaN in any spelling is a missing cell: impute fills it, every other command names it."""

    @pytest.mark.parametrize("token", NAN_SPELLINGS)
    def test_impute_fills_it_like_na(self, tmp_path, token):
        table = "0.0,{},2.0,4.0\n1.0,1.0,1.0,1.0\n{},3.0,3.0,{}\n"
        written = []
        for cell in ("NA", token):
            src, out = tmp_path / f"in-{cell}.csv", tmp_path / f"out-{cell}.csv"
            src.write_text(table.format(cell, cell, cell))
            assert main(["impute", "--input", str(src), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[1] == written[0] == b"0.0,1.0,2.0,4.0\n1.0,1.0,1.0,1.0\n3.0,3.0,3.0,3.0\n"

    @pytest.mark.parametrize("token", NAN_SPELLINGS)
    @pytest.mark.parametrize("command", CELL_COMMANDS)
    def test_table_commands_name_it(self, tmp_path, capsys, command, token):
        rows = [[repr(x) for x in row]
                for row in np.random.default_rng(18).standard_normal((10, 12)).tolist()]
        rows[6][4] = token
        rows[8][2] = "inf"  # a missing cell is reported before a non-finite one
        data = tmp_path / "panel.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "out"
        assert main(command + ["--input", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: missing value at row 7, column 5; run the 'impute' command first\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit", "--L", "1"], ["impute"]], ids=["fit", "impute"])
    def test_empty_header_cell_is_a_bad_grid_point(self, tmp_path, capsys, command):
        data = tmp_path / "panel.csv"
        data.write_text("0.25,,0.75\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        out = tmp_path / "out"
        assert main(command + ["--header", "--input", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: grid points must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit", "--L", "1"], ["impute"]], ids=["fit", "impute"])
    def test_a_grid_narrower_than_the_rows_is_named_before_a_gap(self, tmp_path, capsys, command):
        data = tmp_path / "panel.csv"
        data.write_text("0.1,0.5,0.9\n1,,3,4\n1,2,3,4\n")
        out = tmp_path / "out"
        assert main(command + ["--header", "--input", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: table has 4 columns but the grid has 3 points\n"
        assert not out.exists()


#: malformed cells; a fuzzed table is a numeric one with a few of these patched in
BAD_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "na", "NaN", "-nan", "+NaN", "null", "inf", "-Infinity", "1e400",
                     "1,5", '"2"', "abc", "0x10", "1_0", "\t3 ", "--1"]),
)
NUMBERS = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, 1e300, -1e-300, 5e-324]))


@st.composite
def tables(draw):
    T, p = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    rows = [[repr(draw(NUMBERS)) for _ in range(p)] for _ in range(T)]
    for i, j, cell in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 11), BAD_CELLS),
                                    max_size=2)):
        if i < T and j < p:
            rows[i][j] = cell
    for i, width in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 12)), max_size=1)):
        if i < T:
            rows[i] = rows[i][:width]  # a ragged row
    if draw(st.booleans()):
        rows.insert(0, [repr((j + 0.5) / p) for j in range(p)])  # a valid grid row
    return "".join(",".join(row) + "\n" for row in rows)


TABLE_COMMANDS = {
    "fit-L": ["fit", "--L", "1"],
    "fit-auto": ["fit", "--scree-auto", "--lmax", "4"],
    "fit-mean": ["fit", "--mean-only"],
    "fit-trace": ["fit", "--L", "1", "--trace-curve", "3"],
    "test": ["test", "--thin", "2"],
    "scree": ["scree", "--lmax", "4", "--thin", "2"],
    "diagnose": ["diagnose", "--cols", "1:2", "--thin", "2"],
}
#: wrong types and bad numbers patched into fuzzed specs
SPEC_VALUES = st.one_of(
    st.integers(-3, 12), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["rough", "smooth", "sse", "x", "", None, True, [], {}, ["pca"], [1]]),
)


@st.composite
def specs(draw):
    """Small runnable specs with a key dropped or replaced, or arbitrary text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=40))
    setting = {
        "p": draw(st.integers(6, 40)), "T": draw(st.integers(4, 40)),
        "sigma2": draw(st.floats(0.0, 4.0)), "theta_ar": draw(st.floats(0.0, 0.9)),
    }
    spec = {
        "dgp": draw(st.sampled_from(["rough", "smooth"])),
        "kind": draw(st.sampled_from(["sse", "noise-test"])),
        "settings": [setting], "replications": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**64)),
        "methods": draw(st.sampled_from([["pca"], ["bspline"], ["pca", "bspline"]])),
        "l_policy": draw(st.sampled_from(["fixed", "plateau"])), "l": draw(st.integers(1, 8)),
        "scree_l_max": draw(st.integers(4, 12)), "cutoff": draw(st.floats(0.0, 0.5)),
        "thinning": draw(st.one_of(st.none(), st.integers(1, 6))),
        "smooth_K": draw(st.integers(4, 30)), "signal_variance": draw(st.floats(0.0, 30.0)),
    }
    for target in (spec, setting):
        for key in draw(st.sets(st.sampled_from(sorted(target)), max_size=1)):
            del target[key]
        target.update(draw(st.dictionaries(st.sampled_from(sorted(target) + ["extra"]),
                                           SPEC_VALUES, max_size=1)))
    return json.dumps(spec)


def run_fuzzed(argv):
    """Exit code of one command; an escaping exception or a printed traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(table=tables(), command=st.sampled_from(sorted(TABLE_COMMANDS)), header=st.booleans())
    def test_malformed_tables_exit_cleanly(self, table, command, header):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "table.csv"
            data.write_text(table)
            flags = ["--input", str(data)] + (["--header"] if header else [])
            for argv, out in ((TABLE_COMMANDS[command], "o"), (["impute"], "filled.csv")):
                code = run_fuzzed(argv + flags + ["--out", f"{tmp}/{out}"])
                assert code in (0, 2, 3)
                assert code == 0 or not (Path(tmp) / out).exists()

    @settings(max_examples=200, deadline=None)
    @given(spec=specs())
    def test_malformed_specs_exit_cleanly(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(spec)
            code = run_fuzzed(["simulate", "--spec", str(path), "--out", f"{tmp}/o"])
            assert code in (0, 2, 3)
            assert code == 0 or not (Path(tmp) / "o").exists()


# ---------------------------------------------------------------------------
# which options each mode reads

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small valid panel (grid row first), a fit of it and a small spec: paths as strings."""
    root = tmp_path_factory.mktemp("inputs")
    panel, fit_dir, spec = root / "panel.csv", root / "fit", root / "spec.json"
    write_rough_csv(panel, p=16, T=12, sigma2=0.05, seed=18)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--input", str(panel), "--header", "--L", "2",
                     "--out", str(fit_dir)]) == 0
    spec.write_text(json.dumps({"dgp": "rough", "settings": [{"p": 20, "T": 30, "sigma2": 0.05}],
                                "replications": 2, "seed": 1}))
    return {"A": str(panel), "B": str(fit_dir), "spec": str(spec)}


def run_argv(argv):
    """Exit code, stdout and stderr of one command; argparse's own exits count as codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: invocations with an option their mode does not read, or without exactly one mode flag:
#: argv and the option the message must name ("A" a panel, "B" a fit directory, "o" --out)
PROBES = {
    "test-input-and-from-fit": (["test", "--input", "A", "--from-fit", "B", "--out", "o"],
                                "--from-fit"),
    "test-from-fit-header": (["test", "--from-fit", "B", "--header", "--out", "o"], "--header"),
    "fit-L-with-scree-options": (["fit", "--input", "A", "--L", "3", "--lmax", "99", "--thin", "500",
                                  "--cutoff", "0.5", "--out", "o"], "--lmax"),
    "fit-mean-only-lmax": (["fit", "--input", "A", "--mean-only", "--lmax", "99", "--out", "o"],
                           "--lmax"),
    "fit-mean-only-thin": (["fit", "--input", "A", "--mean-only", "--thin", "3", "--out", "o"],
                           "--thin"),
    "diagnose-input-and-from-fit": (["diagnose", "--input", "A", "--from-fit", "B", "--out", "o"],
                                    "--from-fit"),
    "fit-trace-points-alone": (["fit", "--input", "A", "--L", "2", "--trace-points", "5",
                                "--out", "o"], "--trace-points"),
    "test-no-input": (["test", "--out", "o"], "--input"),
}


class TestOptionChecks:
    """A given option that the chosen mode does not read exits 2 by name, before any input is read."""

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe_exits_2_naming_the_option(self, tmp_path, inputs, probe):
        argv, option = PROBES[probe]
        out = tmp_path / "o"
        code, stdout, stderr = run_argv([{**inputs, "o": str(out)}.get(a, a) for a in argv])
        assert code == 2
        assert option in stderr and "Traceback" not in stderr
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "test", "scree", "diagnose", "simulate", "impute"])
    def test_help_exits_0(self, command):
        code, stdout, _ = run_argv([command, "--help"])
        assert code == 0 and stdout.startswith(f"usage: fdfactor {command}")

    @pytest.mark.parametrize("command, option, default", [
        ("fit", "--lmax", "12"), ("scree", "--lmax", "12"), ("fit", "--cutoff", "0.1"),
        ("test", "--cutoff", "0.1"), ("scree", "--cutoff", "0.1"), ("diagnose", "--cutoff", "0.1"),
        ("fit", "--trace-points", "1000"), ("diagnose", "--curve", "1"), ("diagnose", "--hmax", "40"),
    ])
    def test_help_shows_the_documented_default(self, monkeypatch, command, option, default):
        monkeypatch.setenv("COLUMNS", "200")  # one line per help text
        _, stdout, _ = run_argv([command, "--help"])
        # the option, its metavar, then its help on the same line or the next one
        assert re.search(rf"^  {option} [A-Z_]+\s+[^\n]*\(default {re.escape(default)}\)$",
                         stdout, re.MULTILINE), stdout


#: per command, mode flag (None where there are none) -> every option that mode reads;
#: written out here from the documented behaviour, not read from the parser's tables
READS = {
    "fit": {"--L": "--input --header --out --L --trace-curve --trace-points",
            "--scree-auto": "--input --header --out --scree-auto --lmax --cutoff --thin "
                            "--trace-curve --trace-points",
            "--mean-only": "--input --header --out --mean-only"},
    "test": {"--input": "--input --header --sigma2 --cutoff --thin --out",
             "--from-fit": "--from-fit --sigma2 --cutoff --thin --out"},
    "scree": {None: "--input --header --lmax --cutoff --thin --out"},
    "diagnose": {"--input": "--input --header --curve --hmax --cols --cutoff --thin --out",
                 "--from-fit": "--from-fit --curve --hmax --cols --cutoff --thin --out"},
    "simulate": {None: "--spec --out --workers"},
    "impute": {None: "--input --header --out"},
}
REQUIRED = {"fit": {"--input", "--out"}, "test": set(), "scree": {"--input", "--out"},
            "diagnose": {"--out"}, "simulate": {"--spec", "--out"}, "impute": {"--input", "--out"}}
#: one valid value per option; "A", "B", "spec" and "o" are replaced by paths
VALUES = {"--input": ["A"], "--header": [], "--from-fit": ["B"], "--out": ["o"], "--L": ["2"],
          "--scree-auto": [], "--mean-only": [], "--lmax": ["4"], "--trace-curve": ["1"],
          "--trace-points": ["20"], "--cutoff": ["0.1"], "--thin": ["2"], "--sigma2": ["1.0"],
          "--curve": ["1"], "--hmax": ["3"], "--cols": ["1:2"], "--spec": ["spec"],
          "--workers": ["1"]}


def read_exactly(command, options) -> bool:
    """Whether every option given is read: one mode flag where there are modes, none unread."""
    chosen = [o for o in options if o in READS[command]]
    if None not in READS[command] and len(chosen) != 1:
        return False
    reads = READS[command][chosen[0] if chosen else None].split()
    return (REQUIRED[command] <= set(options) and set(options) <= set(reads)
            and ("--trace-points" not in options or "--trace-curve" in options))


def subsets(items, max_size):
    return st.sets(st.sampled_from(sorted(items)), max_size=max_size) if items else st.just(set())


@st.composite
def option_draws(draw):
    """A command with some options of one of its modes, then perhaps a required option or the
    mode flag left out, or one more option (another mode's or command's), in any order."""
    command = draw(st.sampled_from(sorted(READS)))
    mode = draw(st.sampled_from(sorted(READS[command], key=str)))
    options = REQUIRED[command] | {mode} - {None} | draw(subsets(READS[command][mode].split(), 4))
    fault = draw(st.sampled_from(["none", "left out", "one more"]))
    if fault == "left out":
        options -= draw(subsets(REQUIRED[command] | {mode} - {None}, 1))
    elif fault == "one more":
        options |= draw(subsets(VALUES, 1))
    return command, draw(st.permutations(sorted(options)))


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(draw=option_draws())
    def test_an_option_read_by_no_chosen_mode_never_exits_0(self, inputs, draw):
        command, options = draw
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            paths = {**inputs, "o": str(out)}
            argv = [command] + [paths.get(a, a) for o in options for a in [o, *VALUES[o]]]
            code, stdout, stderr = run_argv(argv)
            assert code in (0, 2, 3) and "Traceback" not in stderr
            if read_exactly(command, options):
                assert code == 0, (argv, stderr)
            else:
                assert code == 2, (argv, stderr)
                assert stdout == "" and not out.exists()
