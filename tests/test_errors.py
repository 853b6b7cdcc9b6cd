"""The error hierarchy: every package exception has one base, and the base alone decides its outcome.

An ``InputError`` exits the CLI with 2 and a ``NumericalError`` with 3; a
replication raising either counts as failed under its class name.
"""

import json

import numpy as np
import pytest

from fdfactor import (
    MeanVector,
    ObservationPanel,
    PiecewiseLinearCurve,
    RoughDgpConfig,
    SampleGrid,
    ScreeCurve,
    StepFunction,
    annotate_suggestion,
    classic_scree,
    dense_trace,
    eigenfunction_estimate,
    empirical_eigensystem,
    errors,
    evaluate,
    fit,
    iid_noise_test,
    interpolate,
    lambda_scree,
    residual_acf,
    residual_covariance,
    save_panel,
    select_frequencies,
    suggest_plateau_L,
)
from fdfactor.cli import main
from fdfactor.errors import InputError, NumericalError
from fdfactor.simulate import REPLICATION_ERRORS

#: every class the package raises: all of ``errors`` but the InputError base, which is never raised itself
CLASSES = {name: cls for name, cls in vars(errors).items()
           if isinstance(cls, type) and issubclass(cls, Exception) and cls is not InputError}


def test_the_package_raises_seven_classes_under_two_bases():
    assert sorted(CLASSES) == ["DegenerateVarianceError", "DimensionError", "DomainError", "NumericalError",
                               "OrderError", "PanelFormatError", "SelectionError"]
    for cls in CLASSES.values():
        assert issubclass(cls, InputError) != issubclass(cls, NumericalError), cls
    assert REPLICATION_ERRORS == (InputError, NumericalError)


def expected_outcome(cls):
    return (2, "error: ") if issubclass(cls, InputError) else (3, "numerical error: ")


@pytest.mark.parametrize("name", CLASSES)
def test_a_command_exits_by_the_base_of_its_error(tmp_path, capsys, monkeypatch, name):
    import fdfactor.cli as cli

    def raising(*args, **kwargs):
        raise CLASSES[name]("raised by the fit")

    monkeypatch.setattr(cli, "fit", raising)
    save_panel(ObservationPanel(np.random.default_rng(0).standard_normal((10, 8)), SampleGrid.midpoints(8)),
               tmp_path / "panel.csv")
    code = main(["fit", "--input", str(tmp_path / "panel.csv"), "--L", "2", "--out", str(tmp_path / "fit")])
    out, err = capsys.readouterr()
    exit_code, prefix = expected_outcome(CLASSES[name])
    assert (code, err, out) == (exit_code, f"{prefix}raised by the fit\n", "")
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("name", CLASSES)
def test_a_replication_fails_under_the_name_of_its_error(tmp_path, capsys, monkeypatch, name):
    import fdfactor.simulate as simulate

    def raising(*args, **kwargs):
        raise CLASSES[name]("raised by the fit")

    monkeypatch.setattr(simulate, "fit", raising)
    spec = {"dgp": "rough", "settings": [{"p": 20, "T": 40, "sigma2": 0.05}], "replications": 3, "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "sim")]) == 0
    assert capsys.readouterr() == ("seed: 1\n", "")
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["parameters"]["failures_by_cause"] == [
        {"p": 20, "T": 40, "sigma2": 0.05, "theta_ar": 0.0, "method": "pca", "causes": {name: 3}}]


GRID = SampleGrid.midpoints(4)
PANEL = ObservationPanel(np.random.default_rng(1).standard_normal((10, 8)), SampleGrid.midpoints(8))
CURVE = PiecewiseLinearCurve(GRID, np.arange(4.0))
SCREE = ScreeCurve(np.arange(1, 6), np.array([9.0, 1.0, 0.9, 0.95, 0.92]), "test-statistic")

#: guards that no other test reaches: the call, the class it raises and its whole text
GUARDS = {
    "PiecewiseLinearCurve-size": (lambda: PiecewiseLinearCurve(GRID, np.ones(3)), errors.DimensionError,
                                  "3 knot values for a grid of 4 points"),
    "PiecewiseLinearCurve-call": (lambda: PiecewiseLinearCurve(GRID, np.ones(4))(1.5), errors.DomainError,
                                  r"evaluation points must lie in \[0, 1\]"),
    "residual_acf-2d": (lambda: residual_acf(np.ones((2, 3)), 1), errors.DimensionError,
                        "acf input must be a single residual row"),
    "residual_covariance-one-row": (lambda: residual_covariance(np.ones((1, 4))), errors.DimensionError,
                                    "covariance needs at least two residual rows"),
    "ScreeCurve-lengths": (lambda: ScreeCurve(np.array([1, 2, 3]), np.array([1.0, 0.5]), "test-statistic"),
                           errors.DimensionError, "orders and values must have equal length"),
    "ObservationPanel-3d": (lambda: ObservationPanel(np.zeros((2, 3, 4)), GRID), errors.DimensionError,
                            "panel values must be a 2-d array"),
    "MeanVector-2d": (lambda: MeanVector(np.zeros((2, 3))), errors.DimensionError, "a mean vector must be 1-d"),
    "RoughDgpConfig-T": (lambda: RoughDgpConfig(p=10, T=1, sigma2=0.1), errors.DimensionError,
                         "rough DGP needs T >= 2, got 1"),
    "StepFunction-size": (lambda: StepFunction(GRID, np.ones(3)), errors.DimensionError,
                          "3 levels for a grid of 4 points"),
    # public scalar arguments of the wrong kind
    "interpolate-1.5": (lambda: interpolate(fit(PANEL, 2), 1.5), errors.OrderError,
                        r"curve index 1\.5 out of range 1\.\.10"),
    "interpolate-True": (lambda: interpolate(fit(PANEL, 2), True), errors.OrderError,
                         r"curve index True out of range 1\.\.10"),
    "eigenfunction_estimate-1.5": (lambda: eigenfunction_estimate(empirical_eigensystem(PANEL), 1.5),
                                   errors.OrderError, r"eigenfunction index 1\.5 out of range 1\.\.8"),
    "dense_trace-2.5": (lambda: dense_trace(CURVE, 2.5), errors.DimensionError, "a trace needs at least two points"),
    "dense_trace-str": (lambda: dense_trace(CURVE, "5"), errors.DimensionError, "a trace needs at least two points"),
    "classic_scree-2.5": (lambda: classic_scree(empirical_eigensystem(PANEL), 2.5), errors.OrderError,
                          r"l_max must lie in 1\.\.8, got 2\.5"),
    "lambda_scree-2.5": (lambda: lambda_scree(PANEL, 2.5, select_frequencies(8, 0.0)), errors.OrderError,
                         r"l_max must lie in 1\.\.min\(T-1, p\) = 8, got 2\.5"),
    "suggest_plateau_L-str": (lambda: suggest_plateau_L(SCREE, rel_tol="0.1"), errors.DomainError,
                              r"rel_tol must lie in \(0, 1\), got 0\.1"),
    "annotate_suggestion-str": (lambda: annotate_suggestion(SCREE, "0.1"), errors.DomainError,
                                r"rel_tol must lie in \(0, 1\), got 0\.1"),
    "iid_noise_test-str": (lambda: iid_noise_test(PANEL, select_frequencies(8, 0.0), sigma2="1"),
                           errors.DomainError, "sigma2 must be a number or None, got '1'"),
    "evaluate-str": (lambda: evaluate(CURVE, "x"), errors.DomainError, "evaluation points must be numbers, got 'x'"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_class_with_its_text(guard):
    call, cls, text = GUARDS[guard]
    with pytest.raises(cls, match=f"^{text}$") as caught:
        call()
    assert type(caught.value) is cls

