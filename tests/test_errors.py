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
    errors,
    residual_acf,
    residual_covariance,
    save_panel,
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
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_class_with_its_text(guard):
    call, cls, text = GUARDS[guard]
    with pytest.raises(cls, match=f"^{text}$") as caught:
        call()
    assert type(caught.value) is cls
