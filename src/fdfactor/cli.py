"""Command-line surface: fit, test, scree, diagnose, simulate, impute.

Every command that writes files targets an output directory containing
exactly one ``manifest.json`` recording the command, input hashes,
parameters, seed (when randomized), software version and timestamp.
Exit codes: 0 success, 2 usage/input problems, 3 numerical or
degenerate-data failures.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .curves import dense_trace, interpolate
from .diagnostics import (
    _selection,
    averaged_periodogram,
    iid_noise_test,
    residual_acf,
    residual_correlation,
    residual_covariance,
)
from .errors import (
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    NumericalError,
    OrderError,
    PanelFormatError,
    SelectionError,
)
from .factor import fit, load_fit_residuals, save_fit
from .order import _scree_spectrum, plateau_fit, suggest_plateau_L
from .panel import (
    ObservationPanel,
    SampleGrid,
    _require_finite,
    _write_json,
    _write_rows,
    impute_missing,
    load_panel,
    read_table_with_missing,
    save_panel,
)
from .simulate import (
    RNG_ALGORITHM,
    SimSetting,
    SimulationSpec,
    run_monte_carlo,
    write_summary_csv,
)
from .spectral import _centered_eigh

USAGE_ERRORS = (
    PanelFormatError,
    DimensionError,
    OrderError,
    DomainError,
    SelectionError,
    OSError,
)
NUMERIC_ERRORS = (NumericalError, DegenerateVarianceError)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, params: dict, inputs: dict) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "input_sha256": {name: _sha256(p) for name, p in inputs.items()},
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "schema": 1,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _load_residuals(args):
    """Residual panel of ``--from-fit`` or ``--input``, and the file it came from."""
    if args.from_fit is not None:
        return load_fit_residuals(args.from_fit), Path(args.from_fit) / "residuals.csv"
    if args.input is None:
        raise PanelFormatError("provide --input or --from-fit")
    return load_panel(args.input, header=args.header), Path(args.input)


def _write_xi(path, sel, xi) -> None:
    _write_rows(path, zip(sel.indices.tolist(), sel.thetas.tolist(), xi.tolist()),
                ["index", "theta", "xi"])


# ---------------------------------------------------------------------------
# subcommands

def _cmd_fit(args) -> int:
    chosen = sum([args.L is not None, args.scree_auto, args.mean_only])
    if chosen != 1:
        raise OrderError("choose exactly one of --L, --scree-auto, --mean-only")
    panel = load_panel(args.input, header=args.header)
    out = Path(args.out)
    params = {"input": str(args.input), "header": args.header}

    if args.mean_only:
        with np.errstate(over="ignore", invalid="ignore"):
            mu = panel.values.mean(axis=0)
            resid = panel.values - mu
        _require_finite(mu, "mean curve", "the panel is")
        _require_finite(resid, "residual panel of the mean-only fit", "the panel is")
        signals = ObservationPanel(np.broadcast_to(mu, panel.values.shape), panel.grid)
        residuals = ObservationPanel(resid, panel.grid)
        out.mkdir(parents=True, exist_ok=True)
        save_panel(signals, out / "signals.csv")
        save_panel(residuals, out / "residuals.csv")
        _write_rows(out / "muhat.csv", [mu], panel.grid.points)
        params["mode"] = "mean-only"
        _write_manifest(out, "fit", params, {"input": args.input})
        return 0

    if args.scree_auto:
        sel = _selection(panel.p, panel.T, args.cutoff, args.thin)
        l_max = min(args.lmax, min(panel.T - 1, panel.p))
        _, suggestion, result = plateau_fit(panel, l_max, sel)
        L = suggestion.L
        params["l_policy"] = "plateau"
        params["plateau_found"] = suggestion.plateau_found
        if not suggestion.plateau_found:
            print(
                f"warning: no plateau detected up to l_max={l_max}; using L={L}",
                file=sys.stderr,
            )
    else:
        L = args.L
        params["l_policy"] = "fixed"
        result = fit(panel, L)

    params["L"] = int(L)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.trace_curve is not None:
        trace = dense_trace(interpolate(result, args.trace_curve), args.trace_points)
    save_fit(result, out)
    _write_manifest(out, "fit", params, {"input": args.input})
    if args.trace_curve is not None:
        _write_rows(out / "trace.csv", trace, ["s", "value"])
    print(json.dumps({"L": int(L), "T": result.T, "p": result.p, "out": str(out)}))
    return 0


def _cmd_test(args) -> int:
    if args.sigma2 is not None and not 0.0 < args.sigma2 < np.inf:
        raise DomainError(f"--sigma2 must be a positive finite number, got {args.sigma2}")
    residuals, input_path = _load_residuals(args)

    sel = _selection(residuals.p, residuals.T, args.cutoff, args.thin)
    report = iid_noise_test(residuals, sel, sigma2=args.sigma2)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", payload)
        _write_xi(out / "xi.csv", sel, report.xi)
        _write_manifest(
            out, "test",
            {"cutoff": args.cutoff, "thin": args.thin, "sigma2": args.sigma2,
             "f": report.f},
            {"input": input_path},
        )
    return 0


def _cmd_scree(args) -> int:
    panel = load_panel(args.input, header=args.header)
    sel = _selection(panel.p, panel.T, args.cutoff, args.thin)
    l_max = min(args.lmax, min(panel.T - 1, panel.p))
    spectrum = _centered_eigh(panel.values)
    lam = _scree_spectrum(spectrum, l_max, sel)
    gamma = spectrum.gram_eigenvalues[:l_max]
    suggestion = suggest_plateau_L(lam) if l_max >= 4 else None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "scree.csv",
                zip(lam.orders.tolist(), gamma.tolist(), lam.values.tolist()),
                ["l", "gamma", "lambda_inf"])
    params = {"lmax": l_max, "cutoff": args.cutoff, "thin": args.thin}
    if suggestion is not None:
        params["suggested_L"] = suggestion.L
        params["plateau_found"] = suggestion.plateau_found
        print(json.dumps({"suggested_L": suggestion.L,
                          "plateau_found": suggestion.plateau_found}))
    _write_manifest(out, "scree", params, {"input": args.input})
    return 0


def _parse_window(expr, p):
    try:
        lo, hi = expr.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise PanelFormatError(f"window must look like A:B, got {expr!r}") from None
    if not 1 <= lo <= hi <= p:
        raise DimensionError(f"window {expr} out of range 1:{p}")
    return lo - 1, hi


def _cmd_diagnose(args) -> int:
    residuals, input_path = _load_residuals(args)

    if not 1 <= args.curve <= residuals.T:
        raise DimensionError(f"curve index {args.curve} out of range 1..{residuals.T}")
    h_max = min(args.hmax, residuals.p - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        acvf, acf = residual_acf(residuals.values[args.curve - 1], h_max)
        cov = residual_covariance(residuals)
        corr, _ = residual_correlation(residuals)
        if args.cols is not None:
            lo, hi = _parse_window(args.cols, residuals.p)
            cov = cov[lo:hi, lo:hi]
            corr = corr[lo:hi, lo:hi]
        sel = _selection(residuals.p, residuals.T, args.cutoff, args.thin)
        xi = averaged_periodogram(residuals, sel)
    # NaN correlations of zero-variance columns are documented output, not a fault
    for name, values in (("autocovariance", acvf), ("covariance", cov), ("periodogram xi", xi)):
        _require_finite(values, f"residual {name}", "the residuals are")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    acf_col = acf.tolist() if acf is not None else [None] * (h_max + 1)
    _write_rows(out / "acf.csv", zip(range(h_max + 1), acvf.tolist(), acf_col),
                ["lag", "acvf", "acf"])
    _write_rows(out / "covariance.csv", cov)
    _write_rows(out / "correlation.csv", corr)
    _write_xi(out / "xi.csv", sel, xi)
    _write_manifest(
        out, "diagnose",
        {"curve": args.curve, "hmax": h_max, "cols": args.cols,
         "cutoff": args.cutoff, "thin": args.thin},
        {"input": input_path},
    )
    return 0


_NUMBER = (int, float)
_NULL = type(None)
#: accepted JSON types of the spec keys ``simulate`` reads; an optional key
#: left out takes its SimulationSpec or SimSetting default
_SPEC_TYPES = {
    "dgp": (str,), "kind": (str,), "settings": (list,), "replications": (int,),
    "seed": (int, _NULL), "methods": (list,), "l_policy": (str,), "l": (int,),
    "scree_l_max": (int,), "cutoff": _NUMBER, "thinning": (int, _NULL),
    "smooth_K": (int,), "signal_variance": _NUMBER,
}
_SETTING_TYPES = {"p": (int,), "T": (int,), "sigma2": _NUMBER, "theta_ar": _NUMBER}


def _spec_fields(obj, types: dict, required, where: str) -> dict:
    """Keys of a JSON object that are present, numbers as floats; faults name the key.

    A key outside ``types`` is a fault too, so a misspelt key never runs on a default.
    """
    if not isinstance(obj, dict):
        raise PanelFormatError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise PanelFormatError(f"{where}: unknown key {unknown[0]!r}; "
                               f"accepted keys are {', '.join(types)}")
    out = {}
    for key, accepted in types.items():
        if key not in obj:
            if key in required:
                raise PanelFormatError(f"{where}: missing key {key!r}")
            continue
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, accepted):
            names = " or ".join("null" if t is _NULL else t.__name__ for t in accepted)
            raise PanelFormatError(f"{where}: key {key!r} must be {names}, got {value!r}")
        out[key] = float(value) if accepted is _NUMBER else value
    return out


def _read_spec(path):
    """Parse and type-check a spec file; returns it and the SimulationSpec arguments."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:
        raise PanelFormatError(f"{path}: not a JSON spec ({exc})") from None
    fields = _spec_fields(raw, _SPEC_TYPES, ("dgp", "settings", "replications"), str(path))
    fields["settings"] = [
        SimSetting(**_spec_fields(s, _SETTING_TYPES, ("p", "T", "sigma2"),
                                  f"{path}: settings[{i}]"))
        for i, s in enumerate(fields["settings"])
    ]
    if not all(isinstance(m, str) for m in fields.get("methods", ())):
        raise PanelFormatError(f"{path}: key 'methods' must be a list of strings")
    if "l" in fields:
        fields["l_fixed"] = fields.pop("l")
    fields.setdefault("kind", "sse")
    return raw, fields


def _cmd_simulate(args) -> int:
    raw, fields = _read_spec(args.spec)
    if fields.get("seed") is None:
        fields["seed"] = secrets.randbits(63)
    print(f"seed: {fields['seed']}")
    summary = run_monte_carlo(SimulationSpec(**fields), workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(summary, out / "summary.csv")
    _write_manifest(
        out, "simulate",
        {"spec": raw, "seed": fields["seed"], "workers": args.workers},
        {"spec_file": args.spec},
    )
    return 0


def _cmd_impute(args) -> int:
    values, grid_points = read_table_with_missing(args.input, header=args.header)
    grid = SampleGrid(grid_points) if grid_points is not None else SampleGrid.midpoints(values.shape[1])
    filled = impute_missing(values, grid)
    panel = ObservationPanel(filled, grid)
    save_panel(panel, args.out, header=args.header)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdfactor",
        description="Factor-model denoising and diagnostics for discretized curve panels.",
    )
    parser.add_argument("--version", action="version", version=f"fdfactor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selection(p):
        p.add_argument("--cutoff", type=float, default=0.1,
                       help="low-frequency cutoff fraction (default 0.1)")
        p.add_argument("--thin", type=int, default=None,
                       help="frequency thinning m (default: smallest m with f/T <= 0.3)")

    p_fit = sub.add_parser("fit", help="fit a factor model and write artifacts")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--header", action="store_true",
                       help="first input row holds the grid points")
    p_fit.add_argument("--L", type=int, default=None, help="number of factors")
    p_fit.add_argument("--scree-auto", action="store_true",
                       help="choose L by the test-statistic plateau rule")
    p_fit.add_argument("--mean-only", action="store_true",
                       help="fit only the mean curve (no factors)")
    p_fit.add_argument("--lmax", type=int, default=12,
                       help="largest order examined by --scree-auto")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--trace-curve", type=int, default=None,
                       help="also export a dense interpolated trace of this curve (1-based)")
    p_fit.add_argument("--trace-points", type=int, default=1000)
    add_selection(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_test = sub.add_parser("test", help="iid-noise test on residuals")
    p_test.add_argument("--input", default=None, help="residual panel CSV")
    p_test.add_argument("--header", action="store_true")
    p_test.add_argument("--from-fit", default=None, help="fit artifact directory")
    p_test.add_argument("--sigma2", type=float, default=None,
                        help="noise-variance override (default: Gasser estimate)")
    p_test.add_argument("--out", default=None, help="optional output directory")
    add_selection(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_scree = sub.add_parser("scree", help="eigenvalue and test-statistic scree curves")
    p_scree.add_argument("--input", required=True)
    p_scree.add_argument("--header", action="store_true")
    p_scree.add_argument("--lmax", type=int, default=12)
    p_scree.add_argument("--out", required=True)
    add_selection(p_scree)
    p_scree.set_defaults(func=_cmd_scree)

    p_diag = sub.add_parser("diagnose", help="residual acf, covariance and periodogram exports")
    p_diag.add_argument("--input", default=None)
    p_diag.add_argument("--header", action="store_true")
    p_diag.add_argument("--from-fit", default=None)
    p_diag.add_argument("--curve", type=int, default=1, help="curve index for the acf (1-based)")
    p_diag.add_argument("--hmax", type=int, default=40)
    p_diag.add_argument("--cols", default=None,
                        help="restrict covariance/correlation to columns A:B (1-based)")
    p_diag.add_argument("--out", required=True)
    add_selection(p_diag)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON spec")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--workers", type=int, default=None,
                       help="replication workers (default 1)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_imp = sub.add_parser("impute", help="fill missing cells by in-row linear interpolation")
    p_imp.add_argument("--input", required=True)
    p_imp.add_argument("--header", action="store_true")
    p_imp.add_argument("--out", required=True)
    p_imp.set_defaults(func=_cmd_impute)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
