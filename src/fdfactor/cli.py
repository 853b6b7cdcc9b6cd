"""Command-line surface: fit, test, scree, diagnose, simulate, impute.

Every command that writes files targets an output directory containing
exactly one ``manifest.json`` recording the command, input hashes,
parameters, seed (when randomized), software version and timestamp.
A command computes and returns its files, its manifest and its stdout
text; :func:`main` alone creates the directory, writes the files, then
the manifest, then prints.  So a command that fails before that point
leaves no output and prints no result.  ``simulate`` prints its ``seed:``
line once the whole spec and ``--workers >= 1`` are checked, before any
replication runs; its manifest's ``failures_by_cause`` counts each
cell's failed replications by exception class.  Every command runs on one
BLAS thread where numpy's OpenBLAS allows (manifest ``blas_threads`` 1, else
null); library calls keep the BLAS's count, so a command's bytes at T > p
may differ in the last bits from a library ``fit`` on more threads.
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
    _covariance_to_correlation,
    _selection,
    averaged_periodogram,
    iid_noise_test,
    residual_acf,
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
from .factor import _fit_files, fit, load_fit_residuals
from .order import _scree_spectrum, plateau_fit, suggest_plateau_L
from .panel import (
    SampleGrid,
    _require_finite,
    _write_files,
    impute_missing,
    load_panel,
    read_table_with_missing,
)
from .simulate import (
    RNG_ALGORITHM,
    SUMMARY_COLUMNS,
    SimSetting,
    SimulationSpec,
    _one_blas_thread,
    run_monte_carlo,
    summary_rows,
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


def _manifest(command: str, params: dict, inputs: dict, blas_threads) -> dict:
    return {
        "command": command,
        "blas_threads": blas_threads,
        "parameters": params,
        "input_sha256": {name: _sha256(p) for name, p in inputs.items()},
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "schema": 1,
    }


def _load_residuals(args):
    """Residual panel of ``--from-fit`` or ``--input``, and the file it came from."""
    if args.from_fit is not None:
        return load_fit_residuals(args.from_fit), Path(args.from_fit) / "residuals.csv"
    if args.input is None:
        raise PanelFormatError("provide --input or --from-fit")
    return load_panel(args.input, header=args.header), Path(args.input)


def _xi_table(sel, xi):
    return zip(sel.indices.tolist(), sel.thetas.tolist(), xi.tolist()), ["index", "theta", "xi"]


# ---------------------------------------------------------------------------
# subcommands: each returns its files under --out (name -> (rows, header) or
# a JSON object), its manifest (parameters, inputs) or None, and its stdout

def _cmd_fit(args):
    if sum([args.L is not None, args.scree_auto, args.mean_only]) != 1:
        raise OrderError("choose exactly one of --L, --scree-auto, --mean-only")
    if args.mean_only and args.trace_curve is not None:
        raise OrderError("--trace-curve needs --L or --scree-auto; --mean-only fits no factors")
    panel = load_panel(args.input, header=args.header)
    params = {"input": str(args.input), "header": args.header}

    if args.mean_only:
        with np.errstate(over="ignore", invalid="ignore"):
            mu = panel.values.mean(axis=0)
            resid = panel.values - mu
        _require_finite(mu, "mean curve", "the panel is")
        _require_finite(resid, "residual panel of the mean-only fit", "the panel is")
        files = {"signals.csv": ([mu] * panel.T, panel.grid.points),
                 "residuals.csv": (resid, panel.grid.points),
                 "muhat.csv": ([mu], panel.grid.points)}
        params["mode"] = "mean-only"
        return files, (params, {"input": args.input}), None

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
    files = _fit_files(result)
    if args.trace_curve is not None:
        trace = dense_trace(interpolate(result, args.trace_curve), args.trace_points)
        files["trace.csv"] = (trace, ["s", "value"])
    stdout = json.dumps({"L": int(L), "T": result.T, "p": result.p, "out": str(Path(args.out))})
    return files, (params, {"input": args.input}), stdout


def _cmd_test(args):
    if args.sigma2 is not None and not 0.0 < args.sigma2 < np.inf:
        raise DomainError(f"--sigma2 must be a positive finite number, got {args.sigma2}")
    residuals, input_path = _load_residuals(args)

    sel = _selection(residuals.p, residuals.T, args.cutoff, args.thin)
    report = iid_noise_test(residuals, sel, sigma2=args.sigma2)
    payload = report.to_dict()
    stdout = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is None:
        return {}, None, stdout
    files = {"report.json": payload, "xi.csv": _xi_table(sel, report.xi)}
    params = {"cutoff": args.cutoff, "thin": args.thin, "sigma2": args.sigma2, "f": report.f}
    return files, (params, {"input": input_path}), stdout


def _cmd_scree(args):
    panel = load_panel(args.input, header=args.header)
    sel = _selection(panel.p, panel.T, args.cutoff, args.thin)
    l_max = min(args.lmax, min(panel.T - 1, panel.p))
    spectrum = _centered_eigh(panel.values)
    lam = _scree_spectrum(spectrum, l_max, sel)
    gamma = spectrum.gram_eigenvalues[:l_max]
    suggestion = suggest_plateau_L(lam) if l_max >= 4 else None

    files = {"scree.csv": (zip(lam.orders.tolist(), gamma.tolist(), lam.values.tolist()),
                           ["l", "gamma", "lambda_inf"])}
    params = {"lmax": l_max, "cutoff": args.cutoff, "thin": args.thin}
    stdout = None
    if suggestion is not None:
        found = {"suggested_L": suggestion.L, "plateau_found": suggestion.plateau_found}
        params.update(found)
        stdout = json.dumps(found)
    return files, (params, {"input": args.input}), stdout


def _parse_window(expr, p):
    try:
        lo, hi = expr.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise PanelFormatError(f"window must look like A:B, got {expr!r}") from None
    if not 1 <= lo <= hi <= p:
        raise DimensionError(f"window {expr} out of range 1:{p}")
    return lo - 1, hi


def _cmd_diagnose(args):
    residuals, input_path = _load_residuals(args)

    if not 1 <= args.curve <= residuals.T:
        raise DimensionError(f"curve index {args.curve} out of range 1..{residuals.T}")
    h_max = min(args.hmax, residuals.p - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        acvf, acf = residual_acf(residuals.values[args.curve - 1], h_max)
        cov = residual_covariance(residuals)
        corr, _ = _covariance_to_correlation(cov)
        if args.cols is not None:
            lo, hi = _parse_window(args.cols, residuals.p)
            cov = cov[lo:hi, lo:hi]
            corr = corr[lo:hi, lo:hi]
        sel = _selection(residuals.p, residuals.T, args.cutoff, args.thin)
        xi = averaged_periodogram(residuals, sel)
    # NaN correlations of zero-variance columns are documented output, not a fault
    for name, values in (("autocovariance", acvf), ("covariance", cov), ("periodogram xi", xi)):
        _require_finite(values, f"residual {name}", "the residuals are")

    acf_col = acf.tolist() if acf is not None else [None] * (h_max + 1)
    files = {"acf.csv": (zip(range(h_max + 1), acvf.tolist(), acf_col), ["lag", "acvf", "acf"]),
             "covariance.csv": (cov, None),
             "correlation.csv": (corr, None),
             "xi.csv": _xi_table(sel, xi)}
    params = {"curve": args.curve, "hmax": h_max, "cols": args.cols,
              "cutoff": args.cutoff, "thin": args.thin}
    return files, (params, {"input": input_path}), None


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


def _cmd_simulate(args):
    if args.workers is not None and args.workers < 1:
        raise DomainError(f"--workers must be >= 1, got {args.workers}")
    raw, fields = _read_spec(args.spec)
    if fields.get("seed") is None:
        fields["seed"] = secrets.randbits(63)
    spec = SimulationSpec(**fields)
    print(f"seed: {spec.seed}", flush=True)  # before any replication, so a study can be rerun
    summary = run_monte_carlo(spec, workers=args.workers)
    failed = [{"p": r.p, "T": r.T, "sigma2": r.sigma2, "theta_ar": r.theta_ar, "method": r.method,
               "causes": r.failure_causes} for r in summary.results if r.failures]
    params = {"spec": raw, "seed": spec.seed, "workers": args.workers, "failures_by_cause": failed,
              "blas_threads_per_worker": summary.blas_threads_per_worker}
    return ({"summary.csv": (summary_rows(summary), SUMMARY_COLUMNS)},
            (params, {"spec_file": args.spec}), None)


def _cmd_impute(args):
    values, grid_points = read_table_with_missing(args.input, header=args.header)
    grid = SampleGrid(grid_points) if grid_points is not None else SampleGrid.midpoints(values.shape[1])
    return {args.out: (impute_missing(values, grid), grid_points)}, None, None


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
                       help="replication threads, each on one BLAS thread, at least 1 (default 1)")
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
        with _one_blas_thread() as blas_threads:  # small matrices: a second thread would spin
            files, manifest, stdout = args.func(args)
        if manifest is not None:  # else --out names impute's one file, or is not given
            files["manifest.json"] = _manifest(args.command, *manifest, blas_threads)
            Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_files(files, "" if manifest is None else args.out)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if stdout is not None:
        print(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
