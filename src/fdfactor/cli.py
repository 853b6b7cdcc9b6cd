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
cell's failed replications by exception class.  Each command holds one BLAS
thread, as ``spectral._one_blas_thread`` states.  Options are checked
before any input is read: a given option that the chosen mode does not
read, or a second mode flag, exits 2 naming it.  Exit codes: 0 success, 2
usage/input problems, 3 numerical failures, by the bases ``errors`` states.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .curves import dense_trace, interpolate
from .diagnostics import (
    _correlation_rows,
    _selection,
    averaged_periodogram,
    iid_noise_test,
    residual_acf,
    residual_covariance,
)
from .errors import DimensionError, DomainError, InputError, NumericalError, PanelFormatError
from .factor import _fit_files, _max_order, fit, load_fit_residuals
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
    _check_count,
    run_monte_carlo,
    summary_rows,
)
from .spectral import _centered_eigh, _one_blas_thread


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
    return load_panel(args.input, header=args.header), Path(args.input)


def _xi_table(sel, xi):
    return zip(sel.indices.tolist(), sel.thetas.tolist(), xi.tolist()), ["index", "theta", "xi"]


# ---------------------------------------------------------------------------
# subcommands: each returns its files under --out (name -> (rows, header) or
# a JSON object), its manifest (parameters, inputs) or None, and its stdout

def _cmd_fit(args):
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
        l_max = min(args.lmax, _max_order(panel.T, panel.p))
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
    l_max = min(args.lmax, _max_order(panel.T, panel.p))
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
    return slice(lo - 1, hi)


def _cmd_diagnose(args):
    residuals, input_path = _load_residuals(args)

    if not 1 <= args.curve <= residuals.T:
        raise DimensionError(f"curve index {args.curve} out of range 1..{residuals.T}")
    h_max = min(args.hmax, residuals.p - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        acvf, acf = residual_acf(residuals.values[args.curve - 1], h_max)
        window = slice(None) if args.cols is None else _parse_window(args.cols, residuals.p)
        cov = residual_covariance(residuals)[window, window]
        sel = _selection(residuals.p, residuals.T, args.cutoff, args.thin)
        xi = averaged_periodogram(residuals, sel)
    # NaN correlations of zero-variance columns are documented output, not a fault
    for name, values in (("autocovariance", acvf), ("covariance", cov), ("periodogram xi", xi)):
        _require_finite(values, f"residual {name}", "the residuals are")

    acf_col = acf.tolist() if acf is not None else [None] * (h_max + 1)
    files = {"acf.csv": (zip(range(h_max + 1), acvf.tolist(), acf_col), ["lag", "acvf", "acf"]),
             "covariance.csv": (cov, None),
             "correlation.csv": (_correlation_rows(cov), None),  # formed as written, of the window only
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
    settings = fields["settings"] = list(fields["settings"])  # a copy: the manifest records the spec as read
    for i, s in enumerate(settings):
        where = f"{path}: settings[{i}]"
        kwargs = _spec_fields(s, _SETTING_TYPES, ("p", "T", "sigma2"), where)  # its faults already name where
        try:
            settings[i] = SimSetting(**kwargs)
        except InputError as exc:
            raise type(exc)(f"{where}: {exc}") from None
    if not all(isinstance(m, str) for m in fields.get("methods", ())):
        raise PanelFormatError(f"{path}: key 'methods' must be a list of strings")
    if "l" in fields:
        fields["l_fixed"] = fields.pop("l")
    fields.setdefault("kind", "sse")
    return raw, fields


def _cmd_simulate(args):
    _check_count("--workers", args.workers, 1, optional=True)
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
# parser: every option once, then which options each command (and mode) reads

#: option -> (type, bool for a flag; documented default; help)
_OPTIONS = {
    "--input": (str, None, "panel CSV"),
    "--header": (bool, False, "first input row holds the grid points"),
    "--from-fit": (str, None, "fit output directory whose residuals are read"),
    "--out": (str, None, "output directory (impute: output CSV)"),
    "--L": (int, None, "number of factors"),
    "--scree-auto": (bool, False, "choose L by the test-statistic plateau rule"),
    "--mean-only": (bool, False, "fit only the mean curve (no factors)"),
    "--lmax": (int, 12, "largest order examined"),
    "--trace-curve": (int, None, "also export a dense interpolated trace of this curve (1-based)"),
    "--trace-points": (int, 1000, "points of the dense trace"),
    "--cutoff": (float, 0.1, "low-frequency cutoff fraction"),
    "--thin": (int, None, "frequency thinning m (default: smallest m with f/T <= 0.3)"),
    "--sigma2": (float, None, "noise-variance override (default: Gasser estimate)"),
    "--curve": (int, 1, "curve index for the acf (1-based)"),
    "--hmax": (int, 40, "largest acf lag"),
    "--cols": (str, None, "restrict covariance/correlation to columns A:B (1-based)"),
    "--spec": (str, None, "JSON study spec"),
    "--workers": (int, None, "replication threads, the calling one included, at least 1 (default 1)"),
}
#: command -> (help; the options it always reads, "!" marking a required one;
#: mode flag -> the options that mode reads besides, where exactly one is given)
_COMMANDS = {
    "fit": ("fit a factor model and write artifacts", "--input! --header --out!",
            {"--L": "--trace-curve --trace-points",
             "--scree-auto": "--lmax --cutoff --thin --trace-curve --trace-points",
             "--mean-only": ""}),
    "test": ("iid-noise test on residuals", "--sigma2 --cutoff --thin --out",
             {"--input": "--header", "--from-fit": ""}),
    "scree": ("eigenvalue and test-statistic scree curves",
              "--input! --header --lmax --cutoff --thin --out!", {}),
    "diagnose": ("residual acf, covariance and periodogram exports",
                 "--curve --hmax --cols --cutoff --thin --out!",
                 {"--input": "--header", "--from-fit": ""}),
    "simulate": ("run a Monte Carlo study from a JSON spec", "--spec! --out! --workers", {}),
    "impute": ("fill missing cells by in-row linear interpolation", "--input! --header --out!", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdfactor",
        description="Factor-model denoising and diagnostics for discretized curve panels.",
    )
    parser.add_argument("--version", action="version", version=f"fdfactor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, reads, modes) in _COMMANDS.items():
        # the namespace holds only the options given, so _check_options sees which they are
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for marked in dict.fromkeys(" ".join([reads, *modes, *modes.values()]).split()):
            option = marked.rstrip("!")
            kind, default, help_ = _OPTIONS[option]
            parse_as = {"action": "store_true"} if kind is bool else {"type": kind}
            shown = "" if default is None or kind is bool else f" (default {default})"
            p.add_argument(option, required=marked != option, help=help_ + shown, **parse_as)
    return parser


def _check_options(args) -> None:
    """Reject each given option that the chosen mode does not read, then fill in the defaults."""
    _, reads, modes = _COMMANDS[args.command]
    given = [f"--{dest.replace('_', '-')}" for dest in vars(args) if dest != "command"]
    chosen = [option for option in given if option in modes]
    if modes and len(chosen) != 1:
        raise argparse.ArgumentError(None, f"choose exactly one of {', '.join(modes)}")
    for mode in chosen:
        reads += f" {mode} {modes[mode]}"
    for option in given:
        if option not in reads.replace("!", "").split():
            raise argparse.ArgumentError(None, f"{option} has no effect with {chosen[0]}")
    if "--trace-points" in given and "--trace-curve" not in given:
        raise argparse.ArgumentError(None, "--trace-points has no effect without --trace-curve")
    for option, (_, default, _) in _OPTIONS.items():
        vars(args).setdefault(option[2:].replace("-", "_"), default)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)  # before any input is read
        with _one_blas_thread() as blas_threads:  # small matrices: a second thread would spin
            files, manifest, stdout = globals()[f"_cmd_{args.command}"](args)
        if manifest is not None:  # else --out names impute's one file, or is not given
            files["manifest.json"] = _manifest(args.command, *manifest, blas_threads)
            Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_files(files, "" if manifest is None else args.out)
        if stdout is not None:
            print(stdout, flush=True)  # a closed stdout raises here, after the files are written
    except (InputError, OSError, argparse.ArgumentError) as exc:  # the last: an option the mode does not read
        if isinstance(exc, BrokenPipeError):  # stdout's reader went away: keep the exit flush silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
