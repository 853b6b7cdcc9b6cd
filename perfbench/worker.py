"""One fresh benchmark process: import fdfactor, warm up, then run the loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It drives ``fdfactor.cli.main`` in-process from one
single-threaded closed-loop client: each command starts only after the
previous one has returned and its outputs have been checked.  The
checks sit outside the timed region.  Results go to the ``--result``
file as JSON; stdout carries nothing.
"""

import time

_T0 = time.perf_counter()

import fdfactor  # noqa: E402  (setup_s counts this import)
import fdfactor.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
#: ``--seed`` whose Monte Carlo summaries are compared with ``reference/``
REFERENCE_SEED = 1

TEST_KEYS = {"sigma2_hat", "f", "lambda_fin", "p_fin", "lambda_inf", "p_inf"}
# Tolerances the test suite states for summary.csv columns
# (tests/test_acceptance.py criteria 1 and 2, tests/test_order.py).
ANCHOR_SSE_TOL = {(20, 50, 0.01): 0.002, (50, 200, 0.05): 0.002,
                  (20, 400, 0.1): 0.005, (70, 400, 0.01): 0.001}
REJECTION_TOL = 0.02
REL_TOL = 1e-8


# bound before any tracing, so the checks never show up as spans
FIT, ObservationPanel, SampleGrid = fdfactor.fit, fdfactor.ObservationPanel, fdfactor.SampleGrid


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def cpu_seconds() -> float:
    """User plus system CPU time of this process, BLAS threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_command(main, argv):
    """Run one CLI command; returns (exit code, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
    return code, out.getvalue(), seconds, cpu


def output_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def load_csv(path, skip_header):
    return np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0, ndmin=2)


class Checker:
    """Verifies each command's outputs; expected arrays are built once per input."""

    def __init__(self, seed):
        self.seed = seed
        self._residuals = {}
        self._summaries = {}

    def expected_residuals(self, expect):
        key = expect["values_npy"]
        if key not in self._residuals:
            values = np.load(key)
            panel = ObservationPanel(values, SampleGrid.midpoints(values.shape[1]))
            self._residuals[key] = FIT(panel, expect["L"]).residuals
        return self._residuals[key]

    def manifest(self, out):
        found = list(Path(out).rglob("manifest.json"))
        require(found == [Path(out) / "manifest.json"], f"{out}: manifests {found}")

    def check(self, cmd, code, stdout):
        name, out, expect = cmd["name"], cmd["out"], cmd["check"]
        require(code == 0, f"{name} exit code {code}")
        if name == "impute":
            require(stdout == "", f"impute stdout {stdout!r}")
            filled = load_csv(out, skip_header=False)
            values, missing = np.load(expect["values_npy"]), np.load(expect["missing_npy"])
            require(filled.shape == values.shape, f"impute shape {filled.shape}")
            require(np.all(np.isfinite(filled)), "impute left missing cells")
            require(np.array_equal(filled[~missing], values[~missing]),
                    "impute changed observed cells")
            return
        self.manifest(out)
        if name == "fit":
            got = json.loads(stdout)
            require(set(got) == {"L", "T", "p", "out"}, f"fit stdout keys {sorted(got)}")
            require((got["L"], got["T"], got["p"]) == (expect["L"], expect["T"], expect["p"]),
                    f"fit stdout {got}")
            residuals = load_csv(Path(out) / "residuals.csv", skip_header=True)
            require(np.array_equal(residuals, self.expected_residuals(expect)),
                    "residuals.csv differs from an in-process fdfactor.fit")
        elif name == "test":
            got = json.loads(stdout)
            require(set(got) == TEST_KEYS, f"test stdout keys {sorted(got)}")
            require(json.loads((Path(out) / "report.json").read_text()) == got,
                    "report.json differs from stdout")
        elif name == "scree":
            got = json.loads(stdout)
            require(got == {"suggested_L": expect["L"], "plateau_found": True},
                    f"scree stdout {got}")
        elif name == "diagnose":
            require(stdout == "", f"diagnose stdout {stdout!r}")
            cov = load_csv(Path(out) / "covariance.csv", skip_header=False)
            require(cov.shape == (60, 60), f"covariance shape {cov.shape}")
            for f in ("acf.csv", "correlation.csv", "xi.csv"):
                require((Path(out) / f).is_file(), f"diagnose wrote no {f}")
        else:
            self.check_simulate(cmd, stdout)

    def check_simulate(self, cmd, stdout):
        expect = cmd["check"]
        require(stdout == f"seed: {expect['seed']}\n", f"simulate stdout {stdout!r}")
        text = (Path(cmd["out"]) / "summary.csv").read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        require(rows and all(r["failures"] == "0" for r in rows),
                f"{expect['spec']}: failed replications")
        first = self._summaries.setdefault(expect["spec"], text)
        require(text == first, f"{expect['spec']}: summary differs between identical runs")
        if self.seed == REFERENCE_SEED:
            ref = REFERENCE_DIR / f"{expect['spec']}.csv"
            compare_summary(rows, list(csv.DictReader(io.StringIO(ref.read_text()))))


def compare_summary(rows, ref_rows):
    require(len(rows) == len(ref_rows), "summary row count differs from reference")
    for row, ref in zip(rows, ref_rows):
        require(row.keys() == ref.keys(), "summary columns differ from reference")
        anchor = (int(row["p"]), int(row["T"]), float(row["sigma2"]))
        for col, want in ref.items():
            got = row[col]
            if got == want:
                continue
            try:
                g, w = float(got), float(want)
            except ValueError:
                raise CheckFailed(f"summary {col}: {got!r} vs reference {want!r}") from None
            if col.startswith("rej_"):
                tol = REJECTION_TOL
            elif col == "sse_median" and row["method"] == "pca" and anchor in ANCHOR_SSE_TOL:
                tol = ANCHOR_SSE_TOL[anchor]
            else:
                tol = REL_TOL * abs(w)
            require(abs(g - w) <= tol, f"summary {col}: {g!r} vs reference {w!r}")


def environment() -> dict:
    def getconf(name):
        try:
            return int(subprocess.run(["getconf", name], capture_output=True, text=True,
                                      check=True).stdout.strip())
        except (OSError, ValueError, subprocess.CalledProcessError):
            return None

    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    toplevel = git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel.strip()).resolve() == ROOT
    status = git("status", "--porcelain") if in_repo else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": numpy_blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "FDFACTOR_WORKERS")},
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": git("rev-parse", "HEAD").strip() if in_repo else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }


def numpy_blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if not Path(fdfactor.__file__).resolve().is_relative_to(src):
        sys.exit(f"fdfactor imported from {fdfactor.__file__}, not from {src}")

    plan = json.loads(Path(args.plan).read_text())
    round_cmds = plan["round"]
    checker = Checker(plan["seed"])
    tracer = tracing.Tracer() if args.trace else None
    counts = {"attempted": 0, "failed": 0}
    errors = []

    def attempt(cmd, traced=False):
        """Run and check one command; (wall s, CPU s), or None if it failed."""
        counts["attempted"] += 1
        shutil.rmtree(cmd["out"], ignore_errors=True)
        try:
            if traced:
                tracer.install()
            try:
                code, stdout, seconds, cpu = run_command(fdfactor.cli.main, cmd["argv"])
            finally:
                if traced:
                    tracer.uninstall()
            checker.check(cmd, code, stdout)
            return seconds, cpu
        except Exception as exc:  # a failed command is counted, never fatal
            counts["failed"] += 1
            errors.append(f"{cmd['name']}: {type(exc).__name__}: {exc}")
            return None

    warm = attempt(round_cmds[0])
    result = {"setup_s": _IMPORT_S + (warm[0] if warm else 0.0)}

    if not args.setup_only:
        latencies = {}
        round_times = {False: [], True: []}
        cpu_s = 0.0
        ops = bytes_out = failed_reps = 0
        start = time.perf_counter()
        r = 0
        while True:
            # in a traced run, odd rounds are traced and even rounds are not,
            # so the two share conditions and give the tracing overhead
            traced = tracer is not None and r % 2 == 1
            round_s = 0.0
            for cmd in round_cmds:
                if traced:
                    tracer.op = ops
                timing = attempt(cmd, traced)
                if timing is None:
                    continue
                seconds, cpu = timing
                round_s += seconds
                if traced:
                    ops += 1
                    bytes_out += output_bytes(cmd["out"])
                    if cmd["argv"][0] == "simulate":
                        text = (Path(cmd["out"]) / "summary.csv").read_text()
                        failed_reps += sum(int(row["failures"]) for row in
                                           csv.DictReader(io.StringIO(text)))
                else:
                    latencies.setdefault(cmd["name"], []).append(seconds)
                    cpu_s += cpu
            round_times[traced].append(round_s)
            r += 1
            if time.perf_counter() - start >= args.seconds and r >= (2 if tracer else 1):
                break

        result.update({
            "latencies": latencies,
            "round_s": round_times[False],
            "cpu_s": cpu_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        })
        if tracer is not None:
            overhead = float(np.median(round_times[True]) / np.median(round_times[False]) - 1.0)
            result["layers"] = tracing.layer_metrics(
                tracer.spans, ops, bytes_out, failed_reps, 100.0 * overhead)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{plan['workload']}-{plan['seed']}.jsonl")

    result.update({**counts, "errors": errors[:20]})
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
