"""Spans around fdfactor's public functions, recorded from outside ``src/``.

``Tracer.install`` replaces each public function of the traced modules
with a wrapper in every fdfactor module namespace that holds it, so the
calls one module makes into another (``from .panel import load_panel``
in ``cli``) are recorded too; ``uninstall`` puts the originals back.
Spans are kept in memory as ``(name, start, end, parent, op, attrs)``
and written out once, when the run ends.  Per-layer metrics are derived
from the spans afterwards, never while timing.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("panel", "factor", "spectral", "diagnostics", "order", "simulate", "curves", "cli")
#: parser construction belongs to the cost of ``cli.main``, as argparse does
NOT_WRAPPED = {"cli.build_parser"}


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _tree_size(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _shape(x):
    return np.shape(getattr(x, "values", x))


# Attributes recorded per call, for the computed counts.  ``pre`` runs
# before the start timestamp and ``post`` after the end timestamp, so
# neither is inside the span.
def _pre_load(args, kwargs):
    return {"bytes": _path_size(args[0] if args else kwargs.get("source"))}


def _post_save_panel(args, kwargs, attrs):
    attrs["bytes"] = _path_size(args[1] if len(args) > 1 else kwargs.get("dest"))


def _post_save_fit(args, kwargs, attrs):
    attrs["bytes"] = _tree_size(args[1] if len(args) > 1 else kwargs["out_dir"])


def _pre_panel_shape(args, kwargs):
    return {"Tp": list(_shape(args[0]))}


def _pre_eigh(args, kwargs):
    return {"n": int(np.shape(args[0])[0])}


def _pre_periodogram(args, kwargs):
    T, p = _shape(args[0])
    return {"dft_terms": int(T) * int(p) * int(args[1].f)}


def _pre_scree(args, kwargs):
    return {"Tp": list(_shape(args[0])), "l_max": int(args[1])}


def _pre_bspline(args, kwargs):
    pts = np.ascontiguousarray(np.atleast_1d(np.asarray(args[1], dtype=float)))
    return {"key": f"{int(args[0])}:{hashlib.sha1(pts.tobytes()).hexdigest()}"}


PRE = {
    "panel.load_panel": _pre_load,
    "panel.read_table_with_missing": _pre_load,
    "factor.fit": _pre_panel_shape,
    "spectral.empirical_eigensystem": _pre_panel_shape,
    "spectral.eigh_descending": _pre_eigh,
    "diagnostics.averaged_periodogram": _pre_periodogram,
    "order.lambda_scree": _pre_scree,
    "simulate.bspline_basis": _pre_bspline,
}
POST = {
    "panel.save_panel": _post_save_panel,
    "factor.save_fit": _post_save_fit,
}


class Tracer:
    """Records one span per call of a wrapped public function."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []  # built on the first install
        self.op = -1

    def _wrap(self, qualname, func):
        pre, post = PRE.get(qualname), POST.get(qualname)
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            attrs = pre(args, kwargs) if pre else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if post:
                    attrs = attrs or {}
                    post(args, kwargs, attrs)
                spans[index] = (qualname, start, end, parent, self.op, attrs)

        return wrapper

    def _targets(self):
        """(module, attribute, original, wrapper) for every namespace holding a traced function."""
        import fdfactor

        modules = {name: importlib.import_module(f"fdfactor.{name}") for name in MODULES}
        wrappers = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                qualname = f"{name}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qualname in NOT_WRAPPED):
                    continue
                wrappers[obj] = self._wrap(qualname, obj)
        return [(mod, attr, obj, wrappers[obj])
                for mod in [fdfactor, *modules.values()]
                for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj in wrappers]

    def install(self):
        if not self._patches:
            self._patches = self._targets()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Per span: duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children.get(i, ()))
            for i, (name, start, end, parent, op, attrs) in enumerate(spans)]


# name -> (unit, better); "computed" units are derived from array shapes
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "panel.load_panel.self_ms": ("ms", "lower"),
    "panel.load_panel.calls": ("count", "lower"),
    "panel.load_panel.mb_per_s": ("MB/s", "higher"),
    "panel.read_table_with_missing.self_ms": ("ms", "lower"),
    "panel.impute_missing.self_ms": ("ms", "lower"),
    "panel.save_panel.self_ms": ("ms", "lower"),
    "panel.save_panel.mb_per_s": ("MB/s", "higher"),
    "factor.fit.self_ms": ("ms", "lower"),
    "factor.fit.calls": ("count", "lower"),
    "factor.save_fit.self_ms": ("ms", "lower"),
    "factor.save_fit.mb_per_s": ("MB/s", "higher"),
    "spectral.eigh_descending.self_ms": ("ms", "lower"),
    "spectral.eigh_descending.calls": ("count", "lower"),
    "spectral.eigh_descending.n3": ("count.computed", "lower"),
    "spectral.smaller_side_share": ("ratio.computed", "higher"),
    "spectral.empirical_eigensystem.self_ms": ("ms", "lower"),
    "diagnostics.averaged_periodogram.self_ms": ("ms", "lower"),
    "diagnostics.averaged_periodogram.calls": ("count", "lower"),
    "diagnostics.averaged_periodogram.dft_terms": ("count.computed", "lower"),
    "diagnostics.gasser_variance.self_ms": ("ms", "lower"),
    "diagnostics.iid_noise_test.self_ms": ("ms", "lower"),
    "diagnostics.iid_noise_test.calls": ("count", "lower"),
    "diagnostics.residual_covariance.self_ms": ("ms", "lower"),
    "order.lambda_scree.self_ms": ("ms", "lower"),
    "order.lambda_scree.calls": ("count", "lower"),
    "order.noise_tests_per_order": ("ratio", "lower"),
    "simulate.run_monte_carlo.self_ms": ("ms", "lower"),
    "simulate.gen_ar1_noise.self_ms": ("ms", "lower"),
    "simulate.gen_ar1_noise.calls": ("count", "lower"),
    "simulate.gen_rough_signals.self_ms": ("ms", "lower"),
    "simulate.gen_spline_signals.self_ms": ("ms", "lower"),
    "simulate.bspline_basis.self_ms": ("ms", "lower"),
    "simulate.bspline_basis.calls": ("count", "lower"),
    "simulate.bspline_basis.distinct_share": ("ratio", "higher"),
    "simulate.bspline_ls_fit.self_ms": ("ms", "lower"),
    "simulate.failed_replications": ("count", "lower"),
    "curves.dense_trace.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, ops: int, bytes_out: int, failed_replications: int,
                  overhead_pct: float) -> dict:
    """Every metric of ``LAYER_METRICS``; a layer a workload never calls reads 0."""
    selfs = self_times(spans)
    self_s, calls = defaultdict(float), defaultdict(int)
    for (name, *_), st in zip(spans, selfs):
        self_s[name] += st
        calls[name] += 1

    def attr_sum(name, key):
        return sum(a[key] for n, *_, a in spans if n == name and a)

    def mb_per_s(name):
        return _share(attr_sum(name, "bytes") / 1e6, self_s[name])

    n3 = small3 = 0
    for name, start, end, parent, op, attrs in spans:
        if name == "spectral.eigh_descending":
            n3 += attrs["n"] ** 3
            owner = spans[parent][5] if parent >= 0 else None
            small = min(owner["Tp"]) if owner and "Tp" in owner else attrs["n"]
            small3 += small**3
    in_scree = 0
    for span in spans:
        if span[0] != "diagnostics.iid_noise_test":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "order.lambda_scree":
            parent = spans[parent][3]
        in_scree += parent >= 0
    keys = [a["key"] for n, *_, a in spans if n == "simulate.bspline_basis"]

    values = {
        "cli.bytes_out": _share(bytes_out, ops),
        "panel.load_panel.mb_per_s": mb_per_s("panel.load_panel"),
        "panel.save_panel.mb_per_s": mb_per_s("panel.save_panel"),
        "factor.save_fit.mb_per_s": mb_per_s("factor.save_fit"),
        "spectral.eigh_descending.n3": _share(n3, ops),
        "spectral.smaller_side_share": _share(small3, n3),
        "diagnostics.averaged_periodogram.dft_terms":
            _share(attr_sum("diagnostics.averaged_periodogram", "dft_terms"), ops),
        "order.noise_tests_per_order": _share(in_scree, attr_sum("order.lambda_scree", "l_max")),
        "simulate.bspline_basis.distinct_share": _share(len(set(keys)), len(keys)),
        "simulate.failed_replications": _share(failed_replications, ops),
        "trace.overhead_pct": overhead_pct,
    }
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        name, kind = metric.rsplit(".", 1)
        values[metric] = (_share(1e3 * self_s[name], ops) if kind == "self_ms"
                          else _share(calls[name], ops))
    return {m: {"value": values[m], "unit": LAYER_METRICS[m][0]} for m in LAYER_METRICS}
