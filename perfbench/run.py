#!/usr/bin/env python3
"""fdfactor benchmark: drive the CLI in a closed loop and print its metrics.

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed``
under ``.perfbench_work/`` and removed afterwards.  Set-up is timed in
several fresh processes, then one more fresh process runs the
workload's round of commands for ``--seconds`` and checks every output.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (and,
on the lines before the last, the per-command latencies); ``--trace 1``
reports the per-layer metrics from a run that alternates traced and
untraced rounds.  The last stdout line is one JSON object.  With
``--record FILE`` the result, with its environment, is also appended to
FILE as one JSON line, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: fresh processes whose import + first command give setup_s (median)
SETUP_SAMPLES = 3
#: every worker is stopped once the run has lasted this long
DEADLINE_S = 170
#: bound on the latencies printed beside the gated metrics
REPORTED_BOUND = 0.25


def spawn_worker(plan_path: Path, result_path: Path, seconds: float, trace: int,
                 setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
           "--result", str(result_path), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def end_to_end(spec: dict, setups: list, res: dict) -> dict:
    lat = res["latencies"]
    ops = sum(len(v) for v in lat.values())
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(sum(v) for v in lat.values()),
        "cpu_s_per_op": res["cpu_s"] / ops,
        "peak_rss_mib": res["peak_rss_mib"],
        "success_rate": 1.0 - res["failed"] / res["attempted"],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                           "better": m["better"], "bound": m["bound"]}
               for m in spec["end_to_end"]}
    for name, samples in [("round", res["round_s"]), *sorted(lat.items())]:
        metrics[f"{name}_p50_s"] = {"value": statistics.median(samples), "unit": "s",
                                    "better": "lower", "bound": REPORTED_BOUND,
                                    "samples": len(samples)}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="append the result as one JSON line to this file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fdfactor" / "__init__.py").is_file():
        print(f"error: no fdfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = {"workload": args.workload, "seed": args.seed,
                "round": workloads.prepare(args.workload, args.seed, work)}
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps(plan))
        n_setup = 0 if args.trace else SETUP_SAMPLES - 1
        results = [spawn_worker(plan_path, result_path, 0.0, 0, True, deadline)
                   for _ in range(n_setup)]
        res = spawn_worker(plan_path, result_path, args.seconds, args.trace, False, deadline)
        results.append(res)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    setups = [r["setup_s"] for r in results]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]

    if args.trace:
        metrics = res["layers"]
    elif not res["latencies"]:
        print("error: no command completed: " + "; ".join(errors), file=sys.stderr)
        return 1
    else:
        metrics = end_to_end(spec, setups, res)
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for err in errors:
        print(f"  failed: {err}")
    for name, m in metrics.items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")

    correct = failed == 0
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "correct": correct, "attempted": attempted,
                "failed": failed, "errors": errors, "metrics": metrics,
                "environment": res["environment"],
            }) + "\n")
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]} for m in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
