#!/usr/bin/env python3
"""Record the mc-paper summaries at the reference seed into ``reference/``.

    PYTHONPATH=src python3 perfbench/record_reference.py

The worker compares each ``simulate`` summary of a run with
``--seed 1`` against these files, within the tolerances the test suite
states.  Re-record only when a change is meant to alter the summaries.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from fdfactor.cli import main as cli_main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import REFERENCE_DIR, REFERENCE_SEED  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        REFERENCE_DIR.mkdir(exist_ok=True)
        for cmd in workloads.prepare("mc-paper", REFERENCE_SEED, Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(cmd["argv"])
            if code != 0:
                sys.exit(f"{' '.join(cmd['argv'])} exited with code {code}")
            shutil.copy(Path(cmd["out"]) / "summary.csv", REFERENCE_DIR / f"{cmd['name']}.csv")
            print(f"recorded {cmd['name']}")


if __name__ == "__main__":
    main()
