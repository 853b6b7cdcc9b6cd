#!/usr/bin/env python3
"""Order-selection demo: classic vs test-statistic scree on synthetic data.

Draws a smooth 21-component panel with iid N(0,4) noise at p=365, T=200,
saves it as OUT/panel.csv and runs ``fdfactor scree`` on it, which writes
OUT/scree.csv (l, gamma, lambda_inf) and OUT/manifest.json and prints the
plateau suggestion.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from fdfactor import SmoothDgpConfig, add_noise, gen_ar1_noise, gen_spline_signals, save_panel
from fdfactor.cli import main as fdfactor_main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--lmax", type=int, default=25)
    ap.add_argument("--out", default="scree_demo", help="output directory")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    cfg = SmoothDgpConfig(p=365, T=200, sigma=2.0, seed=args.seed)
    signals = gen_spline_signals(cfg, rng)
    observed = add_noise(signals, gen_ar1_noise(365, 200, 0.0, 2.0, rng))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_panel(observed, out / "panel.csv")
    return fdfactor_main(["scree", "--input", str(out / "panel.csv"), "--header",
                          "--lmax", str(args.lmax), "--cutoff", "0.1", "--thin", "3",
                          "--out", str(out)])


if __name__ == "__main__":
    sys.exit(main())
