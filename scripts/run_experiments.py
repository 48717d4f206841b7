#!/usr/bin/env python3
"""Run every shipped experiment config but one and collect the CSV outputs.

configs/reference_point.cfg is not run: it spells out the reference
operating point key by key for a hand-run ``issacsim cdf``; snr_cdf.cfg
runs the same point with its own seed and trial count.

Produces, under --outdir (default ./results):

    nrmse_vs_pt.csv     estimation error vs pilot-phase transmit SNR
    nrmse_vs_m.csv      estimation error vs antenna count
    snr_cdf.csv         receive-SNR CDFs of both estimators
    snr_vs_m.csv        receive SNR vs antenna count
    snr_vs_pd.csv       receive SNR vs joint transmit SNR
    spectrum_demo.csv   pseudospectra of one realization

Pass --trials to trade accuracy for speed (the shipped configs default to
2000 trials per point, which takes a few minutes in total).
"""

import argparse
import sys
import time
from pathlib import Path

from issacsim.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RUNS = (
    ("sweep", "nrmse_vs_pt"),
    ("sweep", "nrmse_vs_m"),
    ("cdf", "snr_cdf"),
    ("sweep", "snr_vs_m"),
    ("sweep", "snr_vs_pd"),
    ("spectrum", "spectrum_demo"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per point for the sweep/cdf runs")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    for command, name in RUNS:
        argv = [command,
                "--config", str(CONFIG_DIR / f"{name}.cfg"),
                "--out", str(outdir / f"{name}.csv")]
        if args.trials is not None and command != "spectrum":
            argv += ["--trials", str(args.trials)]
        print(f"== {name} ==")
        start = time.perf_counter()
        code = cli_main(argv)
        print(f"   done in {time.perf_counter() - start:.1f}s (exit {code})")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
