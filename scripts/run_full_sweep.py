#!/usr/bin/env python3
"""The full desk protocol over the toy-lab design's toys.

Runs the acceptance-rate sweep (three strategies over the design's k,
temperatures and prompts; ``speclab.experiments.TOY_SWEEP``) into
--out-dir: ``report.csv`` (with each cell's modelled speedup at its measured
alpha), ``timings.csv`` and ``cells/``. Then writes each checkpoint's
ablation verdict to ``<checkpoint stem>.ablation.json`` and
``ablation_ledger.csv``. Resumable: finished cells are skipped. Trains the
toys first where --toys-dir lacks them (see scripts/train_toy_models.py).
"""

import argparse
import sys
from pathlib import Path

from speclab.cli import main as cli_main
from speclab.experiments import (TOY_ARCHS, TOY_SWEEP, ExperimentSpec,
                                 build_toys, run_experiments)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--toys-dir", default="runs/toys")
    parser.add_argument("--out-dir", default="runs/sweep")
    args = parser.parse_args()

    toys = build_toys(args.toys_dir)
    out = Path(args.out_dir)
    ckpts = [toys[arch] for arch in TOY_ARCHS]
    result = run_experiments(ExperimentSpec(
        checkpoints=tuple(map(str, ckpts)),
        strategies=("component_only", "layer_skip", "early_exit"),
        prompt_corpus=str(toys["eval"]), out_dir=str(out), **TOY_SWEEP))
    for cell, err in result.errors:
        print(f"error in {cell}: {err}", file=sys.stderr)
    if result.errors:
        raise SystemExit(1)
    for ckpt in ckpts:
        cli_main(["ablate", "--checkpoint", str(ckpt), "--corpus",
                  str(toys["eval"]), "--json",
                  str(out / f"{ckpt.stem}.ablation.json"),
                  "--ledger", str(out / "ablation_ledger.csv")])


if __name__ == "__main__":
    main()
