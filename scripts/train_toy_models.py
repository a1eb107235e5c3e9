#!/usr/bin/env python3
"""Train the toy-lab design's matched-budget toy hybrids (same corpus, steps,
seed and sizes; ``speclab.experiments.TOY_*``), the toys the acceptance
gate judges.

Writes the train and eval corpora, both checkpoints with their manifests,
training logs and training-digest records to --out-dir. A corpus already
there is kept; a toy already there is kept only if its record matches the
digest of two training steps by the current code.
"""

import argparse

from speclab.experiments import build_toys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/toys")
    args = parser.parse_args()
    for name, path in build_toys(args.out_dir).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
