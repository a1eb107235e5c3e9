#!/usr/bin/env python3
"""Generate a synthetic byte corpus; by default the toy-lab design's training
corpus (``speclab.experiments.TOY_CORPORA["train"]``)."""

import argparse

from speclab.corpus import write_corpus
from speclab.experiments import TOY_CORPORA


def main():
    n_bytes, seed = TOY_CORPORA["train"]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--bytes", type=int, default=n_bytes)
    parser.add_argument("--seed", type=int, default=seed)
    args = parser.parse_args()
    write_corpus(args.out, args.bytes, args.seed)
    print(f"wrote {args.bytes} bytes to {args.out} (seed {args.seed})")


if __name__ == "__main__":
    main()
