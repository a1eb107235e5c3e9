#!/usr/bin/env python3
"""Traced allocation peaks of speclab's loading and scoring entry points, to
tell whether a change makes them hold more or less memory.

Usage, from the repository root (point PYTHONPATH at the checkout to measure):

    PYTHONPATH=src python3 scripts/memory_peaks.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/memory_peaks.py

One line per entry point and toy: the peak of the memory ``tracemalloc``
traced during the call, above what was traced when it began, in MB (NumPy
reports its array buffers to ``tracemalloc``). The entry points are:

* ``load_checkpoint`` and ``experiments._sha256`` of the toy's checkpoint;
* ``forward_prefix``: one 256-row window under the full mask;
* ``forward_masks``: the same window under the full and component_only masks;
* ``divergence_stats``: component_only against the full model on that window;
* ``ablate_and_score``: perplexity with and without attention over two
  windows;
* ``evaluate_loss``: the batched full-mask loss of the same two windows.

The toys are seeded inits of the acceptance configuration (12 layers,
d_model 64, d_state 8), saved to a temporary directory. The eval text is
generated. Peaks count what Python and NumPy allocate, not the process's
resident set, so they are the same from run to run on any machine.
"""

from __future__ import annotations

import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from speclab.ablation import ablate_and_score  # noqa: E402
from speclab.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from speclab.corpus import make_corpus  # noqa: E402
from speclab.engine import DraftStrategy, build_mask  # noqa: E402
from speclab.experiments import _sha256  # noqa: E402
from speclab.metrics import divergence_stats  # noqa: E402
from speclab.model import (  # noqa: E402
    ComponentMask, HybridModel, ModelConfig, init_weights)
from speclab.training import evaluate_loss  # noqa: E402

ARCHS = {"par": "parallel_hybrid", "seq": "sequential_hybrid"}
SEED = 7
WINDOWS = 2


def traced_peak_mb(fn, *args) -> float:
    """Peak traced memory during ``fn(*args)`` above the amount at its start."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn(*args)
    return (tracemalloc.get_traced_memory()[1] - base) / 1e6


def peaks(path: Path, windows: np.ndarray):
    weights = load_checkpoint(path)
    model = HybridModel(weights.cfg, weights)
    full = ComponentMask.full(model.cfg.n_layers)
    draft = build_mask(model.cfg, DraftStrategy("component_only"))
    window = windows[0]
    text = windows.reshape(-1)
    x, y = windows[:, :-1], windows[:, 1:]
    yield "load_checkpoint", traced_peak_mb(load_checkpoint, path)
    yield "_sha256", traced_peak_mb(_sha256, path)
    yield "forward_prefix", traced_peak_mb(model.forward_prefix, window)
    yield "forward_masks", traced_peak_mb(model.forward_masks, window,
                                          [full, draft])
    yield "divergence_stats", traced_peak_mb(divergence_stats, model, draft,
                                             [window.tolist()])
    yield "ablate_and_score", traced_peak_mb(ablate_and_score, model, text)
    yield "evaluate_loss", traced_peak_mb(evaluate_loss, model.cfg, weights,
                                          None, x, y)


def main() -> int:
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        for name, arch in ARCHS.items():
            cfg = ModelConfig(arch, n_layers=12, d_model=64, d_state=8)
            path = Path(tmp) / f"{name}.ckpt"
            save_checkpoint(path, init_weights(cfg, SEED))
            corpus = np.frombuffer(make_corpus(WINDOWS * cfg.context_limit, 777),
                                   np.uint8).astype(np.int64)
            windows = corpus.reshape(WINDOWS, cfg.context_limit)
            print(f"{name}: checkpoint {path.stat().st_size / 1e6:.1f} MB")
            for entry, mb in peaks(path, windows):
                print(f"{entry + '.' + name:24s} {mb:7.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
