#!/usr/bin/env python3
"""Traced allocation peaks of speclab's loading, scoring and training entry
points, to tell whether a change makes them hold more or less memory.

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
* ``evaluate_loss``: the batched full-mask loss of the same two windows;
* ``train_step``: one float32 ``forward_train``, ``cross_entropy`` and
  ``backward_train`` over 8 windows of 96 bytes (the optimizer aside), and
  ``tape``: what that step's forward leaves alive besides its logits;
* ``ssm_block`` (parallel toy only): the first recurrent layer over float64
  rows at (B, T) = (1, 256) and (2, 255), with the peak's multiple of the
  (B, T, d_model, d_state) history the call returns.

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
    ComponentMask, HybridModel, ModelConfig, init_weights, layer_plan,
    ssm_block)
from speclab.training import (  # noqa: E402
    backward_train, cross_entropy, evaluate_loss, forward_train)

ARCHS = {"par": "parallel_hybrid", "seq": "sequential_hybrid"}
SEED = 7
WINDOWS = 2
TRAIN_BATCH, TRAIN_LEN = 8, 96
SCAN_SHAPES = ((1, 256), (2, 255))


def traced_peak_mb(fn, *args) -> float:
    """Peak traced memory during ``fn(*args)`` above the amount at its start."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn(*args)
    return (tracemalloc.get_traced_memory()[1] - base) / 1e6


def train_step(cfg, w, x, y):
    logits, tape = forward_train(cfg, w, None, x)
    _, dlogits = cross_entropy(logits, y)
    return backward_train(cfg, w, tape, dlogits)


def tape_mb(cfg, w, x) -> float:
    """Traced memory a taped forward leaves alive, its logits aside."""
    base = tracemalloc.get_traced_memory()[0]
    logits, tape = forward_train(cfg, w, None, x)
    return (tracemalloc.get_traced_memory()[0] - base - logits.nbytes) / 1e6


def scan_peaks(weights):
    """(B, T, peak MB, peak over history) of the first recurrent layer."""
    cfg = weights.cfg
    lp = next(lp for lp in layer_plan(cfg, weights,
                                      ComponentMask.full(cfg.n_layers))
              if lp.ssm is not None)
    rng = np.random.default_rng(SEED)
    for B, T in SCAN_SHAPES:
        h = rng.normal(0, 1, (B, T, cfg.d_model))
        mb = traced_peak_mb(ssm_block, lp.ssm, lp.decay, h, 0.0)
        yield B, T, mb, mb * 1e6 / (B * T * cfg.d_model * cfg.d_state * 8)


def peaks(path: Path, windows: np.ndarray, train_windows: np.ndarray):
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
    w32 = {n: a.astype(np.float32) for n, a in weights.items()}
    x, y = train_windows[:, :-1], train_windows[:, 1:]
    yield "train_step", traced_peak_mb(train_step, model.cfg, w32, x, y)
    yield "tape", tape_mb(model.cfg, w32, x)


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
            train_corpus = np.frombuffer(
                make_corpus(TRAIN_BATCH * (TRAIN_LEN + 1), 1234),
                np.uint8).astype(np.int64)
            train_windows = train_corpus.reshape(TRAIN_BATCH, TRAIN_LEN + 1)
            print(f"{name}: checkpoint {path.stat().st_size / 1e6:.1f} MB")
            for entry, mb in peaks(path, windows, train_windows):
                print(f"{entry + '.' + name:24s} {mb:7.1f} MB")
            if name == "par":
                for B, T, mb, ratio in scan_peaks(load_checkpoint(path)):
                    entry = f"ssm_block.{B}x{T}.{name}"
                    print(f"{entry:24s} {mb:7.1f} MB  {ratio:.2f}x its history")
    return 0


if __name__ == "__main__":
    sys.exit(main())
