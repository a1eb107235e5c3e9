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
* ``train_step.par.T256``: the same step of the parallel toy over 8
  windows of its full context, 256 bytes;
* ``ssm_block`` (parallel toy only): the first recurrent layer over float64
  rows at (B, T) = (1, 256) and (2, 255), with the peak's multiple of the
  (B, T, d_model, d_state) history the call returns;
* ``_ssm_bwd``, ``_attn_bwd`` and ``_ffn_bwd`` (parallel toy only): the last
  layer's backward of that block over the float32 tape of ``train_step``'s
  batch, with the peak's multiple of, in turn, one (B, T, d_model, d_state)
  float32 state history, which the tape does not hold; one layer's
  (B, heads, T, T) float32 attention probabilities, which it does not hold
  either; and one (B, T, 4 * d_model) float32 activation of the FFN.

The toys are seeded inits of the toy-lab design's model
(``speclab.experiments.TOY_MODEL``), saved to a temporary directory, and the
training batch has the design's shape (``TOY_TRAINING``). The training and
eval texts are generated with the seeds of its corpora (``TOY_CORPORA``).
Peaks count what Python and NumPy allocate, not the process's resident set,
so they are the same from run to run on any machine.

The last lines are not peaks: ``train_faults`` is the minor page faults
(``ru_minflt``) per step of ``train`` from a seeded init on the training
bytes of ``train_step``, over the steps after the first, with tracing off.
It shows how many pages each step faults in again after the previous one
freed them, under the allocator setting ``train`` makes before its first
step; it depends on the C library's allocator, so it is not the same on
every machine.
"""

from __future__ import annotations

import os
import resource
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
from speclab.experiments import (  # noqa: E402
    TOY_CORPORA, TOY_MODEL, TOY_TRAINING, _sha256)
from speclab.metrics import divergence_stats  # noqa: E402
from speclab.model import (  # noqa: E402
    FFN_MULT, ComponentMask, HybridModel, ModelConfig, init_weights,
    layer_plan, ssm_block)
import speclab.training as training  # noqa: E402
from speclab.training import (  # noqa: E402
    TrainConfig, _attn_bwd, _ffn_bwd, _ssm_bwd, backward_train,
    cross_entropy, evaluate_loss, forward_train, train)

ARCHS = {"par": "parallel_hybrid", "seq": "sequential_hybrid"}
SEED = 7
TRAIN_SEED, EVAL_SEED = TOY_CORPORA["train"][1], TOY_CORPORA["eval"][1]
WINDOWS = 2
TRAIN_BATCH, TRAIN_LEN = TOY_TRAINING["batch_size"], TOY_TRAINING["seq_len"]
SCAN_SHAPES = ((1, 256), (2, 255))
FAULT_STEPS = 6


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


def bwd_peaks(cfg, w, x):
    """(block, peak MB, peak's multiple, of what) of the last layer's backward
    of each block kind over a training tape of the windows ``x``."""
    _, tape = forward_train(cfg, w, None, x)
    for kind, bwd in (("ssm", _ssm_bwd), ("attn", _attn_bwd),
                      ("ffn", _ffn_bwd)):
        entry = next(e for e in reversed(tape["layers"]) if kind in e)
        p, cache = entry[kind]
        rows = cache[0][0]     # the block's rmsnorm input, (B, T, d_model)
        B, T, d = rows.shape
        dout = np.random.default_rng(SEED).normal(0, 1, rows.shape)
        prefix = f"layers.{entry['layer']}.{kind}."
        grads = {n: np.zeros_like(a) for n, a in w.items()
                 if n.startswith(prefix)}
        heads = (cfg.n_heads,) if kind == "attn" else ()
        mb = traced_peak_mb(bwd, p, dout.astype(rows.dtype), cache, *heads,
                            grads, prefix)
        unit, what = {
            "ssm": (rows.nbytes * cfg.d_state, "its history"),
            "attn": (rows.nbytes // d * cfg.n_heads * T, "its probabilities"),
            "ffn": (rows.nbytes * FFN_MULT, "its activation")}[kind]
        yield bwd.__name__, mb, mb * 1e6 / unit, what


def train_faults(cfg, corpus_path) -> float:
    """Minor page faults per ``train`` step over the steps after the first,
    from a fresh weight init, on windows of ``corpus_path``."""
    faults = []
    step = training._train_step

    def counted(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        loss = step(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
        return loss

    training._train_step = counted
    try:
        train(cfg, TrainConfig(corpus_path=str(corpus_path), steps=FAULT_STEPS,
                               batch_size=TRAIN_BATCH, seq_len=TRAIN_LEN,
                               seed=SEED))
    finally:
        training._train_step = step
    return sum(faults[1:]) / (len(faults) - 1)


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


def train_windows(length: int) -> np.ndarray:
    """``TRAIN_BATCH`` windows of ``length`` bytes of the training text."""
    text = make_corpus(TRAIN_BATCH * length, TRAIN_SEED)
    return np.frombuffer(text, np.uint8).astype(np.int64).reshape(
        TRAIN_BATCH, length)


def main() -> int:
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        batch = train_windows(TRAIN_LEN + 1)
        train_path = Path(tmp) / "train.bin"
        train_path.write_bytes(batch.astype(np.uint8).tobytes())
        configs = {}
        for name, arch in ARCHS.items():
            cfg = configs[name] = ModelConfig(arch, **TOY_MODEL)
            path = Path(tmp) / f"{name}.ckpt"
            save_checkpoint(path, init_weights(cfg, SEED))
            corpus = np.frombuffer(make_corpus(WINDOWS * cfg.context_limit,
                                               EVAL_SEED),
                                   np.uint8).astype(np.int64)
            windows = corpus.reshape(WINDOWS, cfg.context_limit)
            print(f"{name}: checkpoint {path.stat().st_size / 1e6:.1f} MB")
            for entry, mb in peaks(path, windows, batch):
                print(f"{entry + '.' + name:24s} {mb:7.1f} MB")
            if name == "par":
                w32 = {n: a.astype(np.float32)
                       for n, a in load_checkpoint(path).items()}
                full = train_windows(cfg.context_limit + 1)
                mb = traced_peak_mb(train_step, cfg, w32, full[:, :-1],
                                    full[:, 1:])
                entry = f"train_step.{name}.T{cfg.context_limit}"
                print(f"{entry:24s} {mb:7.1f} MB")
                for B, T, mb, ratio in scan_peaks(load_checkpoint(path)):
                    entry = f"ssm_block.{B}x{T}.{name}"
                    print(f"{entry:24s} {mb:7.1f} MB  {ratio:.2f}x its history")
                for bwd, mb, ratio, what in bwd_peaks(cfg, w32, batch[:, :-1]):
                    print(f"{bwd + '.' + name:24s} {mb:7.1f} MB  "
                          f"{ratio:.2f}x {what}")
        tracemalloc.stop()
        for name, cfg in configs.items():
            print(f"{'train_faults.' + name:24s} "
                  f"{train_faults(cfg, train_path):7.1f} faults per step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
