#!/usr/bin/env python3
"""SHA-256 digests of the numbers speclab computes, to tell whether two
checkouts compute the same bits.

Usage, from the repository root (point PYTHONPATH at the checkout to digest):

    PYTHONPATH=src python3 scripts/numerics_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/numerics_digest.py

One line per item, then an ``all`` line over every item; equal lines mean
bit-identical numbers. The items are:

* ``sigmoid.<dtype>``: ``numerics.sigmoid`` over a fixed float32 and float64
  grid of 200,001 points on [-50, 50], so that a change of NumPy's ``exp``
  kernel shows on its own line, not only inside the lines below;
* ``train.<arch>.float32``: weights and loss history after 8 training steps
  from seeded init (training computes in float32 only), on the toy-lab
  design's model, training settings and training corpus
  (``speclab.experiments.TOY_MODEL``, ``TOY_TRAINING`` and ``TOY_CORPORA``);
* ``backward.<arch>.<mask>``: the loss and ``backward_train``'s float64
  gradients of one batch (B = 3 windows of T = 40 tokens, so the SSM and
  attention backwards run a group of two batch rows and one of one, and the
  scan runs whole chunks) on a tiny seeded model of each architecture, under
  the full mask and under component_only (layer_skip for the transformer,
  which has no component to run on its own);
* ``decode.<arch>``: decode-path logits of seeded-init models, the prefix
  forward and one-token steps, under the full mask and every draft mask;
* ``generate.<arch>.<strategy>.T<temperature>``: greedy and T = 0.6
  speculative outputs and per-round acceptance for every strategy;
* ``perplexity.<arch>``: full and component-only perplexity of a 256-byte
  window;
* ``divergence.<arch>``: every strategy's ``divergence_stats`` on the same
  window;
* ``cost.<arch>``: every strategy's ``flop_ratio`` cost ratio;
* ``ablation.<arch>``: ``ablate_and_score`` on the same window: both
  perplexities, their ratio and the verdict;
* ``cost.tra``: the transformer control's ``flop_ratio`` for every strategy
  it admits (layer_skip, early_exit, identity);
* ``params.<arch>``: ``params_per_token`` of the toy configuration of all
  three architectures under hand-built masks: full, attention-only,
  FFN-only and skip-all, plus SSM-only for the two hybrids (masks that
  ``build_mask`` never makes).

It needs no checkpoint: the corpora are generated and the models are seeded
inits or trained here. BLAS runs on one thread, so summation order is fixed.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from speclab.ablation import ablate_and_score  # noqa: E402
from speclab.corpus import make_corpus, sample_prompts  # noqa: E402
from speclab.engine import (  # noqa: E402
    STRATEGY_KINDS, DecodeSettings, DraftStrategy, autoregressive_generate,
    build_mask, speculative_generate)
from speclab.experiments import (  # noqa: E402
    TOY_CORPORA, TOY_MODEL, TOY_TRAINING)
from speclab.metrics import divergence_stats, perplexity  # noqa: E402
from speclab.model import (  # noqa: E402
    ComponentMask, HybridModel, ModelConfig, init_weights)
from speclab.numerics import RngState, sigmoid  # noqa: E402
from speclab.theory import flop_ratio, params_per_token  # noqa: E402
from speclab.training import (  # noqa: E402
    TrainConfig, backward_train, cross_entropy, forward_train, train)

ARCHS = {"par": "parallel_hybrid", "seq": "sequential_hybrid"}
SEED = 7
TRAIN_STEPS = 8
TEMPERATURES = (0.0, 0.6)
BACKWARD_BATCH = (3, 40)


def toy_config(arch: str) -> ModelConfig:
    return ModelConfig(arch, **TOY_MODEL)


class Digest:
    """SHA-256 over a stream of arrays and numbers, with shape and dtype."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            a = np.ascontiguousarray(v)
            self.h.update(f"{a.dtype.str}{a.shape}".encode())
            self.h.update(a.tobytes())

    def hex(self) -> str:
        return self.h.hexdigest()


def sigmoid_items():
    for dtype in (np.float32, np.float64):
        d = Digest()
        d.add(sigmoid(np.linspace(-50.0, 50.0, 200_001, dtype=dtype)))
        yield f"sigmoid.{np.dtype(dtype).name}", d.hex()


def train_items(corpus_path: str):
    for name, arch in ARCHS.items():
        tcfg = TrainConfig(corpus_path=corpus_path,
                           **{**TOY_TRAINING, "steps": TRAIN_STEPS})
        weights, history = train(toy_config(arch), tcfg)
        d = Digest()
        for block_name, arr in weights.items():
            d.add(np.frombuffer(block_name.encode(), np.uint8), arr)
        d.add(np.array([loss for _, loss in history]))
        yield f"train.{name}.float32", d.hex()


def backward_items():
    for name, arch in {**ARCHS, "tra": "transformer"}.items():
        cfg = ModelConfig(arch, n_layers=4, d_model=16, n_heads=2, d_state=4,
                          vocab_size=24, context_limit=48)
        w = init_weights(cfg, SEED)
        B, T = BACKWARD_BATCH
        tokens = RngState(SEED).integers(0, cfg.vocab_size, (B, T + 1))
        draft = "layer_skip" if arch == "transformer" else "component_only"
        for label, mask in (("full", None),
                            (draft, build_mask(cfg, DraftStrategy(draft)))):
            logits, tape = forward_train(cfg, w, mask, tokens[:, :-1])
            loss, dlogits = cross_entropy(logits, tokens[:, 1:])
            d = Digest()
            d.add(np.float64(loss))
            for block_name, grad in backward_train(cfg, w, tape, dlogits).items():
                d.add(np.frombuffer(block_name.encode(), np.uint8), grad)
            yield f"backward.{name}.{label}", d.hex()


def draft_masks(cfg: ModelConfig) -> dict[str, ComponentMask]:
    return {kind: build_mask(cfg, DraftStrategy(kind)) for kind in STRATEGY_KINDS}


def decode_items(models, prompts):
    for name, model in models.items():
        masks = {"full": None, **draft_masks(model.cfg)}
        d = Digest()
        for mask in masks.values():
            for prompt in prompts:
                logits, state = model.forward_prefix(prompt[:-1], mask)
                d.add(logits)
                for token in prompt[-1:] + prompt[:4]:
                    d.add(model.decode_step(state, token))
        yield f"decode.{name}", d.hex()


def generate_items(models, prompts):
    for name, model in models.items():
        for temp in TEMPERATURES:
            for kind in ("autoregressive",) + STRATEGY_KINDS:
                d = Digest()
                for i, prompt in enumerate(prompts):
                    settings = DecodeSettings(k=3, temperature=temp,
                                              max_new_tokens=24, seed=SEED + i)
                    if kind == "autoregressive":
                        out = autoregressive_generate(model, prompt, settings)
                        accepted = []
                    else:
                        out, rounds = speculative_generate(
                            model, DraftStrategy(kind), prompt, settings)
                        accepted = [r.accepted_count for r in rounds]
                    d.add(np.array(out, np.int64), np.array(accepted, np.int64))
                yield f"generate.{name}.{kind}.T{temp}", d.hex()


def score_items(models, window):
    for name, model in models.items():
        masks = draft_masks(model.cfg)
        d = Digest()
        for mask in (None, masks["component_only"]):
            d.add(np.float64(perplexity(model, mask, window)))
        yield f"perplexity.{name}", d.hex()
        d = Digest()
        for mask in masks.values():
            stats = divergence_stats(model, mask, [window])
            d.add(np.float64(stats.tv_mean), np.float64(stats.top1_agreement),
                  np.int64(stats.n_positions))
        yield f"divergence.{name}", d.hex()
        d = Digest()
        for kind in STRATEGY_KINDS:
            add_cost(d, model.cfg, kind)
        yield f"cost.{name}", d.hex()
        report = ablate_and_score(model, window)
        d = Digest()
        d.add(np.float64(report.ppl_base), np.float64(report.ppl_no_attn),
              np.float64(report.ppl_ratio),
              np.frombuffer(report.verdict.encode(), np.uint8))
        yield f"ablation.{name}", d.hex()


def add_cost(d: Digest, cfg: ModelConfig, kind: str):
    cost = flop_ratio(cfg, DraftStrategy(kind))
    d.add(np.float64(cost.cost_ratio))


def hand_masks(n: int, hybrid: bool) -> list[ComponentMask]:
    """Full, attention-only, FFN-only, skip-all, and SSM-only for hybrids."""
    on, off = (True,) * n, (False,) * n
    masks = [ComponentMask(on, on, off), ComponentMask(on, off, off),
             ComponentMask(off, off, off), ComponentMask(off, off, on)]
    if hybrid:
        masks.append(ComponentMask(off, on, off))
    return masks


def param_items():
    tra = toy_config("transformer")
    d = Digest()
    for kind in ("layer_skip", "early_exit", "identity"):
        add_cost(d, tra, kind)
    yield "cost.tra", d.hex()
    for name, arch in {**ARCHS, "tra": "transformer"}.items():
        cfg = toy_config(arch)
        d = Digest()
        for mask in hand_masks(cfg.n_layers, arch != "transformer"):
            d.add(np.int64(params_per_token(cfg, mask)))
        yield f"params.{name}", d.hex()


def main() -> int:
    items = list(sigmoid_items())
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "train_corpus.bin"
        corpus_path.write_bytes(make_corpus(*TOY_CORPORA["train"]))
        items += train_items(str(corpus_path))
    items += backward_items()
    eval_tokens = np.frombuffer(make_corpus(4096, TOY_CORPORA["eval"][1]),
                                np.uint8).astype(np.int64)
    prompts = sample_prompts(eval_tokens, 3, 16, seed=0)
    models = {name: HybridModel.from_seed(toy_config(arch), SEED)
              for name, arch in ARCHS.items()}
    items += decode_items(models, prompts)
    items += generate_items(models, prompts)
    items += score_items(models, eval_tokens[:256])
    items += param_items()
    total = hashlib.sha256()
    for name, hexdigest in items:
        print(f"{name:42s} {hexdigest}")
        total.update(f"{name} {hexdigest}\n".encode())
    print(f"{'all':42s} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
