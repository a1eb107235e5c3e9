"""The benchmark's three workloads, each driven through speclab's public API.

A workload has a ``setup`` (repeated to time set-up), a ``round`` (the timed
unit of work, always the same operations) and a ``check`` of each round's
outputs that runs outside the timed region.

* ``sweep``  - ``experiments.run_experiments`` over both toy hybrids x four
  draft strategies x k in {2, 4} x T in {0, 0.6}: the researcher's main loop,
  all draft/verify rounds over 1..k+1-row forwards. Operation: one cell.
* ``score``  - ``ablation.ablate_and_score`` (perplexity with and without
  attention) and ``metrics.divergence_stats`` per strategy over 256-byte
  windows on both hybrids: long chunks, no engine rounds. Operation: one
  window scored under one mask.
* ``train``  - ``training.train`` from initialization on both toy configs:
  the batched forward, hand-written backward, scan and Adam, which share no
  code with decoding. Operation: one training step.
"""

from __future__ import annotations

import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# entry points are called through their modules, so that the traced run's
# patches (spans.py) see the calls made from here too
from speclab import ablation, checkpoint, engine, experiments, metrics, training
from speclab.corpus import make_corpus, sample_prompts
from speclab.engine import DecodeSettings, DraftStrategy, build_mask
from speclab.experiments import ExperimentSpec, read_report
from speclab.model import HybridModel, ModelConfig, init_weights
from speclab.numerics import RngState
from speclab.training import TrainConfig, evaluate_loss, grad_check, load_corpus

import checks
from checkpoints import ARCHS, MODEL_SPEC, TRAIN_SPEC

STRATEGIES = ("component_only", "layer_skip", "early_exit", "identity")
K_VALUES = (2, 4)
TEMPERATURES = (0.0, 0.6)
PROMPT_LEN = 16
NEW_TOKENS = 48
EVAL_CORPUS_BYTES = 26_000
EVAL_CORPUS_SEED = 777


@dataclass
class Inputs:
    seed: int
    workdir: Path
    checkpoints: dict[str, Path]
    train_corpus: Path


@dataclass
class Round:
    index: int
    ops: int
    failed: int = 0
    output: object = None
    notes: dict = field(default_factory=dict)


def load_models(paths: dict[str, Path]) -> dict[str, HybridModel]:
    models = {}
    for name, path in paths.items():
        weights = checkpoint.load_checkpoint(path)
        models[name] = HybridModel(weights.cfg, weights)
    return models


def _guarded(rnd: Round, work):
    """Run one round's work; an exception fails every operation of it."""
    try:
        rnd.output = work()
    except Exception:  # the run goes on and reports the round as failed
        traceback.print_exc()
        rnd.failed = rnd.ops
    return rnd


class Sweep:
    name = "sweep"

    def __init__(self, inputs: Inputs, prompts: int):
        self.inputs = inputs
        self.prompts = prompts
        self.corpus_path = inputs.workdir / "eval_corpus.bin"

    @property
    def cells(self) -> int:
        return (len(self.inputs.checkpoints) * len(STRATEGIES)
                * len(K_VALUES) * len(TEMPERATURES))

    def setup(self):
        self.models = load_models(self.inputs.checkpoints)
        self.corpus_path.write_bytes(make_corpus(EVAL_CORPUS_BYTES, EVAL_CORPUS_SEED))
        self.corpus = load_corpus(self.corpus_path)
        self.round_prompts(0)

    def spec(self, i: int) -> ExperimentSpec:
        # each round samples its own prompts, so a run covers more of them
        return ExperimentSpec(
            checkpoints=tuple(str(p) for p in self.inputs.checkpoints.values()),
            strategies=STRATEGIES, k_values=K_VALUES, temperatures=TEMPERATURES,
            prompt_corpus=str(self.corpus_path),
            out_dir=str(self.inputs.workdir / f"sweep-{i}"),
            n_prompts=self.prompts, prompt_len=PROMPT_LEN,
            max_new_tokens=NEW_TOKENS, seed=self.inputs.seed * 1000 + i)

    def round_prompts(self, i: int) -> list[list[int]]:
        # the same draw run_experiments makes from the spec
        spec = self.spec(i)
        return sample_prompts(self.corpus, spec.n_prompts, spec.prompt_len,
                              seed=spec.seed + 101)

    def round(self, i: int) -> Round:
        rnd = Round(i, self.cells)
        _guarded(rnd, lambda: experiments.run_experiments(self.spec(i), log=lambda m: None))
        if rnd.output is not None:
            rnd.failed = self.cells - rnd.output.n_computed
        return rnd

    def expected_cells(self) -> set[tuple]:
        labels = {kind: DraftStrategy(kind).label() for kind in STRATEGIES}
        return {(Path(p).stem, labels[kind], k, float(t))
                for p in self.inputs.checkpoints.values() for kind in STRATEGIES
                for k in K_VALUES for t in TEMPERATURES}

    def check(self, rnd: Round) -> list[str]:
        out_dir = Path(self.spec(rnd.index).out_dir)
        try:
            if rnd.output is None:
                return []
            rows = read_report(out_dir / "report.csv")
            diagnostics = {}
            for path in sorted((out_dir / "cells").glob("*.json")):
                payload = json.loads(path.read_text())
                diagnostics[checks.cell_key(payload["row"])] = payload["diagnostics"]
            errors = checks.check_sweep(rows, diagnostics, self.expected_cells())
            errors += self.check_greedy(rnd)
            return errors
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def check_greedy(self, rnd: Round) -> list[str]:
        """Greedy autoregressive output of the round's first prompt against
        the argmax of one full-sequence forward over prompt + output."""
        prompt = self.round_prompts(rnd.index)[0]
        settings = DecodeSettings(k=1, temperature=0.0, max_new_tokens=NEW_TOKENS)
        errors = []
        for name, model in self.models.items():
            generated = engine.autoregressive_generate(model, prompt, settings)
            logits, _ = model.forward_prefix(prompt + generated[:-1])
            tail = logits[len(prompt) - 1:]
            top2 = np.sort(tail, axis=1)[:, -2:]
            margin = float((top2[:, 1] - top2[:, 0]).min())
            rnd.notes[f"greedy_margin.{name}"] = margin
            errors += checks.check_greedy_prefix(
                f"{name} round {rnd.index}", generated,
                [int(j) for j in np.argmax(tail, axis=1)])
        return errors


class Score:
    name = "score"

    def __init__(self, inputs: Inputs, ppl_windows: int, div_windows: int):
        self.inputs = inputs
        self.ppl_windows = ppl_windows
        self.div_windows = div_windows
        self.first = None

    def setup(self):
        self.models = load_models(self.inputs.checkpoints)
        window = next(iter(self.models.values())).cfg.context_limit
        corpus = np.frombuffer(make_corpus(EVAL_CORPUS_BYTES, EVAL_CORPUS_SEED),
                               dtype=np.uint8).astype(np.int64)
        starts = RngState(self.inputs.seed).integers(
            0, corpus.size - window, size=self.ppl_windows)
        self.windows = np.stack([corpus[s:s + window] for s in starts])
        self.text = self.windows.reshape(-1)
        self.div_prompts = [w.tolist() for w in self.windows[:self.div_windows]]
        self.masks = {name: {kind: build_mask(m.cfg, DraftStrategy(kind))
                             for kind in STRATEGIES}
                      for name, m in self.models.items()}

    @property
    def ops(self) -> int:
        per_model = 2 * self.ppl_windows + len(STRATEGIES) * self.div_windows
        return len(self.inputs.checkpoints) * per_model

    def round(self, i: int) -> Round:
        def work():
            out = {}
            for name, model in self.models.items():
                report = ablation.ablate_and_score(model, self.text)
                divs = {kind: metrics.divergence_stats(model, mask, self.div_prompts)
                        for kind, mask in self.masks[name].items()}
                out[name] = (report, divs)
            return out
        return _guarded(Round(i, self.ops), work)

    def check(self, rnd: Round) -> list[str]:
        if rnd.output is None:
            return []
        summary = {name: (rep.ppl_base, rep.ppl_no_attn,
                          {k: (d.tv_mean, d.top1_agreement) for k, d in divs.items()})
                   for name, (rep, divs) in rnd.output.items()}
        if self.first is not None:
            return checks.check_repeat(f"score round {rnd.index}", self.first, summary)
        self.first = summary
        errors = []
        x, y = self.windows[:, :-1], self.windows[:, 1:]
        positions = sum(len(p) for p in self.div_prompts)
        for name, (report, divs) in rnd.output.items():
            model = self.models[name]
            no_attn = self.masks[name]["component_only"]
            for label, ppl, mask in (("full", report.ppl_base, None),
                                     ("no_attention", report.ppl_no_attn, no_attn)):
                nll = evaluate_loss(model.cfg, model.weights, mask, x, y)
                errors += checks.check_perplexity(f"{name} {label}", ppl, nll)
            for kind, d in divs.items():
                errors += checks.check_divergence(
                    f"{name} {kind}", d.tv_mean, d.top1_agreement, d.n_positions,
                    positions, identity=kind == "identity")
        return errors


# the gradient check of the repository's training tests, on one tiny config
GRAD_CFG = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                       d_state=4, vocab_size=24, context_limit=48)
GRAD_TOL = 1e-4


class Train:
    name = "train"

    def __init__(self, inputs: Inputs, steps: int):
        self.inputs = inputs
        self.steps = steps
        self.first = None

    def setup(self):
        load_corpus(self.inputs.train_corpus)
        self.configs = {name: ModelConfig(arch, **MODEL_SPEC)
                        for name, arch in ARCHS.items()}
        spec = {k: v for k, v in TRAIN_SPEC.items() if k not in ("steps", "seed")}
        # no learning-rate warm-up: under the default 50-step ramp a few steps
        # barely move the weights, and the loss check needs them to
        self.tcfg = TrainConfig(corpus_path=str(self.inputs.train_corpus),
                                steps=self.steps, seed=self.inputs.seed,
                                warmup_steps=0, **spec)

    @property
    def ops(self) -> int:
        return len(self.configs) * self.steps

    def round(self, i: int) -> Round:
        def work():
            return {name: [loss for _, loss in training.train(cfg, self.tcfg)[1]]
                    for name, cfg in self.configs.items()}
        return _guarded(Round(i, self.ops), work)

    def check(self, rnd: Round) -> list[str]:
        if rnd.output is None:
            return []
        if self.first is not None:
            return checks.check_repeat(f"train round {rnd.index}", self.first,
                                       rnd.output)
        self.first = rnd.output
        errors = []
        for name, losses in rnd.output.items():
            errors += checks.check_losses(name, losses, tail=max(1, self.steps // 2))
        rng = np.random.default_rng(0)
        x = rng.integers(0, GRAD_CFG.vocab_size, (2, 12))
        y = rng.integers(0, GRAD_CFG.vocab_size, (2, 12))
        deviation = grad_check(GRAD_CFG, init_weights(GRAD_CFG, 1), x, y,
                               n_samples=120)
        errors += checks.check_grad("tiny parallel hybrid", deviation, GRAD_TOL)
        return errors


WORKLOADS = {"sweep": Sweep, "score": Score, "train": Train}
