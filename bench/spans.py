"""Spans around the public calls into each speclab layer, recorded from outside.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, stream id, attributes). A
function is replaced under every speclab module that imported it by name,
and a method on its class, so calls made from inside the program are seen
too. Spans stay in memory until ``write()``; ``uninstall()`` puts the
original functions back.

A stream is one generation, scoring or training job: ``STREAM_ROOTS`` open
a new stream id, every other span inherits its parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    stream: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arch(cfg) -> str:
    return {"parallel_hybrid": "par", "sequential_hybrid": "seq"}.get(cfg.arch, cfg.arch)


# name -> (module, attribute path, attributes recorded from (args, result))
TARGETS = {
    "checkpoint.load_checkpoint": (
        "speclab.checkpoint", "load_checkpoint",
        lambda a, r: {"arch": _arch(r.cfg)}),
    "model.forward_chunk": (
        "speclab.model", "HybridModel.forward_chunk",
        lambda a, r: {"arch": _arch(a[0].cfg), "rows": len(a[2]),
                      "mask": a[1].mask}),
    "model.forward_prefix": (
        "speclab.model", "HybridModel.forward_prefix",
        lambda a, r: {"arch": _arch(a[0].cfg), "rows": len(a[1]),
                      "mask": r[1].mask}),
    "model.decode_step": (
        "speclab.model", "HybridModel.decode_step",
        lambda a, r: {"arch": _arch(a[0].cfg)}),
    "engine.speculative_generate": (
        "speclab.engine", "speculative_generate",
        lambda a, r: {"arch": _arch(a[0].cfg), "strategy": a[1].kind,
                      "k": a[3].k, "temperature": a[3].temperature,
                      "tokens": len(r[0]), "rounds": len(r[1]),
                      "emitted": sum(len(x.emitted_tokens) for x in r[1])}),
    "engine.autoregressive_generate": (
        "speclab.engine", "autoregressive_generate",
        lambda a, r: {"arch": _arch(a[0].cfg), "tokens": len(r)}),
    "engine.draft_k": (
        "speclab.engine", "draft_k", lambda a, r: {"arch": _arch(a[0].cfg)}),
    "engine.verify_and_accept": (
        "speclab.engine", "verify_and_accept",
        lambda a, r: {"arch": _arch(a[0].cfg)}),
    "metrics.all_token_alpha": (
        "speclab.metrics", "all_token_alpha", lambda a, r: {}),
    "metrics.divergence_stats": (
        "speclab.metrics", "divergence_stats",
        lambda a, r: {"arch": _arch(a[0].cfg), "positions": r.n_positions}),
    "metrics.perplexity": (
        "speclab.metrics", "perplexity",
        lambda a, r: {"arch": _arch(a[0].cfg), "mask": a[1],
                      "positions": scored_positions(len(a[2]),
                                                    a[0].cfg.context_limit)}),
    "ablation.ablate_and_score": (
        "speclab.ablation", "ablate_and_score",
        lambda a, r: {"arch": _arch(a[0].cfg)}),
    "experiments.run_experiments": (
        "speclab.experiments", "run_experiments",
        lambda a, r: {"cells": r.n_computed}),
    "theory.flop_ratio": (
        "speclab.theory", "flop_ratio",
        lambda a, r: {"arch": _arch(a[0]), "strategy": a[1].kind}),
    "training.train": (
        "speclab.training", "train",
        lambda a, r: {"arch": _arch(a[0]), "steps": len(r[1])}),
    "training.sample_batch": (
        "speclab.training", "sample_batch", lambda a, r: {}),
    "training.forward_train": (
        "speclab.training", "forward_train",
        lambda a, r: {"arch": _arch(a[0])}),
    "training.backward_train": (
        "speclab.training", "backward_train",
        lambda a, r: {"arch": _arch(a[0])}),
    "training.adam_step": (
        "speclab.training", "Adam.step",
        lambda a, r: {"arch": _arch(a[1].cfg)}),
}

STREAM_ROOTS = {"engine.speculative_generate", "engine.autoregressive_generate",
                "metrics.divergence_stats", "metrics.perplexity",
                "training.train"}


def scored_positions(n_tokens: int, window: int) -> int:
    """Positions ``metrics.perplexity`` scores with its default stride: every
    token but the first of each non-overlapping window."""
    full, rest = divmod(n_tokens, window)
    return full * (window - 1) + max(rest - 1, 0)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._n_streams = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None or name in STREAM_ROOTS:
            stream = self._n_streams
            self._n_streams += 1
        else:
            stream = parent.stream
        span = Span(len(self.spans), name,
                    parent.id if parent is not None else None, stream)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span):
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, e.g. around a probe."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            span.attrs.update(attrs)

    def wrap(self, name: str, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.attrs = attrs(args, result)
            return result
        return traced

    # -- patching -------------------------------------------------------

    def install(self, targets=None):
        """Patch every target; each patch is undone by ``uninstall``."""
        for name, (module_name, path, attrs) in (targets or TARGETS).items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(name, original, attrs))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "speclab" or mod_name.startswith("speclab.")) \
                        and getattr(mod, attr, None) is original:
                    self._set(mod, attr, traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries --------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def write(self, path, describe=lambda v: v):
        """One JSON object per span; masks etc. go through ``describe``."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "stream": s.stream, "start": s.start, "end": s.end,
                    "attrs": {k: describe(v) for k, v in s.attrs.items()},
                }) + "\n")
