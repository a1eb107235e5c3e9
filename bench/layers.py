"""Per-layer metrics, derived from the spans of a traced run.

``model_probe`` times ``forward_chunk`` on a stream positioned like a sweep
decode (after a 32-token prefix) under each draft mask, at the verify chunk
sizes, and under masks that keep one block kind, from which per-block costs
follow by difference. ``derive`` turns every span of the run into the named
metrics; the table in README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from speclab.engine import DraftStrategy, build_mask
from speclab.model import ComponentMask
from speclab.theory import flop_ratio

from workloads import K_VALUES as VERIFY_K, STRATEGIES

DRAFTS = tuple(kind for kind in STRATEGIES if kind != "identity")
PROBE_PREFIX = 32


def probe_masks(cfg) -> dict[str, ComponentMask]:
    """Named masks for the probe: full, each draft, one block kind kept."""
    n = cfg.n_layers
    on, off = (True,) * n, (False,) * n
    masks = {"full": ComponentMask.full(n)}
    masks.update({kind: build_mask(cfg, DraftStrategy(kind)) for kind in DRAFTS})
    masks["ssm_only"] = ComponentMask(off, on, off)
    masks["attn_only"] = ComponentMask(on, off, off)
    masks["ffn_only"] = ComponentMask(off, off, off)
    masks["skip_all"] = ComponentMask(off, off, on)
    return masks


def model_probe(tracer, models, calls: int):
    """``calls`` timed forwards per (model, mask, rows) case, each in a
    ``probe.case`` span. Every case has its own stream, rewound after each
    call so that every call starts at the same position."""
    for name, model in models.items():
        masks = probe_masks(model.cfg)
        prefix = list(range(97, 97 + PROBE_PREFIX))
        plan = [(m, 1) for m in masks] + [("full", k + 1) for k in VERIFY_K]
        streams = []
        for case, rows in plan:
            _, state = model.forward_prefix(prefix, masks[case])
            streams.append((case, rows, state, state.snapshot()))
        # the cases take turns call by call, so a change in the machine's
        # speed during the probe reaches all of them and cancels in ratios
        for _ in range(calls):
            for case, rows, state, snap in streams:
                with tracer.span("probe.case", arch=name, case=case, rows=rows):
                    model.forward_chunk(state, prefix[:rows])
                state.restore(snap)
        window = [32 + (i * 7) % 90 for i in range(model.cfg.context_limit)]
        for _ in range(max(3, calls // 10)):
            model.forward_prefix(window)


def _median(values):
    return statistics.median(values) if values else float("nan")


class Derivation:
    """Indexes of the tracer's spans that the metric formulas share."""

    def __init__(self, tracer, models):
        self.tracer = tracer
        self.kids = tracer.children()
        # a mask shared by two probe names reads as the first (a draft's)
        self.mask_names = {name: {m: k for k, m in reversed(probe_masks(model.cfg).items())}
                           for name, model in models.items()}
        self.by_name = defaultdict(list)
        for s in tracer.spans:
            self.by_name[s.name].append(s)

    def arch(self, span) -> str | None:
        if "arch" in span.attrs:
            return span.attrs["arch"]
        for a in self.tracer.ancestors(span):
            if "arch" in a.attrs:
                return a.attrs["arch"]
        return None

    def under(self, span, name: str) -> bool:
        return any(a.name == name for a in self.tracer.ancestors(span))

    def select(self, name: str, arch: str | None = None, **attrs):
        return [s for s in self.by_name[name]
                if (arch is None or self.arch(s) == arch)
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def mask_name(self, arch: str, mask) -> str:
        if mask is None:
            return "full"
        return self.mask_names[arch].get(mask, mask.describe())

    def probe_us(self, arch: str, case: str, rows: int) -> float:
        """Median µs of the probe's forwards for one (mask, rows) case."""
        cases = self.select("probe.case", arch, case=case, rows=rows)
        return _median([k.duration for c in cases for k in self.kids.get(c.id, ())
                        if k.name == "model.forward_chunk"]) * 1e6

    def descendants(self, span):
        stack = list(self.kids.get(span.id, ()))
        while stack:
            s = stack.pop()
            yield s
            stack.extend(self.kids.get(s.id, ()))

    def self_time(self, span, exclude: set[str]) -> float:
        """Duration less the descendants named in ``exclude`` (outermost)."""
        covered = 0.0
        stack = list(self.kids.get(span.id, ()))
        while stack:
            s = stack.pop()
            if s.name in exclude:
                covered += s.duration
            else:
                stack.extend(self.kids.get(s.id, ()))
        return span.duration - covered


ROUND_PARTS = {"engine.draft_k": "draft", "engine.verify_and_accept": "verify",
               "model.decode_step": "resync"}


def derive(tracer, models, overhead_pct: float) -> dict[str, tuple[float, str]]:
    d = Derivation(tracer, models)
    out: dict[str, tuple[float, str]] = {}
    archs = list(models)

    for a in archs:
        out[f"checkpoint.load_ms.{a}"] = (
            _median([s.duration for s in d.select("checkpoint.load_checkpoint", a)]) * 1e3, "ms")

    for a in archs:
        cfg = models[a].cfg
        step = d.probe_us(a, "full", 1)
        for m in ("full",) + DRAFTS:
            out[f"model.step_us.{a}.{m}"] = (d.probe_us(a, m, 1), "us")
        for k in VERIFY_K:
            out[f"model.verify_cost.{a}.k{k}"] = (d.probe_us(a, "full", k + 1) / step, "ratio")
        for m in DRAFTS:
            out[f"model.draft_cost_ratio.{a}.{m}"] = (d.probe_us(a, m, 1) / step, "ratio")
        base, ffn_only = d.probe_us(a, "skip_all", 1), d.probe_us(a, "ffn_only", 1)
        n_ssm = sum(cfg.has_alt(i) for i in range(cfg.n_layers))
        n_attn = sum(cfg.has_attn(i) for i in range(cfg.n_layers))
        out[f"model.block_us.{a}.ssm"] = ((d.probe_us(a, "ssm_only", 1) - ffn_only) / n_ssm, "us")
        out[f"model.block_us.{a}.attn"] = ((d.probe_us(a, "attn_only", 1) - ffn_only) / n_attn, "us")
        out[f"model.block_us.{a}.ffn"] = ((ffn_only - base) / cfg.n_layers, "us")
        windows = [s for s in d.select("model.forward_prefix", a, rows=cfg.context_limit)
                   if d.mask_name(a, s.attrs["mask"]) == "full"]
        out[f"model.window_us.{a}"] = (_median([s.duration for s in windows]) * 1e6, "us")

    for a in archs:
        for kind in STRATEGIES:
            gens = d.select("engine.speculative_generate", a, strategy=kind)
            out[f"engine.spec_tok_s.{a}.{kind}"] = (
                sum(s.attrs["tokens"] for s in gens) / sum(s.duration for s in gens), "tok/s")
        ars = d.select("engine.autoregressive_generate", a)
        ars = [s for s in ars if d.under(s, "experiments.run_experiments")]
        out[f"engine.ar_tok_s.{a}"] = (
            sum(s.attrs["tokens"] for s in ars) / sum(s.duration for s in ars), "tok/s")
        gens = d.select("engine.speculative_generate", a)
        rounds = sum(s.attrs["rounds"] for s in gens)
        parts = defaultdict(float)
        for g in gens:
            for s in d.descendants(g):
                if s.name in ROUND_PARTS:
                    parts[ROUND_PARTS[s.name]] += d.self_time(s, set(ROUND_PARTS))
        for part in ("draft", "verify", "resync"):
            out[f"engine.{part}_us_per_round.{a}"] = (parts[part] / rounds * 1e6, "us")
        for kind in STRATEGIES:
            gens = d.select("engine.speculative_generate", a, strategy=kind)
            forwards = rows = 0
            for g in gens:
                for s in d.descendants(g):
                    if s.name == "model.forward_chunk" and not d.under(s, "model.forward_prefix"):
                        forwards += 1
                        rows += s.attrs["rows"]
            out[f"engine.forwards_per_round.{a}.{kind}"] = (
                forwards / sum(s.attrs["rounds"] for s in gens), "count")
            out[f"engine.rows_per_token.{a}.{kind}"] = (
                rows / sum(s.attrs["emitted"] for s in gens), "rows/tok")

    out["metrics.bootstrap_ms"] = (
        _median([s.duration for s in d.select("metrics.all_token_alpha")]) * 1e3, "ms")
    for a in archs:
        out[f"metrics.divergence_s.{a}"] = (
            _median([s.duration for s in d.select("metrics.divergence_stats", a)]), "s")
    for a in archs:
        for m in ("full", "component_only"):
            spans = [s for s in d.select("metrics.perplexity", a)
                     if d.mask_name(a, s.attrs["mask"]) == m]
            out[f"metrics.perplexity_tok_s.{a}.{m}"] = (
                sum(s.attrs["positions"] for s in spans) / sum(s.duration for s in spans), "tok/s")
    for a in archs:
        out[f"ablation.ablate_s.{a}"] = (
            _median([s.duration for s in d.select("ablation.ablate_and_score", a)]), "s")

    covered = {n for n in d.by_name if n.startswith(("engine.", "metrics."))}
    sweeps = d.select("experiments.run_experiments")
    out["experiments.cell_other_ms"] = (
        sum(d.self_time(s, covered) for s in sweeps)
        / sum(s.attrs["cells"] for s in sweeps) * 1e3, "ms")

    parts = (("forward", "training.forward_train"), ("backward", "training.backward_train"),
             ("adam", "training.adam_step"), ("batch", "training.sample_batch"))
    for part, name in parts:
        for a in archs:
            spans = [s for s in d.select(name, a) if d.under(s, "training.train")]
            out[f"training.{part}_ms.{a}"] = (_median([s.duration for s in spans]) * 1e3, "ms")

    for a in archs:
        for kind in DRAFTS:
            ratio = flop_ratio(models[a].cfg, DraftStrategy(kind)).cost_ratio
            out[f"theory.cost_ratio.{a}.{kind}"] = (ratio, "ratio")

    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
