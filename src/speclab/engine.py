"""Lossless draft-verify-accept speculative decoding, generic over strategy.

One speculation round drafts ``k`` tokens with a masked sub-model, verifies
them with the full model in one batched forward, and accepts the longest
prefix under the standard rejection rule: token ``x`` is accepted with
probability ``min(1, P_H(x)/P_S(x))``; the first rejection is replaced by a
sample from the residual ``norm(max(0, P_H - P_S))``; full acceptance earns a
bonus token from the target distribution. The emitted stream follows the
target distribution. Greedy decoding is the same rule on the one-hot
distributions of ``softmax(·, 0)``: a drafted token is accepted exactly when
the two argmaxes agree, and the correction and bonus are the target's argmax.
There is no separate greedy path; the randomness drawn at temperature 0
never reaches the output.

Draft and verify keep separate decode states (no cache sharing). Both are
driven by a *pending* input: tokens already emitted that the side has not
consumed yet. Both states start from ``forward_prefix(prompt[:-1])`` with
``prompt[-1]`` pending. A round is exactly k draft forwards (the pending
input, then k-1 drafted tokens, one row each except a two-token pending
input) and one (k+1)-row verify forward over the pending token plus the
draft; the logits of each forward are those the next sampling step needs,
so no extra forward resynchronises either side. Recurrent states cannot be
rewound, so both sides record a snapshot per fed position and roll back to
the accepted prefix: the emitted token becomes the next pending input, and
after full acceptance the draft side's pending input is ``[d_k, bonus]``
because it never fed ``d_k``.

A draft strategy is its kind, and each kind is one fixed mask over the L
layers: component_only drops the attention pathway (hybrids only),
layer_skip skips ceil(L/3) evenly spaced interior layers, early_exit keeps
the first ceil(L/2) layers, and identity is the full model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ComponentMask, DecodeState, HybridModel, ModelConfig, SsmSnapshot
from .numerics import RngState, sample_categorical, softmax

STRATEGY_KINDS = ("component_only", "layer_skip", "early_exit", "identity")
LAYER_SKIP_FRACTION = 1.0 / 3.0  # of the layers, skipped by layer_skip
EARLY_EXIT_FRACTION = 0.5  # of the layers, kept by early_exit


@dataclass(frozen=True)
class DraftStrategy:
    """How the draft sub-model is carved out of the target."""

    kind: str

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")

    def label(self) -> str:
        if self.kind == "layer_skip":
            return f"layer_skip_{LAYER_SKIP_FRACTION:.2f}"
        if self.kind == "early_exit":
            return f"early_exit_{EARLY_EXIT_FRACTION:.2f}"
        return self.kind


@dataclass(frozen=True)
class DecodeSettings:
    k: int = 4
    temperature: float = 0.0
    max_new_tokens: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass
class DraftSequence:
    """k drafted tokens with the full distribution each was sampled from."""

    tokens: list[int]
    dists: list[np.ndarray]
    base_pos: int

    def __post_init__(self):
        if len(self.tokens) < 1 or len(self.tokens) != len(self.dists):
            raise ValueError("draft needs >= 1 token, one distribution per token")

    @property
    def k(self) -> int:
        return len(self.tokens)


@dataclass
class SpecRoundResult:
    """Outcome of one speculation round.

    ``emitted_tokens`` holds the accepted prefix plus the correction token
    (on rejection) or the bonus token (on full acceptance), so its length is
    always ``accepted_count + 1``. ``per_position_match`` records greedy
    argmax agreement at every drafted position regardless of the sampled
    accept/reject outcome.
    """

    accepted_count: int
    emitted_tokens: list[int]
    per_position_match: list[bool]

    def __post_init__(self):
        if not 0 <= self.accepted_count <= self.k:
            raise ValueError("accepted_count out of range")
        if len(self.emitted_tokens) != self.accepted_count + 1:
            raise ValueError("emitted_tokens must hold accepted + 1 tokens")

    @property
    def k(self) -> int:
        return len(self.per_position_match)

    @property
    def all_accepted(self) -> bool:
        return self.accepted_count == self.k


def _skip_indices(n_layers: int, n_skip: int) -> list[int]:
    """Evenly spaced interior layers (the first and last are never skipped)."""
    if n_skip == 0:
        return []
    if n_layers < 3 or n_skip > n_layers - 2:
        raise ValueError(
            f"cannot skip {n_skip} of {n_layers} layers while keeping both ends")
    if n_skip == 1:
        return [int((n_layers - 1) / 2 + 0.5)]
    span = n_layers - 3
    return [1 + int(j * span / (n_skip - 1) + 0.5) for j in range(n_skip)]


def build_mask(cfg: ModelConfig, strategy: DraftStrategy) -> ComponentMask:
    """Realize a draft strategy as a per-layer component mask."""
    n = cfg.n_layers
    if strategy.kind == "identity":
        return ComponentMask.full(n)
    if strategy.kind == "component_only":
        if cfg.arch == "transformer":
            raise ValueError(
                "component_only requires a hybrid architecture; a transformer "
                "has no alternative component to isolate")
        if cfg.arch == "parallel_hybrid":
            return ComponentMask((False,) * n, (True,) * n, (False,) * n)
        skipped = tuple(cfg.layer_kind(i) == "attn" for i in range(n))
        keep = tuple(not s for s in skipped)
        return ComponentMask(keep, keep, skipped)
    if strategy.kind == "layer_skip":
        n_skip = math.ceil(LAYER_SKIP_FRACTION * n)
        chosen = set(_skip_indices(n, n_skip))
        skipped = tuple(i in chosen for i in range(n))
        keep = tuple(not s for s in skipped)
        return ComponentMask(keep, keep, skipped)
    # early_exit
    keep_layers = math.ceil(EARLY_EXIT_FRACTION * n)
    skipped = tuple(i >= keep_layers for i in range(n))
    keep = tuple(not s for s in skipped)
    return ComponentMask(keep, keep, skipped)


def residual_distribution(p_target: np.ndarray, p_draft: np.ndarray) -> np.ndarray:
    """norm(max(0, P_H - P_S)); the correction distribution on rejection."""
    r = np.maximum(p_target - p_draft, 0.0)
    total = r.sum()
    if total <= 0.0:
        raise ValueError("residual distribution has no mass")
    return r / total


def draft_k(model: HybridModel, mask: ComponentMask, state: DecodeState,
            pending: list[int], settings: DecodeSettings, rng: RngState):
    """Feed ``pending`` and draft ``settings.k`` tokens from the masked model.

    Makes exactly k forwards: the pending input (one or two tokens), then
    each drafted token but the last. Returns the draft plus rollback
    snapshots: ``snaps[j]`` restores the state to "pending input plus the
    first j drafted tokens consumed".
    """
    if state.mask != mask:
        raise ValueError("state was built under a different mask")
    if len(pending) == 0:
        raise ValueError("draft needs a pending input to feed")
    base_pos = state.pos + len(pending)
    tokens: list[int] = []
    dists: list[np.ndarray] = []
    snaps: list[SsmSnapshot] = []
    feed = list(pending)
    for _ in range(settings.k):
        logits, hist = model.forward_chunk(state, feed, record_states=True)
        snaps.append(hist[-1])
        dist = softmax(logits[-1], settings.temperature)
        tok = sample_categorical(dist, rng)
        tokens.append(tok)
        dists.append(dist)
        feed = [tok]
    return DraftSequence(tokens, dists, base_pos), snaps


def accept_draft(target_dists: list[np.ndarray] | np.ndarray,
                 draft: DraftSequence, rng: RngState) -> SpecRoundResult:
    """Pure acceptance core over precomputed distributions.

    ``target_dists`` holds k+1 target distributions (a list, or the rows of
    a (k+1, vocab) array): one per drafted position plus the bonus position.
    The distributions carry the temperature; at temperature 0 they are
    one-hot, so the rule accepts exactly on argmax agreement whatever the
    uniforms drawn.
    """
    k = draft.k
    if len(target_dists) != k + 1:
        raise ValueError(f"need {k + 1} target distributions, got {len(target_dists)}")
    matches = (np.argmax(draft.dists, axis=-1)
               == np.argmax(target_dists[:k], axis=-1)).tolist()
    accepted = 0
    while accepted < k:
        tok = draft.tokens[accepted]
        p_s = draft.dists[accepted][tok]
        p_h = target_dists[accepted][tok]
        if p_s <= 0.0:
            raise ValueError("drafted token has zero draft probability")
        if rng.uniform() < min(1.0, p_h / p_s):
            accepted += 1
        else:
            break
    if accepted == k:
        emitted = list(draft.tokens) + [sample_categorical(target_dists[k], rng)]
    else:
        res = residual_distribution(target_dists[accepted], draft.dists[accepted])
        emitted = list(draft.tokens[:accepted]) + [sample_categorical(res, rng)]
    return SpecRoundResult(accepted, emitted, matches)


def verify_and_accept(model: HybridModel, state: DecodeState, pending: int,
                      draft: DraftSequence, settings: DecodeSettings,
                      rng: RngState) -> SpecRoundResult:
    """Score a draft with the state's (full-mask) model and accept a prefix.

    All k+1 target distributions come from one (k+1)-row forward over the
    pending token plus the drafted tokens and one softmax over its rows,
    each row equal bit for bit to its own softmax. On return the state has
    consumed the pending token and the accepted drafts; the round's last
    emitted token is the next pending token.
    """
    if draft.base_pos != state.pos + 1:
        raise ValueError(
            f"draft was produced at position {draft.base_pos}, "
            f"verify state expects {state.pos + 1}")
    logits, hist = model.forward_chunk(state, [pending] + draft.tokens,
                                       record_states=True)
    result = accept_draft(softmax(logits, settings.temperature), draft, rng)
    if not result.all_accepted:
        state.restore(hist[result.accepted_count])
    return result


def _check_generation_budget(cfg: ModelConfig, prompt, settings: DecodeSettings,
                             lookahead: int):
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    need = len(prompt) + settings.max_new_tokens + lookahead
    if need > cfg.context_limit:
        raise ValueError(
            f"prompt + max_new_tokens needs {need} positions, "
            f"context_limit is {cfg.context_limit}")


def speculative_generate(model: HybridModel, strategy: DraftStrategy, prompt,
                         settings: DecodeSettings):
    """Draft-verify loop; returns (generated tokens, per-round results).

    The emitted stream follows the target model's distribution; at
    temperature 0 it matches autoregressive decoding token for token as long
    as no argmax margin is within float64 rounding. Every round emits between
    1 and k+1 tokens; the final round may overshoot ``max_new_tokens``, in
    which case the output is truncated but the round result is kept whole
    for statistics.
    """
    cfg = model.cfg
    _check_generation_budget(cfg, prompt, settings, settings.k + 1)
    draft_mask = build_mask(cfg, strategy)
    rng = RngState(settings.seed)
    _, vstate = model.forward_prefix(prompt[:-1])
    _, dstate = model.forward_prefix(prompt[:-1], draft_mask)
    pending = int(prompt[-1])
    draft_pending = [pending]
    out: list[int] = []
    rounds: list[SpecRoundResult] = []
    while len(out) < settings.max_new_tokens:
        draft, snaps = draft_k(model, draft_mask, dstate, draft_pending,
                               settings, rng)
        result = verify_and_accept(model, vstate, pending, draft, settings, rng)
        pending = result.emitted_tokens[-1]
        if result.all_accepted:
            draft_pending = [draft.tokens[-1], pending]
        else:
            dstate.restore(snaps[result.accepted_count])
            draft_pending = [pending]
        out.extend(result.emitted_tokens)
        rounds.append(result)
    return out[:settings.max_new_tokens], rounds


def autoregressive_generate(model: HybridModel, prompt,
                            settings: DecodeSettings) -> list[int]:
    """Plain one-token-at-a-time decoding; the speculative baseline.

    One ``decode_step`` per emitted token: each feeds the pending token (the
    prompt's last, then the last emitted) and samples the next.
    """
    _check_generation_budget(model.cfg, prompt, settings, 0)
    rng = RngState(settings.seed)
    _, state = model.forward_prefix(prompt[:-1])
    pending = int(prompt[-1])
    out: list[int] = []
    for _ in range(settings.max_new_tokens):
        dist = softmax(model.decode_step(state, pending), settings.temperature)
        pending = sample_categorical(dist, rng)
        out.append(pending)
    return out
