"""Empirical quantities: acceptance rates, divergence, match rate, perplexity.

Acceptance statistics aggregate speculation rounds from one experimental cell
(same model, strategy, k and temperature). The all-token rate is the fraction
of rounds in which every drafted token was accepted; at temperature 0 that is
the greedy argmax-agreement product, at temperature > 0 it is the realized
accept/reject outcome. Uncertainty comes from a percentile bootstrap over
rounds. Teacher-forced divergence scores each prompt with one
multi-mask forward, whose leading layers the draft shares with the target
run once, and computes distributions, agreement and distances over all of
the prompt's positions as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    DecodeSettings,
    DraftStrategy,
    SpecRoundResult,
    autoregressive_generate,
    speculative_generate,
)
from .model import ComponentMask, HybridModel
from .numerics import RngState, log_softmax, softmax


@dataclass(frozen=True)
class AcceptanceStats:
    all_token_alpha: float
    per_token_alpha: float
    mean_accepted_per_round: float
    n_rounds: int
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.ci_low - 1e-12 <= self.all_token_alpha <= self.ci_high + 1e-12):
            raise ValueError("confidence interval must bracket the point estimate")


@dataclass(frozen=True)
class DivergenceStats:
    tv_mean: float
    top1_agreement: float
    n_positions: int


BOOTSTRAP_RESAMPLES = 10_000


def bootstrap_ci(samples, resamples: int = BOOTSTRAP_RESAMPLES,
                 seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap 95% interval for the mean, deterministic under seed."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if arr.min() == arr.max():
        # degenerate data: every resample mean is the same value exactly
        return float(arr[0]), float(arr[0])
    rng = RngState(seed)
    n = arr.size
    means = np.empty(resamples)
    block = max(1, min(resamples, 2_000_000 // max(n, 1)))
    done = 0
    while done < resamples:
        take = min(block, resamples - done)
        idx = rng.resample_indices(n, (take, n))
        means[done:done + take] = arr[idx].mean(axis=1)
        done += take
    lo, hi = np.quantile(means, [(1.0 - 0.95) / 2.0, 1.0 - (1.0 - 0.95) / 2.0])
    return float(lo), float(hi)


def all_token_alpha(rounds: list[SpecRoundResult], k: int,
                    seed: int = 0) -> AcceptanceStats:
    """Aggregate rounds of one (model, strategy, k, T) cell; the interval
    takes ``BOOTSTRAP_RESAMPLES`` resamples."""
    if not rounds:
        raise ValueError("no rounds to aggregate")
    if any(r.k != k for r in rounds):
        raise ValueError("rounds mix different draft lengths")
    accepted = np.array([r.all_accepted for r in rounds], dtype=np.float64)
    flags = np.array([f for r in rounds for f in r.per_position_match],
                     dtype=np.float64)
    emitted = np.array([len(r.emitted_tokens) for r in rounds], dtype=np.float64)
    lo, hi = bootstrap_ci(accepted, seed=seed)
    alpha = float(accepted.mean())
    return AcceptanceStats(
        all_token_alpha=alpha,
        per_token_alpha=float(flags.mean()),
        mean_accepted_per_round=float(emitted.mean()),
        n_rounds=len(rounds),
        ci_low=min(lo, alpha),
        ci_high=max(hi, alpha),
    )


def tv_distance(p: np.ndarray, q: np.ndarray):
    """Total variation distance 0.5 * sum |p - q| along the last axis: a
    float for 1-D inputs, one distance per row otherwise.

    Under the rejection rule a drafted token from ``p`` is accepted against
    ``q`` with probability 1 - TV(p, q) (Leviathan et al. 2023, section 3).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim == 0:
        raise ValueError("distributions must share a vocabulary")
    tv = 0.5 * np.abs(p - q).sum(axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def divergence_stats(model: HybridModel, draft_mask: ComponentMask,
                     prompts) -> DivergenceStats:
    """Draft-vs-full distribution divergence, teacher-forced over prompts.

    Scores every next-token distribution along each prompt (positions are
    pooled across prompts; the count is reported). Each prompt takes one
    :meth:`HybridModel.forward_masks` call, which runs the leading layers
    the draft shares with the target once; the distributions, their argmax
    agreement and their distances are then computed over all of the
    prompt's positions as arrays.
    """
    masks = [ComponentMask.full(model.cfg.n_layers), draft_mask]
    tvs, agree = [], 0
    for prompt in prompts:
        if len(prompt) == 0:
            continue
        p_h, p_s = (softmax(x, 1.0) for x in model.forward_masks(prompt, masks))
        tvs.append(tv_distance(p_s, p_h))
        agree += int(np.sum(np.argmax(p_s, axis=-1) == np.argmax(p_h, axis=-1)))
    if not tvs:
        raise ValueError("no positions scored")
    tvs = np.concatenate(tvs)
    return DivergenceStats(tv_mean=float(np.mean(tvs)),
                           top1_agreement=agree / tvs.size,
                           n_positions=tvs.size)


def match_rate(model: HybridModel, strategies, prompts,
               settings: DecodeSettings) -> tuple[list[float], list[list[int]]]:
    """Per strategy, the fraction of prompts whose speculative and
    autoregressive outputs are token-identical; also returns the
    autoregressive output of each prompt, decoded once for all strategies.
    Greedy decoding only; sampled runs consume randomness differently and are
    compared distributionally instead."""
    if settings.temperature != 0.0:
        raise ValueError("match_rate is defined for temperature 0")
    prompts = list(prompts)
    if not prompts:
        raise ValueError("no prompts")
    ar = [autoregressive_generate(model, prompt, settings) for prompt in prompts]
    rates = []
    for strategy in strategies:
        hits = sum(speculative_generate(model, strategy, prompt, settings)[0] == out
                   for prompt, out in zip(prompts, ar))
        rates.append(hits / len(prompts))
    return rates, ar


def greedy_margin(model: HybridModel, prompts,
                  continuations) -> tuple[float, int, int]:
    """Smallest top-1/top-2 logit gap along the target's greedy
    ``continuations`` of the prompts (as :func:`match_rate` returns them), as
    (gap, prompt index, continuation position).

    The gaps come from one forward over prompt + continuation per prompt.
    Chunk and one-row step logits differ by about 1e-14, so only a gap that
    small could let speculative and autoregressive greedy outputs part.
    """
    best = (float("inf"), -1, -1)
    for i, (prompt, out) in enumerate(zip(prompts, continuations)):
        logits, _ = model.forward_prefix(list(prompt) + out[:-1])
        top2 = np.sort(logits[len(prompt) - 1:], axis=1)[:, -2:]
        gaps = top2[:, 1] - top2[:, 0]
        j = int(np.argmin(gaps))
        if gaps[j] < best[0]:
            best = (float(gaps[j]), i, j)
    return best


def perplexity(model: HybridModel, mask: ComponentMask | None,
               corpus_tokens) -> float:
    """exp(mean next-token NLL) under the masked model (``None``: the full
    model).

    The corpus is scored in non-overlapping context-length windows, so each
    token is scored at most once; the first token of a window is never
    scored. Nothing continues a window, so each is scored by the stateless
    :meth:`HybridModel.forward_masks`, which equals ``forward_prefix`` bit
    for bit and allocates no KV cache.
    """
    tokens = np.asarray(corpus_tokens, dtype=np.int64).ravel()
    if tokens.size < 2:
        raise ValueError("corpus must hold at least two tokens")
    window = model.cfg.context_limit
    total_nll = 0.0
    scored = 0
    for start in range(0, tokens.size - 1, window):
        chunk = tokens[start:start + window]
        logits = model.forward_masks(chunk, [mask])[0]
        logp = log_softmax(logits[:-1])
        targets = chunk[1:]
        total_nll += float(-logp[np.arange(targets.size), targets].sum())
        scored += targets.size
    return float(np.exp(total_nll / scored))
