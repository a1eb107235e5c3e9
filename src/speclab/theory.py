"""Analytical layer: expected round yield, speedup, cost ratios, optimal k.

With per-token acceptance probability ``alpha`` and draft length ``k``, a
speculation round yields ``(1 - alpha^(k+1)) / (1 - alpha)`` tokens in
expectation (the k+1 covers the bonus token on full acceptance), and the
speedup over autoregressive decoding is that yield divided by the round cost
``1 + k * c_draft/c_verify``. The cost ratio is estimated by counting the
parameters touched per token under the draft mask versus the full mask: the
sizes of the :func:`~speclab.model.param_spec` blocks the mask runs, as
:func:`~speclab.model.mask_blocks` lists them. The proxy deliberately
excludes sequence-length-dependent attention-score work.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .engine import DraftStrategy, build_mask
from .model import ComponentMask, ModelConfig, mask_blocks, param_spec


@dataclass(frozen=True)
class CostModel:
    cost_ratio: float
    draft_param_fraction: float
    notes: str

    def __post_init__(self):
        if not 0.0 < self.cost_ratio <= 1.0:
            raise ValueError("cost_ratio must be in (0, 1]")


def expected_tokens(alpha: float, k: int) -> float:
    """Expected emitted tokens per round; in [1, k+1]."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1); the limit at 1 is k+1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if alpha == 0.0:
        return 1.0
    return (1.0 - alpha ** (k + 1)) / (1.0 - alpha)


def speedup(alpha: float, k: int, cost_ratio: float) -> float:
    """Round yield over round cost."""
    if cost_ratio <= 0.0:
        raise ValueError("cost_ratio must be positive")
    return expected_tokens(alpha, k) / (1.0 + k * cost_ratio)


def per_token_from_all_token(alpha_k: float, k: int) -> float:
    """k-th root conversion of an all-token rate alpha(k) to a per-token rate.

    Exact only if positions were independent with equal acceptance
    probability; treat as an approximation.
    """
    if not 0.0 <= alpha_k <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    return alpha_k ** (1.0 / k)


def params_per_token(cfg: ModelConfig, mask: ComponentMask | None) -> int:
    """Parameters touched to produce one token under a mask (``None``: the
    full mask).

    Sums the :func:`param_spec` sizes of the blocks :func:`mask_blocks` says
    the mask runs, plus one embedding row, one position row, the final norm
    and the head. KV-cache reads and attention-score work (which grow with
    sequence length) are deliberately not parameters and not counted.
    """
    sizes: Counter[str] = Counter()  # "layers.3.attn", "embed", "head_w", ...
    for name, shape in param_spec(cfg):
        sizes[name.rsplit(".", 1)[0]] += math.prod(shape)
    total = sizes["final_norm_g"] + sizes["head_w"]
    total += sizes["embed"] // cfg.vocab_size  # one embedding row
    total += sizes["pos_embed"] // cfg.context_limit  # one position row
    for i, runs_attn, runs_alt in mask_blocks(cfg, mask):
        total += sizes[f"layers.{i}.ffn"]
        if runs_attn:
            total += sizes[f"layers.{i}.attn"]
        if runs_alt:
            total += sizes[f"layers.{i}.ssm"]
    return total


def flop_ratio(cfg: ModelConfig, strategy: DraftStrategy) -> CostModel:
    """Draft-to-verify cost ratio for a strategy on a model: the
    parameter-count proxy."""
    fraction = params_per_token(cfg, build_mask(cfg, strategy)) / \
        params_per_token(cfg, None)
    notes = ("parameter-count proxy; excludes sequence-length-dependent "
             "attention-score compute")
    return CostModel(min(1.0, fraction), fraction, notes)


def optimal_k(alpha_per_token: float, cost_ratio: float, k_max: int) -> int:
    """Draft length maximizing the modelled speedup; ties go to smaller k."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not 0.0 <= alpha_per_token < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    best_k, best_s = 1, -math.inf
    for k in range(1, k_max + 1):
        s = speedup(alpha_per_token, k, cost_ratio)
        if s > best_s:
            best_k, best_s = k, s
    return best_k


def speedup_readings(alpha: float, k: int, cost_ratio: float) -> dict:
    """Both defensible readings of a reported acceptance rate.

    ``direct`` treats ``alpha`` as the per-token probability of the round
    model; ``all_token_converted`` first converts an all-token rate alpha(k)
    to per-token by the k-th root. Reported side by side because published
    summary numbers do not always say which convention they used.
    """
    direct = speedup(alpha, k, cost_ratio)
    converted = speedup(per_token_from_all_token(alpha, k), k, cost_ratio)
    return {
        "alpha_input": alpha,
        "k": k,
        "cost_ratio": cost_ratio,
        "speedup_direct": direct,
        "speedup_all_token_converted": converted,
        "expected_tokens_direct": expected_tokens(alpha, k),
        "expected_tokens_all_token_converted": expected_tokens(
            per_token_from_all_token(alpha, k), k),
    }
