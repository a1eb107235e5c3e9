"""Attention-removal diagnostic: perplexity degradation predicts whether
component-aware self-speculation is worth attempting on an architecture.

The single number is the ratio of perplexity with the attention pathway
suppressed to baseline perplexity, measured on the same corpus. Small ratios
mean the alternative pathway alone is a competent language model (drafts will
be accepted); catastrophic ratios mean it is not. The thresholds are 5x
(below: viable) and 20x (above: not viable); the band in between is reported
as uncertain rather than forced into a verdict.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .engine import DraftStrategy, build_mask
from .metrics import perplexity
from .model import HybridModel

VIABLE_BELOW = 5.0
NON_VIABLE_ABOVE = 20.0

VERDICTS = ("viable", "uncertain", "non_viable")


def classify_viability(ppl_ratio: float) -> str:
    """Map a perplexity-degradation ratio to a verdict."""
    if ppl_ratio <= 0.0:
        raise ValueError("ppl_ratio must be positive")
    if ppl_ratio < VIABLE_BELOW:
        return "viable"
    if ppl_ratio > NON_VIABLE_ABOVE:
        return "non_viable"
    return "uncertain"


@dataclass(frozen=True)
class AblationReport:
    ppl_base: float
    ppl_no_attn: float
    ppl_ratio: float
    verdict: str

    def __post_init__(self):
        if self.ppl_base <= 0.0 or self.ppl_no_attn <= 0.0:
            raise ValueError("perplexities must be positive")
        if abs(self.ppl_ratio - self.ppl_no_attn / self.ppl_base) > 1e-9:
            raise ValueError("ppl_ratio inconsistent with its factors")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def ablate_and_score(model: HybridModel, corpus_tokens) -> AblationReport:
    """Score a checkpoint with and without its attention pathway.

    The no-attention run uses the component_only mask for the model's
    architecture, so a transformer is rejected here the same way it is
    rejected as a draft strategy.
    """
    draft_mask = build_mask(model.cfg, DraftStrategy("component_only"))
    ppl_base = perplexity(model, None, corpus_tokens)
    ppl_no_attn = perplexity(model, draft_mask, corpus_tokens)
    ratio = ppl_no_attn / ppl_base
    return AblationReport(
        ppl_base=ppl_base,
        ppl_no_attn=ppl_no_attn,
        ppl_ratio=ratio,
        verdict=classify_viability(ratio),
    )
