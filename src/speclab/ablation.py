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


@dataclass(frozen=True)
class CorrelationReport:
    """Rank check across (ablation, acceptance) cells: does a larger
    perplexity ratio always come with a smaller acceptance rate?"""

    rows: tuple[tuple[float, float], ...]
    inverse_ordering_holds: bool
    degenerate: bool
    kendall_tau: float | None = None

    def table(self) -> str:
        lines = ["ppl_ratio  all_token_alpha"]
        for ratio, alpha in self.rows:
            lines.append(f"{ratio:9.3f}  {alpha:.4f}")
        return "\n".join(lines)


def correlation_report(cells) -> CorrelationReport:
    """Check the inverse ordering over ≥2 (AblationReport, AcceptanceStats)
    cells. Tied pairs are skipped; if every pair is tied the ordering is
    vacuous and flagged degenerate."""
    cells = list(cells)
    if len(cells) < 2:
        raise ValueError("need at least two cells to check an ordering")
    rows = tuple((rep.ppl_ratio, acc.all_token_alpha) for rep, acc in cells)
    comparable = 0
    inverse = True
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            dr = rows[i][0] - rows[j][0]
            da = rows[i][1] - rows[j][1]
            if dr == 0.0 or da == 0.0:
                continue
            comparable += 1
            if dr * da > 0.0:
                inverse = False
    degenerate = comparable == 0
    tau = None
    if not degenerate:
        # scipy.stats is heavy to load and this is its only use, so
        # importing speclab does not load it
        from scipy import stats

        ratios = [r for r, _ in rows]
        alphas = [a for _, a in rows]
        tau_val = stats.kendalltau(ratios, alphas).statistic
        tau = None if tau_val != tau_val else float(tau_val)  # NaN guard
    return CorrelationReport(rows=rows, inverse_ordering_holds=inverse,
                             degenerate=degenerate, kendall_tau=tau)
