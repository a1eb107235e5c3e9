"""Correctness checks on what the workloads produce.

Each check returns a list of failure messages (empty when the output is
right). They compare the program's outputs against properties of the method
or against a separate computation, never against a stored copy of an
earlier run, and they import nothing from speclab so that a fault in the
program cannot hide in the check.
"""

from __future__ import annotations

import math

# report.csv prints floats with 10 significant digits
REPORT_RTOL = 1e-8
# perplexity (decode-path forward, one window at a time) against
# exp(mean NLL) of the batched training forward, both float64: the two sum
# in different orders, so they agree to rounding, far inside this
PERPLEXITY_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def cell_key(row) -> tuple:
    return (row["model"], row["strategy"], int(row["k"]), float(row["temperature"]))


def expected_tokens(alpha: float, k: int) -> float:
    """E[tokens per round] = (1 - a^(k+1)) / (1 - a), Leviathan et al. 2023."""
    if alpha == 0.0:
        return 1.0
    return (1.0 - alpha ** (k + 1)) / (1.0 - alpha)


def speedup(alpha: float, k: int, cost_ratio: float) -> float:
    return expected_tokens(alpha, k) / (1.0 + k * cost_ratio)


def check_sweep(rows: list[dict], diagnostics: dict[tuple, dict],
                expected_cells: set[tuple]) -> list[str]:
    """Rows of ``report.csv`` against the sweep grid, the per-round
    diagnostics of each cell file and the closed-form speedup model.

    ``diagnostics`` maps a cell key (model, strategy, k, temperature) to the
    cell file's ``diagnostics`` object.
    """
    errors = []
    keys = [cell_key(r) for r in rows]
    if sorted(keys) != sorted(expected_cells):
        missing = sorted(set(expected_cells) - set(keys))
        extra = sorted(set(keys) - set(expected_cells))
        errors.append(f"report cells differ from the grid: missing {missing}, "
                      f"unexpected {extra}")
    for row, key in zip(rows, keys):
        name = "/".join(str(x) for x in key)
        k, temp = key[2], key[3]
        alpha = float(row["alpha"])
        tokens_per_round = float(row["mean_accepted_per_round"])
        if temp == 0.0:
            if row["match_rate"] == "" or float(row["match_rate"]) != 1.0:
                errors.append(f"{name}: greedy match rate {row['match_rate']!r}, "
                              "speculative output differs from autoregressive")
        elif row["match_rate"] != "":
            errors.append(f"{name}: match rate reported at T>0")
        if row["strategy"] == "identity":
            if alpha != 1.0 or tokens_per_round != k + 1:
                errors.append(f"{name}: identity draft has alpha {alpha} and "
                              f"{tokens_per_round} tokens/round, expected 1 and {k + 1}")
        if not float(row["alpha_ci_low"]) <= alpha <= float(row["alpha_ci_high"]):
            errors.append(f"{name}: alpha {alpha} outside its interval "
                          f"[{row['alpha_ci_low']}, {row['alpha_ci_high']}]")
        diag = diagnostics.get(key)
        if diag is None:
            errors.append(f"{name}: no cell file")
            continue
        counts = diag["accepted_counts"]
        if int(row["n_rounds"]) != len(counts) or not counts:
            errors.append(f"{name}: {row['n_rounds']} rounds in the report, "
                          f"{len(counts)} in the cell file")
            continue
        if any(c < 0 or c > k for c in counts) or \
                diag["all_accepted"] != [c == k for c in counts]:
            errors.append(f"{name}: per-round accept counts inconsistent")
        if row["strategy"] == "identity" and any(c != k for c in counts):
            errors.append(f"{name}: identity draft rejected a token")
        alpha_rounds = sum(c == k for c in counts) / len(counts)
        tokens_rounds = sum(c + 1 for c in counts) / len(counts)
        if not _close(alpha_rounds, alpha, REPORT_RTOL):
            errors.append(f"{name}: alpha {alpha} but the rounds give {alpha_rounds}")
        if not _close(tokens_rounds, tokens_per_round, REPORT_RTOL):
            errors.append(f"{name}: {tokens_per_round} tokens/round but the "
                          f"rounds give {tokens_rounds}")
        a = min(float(row["per_token_alpha"]), 1.0 - 1e-9)
        s = speedup(a, k, float(row["cost_ratio"]))
        if not _close(s, float(row["speedup_theory"]), REPORT_RTOL):
            errors.append(f"{name}: speedup_theory {row['speedup_theory']} but "
                          f"the closed form gives {s}")
    return errors


def check_greedy_prefix(name: str, generated: list[int],
                        prefix_argmax: list[int]) -> list[str]:
    """Greedy decoding must pick, at every step, the argmax of one
    full-sequence forward over prompt + generated tokens."""
    if list(generated) != list(prefix_argmax):
        first = next((i for i, (a, b) in enumerate(zip(generated, prefix_argmax))
                      if a != b), min(len(generated), len(prefix_argmax)))
        return [f"{name}: greedy continuation departs from the full-sequence "
                f"argmax at token {first}"]
    return []


def check_perplexity(name: str, ppl: float, mean_nll: float) -> list[str]:
    ref = math.exp(mean_nll)
    if not (math.isfinite(ppl) and _close(ppl, ref, PERPLEXITY_RTOL)):
        return [f"{name}: perplexity {ppl!r} but exp(mean NLL) of the batched "
                f"forward is {ref!r}"]
    return []


def check_divergence(name: str, tv_mean: float, top1: float, n_positions: int,
                     expected_positions: int, identity: bool) -> list[str]:
    errors = []
    if n_positions != expected_positions:
        errors.append(f"{name}: {n_positions} positions scored, expected "
                      f"{expected_positions}")
    if identity and (tv_mean != 0.0 or top1 != 1.0):
        errors.append(f"{name}: identity draft has TV {tv_mean!r} and top-1 "
                      f"{top1!r}, expected exactly 0 and 1")
    if not (0.0 <= tv_mean <= 1.0 and 0.0 <= top1 <= 1.0):
        errors.append(f"{name}: TV {tv_mean!r} or top-1 {top1!r} outside [0, 1]")
    return errors


def check_losses(name: str, losses: list[float], tail: int) -> list[str]:
    """Every step's loss is finite and the last ``tail`` steps average below
    the first ``tail``."""
    if len(losses) < 2 * tail or tail < 1:
        return [f"{name}: {len(losses)} losses, need {2 * tail}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"{name}: non-finite loss in {losses}"]
    first = sum(losses[:tail]) / tail
    last = sum(losses[-tail:]) / tail
    if not last < first:
        return [f"{name}: loss did not fall, first {first:.4f}, last {last:.4f}"]
    return []


def check_grad(name: str, deviation: float, tol: float) -> list[str]:
    if not (math.isfinite(deviation) and deviation < tol):
        return [f"{name}: gradient check deviation {deviation!r} >= {tol}"]
    return []


def check_repeat(name: str, first, again) -> list[str]:
    """A round repeated on the same inputs gives the same numbers."""
    if first != again:
        return [f"{name}: repeated round differs: {first!r} vs {again!r}"]
    return []
