"""Each benchmark check passes on good output and fails on corrupted output.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

import copy
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
from spans import Span, Tracer, scored_positions  # noqa: E402


def _row(strategy, k, temp, counts, per_token, cost_ratio=0.5):
    alpha = sum(c == k for c in counts) / len(counts)
    a = min(per_token, 1.0 - 1e-9)
    return {
        "model": "par", "strategy": strategy, "k": str(k), "temperature": f"{temp:g}",
        "n_rounds": str(len(counts)), "alpha": f"{alpha:.10g}",
        "alpha_ci_low": f"{max(0.0, alpha - 0.1):.10g}",
        "alpha_ci_high": f"{min(1.0, alpha + 0.1):.10g}",
        "per_token_alpha": f"{per_token:.10g}",
        "mean_accepted_per_round": f"{sum(c + 1 for c in counts) / len(counts):.10g}",
        "match_rate": "1" if temp == 0.0 else "",
        "cost_ratio": f"{cost_ratio:.10g}",
        "speedup_theory": f"{checks.speedup(a, k, cost_ratio):.10g}",
    }


def _sweep():
    cells = {
        ("par", "component_only", 2, 0.0): [2, 0, 1, 2],
        ("par", "component_only", 2, 0.6): [1, 2, 2, 0],
        ("par", "identity", 2, 0.0): [2, 2, 2],
        ("par", "identity", 2, 0.6): [2, 2, 2],
    }
    rows, diags = [], {}
    for (model, strategy, k, temp), counts in cells.items():
        per_token = 1.0 if strategy == "identity" else 0.6
        rows.append(_row(strategy, k, temp, counts, per_token))
        diags[(model, strategy, k, temp)] = {
            "accepted_counts": counts, "all_accepted": [c == k for c in counts]}
    return rows, diags, set(cells)


def test_sweep_good_output_passes():
    rows, diags, grid = _sweep()
    assert checks.check_sweep(rows, diags, grid) == []


@pytest.mark.parametrize("row, field, value", [
    (0, "match_rate", "0.99"),           # greedy spec output differs from AR
    (0, "match_rate", ""),               # greedy cell without a match rate
    (1, "match_rate", "1"),              # match rate at T > 0
    (2, "alpha", "0.9"),                 # identity alpha < 1
    (3, "mean_accepted_per_round", "2.9"),  # identity below k+1 tokens/round
    (0, "alpha", "0.6"),                 # alpha not what the rounds give
    (1, "mean_accepted_per_round", "2.5"),
    (0, "alpha_ci_high", "0.45"),        # alpha outside its interval
    (0, "speedup_theory", "1.2"),        # not the closed form
    (0, "n_rounds", "5"),
])
def test_sweep_corrupted_row_fails(row, field, value):
    assert checks.check_sweep(*(_sweep_with(row, field, value)))


def _sweep_with(row, field, value):
    rows, diags, grid = _sweep()
    rows[row][field] = value
    return rows, diags, grid


def test_sweep_missing_cell_fails():
    rows, diags, grid = _sweep()
    assert checks.check_sweep(rows[1:], diags, grid)


def test_sweep_identity_rejection_in_rounds_fails():
    rows, diags, grid = _sweep()
    diags = copy.deepcopy(diags)
    diags[("par", "identity", 2, 0.6)] = {"accepted_counts": [2, 1, 2],
                                          "all_accepted": [True, False, True]}
    assert checks.check_sweep(rows, diags, grid)


def test_sweep_inconsistent_round_flags_fail():
    rows, diags, grid = _sweep()
    diags = copy.deepcopy(diags)
    diags[("par", "component_only", 2, 0.0)]["all_accepted"][1] = True
    assert checks.check_sweep(rows, diags, grid)


def test_greedy_prefix():
    assert checks.check_greedy_prefix("p", [1, 2, 3], [1, 2, 3]) == []
    assert checks.check_greedy_prefix("p", [1, 2, 3], [1, 2, 4])
    assert checks.check_greedy_prefix("p", [1, 2, 3], [1, 2])


def test_perplexity_matches_exp_mean_nll():
    nll = 2.345678
    assert checks.check_perplexity("p", math.exp(nll), nll) == []
    assert checks.check_perplexity("p", math.exp(nll) + 1e-3, nll)
    assert checks.check_perplexity("p", float("nan"), nll)


def test_divergence():
    assert checks.check_divergence("d", 0.0, 1.0, 255, 255, identity=True) == []
    assert checks.check_divergence("d", 0.2, 0.7, 255, 255, identity=False) == []
    assert checks.check_divergence("d", 1e-17, 1.0, 255, 255, identity=True)
    assert checks.check_divergence("d", 0.0, 0.996, 255, 255, identity=True)
    assert checks.check_divergence("d", 0.2, 0.7, 254, 255, identity=False)
    assert checks.check_divergence("d", 1.2, 0.7, 255, 255, identity=False)


def test_losses():
    assert checks.check_losses("t", [5.5, 5.4, 5.2, 5.1], tail=2) == []
    assert checks.check_losses("t", [5.5, 5.4, 5.5, 5.6], tail=2)
    assert checks.check_losses("t", [5.5, float("inf"), 5.2, 5.1], tail=2)
    assert checks.check_losses("t", [5.5, 5.4, 5.2, float("nan")], tail=2)
    assert checks.check_losses("t", [5.5, 5.4], tail=2)


def test_grad_and_repeat():
    assert checks.check_grad("g", 3e-6, 1e-4) == []
    assert checks.check_grad("g", 2e-4, 1e-4)
    assert checks.check_grad("g", float("nan"), 1e-4)
    assert checks.check_repeat("r", {"a": [1.0]}, {"a": [1.0]}) == []
    assert checks.check_repeat("r", {"a": [1.0]}, {"a": [1.0 + 1e-15]})


def test_scored_positions_follow_perplexity_windows():
    assert scored_positions(512, 256) == 510
    assert scored_positions(600, 256) == 510 + 87
    assert scored_positions(257, 256) == 255


def _fake_modules():
    """speclab._fake_a defines ``helper`` and ``Model``; speclab._fake_b
    imported ``helper`` by name and calls it from ``caller``."""
    import types
    a = types.ModuleType("speclab._fake_a")
    exec("def helper(x):\n    return 2 * x\n"
         "class Model:\n    def step(self, x):\n        return CALLER(x)\n",
         a.__dict__)
    b = types.ModuleType("speclab._fake_b")
    b.helper = a.helper
    exec("def caller(x):\n    return helper(x) + 1\n", b.__dict__)
    a.CALLER = b.caller
    return a, b


def test_tracer_patches_every_importer_and_restores():
    a, b = _fake_modules()
    sys.modules.update({a.__name__: a, b.__name__: b})
    original_step, original_helper = a.Model.step, a.helper
    try:
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.install({
            "fake.step": ("speclab._fake_a", "Model.step", lambda args, r: {"x": args[1]}),
            "fake.helper": ("speclab._fake_a", "helper", lambda args, r: {"out": r}),
        })
        try:
            assert a.Model().step(3) == 7
        finally:
            tracer.uninstall()
        assert a.Model.step is original_step
        assert a.helper is original_helper and b.helper is original_helper
        outer, inner = tracer.spans
        assert (outer.name, outer.parent, outer.attrs) == ("fake.step", None, {"x": 3})
        assert (inner.name, inner.parent, inner.attrs) == ("fake.helper", outer.id, {"out": 6})
        assert inner.stream == outer.stream
        assert outer.start < inner.start < inner.end < outer.end
        assert isinstance(outer, Span) and outer.duration == 3
    finally:
        del sys.modules[a.__name__], sys.modules[b.__name__]
