"""Acceptance gate: every exit criterion, each reporting one summary line.

Criteria 1-4 exercise the decoding engine on the trained toy checkpoints,
5 pins the analytical layer, 6-8 read the measured sweep, 9 validates the
gradients and 10 the statistics machinery. Tolerances are stated inline;
nothing is calibrated after the fact.
"""

import time

import numpy as np
from scipy import stats as scipy_stats

from speclab.ablation import ablate_and_score, classify_viability
from speclab.engine import (
    DecodeSettings,
    DraftSequence,
    DraftStrategy,
    accept_draft,
    build_mask,
    decode_prompts,
    residual_distribution,
    speculative_generate,
)
from speclab.corpus import sample_prompts
from speclab.metrics import (
    bootstrap_ci,
    divergence_stats,
    match_rate,
    tv_distance,
)
from speclab.model import HybridModel, ModelConfig, Weights, init_weights
from speclab.numerics import RngState, sample_categorical, softmax
from speclab.theory import expected_tokens, speedup, speedup_readings
from speclab.training import grad_check

STRATEGIES_BY_ARCH = {
    "parallel_hybrid": ("component_only", "layer_skip", "early_exit", "identity"),
    "sequential_hybrid": ("component_only", "layer_skip", "early_exit", "identity"),
}


def series(rows, model_substr, strategy, temp):
    """alpha by k for one (model, strategy, T) series of the sweep."""
    out = {}
    for r in rows:
        if (model_substr in r["model"] and r["strategy"] == strategy
                and float(r["temperature"]) == temp):
            out[int(r["k"])] = r
    return out


def holds(a: float, b: float) -> str:
    """The comparison operator that holds between ``a`` and ``b``, so that
    a gate line states what was measured."""
    return "<" if a < b else ">" if a > b else "="


class TestCriterion1LosslessnessGreedy:
    def test_every_strategy_matches_autoregressive(self, toy_lab, criterion):
        t0 = time.perf_counter()
        prompts = sample_prompts(toy_lab["eval_tokens"], 100, 16, seed=31)
        settings = DecodeSettings(k=2, temperature=0.0, max_new_tokens=64,
                                  seed=0)
        rates = {}
        for arch, model in toy_lab["models"].items():
            ar = decode_prompts(model, None, prompts, settings)[0]
            for kind in STRATEGIES_BY_ARCH[arch]:
                outputs = decode_prompts(model, DraftStrategy(kind), prompts,
                                         settings)[0]
                rates[f"{arch}/{kind}"] = match_rate(outputs, ar)
        elapsed = time.perf_counter() - t0
        all_exact = all(r == 1.0 for r in rates.values())
        lowest = min(rates.values())
        criterion(
            "C1 losslessness (greedy)",
            all_exact and elapsed < 120.0,
            f"lowest match rate {lowest:.3f} on {len(rates)} (model, strategy) "
            f"cells, 100 prompts x 64 tokens, {elapsed:.0f}s "
            f"{holds(elapsed, 120.0)} 120s")


class TestCriterion2LosslessnessSampling:
    def enumerate_first_token_marginal(self, ps, ph):
        # exhaustive outcome tree: draft x, accept with min(1, ph/ps), else
        # correction from the engine's residual distribution
        marginal = np.zeros_like(ph)
        for x in range(ps.size):
            if ps[x] == 0.0:
                continue
            acc = min(1.0, ph[x] / ps[x])
            marginal[x] += ps[x] * acc
            reject_mass = ps[x] * (1.0 - acc)
            if reject_mass > 0.0:
                marginal += reject_mass * residual_distribution(ph, ps)
        return marginal

    def test_exact_enumeration_and_monte_carlo(self, criterion):
        # vocab-8 micro model: exact tree enumeration
        cfg8 = ModelConfig("parallel_hybrid", n_layers=2, d_model=16,
                           n_heads=2, d_state=4, vocab_size=8,
                           context_limit=32)
        m8 = HybridModel.from_seed(cfg8, 5)
        mask = build_mask(cfg8, DraftStrategy("component_only"))
        worst = 0.0
        for temp in (0.6, 1.0):
            full, _ = m8.forward_prefix([1, 4, 2])
            drafted, _ = m8.forward_prefix([1, 4, 2], mask)
            ps = softmax(drafted[-1], temp)
            ph = softmax(full[-1], temp)
            worst = max(worst, np.abs(
                self.enumerate_first_token_marginal(ps, ph) - ph).max())
        # vocab-256 model: 200k one-round trials through the accept core
        cfg256 = ModelConfig("parallel_hybrid", n_layers=2, d_model=16,
                             n_heads=2, d_state=4, vocab_size=256,
                             context_limit=32)
        m256 = HybridModel.from_seed(cfg256, 9)
        full, _ = m256.forward_prefix([10, 20, 30])
        drafted, _ = m256.forward_prefix(
            [10, 20, 30], build_mask(cfg256, DraftStrategy("component_only")))
        temp = 0.6
        ps = softmax(drafted[-1], temp)
        ph = softmax(full[-1], temp)
        n = 200_000
        rng = RngState(99)
        counts = np.zeros(256, dtype=np.int64)
        for _ in range(n):
            tok = sample_categorical(ps, rng)
            draft = DraftSequence([tok], [ps], base_pos=0)
            res = accept_draft([ph, ph], draft, rng)
            counts[res.emitted_tokens[0]] += 1
        expected = ph * n
        # merge low-expectation bins so the chi-square approximation is
        # valid; the merged bin exists only when some bin falls below 5
        big = expected >= 5.0
        obs, exp = counts[big], expected[big]
        if not big.all():
            obs = np.append(obs, counts[~big].sum())
            exp = np.append(exp, expected[~big].sum())
        _, pval = scipy_stats.chisquare(obs, exp * (obs.sum() / exp.sum()))
        criterion(
            "C2 losslessness (sampling)",
            worst < 1e-12 and pval > 0.01,
            f"enumeration error {worst:.2e} < 1e-12; chi-square p={pval:.3f} "
            f"> 0.01 over 200k trials at vocab 256")


class TestCriterion3IdentityBound:
    def test_identity_strategy_is_perfect(self, toy_lab, criterion):
        model = toy_lab["models"]["parallel_hybrid"]
        prompts = sample_prompts(toy_lab["eval_tokens"], 12, 12, seed=17)
        ok = True
        for temp in (0.0, 0.6):
            for k in (1, 2, 8):
                settings = DecodeSettings(k=k, temperature=temp,
                                          max_new_tokens=24, seed=3)
                for p in prompts:
                    _, rounds = speculative_generate(
                        model, DraftStrategy("identity"), p, settings)
                    ok = ok and all(r.all_accepted for r in rounds)
        div = divergence_stats(
            model, build_mask(model.cfg, DraftStrategy("identity")),
            prompts)
        ok = ok and div.tv_mean == 0.0 and div.top1_agreement == 1.0
        criterion(
            "C3 identity-strategy bound",
            ok,
            "alpha(k) = 1.0 exactly for k in {1,2,8}, T in {0,0.6}; "
            "D_TV = 0.0 exactly")


class TestCriterion4ConstructedEquality:
    def test_zeroed_attention_makes_draft_exact(self, toy_lab, criterion):
        base = toy_lab["models"]["parallel_hybrid"]
        weights = Weights(base.cfg,
                          {n: a.copy() for n, a in base.weights.items()})
        for i in range(base.cfg.n_layers):
            for p in ("wq", "wk", "wv", "wo"):
                weights[f"layers.{i}.attn.{p}"][:] = 0.0
        model = HybridModel(base.cfg, weights)
        prompts = sample_prompts(toy_lab["eval_tokens"], 15, 12, seed=23)
        strategy = DraftStrategy("component_only")
        all_ok = True
        for temp, k in ((0.0, 2), (0.0, 4), (0.6, 2)):
            settings = DecodeSettings(k=k, temperature=temp,
                                      max_new_tokens=24, seed=1)
            for p in prompts:
                _, rounds = speculative_generate(model, strategy, p, settings)
                all_ok = all_ok and all(r.all_accepted for r in rounds)
        report = ablate_and_score(model, toy_lab["eval_tokens"][:8000])
        criterion(
            "C4 constructed-equality probe",
            all_ok and report.ppl_ratio == 1.0,
            f"zero-attention parallel checkpoint: alpha = 1.0 on every round; "
            f"ppl_ratio = {report.ppl_ratio} exactly; verdict {report.verdict}")


class TestCriterion5TheoryReproduction:
    def test_pinned_values(self, criterion):
        et_ok = abs(expected_tokens(0.5, 2) - 1.75) < 1e-12
        s = speedup(0.680, 2, 0.784)
        readings = speedup_readings(0.680, 2, 0.784)
        s_ok = abs(s - 0.834) < 1e-3
        # the published 0.92 for this operating point sits between the two
        # defensible readings; report both alongside the direct evaluation
        bracket_ok = (readings["speedup_direct"] < 0.92
                      < readings["speedup_all_token_converted"])
        conv_ok = abs(readings["speedup_all_token_converted"] - 0.975) < 1e-3
        cls_ok = (classify_viability(3.15) == "viable"
                  and classify_viability(81.96) == "non_viable")
        criterion(
            "C5 theory reproduction",
            et_ok and s_ok and bracket_ok and conv_ok and cls_ok,
            f"expected_tokens(0.5,2)=1.75; speedup(0.680,2,0.784)={s:.4f} "
            f"(direct) vs 0.92 quoted, all-token reading "
            f"{readings['speedup_all_token_converted']:.4f}; 3.15->viable, "
            f"81.96->non_viable")


class TestCriterion6AlphaMonotonicity:
    def test_alpha_never_increases_with_k(self, acceptance_sweep, criterion):
        rows = acceptance_sweep["rows"]
        seriess = sorted({(r["model"], r["strategy"], float(r["temperature"]))
                          for r in rows})
        ok = True
        checked = 0
        for model, strategy, temp in seriess:
            cells = series(rows, model, strategy, temp)
            ks = sorted(cells)
            for k_small, k_big in zip(ks, ks[1:]):
                a_small = float(cells[k_small]["alpha"])
                big = cells[k_big]
                a_big = float(big["alpha"])
                half_width = (float(big["alpha_ci_high"])
                              - float(big["alpha_ci_low"])) / 2.0
                checked += 1
                if a_small < a_big - half_width:
                    ok = False
        criterion(
            "C6 alpha monotonicity",
            ok and checked >= 12,
            f"alpha(2) >= alpha(4) >= alpha(8) within one bootstrap "
            f"half-width on {len(seriess)} series ({checked} adjacent pairs, "
            f"200-prompt cells)")


class TestCriterion7ArchitecturalDeterminism:
    def test_parallel_beats_sequential_under_component_drafting(
            self, toy_lab, acceptance_sweep, criterion):
        rows = acceptance_sweep["rows"]
        par = series(rows, "parallel", "component_only", 0.0)
        seq = series(rows, "sequential", "component_only", 0.0)
        alpha_par2, alpha_seq2 = float(par[2]["alpha"]), float(seq[2]["alpha"])
        alpha_par4, alpha_seq4 = float(par[4]["alpha"]), float(seq[4]["alpha"])
        ppl_par = ablate_and_score(toy_lab["models"]["parallel_hybrid"],
                                   toy_lab["eval_tokens"]).ppl_ratio
        ppl_seq = ablate_and_score(toy_lab["models"]["sequential_hybrid"],
                                   toy_lab["eval_tokens"]).ppl_ratio
        budget = toy_lab["train_seconds"] + acceptance_sweep["sweep_seconds"]
        # with ppl_par < ppl_seq required, the inverse ordering of ppl_ratio
        # and alpha(4) over the two cells is alpha_par(4) > alpha_seq(4)
        ok = (alpha_par2 > alpha_seq2 and ppl_par < ppl_seq
              and alpha_par4 > alpha_seq4 and budget < 2700.0)
        criterion(
            "C7 architectural determinism (directional)",
            ok,
            f"alpha_par(2)={alpha_par2:.3f} {holds(alpha_par2, alpha_seq2)} "
            f"alpha_seq(2)={alpha_seq2:.3f}; ppl_ratio {ppl_par:.2f} "
            f"{holds(ppl_par, ppl_seq)} {ppl_seq:.2f}; "
            f"alpha_par(4)={alpha_par4:.3f} {holds(alpha_par4, alpha_seq4)} "
            f"alpha_seq(4)={alpha_seq4:.3f}; train+sweep {budget:.0f}s "
            f"{holds(budget, 2700.0)} 2700s")


class TestCriterion8StrategyComparison:
    def test_layer_skip_beats_component_only_on_sequential(
            self, acceptance_sweep, criterion):
        rows = acceptance_sweep["rows"]
        skip = series(rows, "sequential", "layer_skip_0.33", 0.0)
        comp = series(rows, "sequential", "component_only", 0.0)
        a_skip = float(skip[4]["alpha"])
        a_comp = float(comp[4]["alpha"])
        criterion(
            "C8 strategy comparison (sequential)",
            a_skip >= a_comp,
            f"layer_skip alpha(4)={a_skip:.3f} {holds(a_skip, a_comp)} "
            f"component_only alpha(4)={a_comp:.3f}")


class TestCriterion9GradientCorrectness:
    def test_finite_difference_agreement(self, criterion):
        worst = {}
        for arch, kw in (("parallel_hybrid", {}),
                         ("sequential_hybrid",
                          {"layer_pattern": ("linear", "attention")}),
                         ("transformer", {})):
            cfg = ModelConfig(arch, n_layers=2, d_model=16, n_heads=2,
                              d_state=4, vocab_size=24, context_limit=32,
                              **kw)
            w = init_weights(cfg, 1)
            rng = np.random.default_rng(0)
            x = rng.integers(0, 24, (2, 12))
            y = rng.integers(0, 24, (2, 12))
            worst[arch] = grad_check(cfg, w, x, y, n_samples=120)
        ok = all(v < 1e-4 for v in worst.values())
        detail = ", ".join(f"{a.split('_')[0]} {v:.1e}"
                           for a, v in worst.items())
        criterion("C9 gradient correctness", ok,
                  f"max relative FD deviation: {detail} (all < 1e-4)")


class TestCriterion10StatisticsMachinery:
    def test_bootstrap_and_tv(self, criterion):
        lo, hi = bootstrap_ci([0.4] * 64)
        degenerate_ok = lo == hi == 0.4
        meta = RngState(2024)
        hits = 0
        reps = 1000
        for i, child in enumerate(meta.spawn(reps)):
            data = (child.uniforms(200) < 0.5).astype(float)
            b_lo, b_hi = bootstrap_ci(data, resamples=800, seed=i)
            hits += b_lo <= 0.5 <= b_hi
        coverage = hits / reps
        coverage_ok = abs(coverage - 0.95) < 0.03
        tv = tv_distance(np.array([0.6, 0.4]), np.array([0.4, 0.6]))
        tv_ok = abs(tv - 0.2) < 1e-12
        criterion(
            "C10 statistics machinery",
            degenerate_ok and coverage_ok and tv_ok,
            f"degenerate CI has zero width; coverage {coverage:.3f} within "
            f"0.95 +/- 0.03 over 1000 repetitions; tv hand case = 0.2")
