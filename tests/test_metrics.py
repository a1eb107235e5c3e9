import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from speclab.engine import (
    DraftStrategy,
    SpecRoundResult,
    build_mask,
)
from speclab.metrics import (
    all_token_alpha,
    bootstrap_ci,
    divergence_stats,
    match_rate,
    perplexity,
    tv_distance,
)
from speclab.model import ComponentMask, HybridModel, ModelConfig
from speclab.numerics import RngState, log_softmax, softmax


def synthetic_round(flags: list[bool]) -> SpecRoundResult:
    """Round with given greedy match flags under temperature-0 semantics."""
    accepted = 0
    while accepted < len(flags) and flags[accepted]:
        accepted += 1
    emitted = list(range(accepted + 1))
    return SpecRoundResult(accepted, emitted, flags)


class TestBootstrapCI:
    def test_degenerate_data_has_zero_width(self):
        lo, hi = bootstrap_ci([0.7] * 50)
        assert lo == hi == 0.7

    def test_same_seed_same_interval(self):
        data = np.random.default_rng(0).normal(0, 1, 200)
        assert bootstrap_ci(data, seed=5) == bootstrap_ci(data, seed=5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_resamples_below_one_rejected(self, resamples):
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_ci([0.1, 0.9, 0.4], resamples=resamples)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=60), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_interval_contains_sample_mean(self, data, seed):
        lo, hi = bootstrap_ci(data, resamples=500, seed=seed)
        m = float(np.mean(data))
        assert lo - 1e-9 <= m <= hi + 1e-9

    def test_coverage_on_bernoulli_half(self):
        # ~95% of intervals over Bernoulli(0.5) samples should contain 0.5
        meta = RngState(99)
        hits = 0
        reps = 400
        for i, child in enumerate(meta.spawn(reps)):
            data = (child.uniforms(200) < 0.5).astype(float)
            lo, hi = bootstrap_ci(data, resamples=1000, seed=i)
            hits += lo <= 0.5 <= hi
        assert abs(hits / reps - 0.95) < 0.03


class TestAllTokenAlpha:
    def test_everything_accepted_is_alpha_one(self):
        rounds = [synthetic_round([True, True]) for _ in range(20)]
        stats = all_token_alpha(rounds, 2)
        assert stats.all_token_alpha == 1.0
        assert stats.per_token_alpha == 1.0
        assert stats.mean_accepted_per_round == 3.0

    def test_bernoulli_flags_follow_product_form(self):
        # i.i.d. per-position matches at rate p give alpha(k) -> p^k
        p, k, n = 0.8, 3, 20000
        rng = RngState(3)
        rounds = [synthetic_round([rng.uniform() < p for _ in range(k)])
                  for _ in range(n)]
        stats = all_token_alpha(rounds, k)
        assert abs(stats.all_token_alpha - p ** k) < 0.012
        assert abs(stats.per_token_alpha - p) < 0.01

    def test_per_token_at_least_all_token(self):
        rng = RngState(1)
        rounds = [synthetic_round([rng.uniform() < 0.6 for _ in range(4)])
                  for _ in range(300)]
        stats = all_token_alpha(rounds, 4)
        assert stats.per_token_alpha >= stats.all_token_alpha
        assert 1.0 <= stats.mean_accepted_per_round <= 5.0
        assert stats.ci_low <= stats.all_token_alpha <= stats.ci_high

    def test_empty_and_inconsistent_rounds_rejected(self):
        with pytest.raises(ValueError):
            all_token_alpha([], 2)
        rounds = [synthetic_round([True, True]), synthetic_round([True])]
        with pytest.raises(ValueError):
            all_token_alpha(rounds, 2)


class TestTvDistance:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.75])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.5, 0.5])
        assert tv_distance(p, q) == 1.0

    def test_hand_case(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.4, 0.6])
        assert abs(tv_distance(p, q) - 0.2) < 1e-12

    @given(st.integers(0, 1000))
    @settings(max_examples=40)
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(16))
        q = rng.dirichlet(np.ones(16))
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert d == tv_distance(q, p)

    @given(st.integers(0, 1000))
    @settings(max_examples=40)
    def test_rows_match_one_row_calls(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(24), size=7)
        q = rng.dirichlet(np.ones(24), size=7)
        d = tv_distance(p, q)
        assert d.shape == (7,)
        for j in range(7):
            one = tv_distance(p[j], q[j])
            assert isinstance(one, float)
            assert abs(d[j] - one) <= 1e-15
        assert np.all(tv_distance(p, p) == 0.0)

    @given(st.integers(0, 1000))
    @settings(max_examples=40)
    def test_equals_one_minus_the_overlap(self, seed):
        # 1 - TV is the rejection rule's acceptance probability sum(min(p, q))
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(32), size=5)
        q = rng.dirichlet(np.ones(32), size=5)
        accept = np.minimum(p, q).sum(axis=-1)
        assert np.all(np.abs(tv_distance(p, q) - (1.0 - accept)) <= 1e-12)

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(8), size=(2, 3))
        q = rng.dirichlet(np.ones(8), size=(2, 3))
        d = tv_distance(p, q)
        assert d.shape == (2, 3)
        for i in range(2):
            assert np.array_equal(d[i], tv_distance(p[i], q[i]))

    def test_shape_mismatch_rejected(self):
        p = np.full((3, 4), 0.25)
        with pytest.raises(ValueError):
            tv_distance(p, p[:, :3])
        with pytest.raises(ValueError):
            tv_distance(p, p[0])
        with pytest.raises(ValueError):
            tv_distance(np.float64(1.0), np.float64(1.0))


TINY = ModelConfig("parallel_hybrid", n_layers=4, d_model=16, n_heads=2,
                   d_state=4, vocab_size=16, context_limit=96)


class TestMatchRate:
    def test_fraction_of_token_identical_outputs(self):
        reference = [[1, 2], [3], [4, 5, 6], [7]]
        assert match_rate(reference, reference) == 1.0
        assert match_rate([[1, 2], [3], [4, 5, 0], [7]], reference) == 0.75
        assert match_rate([[1, 2], [3, 3], [4, 5], []], reference) == 0.25
        assert match_rate([[2, 1]], [[1, 2]]) == 0.0

    def test_no_prompts_rejected(self):
        with pytest.raises(ValueError):
            match_rate([], [])

    @pytest.mark.parametrize("outputs,reference", [([[1]], []),
                                                   ([[1]], [[1], [2]]),
                                                   ([[1], [2]], [[1]])])
    def test_mismatched_lists_rejected(self, outputs, reference):
        with pytest.raises(ValueError):
            match_rate(outputs, reference)


class TestPerplexity:
    def uniform_model(self, vocab=16):
        cfg = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                          d_state=4, vocab_size=vocab, context_limit=32)
        m = HybridModel.from_seed(cfg, 0)
        m.weights["head_w"][:] = 0.0
        return m

    def test_uniform_model_scores_vocab_size(self):
        m = self.uniform_model()
        corpus = np.arange(100) % 16
        assert abs(perplexity(m, None, corpus) - 16.0) < 1e-9

    def test_two_token_corpus_with_half_probability(self):
        m = self.uniform_model(vocab=2)
        assert abs(perplexity(m, None, [0, 1]) - 2.0) < 1e-12

    def test_identity_mask_equals_absent_mask(self):
        cfg = TINY
        m = HybridModel.from_seed(cfg, 3)
        corpus = np.random.default_rng(0).integers(0, 16, 250)
        a = perplexity(m, None, corpus)
        b = perplexity(m, ComponentMask.full(cfg.n_layers), corpus)
        assert a == b

    def test_short_corpus_rejected(self):
        with pytest.raises(ValueError):
            perplexity(self.uniform_model(), None, [1])

    def test_one_window_equals_whole_sequence_scoring(self):
        cfg = TINY
        m = HybridModel.from_seed(cfg, 5)
        corpus = np.random.default_rng(1).integers(0, 16, cfg.context_limit)
        logits, _ = m.forward_prefix(corpus)
        from speclab.numerics import log_softmax
        logp = log_softmax(logits[:-1])
        nll = -logp[np.arange(corpus.size - 1), corpus[1:]]
        expect = float(np.exp(nll.mean()))
        assert abs(perplexity(m, None, corpus) - expect) < 1e-9

    def test_windows_cover_every_token_once(self):
        cfg = TINY
        m = HybridModel.from_seed(cfg, 5)
        corpus = np.random.default_rng(2).integers(0, 16, 3 * cfg.context_limit + 7)
        assert 0 < perplexity(m, None, corpus) < 20


def prefix_window_perplexity(model, mask, tokens):
    """The window loop of ``perplexity`` as it ran on ``forward_prefix``,
    each window on a fresh decode state, at stride = window."""
    window = stride = model.cfg.context_limit
    total, scored, last, start = 0.0, 0, 0, 0
    while start + 1 < tokens.size:
        chunk = tokens[start:start + window]
        if chunk.size < 2:
            break
        logits, _ = model.forward_prefix(chunk, mask)
        logp = log_softmax(logits[:-1])
        nll = -logp[np.arange(chunk.size - 1), chunk[1:]]
        idx = start + 1 + np.arange(chunk.size - 1)
        fresh = idx > last
        total += float(nll[fresh].sum())
        scored += int(fresh.sum())
        last = int(idx[-1])
        if start + window >= tokens.size:
            break
        start += stride
    return float(np.exp(total / scored))


class TestPerplexityWindows:
    @pytest.mark.parametrize("arch", ["parallel_hybrid", "sequential_hybrid"])
    # 3 full windows' worth plus: a short last window (7), a lone last token
    # that no window scores (1), nothing (0)
    @pytest.mark.parametrize("tail", [7, 1, 0])
    def test_equals_the_decode_state_window_loop_without_a_decode_state(
            self, monkeypatch, arch, tail):
        cfg = ModelConfig(arch, n_layers=4, d_model=16, n_heads=2, d_state=4,
                          vocab_size=16, context_limit=24)
        m = HybridModel.from_seed(cfg, 4)
        corpus = np.random.default_rng(9).integers(0, 16, 3 * 24 + tail)
        masks = (None, build_mask(cfg, DraftStrategy("component_only")))
        expect = [prefix_window_perplexity(m, mask, corpus) for mask in masks]

        def no_state(*args, **kwargs):
            raise AssertionError("perplexity allocated a decode state")

        monkeypatch.setattr(HybridModel, "new_state", no_state)
        got = [perplexity(m, mask, corpus) for mask in masks]
        assert got == expect


class TestDivergenceStats:
    def test_identity_mask_has_zero_divergence(self):
        m = HybridModel.from_seed(TINY, 1)
        stats = divergence_stats(m, ComponentMask.full(TINY.n_layers),
                                 [[1, 2, 3, 4], [5, 6]])
        assert stats.tv_mean == 0.0
        assert stats.top1_agreement == 1.0
        assert stats.n_positions == 6

    def test_component_mask_diverges_on_random_weights(self):
        m = HybridModel.from_seed(TINY, 1)
        mask = build_mask(TINY, DraftStrategy("component_only"))
        stats = divergence_stats(m, mask, [[1, 2, 3, 4, 5, 6, 7]])
        assert stats.tv_mean > 0.0
        assert stats.n_positions == 7

    @pytest.mark.parametrize("arch", ["parallel_hybrid", "sequential_hybrid"])
    @pytest.mark.parametrize("kind", ["component_only", "layer_skip",
                                      "early_exit", "identity"])
    def test_matches_per_position_reference(self, arch, kind):
        cfg = ModelConfig(arch, n_layers=4, d_model=16, n_heads=2, d_state=4,
                          vocab_size=16, context_limit=96)
        m = HybridModel.from_seed(cfg, 3)
        mask = build_mask(cfg, DraftStrategy(kind))
        rng = np.random.default_rng(4)
        prompts = [rng.integers(0, 16, n).tolist() for n in (40, 0, 9, 1)]
        # one forward_prefix pair per prompt and one exact total-variation
        # distance per position
        tvs, agree = [], 0
        for prompt in prompts:
            full, _ = m.forward_prefix(prompt)
            draft, _ = m.forward_prefix(prompt, mask)
            for j in range(len(prompt)):
                p_h, p_s = softmax(full[j]), softmax(draft[j])
                tvs.append(0.5 * np.abs(p_s - p_h).sum())
                agree += int(np.argmax(p_s) == np.argmax(p_h))
        stats = divergence_stats(m, mask, prompts)
        assert stats.n_positions == len(tvs) == 50
        assert stats.top1_agreement == agree / len(tvs)
        assert abs(stats.tv_mean - np.mean(tvs)) <= 1e-12
        if kind == "identity":
            assert stats.tv_mean == 0.0 and stats.top1_agreement == 1.0
        else:
            assert stats.tv_mean > 0.0
