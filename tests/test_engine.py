from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy import stats

from speclab import engine
from speclab.engine import (
    DecodeSettings,
    DraftSequence,
    DraftStrategy,
    SpecRoundResult,
    _skip_indices,
    accept_draft,
    autoregressive_generate,
    build_mask,
    decode_prompts,
    draft_k,
    residual_distribution,
    speculative_generate,
    verify_and_accept,
)
from speclab.model import ComponentMask, HybridModel, ModelConfig
from speclab.numerics import RngState, sample_categorical, softmax


PAR8 = ModelConfig("parallel_hybrid", n_layers=8, d_model=32, n_heads=2,
                   d_state=8, vocab_size=32, context_limit=160)
SEQ8 = ModelConfig("sequential_hybrid", n_layers=8, d_model=32, n_heads=2,
                   d_state=8, vocab_size=32, context_limit=160)
TRA6 = ModelConfig("transformer", n_layers=6, d_model=32, n_heads=2,
                   d_state=8, vocab_size=32, context_limit=160)


class FakeRng:
    """Deterministic uniform feed for driving acceptance branches."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)


def prompt_for(cfg, n=8, seed=3):
    return list(np.random.default_rng(seed).integers(0, cfg.vocab_size, size=n))


class TestBuildMask:
    def test_component_only_parallel_disables_attention_everywhere(self):
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        assert mask.attn_enabled == (False,) * 8
        assert mask.alt_enabled == (True,) * 8
        assert mask.layer_skipped == (False,) * 8

    def test_component_only_sequential_skips_exactly_attention_layers(self):
        mask = build_mask(SEQ8, DraftStrategy("component_only"))
        attn_layers = tuple(SEQ8.has_attn(i) for i in range(8))
        assert mask.layer_skipped == attn_layers
        assert attn_layers == (False, False, False, True, False, False, False, True)

    @pytest.mark.parametrize("cfg", [PAR8, SEQ8, TRA6], ids=lambda c: c.arch)
    def test_identity_is_all_enabled(self, cfg):
        assert build_mask(cfg, DraftStrategy("identity")) == \
            ComponentMask.full(cfg.n_layers)

    def test_component_only_on_transformer_rejected(self):
        with pytest.raises(ValueError):
            build_mask(TRA6, DraftStrategy("component_only"))

    def test_layer_skip_spares_first_and_last(self):
        mask = build_mask(TRA6, DraftStrategy("layer_skip"))
        assert sum(mask.layer_skipped) == 2  # ceil(6/3)
        assert not mask.layer_skipped[0] and not mask.layer_skipped[-1]

    def test_layer_skip_count_and_spacing(self):
        mask = build_mask(PAR8, DraftStrategy("layer_skip"))
        skipped = [i for i, s in enumerate(mask.layer_skipped) if s]
        assert len(skipped) == 3  # ceil(8/3)
        assert skipped[0] >= 1 and skipped[-1] <= 6
        assert len(set(skipped)) == 3

    def test_layer_skip_zero_fraction_is_identity(self):
        assert _skip_indices(8, 0) == []

    def test_early_exit_truncates_the_stack(self):
        mask = build_mask(PAR8, DraftStrategy("early_exit"))
        assert mask.layer_skipped == (False,) * 4 + (True,) * 4

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            DraftStrategy("unknown")

    def test_labels_carry_the_fixed_fractions(self):
        # the report's strategy column and every cell id are built from these
        assert [DraftStrategy(kind).label() for kind in engine.STRATEGY_KINDS] == \
            ["component_only", "layer_skip_0.33", "early_exit_0.50", "identity"]


class TestRoundResultInvariants:
    def test_emitted_length_enforced(self):
        with pytest.raises(ValueError):
            SpecRoundResult(1, [1, 2, 3], [True, False])

    def test_all_accepted_is_derived_from_the_count(self):
        assert SpecRoundResult(2, [1, 2, 3], [True, True]).all_accepted
        assert not SpecRoundResult(1, [1, 2], [True, False]).all_accepted


class TestDraftK:
    def test_identity_draft_is_greedy_continuation(self):
        m = HybridModel.from_seed(PAR8, 0)
        prompt = prompt_for(PAR8)
        settings = DecodeSettings(k=4, temperature=0.0, max_new_tokens=4, seed=0)
        greedy = autoregressive_generate(m, prompt, settings)
        mask = build_mask(PAR8, DraftStrategy("identity"))
        _, state = m.forward_prefix(prompt[:-1], mask)
        draft, _ = draft_k(m, state, prompt[-1:], settings, RngState(0))
        assert draft.tokens == greedy

    def test_same_seed_gives_identical_draft(self):
        m = HybridModel.from_seed(SEQ8, 1)
        prompt = prompt_for(SEQ8)
        mask = build_mask(SEQ8, DraftStrategy("component_only"))
        settings = DecodeSettings(k=4, temperature=0.8, max_new_tokens=4, seed=0)
        drafts = []
        for _ in range(2):
            _, state = m.forward_prefix(prompt[:-1], mask)
            d, _ = draft_k(m, state, prompt[-1:], settings, RngState(11))
            drafts.append(d)
        assert drafts[0].tokens == drafts[1].tokens
        for a, b in zip(drafts[0].dists, drafts[1].dists):
            np.testing.assert_array_equal(a, b)

    def test_k1_returns_single_token_with_distribution(self):
        m = HybridModel.from_seed(PAR8, 0)
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        prompt = prompt_for(PAR8)
        _, state = m.forward_prefix(prompt[:-1], mask)
        draft, snaps = draft_k(m, state, prompt[-1:], DecodeSettings(k=1),
                               RngState(0))
        assert draft.k == 1
        assert len(snaps) == 1
        assert snaps[0].pos == state.pos == len(prompt)
        assert draft.dists[0].shape == (PAR8.vocab_size,)

    @pytest.mark.parametrize("kind", ["identity", "component_only"])
    def test_drafts_under_the_state_mask(self, kind):
        m = HybridModel.from_seed(PAR8, 0)
        mask = build_mask(PAR8, DraftStrategy(kind))
        prompt = prompt_for(PAR8)
        logits, _ = m.forward_prefix(prompt, mask)
        _, state = m.forward_prefix(prompt[:-1], mask)
        settings = DecodeSettings(k=1, temperature=0.6)
        draft, _ = draft_k(m, state, prompt[-1:], settings, RngState(0))
        np.testing.assert_allclose(draft.dists[0], softmax(logits[-1], 0.6),
                                   atol=1e-12, rtol=0)

    def test_context_overflow_raises(self):
        m = HybridModel.from_seed(PAR8, 0)
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        prompt = list(np.zeros(PAR8.context_limit - 1, dtype=int))
        _, state = m.forward_prefix(prompt[:-1], mask)
        with pytest.raises(ValueError):
            draft_k(m, state, prompt[-1:], DecodeSettings(k=4), RngState(0))

    def test_empty_pending_input_rejected(self):
        m = HybridModel.from_seed(PAR8, 0)
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        _, state = m.forward_prefix(prompt_for(PAR8), mask)
        with pytest.raises(ValueError):
            draft_k(m, state, [], DecodeSettings(k=2), RngState(0))


class TestAcceptCore:
    def test_identical_distributions_accept_everything_greedy(self):
        v = 6
        dists = [softmax(np.arange(v) * (0.1 * (i + 1)), 0.0) for i in range(4)]
        draft = DraftSequence([int(np.argmax(d)) for d in dists[:3]],
                              dists[:3], base_pos=0)
        res = accept_draft(dists, draft, RngState(0))
        assert res.all_accepted and res.accepted_count == 3
        assert len(res.emitted_tokens) == 4

    def test_hand_case_accept_probability_and_residual(self):
        # P_H = (.5,.5), P_S = (1,0), drafted token 0:
        # accept iff u < 0.5; on reject the residual is one-hot at 1
        ph = np.array([0.5, 0.5])
        ps = np.array([1.0, 0.0])
        bonus = np.array([0.5, 0.5])
        draft = DraftSequence([0], [ps], base_pos=0)
        res_acc = accept_draft([ph, bonus], draft, FakeRng([0.49, 0.0]))
        assert res_acc.accepted_count == 1
        res_rej = accept_draft([ph, bonus], draft, FakeRng([0.51, 0.3]))
        assert res_rej.accepted_count == 0
        assert res_rej.emitted_tokens == [1]
        np.testing.assert_array_equal(residual_distribution(ph, ps), [0.0, 1.0])

    def test_ratio_below_one_accepts_at_stated_probability(self):
        # P_H(draft)=0.4, P_S(draft)=0.8 -> accept prob exactly 0.5
        ph = np.array([0.4, 0.6])
        ps = np.array([0.8, 0.2])
        draft = DraftSequence([0], [ps], base_pos=0)
        accepted = accept_draft([ph, ph], draft, FakeRng([0.4999, 0.0]))
        rejected = accept_draft([ph, ph], draft, FakeRng([0.5001, 0.0]))
        assert accepted.accepted_count == 1
        assert rejected.accepted_count == 0

    def test_match_flags_are_greedy_diagnostics_at_any_temperature(self):
        ph = np.array([0.4, 0.6])
        ps = np.array([0.8, 0.2])
        draft = DraftSequence([0], [ps], base_pos=0)
        res = accept_draft([ph, ph], draft, FakeRng([0.0, 0.0]))
        assert res.per_position_match == [False]
        assert res.accepted_count == 1  # stochastic rule may still accept

    @hsettings(max_examples=200, deadline=None)
    @given(st.data())
    def test_greedy_is_the_rule_on_one_hots(self, data):
        # small integer logits force ties; the longest argmax-agreeing prefix
        # is accepted and the argmax picks are emitted, whatever the seed
        k = data.draw(st.integers(1, 5))
        vocab = data.draw(st.integers(2, 6))
        row = st.lists(st.integers(-2, 2), min_size=vocab, max_size=vocab)
        draft_logits = np.array(data.draw(st.lists(row, min_size=k, max_size=k)),
                                dtype=np.float64)
        target_logits = np.array(
            data.draw(st.lists(row, min_size=k + 1, max_size=k + 1)),
            dtype=np.float64)
        for i in range(k):  # agree often enough to reach long prefixes
            if data.draw(st.booleans()):
                target_logits[i] = draft_logits[i]
        draft_picks = np.argmax(draft_logits, axis=-1).tolist()
        target_picks = np.argmax(target_logits, axis=-1).tolist()
        accepted = 0
        while accepted < k and draft_picks[accepted] == target_picks[accepted]:
            accepted += 1
        draft_dists = softmax(draft_logits, 0.0)
        draft = DraftSequence(
            [sample_categorical(d, RngState(0)) for d in draft_dists],
            list(draft_dists), base_pos=0)
        assert draft.tokens == draft_picks
        res = accept_draft(softmax(target_logits, 0.0), draft,
                           RngState(data.draw(st.integers(0, 2 ** 32 - 1))))
        assert res.accepted_count == accepted
        assert res.emitted_tokens == target_picks[:accepted + 1]
        assert res.per_position_match == [a == b for a, b in
                                          zip(draft_picks, target_picks)]

    def test_residual_without_mass_rejected(self):
        with pytest.raises(ValueError):
            residual_distribution(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("u", [0.05, 0.37, 0.93])
    def test_empty_draft_is_one_autoregressive_step(self, u):
        # the one uniform goes to the bonus sample: an acceptance draw would
        # take it first and leave sample_categorical an empty feed
        target = softmax(np.random.default_rng(4).normal(0, 2, 8), 0.6)
        rng = FakeRng([u])
        res = accept_draft(target[None], DraftSequence([], [], base_pos=5), rng)
        assert rng.values == []
        assert res.emitted_tokens == [sample_categorical(target, FakeRng([u]))]
        assert res.accepted_count == 0 and res.all_accepted
        assert res.per_position_match == []


class TestVerifySoftmax:
    @pytest.mark.parametrize("temp", [0.0, 0.6, 1.0])
    def test_block_rows_equal_per_row_softmax(self, temp):
        logits = np.random.default_rng(5).normal(0, 3, (5, PAR8.vocab_size))
        # a tie for the maximum: T = 0 must still pick the lowest index
        logits[2, [4, 9, 30]] = logits[2].max() + 1.0
        block = softmax(logits, temp)
        for row, dist in zip(logits, block):
            np.testing.assert_array_equal(dist, softmax(row, temp))
        if temp == 0.0:
            assert np.flatnonzero(block[2]).tolist() == [4]

    @pytest.mark.parametrize("temp", [0.0, 0.6])
    def test_verify_makes_one_softmax_call(self, temp):
        m = HybridModel.from_seed(PAR8, 1)
        prompt = prompt_for(PAR8)
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        settings = DecodeSettings(k=4, temperature=temp, max_new_tokens=8, seed=0)
        _, vstate = m.forward_prefix(prompt[:-1])
        _, dstate = m.forward_prefix(prompt[:-1], mask)
        draft, _ = draft_k(m, dstate, prompt[-1:], settings, RngState(0))
        shapes = []

        def counted(logits, temperature=1.0):
            shapes.append(np.shape(logits))
            return softmax(logits, temperature)

        with mock.patch.object(engine, "softmax", counted):
            verify_and_accept(m, vstate, prompt[-1], draft, settings, RngState(0))
        assert shapes == [(settings.k + 1, PAR8.vocab_size)]


def first_emitted_marginal(ps: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """Independent oracle: exhaustive one-round outcome tree.

    Enumerates draft token x (prob ps[x]), the accept branch with probability
    min(1, ph[x]/ps[x]), and the reject branch followed by a correction from
    norm(max(0, ph - ps)). Returns the marginal of the first emitted token.
    """
    v = ps.size
    marginal = np.zeros(v)
    resid = np.maximum(ph - ps, 0.0)
    resid_total = resid.sum()
    for x in range(v):
        if ps[x] == 0.0:
            continue
        acc = min(1.0, ph[x] / ps[x])
        marginal[x] += ps[x] * acc
        reject_mass = ps[x] * (1.0 - acc)
        if reject_mass > 0.0:
            marginal += reject_mass * resid / resid_total
    return marginal


class TestLosslessnessOneRound:
    def micro_dists(self, temp):
        cfg = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                          d_state=4, vocab_size=8, context_limit=32)
        m = HybridModel.from_seed(cfg, 5)
        prompt = [1, 4, 2]
        full, _ = m.forward_prefix(prompt)
        drafted, _ = m.forward_prefix(prompt, build_mask(cfg, DraftStrategy("component_only")))
        return softmax(drafted[-1], temp), softmax(full[-1], temp)

    @pytest.mark.parametrize("temp", [0.6, 1.0, 2.5])
    def test_marginal_equals_target_exactly(self, temp):
        ps, ph = self.micro_dists(temp)
        np.testing.assert_allclose(first_emitted_marginal(ps, ph), ph, atol=1e-12)

    def test_monte_carlo_engine_marginal_vocab4(self):
        cfg = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                          d_state=4, vocab_size=4, context_limit=32)
        m = HybridModel.from_seed(cfg, 7)
        prompt = [0, 3, 1]
        temp = 0.6
        full, _ = m.forward_prefix(prompt)
        drafted, _ = m.forward_prefix(
            prompt, build_mask(cfg, DraftStrategy("component_only")))
        ps = softmax(drafted[-1], temp)
        ph = softmax(full[-1], temp)
        rng = RngState(99)
        n = 200_000
        counts = np.zeros(4, dtype=int)
        for _ in range(n):
            tok = sample_categorical(ps, rng)
            draft = DraftSequence([tok], [ps], base_pos=0)
            res = accept_draft([ph, ph], draft, rng)
            counts[res.emitted_tokens[0]] += 1
        _, pval = stats.chisquare(counts, ph * n)
        assert pval > 0.01


STRATEGIES = {
    "parallel_hybrid": ["component_only", "layer_skip", "early_exit", "identity"],
    "sequential_hybrid": ["component_only", "layer_skip", "early_exit", "identity"],
    "transformer": ["layer_skip", "early_exit", "identity"],
}


class TestSpeculativeGenerate:
    @pytest.mark.parametrize("cfg", [PAR8, SEQ8, TRA6], ids=lambda c: c.arch)
    def test_greedy_output_matches_autoregressive_for_every_strategy(self, cfg):
        m = HybridModel.from_seed(cfg, 2)
        prompt = prompt_for(cfg)
        for k in (1, 2, 4):
            settings = DecodeSettings(k=k, temperature=0.0, max_new_tokens=24, seed=0)
            ar = autoregressive_generate(m, prompt, settings)
            for kind in STRATEGIES[cfg.arch]:
                spec, rounds = speculative_generate(
                    m, DraftStrategy(kind), prompt, settings)
                assert spec == ar, f"{cfg.arch}/{kind}/k={k}"
                assert all(1 <= len(r.emitted_tokens) <= k + 1 for r in rounds)

    @pytest.mark.parametrize("cfg", [PAR8, SEQ8], ids=lambda c: c.arch)
    def test_greedy_output_ignores_the_seed(self, cfg):
        m = HybridModel.from_seed(cfg, 2)
        prompt = prompt_for(cfg)
        runs = []
        for seed in (0, 12345):
            settings = DecodeSettings(k=3, temperature=0.0, max_new_tokens=24,
                                      seed=seed)
            out, rounds = speculative_generate(
                m, DraftStrategy("layer_skip"), prompt, settings)
            runs.append((out, [r.accepted_count for r in rounds],
                         autoregressive_generate(m, prompt, settings)))
        assert runs[0] == runs[1]
        assert runs[0][0] == runs[0][2]

    def test_identity_strategy_accepts_every_round_greedy(self):
        m = HybridModel.from_seed(PAR8, 4)
        settings = DecodeSettings(k=4, temperature=0.0, max_new_tokens=20, seed=0)
        _, rounds = speculative_generate(
            m, DraftStrategy("identity"), prompt_for(PAR8), settings)
        assert all(r.all_accepted for r in rounds)

    def test_max_new_tokens_one_emits_single_token(self):
        m = HybridModel.from_seed(PAR8, 0)
        settings = DecodeSettings(k=4, temperature=0.0, max_new_tokens=1, seed=0)
        out, rounds = speculative_generate(
            m, DraftStrategy("component_only"), prompt_for(PAR8), settings)
        assert len(out) == 1
        assert len(rounds) == 1

    def test_sampled_generation_is_seed_deterministic(self):
        m = HybridModel.from_seed(SEQ8, 3)
        settings = DecodeSettings(k=3, temperature=0.7, max_new_tokens=16, seed=42)
        a, _ = speculative_generate(m, DraftStrategy("layer_skip"),
                                    prompt_for(SEQ8), settings)
        b, _ = speculative_generate(m, DraftStrategy("layer_skip"),
                                    prompt_for(SEQ8), settings)
        assert a == b

    def test_empty_prompt_rejected(self):
        m = HybridModel.from_seed(PAR8, 0)
        settings = DecodeSettings(k=2, max_new_tokens=4)
        with pytest.raises(ValueError):
            speculative_generate(m, DraftStrategy("identity"), [], settings)
        with pytest.raises(ValueError):
            autoregressive_generate(m, [], settings)

    def test_generation_budget_checked_up_front(self):
        m = HybridModel.from_seed(PAR8, 0)
        prompt = prompt_for(PAR8, n=8)
        settings = DecodeSettings(k=4, max_new_tokens=PAR8.context_limit, seed=0)
        with pytest.raises(ValueError):
            speculative_generate(m, DraftStrategy("identity"), prompt, settings)


class TestDecodePrompts:
    PROMPTS = [prompt_for(PAR8, n=n, seed=seed)
               for n, seed in ((5, 1), (8, 2), (3, 3))]

    @pytest.mark.parametrize("kind", [None, "layer_skip"])
    def test_greedy_outputs_ignore_the_settings_seed(self, kind):
        m = HybridModel.from_seed(PAR8, 2)
        strategy = DraftStrategy(kind) if kind else None
        runs = [decode_prompts(m, strategy, self.PROMPTS,
                               DecodeSettings(k=3, max_new_tokens=12, seed=seed))
                for seed in (0, 777)]
        assert runs[0][:2] == runs[1][:2]
        assert [len(out) for out in runs[0][0]] == [12] * 3

    @pytest.mark.parametrize("kind", [None, "component_only"])
    def test_each_prompt_decodes_under_its_index_seed(self, kind):
        m = HybridModel.from_seed(PAR8, 2)
        settings = DecodeSettings(k=2, temperature=0.7, max_new_tokens=10,
                                  seed=4)
        strategy = DraftStrategy(kind) if kind else None
        outputs, rounds, seconds = decode_prompts(m, strategy, self.PROMPTS,
                                                  settings)
        assert seconds > 0
        pooled = []
        for i, prompt in enumerate(self.PROMPTS):
            own = replace(settings, seed=4 * 1_000_003 + i)
            if strategy is None:
                assert outputs[i] == autoregressive_generate(m, prompt, own)
            else:
                out, rs = speculative_generate(m, strategy, prompt, own)
                assert outputs[i] == out
                pooled += rs
        assert rounds == pooled


class TestGenerationBudget:
    MICRO = ModelConfig("parallel_hybrid", n_layers=2, d_model=16, n_heads=2,
                        d_state=4, vocab_size=8, context_limit=32)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("kind", [None, "identity"])
    def test_the_exact_need_decodes_and_one_token_more_is_refused(
            self, kind, temperature):
        # A decode feeds at most len(prompt) + max_new_tokens - 1 + k
        # positions, with k = 0 for autoregressive decoding. The identity
        # draft is accepted whole, so with max_new_tokens - 1 a multiple of
        # k + 1 the last round starts with max_new_tokens - 1 tokens emitted
        # and feeds k + 1 rows.
        m = HybridModel.from_seed(self.MICRO, 0)
        prompt = prompt_for(self.MICRO, n=5)
        k = 0 if kind is None else 3
        fits = DecodeSettings(
            k=3, temperature=temperature, seed=1,
            max_new_tokens=self.MICRO.context_limit - len(prompt) + 1 - k)
        assert (fits.max_new_tokens - 1) % (k + 1) == 0

        def decode(settings):
            if kind is None:
                return autoregressive_generate(m, prompt, settings), []
            return speculative_generate(m, DraftStrategy(kind), prompt,
                                        settings)

        out, rounds = decode(fits)
        assert len(out) == fits.max_new_tokens
        assert all(r.all_accepted for r in rounds)
        need = self.MICRO.context_limit + 1
        with pytest.raises(ValueError, match=f"needs {need} positions, "
                                             f"context_limit is {need - 1}"):
            decode(replace(fits, max_new_tokens=fits.max_new_tokens + 1))


class TestAutoregressive:
    """Autoregressive decoding runs the round loop with k = 0, so it is
    checked here against references that do not use that loop."""

    @pytest.mark.parametrize("cfg", [PAR8, SEQ8], ids=lambda c: c.arch)
    def test_greedy_is_the_argmax_of_one_prefix_forward(self, cfg):
        m = HybridModel.from_seed(cfg, 6)
        prompt = prompt_for(cfg)
        settings = DecodeSettings(k=2, temperature=0.0, max_new_tokens=24, seed=0)
        out = autoregressive_generate(m, prompt, settings)
        logits, _ = m.forward_prefix(prompt + out[:-1])
        assert out == np.argmax(logits[len(prompt) - 1:], axis=-1).tolist()

    @pytest.mark.parametrize("temp", [0.6, 1.0])
    @pytest.mark.parametrize("cfg", [PAR8, SEQ8], ids=lambda c: c.arch)
    def test_sampled_equals_an_inline_decode_step_loop(self, cfg, temp):
        m = HybridModel.from_seed(cfg, 6)
        prompt = prompt_for(cfg)
        settings = DecodeSettings(k=2, temperature=temp, max_new_tokens=24, seed=9)
        rng = RngState(settings.seed)
        _, state = m.forward_prefix(prompt[:-1])
        pending, expected = prompt[-1], []
        for _ in range(settings.max_new_tokens):
            dist = softmax(m.decode_step(state, pending), temp)
            pending = sample_categorical(dist, rng)
            expected.append(pending)
        assert autoregressive_generate(m, prompt, settings) == expected

    @pytest.mark.parametrize("temp", [0.0, 0.6])
    def test_output_ignores_k(self, temp):
        m = HybridModel.from_seed(SEQ8, 6)
        outs = [autoregressive_generate(
                    m, prompt_for(SEQ8),
                    DecodeSettings(k=k, temperature=temp, max_new_tokens=24,
                                   seed=3))
                for k in (1, 4)]
        assert outs[0] == outs[1]

    def test_greedy_is_run_to_run_deterministic(self):
        m = HybridModel.from_seed(TRA6, 8)
        settings = DecodeSettings(k=1, temperature=0.0, max_new_tokens=12, seed=0)
        assert autoregressive_generate(m, prompt_for(TRA6), settings) == \
            autoregressive_generate(m, prompt_for(TRA6), settings)

    def test_verify_state_advances_past_emitted(self):
        m = HybridModel.from_seed(PAR8, 1)
        prompt = prompt_for(PAR8)
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        settings = DecodeSettings(k=3, temperature=0.0, max_new_tokens=8, seed=0)
        _, vstate = m.forward_prefix(prompt[:-1])
        _, dstate = m.forward_prefix(prompt[:-1], mask)
        draft, _ = draft_k(m, dstate, prompt[-1:], settings, RngState(0))
        res = verify_and_accept(m, vstate, prompt[-1], draft, settings, RngState(0))
        # consumed: the pending token and the accepted drafts; the last
        # emitted token is the next pending one
        assert vstate.pos == len(prompt) + res.accepted_count
        step = m.decode_step(vstate, res.emitted_tokens[-1])
        fresh, _ = m.forward_prefix(prompt + res.emitted_tokens)
        np.testing.assert_allclose(step, fresh[-1], atol=1e-9, rtol=0)

    def test_verify_rejects_mispositioned_draft(self):
        m = HybridModel.from_seed(PAR8, 1)
        prompt = prompt_for(PAR8)
        mask = build_mask(PAR8, DraftStrategy("component_only"))
        settings = DecodeSettings(k=2, temperature=0.0, max_new_tokens=8, seed=0)
        _, dstate = m.forward_prefix(prompt[:-1], mask)
        draft, _ = draft_k(m, dstate, prompt[-1:], settings, RngState(0))
        _, vstate = m.forward_prefix(prompt)
        with pytest.raises(ValueError):
            verify_and_accept(m, vstate, 0, draft, settings, RngState(0))


class TestRoundStructure:
    @staticmethod
    def trace(monkeypatch):
        """Log rows per forward_chunk call, ("prefix", tokens, mask) after
        each forward_prefix, and a marker per draft and verify phase; fail
        on any decode_step call."""
        events = []
        real_forward = HybridModel.forward_chunk
        real_prefix = HybridModel.forward_prefix

        def counted_forward(self, state, tokens, *args, **kwargs):
            events.append(len(tokens))
            return real_forward(self, state, tokens, *args, **kwargs)

        def recorded_prefix(self, tokens, mask=None):
            logits, state = real_prefix(self, tokens, mask)
            events.append(("prefix", list(tokens), state.mask))
            return logits, state

        def marked(name, fn):
            def run(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return run

        def no_decode_step(*args, **kwargs):
            raise AssertionError("decode_step called in the round loop")

        monkeypatch.setattr(HybridModel, "forward_chunk", counted_forward)
        monkeypatch.setattr(HybridModel, "forward_prefix", recorded_prefix)
        monkeypatch.setattr(HybridModel, "decode_step", no_decode_step)
        monkeypatch.setattr(engine, "draft_k", marked("draft", engine.draft_k))
        monkeypatch.setattr(engine, "verify_and_accept",
                            marked("verify", engine.verify_and_accept))
        return events

    @pytest.mark.parametrize("kind,temp", [("component_only", 0.0),
                                           ("layer_skip", 0.7),
                                           ("identity", 0.0)])
    def test_round_is_k_draft_forwards_and_one_verify_forward(
            self, monkeypatch, kind, temp):
        m = HybridModel.from_seed(SEQ8, 2)
        k = 3
        events = self.trace(monkeypatch)
        prompt = prompt_for(SEQ8)
        settings = DecodeSettings(k=k, temperature=temp, max_new_tokens=30, seed=1)
        _, rounds = speculative_generate(m, DraftStrategy(kind), prompt, settings)
        # prefix forwards over prompt[:-1], full mask then the draft's
        assert events[:4] == [len(prompt) - 1,
                              ("prefix", prompt[:-1], ComponentMask.full(8)),
                              len(prompt) - 1,
                              ("prefix", prompt[:-1],
                               build_mask(SEQ8, DraftStrategy(kind)))]
        phases = []
        for e in events[4:]:
            if isinstance(e, str):
                phases.append((e, []))
            else:
                phases[-1][1].append(e)
        assert [name for name, _ in phases] == ["draft", "verify"] * len(rounds)
        for (_, draft_rows), (_, verify_rows) in zip(phases[::2], phases[1::2]):
            assert len(draft_rows) == k
            assert draft_rows[0] in (1, 2) and draft_rows[1:] == [1] * (k - 1)
            assert verify_rows == [k + 1]

    @pytest.mark.parametrize("temp", [0.0, 0.7])
    def test_autoregressive_round_is_a_one_row_verify_forward(
            self, monkeypatch, temp):
        m = HybridModel.from_seed(SEQ8, 2)
        events = self.trace(monkeypatch)
        prompt = prompt_for(SEQ8)
        settings = DecodeSettings(k=3, temperature=temp, max_new_tokens=30, seed=1)
        out = autoregressive_generate(m, prompt, settings)
        assert len(out) == settings.max_new_tokens
        # one prefix forward, on the full mask only; no draft phase
        assert events[:2] == [len(prompt) - 1,
                              ("prefix", prompt[:-1], ComponentMask.full(8))]
        assert events[2:] == ["verify", 1] * settings.max_new_tokens

    def test_only_rounds_with_a_draft_record_states(self, monkeypatch):
        m = HybridModel.from_seed(SEQ8, 2)
        recorded = []
        real_forward = HybridModel.forward_chunk

        def forward(self, state, tokens, record_states=False):
            recorded.append(record_states)
            return real_forward(self, state, tokens, record_states)

        monkeypatch.setattr(HybridModel, "forward_chunk", forward)
        settings = DecodeSettings(k=2, temperature=0.7, max_new_tokens=12, seed=1)
        autoregressive_generate(m, prompt_for(SEQ8), settings)
        assert recorded == [False] * 13   # the prefix, then one per token
        recorded.clear()
        speculative_generate(m, DraftStrategy("layer_skip"), prompt_for(SEQ8),
                             settings)
        # the two prefix forwards, then every draft and verify forward
        assert recorded[:2] == [False, False] and all(recorded[2:])


@st.composite
def engine_cases(draw):
    arch = draw(st.sampled_from(sorted(STRATEGIES)))
    cfg = ModelConfig(arch, n_layers=draw(st.integers(4, 6)),
                      d_model=draw(st.sampled_from([8, 16])), n_heads=2,
                      d_state=draw(st.sampled_from([2, 4])),
                      vocab_size=draw(st.integers(4, 24)), context_limit=32)
    model = HybridModel.from_seed(cfg, draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(STRATEGIES[arch]))
    prompt = draw(st.lists(st.integers(0, cfg.vocab_size - 1),
                           min_size=1, max_size=8))
    settings = DecodeSettings(k=draw(st.integers(1, 5)),
                              temperature=draw(st.sampled_from([0.0, 0.7])),
                              max_new_tokens=draw(st.integers(1, 12)),
                              seed=draw(st.integers(0, 2 ** 16)))
    return model, DraftStrategy(kind), prompt, settings


class TestEngineProperties:
    @hsettings(max_examples=80, deadline=None)
    @given(engine_cases())
    def test_rounds_positions_and_greedy_losslessness(self, case):
        model, strategy, prompt, settings = case
        k = settings.k
        verified = []  # (position before, position after, result) per round
        real_verify = engine.verify_and_accept

        def checked_verify(model, state, pending, draft, settings, rng):
            before = state.pos
            result = real_verify(model, state, pending, draft, settings, rng)
            verified.append((before, state.pos, result))
            return result

        with mock.patch.object(engine, "verify_and_accept", checked_verify):
            out, rounds = speculative_generate(model, strategy, prompt, settings)
        assert len(out) == settings.max_new_tokens
        assert [r for _, _, r in verified] == rounds
        for before, after, r in verified:
            assert len(r.emitted_tokens) == r.accepted_count + 1
            assert 1 <= len(r.emitted_tokens) <= k + 1
            assert after == before + r.accepted_count + 1
        if settings.temperature == 0.0:
            assert out == autoregressive_generate(model, prompt, settings)
            if strategy.kind == "identity":
                assert all(r.all_accepted for r in rounds)
