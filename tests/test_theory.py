import pytest
from hypothesis import given
import hypothesis.strategies as st

from speclab.engine import DraftStrategy
from speclab.model import ComponentMask, ModelConfig, FFN_MULT
from speclab.theory import (
    CostModel,
    expected_tokens,
    flop_ratio,
    optimal_k,
    params_per_token,
    per_token_from_all_token,
    speedup,
    speedup_readings,
)

PAR = ModelConfig("parallel_hybrid", n_layers=4, d_model=32, n_heads=2,
                  d_state=8, vocab_size=64, context_limit=128)
SEQ = ModelConfig("sequential_hybrid", n_layers=4, d_model=32, n_heads=2,
                  d_state=8, vocab_size=64, context_limit=128)
TRA = ModelConfig("transformer", n_layers=4, d_model=32, n_heads=2,
                  d_state=8, vocab_size=64, context_limit=128)


class TestExpectedTokens:
    def test_zero_alpha_yields_only_the_correction_token(self):
        assert expected_tokens(0.0, 4) == 1.0

    def test_half_alpha_k2(self):
        # (1 - 0.5^3) / (1 - 0.5) = 0.875 / 0.5
        assert abs(expected_tokens(0.5, 2) - 1.75) < 1e-12

    def test_direct_evaluation_alpha_068(self):
        assert abs(expected_tokens(0.680, 2) - 2.1424) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            expected_tokens(1.0, 2)
        with pytest.raises(ValueError):
            expected_tokens(-0.1, 2)
        with pytest.raises(ValueError):
            expected_tokens(0.5, 0)

    @given(st.floats(min_value=0.0, max_value=0.999), st.integers(1, 16))
    def test_bounded_by_one_and_k_plus_one(self, alpha, k):
        et = expected_tokens(alpha, k)
        assert 1.0 <= et <= k + 1

    @given(st.floats(min_value=0.01, max_value=0.98), st.integers(1, 12))
    def test_strictly_increasing_in_alpha(self, alpha, k):
        assert expected_tokens(alpha + 0.01, k) > expected_tokens(alpha, k)

    @given(st.floats(min_value=0.05, max_value=0.99), st.integers(1, 12))
    def test_increasing_in_k_for_positive_alpha(self, alpha, k):
        lo, hi = expected_tokens(alpha, k), expected_tokens(alpha, k + 1)
        assert hi >= lo
        if alpha ** (k + 1) > 1e-12:  # below this the gain underflows
            assert hi > lo


class TestSpeedup:
    def test_degenerate_round_has_unit_speedup(self):
        assert abs(speedup(0.0, 3, 1e-12) - 1.0) < 1e-9

    def test_direct_evaluation_of_published_operating_point(self):
        assert abs(speedup(0.680, 2, 0.784) - 0.834) < 1e-3

    def test_high_alpha_low_cost(self):
        # (1 - 0.9^5)/0.1 / 1.4
        assert abs(speedup(0.9, 4, 0.1) - 2.925) < 1e-3

    @given(st.floats(min_value=0.0, max_value=0.99), st.integers(1, 8))
    def test_approaches_expected_tokens_as_cost_vanishes(self, alpha, k):
        assert abs(speedup(alpha, k, 1e-9) - expected_tokens(alpha, k)) < 1e-6

    def test_readings_reported_side_by_side(self):
        r = speedup_readings(0.680, 2, 0.784)
        assert abs(r["speedup_direct"] - 0.834) < 1e-3
        assert abs(r["speedup_all_token_converted"] - 0.975) < 1e-3
        # the two defensible readings straddle the 0.92 sometimes quoted for
        # this operating point; neither reproduces it exactly
        assert r["speedup_direct"] < 0.92 < r["speedup_all_token_converted"]

    def test_per_token_conversion(self):
        assert abs(per_token_from_all_token(0.25, 2) - 0.5) < 1e-12


class TestFlopRatio:
    @pytest.mark.parametrize("cfg", [PAR, SEQ, TRA],
                             ids=lambda c: c.arch)
    def test_identity_strategy_costs_everything(self, cfg):
        cm = flop_ratio(cfg, DraftStrategy("identity"))
        assert cm.cost_ratio == 1.0
        assert cm.draft_param_fraction == 1.0

    def test_layer_skip_matches_independent_hand_count(self):
        d, v = TRA.d_model, TRA.vocab_size
        attn = d + 4 * d * d
        ffn = d + 2 * FFN_MULT * d * d
        full = 2 * d + TRA.n_layers * (attn + ffn) + d + d * v
        strategy = DraftStrategy("layer_skip")  # ceil(4/3) = 2 layers
        draft = full - 2 * (attn + ffn)
        cm = flop_ratio(TRA, strategy)
        assert abs(cm.cost_ratio - draft / full) < 1e-12

    def test_parallel_component_only_vs_hand_count(self):
        d, s, v = PAR.d_model, PAR.d_state, PAR.vocab_size
        attn = d + 4 * d * d
        ssm = d + d * d + 2 * d * s + 2 * d + d * d
        ffn = d + 2 * FFN_MULT * d * d
        full = 2 * d + PAR.n_layers * (attn + ssm + ffn) + d + d * v
        draft = full - PAR.n_layers * attn
        cm = flop_ratio(PAR, DraftStrategy("component_only"))
        assert abs(cm.cost_ratio - draft / full) < 1e-12
        # head/embedding correction keeps the ratio above the layer-only share
        layer_only = 1.0 - PAR.n_layers * attn / (PAR.n_layers * (attn + ssm + ffn))
        assert cm.cost_ratio > layer_only

    def test_sequential_component_only_drops_whole_attention_layers(self):
        cm = flop_ratio(SEQ, DraftStrategy("component_only"))
        d, s, v = SEQ.d_model, SEQ.d_state, SEQ.vocab_size
        attn = d + 4 * d * d
        ssm = d + d * d + 2 * d * s + 2 * d + d * d
        ffn = d + 2 * FFN_MULT * d * d
        n_attn = sum(1 for i in range(SEQ.n_layers) if SEQ.layer_kind(i) == "attn")
        n_lin = SEQ.n_layers - n_attn
        full = 2 * d + n_attn * (attn + ffn) + n_lin * (ssm + ffn) + d + d * v
        draft = full - n_attn * (attn + ffn)
        assert abs(cm.cost_ratio - draft / full) < 1e-12

    def test_invalid_strategy_for_architecture_propagates(self):
        with pytest.raises(ValueError):
            flop_ratio(TRA, DraftStrategy("component_only"))

    def test_transformer_mask_with_alternative_branch_alone_rejected(self):
        n = TRA.n_layers
        on, off = (True,) * n, (False,) * n
        params_per_token(TRA, ComponentMask(on, off, off))  # attention only
        with pytest.raises(ValueError, match="mask/arch mismatch"):
            params_per_token(TRA, ComponentMask(off, on, off))

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(cost_ratio=0.0, draft_param_fraction=0.5, notes="")


class TestOptimalK:
    def test_zero_alpha_prefers_no_speculation(self):
        assert optimal_k(0.0, 0.5, 8) == 1

    def test_cheap_accurate_drafts_push_k_to_the_cap(self):
        assert optimal_k(0.99, 0.01, 16) == 16

    def test_expensive_drafts_keep_k_small(self):
        k_star = optimal_k(0.68, 0.784, 8)
        sweep = {k: speedup(0.68, k, 0.784) for k in range(1, 9)}
        assert k_star == min(sweep, key=lambda k: (-sweep[k], k))
        assert k_star <= 2

    @given(st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.01, max_value=1.0), st.integers(1, 16))
    def test_never_exceeds_cap_and_is_deterministic(self, alpha, ratio, k_max):
        a = optimal_k(alpha, ratio, k_max)
        assert 1 <= a <= k_max
        assert a == optimal_k(alpha, ratio, k_max)
