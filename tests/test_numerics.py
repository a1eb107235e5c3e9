import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st
from scipy import stats
from scipy.special import expit

from speclab.numerics import (
    RngState,
    sample_categorical,
    sigmoid,
    softmax,
)
from speclab.model import NORM_EPS, rmsnorm

finite_logits = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1,
    max_size=40,
).map(lambda xs: np.array(xs))


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_hand_evaluated_exp_normalize(self):
        # exp(ln 2) = 2, exp(0) = 1 -> (2/3, 1/3)
        p = softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_temperature_is_greedy_one_hot(self):
        np.testing.assert_array_equal(softmax(np.array([1.0, 3.0]), 0.0), [0.0, 1.0])

    def test_zero_temperature_tie_breaks_low_index(self):
        np.testing.assert_array_equal(
            softmax(np.array([2.0, 2.0, 1.0]), 0.0), [1.0, 0.0, 0.0])

    def test_empty_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, 2.0]), -0.5)

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.inf]))

    @given(finite_logits, st.floats(min_value=1e-3, max_value=1e3))
    def test_output_is_valid_distribution(self, logits, temp):
        p = softmax(logits, temp)
        assert p.shape == logits.shape
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-9

    @given(finite_logits,
           st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_shift_invariance(self, logits, c):
        np.testing.assert_allclose(
            softmax(logits + c), softmax(logits), atol=1e-12)

    @given(finite_logits, st.floats(min_value=1e-2, max_value=1e2))
    def test_argmax_invariant_to_temperature(self, logits, temp):
        # exact wherever the top two logits are further apart than rounding
        # (of the logits' scale, and of exp's near 1); closer, both
        # probabilities can round to the same value at one temperature only
        top2 = np.sort(logits)[-2:]
        assume(logits.size == 1 or top2[1] - top2[0]
               > 1e-9 * max(1.0, np.max(np.abs(logits))))
        assert np.argmax(softmax(logits, temp)) == np.argmax(softmax(logits, 1.0))

    def test_near_tie_argmax_is_within_one_ulp_of_the_max(self):
        # a near tie where the argmax does move with temperature: at T = 5
        # both probabilities round to 0.5 and index 0 is picked; its logit is
        # one ulp of 1.0, the scale exp works at, below the maximum
        logits = np.array([-2.220446049250313e-16, 0.0])
        assert np.argmax(softmax(logits, 1.0)) == 1
        i = int(np.argmax(softmax(logits, 5.0)))
        assert logits.max() - logits[i] <= np.spacing(1.0)


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_within_four_ulp_of_scipy_expit(self, dtype):
        # a fixed grid inside the range where neither side is subnormal
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-40.0, 40.0, 20_001),
                            rng.normal(0.0, 8.0, 200_000)]).astype(dtype)
        np.testing.assert_array_max_ulp(sigmoid(x), expit(x), maxulp=4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_inputs_are_exact(self, dtype):
        x = np.array([1000.0, np.inf, -np.inf], dtype=dtype)
        np.testing.assert_array_equal(sigmoid(x), [1.0, 1.0, 0.0])
        # exp overflows at -1000; NumPy warns and the result is still 0
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert sigmoid(np.array([-1000.0], dtype=dtype))[0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype_and_leaves_input_alone(self, dtype):
        x = np.linspace(-3.0, 3.0, 7, dtype=dtype)
        before = x.copy()
        y = sigmoid(x)
        assert y.dtype == dtype and y.shape == x.shape
        np.testing.assert_array_equal(x, before)
        assert y[3] == 0.5


class TestSampleCategorical:
    def test_one_hot_always_returns_its_index(self):
        p = np.zeros(8)
        p[3] = 1.0
        for seed in (0, 1, 99):
            assert sample_categorical(p, RngState(seed)) == 3

    @pytest.mark.parametrize("i", [0, 3, 7])
    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_one_hot_returns_its_index_at_either_end_of_the_uniform(self, i, u):
        # greedy picks are sample_categorical of softmax(., 0) one-hots, so
        # no uniform in [0, 1) may move them off the argmax
        class FixedRng:
            def uniform(self):
                return u

        p = np.zeros(8)
        p[i] = 1.0
        assert sample_categorical(p, FixedRng()) == i

    def test_same_seed_same_draw(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        a = [sample_categorical(p, RngState(7)) for _ in range(5)]
        b = [sample_categorical(p, RngState(7)) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
    def test_negative_or_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative with a finite sum"):
            sample_categorical(np.array([0.5, bad, 0.5]), RngState(0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_categorical(np.zeros(4), RngState(0))

    def test_frequencies_match_distribution(self):
        # chi-square on 100k draws from (0.25, 0.75)
        p = np.array([0.25, 0.75])
        rng = RngState(1234)
        draws = np.array([sample_categorical(p, rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=2)
        _, pval = stats.chisquare(counts, p * 100_000)
        assert pval > 0.01

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=25)
    def test_reproducible_sequences_bitwise(self, seed):
        a = RngState(seed).uniforms(32)
        b = RngState(seed).uniforms(32)
        np.testing.assert_array_equal(a, b)

    def test_spawned_substreams_are_independent_and_stable(self):
        parent = RngState(5)
        kids_a = parent.spawn(3)
        kids_b = RngState(5).spawn(3)
        for ka, kb in zip(kids_a, kids_b):
            np.testing.assert_array_equal(ka.uniforms(8), kb.uniforms(8))
        assert not np.array_equal(kids_a[0].uniforms(8), kids_a[1].uniforms(8))


class TestRmsNorm:
    def test_zero_input_stays_zero(self):
        x = np.zeros(6)
        np.testing.assert_array_equal(rmsnorm(x, np.ones(6))[0], x)

    def test_unit_mean_square_is_identity(self):
        x = np.ones(4)
        np.testing.assert_allclose(rmsnorm(x, np.ones(4))[0],
                                   x / np.sqrt(1.0 + NORM_EPS))

    def test_rescales_by_root_mean_square(self):
        # mean square of (2, 2) is 4 -> divide by 2
        np.testing.assert_allclose(
            rmsnorm(np.array([2.0, 2.0]), np.ones(2))[0],
            np.array([2.0, 2.0]) / np.sqrt(4.0 + NORM_EPS))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmsnorm(np.ones(4), np.ones(3))

    def test_broadcasts_over_leading_axes(self):
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out, _ = rmsnorm(x, np.ones(4))
        np.testing.assert_allclose(out[1, 2], rmsnorm(x[1, 2], np.ones(4))[0])

    def test_keeps_float32(self):
        x = np.arange(8, dtype=np.float32).reshape(2, 4)
        assert rmsnorm(x, np.ones(4, dtype=np.float32))[0].dtype == np.float32
