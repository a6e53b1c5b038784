import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepicf.numerics import (bce_from_logit, relu, rng_from_seed, sigmoid,
                              softmax_beta, softmax_beta_vjp)

from gradcheck import finite_diff_grad

mpmath.mp.dps = 50

finite_scores = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    min_size=1, max_size=40)


def mp_sigmoid(x):
    return float(1 / (1 + mpmath.e ** (-mpmath.mpf(x))))


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_deep_saturation_stays_finite_and_positive(self):
        v = sigmoid(-1000.0)
        assert 0.0 < v <= 1e-300
        assert math.isfinite(sigmoid(1000.0))
        assert sigmoid(1000.0) < 1.0

    def test_value_against_high_precision_oracle(self):
        assert sigmoid(11.0) == pytest.approx(mp_sigmoid(11.0), abs=1e-12)
        assert sigmoid(11.0) == pytest.approx(0.99998329858, abs=1e-11)

    def test_monotone(self):
        xs = np.linspace(-40, 40, 2001)
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) >= 0)

    def test_array_and_scalar_agree(self):
        xs = np.array([-5.0, 0.0, 3.0])
        assert np.array_equal(sigmoid(xs), [sigmoid(x) for x in xs])


class TestBceFromLogit:
    def test_symmetric_point(self):
        loss, grad = bce_from_logit(0.0, 1)
        assert loss == pytest.approx(math.log(2), abs=1e-15)
        assert grad == -0.5

    def test_saturated_correct_has_no_nan(self):
        loss, grad = bce_from_logit(100.0, 1)
        assert 0.0 <= loss < 1e-40
        assert math.isfinite(grad) and abs(grad) < 1e-15

    def test_value_against_scalar_oracle(self):
        loss, grad = bce_from_logit(-3.0, 0)
        want_loss = float(mpmath.log(1 + mpmath.e ** -3))
        assert loss == pytest.approx(want_loss, abs=1e-15)
        assert loss == pytest.approx(0.048587, abs=1e-6)
        assert grad == pytest.approx(0.047426, abs=1e-6)

    @given(st.floats(min_value=-60, max_value=60, allow_nan=False),
           st.integers(min_value=0, max_value=1))
    def test_gradient_is_exactly_sigmoid_minus_label(self, logit, label):
        _, grad = bce_from_logit(logit, label)
        assert grad == sigmoid(logit) - label

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            bce_from_logit(0.0, 2)
        with pytest.raises(ValueError):
            bce_from_logit(np.zeros(2), np.array([1, 2]))

    def test_array_matches_scalar_elementwise(self):
        logits = np.array([-60.0, -3.0, -1e-9, 0.0, 0.7, 40.0])
        labels = np.array([0, 1, 0, 1, 1, 0])
        loss, grad = bce_from_logit(logits, labels)
        for x, y, l, g in zip(logits, labels, loss, grad):
            want_loss, want_grad = bce_from_logit(float(x), int(y))
            assert l == pytest.approx(want_loss, rel=1e-15, abs=1e-300)
            assert g == pytest.approx(want_grad, rel=1e-15, abs=1e-300)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("logit", [math.inf, -math.inf, math.nan])
    def test_non_finite_logit_gives_non_finite_loss(self, logit):
        for label in (0, 1):
            assert not math.isfinite(bce_from_logit(logit, label)[0])
            loss, _ = bce_from_logit(np.array([0.0, logit]), np.array([1, label]))
            assert math.isfinite(loss[0]) and not math.isfinite(loss[1])


class TestSoftmaxBeta:
    def test_two_equal_scores_beta_one(self):
        assert np.allclose(softmax_beta([0.0, 0.0], 1.0), [0.5, 0.5],
                           atol=1e-15)

    def test_beta_zero_denominator_is_one(self):
        out = softmax_beta([0.0, 0.0], 0.0)
        assert np.array_equal(out, [1.0, 1.0])
        s = np.array([-3.0, 0.5, 2.0])
        assert np.array_equal(softmax_beta(s, 0.0), np.exp(s))

    @given(finite_scores)
    def test_beta_one_sums_to_one(self, scores):
        assert abs(softmax_beta(scores, 1.0).sum() - 1.0) < 1e-12

    @given(finite_scores,
           st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_beta_one_shift_invariance(self, scores, shift):
        base = softmax_beta(scores, 1.0)
        shifted = softmax_beta(np.asarray(scores) + shift, 1.0)
        assert np.abs(base - shifted).max() < 1e-12

    def test_direct_convention_below_threshold(self):
        # documented convention: for beta < 1 and max|s| <= 30 the formula
        # is evaluated directly, with no max shift
        s = np.array([-20.0, 0.0, 25.0])
        beta = 0.7
        expect = np.exp(s) / np.exp(s).sum() ** beta
        assert np.array_equal(softmax_beta(s, beta), expect)

    def test_fallback_matches_high_precision_oracle(self):
        s = np.array([120.0, 100.0, 90.0])
        beta = 0.5
        got = softmax_beta(s, beta)
        denom = mpmath.fsum(mpmath.e ** mpmath.mpf(x) for x in s) ** beta
        want = np.array([float(mpmath.e ** mpmath.mpf(x) / denom) for x in s])
        assert np.all(np.isfinite(got))
        assert np.abs(got / want - 1.0).max() < 1e-12

    def test_extreme_scores_stay_finite(self):
        out = softmax_beta([1500.0, -800.0], 0.25)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_score_not_finite_gives_its_row_nan(self, beta):
        s = np.array([[0.5, np.nan, -1.0], [0.5, 2.0, 40.0],
                      [np.inf, 0.0, 40.0], [-1.0, -np.inf, 0.5],
                      [np.nan, np.nan, np.nan]])
        mask = np.ones(s.shape, dtype=bool)
        mask[0, 1] = False
        got = softmax_beta(s, beta, mask)
        # a NaN in a masked entry is still left out
        assert np.array_equal(got[0], softmax_beta([0.5, 0.0, -1.0], beta,
                                                   mask[0]))
        assert np.array_equal(got[1], softmax_beta(s[1], beta))
        assert np.isnan(got[2:]).all()

    def test_rejects_empty_and_bad_beta(self):
        with pytest.raises(ValueError):
            softmax_beta([], 1.0)
        with pytest.raises(ValueError):
            softmax_beta([0.0], 1.5)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2 ** 32), finite_scores,
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_vjp_matches_finite_differences(self, seed, scores, beta):
        s = np.asarray(scores, dtype=np.float64)
        rng = np.random.default_rng(seed)
        cot = rng.normal(size=s.size)
        got = softmax_beta_vjp(s, softmax_beta(s, beta), beta, cot)
        fd = finite_diff_grad(lambda t: float(cot @ softmax_beta(t, beta)),
                              s, h=1e-6)
        scale = max(np.abs(got).max(), np.abs(fd).max(), 1.0)
        assert np.abs(got - fd).max() / scale < 1e-6

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_masked_rows_match_per_row_calls(self, seed, beta):
        # rows of 7 scores at scale 20, so some rows take the log-domain
        # branch and some the direct one; row 0 hides a huge masked score,
        # which must not move it off the direct branch, and row 1 is
        # masked out entirely
        rng = np.random.default_rng(seed)
        s = rng.normal(0.0, 20.0, size=(6, 7))
        mask = rng.random((6, 7)) < 0.8
        s[0] = rng.uniform(-5.0, 5.0, size=7)
        s[0, 3], mask[0, 3] = 500.0, False
        mask[1] = False
        cot = rng.normal(size=(6, 7))
        got = softmax_beta(s, beta, mask)
        got_vjp = softmax_beta_vjp(s, got, beta, cot, mask)
        for r in range(6):
            want, want_vjp = np.zeros(7), np.zeros(7)
            keep = mask[r]
            if keep.any():
                want[keep] = softmax_beta(s[r, keep], beta)
                want_vjp[keep] = softmax_beta_vjp(s[r, keep], want[keep],
                                                  beta, cot[r, keep])
            assert np.array_equal(got[r], want)
            assert np.array_equal(got_vjp[r], want_vjp)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2),
                                np.array([3.0]), h=1e-5)
        assert abs(grad[0] - 6.0) < 1e-8

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 1.25, np.zeros(4), h=1e-5)
        assert np.array_equal(grad, np.zeros(4))

    def test_non_finite_function_raises(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: float("nan"), np.zeros(2), h=1e-5)


class TestRelu:
    def test_values(self):
        assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])),
                              [0.0, 0.0, 3.0])


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(99, "x").normal(size=8)
        b = rng_from_seed(99, "x").normal(size=8)
        assert np.array_equal(a, b)

    def test_labels_give_independent_streams(self):
        a = rng_from_seed(99, "x").normal(size=8)
        b = rng_from_seed(99, "y").normal(size=8)
        assert not np.array_equal(a, b)
