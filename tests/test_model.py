import math

import numpy as np
import pytest

from deepicf.errors import ConfigError, ModelError
from deepicf.model import (ModelConfig, Variant, backward, flatten_grads,
                           flatten_params, init_params, mlp_forward,
                           pairwise_interactions, params_from_flat,
                           pool_attention, pool_average, predict_logit,
                           score_items, tower_layer_sizes)
from deepicf.numerics import bce_from_logit, finite_diff_grad, rng_from_seed


def tiny_params(config, num_users, num_items, rng, scale=0.4):
    """Parameters at O(1) scale so finite differences sit far above the
    float64 noise floor."""
    params = init_params(config, num_users, num_items, rng)
    flat = rng.normal(0.0, scale, size=flatten_params(params, config).size)
    return params_from_flat(flat, config, num_users, num_items), flat


# straight-line oracles, recomputed from the closed-form predictors

def inner_product_oracle(params, hist, item, alpha, with_bias=True):
    hist = [j for j in hist if j != item]
    total = sum(float(params["target_embed"][item] @ params["history_embed"][j])
                for j in hist)
    scale = len(hist) ** -alpha if hist else 1.0
    out = scale * total
    if with_bias:
        out += float(params["user_bias"][0]) + float(params["item_bias"][item])
    return out


def attention_oracle(params, hist, item, beta):
    hist = [j for j in hist if j != item]
    if not hist:
        return 0.0
    scores = []
    for j in hist:
        v = params["history_embed"][j] * params["target_embed"][item]
        hidden = np.maximum(params["att_weight"] @ v + params["att_bias"], 0.0)
        scores.append(float(params["att_out"] @ hidden))
    denom = sum(math.exp(s) for s in scores) ** beta
    return sum(
        math.exp(s) / denom
        * float(params["target_embed"][item] @ params["history_embed"][j])
        for j, s in zip(hist, scores))


class TestConfig:
    def test_tower_rule(self):
        assert tower_layer_sizes(16, 3) == (16, 8, 4)
        assert tower_layer_sizes(8, 2) == (8, 4)
        assert tower_layer_sizes(6, 3) == (6, 4, 4)

    def test_default_layer_sizes_from_tower(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=16, num_layers=3)
        assert cfg.layer_sizes == (16, 8, 4)
        assert cfg.output_dim == 4

    def test_fism_requires_no_layers(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant=Variant.FISM, num_layers=1)

    def test_attention_variant_pins_alpha(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant=Variant.DEEPICF_A, alpha=0.3)

    def test_layer_sizes_must_match_depth(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant=Variant.DEEPICF, num_layers=2,
                        layer_sizes=(8,))


class TestInit:
    def test_same_seed_identical(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=8, k_prime=4,
                          num_layers=2)
        a = init_params(cfg, 5, 9, rng_from_seed(3))
        b = init_params(cfg, 5, 9, rng_from_seed(3))
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_biases_zero_and_shapes(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=4,
                          num_layers=2, layer_sizes=(5, 3))
        p = init_params(cfg, 4, 7, rng_from_seed(0))
        assert np.array_equal(p["user_bias"], np.zeros(4))
        assert np.array_equal(p["item_bias"], np.zeros(7))
        assert np.array_equal(p["att_bias"], np.zeros(4))
        assert [w.shape for w in p.layer_weights] == [(5, 6), (3, 5)]
        assert p["output_weights"].shape == (3,)

    def test_fism_output_weights_are_ones(self):
        cfg = ModelConfig(variant=Variant.FISM, k=5)
        p = init_params(cfg, 3, 4, rng_from_seed(0))
        assert np.array_equal(p["output_weights"], np.ones(5))

    def test_gaussian_statistics(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=10, num_layers=0)
        p = init_params(cfg, 2, 500, rng_from_seed(12))
        sample = np.concatenate([p["target_embed"].ravel(),
                                 p["history_embed"].ravel()])
        assert sample.size == 10_000
        assert abs(sample.mean()) < 0.001
        assert abs(sample.std() - 0.01) < 0.002


class TestForwardPieces:
    def test_pairwise_hand_value(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        p = init_params(cfg, 1, 2, rng_from_seed(0))
        p["history_embed"][1] = [3.0, 4.0]
        p["target_embed"][0] = [1.0, 2.0]
        hist, v = pairwise_interactions(p, [1], 0)
        assert hist.tolist() == [1]
        assert np.array_equal(v, [[3.0, 8.0]])

    def test_pairwise_zero_target_annihilates(self):
        cfg = ModelConfig(variant=Variant.FISM, k=3)
        p = init_params(cfg, 1, 4, rng_from_seed(1))
        p["target_embed"][2] = 0.0
        _, v = pairwise_interactions(p, [0, 1, 3], 2)
        assert np.array_equal(v, np.zeros((3, 3)))

    def test_pairwise_excludes_target(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        p = init_params(cfg, 1, 3, rng_from_seed(2))
        hist, v = pairwise_interactions(p, [1], 1)
        assert hist.size == 0 and v.shape == (0, 2)

    def test_pool_average_alphas(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(pool_average(v, 0.0), [4.0, 6.0])
        assert np.allclose(pool_average(v, 1.0), [2.0, 3.0], atol=1e-15)
        assert np.allclose(pool_average(v, 0.5), [2.828427, 4.242641],
                           atol=1e-6)

    def test_pool_average_empty_is_zero(self):
        assert np.array_equal(pool_average(np.empty((0, 3)), 0.7), np.zeros(3))

    def test_pool_attention_symmetry(self):
        v = np.array([[0.5, -1.0], [0.5, -1.0]])
        w = np.array([[0.3, 0.2], [-0.1, 0.4]])
        pooled, weights = pool_attention(v, w, np.zeros(2),
                                         np.array([1.0, -2.0]), 1.0)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-15)
        assert np.allclose(pooled, v[0], atol=1e-15)

    def test_pool_attention_zero_scorer_is_uniform(self):
        rng = rng_from_seed(5)
        v = rng.normal(size=(4, 3))
        w = rng.normal(size=(2, 3))
        _, weights = pool_attention(v, w, np.zeros(2), np.zeros(2), 1.0)
        assert np.allclose(weights, 0.25, atol=1e-15)

    def test_pool_attention_matches_straight_line_recompute(self):
        rng = rng_from_seed(8)
        v = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        h = rng.normal(size=3)
        beta = 0.6
        scores = np.array([float(h @ np.maximum(w @ row + b, 0.0))
                           for row in v])
        denom = sum(math.exp(s) for s in scores) ** beta
        weights = np.array([math.exp(s) / denom for s in scores])
        expect = sum(a * row for a, row in zip(weights, v))
        pooled, got_w = pool_attention(v, w, b, h, beta)
        assert (got_w >= 0).all()
        assert np.abs(got_w - weights).max() < 1e-12
        assert np.abs(pooled - expect).max() < 1e-12

    def test_mlp_depth_zero_is_identity(self):
        x = np.array([1.0, -2.0])
        out, pres, acts = mlp_forward(x, [], [])
        assert out is x and pres == [] and acts == []

    def test_mlp_positive_diagonal_passes_through(self):
        x = np.array([1.0, 2.0])
        out, _, _ = mlp_forward(x, [np.diag([2.0, 3.0])], [np.zeros(2)])
        assert np.array_equal(out, [2.0, 6.0])

    def test_mlp_two_layers_match_composition(self):
        rng = rng_from_seed(3)
        x = rng.normal(size=4)
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=3)
        w2, b2 = rng.normal(size=(2, 3)), rng.normal(size=2)
        out, _, acts = mlp_forward(x, [w1, w2], [b1, b2])
        e1 = np.maximum(w1 @ x + b1, 0.0)
        e2 = np.maximum(w2 @ e1 + b2, 0.0)
        assert np.array_equal(out, e2)
        assert np.array_equal(acts[0], e1)

    def test_mlp_shape_mismatch_raises(self):
        with pytest.raises(ModelError):
            mlp_forward(np.zeros(3), [np.zeros((2, 4))], [np.zeros(2)])


class TestPredict:
    def test_fism_hand_logit(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2, alpha=0.0)
        p = init_params(cfg, 1, 2, rng_from_seed(0))
        p["history_embed"][1] = [3.0, 4.0]
        p["target_embed"][0] = [1.0, 2.0]
        p["user_bias"][:] = 0.0
        p["item_bias"][:] = 0.0
        logit, _ = predict_logit(p, cfg, [1], 0, 0)
        assert logit == pytest.approx(11.0, abs=1e-12)

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)])
    def test_empty_history_is_bias_only(self, variant, layers):
        cfg = ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers)
        p = init_params(cfg, 2, 3, rng_from_seed(4))
        p["user_bias"][0] = 0.3
        p["item_bias"][1] = -0.1
        logit, _ = predict_logit(p, cfg, [], 0, 1)
        assert logit == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)])
    def test_target_exclusion_invariant(self, variant, layers):
        cfg = ModelConfig(variant=variant, k=5, k_prime=3, num_layers=layers,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        p, _ = tiny_params(cfg, 3, 8, rng_from_seed(6))
        hist = np.array([1, 4, 6])
        with_leak = np.array([1, 4, 6, 2])
        a, _ = predict_logit(p, cfg, hist, 0, 2)
        b, _ = predict_logit(p, cfg, with_leak, 0, 2)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 3), (Variant.DEEPICF_A, 2)])
    def test_history_permutation_invariant(self, variant, layers):
        cfg = ModelConfig(variant=variant, k=5, k_prime=3, num_layers=layers)
        p, _ = tiny_params(cfg, 2, 9, rng_from_seed(7))
        hist = np.array([0, 3, 5, 7])
        a, _ = predict_logit(p, cfg, hist, 1, 2)
        b, _ = predict_logit(p, cfg, hist[::-1].copy(), 1, 2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_unknown_indices_raise(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        p = init_params(cfg, 2, 3, rng_from_seed(0))
        with pytest.raises(ModelError):
            predict_logit(p, cfg, [0], 5, 1)
        with pytest.raises(ModelError):
            predict_logit(p, cfg, [0], 0, 3)

    @pytest.mark.parametrize("variant,layers,beta", [
        (Variant.FISM, 0, 0.5), (Variant.DEEPICF, 2, 0.5),
        (Variant.DEEPICF_A, 0, 1.0), (Variant.DEEPICF_A, 2, 0.4)])
    def test_batched_scoring_matches_scalar_path(self, variant, layers, beta):
        cfg = ModelConfig(variant=variant, k=6, k_prime=4, num_layers=layers,
                          beta=beta,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.3)
        p, _ = tiny_params(cfg, 3, 12, rng_from_seed(9))
        hist = np.array([0, 2, 5])
        items = np.array([1, 3, 4, 6, 7, 8, 9, 10, 11])
        batched = score_items(p, cfg, hist, 1, items)
        scalar = [predict_logit(p, cfg, hist, 1, int(i))[0] for i in items]
        assert np.abs(batched - np.array(scalar)).max() < 1e-12

    def test_batched_scoring_handles_history_overlap(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=1)
        p, _ = tiny_params(cfg, 2, 8, rng_from_seed(10))
        hist = np.array([0, 1, 2])
        items = np.array([0, 3])  # candidate inside the history
        batched = score_items(p, cfg, hist, 0, items)
        scalar = [predict_logit(p, cfg, hist, 0, int(i))[0] for i in items]
        assert np.abs(batched - np.array(scalar)).max() < 1e-12


class TestRecoveryIdentities:
    def test_deep_variant_with_trivial_head_recovers_inner_product_model(self):
        rng = rng_from_seed(21)
        cfg = ModelConfig(variant=Variant.DEEPICF, k=6, num_layers=0,
                          alpha=0.5)
        for _ in range(200):
            p, _ = tiny_params(cfg, 2, 10, rng, scale=0.5)
            p["output_weights"][:] = 1.0
            p["user_bias"][:] = 0.0
            p["item_bias"][:] = 0.0
            hist = rng.choice(10, size=rng.integers(1, 7), replace=False)
            item = int(rng.integers(10))
            logit, _ = predict_logit(p, cfg, hist, 0, item)
            want = inner_product_oracle(p, hist.tolist(), item, 0.5,
                                        with_bias=False)
            assert abs(logit - want) < 1e-12

    def test_attention_variant_with_trivial_head_recovers_attentive_model(self):
        rng = rng_from_seed(22)
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=4,
                          num_layers=0, beta=0.6)
        for _ in range(200):
            p, _ = tiny_params(cfg, 2, 10, rng, scale=0.5)
            p["output_weights"][:] = 1.0
            p["user_bias"][:] = 0.0
            p["item_bias"][:] = 0.0
            hist = rng.choice(10, size=rng.integers(1, 7), replace=False)
            item = int(rng.integers(10))
            logit, _ = predict_logit(p, cfg, hist, 0, item)
            want = attention_oracle(p, hist.tolist(), item, 0.6)
            assert abs(logit - want) < 1e-12


class TestBackward:
    def test_zero_upstream_gradient_means_zero_grads(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=5, k_prime=3,
                          num_layers=2)
        p, _ = tiny_params(cfg, 2, 8, rng_from_seed(11))
        _, cache = predict_logit(p, cfg, [0, 3, 6], 1, 2)
        flat = flatten_grads(backward(p, cfg, cache, 0.0), cfg, 2, 8)
        assert np.array_equal(flat, np.zeros_like(flat))

    def test_fism_item_bias_gradient_scalar_oracle(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2, alpha=0.0)
        p = init_params(cfg, 1, 2, rng_from_seed(0))
        p["history_embed"][1] = [3.0, 4.0]
        p["target_embed"][0] = [1.0, 2.0]
        logit, cache = predict_logit(p, cfg, [1], 0, 0)
        _, dlogit = bce_from_logit(logit, 1)
        grads = backward(p, cfg, cache, dlogit)
        want = -1.0 / (1.0 + math.exp(11.0))  # sigmoid(11) - 1
        row, d_item_bias = grads.rows["item_bias"]
        assert row == 0
        assert d_item_bias == pytest.approx(-1.67e-5, rel=1e-2)
        assert d_item_bias == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("variant,layers,beta", [
        (Variant.FISM, 0, 0.5),
        (Variant.DEEPICF, 1, 0.5), (Variant.DEEPICF, 3, 0.5),
        (Variant.DEEPICF_A, 0, 0.5), (Variant.DEEPICF_A, 2, 1.0)])
    def test_gradients_match_finite_differences(self, variant, layers, beta):
        num_users, num_items = 4, 9
        cfg = ModelConfig(variant=variant, k=5, k_prime=3, num_layers=layers,
                          beta=beta,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        rng = rng_from_seed(30, variant.value, layers)
        for trial in range(5):
            p, flat = tiny_params(cfg, num_users, num_items, rng)
            user = int(rng.integers(num_users))
            hist = rng.choice(num_items, size=int(rng.integers(1, 6)),
                              replace=False)
            item = int(rng.integers(num_items))
            label = int(rng.integers(2))

            def loss_of(theta):
                view = params_from_flat(theta, cfg, num_users, num_items)
                logit, _ = predict_logit(view, cfg, hist, user, item)
                return bce_from_logit(logit, label)[0]

            logit, cache = predict_logit(p, cfg, hist, user, item)
            _, dlogit = bce_from_logit(logit, label)
            analytic = flatten_grads(backward(p, cfg, cache, dlogit),
                                     cfg, num_users, num_items)
            numeric = finite_diff_grad(loss_of, flat, h=1e-5)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
            assert np.abs(analytic - numeric).max() / scale < 1e-6
