import math

import numpy as np
import pytest

from deepicf.errors import ConfigError, ModelError
from deepicf.model import (ModelConfig, Variant, backward, flatten_grads,
                           flatten_params, init_params, params_from_flat,
                           predict_logit, score_items, tower_layer_sizes)
from deepicf.numerics import bce_from_logit, finite_diff_grad, rng_from_seed


def tiny_params(config, num_users, num_items, rng, scale=0.4):
    """Parameters at O(1) scale so finite differences sit far above the
    float64 noise floor."""
    params = init_params(config, num_users, num_items, rng)
    flat = rng.normal(0.0, scale, size=flatten_params(params, config).size)
    return params_from_flat(flat, config, num_users, num_items), flat


# straight-line oracles, recomputed from the closed-form predictors

def tower_oracle(params, pooled, layers):
    """The ReLU tower and the output vector over a pooled vector, as plain
    loops over units."""
    out = [float(x) for x in pooled]
    for layer in range(layers):
        w, b = params[f"W{layer}"], params[f"b{layer}"]
        out = [max(sum(float(w[r, c]) * out[c] for c in range(len(out)))
                   + float(b[r]), 0.0)
               for r in range(len(b))]
    return sum(float(h) * x for h, x in zip(params["output_weights"], out))


def inner_product_oracle(params, hist, item, alpha, with_bias=True,
                         layers=0, user=0):
    hist = [j for j in hist if j != item]
    scale = len(hist) ** -alpha if hist else 1.0
    p = params["target_embed"][item]
    pooled = [scale * sum(float(p[c] * params["history_embed"][j][c])
                          for j in hist)
              for c in range(p.size)]
    out = tower_oracle(params, pooled, layers)
    if with_bias:
        out += float(params["user_bias"][user]) + float(params["item_bias"][item])
    return out


def attention_oracle(params, hist, item, beta, with_bias=True, layers=0,
                     user=0):
    hist = [j for j in hist if j != item]
    p = params["target_embed"][item]
    scores = []
    for j in hist:
        v = params["history_embed"][j] * p
        hidden = np.maximum(params["att_weight"] @ v + params["att_bias"], 0.0)
        scores.append(float(params["att_out"] @ hidden))
    denom = sum(math.exp(s) for s in scores) ** beta
    pooled = [sum(math.exp(s) / denom
                  * float(p[c] * params["history_embed"][j][c])
                  for j, s in zip(hist, scores))
              for c in range(p.size)]
    out = tower_oracle(params, pooled, layers)
    if with_bias:
        out += float(params["user_bias"][user]) + float(params["item_bias"][item])
    return out


def logit_oracle(params, cfg, hist, user, item):
    if cfg.uses_attention:
        return attention_oracle(params, hist, item, cfg.beta,
                                layers=cfg.num_layers, user=user)
    return inner_product_oracle(params, hist, item, cfg.alpha,
                                layers=cfg.num_layers, user=user)


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
        assert [p[f"W{l}"].shape for l in range(2)] == [(5, 6), (3, 5)]
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


def hand_params(cfg, num_items, **arrays):
    """Zero-bias parameters with the named tensors or rows set by hand:
    ``arrays`` maps a tensor name to an array, or to {row: values}."""
    params = init_params(cfg, 1, num_items, rng_from_seed(0))
    for name, value in arrays.items():
        if isinstance(value, dict):
            for row, values in value.items():
                params[name][row] = values
        else:
            params[name] = np.asarray(value, dtype=np.float64)
    return params


class TestForwardPieces:
    def test_pairwise_hand_value(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        p = hand_params(cfg, 2, history_embed={1: [3.0, 4.0]},
                        target_embed={0: [1.0, 2.0]})
        _, cache = predict_logit(p, cfg, [1], 0, 0)
        assert cache.hist[cache.keep].tolist() == [1]
        assert np.array_equal(cache.pooled, [3.0, 8.0])

    def test_pairwise_zero_target_annihilates(self):
        cfg = ModelConfig(variant=Variant.FISM, k=3)
        p = init_params(cfg, 1, 4, rng_from_seed(1))
        p["target_embed"][2] = 0.0
        logit, cache = predict_logit(p, cfg, [0, 1, 3], 0, 2)
        assert np.array_equal(cache.pooled, np.zeros(3))
        assert logit == 0.0

    def test_pairwise_excludes_target(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        p = init_params(cfg, 1, 3, rng_from_seed(2))
        _, cache = predict_logit(p, cfg, [1], 0, 1)
        assert cache.hist[cache.keep].size == 0
        assert np.array_equal(cache.pooled, np.zeros(2))

    def test_pool_average_alphas(self):
        # a target of ones makes the pairwise products the history rows
        arrays = dict(target_embed={0: [1.0, 1.0]},
                      history_embed={1: [1.0, 2.0], 2: [3.0, 4.0]})
        pooled = {}
        for alpha in (0.0, 1.0, 0.5):
            cfg = ModelConfig(variant=Variant.FISM, k=2, alpha=alpha)
            _, cache = predict_logit(hand_params(cfg, 3, **arrays), cfg,
                                     [1, 2], 0, 0)
            pooled[alpha] = cache.pooled
        assert np.array_equal(pooled[0.0], [4.0, 6.0])
        assert np.allclose(pooled[1.0], [2.0, 3.0], atol=1e-15)
        assert np.allclose(pooled[0.5], [2.828427, 4.242641], atol=1e-6)

    def test_pool_average_empty_is_zero(self):
        cfg = ModelConfig(variant=Variant.FISM, k=3, alpha=0.7)
        p = init_params(cfg, 1, 2, rng_from_seed(0))
        _, cache = predict_logit(p, cfg, [], 0, 1)
        assert np.array_equal(cache.pooled, np.zeros(3))

    def test_pool_attention_symmetry(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=2, k_prime=2, beta=1.0)
        p = hand_params(cfg, 3, target_embed={0: [1.0, 1.0]},
                        history_embed={1: [0.5, -1.0], 2: [0.5, -1.0]},
                        att_weight=[[0.3, 0.2], [-0.1, 0.4]],
                        att_bias=np.zeros(2), att_out=[1.0, -2.0])
        _, cache = predict_logit(p, cfg, [1, 2], 0, 0)
        assert np.allclose(cache.weights, [0.5, 0.5], atol=1e-15)
        assert np.allclose(cache.pooled, [0.5, -1.0], atol=1e-15)

    def test_pool_attention_zero_scorer_is_uniform(self):
        rng = rng_from_seed(5)
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=3, k_prime=2, beta=1.0)
        p = hand_params(cfg, 5, history_embed=rng.normal(size=(5, 3)),
                        att_weight=rng.normal(size=(2, 3)),
                        att_bias=np.zeros(2), att_out=np.zeros(2))
        _, cache = predict_logit(p, cfg, [1, 2, 3, 4], 0, 0)
        assert np.allclose(cache.weights, 0.25, atol=1e-15)

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
        # a target of ones makes the pairwise products the history rows
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3, beta=beta)
        p = hand_params(cfg, 6, target_embed={0: np.ones(4)},
                        history_embed={1 + t: row for t, row in enumerate(v)},
                        att_weight=w, att_bias=b, att_out=h)
        _, cache = predict_logit(p, cfg, [1, 2, 3, 4, 5], 0, 0)
        got_w = cache.weights
        assert (got_w >= 0).all()
        assert np.abs(got_w - weights).max() < 1e-12
        assert np.abs(cache.pooled - expect).max() < 1e-12

    def test_mlp_depth_zero_is_identity(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=2, num_layers=0)
        p = hand_params(cfg, 2, target_embed={0: [1.0, 1.0]},
                        history_embed={1: [1.0, -2.0]},
                        output_weights=[0.5, 2.0])
        logit, cache = predict_logit(p, cfg, [1], 0, 0)
        assert cache.layer_pres == [] and cache.layer_acts == []
        assert logit == -3.5

    def test_mlp_positive_diagonal_passes_through(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=2, num_layers=1,
                          layer_sizes=(2,))
        p = hand_params(cfg, 2, target_embed={0: [1.0, 1.0]},
                        history_embed={1: [1.0, 2.0]},
                        W0=np.diag([2.0, 3.0]), b0=np.zeros(2))
        _, cache = predict_logit(p, cfg, [1], 0, 0)
        assert np.array_equal(cache.layer_acts[-1], [2.0, 6.0])

    def test_mlp_two_layers_match_composition(self):
        rng = rng_from_seed(3)
        x = rng.normal(size=4)
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=3)
        w2, b2 = rng.normal(size=(2, 3)), rng.normal(size=2)
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=2,
                          layer_sizes=(3, 2))
        p = hand_params(cfg, 2, target_embed={0: np.ones(4)},
                        history_embed={1: x}, W0=w1, b0=b1, W1=w2, b1=b2)
        _, cache = predict_logit(p, cfg, [1], 0, 0)
        e1 = np.maximum(w1 @ x + b1, 0.0)
        e2 = np.maximum(w2 @ e1 + b2, 0.0)
        assert np.array_equal(cache.pooled, x)
        assert np.array_equal(cache.layer_acts[-1], e2)
        assert np.array_equal(cache.layer_acts[0], e1)

    def test_mlp_shape_mismatch_raises(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1,
                          layer_sizes=(2,))
        p = hand_params(cfg, 2, W0=np.zeros((2, 4)))
        with pytest.raises(ModelError):
            predict_logit(p, cfg, [1], 0, 0)
        with pytest.raises(ModelError):
            score_items(p, cfg, [1], 0, [0])


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
        # user -1 must not wrap around to the last user, nor user 2 escape
        # as an IndexError
        for user in (-1, 2):
            with pytest.raises(ModelError, match="user index"):
                score_items(p, cfg, [0], user, [1])

    @pytest.mark.parametrize("variant,layers,beta", [
        (Variant.FISM, 0, 0.5), (Variant.DEEPICF, 2, 0.5),
        (Variant.DEEPICF_A, 0, 1.0), (Variant.DEEPICF_A, 2, 0.4)])
    def test_batched_scoring_matches_scalar_path(self, variant, layers, beta):
        cfg = ModelConfig(variant=variant, k=6, k_prime=4, num_layers=layers,
                          beta=beta,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.3)
        p, _ = tiny_params(cfg, 3, 12, rng_from_seed(9))
        hist = np.array([0, 2, 5])
        # 0, 2 and 5 are inside the history, the others outside
        items = np.array([1, 3, 4, 6, 7, 8, 9, 10, 11, 0, 2, 5])
        batched = score_items(p, cfg, hist, 1, items)
        scalar = [predict_logit(p, cfg, hist, 1, int(i))[0] for i in items]
        assert np.abs(batched - np.array(scalar)).max() < 1e-12
        oracle = [logit_oracle(p, cfg, hist.tolist(), 1, int(i)) for i in items]
        assert np.abs(batched - np.array(oracle)).max() < 1e-12

    def test_batched_scoring_handles_history_overlap(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=1)
        p, _ = tiny_params(cfg, 2, 8, rng_from_seed(10))
        hist = np.array([0, 1, 2])
        items = np.array([0, 3])  # candidate inside the history
        batched = score_items(p, cfg, hist, 0, items)
        scalar = [predict_logit(p, cfg, hist, 0, int(i))[0] for i in items]
        assert np.abs(batched - np.array(scalar)).max() < 1e-12
        oracle = [logit_oracle(p, cfg, hist.tolist(), 0, int(i)) for i in items]
        assert np.abs(batched - np.array(oracle)).max() < 1e-12


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

    # a group's summed loss: 5 repeats, and 2 and 0 sit in the history,
    # each masked out of its own pool only
    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)])
    def test_group_gradients_match_finite_differences(self, variant, layers):
        num_users, num_items = 4, 9
        cfg = ModelConfig(variant=variant, k=5, k_prime=3, num_layers=layers,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        p, flat = tiny_params(cfg, num_users, num_items,
                              rng_from_seed(31, variant.value))
        hist, user = np.array([0, 2, 4, 7]), 3
        items = np.array([2, 5, 8, 5, 0])
        labels = np.array([1, 0, 0, 0, 1])

        def loss_of(theta):
            view = params_from_flat(theta, cfg, num_users, num_items)
            logit, _ = predict_logit(view, cfg, hist, user, items)
            return bce_from_logit(logit, labels)[0].sum()

        logit, cache = predict_logit(p, cfg, hist, user, items)
        _, dlogit = bce_from_logit(logit, labels)
        grads = backward(p, cfg, cache, dlogit)
        assert grads.rows["target_embed"][0].tolist() == items.tolist()
        assert sorted(grads.rows["history_embed"][0].tolist()) == [0, 2, 4, 7]
        analytic = flatten_grads(grads, cfg, num_users, num_items)
        numeric = finite_diff_grad(loss_of, flat, h=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_row_masked_by_every_candidate_gets_no_gradient(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3)
        p, _ = tiny_params(cfg, 2, 6, rng_from_seed(12))
        _, cache = predict_logit(p, cfg, [1, 3, 4], 0, np.array([3, 3]))
        grads = backward(p, cfg, cache, np.array([0.5, -0.25]))
        rows, values = grads.rows["history_embed"]
        assert rows.tolist() == [1, 4] and values.shape == (2, 4)
        assert grads.rows["target_embed"][0].tolist() == [3, 3]
        assert grads.rows["item_bias"][1].tolist() == [0.5, -0.25]
        assert grads.rows["user_bias"][1] == 0.25

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
