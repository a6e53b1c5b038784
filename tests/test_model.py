import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deepicf import model
from deepicf.errors import ConfigError, ModelError
from deepicf.model import (ModelConfig, ModelParams, Variant, backward,
                           init_params, param_layout, predict_logit,
                           score_items, tower_layer_sizes)
from deepicf.numerics import bce_from_logit, rng_from_seed
from deepicf.training import loss_with_reg

import attention_oracle as history_major
from gradcheck import (finite_diff_grad, flatten_grads, flatten_params,
                       params_from_flat)


def predict(params, config, history, user, items):
    """``predict_logit`` on one item, or on an array of candidates as a
    batch of one user."""
    if np.ndim(items):
        return predict_logit(params, config, [history], [user], items,
                             [np.size(items)])
    return predict_logit(params, config, history, user, items)


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

    @pytest.mark.parametrize("changes, message", [
        (dict(k=0), "embedding size must be positive, got 0"),
        (dict(num_layers=1, layer_sizes=(0,)),
         r"layer sizes must be positive, got \(0,\)"),
        (dict(variant=Variant.DEEPICF_A, k_prime=0),
         "attention size must be positive, got 0"),
        (dict(alpha=1.5), r"alpha must be in \[0, 1\], got 1.5"),
        (dict(beta=-0.1), r"beta must be in \[0, 1\], got -0.1"),
        (dict(beta=1.5), r"beta must be in \[0, 1\], got 1.5"),
        (dict(l2=-1e-6), "lambda must be >= 0, got -1e-06"),
        (dict(lr=-0.01), "lr must be >= 0, got -0.01"),
        (dict(num_negatives=-1), "NS must be >= 0, got -1"),
        (dict(epochs=-1), "epochs must be >= 0, got -1"),
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(l2=math.nan), "lambda must be finite, got nan"),
        (dict(lr=math.nan), "lr must be finite, got nan"),
        (dict(lr=math.inf), "lr must be finite, got inf"),
        (dict(eval_every=-1), "eval_every must be >= 0, got -1"),
        (dict(pretrain_epochs=-5), "pretrain_epochs must be >= 0, got -5"),
    ])
    def test_out_of_range_value_is_named(self, changes, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ModelConfig(**{"variant": Variant.DEEPICF, **changes})

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
        for x, y in zip(a.values(), b.values()):
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

    @pytest.mark.parametrize("num_users, num_items", [(0, 4), (3, 0)])
    def test_no_users_or_items_is_an_error(self, num_users, num_items):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        with pytest.raises(ModelError, match="at least one user and one item"):
            init_params(cfg, num_users, num_items, rng_from_seed(0))

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


LAYOUT_CASES = ([(Variant.FISM, 0)]
                + [(v, layers) for v in (Variant.DEEPICF, Variant.DEEPICF_A)
                   for layers in (0, 1, 3)])


class TestModelParams:
    def test_assignment_writes_through_to_flat(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1,
                          layer_sizes=(3,))
        p = init_params(cfg, 2, 4, rng_from_seed(0))
        p["W0"] = np.arange(9.0).reshape(3, 3)
        p["item_bias"][2] = 5.0
        start = sum(a.size for name, a in p.items()
                    if name in ("target_embed", "history_embed", "user_bias"))
        assert p.flat[start + 2] == 5.0
        # W0 sits between the output vector and b0, both of size 3
        assert np.array_equal(p.flat[-(9 + 3):-3], np.arange(9.0))
        assert np.array_equal(
            np.concatenate([a.ravel() for a in p.values()]), p.flat)

    def test_assigning_another_shape_raises(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1,
                          layer_sizes=(3,))
        p = init_params(cfg, 2, 4, rng_from_seed(0))
        before = p.flat.copy()
        for value in (np.zeros((3, 4)), np.zeros(3), 0.0):
            with pytest.raises(ModelError) as err:
                p["W0"] = value
            message = str(err.value)
            assert "W0" in message and "(3, 3)" in message
            assert str(np.shape(value)) in message
        assert np.array_equal(p.flat, before)

    # the layout below holds 2 * 12 embedding, 2 + 4 bias, 3 output and
    # 9 + 3 tower entries
    @pytest.mark.parametrize("flat", [
        np.zeros(44), np.zeros(45, np.float32), np.zeros((1, 45))],
        ids=["short", "float32", "2-D"])
    def test_wrong_flat_is_refused(self, flat):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1,
                          layer_sizes=(3,))
        layout = param_layout(cfg, 2, 4)
        assert model.ModelParams(layout, np.zeros(45)).flat.size == 45
        with pytest.raises(ModelError, match="layout needs 45 float64"
                           " entries, got "):
            model.ModelParams(layout, flat)

    def test_clone_is_independent(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=3, k_prime=2,
                          num_layers=1)
        p = init_params(cfg, 2, 4, rng_from_seed(0))
        before = p.flat.copy()
        copy = p.clone()
        assert copy.layout == p.layout
        assert np.array_equal(copy.flat, before)
        copy["att_out"][0] = 1.0
        copy.flat[0] = 2.0
        assert copy["target_embed"][0, 0] == 2.0
        assert np.array_equal(p.flat, before)
        p["W0"][:] = 3.0
        assert not np.any(copy["W0"] == 3.0)

    @pytest.mark.parametrize("variant,layers", LAYOUT_CASES)
    def test_trained_dense_tensors_are_the_layout_tail(self, variant, layers):
        cfg = ModelConfig(variant=variant, k=8, k_prime=3, num_layers=layers)
        layout = param_layout(cfg, 3, 5)
        p = init_params(cfg, 3, 5, rng_from_seed(0))
        _, cache = predict_logit(p, cfg, [0, 2], 1, 4)
        dense = backward(p, cfg, cache, 1.0).dense
        rows = ["target_embed", "history_embed", "user_bias", "item_bias"]
        trained = [name for name, _, is_trained in layout
                   if is_trained and name not in rows]
        assert list(dense) == trained
        assert dense.layout == layout[len(layout) - len(trained):]
        size = dense.flat.size
        assert size == sum(a.size for name, a in p.items() if name in trained)
        if size:
            assert np.shares_memory(p.flat[-size:], p[trained[0]])
        # the trained tensors are a prefix: FISM's output vector is last
        untrained = [name for name, _, is_trained in layout if not is_trained]
        assert untrained == (["output_weights"] if variant is Variant.FISM
                             else [])


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
        assert np.allclose(cache.net[3], [0.5, 0.5], atol=1e-15)
        assert np.allclose(cache.pooled, [0.5, -1.0], atol=1e-15)

    def test_pool_attention_zero_scorer_is_uniform(self):
        rng = rng_from_seed(5)
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=3, k_prime=2, beta=1.0)
        p = hand_params(cfg, 5, history_embed=rng.normal(size=(5, 3)),
                        att_weight=rng.normal(size=(2, 3)),
                        att_bias=np.zeros(2), att_out=np.zeros(2))
        _, cache = predict_logit(p, cfg, [1, 2, 3, 4], 0, 0)
        assert np.allclose(cache.net[3], 0.25, atol=1e-15)

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
        got_w = cache.net[3]
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
        # parameters of another config's layout: a tower 4 units wide
        p = hand_params(replace(cfg, layer_sizes=(4,)), 2)
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
        for item in (-1, 3):
            with pytest.raises(ModelError, match=f"item index {item} "):
                score_items(p, cfg, [0], 0, [1, item])

    @pytest.mark.parametrize("variant", [Variant.FISM, Variant.DEEPICF_A])
    def test_history_indices_out_of_range_raise(self, variant):
        # history item -1 must not score as the last item, nor item 5
        # escape as an IndexError, through a block or the one-item path
        cfg = ModelConfig(variant=variant, k=3, k_prime=2)
        p, _ = tiny_params(cfg, 1, 5, rng_from_seed(9))
        assert score_items(p, cfg, [4], 0, [0]).shape == (1,)
        assert isinstance(predict_logit(p, cfg, [4], 0, 1)[0], float)
        for index in (-1, 5):
            with pytest.raises(ModelError,
                               match=f"^history item index {index} outside"):
                score_items(p, cfg, [1, index], 0, [0, 2])
            with pytest.raises(ModelError,
                               match=f"^history item index {index} outside"):
                predict_logit(p, cfg, [1, index], 0, 2)

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)])
    def test_no_candidates_score_to_nothing(self, variant, layers):
        cfg = ModelConfig(variant=variant, k=3, k_prime=2, num_layers=layers)
        p, _ = tiny_params(cfg, 2, 5, rng_from_seed(1))
        assert score_items(p, cfg, [1, 4], 0, []).shape == (0,)
        # and a block with no users at all
        assert model._score_users(p, cfg, [], [], [], []).shape == (0,)

    @pytest.mark.parametrize("variant", [Variant.FISM, Variant.DEEPICF_A])
    def test_batch_sizes_must_lay_out_the_candidates(self, variant):
        # a count per user, none negative, summing to the candidates:
        # otherwise a block reads past its candidates, leaves logits
        # unwritten or cuts a wrong share of the attention scratch
        cfg = ModelConfig(variant=variant, k=3, k_prime=2)
        p, _ = tiny_params(cfg, 3, 8, rng_from_seed(2))
        histories = [[1, 4], [0, 5, 6]]
        for users, items, sizes in (
                ([0], np.arange(6), [1]), ([0], np.arange(3), [4]),
                ([0], np.arange(2), [-1]), ([0, 1], np.arange(1), [2, -1]),
                ([0, 1], np.arange(3), [3]), ([0, 1], np.arange(0), [0, 1]),
                ([0, 1], np.arange(3), [[1, 2]])):
            with pytest.raises(ModelError, match="do not lay out"):
                predict_logit(p, cfg, histories[:len(users)], users, items,
                              sizes)
        with pytest.raises(ModelError, match="do not lay out"):
            predict_logit(p, cfg, histories, [0], np.arange(3), [3])
        logit, _ = predict_logit(p, cfg, histories, [0, 1], np.arange(3),
                                 [0, 3])
        assert np.array_equal(logit, score_items(p, cfg, histories[1], 1,
                                                 np.arange(3)))

    def test_two_dimensional_candidates_raise(self):
        cfg = ModelConfig(variant=Variant.FISM, k=2)
        p = init_params(cfg, 1, 4, rng_from_seed(0))
        with pytest.raises(ModelError, match=r"shape \(2, 1\), not 1-D"):
            score_items(p, cfg, [0], 0, [[1], [2]])

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

    # a batch's summed loss: 5 repeats, and 2 and 0 sit in the history,
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
            logit, _ = predict(view, cfg, hist, user, items)
            return bce_from_logit(logit, labels)[0].sum()

        logit, cache = predict(p, cfg, hist, user, items)
        _, dlogit = bce_from_logit(logit, labels)
        grads = backward(p, cfg, cache, dlogit)
        assert grads.rows["target_embed"][0].tolist() == [0, 2, 5, 8]
        assert grads.rows["history_embed"][0].tolist() == [0, 2, 4, 7]
        analytic = flatten_grads(grads, cfg, num_users, num_items)
        numeric = finite_diff_grad(loss_of, flat, h=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-4

    @pytest.mark.parametrize("items", [3, np.array([3, 5, 3])],
                             ids=["one", "array"])
    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 2)])
    def test_empty_history_gradients_match_finite_differences(
            self, variant, layers, items):
        num_users, num_items = 2, 6
        cfg = ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers)
        p, flat = tiny_params(cfg, num_users, num_items,
                              rng_from_seed(32, variant.value))
        labels = np.ones_like(items)

        def loss_of(theta):
            view = params_from_flat(theta, cfg, num_users, num_items)
            logit, _ = predict(view, cfg, [], 1, items)
            return bce_from_logit(logit, labels)[0].sum()

        logit, cache = predict(p, cfg, [], 1, items)
        grads = backward(p, cfg, cache, bce_from_logit(logit, labels)[1])
        rows, values = grads.rows["history_embed"]
        assert rows.size == 0 and values.shape[-1] == cfg.k
        assert np.broadcast_to(values, (rows.size, cfg.k)).shape == (0, cfg.k)
        analytic = flatten_grads(grads, cfg, num_users, num_items)
        numeric = finite_diff_grad(loss_of, flat, h=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-6

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)])
    def test_block_cache_backward_runs_once(self, variant, layers):
        # backward overwrites DeepICF_A's attention units with its masked
        # score gradients, so a cache, of a block or of one item, serves
        # one pass, and the pass it serves is the one a fresh cache gives
        cfg = ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers)
        p, _ = tiny_params(cfg, 3, 9, rng_from_seed(13, variant.value))
        histories, users = [[0, 2, 4, 7], [], [5]], [0, 1, 2]
        items, sizes = np.array([2, 5, 8, 3, 5, 6]), [3, 1, 2]
        dlogit = np.linspace(-0.5, 0.5, items.size)
        first = []
        for _ in range(2):
            _, blocks = predict_logit(p, cfg, histories, users, items, sizes)
            first.append(backward(p, cfg, blocks, dlogit))
            with pytest.raises(ModelError, match="already run"):
                backward(p, cfg, blocks, dlogit)
            with pytest.raises(ModelError, match="already run"):
                backward(p, cfg, blocks[:1], dlogit)
        assert np.array_equal(first[0].dense.flat, first[1].dense.flat)
        for name, (rows, values) in first[0].rows.items():
            assert np.array_equal(first[1].rows[name][0], rows)
            assert np.array_equal(first[1].rows[name][1], values)
        _, cache = predict_logit(p, cfg, histories[0], 0, 2)
        backward(p, cfg, cache, 0.5)
        with pytest.raises(ModelError, match="already run"):
            backward(p, cfg, cache, 0.5)

    def test_attention_scratch_holds_the_units(self):
        # a training batch cuts each user's attention units, in turn, from
        # the scratch it is given, which must hold them all
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3)
        p, _ = tiny_params(cfg, 3, 9, rng_from_seed(14))
        histories, users = [[0, 2, 4, 7], [], [5]], [0, 1, 2]
        items, sizes = np.array([2, 5, 8, 3, 5, 6]), [3, 1, 2]
        need = 3 * (3 * 4 + 1 * 0 + 2 * 1)
        with pytest.raises(ModelError, match=f"need {need} scratch entries"):
            predict_logit(p, cfg, histories, users, items, sizes,
                          np.empty(need - 1))
        scratch = np.full(need + 5, np.nan)
        logit, blocks = predict_logit(p, cfg, histories, users, items, sizes,
                                      scratch)
        fresh, _ = predict_logit(p, cfg, histories, users, items, sizes)
        assert logit.tobytes() == fresh.tobytes()
        hidden = [net[1] for net in blocks[0].nets]
        assert [h.shape for h in hidden] == [(3, 3, 4), (1, 3, 0), (2, 3, 1)]
        assert np.array_equal(np.concatenate([h.ravel() for h in hidden]),
                              scratch[:need])
        assert all(np.shares_memory(h, scratch) for h in hidden[::2])
        assert np.isnan(scratch[need:]).all()

    def test_row_masked_by_every_candidate_gets_no_gradient(self):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3)
        p, _ = tiny_params(cfg, 2, 6, rng_from_seed(12))
        _, cache = predict(p, cfg, [1, 3, 4], 0, np.array([3, 3]))
        grads = backward(p, cfg, cache, np.array([0.5, -0.25]))
        rows, values = grads.rows["history_embed"]
        assert rows.tolist() == [1, 4] and values.shape == (2, 4)
        assert grads.rows["target_embed"][0].tolist() == [3]
        assert grads.rows["item_bias"][0].tolist() == [3]
        assert grads.rows["item_bias"][1].tolist() == [0.25]
        assert grads.rows["user_bias"][1].tolist() == [0.25]

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


def _rel_err(got, want, scale=None):
    """Largest entry of ``got - want`` over ``scale``, by default the
    largest entry of ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    return float(np.abs(got - want).max(initial=0.0) / max(scale, 1e-300))


# (history, user, items) per case; candidates may repeat and may sit in
# the history, where their own row is masked out of their pool
ATTENTION_CASES = {
    "one-item": ([0, 2, 5, 7, 9], 1, 4),
    "hundred-candidates": ([0, 2, 5, 7, 9, 11, 13], 1,
                           np.arange(100) % 16),
    "one-row-history": ([6], 0, 4),
    "only-row-is-itself": ([3], 0, np.array([3, 4, 3, 8])),
    "log-domain-row": ([0, 2, 5, 7, 9], 2, np.array([1, 4, 6, 8])),
}


class TestCandidateMajorAttention:
    """The candidate-major forward and backward passes of DeepICF_A, of
    one item and of a batch of one user's candidates, against the
    history-major formula they replace, kept in tests/attention_oracle.py."""

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("layers", [0, 3])
    def test_matches_history_major_oracle(self, case, beta, layers):
        num_users, num_items = 3, 16
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=4,
                          num_layers=layers, beta=beta)
        p, _ = tiny_params(cfg, num_users, num_items,
                           rng_from_seed(40, case, layers))
        hist, user, items = ATTENTION_CASES[case]
        if case == "log-domain-row":
            p["att_out"] *= 400.0
        logit, cache = predict(p, cfg, hist, user, items)
        want = history_major.forward(p, cfg, hist, user, items)
        live = np.where(want.keep, np.abs(want.scores), 0.0)
        assert (live.max() > 30.0) == (case == "log-domain-row")
        if case == "only-row-is-itself":
            assert not want.keep[0].any() and not want.weights[0].any()
        # the net of the one item, or of the batch's one block's user
        [block] = cache if np.ndim(items) else [cache]
        [net] = block.nets if np.ndim(items) else [cache.net]
        hist_ones, hidden, scores, weights, keep = net
        got = dict(scores=scores, weights=weights, pooled=block.pooled,
                   logit=logit)
        keep = np.ones(want.keep.shape, bool) if keep is None else keep
        assert np.array_equal(hist_ones[:, :-1], p["history_embed"][hist])
        assert (hist_ones[:, -1] == 1.0).all()
        assert hidden.shape == (np.shape(items) + (4, len(hist)))
        assert _rel_err(np.swapaxes(hidden, -1, -2), want.att_hidden) < 1e-12
        for name, value in got.items():
            assert _rel_err(value, getattr(want, name)) < 1e-12
        assert np.array_equal(keep, want.keep)

        dlogit = bce_from_logit(logit, 1)[1]
        grads = backward(p, cfg, cache, dlogit)
        oracle = history_major.backward(p, cfg, want, dlogit)
        # relative to the whole gradient, as the finite-difference checks
        # are: a sum that cancels to far below its terms, such as one
        # entry of the bias gradient, keeps only its terms' absolute error;
        # the oracle's rows repeat with the candidates, so both sides are
        # summed into whole tensors
        want_grads = dict(oracle.dense)
        want_grads.update((name, value) for name, (_, value)
                          in oracle.rows.items())
        scale = max(np.abs(v).max(initial=0.0) for v in want_grads.values())
        assert sorted(grads.dense) == sorted(oracle.dense)
        for name, value in oracle.dense.items():
            assert _rel_err(grads.dense[name], value, scale) < 1e-12, name
        for name, (rows, value) in oracle.rows.items():
            assert np.array_equal(np.unique(grads.rows[name][0]),
                                  np.unique(rows)), name
            full = [np.zeros(p[name].shape) for _ in range(2)]
            np.add.at(full[0], *grads.rows[name])
            np.add.at(full[1], rows, value)
            assert _rel_err(*full, scale) < 1e-12, name


class TestScoreBlocks:
    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 0),
        (Variant.DEEPICF_A, 3)])
    def test_blocked_scores_equal_unblocked(self, variant, layers,
                                            monkeypatch):
        cfg = ModelConfig(variant=variant, k=6, k_prime=4, num_layers=layers,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        self.check_candidate_blocks(cfg, monkeypatch)
        if not cfg.uses_attention:
            self.check_user_blocks(cfg, monkeypatch)

    def check_candidate_blocks(self, cfg, monkeypatch):
        p, _ = tiny_params(cfg, 3, 60, rng_from_seed(41, cfg.variant.value))
        hist = np.arange(0, 60, 3)
        items = np.arange(60)[::-1].copy()     # a third are history rows
        whole = [predict_logit(p, cfg, hist, 2, item)[0]
                 for item in items.tolist()]
        alone = score_items(p, cfg, hist, 2, items)
        np.testing.assert_allclose(alone, whole, rtol=1e-12, atol=1e-12)
        k, n, tower = cfg.k, hist.size, 2 * sum(cfg.layer_sizes)
        if cfg.uses_attention:
            # a candidate costs its target row, pooled row, tower and six
            # scalars, its folded attention weights and its attention
            # units, and per history row six softmax float64s and a mask
            # byte; the user costs its history's indices, its [q, 1] and
            # its row of the incidence
            per_cand = (8 * (2 * k + tower + 6)
                        + 8 * cfg.k_prime * (k + 1 + n) + (8 * 6 + 1) * n)
            once = 8 * n + 8 * (k + 1) * n + 60
        else:
            # a candidate costs three rows of k, the tower and four
            # scalars; the user its gathered history rows, two sums and
            # its row of the incidence
            per_cand = 8 * (3 * k + tower + 4)
            once = 8 * k * (n + 2) + 60
        real_kernel, real_attention = model._score_block, model._attention
        pieces, calls = [], []

        def counted_kernel(*args):
            pieces.append(args[5].tolist())
            return real_kernel(*args)

        def counted_attention(*args):
            calls.append(len(args[2]))
            return real_attention(*args)

        monkeypatch.setattr(model, "_score_block", counted_kernel)
        monkeypatch.setattr(model, "_attention", counted_attention)
        # as few pieces of near-equal size as fit, each of at least two
        # candidates and each a block of its own
        for block, sizes in ((60, [60]), (59, [30, 30]),
                             (7, [7] * 6 + [6] * 3), (1, [2] * 30)):
            monkeypatch.setattr(model, "SCORE_BLOCK_BYTES",
                                once + block * per_cand + 7)
            pieces.clear()
            calls.clear()
            assert np.array_equal(score_items(p, cfg, hist, 2, items), alone)
            assert pieces == [[size] for size in sizes]
            assert calls == (sizes if cfg.uses_attention else [])
        # an odd count where a piece fits one candidate
        pieces.clear()
        calls.clear()
        assert np.array_equal(score_items(p, cfg, hist, 2, items[:7]),
                              alone[:7])
        assert pieces == [[3], [2], [2]]
        assert calls == ([3, 2, 2] if cfg.uses_attention else [])

    @pytest.mark.parametrize("att_scale", [1.0, 30.0])
    def test_attention_peak_stays_within_budget(self, att_scale,
                                                monkeypatch):
        # tracemalloc sees numpy's buffers; the whole call, its logits and
        # copies of its arguments included, stays within the budget. User 9
        # alone needs a (200, 4, 300) attention array of 1.9 MB; at
        # att_scale 30 the scores leave the softmax's direct branch
        num_items, k, budget = 400, 8, 256 << 10
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=k, k_prime=4,
                          num_layers=2)
        p, _ = tiny_params(cfg, 12, num_items, rng_from_seed(43), scale=0.5)
        p["att_out"] *= att_scale
        rng = rng_from_seed(44)
        lengths = [30, 45, 60, 0, 1, 33, 52, 41, 38, 300, 57, 44]
        sizes = [50] * 9 + [200, 50, 50]
        histories = [rng.choice(num_items, size=n, replace=False)
                     for n in lengths]
        # five candidates of each user inside its history
        items = np.concatenate([
            np.concatenate((h[:5], rng.choice(num_items, c - h[:5].size)))
            for h, c in zip(histories, sizes)])
        users = np.arange(12)
        whole = model._score_users(p, cfg, histories, users, items, sizes)
        top = max(np.abs(predict_logit(p, cfg, histories[9], 9, item)[1]
                         .net[2]).max() for item in items[450:650].tolist())
        assert (top > 30.0) == (att_scale > 1.0)
        monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = model._score_users(p, cfg, histories, users, items, sizes)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= budget
        # user 9's pieces round its weighted sums, an inner dimension of
        # 300, differently in the last place
        np.testing.assert_allclose(got, whole, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 0),
        (Variant.DEEPICF_A, 3)])
    def test_ranking_and_training_score_alike(self, variant, layers,
                                              monkeypatch):
        # a training batch keeps its blocks and ranking drops them, and
        # the logits are the same to the bit, in one block of users with
        # an empty history, a one-row history and candidates inside their
        # histories, and where the costliest user is cut into pieces; over
        # 60 items the whole block holds 66 history rows, at least one per
        # item, and over 400 fewer: the two sides of FISM's and DeepICF's
        # item-major switch
        cfg = ModelConfig(variant=variant, k=6, k_prime=4, num_layers=layers,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        roomy = model.SCORE_BLOCK_BYTES
        for num_items in (60, 400):
            p, _ = tiny_params(cfg, 7, num_items,
                               rng_from_seed(45, cfg.variant.value))
            rng = rng_from_seed(46)
            users = np.array([6, 0, 3, 5, 1])
            lengths = [20, 0, 1, 33, 12]
            histories = [rng.choice(60, size=n, replace=False)
                         for n in lengths]
            cands = [np.concatenate((hist[::3], rng.choice(60, size=c)))
                     for hist, c in zip(histories, [30, 9, 2, 40, 3])]
            sizes = [c.size for c in cands]
            items = np.concatenate(cands)
            monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", roomy)
            cost = model._block_cost(cfg, np.array(lengths), np.array(sizes),
                                     num_items)[2]
            for budget, whole in ((roomy, True),
                                  (int(cost.max()) - 1, False)):
                monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", budget)
                ranked = model._score_users(p, cfg, histories, users, items,
                                            sizes)
                trained, blocks = predict_logit(p, cfg, histories, users,
                                                items, sizes)
                assert np.array_equal(ranked, trained)
                pieces = [block.users.size for block in blocks]
                assert (pieces == [users.size]) == whole
                assert sum(pieces) == users.size + (not whole)
                assert max(pieces) > 1
                if whole:
                    assert ((blocks[0].hist.size >= num_items)
                            == (num_items == 60))

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2)])
    def test_item_major_switch_keeps_every_bit(self, variant, layers):
        # one block of 50 history rows, over a 40-item table (the rows
        # gathered from the transposed table) and over the same table
        # with 60 unused items more (the table's rows gathered, then
        # transposed): the same history sums, logits, embedding penalties
        # and gradients, to the bit
        cfg = ModelConfig(variant=variant, k=6, num_layers=layers, alpha=0.5,
                          l2=0.01, reg_embeddings=True)
        wide, _ = tiny_params(cfg, 5, 100, rng_from_seed(47))
        narrow = ModelParams(param_layout(cfg, 5, 40))
        for name, value in wide.items():
            narrow[name] = value[:40] if value.shape[0] == 100 else value
        rng = rng_from_seed(48)
        users = np.array([0, 2, 3, 4])
        histories = [rng.choice(40, size=n, replace=False)
                     for n in (17, 0, 1, 32)]
        cands = [np.concatenate((hist[::4], rng.choice(40, size=c)))
                 for hist, c in zip(histories, [9, 3, 2, 20])]
        sizes = [c.size for c in cands]
        items = np.concatenate(cands)
        labels = rng.integers(0, 2, size=items.size)
        got = []
        for p in (narrow, wide):
            logit, blocks = predict_logit(p, cfg, histories, users, items,
                                          sizes)
            (block,) = blocks
            assert block.inside.any() and block.hist.size == 50
            # the embedding penalty from the squares of the whole table
            square = (p["history_embed"] ** 2).sum(axis=1)
            full = ((p["target_embed"][items] ** 2).sum(axis=1)
                    + np.bincount(np.repeat(np.arange(users.size),
                                            block.lengths),
                                  square[block.hist], users.size)[block.owner]
                    - np.where(block.inside, square[items], 0.0))
            kept = model._kept_squares(p, block)
            assert kept.tobytes() == full.tobytes()
            loss, dlogit = loss_with_reg(logit, labels, p, cfg, blocks)
            grads = backward(p, cfg, blocks, dlogit)
            got.append([block.hist_sum, logit, kept, loss]
                       + [part for rows in grads.rows.values()
                          for part in rows]
                       + [grads.dense.flat, *grads.uses.values()])
        for a, b in zip(*got):
            assert a.tobytes() == b.tobytes()

    def check_user_blocks(self, cfg, monkeypatch):
        num_items = 60
        p, _ = tiny_params(cfg, 7, num_items,
                           rng_from_seed(41, cfg.variant.value))
        rng = rng_from_seed(42)
        users = np.array([6, 0, 3, 3, 5, 1, 2])
        # an empty history, a one-row history, and a third of the
        # candidates inside their history
        lengths = [20, 0, 1, 7, 33, 12, 5]
        histories = [rng.choice(num_items, size=n, replace=False)
                     for n in lengths]
        cands = [np.concatenate((hist[::3], rng.choice(num_items, size=c)))
                 for hist, c in zip(histories, [30, 9, 2, 14, 40, 3, 21])]
        sizes = [c.size for c in cands]
        items = np.concatenate(cands)
        whole = model._score_users(p, cfg, histories, users, items, sizes)
        loose = [predict_logit(p, cfg, h, int(u), item)[0]
                 for h, u, c in zip(histories, users, cands)
                 for item in c.tolist()]
        assert np.abs(whole - loose).max() < 1e-12
        # a user costs its gathered history rows and two sums, its row of
        # the incidence, and per candidate three rows of k, two of each
        # tower layer and four scalars
        per_item = 3 * 6 + 2 * sum(cfg.layer_sizes) + 4
        cost = [8 * (6 * (n + 2) + per_item * c) + num_items
                for n, c in zip(lengths, sizes)]
        seen, pieces = [], []
        real = model._score_block

        def counted(*args):
            seen.append(args[3].size)
            pieces.extend(args[5].tolist())
            return real(*args)

        monkeypatch.setattr(model, "_score_block", counted)
        # at the cost of the first two users, the fifth alone is over
        # budget and is cut into two pieces, the first a block of its own;
        # at a budget of one byte every user is cut into pieces of two,
        # the first of three where its count is odd, as all of them are
        cut = sum(([3] + [2] * (c // 2 - 1) for c in sizes), [])
        for budget, blocks, want in (
                (sum(cost), [7], sizes), (sum(cost) - 1, [6, 1], sizes),
                (cost[0] + cost[1], [2, 2, 1, 2, 1],
                 sizes[:4] + [26, 25] + sizes[5:]),
                (1, [1] * len(cut), cut)):
            monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", budget)
            seen.clear()
            pieces.clear()
            got = model._score_users(p, cfg, histories, users, items, sizes)
            assert np.array_equal(got, whole)
            assert seen == blocks
            assert pieces == want
