import math

import numpy as np
import pytest

from deepicf.data import leave_one_out_split
from deepicf.errors import ConfigError, TrainingDiverged
from deepicf.model import (ModelConfig, ModelParams, Variant, backward,
                           flatten_grads, flatten_params, init_params,
                           params_from_flat, predict_logit)
from deepicf.numerics import bce_from_logit, finite_diff_grad, rng_from_seed
from deepicf.training import (AdagradState, add_l2_grads, apply_batch, fit,
                              loss_with_reg, pretrain_and_init, train_epoch)

from conftest import make_dataset, synthetic_dataset


def one_param_setup(grad_value):
    """FISM with a single 1-d embedding; returns (params, state, grads)."""
    cfg = ModelConfig(variant=Variant.FISM, k=1, lr=0.01)
    params = init_params(cfg, 1, 2, rng_from_seed(0))
    state = AdagradState(params, lr=0.01)
    _, cache = predict_logit(params, cfg, [1], 0, 0)
    grads = backward(params, cfg, cache, 1.0)
    grads.rows["target_embed"] = (0, np.array([grad_value]))
    grads.rows["history_embed"] = (np.array([1]), np.zeros((1, 1)))
    grads.rows["user_bias"] = (0, 0.0)
    grads.rows["item_bias"] = (0, 0.0)
    return cfg, params, state, grads


class TestAdagrad:
    def test_first_step_magnitude_is_about_lr(self):
        _, params, state, grads = one_param_setup(2.0)
        before = float(params["target_embed"][0, 0])
        apply_batch(state, params, [grads])
        delta = float(params["target_embed"][0, 0]) - before
        assert delta == pytest.approx(-0.01 * 2.0 / (2.0 + 1e-8), rel=1e-9)

    def test_zero_gradient_changes_nothing(self):
        _, params, state, grads = one_param_setup(0.0)
        before = params["target_embed"].copy()
        apply_batch(state, params, [grads])
        assert np.array_equal(params["target_embed"], before)
        assert np.array_equal(state["target_embed"], np.zeros_like(before))

    def test_repeated_gradient_damps(self):
        _, params, state, grads = one_param_setup(2.0)
        x0 = float(params["target_embed"][0, 0])
        apply_batch(state, params, [grads])
        x1 = float(params["target_embed"][0, 0])
        apply_batch(state, params, [grads])
        x2 = float(params["target_embed"][0, 0])
        assert abs(x2 - x1) < abs(x1 - x0)

    def test_accumulators_never_decrease(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=1, lr=0.05)
        ds = make_dataset([[(i, i) for i in range(5)], [(2, 1), (4, 2)]],
                          num_items=8)
        split = leave_one_out_split(ds, seed=0, num_negatives=2)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(1))
        state = AdagradState(params, lr=cfg.lr)
        names = ("target_embed", "history_embed", "user_bias", "item_bias",
                 "output_weights")
        prev = [state[name].copy() for name in names]
        for epoch in range(3):
            train_epoch(params, cfg, split, state, rng_from_seed(2, epoch))
            now = [state[name] for name in names]
            for old, new in zip(prev, now):
                assert np.all(new >= old)
            prev = [a.copy() for a in now]

    def test_untouched_rows_keep_their_state(self):
        _, params, state, grads = one_param_setup(1.0)
        other_row = params["target_embed"][1].copy()
        apply_batch(state, params, [grads])
        assert np.array_equal(params["target_embed"][1], other_row)
        assert np.array_equal(state["target_embed"][1], np.zeros(1))

    def test_tensors_without_gradient_keep_params_and_state(self):
        # the whole-tensor update spans output_weights..b1; W0 and b0 lie
        # inside that span but receive no gradient
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=2, lr=0.05)
        params = init_params(cfg, 2, 5, rng_from_seed(0))
        state = AdagradState(params, lr=cfg.lr)
        _, cache = predict_logit(params, cfg, [1, 2], 0, 3)
        grads = backward(params, cfg, cache, 1.0)
        for name in ("W0", "b0"):
            del grads.dense[name]
        before = params.clone()
        apply_batch(state, params, [grads])
        for name in ("W0", "b0"):
            assert np.array_equal(params[name], before[name])
            assert np.array_equal(state[name], np.zeros_like(before[name]))
        for name in ("output_weights", "W1", "b1"):
            g = grads.dense[name]
            assert np.array_equal(state[name], g * g)
            assert np.array_equal(
                params[name],
                before[name] - cfg.lr * g / (np.sqrt(g * g) + state.epsilon))


class TestLossWithReg:
    def test_lambda_zero_is_pure_bce(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=1, l2=0.0)
        params = init_params(cfg, 2, 3, rng_from_seed(0))
        loss, grad = loss_with_reg(0.7, 1, params, cfg)
        want_loss, want_grad = bce_from_logit(0.7, 1)
        assert loss == want_loss and grad == want_grad

    def test_penalty_on_tower_weights(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=1, num_layers=1,
                          layer_sizes=(1,), l2=0.1)
        params = init_params(cfg, 1, 1, rng_from_seed(0))
        params["W0"][:] = 2.0
        loss, _ = loss_with_reg(40.0, 1, params, cfg)  # saturated-correct
        assert loss == pytest.approx(0.4, abs=1e-12)

    def test_embedding_reg_zero_under_default_policy(self):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1, l2=0.2)
        params = init_params(cfg, 2, 4, rng_from_seed(3))
        _, cache = predict_logit(params, cfg, [0, 2], 1, 3)
        grads = backward(params, cfg, cache, 0.0)
        add_l2_grads(grads, params, cfg)
        assert np.array_equal(grads.rows["target_embed"][1], np.zeros(3))
        assert np.array_equal(grads.rows["history_embed"][1], np.zeros((2, 3)))
        # tower weights do receive the 2*lambda*W term
        assert np.allclose(grads.dense["W0"],
                           0.4 * params["W0"], atol=1e-15)

    # item 3 is outside the history; item 2 is inside it and masked out,
    # so its history row must get neither penalty nor gradient
    @pytest.mark.parametrize("item", [3, 2])
    def test_embedding_reg_matches_finite_differences_when_enabled(self, item):
        num_users, num_items = 2, 5
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1,
                          l2=0.05, reg_embeddings=True)
        rng = rng_from_seed(8)
        params = init_params(cfg, num_users, num_items, rng)
        flat = rng.normal(0, 0.4, size=flatten_params(params, cfg).size)
        params = params_from_flat(flat, cfg, num_users, num_items)
        hist = np.array([0, 2, 4])
        user, label = 1, 1

        def loss_of(theta):
            view = params_from_flat(theta, cfg, num_users, num_items)
            logit, cache = predict_logit(view, cfg, hist, user, item)
            return loss_with_reg(logit, label, view, cfg, cache)[0]

        logit, cache = predict_logit(params, cfg, hist, user, item)
        _, dlogit = loss_with_reg(logit, label, params, cfg, cache)
        grads = add_l2_grads(backward(params, cfg, cache, dlogit), params, cfg)
        assert item not in grads.rows["history_embed"][0].tolist()
        analytic = flatten_grads(grads, cfg, num_users, num_items)
        numeric = finite_diff_grad(loss_of, flat, h=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-6


class TestTrainEpoch:
    @pytest.fixture()
    def split(self):
        return leave_one_out_split(
            synthetic_dataset(num_users=12, num_items=60, seed=5),
            seed=1, num_negatives=10)

    def test_lr_zero_is_identity(self, split):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=6, num_layers=2, lr=0.0,
                          num_negatives=2)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        before = [a.copy() for a in params.arrays()]
        state = AdagradState(params, lr=0.0)
        train_epoch(params, cfg, split, state, rng_from_seed(1))
        for old, new in zip(before, params.arrays()):
            assert np.array_equal(old, new)

    def test_epoch_is_deterministic(self, split):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=4,
                          num_layers=1, lr=0.05, num_negatives=3, seed=9)
        results = []
        for _ in range(2):
            params = init_params(cfg, split.train.num_users,
                                 split.train.num_items, rng_from_seed(cfg.seed))
            state = AdagradState(params, lr=cfg.lr)
            loss = train_epoch(params, cfg, split, state,
                               rng_from_seed(cfg.seed, "epoch", 1))
            results.append((loss, [a.copy() for a in params.arrays()]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            assert np.array_equal(a, b)

    def test_loss_decreases_over_first_epochs(self, split):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=8, num_layers=2, lr=0.05,
                          num_negatives=4, epochs=5, seed=3)
        _, report = fit(cfg, split)
        losses = [e.loss for e in report.epochs]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, split):
        cfg = ModelConfig(variant=Variant.FISM, k=4, lr=0.1, num_negatives=1,
                          epochs=3, seed=2)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        params["target_embed"][0, 0] = np.inf
        state = AdagradState(params, lr=cfg.lr)
        with pytest.raises(TrainingDiverged) as err:
            train_epoch(params, cfg, split, state, rng_from_seed(4))
        assert err.value.instance is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_divergence_carries_last_finite_params(self, split):
        # finite but enormous embeddings overflow to inf inside the first
        # epoch's forward pass; the carried snapshot must still be finite
        cfg = ModelConfig(variant=Variant.FISM, k=4, lr=0.01, num_negatives=4,
                          epochs=5, seed=2)
        params = init_params(cfg, split.train.num_users,
                             split.train.num_items, rng_from_seed(0))
        params["target_embed"][:] = 1e200
        params["history_embed"][:] = 1e200
        with pytest.raises(TrainingDiverged) as err:
            fit(cfg, split, params=params)
        assert err.value.epoch == 1
        assert err.value.instance is not None
        for arr in err.value.last_params.arrays():
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("variant,layers", [
        (Variant.DEEPICF, 1), (Variant.DEEPICF_A, 1)])
    def test_batched_updates_supported(self, split, variant, layers):
        cfg = ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers,
                          lr=0.05, num_negatives=2, epochs=2, seed=5,
                          batch_size=8)
        params, report = fit(cfg, split)
        assert all(math.isfinite(e.loss) for e in report.epochs)
        for arr in params.arrays():
            assert np.all(np.isfinite(arr))

    def test_batch_of_one_matches_plain_steps(self, split):
        results = []
        for batch_size in (1, 1):
            cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3,
                              num_layers=1, lr=0.05, num_negatives=2,
                              epochs=2, seed=6, batch_size=batch_size)
            params, _ = fit(cfg, split)
            results.append([a.copy() for a in params.arrays()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant,layers", [
        (Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)])
    def test_summed_batch_matches_dense_step(self, variant, layers):
        num_users, num_items, lr = 3, 9, 0.05
        cfg = ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers,
                          alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        rng = rng_from_seed(13)
        params = init_params(cfg, num_users, num_items, rng)
        flat = rng.normal(0.0, 0.4, size=flatten_params(params, cfg).size)
        params = params_from_flat(flat, cfg, num_users, num_items).clone()
        # (user, history, item, label): targets 2 and 5 repeat, history
        # rows 0, 1 and 4 are shared, and 5 is also a history row
        instances = [(0, [0, 1, 4], 2, 1), (1, [1, 4, 5, 7], 2, 0),
                     (0, [0, 1, 4], 5, 0), (2, [0, 4, 8], 5, 1),
                     (1, [1, 4, 5, 7], 3, 1)]
        batch, total = [], np.zeros_like(flat)
        for user, hist, item, label in instances:
            logit, cache = predict_logit(params, cfg, hist, user, item)
            grads = backward(params, cfg, cache, bce_from_logit(logit, label)[1])
            batch.append(grads)
            total += flatten_grads(grads, cfg, num_users, num_items)
        state = AdagradState(params, lr=lr)
        apply_batch(state, params, batch)
        acc = total * total
        want = flat - lr * total / (np.sqrt(acc) + state.epsilon)
        assert np.array_equal(flatten_params(params, cfg), want)
        assert np.array_equal(flatten_params(ModelParams(state), cfg), acc)

    def test_overfits_a_separable_toy_problem(self):
        # two disjoint item cliques; plenty of capacity should drive the
        # training loss to nearly zero
        histories = []
        for u in range(8):
            base = 0 if u % 2 == 0 else 5
            histories.append([(base + j, j) for j in range(5)])
        ds = make_dataset(histories, num_items=10)
        split = leave_one_out_split(ds, seed=0, num_negatives=1)
        cfg = ModelConfig(variant=Variant.FISM, k=8, lr=0.2, num_negatives=2,
                          epochs=150, seed=1)
        _, report = fit(cfg, split)
        assert report.epochs[-1].loss < 0.05


class TestPretraining:
    def test_copy_semantics(self, small_split):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=4,
                          num_layers=1, lr=0.05, num_negatives=2, epochs=2,
                          seed=4, pretrain=True, pretrain_epochs=2)
        params = pretrain_and_init(cfg, small_split)
        from deepicf.model import fism_config
        companion = fism_config(cfg)
        fism_params, _ = fit(companion, small_split, seed_labels=("pretrain",))
        assert np.array_equal(params["target_embed"], fism_params["target_embed"])
        assert np.array_equal(params["history_embed"], fism_params["history_embed"])
        # everything else is freshly initialized, not copied
        fresh = init_params(cfg, small_split.train.num_users,
                            small_split.train.num_items,
                            rng_from_seed(cfg.seed, "init"))
        assert np.array_equal(params["att_weight"], fresh["att_weight"])
        assert np.array_equal(params["output_weights"], fresh["output_weights"])
        assert np.array_equal(params["user_bias"], np.zeros_like(params["user_bias"]))

    def test_zero_epoch_pretrain_copies_random_embeddings(self, small_split):
        cfg = ModelConfig(variant=Variant.DEEPICF, k=5, num_layers=1,
                          epochs=3, pretrain_epochs=0, seed=6)
        params = pretrain_and_init(cfg, small_split)
        from deepicf.model import fism_config
        untrained = init_params(fism_config(cfg), small_split.train.num_users,
                                small_split.train.num_items,
                                rng_from_seed(cfg.seed, "pretrain", "init"))
        assert np.array_equal(params["target_embed"], untrained["target_embed"])

    def test_rejects_fism(self, small_split):
        cfg = ModelConfig(variant=Variant.FISM, k=4)
        with pytest.raises(ConfigError):
            pretrain_and_init(cfg, small_split)


class TestPeriodicEvaluation:
    def test_eval_every_fills_metrics(self, small_split):
        cfg = ModelConfig(variant=Variant.FISM, k=4, lr=0.05, num_negatives=2,
                          epochs=4, seed=3, eval_every=2)
        _, report = fit(cfg, small_split)
        by_epoch = {e.epoch: e for e in report.epochs}
        assert by_epoch[1].hr is None and by_epoch[3].hr is None
        for epoch in (2, 4):
            assert 0.0 <= by_epoch[epoch].ndcg <= by_epoch[epoch].hr <= 1.0
