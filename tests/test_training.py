import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deepicf.training
from deepicf import model
from deepicf.data import (LooSplit, leave_one_out_split,
                          sample_training_instances)
from deepicf.errors import ConfigError, TrainingDiverged
from deepicf.model import (ModelConfig, Variant, backward, init_params,
                           predict_logit)
from deepicf.numerics import bce_from_logit, rng_from_seed
from deepicf.training import (ADAGRAD_EPSILON, AdagradState, add_l2_grads,
                              apply_batch, fit, loss_with_reg,
                              pretrain_and_init, train_epoch)

import catalog_merge
import per_instance
from conftest import make_dataset, synthetic_dataset
from gradcheck import (finite_diff_grad, flatten_grads, flatten_params,
                       params_from_flat)

# Scoring an update batch as one block of users changes only the order in
# which the batch's gradients and pooled sums are added up (a history
# summed once per user, a candidate's own row taken back out), so they
# agree with the per-instance sums to this relative tolerance.
SUM_ORDER_RTOL = 1e-12


def fit_per_instance(cfg, split):
    """``fit`` driven by the per-instance oracle loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deepicf.training, "train_epoch", per_instance.train_epoch)
        return fit(cfg, split)


def assert_params_close(got, want, rtol):
    """Every array of ``got`` within ``rtol`` of ``want``, relative to the
    largest magnitude in the array."""
    for name, value in want.items():
        err = np.abs(got[name] - value).max()
        assert err <= rtol * np.abs(value).max(), (name, err)


def as_block(instances):
    """``(histories, users, items, sizes, labels)`` of ``(user, history,
    item, label)`` instances, laid out user by user as ``predict_logit``
    takes a batch."""
    users = sorted({user for user, *_ in instances})
    ordered = sorted(instances, key=lambda instance: instance[0])
    histories = {user: hist for user, hist, *_ in instances}
    return ([histories[user] for user in users], np.array(users),
            np.array([item for *_, item, _ in ordered]),
            [sum(user == other for other, *_ in instances) for user in users],
            np.array([label for *_, label in ordered]))


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
        apply_batch(state, params, grads)
        delta = float(params["target_embed"][0, 0]) - before
        assert delta == pytest.approx(-0.01 * 2.0 / (2.0 + 1e-8), rel=1e-9)

    def test_zero_gradient_changes_nothing(self):
        _, params, state, grads = one_param_setup(0.0)
        before = params["target_embed"].copy()
        apply_batch(state, params, grads)
        assert np.array_equal(params["target_embed"], before)
        assert np.array_equal(state["target_embed"], np.zeros_like(before))

    def test_repeated_gradient_damps(self):
        _, params, state, grads = one_param_setup(2.0)
        x0 = float(params["target_embed"][0, 0])
        apply_batch(state, params, grads)
        x1 = float(params["target_embed"][0, 0])
        apply_batch(state, params, grads)
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
        apply_batch(state, params, grads)
        assert np.array_equal(params["target_embed"][1], other_row)
        assert np.array_equal(state["target_embed"][1], np.zeros(1))

    def test_tensors_without_gradient_keep_params_and_state(self):
        # the whole-tensor update covers output_weights..b1 as one vector;
        # W0 and b0 lie inside it with a zero gradient
        cfg = ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=2, lr=0.05)
        params = init_params(cfg, 2, 5, rng_from_seed(0))
        state = AdagradState(params, lr=cfg.lr)
        _, cache = predict_logit(params, cfg, [1, 2], 0, 3)
        grads = backward(params, cfg, cache, 1.0)
        for name in ("W0", "b0"):
            grads.dense[name][...] = 0.0
        before = params.clone()
        apply_batch(state, params, grads)
        for name in ("W0", "b0"):
            assert np.array_equal(params[name], before[name])
            assert np.array_equal(state[name], np.zeros_like(before[name]))
        for name in ("output_weights", "W1", "b1"):
            g = grads.dense[name]
            assert np.array_equal(state[name], g * g)
            assert np.array_equal(
                params[name],
                before[name] - cfg.lr * g / (np.sqrt(g * g) + state.epsilon))

    # the rows a batch merges: a target or a bias per candidate, a
    # history row per user holding it, given as columns
    @pytest.mark.parametrize("row_shape", [(), (5,)])
    def test_row_sums_equal_row_by_row_sums(self, row_shape):
        rng = rng_from_seed(3)
        index = np.array([4, 1, 4, 1, 0, 4, 6, 6, 4, 4, 4, 4, 4, 4, 4])
        values = rng.normal(size=index.shape + row_shape)
        unique, inverse = np.unique(index, return_inverse=True)
        want = np.zeros((unique.size,) + row_shape)
        np.add.at(want, inverse, values)
        once = np.ones(index.size)
        rows, got, uses = model._merge_rows([(index, values.T, once)])
        assert np.array_equal(rows, unique)
        assert np.array_equal(got, want)
        assert uses.tolist() == [1, 2, 10, 2]
        # entries in parts: each part's sums, added up part by part; a row
        # whose uses cancel is left out
        rows, got, _ = model._merge_rows(
            [(index[:5], values[:5].T, once[:5]),
             (index[5:], values[5:].T, once[5:]),
             (np.array([3]), values[:1].T, np.array([0.0]))])
        want = np.zeros((unique.size,) + row_shape)
        np.add.at(want, inverse[:5], values[:5])
        part = np.zeros((unique.size,) + row_shape)
        np.add.at(part, inverse[5:], values[5:])
        assert np.array_equal(rows, unique)
        assert np.array_equal(got, want + part)
        rows, got, _ = model._merge_rows([(index[:0], values[:0].T,
                                           once[:0])])
        assert rows.size == 0 and got.shape == (0,) + row_shape

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(), (1,), (16,), (33,)]),
           parts=st.lists(st.tuples(
               st.lists(st.tuples(st.integers(0, 11), st.integers(-2, 3)),
                        max_size=40),
               st.booleans()), min_size=1, max_size=4),
           spread=st.sampled_from([1, 8]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(16,), parts=[([], False)], spread=1, seed=0)
    @example(shape=(), parts=[([(5, 1), (5, 1), (2, 1)], False),
                              ([(2, -1), (5, -1)], True), ([], True)],
             spread=1, seed=1)
    @example(shape=(33,), parts=[([(7, 1), (7, -1), (7, 0)], True),
                                 ([(7, 2), (0, 1)], False)], spread=8, seed=2)
    @example(shape=(16,), parts=[([(i % 3, 1) for i in range(20)], True),
                                 ([(1, -1), (2, 2)], False)], spread=1, seed=3)
    def test_merge_equals_catalog_merge_to_the_bit(self, shape, parts, spread,
                                                   seed):
        # (index, uses) pairs: indices repeat within and across entries,
        # uses cancel to 0 and entries may be empty; values span many
        # magnitudes, so that a change in the order of any bin's sum shows
        # in its bits, and come laid out row- or column-major, as the
        # backward pass gives them. Indices 1 or 8 apart put the count of
        # indices on either side of the span of rows up to the highest,
        # so that the draws merge both ways
        rng = np.random.default_rng(seed)
        entries = []
        for pairs, column_major in parts:
            index = np.array([i * spread for i, _ in pairs], dtype=np.int64)
            size = index.shape + shape
            values = (rng.normal(size=size)
                      * 10.0 ** rng.integers(-12, 12, size=size)).T
            entries.append((index, values if column_major
                            else np.ascontiguousarray(values),
                            np.array([u for _, u in pairs], dtype=np.float64)))
        want = catalog_merge.merge_rows(entries, 12 * spread)
        got = model._merge_rows(entries)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("row_shape", [(), (16,)])
    def test_span_switch_keeps_every_bit(self, row_shape):
        # a batch's history entry names few rows many times, as many
        # instances of a user name its history, and merges by counting
        # over the span of rows; a far row with no uses makes the span
        # longer than the entries and sends the same sums through the
        # rows the entries name: the same rows, sums and uses, to the bit
        rng = rng_from_seed(9)
        index = rng.integers(0, 40, size=300)
        values = rng.normal(size=index.shape + row_shape) * 10.0 ** \
            rng.integers(-12, 12, size=index.shape + row_shape)
        entries = [(index, values.T, np.ones(index.size)),
                   (index[:30], -values[:30].T, -np.ones(30)),
                   (index[::-7], values[::-7].T * 3.0, np.ones(43))]
        far = (np.array([10 ** 6]), np.zeros(row_shape + (1,)),
               np.zeros(1))
        counted = model._merge_rows(entries)
        named = model._merge_rows(entries + [far])
        assert index.size >= index.max() + 1
        assert (len(counted[0]) == len(named[0])
                and 10 ** 6 not in named[0].tolist())
        for a, b in zip(counted, named):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


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
        rows, values = grads.rows["history_embed"]
        assert np.array_equal(np.broadcast_to(values, (rows.size, 3)),
                              np.zeros((2, 3)))
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
        before = [a.copy() for a in params.values()]
        state = AdagradState(params, lr=0.0)
        train_epoch(params, cfg, split, state, rng_from_seed(1))
        for old, new in zip(before, params.values()):
            assert np.array_equal(old, new)

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_no_instances_leave_the_params_alone(self, batch_size):
        # two users without a training history sample nothing
        empty = LooSplit(train=make_dataset([[], []], num_items=4),
                         test_items=np.array([0, 1]),
                         eval_negatives=[np.array([2]), np.array([3])])
        cfg = ModelConfig(variant=Variant.DEEPICF, k=3, num_layers=1,
                          batch_size=batch_size)
        params = init_params(cfg, 2, 4, rng_from_seed(0))
        before = params.flat.copy()
        state = AdagradState(params, lr=cfg.lr)
        assert train_epoch(params, cfg, empty, state, rng_from_seed(1)) == 0.0
        assert np.array_equal(params.flat, before)

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
            results.append((loss, [a.copy() for a in params.values()]))
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
        for arr in err.value.last_params.values():
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("variant,layers", [
        (Variant.DEEPICF, 1), (Variant.DEEPICF_A, 1)])
    def test_batched_updates_supported(self, split, variant, layers):
        cfg = ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers,
                          lr=0.05, num_negatives=2, epochs=2, seed=5,
                          batch_size=8)
        params, report = fit(cfg, split)
        assert all(math.isfinite(e.loss) for e in report.epochs)
        for arr in params.values():
            assert np.all(np.isfinite(arr))

    def test_batch_of_one_matches_plain_steps(self, split):
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3,
                          num_layers=1, lr=0.05, num_negatives=2,
                          epochs=2, seed=6, batch_size=1)
        results = [fit(cfg, split) for _ in range(2)]
        for a, b in zip(results[0][0].values(), results[1][0].values()):
            assert np.array_equal(a, b)
        # each batch of one is one plain per-instance step
        want, want_report = fit_per_instance(cfg, split)
        assert_params_close(results[0][0], want, SUM_ORDER_RTOL)
        for got, oracle in zip(results[0][1].epochs, want_report.epochs):
            assert got.loss == pytest.approx(oracle.loss, rel=SUM_ORDER_RTOL)

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
        total, magnitude = np.zeros_like(flat), np.zeros_like(flat)
        for user, hist, item, label in instances:
            logit, cache = predict_logit(params, cfg, hist, user, item)
            grads = backward(params, cfg, cache, bce_from_logit(logit, label)[1])
            one = flatten_grads(grads, cfg, num_users, num_items)
            total, magnitude = total + one, magnitude + np.abs(one)
        *block, labels = as_block(instances)
        logit, cache = predict_logit(params, cfg, *block)
        grads = backward(params, cfg, cache, bce_from_logit(logit, labels)[1])
        summed = flatten_grads(grads, cfg, num_users, num_items)
        assert np.all(np.abs(summed - total) <= SUM_ORDER_RTOL * magnitude)
        # the step on the block's gradients, each row once, is the dense
        # step on their flat layout, an untouched entry's zero included
        state = AdagradState(params, lr=lr)
        apply_batch(state, params, grads)
        acc = summed * summed
        want = flat - lr * summed / (np.sqrt(acc) + state.epsilon)
        assert np.array_equal(flatten_params(params, cfg), want)
        assert np.array_equal(flatten_params(state, cfg), acc)

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


# One Adagrad step moves a coordinate by lr * g / (sqrt(acc) + eps). Where a
# batch's gradient cancels to near zero (two positives and two negatives
# at logits near 0, say), that step scales a rounding difference in g by
# up to lr / eps, so sums taken in another order move later parameters by
# up to that factor more than the sums themselves differ.
def adagrad_rtol(cfg):
    return SUM_ORDER_RTOL * cfg.lr / ADAGRAD_EPSILON


def epochs_at_unit_epsilon(cfg, split, epoch_of):
    """Parameters and losses of two epochs of ``epoch_of`` with Adagrad
    epsilon = 1, from the seed-6 initialization."""
    params = init_params(cfg, split.train.num_users, split.train.num_items,
                         rng_from_seed(6))
    state = AdagradState(params, lr=cfg.lr, epsilon=1.0)
    losses = [epoch_of(params, cfg, split, state, rng_from_seed(6, e))
              for e in (1, 2)]
    return params, losses


GROUP_CASES = [(Variant.FISM, 0), (Variant.DEEPICF, 2), (Variant.DEEPICF_A, 1)]


# no L2, L2 on the tower weights, and L2 on the embeddings too
REGS, REG_IDS = [False, "tower", True], ["l2=0", "l2", "l2+emb"]


def group_config(variant, layers, reg, **kwargs):
    return ModelConfig(variant=variant, k=4, k_prime=3, num_layers=layers,
                       alpha=0.0 if variant is Variant.DEEPICF_A else 0.5,
                       l2=0.01 if reg else 0.0, reg_embeddings=reg is True,
                       **kwargs)


def few_user_split():
    """Three users whose batches hold dozens of instances each: training
    histories of 40 rows, of one row (whose positive keeps none) and of
    eight rows."""
    return leave_one_out_split(make_dataset(
        [[(i, i) for i in range(0, 82, 2)], [(1, 0), (3, 1)],
         [(i, i) for i in range(5, 50, 5)]], num_items=90),
        seed=1, num_negatives=10)


def many_user_split():
    """100 users of two or three training rows: a batch of 256 holds one
    to three instances of most of them."""
    return leave_one_out_split(
        synthetic_dataset(num_users=100, num_items=60, min_len=3, max_len=5,
                          seed=5), seed=1, num_negatives=10)


def assert_grads_close(got, want, cfg, num_users, num_items):
    """Each trained tensor's part of the flat gradient ``got`` within
    SUM_ORDER_RTOL of ``want``'s, relative to that part's largest entry."""
    start = 0
    for name, shape, trained in model.param_layout(cfg, num_users,
                                                   num_items):
        if trained:
            part = slice(start, start + math.prod(shape))
            err = np.abs(got[part] - want[part]).max()
            assert err <= SUM_ORDER_RTOL * np.abs(want[part]).max(), name
            start = part.stop


# (user, history, item, label) instances of a 3-user block: user 1's
# candidate 5 repeats, and 2 and 0 sit in its history, each masking its
# own row; user 0's one-row history is its positive's own, so that pool
# is empty; user 2 holds 40 rows, two of them shared with user 1 and two
# of them its own candidates; targets 2, 5 and 6 recur across users
BLOCK_HISTORIES = {0: [6], 1: [0, 2, 4, 7], 2: [0, 2] + list(range(9, 47))}
BLOCK_INSTANCES = [(user, BLOCK_HISTORIES[user], item, label)
                   for user, item, label in [
                       (1, 2, 1), (2, 46, 1), (0, 6, 1), (1, 5, 0),
                       (2, 5, 0), (1, 8, 0), (0, 9, 0), (1, 5, 0),
                       (2, 2, 1), (1, 0, 1), (2, 6, 0), (1, 3, 0),
                       (2, 5, 0)]]


class TestGroupedTraining:
    @pytest.fixture()
    def split(self):
        return leave_one_out_split(
            synthetic_dataset(num_users=12, num_items=60, seed=5),
            seed=1, num_negatives=10)

    @pytest.fixture()
    def splits(self, split):
        """Batches of about 20 instances per user, of dozens, and of one
        to three."""
        return [split, few_user_split(), many_user_split()]

    @pytest.mark.parametrize("reg", REGS, ids=REG_IDS)
    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("variant,layers", GROUP_CASES)
    def test_fit_matches_per_instance_oracle(self, splits, variant, layers,
                                             batch_size, reg):
        cfg = group_config(variant, layers, reg, lr=0.05, num_negatives=3,
                           epochs=2, seed=6, batch_size=batch_size)
        for split in splits:
            params, report = fit(cfg, split)
            want, want_report = fit_per_instance(cfg, split)
            # batches of one sum nothing; larger ones reorder the sums
            rtol = SUM_ORDER_RTOL if batch_size == 1 else adagrad_rtol(cfg)
            assert_params_close(params, want, rtol)
            losses = [e.loss for e in report.epochs]
            want_losses = [e.loss for e in want_report.epochs]
            assert losses[0] == pytest.approx(want_losses[0],
                                              rel=SUM_ORDER_RTOL)
            assert losses == pytest.approx(want_losses, rel=rtol)

    # with epsilon = 1 a step scales a rounding difference in g by at most
    # lr, so two epochs of batches of 256 hold the sums' own tolerance
    @pytest.mark.parametrize("reg", REGS, ids=REG_IDS)
    @pytest.mark.parametrize("variant,layers", GROUP_CASES)
    def test_epochs_match_oracle_where_steps_do_not_amplify(
            self, splits, variant, layers, reg):
        cfg = group_config(variant, layers, reg, lr=0.05, num_negatives=3,
                           seed=6, batch_size=256)
        for split in splits:
            (params, losses), (want, want_losses) = [
                epochs_at_unit_epsilon(cfg, split, epoch_of)
                for epoch_of in (train_epoch, per_instance.train_epoch)]
            assert_params_close(params, want, SUM_ORDER_RTOL)
            assert losses == pytest.approx(want_losses, rel=SUM_ORDER_RTOL)

    # a piece of a user or of a block scores and differentiates as the
    # whole does, up to the order of the sums
    @pytest.mark.parametrize("variant,layers", GROUP_CASES)
    def test_cut_batches_match_one_block(self, split, variant, layers,
                                         monkeypatch):
        cfg = group_config(variant, layers, True, lr=0.05, num_negatives=3,
                           seed=6, batch_size=256)
        blocks = []
        real = model._score_users

        def counted(*args):
            got = real(*args)
            blocks.append(len(args[-1]))
            return got

        monkeypatch.setattr(model, "_score_users", counted)
        whole, whole_losses = epochs_at_unit_epsilon(cfg, split, train_epoch)
        assert max(blocks) == 1
        blocks.clear()
        monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", 1)
        params, losses = epochs_at_unit_epsilon(cfg, split, train_epoch)
        assert min(blocks) > 12
        assert_params_close(params, whole, SUM_ORDER_RTOL)
        assert losses == pytest.approx(whole_losses, rel=SUM_ORDER_RTOL)

    @pytest.mark.parametrize("reg", REGS, ids=REG_IDS)
    @pytest.mark.parametrize("variant,layers", GROUP_CASES)
    def test_group_sums_the_per_instance_gradients(self, variant, layers,
                                                   reg):
        num_users, num_items = 3, 48
        cfg = group_config(variant, layers, reg)
        rng = rng_from_seed(17, variant.value)
        params = init_params(cfg, num_users, num_items, rng)
        flat = rng.normal(0.0, 0.4, size=flatten_params(params, cfg).size)
        params = params_from_flat(flat, cfg, num_users, num_items)

        singles, total, want_loss = [], 0.0, 0.0
        for user, hist, item, label in BLOCK_INSTANCES:
            logit, cache = predict_logit(params, cfg, hist, user, item)
            loss, dlogit = loss_with_reg(logit, label, params, cfg, cache)
            grads = add_l2_grads(backward(params, cfg, cache, dlogit),
                                 params, cfg)
            singles.append(grads)
            total = total + flatten_grads(grads, cfg, num_users, num_items)
            want_loss += loss

        *block, labels = as_block(BLOCK_INSTANCES)
        logit, cache = predict_logit(params, cfg, *block)
        loss, dlogit = loss_with_reg(logit, labels, params, cfg, cache)
        grads = add_l2_grads(backward(params, cfg, cache, dlogit),
                             params, cfg)
        for rows, _ in grads.rows.values():
            assert np.array_equal(rows, np.unique(rows))
        # exactly the history rows some candidate keeps in its pool
        assert grads.rows["history_embed"][0].tolist() == sorted(
            {row for _, hist, item, _ in BLOCK_INSTANCES for row in hist
             if row != item})
        assert_grads_close(flatten_grads(grads, cfg, num_users, num_items),
                           total, cfg, num_users, num_items)
        assert loss.sum() == pytest.approx(want_loss, rel=SUM_ORDER_RTOL)
        # one step on the block's gradients is one on the per-instance
        # sums; epsilon = 1 keeps the step from scaling up rounding
        # differences
        stepped = []
        for summed in (grads, per_instance.summed(params, singles)):
            theta = params.clone()
            apply_batch(AdagradState(theta, lr=0.05, epsilon=1.0), theta,
                        summed)
            stepped.append(theta)
        assert_params_close(*stepped, SUM_ORDER_RTOL)

    # the penalties count each target once per candidate and each history
    # row once per candidate that keeps it in its pool
    @pytest.mark.parametrize("variant,layers", GROUP_CASES)
    def test_group_regularized_loss_matches_finite_differences(
            self, variant, layers):
        num_users, num_items = 3, 48
        cfg = group_config(variant, layers, reg=True)
        rng = rng_from_seed(23, variant.value)
        params = init_params(cfg, num_users, num_items, rng)
        flat = rng.normal(0.0, 0.4, size=flatten_params(params, cfg).size)
        params = params_from_flat(flat, cfg, num_users, num_items)
        *block, labels = as_block(BLOCK_INSTANCES)

        def loss_of(theta):
            view = params_from_flat(theta, cfg, num_users, num_items)
            logit, cache = predict_logit(view, cfg, *block)
            return loss_with_reg(logit, labels, view, cfg, cache)[0].sum()

        logit, cache = predict_logit(params, cfg, *block)
        _, dlogit = loss_with_reg(logit, labels, params, cfg, cache)
        grads = add_l2_grads(backward(params, cfg, cache, dlogit), params,
                             cfg)
        analytic = flatten_grads(grads, cfg, num_users, num_items)
        numeric = finite_diff_grad(loss_of, flat, h=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-4

    # every negative's loss is about 1e308, so two in one batch sum to inf
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_losses_summing_to_inf_do_not_diverge(self, split):
        cfg = ModelConfig(variant=Variant.FISM, k=4, lr=0.1, num_negatives=2,
                          seed=2, batch_size=256)
        losses = []
        for epoch_of in (train_epoch, per_instance.train_epoch):
            params = init_params(cfg, split.train.num_users,
                                 split.train.num_items, rng_from_seed(0))
            params["item_bias"][:] = 1e308
            state = AdagradState(params, lr=cfg.lr)
            losses.append(epoch_of(params, cfg, split, state, rng_from_seed(4)))
        assert losses == [math.inf, math.inf]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_first_instance_in_stream_order(self, split):
        stream = sample_training_instances(split.train, 2,
                                           rng_from_seed(4)).tolist()
        # an item whose first instance in the stream belongs to another
        # user than the lowest-index one with an instance of it in the
        # first batch, which the block lays out first
        for bad in range(split.train.num_items):
            users = [u for u, i, _ in stream[:256] if i == bad]
            if users and users[0] != min(users):
                break
        else:
            pytest.fail("no item splits its instances that way")
        named = {}
        for batch_size in (1, 256):
            cfg = ModelConfig(variant=Variant.FISM, k=4, lr=0.1,
                              num_negatives=2, seed=2, batch_size=batch_size)
            params = init_params(cfg, split.train.num_users,
                                 split.train.num_items, rng_from_seed(0))
            params["target_embed"][bad, 0] = np.inf
            state = AdagradState(params, lr=cfg.lr)
            with pytest.raises(TrainingDiverged) as err:
                train_epoch(params, cfg, split, state, rng_from_seed(4))
            named[batch_size] = err.value
        at = next(t for t, (_, i, _) in enumerate(stream) if i == bad)
        assert named[256].instance == named[1].instance == tuple(stream[at])
        assert str(named[256]) == str(named[1])

    # an inf in one user's history row poisons only the pools of the
    # users that hold it; lr = 0 keeps every parameter, so that both
    # paths meet the same logits
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("variant,layers", GROUP_CASES)
    def test_history_row_divergence_names_the_same_instance(
            self, split, variant, layers):
        stream = sample_training_instances(split.train, 2,
                                           rng_from_seed(4)).tolist()
        holders = {}
        for u in range(split.train.num_users):
            for row in split.train.history_items(u).tolist():
                holders.setdefault(row, []).append(u)
        # a row of one user only, whose first instance comes after other
        # users' in the first batch
        row, user = next(
            (row, users[0]) for row, users in sorted(holders.items())
            if len(users) == 1
            and next(t for t, (u, _, _) in enumerate(stream)
                     if u == users[0]) > 10)
        named = {}
        for batch_size in (1, 256):
            cfg = group_config(variant, layers, False, lr=0.0,
                               num_negatives=2, seed=2, batch_size=batch_size)
            params = init_params(cfg, split.train.num_users,
                                 split.train.num_items, rng_from_seed(0))
            params["history_embed"][row, 0] = np.inf
            state = AdagradState(params, lr=cfg.lr)
            with pytest.raises(TrainingDiverged) as err:
                train_epoch(params, cfg, split, state, rng_from_seed(4))
            named[batch_size] = err.value
        first = next(t for t, (u, _, _) in enumerate(stream) if u == user)
        assert named[256].instance == named[1].instance == tuple(stream[first])
        assert str(named[256]) == str(named[1])


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
