"""Pointwise log-loss training with per-parameter adaptive learning rates,
negative sampling, L2 regularization on the tower weights, and the
FISM-to-deep-variant embedding pre-training pipeline.

The Adagrad state holds one accumulator per parameter entry, in the
parameters' layout, and :func:`apply_batch` is the one update for every
variant and batch size. The update loop is single-writer: one process
mutates a parameter set. Periodic evaluation runs on the same
(momentarily quiescent) parameters.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from deepicf.data import sample_training_instances
from deepicf.errors import ConfigError, TrainingDiverged
from deepicf.model import (ModelParams, Variant, _kept_squares, backward,
                           fism_config, init_params, predict_logit)
from deepicf.numerics import bce_from_logit, rng_from_seed

log = logging.getLogger(__name__)

ADAGRAD_EPSILON = 1e-8
# ranking cutoff of the metrics measured every ``eval_every`` epochs
EVAL_K = 10


class AdagradState(ModelParams):
    """Running sums of squared gradients, zero at the start: a
    :class:`ModelParams` of the parameters' layout, one accumulator per
    parameter entry, plus the step size and epsilon.

    Accumulators never decrease; updates touch only the entries that
    received a gradient, so embedding rows outside the batch's histories
    keep their state untouched.
    """

    def __init__(self, params, lr, epsilon=ADAGRAD_EPSILON):
        super().__init__(params.layout)
        self.lr = float(lr)
        self.epsilon = float(epsilon)


def apply_batch(state, params, grads):
    """One Adagrad step on a batch's summed :class:`Grads`, each row once:
    acc += g^2 then theta -= lr*g/(sqrt(acc)+eps), elementwise over
    exactly the entries the batch touched; the whole-tensor gradients,
    the tail of the layout, as one vector. A row tensor's accumulator rows
    are gathered once and scattered once, and their copy then becomes the
    step; a one-row gradient broadcasts over its rows. A float gradient,
    one item's bias, steps in float arithmetic, whose correctly rounded
    sqrt gives numpy's bits."""
    lr, eps = state.lr, state.epsilon
    for name, (index, g) in grads.rows.items():
        if isinstance(g, float):
            acc = state[name].item(index) + g * g
            state[name][index] = acc
            params[name][index] -= lr * g / (math.sqrt(acc) + eps)
            continue
        acc = state[name].take(index, axis=0)
        acc += g * g
        state[name][index] = acc
        np.sqrt(acc, out=acc)
        acc += eps
        params[name][index] -= np.divide(lr * g, acc, out=acc)
    dense = grads.dense.flat
    if dense.size:
        acc = state.flat[-dense.size:]
        acc += dense * dense
        params.flat[-dense.size:] -= lr * dense / (np.sqrt(acc) + eps)


def loss_with_reg(logit, label, params, config, cache=None):
    """Loss of one instance, or of each instance of a batch, elementwise:
    binary cross-entropy plus the L2 penalty, which covers the tower
    weight matrices, where overfitting concentrates, and with
    ``reg_embeddings`` (and a forward cache) each instance's target row
    and the history rows it keeps. Returns (loss, dloss_dlogit), shaped
    like the logit; :func:`add_l2_grads` adds the penalty's gradients.
    """
    loss, dlogit = bce_from_logit(logit, label)
    lam = config.l2
    if lam > 0.0:
        for layer in range(config.num_layers):
            w = params[f"W{layer}"]
            loss += lam * float((w * w).sum())
        if config.reg_embeddings and isinstance(cache, list):
            loss += lam * np.concatenate([_kept_squares(params, block)
                                          for block in cache])
        elif config.reg_embeddings and cache is not None:
            p, q = cache.target, cache.hist_embed
            loss += lam * (p * p).sum(axis=-1)
            loss += lam * (cache.keep @ (q * q).sum(axis=-1))
    return loss, dlogit


def add_l2_grads(grads, params, config):
    """Add 2*lambda*theta to the gradients covered by the L2 policy, once
    for each instance whose loss carries the penalty: the tower weights
    once per instance, a target or history row once per instance that
    scores with it, as ``grads.uses`` counts them; one item uses each of
    its rows once."""
    lam = config.l2
    if lam <= 0.0:
        return grads
    uses = grads.uses
    count = 1 if uses is None else int(uses["target_embed"].sum())
    for layer in range(config.num_layers):
        name = f"W{layer}"
        grad = grads.dense[name]
        grad += 2.0 * lam * count * params[name]
    if config.reg_embeddings:
        for name in ("target_embed", "history_embed"):
            rows, values = grads.rows[name]
            kept_by = 1.0 if uses is None else uses[name]
            grads.rows[name] = (rows, values + 2.0 * lam * kept_by
                                * params[name][rows])
    return grads


def train_epoch(params, config, split, opt_state, rng):
    """One pass over freshly sampled, shuffled training instances, cut
    into update batches of ``batch_size``. Parameters are fixed within a
    batch, so one of more than one instance is one block of users, as
    ranking scores them: one forward pass scores it and one analytic
    backward pass returns its summed gradients, for one Adagrad step. A
    batch of one takes the one-item passes. Returns the mean per-instance
    loss. A non-finite logit or loss aborts immediately, naming the first
    offending instance in stream order in the exception.
    """
    instances = sample_training_instances(split.train, config.num_negatives, rng)
    if instances.shape[0] == 0:
        return 0.0
    histories = split.train.item_arrays()
    size = config.batch_size
    stream = instances.tolist() if size == 1 else None
    total, order = 0.0, [0]
    for start in range(0, len(instances), size):
        if stream is not None:
            user, item, label = stream[start]
            logit, cache = predict_logit(params, config, histories[user],
                                         user, item)
        else:
            order = np.argsort(instances[start:start + size, 0], kind="stable")
            user, item, label = instances[start + order].T
            users, sizes = np.unique(user, return_counts=True)
            logit, cache = predict_logit(
                params, config, [histories[u] for u in users.tolist()],
                users, item, sizes)
        loss, dlogit = loss_with_reg(logit, label, params, config, cache)
        batch_loss = loss if stream is not None else float(loss.sum())
        if not math.isfinite(batch_loss):
            # a non-finite logit gives a non-finite loss, while finite
            # losses may sum to inf, as the epoch total may
            bad = np.flatnonzero(~np.isfinite(loss))
            if bad.size:
                first = bad[np.argmin(np.take(order, bad))]
                logit = float(np.reshape(logit, -1)[first])
                u, i, label = instances[start + order[first]].tolist()
                what = "logit" if not math.isfinite(logit) else "loss"
                raise TrainingDiverged(
                    f"non-finite {what} on instance (user={u}, item={i}, "
                    f"label={label}): logit={logit!r}",
                    instance=(u, i, label), logit=logit)
        total += batch_loss
        apply_batch(opt_state, params,
                    add_l2_grads(backward(params, config, cache, dlogit),
                                 params, config))
    return total / len(instances)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    hr: float | None
    ndcg: float | None
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)

    def append(self, stats):
        self.epochs.append(stats)

    @property
    def final_loss(self):
        return self.epochs[-1].loss if self.epochs else None


def fit(config, split, params=None, seed_labels=(), on_epoch=None):
    """Train a model on a split; returns (params, report).

    Parameters are initialized from the config seed unless a pre-built set
    (e.g. from pre-training) is passed in. Instance sampling is reseeded
    per epoch from (seed, epoch), so the whole run is a pure function of
    (config, split). Every ``eval_every`` epochs the ranking metrics are
    measured at cutoff ``EVAL_K`` on the split's held-out items. On
    divergence the exception carries a snapshot of the last finite epoch's
    parameters.
    """
    # imported here to keep module dependencies one-directional
    from deepicf.evaluation import evaluate, model_scorer_factory

    if params is None:
        rng = rng_from_seed(config.seed, *seed_labels, "init")
        params = init_params(config, split.train.num_users,
                             split.train.num_items, rng)
    opt_state = AdagradState(params, lr=config.lr)
    report = TrainReport()
    for epoch in range(1, config.epochs + 1):
        snapshot = params.clone()
        rng = rng_from_seed(config.seed, *seed_labels, "epoch", epoch)
        started = time.perf_counter()
        try:
            loss = train_epoch(params, config, split, opt_state, rng)
        except TrainingDiverged as err:
            err.epoch = epoch
            err.last_params = snapshot
            raise
        elapsed = time.perf_counter() - started
        hr = ndcg = None
        if config.eval_every > 0 and epoch % config.eval_every == 0:
            result = evaluate(model_scorer_factory(params, config, split),
                              split, k=EVAL_K)
            hr, ndcg = result.hr_at_k, result.ndcg_at_k
        stats = EpochStats(epoch=epoch, loss=loss, hr=hr, ndcg=ndcg,
                           seconds=elapsed)
        report.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
        if hr is None:
            log.info("epoch %d: loss=%.6f (%.2fs)", epoch, loss, elapsed)
        else:
            log.info("epoch %d: loss=%.6f hr@%d=%.4f ndcg@%d=%.4f (%.2fs)",
                     epoch, loss, EVAL_K, hr, EVAL_K, ndcg, elapsed)
    return params, report


def pretrain_and_init(config, split, on_epoch=None):
    """Train the FISM companion model and seed a deep variant with its
    embeddings.

    Only the two embedding tables carry over; every other parameter
    (tower, attention, output weights, biases) is freshly initialized from
    the config seed.
    """
    if config.variant not in (Variant.DEEPICF, Variant.DEEPICF_A):
        raise ConfigError(
            f"pre-training applies to deep variants, not {config.variant.value}")
    companion = fism_config(config)
    log.info("pre-training phase: FISM, k=%d, %d epochs",
             companion.k, companion.epochs)
    fism_params, _ = fit(companion, split, seed_labels=("pretrain",),
                         on_epoch=on_epoch)
    rng = rng_from_seed(config.seed, "init")
    params = init_params(config, split.train.num_users,
                         split.train.num_items, rng)
    params["target_embed"] = fism_params["target_embed"]
    params["history_embed"] = fism_params["history_embed"]
    log.info("pre-training done; embeddings copied into %s",
             config.variant.value)
    return params
