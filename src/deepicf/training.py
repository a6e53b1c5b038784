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
from deepicf.model import (ModelParams, Variant, backward, fism_config,
                           init_params, predict_logit)
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


def _sum_rows(pairs, row_shape):
    """Merge ``(rows, values)`` pairs into one pair with unique rows, each
    the sum of its values in order of appearance.

    Values are added one pair at a time, so no batch-sized copy of the
    history gradients is built. Each is added entry by entry into the
    flat sum: ``np.add.at`` over whole rows is several times slower.
    """
    index = [np.atleast_1d(rows) for rows, _ in pairs]
    unique, inverse = np.unique(np.concatenate(index), return_inverse=True)
    width = math.prod(row_shape)
    summed = np.zeros(unique.size * width)
    columns = np.arange(width)
    start = 0
    for rows, (_, values) in zip(index, pairs):
        at = inverse[start:start + rows.size, None] * width + columns
        np.add.at(summed, at.ravel(), np.ravel(values))
        start += rows.size
    return unique, summed.reshape((unique.size,) + row_shape)


def apply_batch(state, params, batch):
    """One Adagrad step on the summed gradients of a list of :class:`Grads`:
    acc += g^2 then theta -= lr*g/(sqrt(acc)+eps), elementwise over exactly
    the entries the batch touched.

    The gradients of one item, whose item bias gradient is a float, are
    applied as they are, since they hold each row once. Any other batch
    first sums the rows each sparse tensor received (a candidate that
    repeats in a group, or a row that several groups touch), so every
    touched row is updated once. The whole-tensor gradients are the tail
    of the layout, updated as one vector.
    """
    if len(batch) == 1 and isinstance(batch[0].rows["item_bias"][1], float):
        rows, dense = batch[0].rows, batch[0].dense.flat
    else:
        rows = {name: _sum_rows([g.rows[name] for g in batch],
                                params[name].shape[1:])
                for name in batch[0].rows}
        dense = sum(g.dense.flat for g in batch)
    lr, eps = state.lr, state.epsilon
    for name, (index, g) in rows.items():
        acc = state[name][index] + g * g
        state[name][index] = acc
        params[name][index] -= lr * g / (np.sqrt(acc) + eps)
    if dense.size:
        acc = state.flat[-dense.size:]
        acc += dense * dense
        params.flat[-dense.size:] -= lr * dense / (np.sqrt(acc) + eps)


def loss_with_reg(logit, label, params, config, cache=None):
    """Loss of one instance, or of each candidate of a group, elementwise:
    binary cross-entropy plus the L2 penalty.

    By default the penalty covers only the tower weight matrices, which is
    where overfitting concentrates; with ``reg_embeddings`` enabled (and a
    forward cache available) each candidate's target row and the history
    rows it keeps are penalized too. Returns (loss, dloss_dlogit), shaped
    like the logit; regularization gradients are added separately by
    :func:`add_l2_grads`.
    """
    loss, dlogit = bce_from_logit(logit, label)
    lam = config.l2
    if lam > 0.0:
        for layer in range(config.num_layers):
            w = params[f"W{layer}"]
            loss += lam * float((w * w).sum())
        if config.reg_embeddings and cache is not None:
            p, q = cache.target, cache.hist_embed
            loss += lam * (p * p).sum(axis=-1)
            loss += lam * (cache.keep @ (q * q).sum(axis=-1))
    return loss, dlogit


def add_l2_grads(grads, params, config, cache=None):
    """Add 2*lambda*theta to the gradients covered by the L2 policy, once
    for each instance whose loss carries the penalty: each candidate of
    ``cache`` counts for the tower weights, for its own target row entry,
    and for every history row it keeps. Without a cache the gradients are
    those of one item."""
    lam = config.l2
    if lam <= 0.0:
        return grads
    group = cache is not None and cache.keep.ndim > 1
    count = cache.keep.shape[0] if group else 1
    for layer in range(config.num_layers):
        name = f"W{layer}"
        grad = grads.dense[name]
        grad += 2.0 * lam * count * params[name]
    if config.reg_embeddings:
        kept_by = 1.0
        if group:
            # the number of candidates that keep each kept history row
            kept_by = cache.keep.sum(axis=0)
            kept_by = kept_by[kept_by > 0][:, None]
        for name, uses in (("target_embed", 1.0), ("history_embed", kept_by)):
            rows, values = grads.rows[name]
            grads.rows[name] = (rows, values + 2.0 * lam * uses * params[name][rows])
    return grads


def _user_groups(instances, stream, start, stop):
    """The instances ``stream[start:stop]`` grouped by user, in order of
    first appearance: ``(positions, user, items, labels)`` per group. A
    group of one instance keeps its item and label as plain ints; a larger
    group carries them as arrays, in stream order."""
    groups = {}
    for at in range(start, min(stop, len(stream))):
        groups.setdefault(stream[at][0], []).append(at)
    for user, at in groups.items():
        if len(at) == 1:
            yield at, user, stream[at[0]][1], stream[at[0]][2]
        else:
            block = instances[at]
            yield at, user, block[:, 1], block[:, 2]


def train_epoch(params, config, split, opt_state, rng):
    """One pass over freshly sampled, shuffled training instances.

    The stream is cut into update batches of ``batch_size`` instances.
    Parameters are fixed within a batch, so its instances are grouped by
    user: one forward pass scores a user's candidates, and one analytic
    backward pass returns their summed gradients, to which one Adagrad
    step per batch applies. Returns the mean per-instance loss. A
    non-finite logit or loss aborts immediately, naming the first
    offending instance in stream order in the exception.
    """
    instances = sample_training_instances(split.train, config.num_negatives, rng)
    if instances.shape[0] == 0:
        return 0.0
    histories = split.train.item_arrays()
    stream = instances.tolist()
    total = 0.0
    for start in range(0, len(stream), config.batch_size):
        batch, failed = [], []
        for at, user, items, labels in _user_groups(
                instances, stream, start, start + config.batch_size):
            logit, cache = predict_logit(params, config, histories[user],
                                         user, items)
            loss, dlogit = loss_with_reg(logit, labels, params, config, cache)
            group_loss = loss if len(at) == 1 else float(loss.sum())
            if not math.isfinite(group_loss):
                # a non-finite logit gives a non-finite loss, while finite
                # losses may sum to inf, as the epoch total may
                bad = np.flatnonzero(~np.isfinite(loss))
                if bad.size:
                    failed.append((at[bad[0]],
                                   float(np.reshape(logit, -1)[bad[0]])))
            if failed:
                continue
            total += group_loss
            batch.append(add_l2_grads(backward(params, config, cache, dlogit),
                                      params, config, cache))
        if failed:
            at, logit = min(failed)
            u, i, label = stream[at]
            what = "logit" if not math.isfinite(logit) else "loss"
            raise TrainingDiverged(
                f"non-finite {what} on instance (user={u}, item={i}, "
                f"label={label}): logit={logit!r}",
                instance=(u, i, label), logit=logit)
        apply_batch(opt_state, params, batch)
    return total / len(stream)


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
