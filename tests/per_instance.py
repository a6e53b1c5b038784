"""The per-instance training loop, kept as the oracle of the blocked
``deepicf.training.train_epoch``.

Each instance runs its own forward pass, loss, backward pass and L2 terms
through the one-item paths of the package, and ``batch_size`` of their
gradients, summed here entry by entry in stream order, make one Adagrad
step. Install it in place of the blocked loop with
``monkeypatch.setattr(deepicf.training, "train_epoch", train_epoch)`` so
that ``fit`` drives it.
"""

import math

import numpy as np

from deepicf.data import sample_training_instances
from deepicf.errors import TrainingDiverged
from deepicf.model import Grads, ModelParams, backward, predict_logit
from deepicf.training import add_l2_grads, apply_batch, loss_with_reg


def summed(params, batch):
    """One :class:`Grads` holding the sum of the one-item gradients in
    ``batch``: each row that any of them touched, once, in ascending
    order, summed in a table of the tensor's full size, into which a
    one-row history gradient is added at each row it names."""
    rows = {}
    for name in batch[0].rows:
        full = np.zeros(params[name].shape)
        for grads in batch:
            np.add.at(full, *grads.rows[name])
        index = np.unique(np.concatenate(
            [np.atleast_1d(grads.rows[name][0]) for grads in batch]))
        rows[name] = (index, full[index])
    dense = batch[0].dense
    return Grads(rows=rows, dense=ModelParams(
        dense.layout, sum((grads.dense.flat for grads in batch),
                          np.zeros(dense.flat.size))))


def train_epoch(params, config, split, opt_state, rng):
    """One epoch as a loop over instances in stream order; returns the mean
    per-instance loss and raises :class:`TrainingDiverged` at the first
    non-finite logit or loss."""
    instances = sample_training_instances(split.train, config.num_negatives, rng)
    if instances.shape[0] == 0:
        return 0.0
    histories = split.train.item_arrays()
    total = 0.0
    batch = []
    for u, i, label in instances.tolist():
        logit, cache = predict_logit(params, config, histories[u], u, i)
        if not math.isfinite(logit):
            raise TrainingDiverged(
                f"non-finite logit on instance (user={u}, item={i}, "
                f"label={label}): logit={logit!r}",
                instance=(u, i, label), logit=logit)
        loss, dlogit = loss_with_reg(logit, label, params, config, cache)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss on instance (user={u}, item={i}, "
                f"label={label}): logit={logit!r}",
                instance=(u, i, label), logit=logit)
        total += loss
        batch.append(add_l2_grads(backward(params, config, cache, dlogit),
                                  params, config))
        if len(batch) >= config.batch_size:
            apply_batch(opt_state, params, summed(params, batch))
            batch = []
    if batch:
        apply_batch(opt_state, params, summed(params, batch))
    return total / instances.shape[0]
