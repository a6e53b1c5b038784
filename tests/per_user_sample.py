"""The per-user training sampler, kept as the oracle of
``deepicf.data.sample_training_instances``.

Each user with a history, in user order, gives a block of its positives,
then a block of its negatives, drawn by rejection from the catalog with
a budget of 100 draws per negative and, past that budget, from the
explicit pool of the items it never touched. The blocks are joined and
the whole stream shuffled with one permutation.
"""

import numpy as np

from deepicf.errors import DataError


def sample_training_instances(train, num_negatives, rng):
    """The stream of ``deepicf.data.sample_training_instances``, one user
    at a time."""
    if num_negatives < 0:
        raise DataError(f"num_negatives must be >= 0, got {num_negatives}")
    num_items = train.num_items
    blocks = []
    for u in range(train.num_users):
        items = train.history_items(u)
        n_pos = items.size
        if n_pos == 0:
            continue
        pos = np.empty((n_pos, 3), dtype=np.int64)
        pos[:, 0] = u
        pos[:, 1] = items
        pos[:, 2] = 1
        blocks.append(pos)
        if num_negatives == 0:
            continue
        member = np.zeros(num_items, dtype=bool)
        member[items] = True
        needed = n_pos * num_negatives
        budget = 100 * num_negatives * n_pos
        neg_items = np.empty(needed, dtype=np.int64)
        filled = attempts = 0
        while filled < needed and attempts < budget:
            take = min(needed - filled, budget - attempts)
            cand = rng.integers(0, num_items, size=take)
            ok = cand[~member[cand]]
            m = min(ok.size, needed - filled)
            neg_items[filled:filled + m] = ok[:m]
            filled += m
            attempts += take
        if filled < needed:
            pool = np.flatnonzero(~member)
            if pool.size == 0:
                raise DataError(
                    f"user {train.user_ids[u]!r} interacted with every item;"
                    " no negatives exist")
            neg_items[filled:] = pool[
                rng.integers(0, pool.size, size=needed - filled)]
        neg = np.empty((needed, 3), dtype=np.int64)
        neg[:, 0] = u
        neg[:, 1] = neg_items
        neg[:, 2] = 0
        blocks.append(neg)

    if not blocks:
        return np.empty((0, 3), dtype=np.int64)
    stream = np.concatenate(blocks)
    return stream[rng.permutation(stream.shape[0])]
