"""The per-user leave-one-out split, kept as the oracle of
``deepicf.data.leave_one_out_split``.

Each user of two or more interactions holds out its latest one (ties to
the larger item index), keeps the rest in history order, and draws its
negatives with one ``rng.choice`` over the explicit pool of the items it
never touched, in user order, from the split's own seeded stream.
"""

import numpy as np

from deepicf.data import InteractionDataset, LooSplit
from deepicf.errors import DataError
from deepicf.numerics import rng_from_seed


def leave_one_out_split(dataset, seed, num_negatives):
    """The split of ``deepicf.data.leave_one_out_split``, one user at a
    time."""
    kept = [u for u in range(dataset.num_users)
            if dataset.history_items(u).size >= 2]
    if not kept:
        raise DataError("no user has >= 2 interactions; nothing to split")
    user_ids = [dataset.user_ids[u] for u in kept]
    items_per_user, times_per_user = [], []
    test_items = np.empty(len(kept), dtype=np.int64)
    negatives = []
    rng = rng_from_seed(seed, "loo-negatives")
    for new_u, u in enumerate(kept):
        items = dataset.history_items(u)
        times = dataset.history_times(u)
        held = np.lexsort((items, times))[-1]
        test_items[new_u] = items[held]
        keep_mask = np.ones(items.size, dtype=bool)
        keep_mask[held] = False
        items_per_user.append(items[keep_mask])
        times_per_user.append(times[keep_mask])
        observed = np.zeros(dataset.num_items, dtype=bool)
        observed[items] = True
        pool = np.flatnonzero(~observed)
        if pool.size < num_negatives:
            raise DataError(
                f"user {user_ids[new_u]!r} has only {pool.size} "
                f"non-interacted items; {num_negatives} negatives required")
        negatives.append(rng.choice(pool, size=num_negatives,
                                    replace=False).astype(np.int64))
    train = InteractionDataset(user_ids, dataset.item_ids, items_per_user,
                               times_per_user,
                               raw_interactions=dataset.raw_interactions)
    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=negatives)
