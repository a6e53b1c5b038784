"""The per-user ranking loop, kept as the oracle of the blocked
``deepicf.evaluation.evaluate``.

Each user's scorer is called on the test item and the negatives, and the
test item's rank is read off a full ``lexsort`` of the candidates by
(score descending, index ascending); its ties are the negatives that
score as it does. Gains are added in user order, as ``evaluate`` adds
them.

:func:`forward_scorer_factory` is the oracle's scorer of a trained model:
each candidate goes through one one-item ``predict_logit`` call, and not
through the blocked scoring under test.
"""

import numpy as np

from deepicf.errors import EvalError
from deepicf.evaluation import EvalReport, metrics_at_k
from deepicf.model import predict_logit


def forward_scorer_factory(params, config, split):
    """Scorer factory that scores a user's candidates against its
    training history with one :func:`deepicf.model.predict_logit` call
    per candidate."""
    histories = split.train.item_arrays()

    def factory(user):
        def scorer(items):
            return np.array([predict_logit(params, config, histories[user],
                                           user, item)[0]
                             for item in np.asarray(items).tolist()])
        return scorer
    return factory


def rank_and_ties(scorer, test_item, negatives):
    """1-based rank of the test item among itself plus the negatives, and
    the number of negatives that score as it does; a non-finite score is
    an error naming the first such item."""
    negatives = np.asarray(negatives, dtype=np.int64)
    candidates = np.concatenate(([int(test_item)], negatives))
    scores = np.asarray(scorer(candidates), dtype=np.float64)
    if scores.shape != candidates.shape:
        raise EvalError(
            f"scorer returned shape {scores.shape} for {candidates.shape} items")
    bad = ~np.isfinite(scores)
    if bad.any():
        raise EvalError(
            f"non-finite score for item {int(candidates[bad.argmax()])}")
    order = np.lexsort((candidates, -scores))
    rank = int(np.nonzero(candidates[order] == int(test_item))[0][0]) + 1
    test_score, *others = scores.tolist()
    return rank, sum(score == test_score for score in others)


def evaluate(scorer_factory, split, k=10):
    """The report of ``deepicf.evaluation.evaluate``, one user at a time."""
    per_user = []
    hits = ties = 0
    gain = 0.0
    num_users = split.train.num_users
    for user in range(num_users):
        rank, tied = rank_and_ties(scorer_factory(user),
                                   int(split.test_items[user]),
                                   split.eval_negatives[user])
        hr, ndcg = metrics_at_k(rank, k)
        hits += hr
        gain += ndcg
        ties += tied
        per_user.append((user, rank))
    return EvalReport(k=k, per_user=per_user, hr_at_k=hits / num_users,
                      ndcg_at_k=gain / num_users, ties=ties)
