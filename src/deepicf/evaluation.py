"""Leave-one-out ranking evaluation (hit ratio and NDCG at a cutoff) plus
the ItemPop and ItemKNN heuristic baselines.

Scorers take an array of item indices and return an array of scores.
:func:`evaluate` lays every user's candidates out once, the test item
before its negatives, and fills their scores: in one
:func:`deepicf.model._score_users` call when every scorer is a
:class:`ModelScorer` over one model, else each scorer on its own user's
candidates. Every rank then comes from one count over all users.
Per-user evaluations are independent; the aggregate is a mean and does
not depend on order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from deepicf.data import atomic_write
from deepicf.errors import EvalError
from deepicf.model import _score_users, score_items


@dataclass
class EvalReport:
    """Per-user ranks of the held-out item among its candidates, plus the
    aggregate metrics. For every user: hit if the rank is within the
    cutoff, gain 1/log2(rank+1). ``ties`` counts, over all users, the
    candidates other than the test item that score exactly as the test
    item does; they rank by index, so many ties make the metrics depend
    on item numbering."""

    k: int
    per_user: list                # (user, rank) pairs
    hr_at_k: float
    ndcg_at_k: float
    ties: int

    def summary(self):
        return f"HR@{self.k}={self.hr_at_k:.4f} NDCG@{self.k}={self.ndcg_at_k:.4f}"

    def write_csv(self, path):
        """Write the per-user ranks and the summary, with
        :func:`deepicf.data.atomic_write`."""
        with atomic_write(path) as f:
            f.write("user,rank\n")
            for user, rank in self.per_user:
                f.write(f"{user},{rank}\n")
            f.write(f"# HR@{self.k}={self.hr_at_k:.6f}"
                    f" NDCG@{self.k}={self.ndcg_at_k:.6f}\n")


def rank_order(candidates, scores):
    """Positions of ``candidates`` ordered by descending score, with ties
    broken by ascending item index, so ranking is deterministic."""
    return np.lexsort((candidates, -scores))


def rank_test_item(scorer, test_item, negatives):
    """1-based rank of the test item among itself plus the negatives, in
    :func:`rank_order`. A non-finite score is an error naming the item.
    """
    negatives = np.asarray(negatives, dtype=np.int64)
    candidates = np.concatenate(([int(test_item)], negatives))
    scores = _scores_of(scorer, candidates)
    ranks, _ = _count_ranks(candidates, scores, np.zeros(1, dtype=np.int64))
    return int(ranks[0])


def _scores_of(scorer, candidates):
    """``scorer``'s scores of ``candidates`` as float64, one per
    candidate, or an error naming both shapes."""
    scores = np.asarray(scorer(candidates), dtype=np.float64)
    if scores.shape != candidates.shape:
        raise EvalError(
            f"scorer returned shape {scores.shape} for {candidates.shape} items")
    return scores


def _count_ranks(candidates, scores, starts):
    """The rank in :func:`rank_order` of the candidate at each of
    ``starts`` among the candidates from it to the next start: 1, plus
    those that score higher, plus those that tie with it and have a lower
    index; and the count, over all starts, of the other candidates that
    tie with it. A non-finite score is an error naming the first such
    item."""
    bad = ~np.isfinite(scores)
    if bad.any():
        raise EvalError(
            f"non-finite score for item {int(candidates[bad.argmax()])}")
    sizes = np.diff(starts, append=candidates.size)
    test_scores = np.repeat(scores[starts], sizes)
    test_items = np.repeat(candidates[starts], sizes)
    tied = scores == test_scores
    ahead = (scores > test_scores) | (tied & (candidates < test_items))
    ranks = 1 + np.add.reduceat(ahead, starts, dtype=np.int64)
    return ranks, int(np.count_nonzero(tied)) - starts.size


def metrics_at_k(rank, k):
    """(hit, ndcg) for a single ranked test item: hit is 1 iff the rank is
    within the cutoff, and the gain is the single-relevant-item NDCG
    1/log2(rank+1)."""
    if rank < 1 or k < 1:
        raise EvalError(f"rank and k must be >= 1, got rank={rank}, k={k}")
    if rank <= k:
        return 1, 1.0 / math.log2(rank + 1)
    return 0, 0.0


def evaluate(scorer_factory, split, k=10):
    """Average per-user metrics over every user in the split.

    ``scorer_factory(user)`` must return a scorer over item index arrays.
    When every scorer is a :class:`ModelScorer` over one model, as those
    of a :func:`model_scorer_factory` are, all users are scored in one
    :func:`deepicf.model._score_users` call, else each scorer on its own
    user's candidates; a user's rank is the one :func:`rank_test_item`
    gives its scorer. The result is a pure function of (factory, split, k).
    """
    num_users = split.train.num_users
    if num_users == 0:
        raise EvalError("the split has no users to evaluate")
    scorers = [scorer_factory(user) for user in range(num_users)]
    negatives = [np.asarray(row, dtype=np.int64)
                 for row in split.eval_negatives]
    sizes = np.array([1 + row.size for row in negatives], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # each user's test item goes in front of its negatives
    candidates = np.insert(np.concatenate(negatives),
                           starts - np.arange(num_users), split.test_items)
    model = scorers[0].model if isinstance(scorers[0], ModelScorer) else None
    if all(isinstance(s, ModelScorer) and s.model is model for s in scorers):
        params, config, histories = model
        users = [scorer.user for scorer in scorers]
        scores = _score_users(params, config, [histories[u] for u in users],
                              users, candidates, sizes)
    else:
        scores = np.concatenate([
            _scores_of(scorer, candidates[start:end])
            for scorer, start, end in zip(scorers, starts, ends)])
    ranks, ties = _count_ranks(candidates, scores, starts)
    per_user = list(enumerate(ranks.tolist()))
    hits = gain = 0
    for _, rank in per_user:
        hr, ndcg = metrics_at_k(rank, k)
        hits += hr
        gain += ndcg
    return EvalReport(k=k, per_user=per_user, hr_at_k=hits / num_users,
                      ndcg_at_k=gain / num_users, ties=ties)


def item_pop_scorer(train):
    """Non-personalized baseline: an item's score is its training
    interaction count."""
    counts = train.item_counts().astype(np.float64)

    def factory(user):
        def scorer(items):
            return counts[np.asarray(items, dtype=np.int64)]
        return scorer
    return factory


# A user whose history holds more than this share of the catalog has its
# co-occurrence counts taken by a dense float32 matrix product instead of
# per-item bincounts. Chosen from the measured crossover of the two on
# the ML-1M-shaped benchmark log: fits at shares of 0.05 to 0.10 took
# about the same time, and at 0.03 and 0.15 longer.
DENSE_SHARE = 0.1
# A user whose history holds more than this share of the catalog is
# scored from its candidates' whole count rows, then the history's
# columns; any other by one flat gather of the (candidates, history)
# counts. Chosen from the measured crossover of the two: 100 random
# candidates over random uint16 counts, the whole rows were faster above
# about 130-190 history items at 3,706 items, 250-500 at 6,000 and 400-550
# at 9,916.
ROW_GATHER_SHARE = 0.05
# Item rows of the dense product made at a time: 7.6 MB of float32 at
# ML-1M's 3,706 items.
_DENSE_ROWS = 512
# Users in one float32 product: float32 holds every integer up to 2**24
# exactly, and no count in a product exceeds its number of users.
_EXACT_USERS = 1 << 24
# The most bytes the ItemKNN fit may give its (items, items) counts: 2 GiB,
# a quarter of an 8 GB machine. np.zeros of more can succeed lazily and the
# process then be killed, with no message, while the fit fills it.
KNN_COUNT_BYTES = 2 << 30


def dense_users(lengths, num_items):
    """Whether each history of the given ``lengths`` is long enough for
    the dense product of the ItemKNN fit: longer than ``DENSE_SHARE`` of
    the ``num_items`` catalog."""
    return np.asarray(lengths) > DENSE_SHARE * num_items


class ItemKnnModel:
    """Cosine similarity between items over binary user-incidence vectors.

    ``sim(i, j) = |users(i) & users(j)| / sqrt(|users(i)| * |users(j)|)``,
    with items that nobody interacted with pinned at similarity 0. A
    user's score for a candidate sums the similarities to every other item
    in the user's history.

    The co-occurrence counts are held dense, as on real logs they are
    nearly full, in the smallest unsigned type that holds the number of
    users, within ``KNN_COUNT_BYTES``. Each user adds its history's pairs
    to the counts by whichever method is cheaper for its length n:

    - a user with n above ``DENSE_SHARE`` of the catalog (see
      :func:`dense_users`) is a row of a 0/1 float32 incidence ``X``, and
      those users' counts are ``X.T @ X``, taken ``_DENSE_ROWS`` item rows
      at a time. A count is an integer no larger than the users in one
      product, so float32 holds it exactly while a product takes at most
      2**24 users (``_EXACT_USERS``);
    - row ``i`` of every other user's counts is one ``bincount`` over the
      histories that hold ``i``.

    The diagonal is zeroed, and a score takes each count times its
    column's ``1/sqrt(|users(j)|)``, sums them, then applies the row's. A
    user gathers its (candidates, history) counts by one flat ``take``,
    or, with a history over ``ROW_GATHER_SHARE`` of the catalog, by the
    candidates' whole rows and then the history's columns: the same
    counts in the same order, so the same scores to the bit.
    """

    def __init__(self, train):
        self.train = train
        num_items = train.num_items
        dtype = np.min_scalar_type(train.num_users)
        need = num_items ** 2 * dtype.itemsize
        if need > KNN_COUNT_BYTES:
            raise EvalError(
                f"ItemKNN over {num_items} items needs {need} bytes of"
                f" co-occurrence counts, over its budget of"
                f" {KNN_COUNT_BYTES} bytes")
        hists = train.item_arrays()
        dense = dense_users(np.diff(train.ends, prepend=0), num_items)
        holders = [[] for _ in range(num_items)]
        for hist in itertools.compress(hists, ~dense):
            for item in hist.tolist():
                holders[item].append(hist)
        counts = np.zeros((num_items, num_items), dtype=dtype)
        for item, hists_of in enumerate(holders):
            if hists_of:
                counts[item] = np.bincount(np.concatenate(hists_of),
                                           minlength=num_items)
        long_users = np.flatnonzero(dense)
        for first in range(0, long_users.size, _EXACT_USERS):
            users = long_users[first:first + _EXACT_USERS]
            incidence = np.zeros((users.size, num_items), dtype=np.float32)
            for row, user in enumerate(users.tolist()):
                incidence[row, hists[user]] = 1.0
            for start in range(0, num_items, _DENSE_ROWS):
                rows = slice(start, start + _DENSE_ROWS)
                counts[rows] += (incidence[:, rows].T @ incidence).astype(dtype)
        np.fill_diagonal(counts, 0)
        popularity = train.item_counts()
        inv_sqrt = np.zeros(num_items)
        active = popularity > 0
        inv_sqrt[active] = 1.0 / np.sqrt(popularity[active])
        self._counts = counts
        self._inv_sqrt = inv_sqrt

    def similarity(self, i, j):
        return float(self._counts[i, j] * self._inv_sqrt[j]
                     * self._inv_sqrt[i])

    def scorer_factory(self):
        num_items = self._inv_sqrt.size

        def factory(user):
            hist = self.train.history_items(user)
            whole_rows = hist.size > ROW_GATHER_SHARE * num_items

            def scorer(items):
                items = np.asarray(items, dtype=np.int64)
                # the (items, hist) block of the counts, in the same order
                # either way
                if whole_rows:
                    block = self._counts.take(items, axis=0).take(hist,
                                                                  axis=1)
                else:
                    block = self._counts.take(items[:, None] * num_items
                                              + hist)
                return ((block * self._inv_sqrt[hist]).sum(axis=1)
                        * self._inv_sqrt[items])
            return scorer
        return factory


def item_knn_fit_and_score(train):
    """Fit the cosine model and return (model, scorer factory)."""
    model = ItemKnnModel(train)
    return model, model.scorer_factory()


class ModelScorer:
    """The scorer of one user over a trained model: a call scores the
    given items against the user's training history with
    :func:`deepicf.model.score_items`. ``model`` is the ``(params, config,
    histories)`` triple that every scorer of one
    :func:`model_scorer_factory` shares."""

    __slots__ = ("model", "user")

    def __init__(self, model, user):
        self.model = model
        self.user = user

    def __call__(self, items):
        params, config, histories = self.model
        return score_items(params, config, histories[self.user], self.user,
                           items)


def model_scorer_factory(params, config, split):
    """Scorer factory over a trained model: candidates are scored against
    the user's training history (the candidate itself is always masked)."""
    model = (params, config, split.train.item_arrays())
    return functools.partial(ModelScorer, model)
