"""Interaction log parsing, dense-indexed datasets, the leave-one-out
split, and training/evaluation negative sampling.

Datasets are immutable after construction and safe to read from many
evaluators concurrently; parsing and splitting themselves are
single-threaded.
"""

from __future__ import annotations

import contextlib
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from deepicf.errors import DataError
from deepicf.numerics import rng_from_seed

log = logging.getLogger(__name__)

SEPARATORS = {"tab": "\t", "double_colon": "::"}

NUM_EVAL_NEGATIVES = 99


class InteractionDataset:
    """Dense-indexed per-user interaction histories.

    User and item indices are contiguous in ``[0, num_users)`` and
    ``[0, num_items)``; within a user a given item appears at most once.
    Histories keep (item, timestamp) pairs in insertion order.
    """

    def __init__(self, user_ids, item_ids, items_per_user, times_per_user,
                 raw_interactions=0):
        if len(items_per_user) != len(user_ids):
            raise DataError("one history per user required")
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)
        self.user_index = {uid: u for u, uid in enumerate(self.user_ids)}
        self.item_index = {iid: i for i, iid in enumerate(self.item_ids)}
        if len(self.user_index) != len(self.user_ids):
            raise DataError("duplicate raw user ids")
        if len(self.item_index) != len(self.item_ids):
            raise DataError("duplicate raw item ids")
        self._items = [np.asarray(a, dtype=np.int64) for a in items_per_user]
        self._times = [np.asarray(a, dtype=np.int64) for a in times_per_user]
        self.raw_interactions = int(raw_interactions)
        for u, (items, times) in enumerate(zip(self._items, self._times)):
            if items.shape != times.shape:
                raise DataError(f"user {u}: items/timestamps length mismatch")
            if items.size and (items.min() < 0 or items.max() >= self.num_items):
                raise DataError(f"user {u}: item index out of range")
            if np.unique(items).size != items.size:
                raise DataError(f"user {u}: duplicate item in history")
            if times.size and times.min() < 0:
                raise DataError(f"user {u}: negative timestamp")

    @property
    def num_users(self):
        return len(self.user_ids)

    @property
    def num_items(self):
        return len(self.item_ids)

    @property
    def num_interactions(self):
        return sum(a.size for a in self._items)

    def history_items(self, user):
        return self._items[user]

    def history_times(self, user):
        return self._times[user]

    def history_pairs(self, user):
        return list(zip(self._items[user].tolist(), self._times[user].tolist()))

    def item_arrays(self):
        """Per-user item index arrays, indexable by dense user id."""
        return self._items

    def item_counts(self):
        """Training interaction count per item (ItemPop's scoring signal)."""
        if self.num_interactions == 0:
            return np.zeros(self.num_items, dtype=np.int64)
        return np.bincount(np.concatenate(self._items),
                           minlength=self.num_items)


def parse_interactions(lines, fmt="tab"):
    """Parse an interaction log into an :class:`InteractionDataset`.

    Each line is ``user<sep>item<sep>rating<sep>timestamp`` with the
    separator selected by ``fmt`` ("tab" or "double_colon"). Duplicate
    (user, item) pairs collapse to the entry with the latest timestamp
    (later lines win ties). Dense indices follow first appearance order.
    Blank lines are ignored; anything else malformed is an error naming
    the line number, after the file name when ``lines`` is an open file.
    A raw id may not hold a tab, which the split's ``.idmap`` file uses as
    its separator.
    """
    try:
        sep = SEPARATORS[fmt]
    except KeyError:
        raise DataError(
            f"unknown format {fmt!r}; expected one of {sorted(SEPARATORS)}")

    # Dicts keep first-seen order, which gives the dense ids: raw user ->
    # {item -> latest timestamp}, where an updated key keeps its place in
    # the history, and raw item -> dense item id.
    histories, item_index = {}, {}
    raw = 0
    source = getattr(lines, "name", None)

    def where(lineno):
        return f"{source}: line {lineno}" if source else f"line {lineno}"

    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != 4 or any(p == "" for p in parts):
            raise DataError(
                f"{where(lineno)}: expected user{sep!r}item{sep!r}rating"
                f"{sep!r}timestamp, got {line!r}")
        user_raw, item_raw, rating_raw, ts_raw = parts
        try:
            float(rating_raw)
            ts = int(ts_raw)
        except ValueError:
            raise DataError(f"{where(lineno)}: bad rating/timestamp in {line!r}")
        if ts < 0:
            raise DataError(f"{where(lineno)}: negative timestamp {ts}")
        if "\t" in user_raw or "\t" in item_raw:
            raw_id = user_raw if "\t" in user_raw else item_raw
            raise DataError(f"{where(lineno)}: raw id {raw_id!r} holds a tab")
        raw += 1
        hist = histories.setdefault(user_raw, {})
        i = item_index.setdefault(item_raw, len(item_index))
        if ts >= hist.get(i, -1):
            hist[i] = ts

    if raw == 0:
        raise DataError("empty input: no interactions found")
    ds = InteractionDataset(list(histories), list(item_index),
                            [list(h) for h in histories.values()],
                            [list(h.values()) for h in histories.values()],
                            raw_interactions=raw)
    log.info(
        "parsed %d raw interactions: %d users, %d items, %d after dedup"
        " (%d users with <2 interactions cannot be split)",
        raw, ds.num_users, ds.num_items, ds.num_interactions,
        sum(len(h) < 2 for h in histories.values()))
    return ds


@dataclass
class LooSplit:
    """Leave-one-out split: per-user training history, one held-out test
    item, and a fixed set of evaluation negatives sampled at split time so
    every model comparison shares identical candidate sets."""

    train: InteractionDataset
    test_items: np.ndarray
    eval_negatives: list = field(repr=False)
    seed: int | None = None

    def validate(self, where=lambda user, part: f"user {user}"):
        """Check the split's invariants; raise :class:`DataError` on the
        first violation. ``where(user, part)`` names the source of a
        user's ``part`` ("test" or "negatives") in the message."""
        tr = self.train
        if self.test_items.shape != (tr.num_users,):
            raise DataError("one test item per user required")
        if len(self.eval_negatives) != tr.num_users:
            raise DataError("one negative list per user required")
        for u in range(tr.num_users):
            hist = set(tr.history_items(u).tolist())
            t = int(self.test_items[u])
            if t in hist:
                raise DataError(
                    f"{where(u, 'test')}: test item {t} in training history")
            negs = self.eval_negatives[u]
            if np.unique(negs).size != negs.size:
                raise DataError(
                    f"{where(u, 'negatives')}: duplicate evaluation negatives")
            bad = hist.union([t]).intersection(negs.tolist())
            if bad:
                raise DataError(f"{where(u, 'negatives')}: negatives overlap"
                                f" history or test item: {sorted(bad)}")
        return self


def leave_one_out_split(dataset, seed, num_negatives=NUM_EVAL_NEGATIVES):
    """Hold out each user's latest interaction and sample fixed negatives.

    Users with fewer than 2 interactions cannot be split; they are dropped
    (with a logged count) and the remaining users are re-indexed densely.
    The item index space is left untouched. Timestamp ties break toward
    the larger item index so the split is a pure function of
    ``(dataset, seed)``. Negatives are drawn uniformly without replacement
    from the items the user never interacted with.
    """
    kept = [u for u in range(dataset.num_users)
            if dataset.history_items(u).size >= 2]
    dropped = dataset.num_users - len(kept)
    if dropped:
        log.info("dropped %d users with <2 interactions", dropped)
    if not kept:
        raise DataError("no user has >= 2 interactions; nothing to split")

    user_ids = [dataset.user_ids[u] for u in kept]
    items_per_user, times_per_user = [], []
    test_items = np.empty(len(kept), dtype=np.int64)
    full_history = []

    for new_u, u in enumerate(kept):
        items = dataset.history_items(u)
        times = dataset.history_times(u)
        # latest interaction wins; ties go to the larger item index
        order = np.lexsort((items, times))
        held = order[-1]
        test_items[new_u] = items[held]
        keep_mask = np.ones(items.size, dtype=bool)
        keep_mask[held] = False
        items_per_user.append(items[keep_mask])
        times_per_user.append(times[keep_mask])
        full_history.append(items)

    train = InteractionDataset(user_ids, dataset.item_ids, items_per_user,
                               times_per_user,
                               raw_interactions=dataset.raw_interactions)

    rng = rng_from_seed(seed, "loo-negatives")
    num_items = dataset.num_items
    negatives = []
    for new_u in range(len(kept)):
        observed = np.zeros(num_items, dtype=bool)
        observed[full_history[new_u]] = True
        pool = np.flatnonzero(~observed)
        if pool.size < num_negatives:
            raise DataError(
                f"user {user_ids[new_u]!r} has only {pool.size} "
                f"non-interacted items; {num_negatives} negatives required")
        negatives.append(
            rng.choice(pool, size=num_negatives, replace=False).astype(np.int64))

    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=negatives, seed=int(seed))


def sample_training_instances(train, num_negatives, rng):
    """One epoch's worth of (user, item, label) training instances.

    Every training positive is emitted with label 1 together with
    ``num_negatives`` label-0 items drawn uniformly from the catalog with
    rejection of the user's training history. If rejection exhausts its
    attempt budget (a user who interacted with almost everything), the
    remaining draws fall back to uniform sampling over the explicit
    complement. The full stream is shuffled before it is returned, so the
    label ratio is exactly 1:num_negatives per positive.
    """
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


# ---------------------------------------------------------------------------
# Split file formats: <prefix>.train/.test/.negatives/.idmap
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def open_text(path, error=DataError):
    """Open ``path`` as UTF-8 text for reading. Bytes that are not UTF-8,
    met anywhere in the ``with`` body, raise ``error`` naming the file and
    the first line that holds them."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError:
            lineno = _undecodable_line(path)
            where = f"{path}: line {lineno}" if lineno else str(path)
            raise error(f"{where}: not UTF-8 text") from None


def _undecodable_line(path):
    """Number of the first line of ``path`` that holds bytes which are not
    UTF-8, with lines split as the text reader splits them; None if no
    line does."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if re.search("[\udc80-\udcff]", line):
                return lineno


def save_split(split, prefix):
    """Write the four split files next to ``prefix``.

    .train holds one line per training interaction in dense-index space
    (rating written as 1: implicit feedback), .test one ``user TAB item``
    line per user, .negatives the per-user negative lists, and .idmap the
    raw-to-dense id tables with ``#users`` / ``#items`` section headers.
    """
    prefix = str(prefix)
    tr = split.train
    with open(prefix + ".train", "w", encoding="utf-8") as f:
        for u in range(tr.num_users):
            items = tr.history_items(u)
            times = tr.history_times(u)
            for i, ts in zip(items.tolist(), times.tolist()):
                f.write(f"{u}\t{i}\t1\t{ts}\n")
    with open(prefix + ".test", "w", encoding="utf-8") as f:
        for u in range(tr.num_users):
            f.write(f"{u}\t{int(split.test_items[u])}\n")
    with open(prefix + ".negatives", "w", encoding="utf-8") as f:
        for u in range(tr.num_users):
            negs = "\t".join(str(int(j)) for j in split.eval_negatives[u])
            f.write(f"{u}\t{negs}\n")
    with open(prefix + ".idmap", "w", encoding="utf-8") as f:
        f.write("#users\n")
        for u, uid in enumerate(tr.user_ids):
            f.write(f"{uid}\t{u}\n")
        f.write("#items\n")
        for i, iid in enumerate(tr.item_ids):
            f.write(f"{iid}\t{i}\n")


def _read_idmap(path):
    # section header -> {raw id: line number}, in dense-id order
    sections = {"#users": {}, "#items": {}}
    section = None
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line in sections:
                section = sections[line]
                continue
            if section is None:
                raise DataError(f"{path}: line {lineno}: missing section header")
            try:
                raw_id, dense = line.split("\t")
                dense = int(dense)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad idmap entry {line!r}")
            if dense != len(section):
                raise DataError(f"{path}: line {lineno}: ids out of order")
            if raw_id in section:
                raise DataError(f"{path}: line {lineno}: raw id {raw_id!r}"
                                f" already listed on line {section[raw_id]}")
            section[raw_id] = lineno
    users, items = (list(sections[h]) for h in ("#users", "#items"))
    if not users or not items:
        raise DataError(f"{path}: empty idmap section")
    return users, items


def load_split(prefix):
    """Read split files written by :func:`save_split` and validate them.

    Every defect (a malformed row, an index or timestamp out of range, an
    item repeated in a history, a user listed twice or not at all,
    negatives that overlap the history) is a :class:`DataError` naming
    the file and line.
    """
    prefix = str(prefix)
    user_ids, item_ids = _read_idmap(prefix + ".idmap")
    num_users, num_items = len(user_ids), len(item_ids)

    items_per_user = [[] for _ in range(num_users)]
    times_per_user = [[] for _ in range(num_users)]
    with open_text(prefix + ".train") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{prefix}.train: line {lineno}: bad row {line!r}")
            try:
                u, i, ts = int(parts[0]), int(parts[1]), int(parts[3])
            except ValueError:
                raise DataError(f"{prefix}.train: line {lineno}: bad row {line!r}")
            if not (0 <= u < num_users and 0 <= i < num_items):
                raise DataError(f"{prefix}.train: line {lineno}: index out of range")
            if not 0 <= ts < 2 ** 63:
                raise DataError(f"{prefix}.train: line {lineno}: timestamp {ts}"
                                f" outside [0, 2**63)")
            items_per_user[u].append(i)
            times_per_user[u].append(ts)
    for u, items in enumerate(items_per_user):
        if len(set(items)) < len(items):
            lineno = _repeated_row(prefix + ".train", u)
            raise DataError(f"{prefix}.train: line {lineno}: user {u} lists"
                            f" an item a second time")

    train = InteractionDataset(user_ids, item_ids, items_per_user,
                               times_per_user)

    test_rows, test_lines = _read_user_rows(prefix + ".test", num_users,
                                            num_items, single=True)
    negatives, negative_lines = _read_user_rows(prefix + ".negatives",
                                                num_users, num_items)
    lines = {"test": test_lines, "negatives": negative_lines}
    split = LooSplit(train=train,
                     test_items=np.concatenate(test_rows).astype(np.int64),
                     eval_negatives=negatives, seed=None)
    return split.validate(
        where=lambda u, part: f"{prefix}.{part}: line {lines[part][u]}")


def _repeated_row(path, user):
    """Line number of the first ``.train`` row that repeats an item of
    ``user``, in a file whose rows have all parsed."""
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split("\t")
            if len(parts) == 4 and int(parts[0]) == user:
                if int(parts[1]) in seen:
                    return lineno
                seen.add(int(parts[1]))


def _read_user_rows(path, num_users, num_items, single=False):
    """Rows ``user TAB item [TAB item ...]`` of a ``.test`` (``single``: one
    item per row) or ``.negatives`` file: exactly one row per user, every
    index in range. Returns the per-user item arrays and line numbers."""
    rows = [None] * num_users
    lines = [0] * num_users
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                user, *items = [int(p) for p in line.split("\t")]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad row {line!r}")
            if not items or (single and len(items) != 1):
                raise DataError(f"{path}: line {lineno}: expected"
                                f" {'one item' if single else 'items'}"
                                f" after the user, got {line!r}")
            if not 0 <= user < num_users:
                raise DataError(f"{path}: line {lineno}: user index {user}"
                                f" outside [0, {num_users})")
            if rows[user] is not None:
                raise DataError(f"{path}: line {lineno}: user {user} already"
                                f" listed on line {lines[user]}")
            bad = [i for i in items if not 0 <= i < num_items]
            if bad:
                raise DataError(f"{path}: line {lineno}: item index {bad[0]}"
                                f" outside [0, {num_items})")
            rows[user] = np.asarray(items, dtype=np.int64)
            lines[user] = lineno
    missing = [u for u, row in enumerate(rows) if row is None]
    if missing:
        raise DataError(f"{path}: no row for user {missing[0]}")
    return rows, lines
