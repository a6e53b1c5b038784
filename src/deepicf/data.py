"""Interaction log parsing, dense-indexed datasets, the leave-one-out
split, and training/evaluation negative sampling.

Datasets are immutable after construction and safe to read from many
evaluators concurrently; parsing and splitting themselves are
single-threaded.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import logging
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from itertools import islice, repeat

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
        self._check_histories()

    def _check_histories(self):
        """Per user, in user order: items and timestamps of one shape,
        then the history rules of :func:`_history_rules`. The first user
        that breaks a rule is reported, with the first rule it breaks in
        that order."""
        items, item_ends = _flatten(self._items)
        times, time_ends = _flatten(self._times)
        owners = np.repeat(np.arange(self.num_users),
                           np.diff(item_ends, prepend=0))
        _, (bad_item, repeated, negative) = _history_rules(
            owners, items, times, self.num_items)
        found = _first_flagged((
            (np.fromiter((a.shape != b.shape for a, b in
                          zip(self._items, self._times)), bool,
                         self.num_users),
             "items/timestamps length mismatch"),
            (_owners(item_ends, bad_item), "item index out of range"),
            (_owners(item_ends, repeated), "duplicate item in history"),
            (_owners(time_ends, negative), "negative timestamp"),
        ))
        if found:
            raise DataError("user {}: {}".format(*found))

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

    def item_arrays(self):
        """Per-user item index arrays, indexable by dense user id."""
        return self._items

    def item_counts(self):
        """Training interaction count per item (ItemPop's scoring signal)."""
        if self.num_interactions == 0:
            return np.zeros(self.num_items, dtype=np.int64)
        return np.bincount(np.concatenate(self._items),
                           minlength=self.num_items)


def _flatten(arrays):
    """The values of ``arrays`` end to end, and where each array ends."""
    if not arrays:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ends = np.cumsum(np.fromiter((a.size for a in arrays), np.int64,
                                 len(arrays)))
    return np.concatenate([a.ravel() for a in arrays]), ends


def _owners(ends, flags):
    """Boolean mask over the arrays that :func:`_flatten` joined, set for
    each array that holds a flagged value."""
    mask = np.zeros(ends.size, dtype=bool)
    mask[np.searchsorted(ends, np.flatnonzero(flags), side="right")] = True
    return mask


def _repeats(keys):
    """Mask over ``keys``, set where an earlier entry holds the same key."""
    order = np.argsort(keys, kind="stable")
    mask = np.zeros(keys.size, dtype=bool)
    mask[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    return mask


def _history_rules(owners, items, times, num_items):
    """The rules of a history, as masks over its rows of (owner, item)
    and over its timestamps: the item is outside ``[0, num_items)``, an
    earlier row of the owner holds the item, the timestamp is negative.
    Also returns the sorted ``owner * num_items + item`` keys.

    An owner or item out of range may give a row the key of a row in
    range, and the later of the two is then flagged as a repeat. When
    that is the row in range, the row out of range comes before it, so
    the first row flagged is never flagged by mistake as long as a
    caller checks ranges before repeats."""
    history = owners * num_items
    history += items
    history.sort()
    repeated = (_repeats(owners * num_items + items)
                if (history[1:] == history[:-1]).any()
                else np.zeros(items.size, dtype=bool))
    return history, (~_within(items, num_items), repeated, times < 0)


def _first_flagged(rules):
    """The first row that a rule's mask flags, with the message of the
    first rule in ``rules`` (pairs of a mask and a message) that flags
    it; None if no row is flagged."""
    failing = functools.reduce(np.logical_or, (mask for mask, _ in rules))
    if failing.any():
        row = int(failing.argmax())
        return row, next(message for mask, message in rules if mask[row])


def _split_by_user(users, *columns, num_users):
    """Rows grouped by user, in row order within a user: for each column,
    one array per user (views into one array)."""
    order = np.argsort(users, kind="stable")
    cuts = np.cumsum(np.bincount(users, minlength=num_users))[:-1]
    return [np.split(c[order], cuts) for c in columns]


_LOG_CHUNK_LINES = 1 << 14


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

    ``lines`` (an open file, a list or any iterator of lines) is read in
    chunks of lines, each checked a column at a time; a chunk that fails
    a check is read row by row to name its first defective line. A byte
    that is not UTF-8, read through :func:`open_text`, is its line's
    first defect.
    """
    try:
        sep = SEPARATORS[fmt]
    except KeyError:
        raise DataError(
            f"unknown format {fmt!r}; expected one of {sorted(SEPARATORS)}")
    source = getattr(lines, "name", None)
    user_index, item_index = {}, {}
    users, items, times = [], [], []
    lines, lineno = iter(lines), 1
    while chunk := list(islice(lines, _LOG_CHUNK_LINES)):
        user_raw, item_raw, ts = (_log_columns(chunk, sep)
                                  or _log_rows(chunk, lineno, sep, source))
        lineno += len(chunk)
        del chunk
        times.append(ts)
        users.append(_codes(user_raw, user_index))
        items.append(_codes(item_raw, item_index))
    raw = sum(map(len, users))
    if raw == 0:
        raise DataError("empty input: no interactions found")

    # Each array is dropped once used, which keeps the peak memory low.
    num_items = len(item_index)
    pair_keys = np.concatenate(users)
    del users
    pair_keys *= num_items
    pair_keys += np.concatenate(items)
    del items
    times = np.concatenate(times)
    # rows of one (user, item) pair side by side, in line order: the pair
    # keeps its first line's place and its latest timestamp
    order = np.argsort(pair_keys, kind="stable")
    pair_keys = pair_keys[order]
    starts = np.flatnonzero(np.r_[True, pair_keys[1:] != pair_keys[:-1]])
    latest = np.maximum.reduceat(times[order], starts)
    del times
    first, pair_keys = order[starts], pair_keys[starts]
    del order, starts
    by_line = np.argsort(first)
    del first
    pair_keys, latest = pair_keys[by_line], latest[by_line]
    del by_line
    hist_items, hist_times = _split_by_user(
        pair_keys // num_items, pair_keys % num_items, latest,
        num_users=len(user_index))
    del pair_keys, latest
    ds = InteractionDataset(list(user_index), list(item_index), hist_items,
                            hist_times, raw_interactions=raw)
    log.info(
        "parsed %d raw interactions: %d users, %d items, %d after dedup"
        " (%d users with <2 interactions cannot be split)",
        ds.raw_interactions, ds.num_users, ds.num_items, ds.num_interactions,
        sum(a.size < 2 for a in ds.item_arrays()))
    return ds


def _log_columns(chunk, sep):
    """The raw user ids, raw item ids and timestamps of a chunk of log
    lines: the chunk is split into fields with one ``str.split``, and each
    column is checked at once. None if a line breaks a rule, or holds a
    tab or NUL that could hide one, or a byte that is not UTF-8."""
    rows = list(filter(None, map(str.rstrip, chunk, repeat("\r\n"))))
    n = len(rows)
    if not n:
        return [], [], np.empty(0, dtype=np.int64)
    # Rows are joined by a NUL field. With no other tab or NUL in the
    # chunk, every fifth field is a NUL only if each row has four.
    text = "\t\0\t".join(rows)
    del rows
    if text.count("\0") != n - 1 or not_utf8(text):
        return None
    if sep != "\t":
        if text.count("\t") != 2 * (n - 1):
            return None
        text = text.replace(sep, "\t")
    fields = text.split("\t")
    del text
    if len(fields) != 5 * n - 1 or fields[4::5].count("\0") != n - 1:
        return None
    user_raw, item_raw = fields[0::5], fields[1::5]
    if "" in user_raw or "" in item_raw:
        return None
    try:
        # float() and int() are the row rules' own tests of a field
        collections.deque(map(float, fields[2::5]), maxlen=0)
        ts = np.fromiter(map(int, fields[3::5]), np.int64, n)
    except (ValueError, OverflowError):
        return None
    return (user_raw, item_raw, ts) if ts.min() >= 0 else None


def _log_rows(chunk, lineno, sep, source):
    """The columns :func:`_log_columns` gives, read one row at a time from
    a chunk whose first line is ``lineno``; the first line that breaks a
    rule is a :class:`DataError` naming it."""
    users, items, times = [], [], []
    for lineno, line in enumerate(chunk, start=lineno):
        line = line.rstrip("\r\n")
        if not line:
            continue
        where = f"{source}: line {lineno}" if source else f"line {lineno}"
        if not_utf8(line):
            raise DataError(f"{where}: not UTF-8 text")
        parts = line.split(sep)
        if len(parts) != 4 or any(p == "" for p in parts):
            raise DataError(
                f"{where}: expected user{sep!r}item{sep!r}rating"
                f"{sep!r}timestamp, got {line!r}")
        user_raw, item_raw, rating_raw, ts_raw = parts
        try:
            float(rating_raw)
            ts = int(ts_raw)
        except ValueError:
            raise DataError(f"{where}: bad rating/timestamp in {line!r}")
        if ts < 0:
            raise DataError(f"{where}: negative timestamp {ts}")
        if ts >= 2 ** 63:
            raise DataError(f"{where}: timestamp {ts} outside [0, 2**63)")
        if "\t" in user_raw or "\t" in item_raw:
            raw_id = user_raw if "\t" in user_raw else item_raw
            raise DataError(f"{where}: raw id {raw_id!r} holds a tab")
        users.append(user_raw)
        items.append(item_raw)
        times.append(ts)
    return users, items, np.array(times, dtype=np.int64)


def _codes(raw_ids, index):
    """Dense codes of ``raw_ids``; ids not yet in ``index`` are added to
    it in order of first appearance."""
    for raw_id in dict.fromkeys(raw_ids):
        index.setdefault(raw_id, len(index))
    return np.fromiter(map(index.__getitem__, raw_ids), np.int64,
                       len(raw_ids))


@dataclass
class LooSplit:
    """Leave-one-out split: per-user training history, one held-out test
    item, and a fixed set of evaluation negatives sampled at split time so
    every model comparison shares identical candidate sets."""

    train: InteractionDataset
    test_items: np.ndarray
    eval_negatives: list = field(repr=False)


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
    negatives = []
    rng = rng_from_seed(seed, "loo-negatives")

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

        observed = np.zeros(dataset.num_items, dtype=bool)
        observed[items] = True
        pool = np.flatnonzero(~observed)
        if pool.size < num_negatives:
            raise DataError(
                f"user {user_ids[new_u]!r} has only {pool.size} "
                f"non-interacted items; {num_negatives} negatives required")
        negatives.append(
            rng.choice(pool, size=num_negatives, replace=False).astype(np.int64))

    train = InteractionDataset(user_ids, dataset.item_ids, items_per_user,
                               times_per_user,
                               raw_interactions=dataset.raw_interactions)
    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=negatives)


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

def open_text(path):
    """Open ``path`` as UTF-8 text for reading. A byte that is not UTF-8
    reads as a lone surrogate, which :func:`not_utf8` finds: each reader
    names it as the first defect of its line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


# What a byte that is not UTF-8 reads as through open_text
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def not_utf8(text):
    """Whether ``text``, read through :func:`open_text`, holds a byte that
    is not UTF-8."""
    return not text.isascii() and _NOT_UTF8.search(text) is not None


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open a temporary file in ``path``'s directory for writing (UTF-8
    text unless ``mode`` is binary). When the ``with`` body ends, the file
    is flushed to disk and replaces ``path`` in one step; if the body
    raises, ``path`` is left as it was and the temporary file is removed.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_WRITE_ROWS = 1 << 16


def save_split(split, prefix):
    """Write the four split files next to ``prefix``, each with
    :func:`atomic_write`.

    .train holds one line per training interaction in dense-index space
    (rating written as 1: implicit feedback), .test one ``user TAB item``
    line per user, .negatives the per-user negative lists, and .idmap the
    raw-to-dense id tables with ``#users`` / ``#items`` section headers.
    """
    prefix = str(prefix)
    tr = split.train
    items, ends = _flatten(tr.item_arrays())
    times, _ = _flatten([tr.history_times(u) for u in range(tr.num_users)])
    owners = np.repeat(np.arange(tr.num_users), np.diff(ends, prepend=0))
    with atomic_write(prefix + ".train") as f:
        for start in range(0, items.size, _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            f.write(_decimal_lines(owners[block], items[block],
                                   np.ones_like(items[block]), times[block]))
    users = range(tr.num_users)
    with atomic_write(prefix + ".test") as f:
        f.write("".join(map("{}\t{}\n".format, users, np.asarray(
            split.test_items, dtype=np.int64).tolist())))
    negatives = ("\t".join(map(str, np.asarray(row, dtype=np.int64).tolist()))
                 for row in split.eval_negatives)
    with atomic_write(prefix + ".negatives") as f:
        f.write("".join(map("{}\t{}\n".format, users, negatives)))
    with atomic_write(prefix + ".idmap") as f:
        for header, ids in (("#users", tr.user_ids), ("#items", tr.item_ids)):
            f.write(header + "\n")
            f.write("".join(map("{}\t{}\n".format, ids, range(len(ids)))))


# "0000" to "9999" in ASCII, four bytes to an entry
_FOUR_DIGITS = np.frombuffer(
    "".join(f"{v:04d}" for v in range(10000)).encode(), dtype=np.uint32)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _decimal_lines(*columns):
    """One line per row of the equal-length non-negative int64 ``columns``:
    their decimal values, tab-separated; what ``f"{a}\\t{b}\\n"`` gives
    per row, built with array operations."""
    parts = []
    for values in columns:
        groups = -(-len(str(int(values.max(initial=0)))) // 4)
        digits = np.empty((values.size, groups), dtype=np.uint32)
        rest = values
        for g in range(groups - 1, -1, -1):
            high = rest // 10000
            digits[:, g] = _FOUR_DIGITS.take(rest - high * 10000)
            rest = high
        digits = digits.view(np.uint8)
        # NUL out the zeros before each value's first digit
        lead = 4 * groups - 1 - np.searchsorted(_POWERS_OF_TEN, values,
                                                side="right")
        digits *= np.arange(4 * groups) >= lead[:, None]
        parts += [digits, np.full((values.size, 1), ord("\t"), np.uint8)]
    parts[-1][:] = ord("\n")
    chars = np.concatenate(parts, axis=1).ravel()
    return chars[chars != 0].tobytes().decode("ascii")


def _read_idmap(path):
    # section header -> {raw id: line number}, in dense-id order
    sections = {"#users": {}, "#items": {}}
    section = None
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not_utf8(line):
                raise DataError(f"{path}: line {lineno}: not UTF-8 text")
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
    """Read split files written by :func:`save_split`, checking each row.

    Every defect (a malformed row, an index or timestamp out of range, an
    item repeated in a history, a user listed twice or not at all, a test
    item in the history, negatives repeated or overlapping the history or
    test item, bytes that are not UTF-8) is a :class:`DataError` naming
    the file and line. Files are read in the order ``.idmap``, ``.train``,
    ``.test``, ``.negatives``; a file's first defect in line order is the
    one reported. A row function only parses the lines of a block numpy
    refuses; every rule on values is one mask over all the rows, paired
    with the message that words it.
    """
    prefix = str(prefix)
    user_ids, item_ids = _read_idmap(prefix + ".idmap")
    num_users, num_items = len(user_ids), len(item_ids)

    train_file = _SplitFile(prefix + ".train", _train_row, range(4, 5))
    columns = ([], [], [])
    for values, _ in train_file.blocks():
        for column, j in zip(columns, (0, 1, 3)):
            column.append(values[j::4].copy())
    users, items, times = map(_joined, columns)
    del columns
    history, (bad_item, repeated, negative) = _history_rules(
        users, items, times, num_items)
    train_file.raise_first((
        (bad_item | ~_within(users, num_users),
         lambda row, line: "index out of range"),
        (negative, lambda row, line: "timestamp {} outside [0, 2**63)".format(
            int(line.split("\t")[3]))),
        (repeated, lambda row, line:
         f"user {users[row]} lists an item a second time"),
    ))
    del bad_item, repeated, negative
    hist_items, hist_times = _split_by_user(users, items, times,
                                            num_users=num_users)
    del users, items, times
    train = InteractionDataset(user_ids, item_ids, hist_items, hist_times)

    test_items = np.concatenate(_load_user_rows(
        prefix + ".test", history, num_users, num_items))
    negatives = _load_user_rows(prefix + ".negatives", history, num_users,
                                num_items, test_items)
    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=negatives)


def _int64(field):
    """``int(field)``, or -1 where int64 cannot hold it: out of range of
    every index and timestamp, as the value is."""
    value = int(field)
    return value if -2 ** 63 <= value < 2 ** 63 else -1


def _train_row(line):
    """A ``.train`` line's values, with its rating (not read) as 0, or the
    message of its defect if it is not four fields with integers for the
    user, the item and the timestamp."""
    parts = line.split("\t")
    try:
        if len(parts) != 4:
            raise ValueError
        return [_int64(parts[0]), _int64(parts[1]), 0, _int64(parts[3])]
    except ValueError:
        return f"bad row {line!r}"


def _user_row(line):
    """A ``.test`` or ``.negatives`` line's values, or the message of its
    defect if they are not all integers."""
    try:
        return [_int64(p) for p in line.split("\t")]
    except ValueError:
        return f"bad row {line!r}"


def _load_user_rows(path, history, num_users, num_items, test_items=None):
    """Rows ``user TAB item [TAB item ...]``: exactly one per user, every
    index in range. Without ``test_items`` the file is a ``.test`` file,
    one item per row that lies outside the user's history (the sorted
    ``user * num_items + item`` keys of ``.train``); with them a
    ``.negatives`` file, whose rows hold distinct items outside the
    history and the user's test item. Returns the per-user item arrays."""
    single = test_items is None
    file = _SplitFile(path, _user_row,
                      range(2, 3) if single else range(2, sys.maxsize))
    blocks = list(file.blocks())
    values, lengths = (_joined(block[k] for block in blocks) for k in (0, 1))
    starts, counts = np.cumsum(lengths) - lengths, lengths - 1
    users = values[starts]
    # one row of items per line, padded with -1 where not ``real``
    real = np.arange(counts.max(initial=1)) < counts[:, None]
    items = np.full(real.shape, -1, dtype=np.int64)
    items[real] = np.delete(values, starts)

    # A row whose user or items are out of range is flagged by that rule
    # first, whatever the masks after it give.
    owners = np.clip(users, 0, num_users - 1)
    held = _in_sorted(history, owners[:, None] * num_items + items)
    if not single:
        held |= items == test_items[owners, None]
    held &= real
    rules = [
        ((counts != 1) if single else (counts < 1), lambda row, line:
         f"expected {'one item' if single else 'items'}"
         f" after the user, got {line!r}"),
        (~_within(users, num_users), lambda row, line:
         "user index {} outside [0, {})".format(
             int(line.split("\t")[0]), num_users)),
        (_repeats(users), lambda row, line:
         f"user {users[row]} already listed on line"
         f" {file.line(int((users == users[row]).argmax()))[0]}"),
        ((~_within(items, num_items) & real).any(axis=1), lambda row, line:
         "item index {} outside [0, {})".format(next(
             i for i in map(int, line.split("\t")[1:])
             if not 0 <= i < num_items), num_items)),
    ]
    if not single:
        ordered = np.sort(items, axis=1)   # padding first
        rules.append((((ordered[:, 1:] == ordered[:, :-1])
                       & (ordered[:, 1:] >= 0)).any(axis=1),
                      lambda row, line: "duplicate evaluation negatives"))
    rules.append((held.any(axis=1), lambda row, line: (
        f"test item {items[row, 0]} in training history" if single
        else "negatives overlap history or test item:"
        f" {sorted(items[row][held[row]].tolist())}")))
    file.raise_first(rules)
    missing = np.flatnonzero(np.bincount(users, minlength=num_users) == 0)
    if missing.size:
        raise DataError(f"{path}: no row for user {missing[0]}")
    by_user = np.argsort(users)
    return [row[:n] for row, n in zip(items[by_user], counts[by_user].tolist())]


# Characters of a split file read at a time. A whole ML-1M ``.train``
# table (32 MB) sits just under glibc's ceiling for its moving mmap
# threshold: freeing it raised the threshold to its size, after which the
# freed arrays of later set-ups stayed on the heap or not by chance, and
# peak RSS differed by some 30 MB from one process to the next.
_READ_CHARS = 1 << 21


class _SplitFile:
    """The rows of tab-separated integers in a split file, read in blocks
    of about _READ_CHARS characters of whole lines.

    numpy's C reader parses a block. A block it refuses, or of a width not
    in ``widths``, is read a line at a time by ``parse_row``, which gives
    a line's values or the message of a line it cannot parse; bytes that
    are not UTF-8 are a line's first defect. Reading stops at the first
    line that cannot be parsed, and ``stop`` is then its message. Blank
    lines hold no row.
    """

    def __init__(self, path, parse_row, widths):
        self.path, self.parse_row, self.widths = path, parse_row, widths
        self.stop = None

    def blocks(self):
        """Each block's values end to end, and the count in each row."""
        with open_text(self.path) as f:
            while self.stop is None and (text := f.read(_READ_CHARS)):
                text += f.readline()
                table = _loadtxt(text)
                if table is None or table.shape[1] not in self.widths:
                    rows = []
                    for line in filter(None, text.split("\n")):
                        row = ("not UTF-8 text" if not_utf8(line)
                               else self.parse_row(line))
                        if isinstance(row, str):
                            self.stop = row
                            break
                        rows.append(row)
                    values = np.array([v for row in rows for v in row],
                                      dtype=np.int64)
                    lengths = np.array(list(map(len, rows)), dtype=np.int64)
                else:
                    values = table.ravel()
                    lengths = np.full(len(table), table.shape[1])
                yield values, lengths

    def line(self, row):
        """The number and text of the ``row``-th row's line, found by
        reading the file again when a defect is reported."""
        with open_text(self.path) as f:
            rows = ((n, line) for n, line in enumerate(f, start=1)
                    if line != "\n")
            lineno, line = next(islice(rows, row, None))
        return lineno, line.rstrip("\n")

    def raise_first(self, rules):
        """Raise the defect of the first row that a mask of ``rules`` (one
        entry per row read) flags, worded by the first rule that flags it
        as ``message(row, line)``, or else the defect reading stopped at,
        on the line after the rows read."""
        found = _first_flagged(rules)
        if found or self.stop is not None:
            row = found[0] if found else rules[0][0].size
            lineno, line = self.line(row)
            message = found[1](row, line) if found else self.stop
            raise DataError(f"{self.path}: line {lineno}: {message}")


def _loadtxt(text):
    """The rows of tab-separated integers in ``text`` as numpy's C reader
    parses them (skipping blank lines); None if it refuses them or finds
    none. Some numpy versions read a field such as ``1.5`` through a
    float, truncate it and only warn: the warning refuses the block too."""
    if text.isspace():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(io.StringIO(text), dtype=np.int64,
                              delimiter="\t", comments=None, ndmin=2)
        except (ValueError, DeprecationWarning):
            return None


def _joined(arrays):
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays])


def _within(values, n):
    return (values >= 0) & (values < n)


def _in_sorted(sorted_keys, keys):
    """Where ``keys`` are members of the sorted ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys
