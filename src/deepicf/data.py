"""Interaction log parsing, dense-indexed datasets, the leave-one-out
split, and training/evaluation negative sampling.

Datasets are immutable after construction and safe to read from many
evaluators concurrently; parsing and splitting themselves are
single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import io
import logging
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from itertools import compress, islice

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
        self._fill(user_ids, item_ids,
                   [np.asarray(a, dtype=np.int64) for a in items_per_user],
                   [np.asarray(a, dtype=np.int64) for a in times_per_user],
                   raw_interactions)
        if len(self.user_index) != len(self.user_ids):
            raise DataError("duplicate raw user ids")
        if len(self.item_index) != len(self.item_ids):
            raise DataError("duplicate raw item ids")
        self._check_histories()

    @classmethod
    def _checked(cls, user_ids, item_ids, items_per_user, times_per_user,
                 raw_interactions=0):
        """The dataset of int64 history arrays whose rows a reader has just
        checked against every rule of the constructor, built without
        checking them again."""
        dataset = cls.__new__(cls)
        dataset._fill(user_ids, item_ids, items_per_user, times_per_user,
                      raw_interactions)
        return dataset

    def _fill(self, user_ids, item_ids, items_per_user, times_per_user,
              raw_interactions):
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)
        self.user_index = {uid: u for u, uid in enumerate(self.user_ids)}
        self.item_index = {iid: i for i, iid in enumerate(self.item_ids)}
        self._items = list(items_per_user)
        self._times = list(times_per_user)
        self.raw_interactions = int(raw_interactions)

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
    ends = np.cumsum(np.bincount(users, minlength=num_users))
    return [_cut(c[order], ends) for c in columns]


def _cut(values, ends):
    """``values`` cut into the views that end at ``ends``, one after
    another."""
    ends = ends.tolist()
    return list(map(values.__getitem__, map(slice, [0, *ends[:-1]], ends)))


# Characters of a log or split file read at a time. A whole ML-1M
# ``.train`` table (32 MB) sits just under glibc's ceiling for its moving
# mmap threshold: freeing it raised the threshold to its size, after which
# the freed arrays of later set-ups stayed on the heap or not by chance,
# and peak RSS differed by some 30 MB from one process to the next.
_READ_CHARS = 1 << 21


def _read_blocks(f):
    """The text of the open file ``f`` in blocks of about ``_READ_CHARS``
    characters of whole lines."""
    while text := f.read(_READ_CHARS):
        yield text + f.readline()


def parse_interactions(f, fmt="tab"):
    """Parse an interaction log into an :class:`InteractionDataset`.

    Each line is ``user<sep>item<sep>rating<sep>timestamp`` with the
    separator selected by ``fmt`` ("tab" or "double_colon"). Duplicate
    (user, item) pairs collapse to the entry with the latest timestamp
    (later lines win ties). Dense indices follow first appearance order.
    Blank lines are ignored; anything else malformed is an error naming
    the line number, after the file's name when it has one. A raw id may
    not hold a tab, which the split's ``.idmap`` file uses as its
    separator.

    ``f`` is an open text file or an :class:`io.StringIO`, read in blocks
    of about ``_READ_CHARS`` characters of whole lines, each line ended by
    ``"\\n"`` (a file opened in text mode reads ``"\\r\\n"`` and ``"\\r"``
    as ``"\\n"``). A block's fields are found in its UTF-8 bytes and each
    column is checked at once; a block that fails a check, or holds text
    that only the row reader reads, is read row by row to name its first
    defective line. A byte that is not UTF-8, read through
    :func:`open_text`, is its line's first defect.
    """
    if not hasattr(f, "read"):
        raise TypeError(
            f"parse_interactions reads an open text file or an io.StringIO,"
            f" not {type(f).__name__}")
    try:
        sep = SEPARATORS[fmt]
    except KeyError:
        raise DataError(
            f"unknown format {fmt!r}; expected one of {sorted(SEPARATORS)}")
    source = getattr(f, "name", None)
    indexes = user_index, item_index = {}, {}
    users, items, times = [], [], []
    lineno = 1
    for text in _read_blocks(f):
        block = _log_bytes(text, sep, indexes)
        if block is None:
            block = _log_rows(text.split("\n"), lineno, sep, source, indexes)
        lineno += text.count("\n")
        users.append(block[0])
        items.append(block[1])
        times.append(block[2])
    raw = sum(map(len, users))
    if raw == 0:
        prefix = f"{source}: " if source else ""
        raise DataError(f"{prefix}empty input: no interactions found")

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
    ds = InteractionDataset._checked(user_index, item_index, hist_items,
                                     hist_times, raw_interactions=raw)
    log.info(
        "parsed %d raw interactions: %d users, %d items, %d after dedup"
        " (%d users with <2 interactions cannot be split)",
        ds.raw_interactions, ds.num_users, ds.num_items, ds.num_interactions,
        sum(a.size < 2 for a in ds.item_arrays()))
    return ds


# Masks that keep the first 0 to 8 bytes of a little-endian uint64 word
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _log_bytes(text, sep, indexes):
    """The user codes, item codes and timestamps of a block of log lines,
    read a column at a time from its UTF-8 bytes; the raw user and item
    ids new to ``indexes`` (the two raw id -> code dicts) are entered in
    order of first appearance. None, with ``indexes`` as they were, if a
    line breaks a rule or its timestamp is not 1 to 18 ASCII digits, or
    if the block holds a NUL, a lone surrogate or, with ``"::"``, a tab.
    A carriage return before a line end is read into the timestamp, which
    it refuses."""
    if "\0" in text or sep != "\t" and "\t" in text:
        return None
    try:
        # a line end after the last line, then zeros for a word at each byte
        raw = text.encode() + b"\n" + bytes(8)
    except UnicodeEncodeError:
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    words = np.ndarray((chars.size - 7,), "<u8", raw, strides=(1,))
    ends = np.flatnonzero(chars == 10)
    starts = np.r_[0, ends[:-1] + 1]
    seps = chars == ord(sep[0])
    seps = np.flatnonzero(seps[:-1] & seps[1:] if len(sep) == 2 else seps)
    rows = ends > starts                # a blank line holds no row
    if seps.size != 3 * np.count_nonzero(rows):
        return None
    # each field's first byte and length, a row of fields per column
    seps = seps.reshape(-1, 3).T
    first = np.vstack([starts[rows], seps + len(sep)])
    length = np.vstack([seps, ends[rows]]) - first
    # With three separators to a row in all, a row whose fields all hold a
    # byte holds its own three, two bytes apart at least: a ":::" holds two
    # "::" one byte apart. Blank lines alone go to the row reader.
    if not (length.size and (length > 0).all()):
        return None
    # each timestamp digit by digit, highest place first; int64 holds 18
    last = first[3] + length[3] - 1
    times = np.zeros(length.shape[1], dtype=np.int64)
    for place in range(int(length[3].max()) - 1, -1, -1):
        digits = chars[last - place] - 48
        digits[length[3] <= place] = 0
        if place >= 18 or digits.max() > 9:
            return None
        times *= 10
        times += digits
    # a rating of one ASCII digit is a number; any other takes the row
    # rules' own test, float(), once per distinct field
    if not ((length[2] == 1).all()
            and (chars[first[2]] - 48 <= 9).all()):
        ratings, _ = _distinct_fields(raw, words, first[2], length[2])
        try:
            list(map(float, ratings))
        except ValueError:
            return None
    codes = []
    for k, index in enumerate(indexes):
        ids, numbers = _distinct_fields(raw, words, first[k], length[k])
        codes.append(np.array([index.setdefault(i, len(index)) for i in ids],
                              dtype=np.int64)[numbers])
    return codes[0], codes[1], times


def _distinct_fields(raw, words, first, length):
    """The distinct fields ``raw[first:first + length]`` of a block, in
    order of first appearance and decoded, and each row's number in that
    order. A field is keyed by the ``words`` (the 8 bytes read at each
    offset of ``raw``) from its start on, each masked to the field's
    bytes; with no NUL in ``raw``, only equal fields share a key."""
    keys = [words[first + np.minimum(length, 8 * k)]
            & _BYTE_MASKS[np.clip(length - 8 * k, 0, 8)]
            for k in range(-(-int(length.max()) // 8))]
    # one word sorts fastest unstably; equal keys are side by side anyway
    order = np.lexsort(keys) if len(keys) > 1 else keys[0].argsort()
    new = np.r_[True, np.any([np.diff(k[order]) != 0 for k in keys], axis=0)]
    group = np.empty(order.size, dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    # each field's first row, by key, then by row
    seen = np.minimum.reduceat(order, np.flatnonzero(new))
    by_row = np.argsort(seen)
    seen = seen[by_row]
    return [raw[a:a + n].decode() for a, n in zip(
        first[seen].tolist(), length[seen].tolist())], by_row.argsort()[group]


def _log_rows(lines, lineno, sep, source, indexes):
    """The columns :func:`_log_bytes` gives, read one row at a time from
    a block's lines, the first of which is line ``lineno``; the first line
    that breaks a rule is a :class:`DataError` naming it."""
    user_index, item_index = indexes
    users, items, times = [], [], []
    for lineno, line in enumerate(lines, start=lineno):
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
        users.append(user_index.setdefault(user_raw, len(user_index)))
        items.append(item_index.setdefault(item_raw, len(item_index)))
        times.append(ts)
    return np.array([users, items, times], dtype=np.int64)


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

    Every step is an array pass over all users but the draws: one
    ``rng.choice(pool_size, num_negatives, replace=False)`` per user, in
    user order, which draws what ``rng.choice(pool, ...)`` over the
    explicit pool would (numpy 2.4.6) as positions in that pool. The
    ``j``-th item outside a sorted history ``h`` is ``j + #{i : h[i] - i
    <= j}``, one ``searchsorted`` for all users' positions. A negative
    ``num_negatives`` is a :class:`DataError`.
    """
    if num_negatives < 0:
        raise DataError(f"num_negatives must be >= 0, got {num_negatives}")
    num_items = dataset.num_items
    items, ends = _flatten(dataset.item_arrays())
    times, _ = _flatten(dataset._times)
    lengths = np.diff(ends, prepend=0)
    kept = lengths >= 2
    dropped = int(np.count_nonzero(~kept))
    if dropped:
        log.info("dropped %d users with <2 interactions", dropped)
        rows = np.repeat(kept, lengths)
        items, times, lengths = items[rows], times[rows], lengths[kept]
    if not lengths.size:
        raise DataError("no user has >= 2 interactions; nothing to split")
    user_ids = list(compress(dataset.user_ids, kept.tolist()))
    pools = num_items - lengths
    short = pools < num_negatives
    if short.any():
        user = int(short.argmax())
        raise DataError(
            f"user {user_ids[user]!r} has only {pools[user]} "
            f"non-interacted items; {num_negatives} negatives required")

    # latest interaction wins; ties go to the larger item index
    starts = np.cumsum(lengths) - lengths
    latest = np.repeat(np.maximum.reduceat(times, starts), lengths)
    test_items = np.maximum.reduceat(np.where(times == latest, items, -1),
                                     starts)
    del latest
    rest = items != np.repeat(test_items, lengths)
    cuts = np.cumsum(lengths - 1)
    train = InteractionDataset._checked(
        user_ids, dataset.item_ids, _cut(items[rest], cuts),
        _cut(times[rest], cuts), dataset.raw_interactions)
    del rest, times

    rng = rng_from_seed(seed, "loo-negatives")
    negatives = np.empty((len(user_ids), num_negatives), dtype=np.int64)
    for row, pool in zip(negatives, pools.tolist()):
        row[:] = rng.choice(pool, size=num_negatives, replace=False)
    # each user's sorted history as keys u * num_items + h[i] - i
    keys = np.repeat(np.arange(len(user_ids)) * num_items, lengths)
    keys += items
    keys.sort()
    keys -= np.arange(keys.size)
    keys += np.repeat(starts, lengths)
    negatives += np.searchsorted(
        keys, negatives + np.arange(len(user_ids))[:, None] * num_items,
        side="right")
    negatives -= starts[:, None]
    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=list(negatives))


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
    The .idmap, written last, ends with the split record: the row counts
    of the other three files, which :func:`load_split` checks. A user
    without negatives, or with a negative item index, is a
    :class:`DataError` before any file is written, since its row could
    not be read back.

    The integer files are written as bytes by :func:`_decimal_lines`: the
    .train rows ``_WRITE_ROWS`` at a time, the .test rows at once, and the
    .negatives rows at once as one block padded past each row's end.
    """
    prefix = str(prefix)
    tr = split.train
    users = np.arange(tr.num_users)
    test_items = np.asarray(split.test_items, dtype=np.int64)
    counts = np.fromiter(map(len, split.eval_negatives), np.int64)
    flat = _joined(split.eval_negatives).astype(np.int64, copy=False)
    found = _first_flagged((
        (counts == 0, "has no evaluation negatives; a split needs at least"
                      " one per user to be saved"),
        ((test_items < 0) | _owners(np.cumsum(counts), flat < 0),
         "has a negative item index"),
    ))
    if found:
        raise DataError("user {!r} {}".format(tr.user_ids[found[0]],
                                              found[1]))
    # the rows of negatives as one block, padded with -1
    negatives = np.full((counts.size, counts.max(initial=0)), -1, np.int64)
    negatives[np.arange(negatives.shape[1]) < counts[:, None]] = flat
    del flat
    items, ends = _flatten(tr.item_arrays())
    times, _ = _flatten(tr._times)
    owners = np.repeat(users, np.diff(ends, prepend=0))
    with atomic_write(prefix + ".train", "wb") as f:
        for start in range(0, items.size, _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            f.write(_decimal_lines(owners[block], items[block],
                                   np.ones_like(items[block]), times[block]))
    with atomic_write(prefix + ".test", "wb") as f:
        f.write(_decimal_lines(users, test_items))
    with atomic_write(prefix + ".negatives", "wb") as f:
        f.write(_decimal_lines(users, negatives))
    with atomic_write(prefix + ".idmap") as f:
        for header, ids in (("#users", tr.user_ids), ("#items", tr.item_ids)):
            f.write(header + "\n")
            f.write("".join(map("{}\t{}\n".format, ids, range(len(ids)))))
        f.write(_RECORD_FORMAT.format(items.size, tr.num_users, tr.num_users))


# "0000" to "9999" in ASCII, four bytes to an entry; then the same with
# NUL for each leading zero, and "\0\0\00" for 0; then four NULs
_DIGITS = np.frombuffer("".join(f"{v:04d}" for v in range(10000)).encode(),
                        dtype=np.uint8).reshape(-1, 4)
_DIGITS = np.concatenate([_DIGITS, _DIGITS, np.zeros((1, 4), np.uint8)])
_DIGITS[10000:11000, 0] = _DIGITS[10000:10100, 1] = _DIGITS[10000:10010, 2] = 0
_DIGITS = _DIGITS.view(np.uint32).ravel()


def _decimal_lines(*columns):
    """One line per row of the int64 ``columns``, as ASCII bytes: their
    decimal values, tab-separated; what ``f"{a}\\t{b}\\n"`` gives per
    row, built with array operations. A column is one non-negative value
    per row, or a ``(rows, width)`` block of them in which a negative cell
    is padding that writes nothing, not even its tab.

    A cell is its tab, then its value in groups of four digits from
    ``_DIGITS``: a group with digits above it takes all four, the highest
    group takes NUL for its leading zeros, and a group above the highest
    (or a pad's) four NULs. The NULs then go."""
    blocks = [c if c.ndim > 1 else c[:, None] for c in columns]
    tops = [-(-len(str(int(c.max(initial=0)))) // 4) for c in blocks]
    rows = len(blocks[0])
    lines = np.empty((rows, 1 + sum(c.shape[1] * (1 + 4 * top)
                                    for c, top in zip(blocks, tops))),
                     dtype=np.uint8)
    end = 0
    for values, block, top in zip(columns, blocks, tops):
        start, end = end, end + block.shape[1] * (1 + 4 * top)
        cells = lines[:, start:end].reshape(rows, block.shape[1], 1 + 4 * top)
        cells[..., 0] = ord("\t")
        rest, blank = block, None
        if values.ndim > 1:
            blank = block < 0
            rest = np.where(blank, 0, block)
            cells[blank, 0] = 0
        # lowest group first; the highest has no digits above it
        for g in range(top - 1, -1, -1):
            if g:
                high = rest // 10000
                index = rest - high * 10000
                lead = high == 0
                np.add(index, 10000, out=index, where=lead)
            else:
                index = rest + 10000
            if blank is not None:
                np.add(index, 10000, out=index, where=blank)
            cells[..., 1 + 4 * g:5 + 4 * g] = _DIGITS.take(index).view(
                np.uint8).reshape(*index.shape, 4)
            if g:
                rest, blank = high, lead
    lines[:, 0] = 0
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


# The split record, the last line of a .idmap file: the row counts of
# .train, .test and .negatives. It holds no tab, so no id entry reads as
# one.
_RECORD_FORMAT = "#rows train={} test={} negatives={}\n"
_RECORD = re.compile(r"#rows train=(\d+) test=(\d+) negatives=(\d+)")


def _read_idmap(path):
    """The raw user and item ids of a .idmap file, in dense-id order, and
    its split record as a ``{"train", "test", "negatives"}`` row count."""
    # section header -> {raw id: line number}, in dense-id order
    sections = {"#users": {}, "#items": {}}
    section = record = None
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not_utf8(line):
                raise DataError(f"{path}: line {lineno}: not UTF-8 text")
            if not line:
                continue
            if record is not None:
                raise DataError(f"{path}: line {lineno}: text after the"
                                f" split record")
            if line.startswith("#rows") and "\t" not in line:
                match = _RECORD.fullmatch(line)
                if match is None:
                    raise DataError(f"{path}: line {lineno}: bad split"
                                    f" record {line!r}")
                record = dict(zip(("train", "test", "negatives"),
                                  map(int, match.groups())))
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
    if record is None:
        raise DataError(f"{path}: no split record after the ids: the split"
                        f" is cut short or older than the record;"
                        f" re-run `deepicf split`")
    return users, items, record


def _check_rows(path, rows, listed):
    """A split file's count of rows against the count ``listed`` in its
    split record."""
    if rows != listed:
        raise DataError(f"{path}: {rows} rows, but the split record lists"
                        f" {listed}: the split is partial;"
                        f" re-run `deepicf split`")


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
    with the message that words it. A file whose rows are all sound but
    whose count differs from the split record at the end of ``.idmap`` is
    a :class:`DataError` naming it, as is a ``.idmap`` without the record.
    """
    prefix = str(prefix)
    user_ids, item_ids, record = _read_idmap(prefix + ".idmap")
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
    _check_rows(train_file.path, users.size, record["train"])
    hist_items, hist_times = _split_by_user(users, items, times,
                                            num_users=num_users)
    del users, items, times
    train = InteractionDataset._checked(user_ids, item_ids, hist_items,
                                        hist_times)

    test_items = np.concatenate(_load_user_rows(
        prefix + ".test", record["test"], history, num_users, num_items))
    negatives = _load_user_rows(prefix + ".negatives", record["negatives"],
                                history, num_users, num_items, test_items)
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


def _load_user_rows(path, rows, history, num_users, num_items,
                    test_items=None):
    """``rows`` rows ``user TAB item [TAB item ...]``: exactly one per
    user, every index in range. Without ``test_items`` the file is a
    ``.test`` file, one item per row that lies outside the user's history
    (the sorted ``user * num_items + item`` keys of ``.train``); with them
    a ``.negatives`` file, whose rows hold distinct items outside the
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
    # first, whatever the masks after it give; in a row of items in range,
    # the -1 padding sorts first. The overlap check searches the history
    # for each row's items in ascending order, so its keys ascend with the
    # users.
    owners = np.clip(users, 0, num_users - 1)
    ordered = items if single else np.sort(items, axis=1)
    held = _in_sorted(history, owners[:, None] * num_items + ordered)
    if not single:
        held |= ordered == test_items[owners, None]
    held &= ordered >= 0
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
        rules.append((((ordered[:, 1:] == ordered[:, :-1])
                       & (ordered[:, 1:] >= 0)).any(axis=1),
                      lambda row, line: "duplicate evaluation negatives"))
    rules.append((held.any(axis=1), lambda row, line: (
        f"test item {items[row, 0]} in training history" if single
        else "negatives overlap history or test item:"
        f" {ordered[row][held[row]].tolist()}")))
    file.raise_first(rules)
    missing = np.flatnonzero(np.bincount(users, minlength=num_users) == 0)
    if missing.size:
        raise DataError(f"{path}: no row for user {missing[0]}")
    _check_rows(path, users.size, rows)
    by_user = np.argsort(users)
    return [row[:n] for row, n in zip(items[by_user], counts[by_user].tolist())]


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
            for text in _read_blocks(f):
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
                if self.stop is not None:
                    return

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
