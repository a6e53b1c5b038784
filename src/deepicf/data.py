"""Interaction log parsing, dense-indexed datasets, the leave-one-out
split, and training/evaluation negative sampling.

Datasets are immutable after construction and safe to read from many
evaluators concurrently; parsing and splitting themselves are
single-threaded.
"""

from __future__ import annotations

import collections
import contextlib
import io
import logging
import re
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
        items in range and distinct, timestamps not negative. The first
        user that breaks a rule is reported, with the first rule it
        breaks in that order."""
        num_users, num_items = self.num_users, self.num_items
        items, item_ends = _flatten(self._items)
        times, time_ends = _flatten(self._times)
        # An out-of-range item is clipped into its user's key block, so it
        # can only make a false repeat in a history already reported.
        width = max(num_items, 1)
        keys = np.clip(items, 0, width - 1)
        keys += np.repeat(np.arange(num_users) * width,
                          np.diff(item_ends, prepend=0))
        keys.sort()
        rules = (
            (np.fromiter((a.shape != b.shape for a, b in
                          zip(self._items, self._times)), bool, num_users),
             "items/timestamps length mismatch"),
            (_owners(item_ends, (items < 0) | (items >= num_items)),
             "item index out of range"),
            (_users_in(keys[1:][keys[1:] == keys[:-1]] // width, num_users),
             "duplicate item in history"),
            (_owners(time_ends, times < 0), "negative timestamp"),
        )
        failing = np.logical_or.reduce([bad for bad, _ in rules])
        if failing.any():
            u = int(failing.argmax())
            message = next(m for bad, m in rules if bad[u])
            raise DataError(f"user {u}: {message}")

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
    return _users_in(np.searchsorted(ends, np.flatnonzero(flags),
                                     side="right"), ends.size)


def _users_in(users, num_users):
    """Boolean mask over ``num_users`` users, set where listed in ``users``."""
    mask = np.zeros(num_users, dtype=bool)
    mask[users] = True
    return mask


def _split_by_user(users, *columns, num_users):
    """Rows grouped by user, in row order within a user: for each column,
    one array per user (views into one array)."""
    order = np.argsort(users, kind="stable")
    cuts = np.cumsum(np.bincount(users, minlength=num_users))[:-1]
    return [np.split(c[order], cuts) for c in columns]


# The fast readers below read a whole file, or a bounded chunk of lines,
# at a time with numpy. They raise on every defect the line readers name,
# and on a few inputs that are no defect (an empty ``.train``, a ragged
# ``.negatives``, a ``.train`` rating that is not an integer, a tab in a
# ``::`` log's rating); the public readers then run the line reader from
# the start, which alone words the error.
_FAST_DECLINED = (ValueError, ArithmeticError, TypeError, DataError, Warning)

_LOG_CHUNK_LINES = 1 << 14


def _read_fast(read, *args):
    """``read(*args)``, or None if it raises or warns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read(*args)
    except _FAST_DECLINED as err:
        log.debug("%s declined: %s", read.__name__, err)
        return None


def _require(ok):
    if not ok:
        raise ValueError("fast read check failed")


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

    A seekable file or a list of lines is read in chunks with numpy; a
    one-shot iterator, or an input with a defect, is read line by line.
    """
    try:
        sep = SEPARATORS[fmt]
    except KeyError:
        raise DataError(
            f"unknown format {fmt!r}; expected one of {sorted(SEPARATORS)}")
    restart = _restarter(lines)
    ds = None if restart is None else _read_fast(_parse_log_fast, lines, sep)
    if ds is None:
        ds = _parse_log_lines(lines if restart is None else restart(), sep)
    log.info(
        "parsed %d raw interactions: %d users, %d items, %d after dedup"
        " (%d users with <2 interactions cannot be split)",
        ds.raw_interactions, ds.num_users, ds.num_items, ds.num_interactions,
        sum(a.size < 2 for a in ds.item_arrays()))
    return ds


def _restarter(lines):
    """A function that returns ``lines`` ready to be read again from where
    it starts now, or None if it can be read only once."""
    if iter(lines) is not lines:
        return lambda: lines
    try:
        start = lines.tell() if lines.seekable() else None
    except (AttributeError, OSError, ValueError):
        return None
    if start is None:
        return None

    def restart():
        lines.seek(start)
        return lines
    return restart


def _parse_log_fast(lines, sep):
    """:func:`parse_interactions` in chunks of lines: each chunk is split
    into fields with one ``str.split``, and its ids, ratings and
    timestamps are checked and coded a column at a time."""
    user_index, item_index = {}, {}
    users, items, times = [], [], []
    it = iter(lines)
    while chunk := list(islice(it, _LOG_CHUNK_LINES)):
        rows = list(filter(None, map(str.rstrip, chunk, repeat("\r\n"))))
        del chunk
        n = len(rows)
        if not n:
            continue
        # Rows are joined by a NUL field. With no other tab or NUL in the
        # chunk, every fifth field is a NUL only if each row has four.
        text = "\t\0\t".join(rows)
        del rows
        _require(text.count("\0") == n - 1)
        if sep != "\t":
            _require(text.count("\t") == 2 * (n - 1))
            text = text.replace(sep, "\t")
        fields = text.split("\t")
        del text
        _require(len(fields) == 5 * n - 1
                 and fields[4::5].count("\0") == n - 1)
        user_raw, item_raw = fields[0::5], fields[1::5]
        _require("" not in user_raw and "" not in item_raw)
        # float() and int() are the line reader's own tests of a field
        collections.deque(map(float, fields[2::5]), maxlen=0)
        ts = np.fromiter(map(int, fields[3::5]), np.int64, n)
        del fields
        _require((ts >= 0).all())
        times.append(ts)
        users.append(_codes(user_raw, user_index))
        items.append(_codes(item_raw, item_index))
    _require(users)

    # Each array is dropped once used, which keeps the peak memory below
    # the line reader's.
    raw = sum(map(len, users))
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
    return InteractionDataset(list(user_index), list(item_index), hist_items,
                              hist_times, raw_interactions=raw)


def _codes(raw_ids, index):
    """Dense codes of ``raw_ids``; ids not yet in ``index`` are added to
    it in order of first appearance."""
    for raw_id in dict.fromkeys(raw_ids):
        index.setdefault(raw_id, len(index))
    return np.fromiter(map(index.__getitem__, raw_ids), np.int64,
                       len(raw_ids))


def _parse_log_lines(lines, sep):
    """:func:`parse_interactions` one line at a time; the one reader that
    words a defect of the log."""
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
        if ts >= 2 ** 63:
            raise DataError(f"{where(lineno)}: timestamp {ts} outside"
                            f" [0, 2**63)")
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
    return InteractionDataset(list(histories), list(item_index),
                              [list(h) for h in histories.values()],
                              [list(h.values()) for h in histories.values()],
                              raw_interactions=raw)


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


_WRITE_ROWS = 1 << 16


def save_split(split, prefix):
    """Write the four split files next to ``prefix``.

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
    with open(prefix + ".train", "w", encoding="utf-8") as f:
        for start in range(0, items.size, _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            f.write(_decimal_lines(owners[block], items[block],
                                   np.ones_like(items[block]), times[block]))
    users = range(tr.num_users)
    with open(prefix + ".test", "w", encoding="utf-8") as f:
        f.write("".join(map("{}\t{}\n".format, users, np.asarray(
            split.test_items, dtype=np.int64).tolist())))
    negatives = ("\t".join(map(str, np.asarray(row, dtype=np.int64).tolist()))
                 for row in split.eval_negatives)
    with open(prefix + ".negatives", "w", encoding="utf-8") as f:
        f.write("".join(map("{}\t{}\n".format, users, negatives)))
    with open(prefix + ".idmap", "w", encoding="utf-8") as f:
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
    test item) is a :class:`DataError` naming the file and line. Files
    are read in the order ``.idmap``, ``.train``, ``.test``,
    ``.negatives``, and a file's first defect is the one reported.
    Well-formed files are read with numpy, a block of lines at a time.
    """
    prefix = str(prefix)
    split = _read_fast(_load_split_fast, prefix)
    return _load_split_lines(prefix) if split is None else split


# Characters of a split file read at a time. A whole ML-1M ``.train``
# table (32 MB) sits just under glibc's ceiling for its moving mmap
# threshold: freeing it raised the threshold to its size, after which the
# freed arrays of later set-ups stayed on the heap or not by chance, and
# peak RSS differed by some 30 MB from one process to the next.
_READ_CHARS = 1 << 21


def _int_blocks(path):
    """The rows of tab-separated integers in ``path``, as one int64 array
    per block of about _READ_CHARS characters of whole lines (numpy's C
    reader: it raises on a ragged or non-integer row, and warns on a
    block without rows)."""
    with open(path, encoding="utf-8") as f:
        while text := f.read(_READ_CHARS):
            text += f.readline()
            yield np.loadtxt(io.StringIO(text), dtype=np.int64,
                             delimiter="\t", comments=None, ndmin=2)


def _read_int_table(path):
    """The rows of tab-separated integers in ``path`` as one int64 array."""
    return np.concatenate(list(_int_blocks(path)))


def _load_split_fast(prefix):
    """:func:`load_split` with every check made as an array operation."""
    user_ids, item_ids = _read_idmap(prefix + ".idmap")
    num_users, num_items = len(user_ids), len(item_ids)

    columns = ([], [], [])
    for block in _int_blocks(prefix + ".train"):
        _require(block.shape[1] == 4)
        for column, j in zip(columns, (0, 1, 3)):
            column.append(block[:, j].copy())
    users, items, times = map(np.concatenate, columns)
    del columns, block
    # A user index out of range makes bincount raise or give too many
    # histories; the constructor checks the histories' count and items,
    # and that no timestamp is negative.
    hist_items, hist_times = _split_by_user(users, items, times,
                                            num_users=num_users)
    del times
    train = InteractionDataset(user_ids, item_ids, hist_items, hist_times)
    history = users * num_items
    history += items
    history.sort()
    del users, items

    test_items = _one_row_per_user(prefix + ".test", num_users, num_items)
    _require(test_items.shape[1] == 1)
    negatives = _one_row_per_user(prefix + ".negatives", num_users, num_items)
    ordered = np.sort(negatives, axis=1)
    _require((ordered[:, 1:] != ordered[:, :-1]).all())
    _require((negatives != test_items).all())
    user_keys = np.arange(num_users)[:, None] * num_items
    _require(not _in_sorted(history, user_keys + test_items).any())
    _require(not _in_sorted(history, user_keys + negatives).any())
    return LooSplit(train=train, test_items=test_items[:, 0],
                    eval_negatives=list(negatives))


def _one_row_per_user(path, num_users, num_items):
    """The item columns of ``path``, one row per user in user order: each
    user listed exactly once, every item in range."""
    table = _read_int_table(path)
    _require(table.shape == (num_users, table.shape[1]) and table.shape[1] > 1)
    users, items = table[:, 0], table[:, 1:]
    _require(((users >= 0) & (users < num_users)).all())
    _require((np.bincount(users, minlength=num_users) == 1).all())
    _require(((items >= 0) & (items < num_items)).all())
    rows = np.empty_like(items)
    rows[users] = items
    return rows


def _in_sorted(sorted_keys, keys):
    """Where ``keys`` are members of the non-empty sorted ``sorted_keys``."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys


def _load_split_lines(prefix):
    """:func:`load_split` one line at a time; the one reader that words a
    defect of the split files."""
    user_ids, item_ids = _read_idmap(prefix + ".idmap")
    num_users, num_items = len(user_ids), len(item_ids)

    items_per_user = [[] for _ in range(num_users)]
    times_per_user = [[] for _ in range(num_users)]
    seen = [set() for _ in range(num_users)]
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
            if i in seen[u]:
                raise DataError(f"{prefix}.train: line {lineno}: user {u}"
                                f" lists an item a second time")
            seen[u].add(i)
            items_per_user[u].append(i)
            times_per_user[u].append(ts)

    train = InteractionDataset(user_ids, item_ids, items_per_user,
                               times_per_user)

    test_items = np.concatenate(_read_user_rows(
        prefix + ".test", seen, num_items))
    negatives = _read_user_rows(prefix + ".negatives", seen, num_items,
                                test_items)
    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=negatives)


def _read_user_rows(path, histories, num_items, test_items=None):
    """Rows ``user TAB item [TAB item ...]``: exactly one per user, every
    index in range. Without ``test_items`` the file is a ``.test`` file,
    one item per row that lies outside the user's ``histories`` entry;
    with them a ``.negatives`` file, whose rows hold distinct items
    outside the history and the user's test item. Each row is checked as
    it is read. Returns the per-user item arrays."""
    single = test_items is None
    num_users = len(histories)
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
            if single and items[0] in histories[user]:
                raise DataError(f"{path}: line {lineno}: test item {items[0]}"
                                f" in training history")
            if not single:
                if len(set(items)) != len(items):
                    raise DataError(f"{path}: line {lineno}: duplicate"
                                    f" evaluation negatives")
                bad = set(histories[user]).union(
                    [int(test_items[user])]).intersection(items)
                if bad:
                    raise DataError(f"{path}: line {lineno}: negatives overlap"
                                    f" history or test item: {sorted(bad)}")
            rows[user] = np.asarray(items, dtype=np.int64)
            lines[user] = lineno
    missing = [u for u, row in enumerate(rows) if row is None]
    if missing:
        raise DataError(f"{path}: no row for user {missing[0]}")
    return rows
