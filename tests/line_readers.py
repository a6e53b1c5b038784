"""The line readers, kept as the oracle of the split and log readers
in ``deepicf.data``: ``load_split_lines`` of ``deepicf.data.load_split``,
and ``parse_log_lines`` of ``deepicf.data.parse_interactions``.

Each reads its input one line at a time, checking each row's rules in
order as it reads it, and raises a ``DataError`` for the first defective
row; a byte that is not UTF-8 is its line's first defect. The package's
readers must give the same result, or the same error message byte for
byte.
"""

import numpy as np

from deepicf.data import (InteractionDataset, LooSplit, _read_idmap,
                          not_utf8, open_text)
from deepicf.errors import DataError


def parse_log_lines(lines, sep):
    """``deepicf.data.parse_interactions`` one line at a time, with the
    separator ``sep``."""
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
        if not_utf8(line):
            raise DataError(f"{where(lineno)}: not UTF-8 text")
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


def load_split_lines(prefix):
    """``deepicf.data.load_split`` one line at a time."""
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
            if not_utf8(line):
                raise DataError(f"{prefix}.train: line {lineno}: not UTF-8 text")
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

    test_items = np.concatenate(read_user_rows(
        prefix + ".test", seen, num_items))
    negatives = read_user_rows(prefix + ".negatives", seen, num_items,
                                test_items)
    return LooSplit(train=train, test_items=test_items,
                    eval_negatives=negatives)


def read_user_rows(path, histories, num_items, test_items=None):
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
            if not_utf8(line):
                raise DataError(f"{path}: line {lineno}: not UTF-8 text")
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
