import io
import os
from pathlib import Path

import numpy as np
import pytest

from deepicf.data import InteractionDataset, parse_interactions


def synthetic_lines(num_users=30, num_items=300, min_len=5, max_len=12,
                    seed=7, sep="\t"):
    """Random interaction log lines with per-user increasing timestamps."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(num_users):
        size = int(rng.integers(min_len, max_len))
        items = rng.choice(num_items, size=size, replace=False)
        for t, i in enumerate(items):
            rating = int(rng.integers(1, 6))
            lines.append(f"u{u}{sep}i{i}{sep}{rating}{sep}{1000 + t}")
    return lines


def synthetic_dataset(**kwargs):
    return parse_interactions(io.StringIO("\n".join(synthetic_lines(**kwargs))),
                              fmt="tab")


def make_dataset(histories, num_items=None):
    """Dataset straight from dense-index histories: lists of (item, ts)."""
    max_item = max((i for h in histories for i, _ in h), default=-1)
    num_items = (max_item + 1) if num_items is None else num_items
    return InteractionDataset(
        user_ids=[f"u{u}" for u in range(len(histories))],
        item_ids=[f"i{i}" for i in range(num_items)],
        items_per_user=[[i for i, _ in h] for h in histories],
        times_per_user=[[t for _, t in h] for h in histories])


def check_split(split):
    """Assert the invariants of a leave-one-out split, recomputed from
    Python sets: one in-range test item and one list of in-range negatives
    per user, the test item outside the user's history, and the negatives
    distinct and outside both the history and the test item."""
    train = split.train
    assert split.test_items.shape == (train.num_users,)
    assert len(split.eval_negatives) == train.num_users
    catalog = set(range(train.num_items))
    for u in range(train.num_users):
        history = set(train.history_items(u).tolist())
        test_item = int(split.test_items[u])
        negatives = split.eval_negatives[u].tolist()
        assert test_item in catalog and test_item not in history
        assert set(negatives) <= catalog
        assert len(set(negatives)) == len(negatives)
        assert not (history | {test_item}) & set(negatives)


def save_split_rows(split, prefix):
    """Reference writer for ``data.save_split``: the four split files
    written one row at a time with f-strings."""
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
        f.write(f"#rows train={tr.num_interactions} test={tr.num_users}"
                f" negatives={tr.num_users}\n")


def ml1m_ratings_path():
    """Path to the MovieLens-1M ratings file, if the user supplied one."""
    candidates = [os.environ.get("ML1M_RATINGS")]
    root = Path(__file__).resolve().parent.parent
    candidates += [root / "data" / "ml-1m" / "ratings.dat",
                   root / "data" / "ratings.dat"]
    for cand in candidates:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None


@pytest.fixture(scope="session")
def small_split():
    """A split shared by tests that only read it."""
    from deepicf.data import leave_one_out_split
    return leave_one_out_split(synthetic_dataset(), seed=3)
