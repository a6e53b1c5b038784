"""Seeded generator of the benchmark's inputs.

Writes an interaction log shaped like MovieLens-1M in the raw
``user::item::rating::ts`` format the program parses, and the ``DICF1``
checkpoints the ``rank`` workload scores with. Everything written is a
pure function of the seed.

Log shape:

* 6,040 users and 3,706 items (ML-1M's counts);
* Zipf item popularity over a seed-shuffled catalog;
* history lengths of at least 20, with a log-normal tail (median about
  96, capped at ML-1M's maximum of 2,314), about 1M interactions in all.

Each user's history is drawn from its own random substream, so the
training sample (``--sample N``) holds exactly the same histories as the
full log. The sample takes the users whose history lengths are nearest
to evenly spaced quantiles of the length distribution, which gives it
the same lengths for every seed. Items that no sampled user touched are added as one-line "catalog"
users; the leave-one-out split drops users with fewer than two
interactions, so they only keep the item index space at full size.

Run as a script, it prints the shape statistics of the log it wrote::

    python3 perfbench/gen.py --seed 1 --out .perfbench_work/seed-1
    python3 perfbench/gen.py --seed 1 --out DIR --sample 24
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import NormalDist

import numpy as np

NUM_USERS = 6040
NUM_ITEMS = 3706
RAW_ITEM_ID_RANGE = 3952          # ML-1M item ids lie in 1..3952
MIN_HISTORY = 20
MAX_HISTORY = 2314
TAIL_MEDIAN = 76.0                # median of (length - MIN_HISTORY)
TAIL_SIGMA = 1.14                 # gives a mean length of about 165
ZIPF_EXPONENT = 0.8
FIRST_TIMESTAMP = 956703932       # ML-1M's first timestamp

# Checkpoint parameters for the ranking workload. The scales put the
# pairwise products near 0.3 and the tower and attention weights at He
# initialisation, so about half the ReLUs fire and attention weights
# differ by factors of a few within one history.
EMBED_STD = 0.6
MODEL_K = 16
MODEL_K_PRIME = 8
MODEL_LAYERS = (16, 8, 4)
MODEL_BETA = 0.5
CHECKPOINT_VARIANTS = ("FISM", "DeepICF", "DeepICF_A")


def history_lengths(seed):
    rng = np.random.default_rng([seed, 0])
    tail = rng.lognormal(np.log(TAIL_MEDIAN), TAIL_SIGMA, size=NUM_USERS)
    return np.minimum(MIN_HISTORY + np.round(tail), MAX_HISTORY).astype(np.int64)


def catalog(seed):
    """(raw item id per item, log-popularity per item)."""
    rng = np.random.default_rng([seed, 1])
    raw_ids = np.sort(rng.choice(np.arange(1, RAW_ITEM_ID_RANGE + 1),
                                 size=NUM_ITEMS, replace=False))
    ranks = rng.permutation(NUM_ITEMS) + 1
    return raw_ids, -ZIPF_EXPONENT * np.log(ranks)


def user_history(seed, user, length, log_pop):
    """(items, timestamps, ratings) of one user, drawn without replacement
    in proportion to popularity (Gumbel top-k)."""
    rng = np.random.default_rng([seed, 2, user])
    keys = log_pop + rng.gumbel(size=NUM_ITEMS)
    items = np.argpartition(-keys, length - 1)[:length]
    items = items[rng.permutation(length)]
    start = FIRST_TIMESTAMP + int(rng.integers(0, 10**7))
    times = start + np.cumsum(rng.integers(1, 3600, size=length))
    ratings = rng.integers(1, 6, size=length)
    return items, times[rng.permutation(length)], ratings


def stratified_users(lengths, size):
    """``size`` users whose history lengths are nearest to the length
    distribution's quantiles at (j + 0.5) / size, so that the sample has
    the same lengths for every seed (the lowest user id wins ties)."""
    z = np.array([NormalDist().inv_cdf((j + 0.5) / size) for j in range(size)])
    targets = MIN_HISTORY + np.round(TAIL_MEDIAN * np.exp(TAIL_SIGMA * z))
    return np.sort([int(np.argmin(np.abs(lengths - t))) for t in targets])


def write_log(path, seed, sample=None):
    """Write the log (or its ``sample``-user training sample); returns its
    shape statistics."""
    lengths = history_lengths(seed)
    raw_items, log_pop = catalog(seed)
    users = (np.arange(NUM_USERS) if sample is None
             else stratified_users(lengths, sample))
    counts = np.zeros(NUM_ITEMS, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as f:
        for u in users.tolist():
            items, times, ratings = user_history(seed, u, int(lengths[u]), log_pop)
            counts[items] += 1
            f.write("".join(
                f"{u + 1}::{i}::{r}::{t}\n" for i, r, t in
                zip(raw_items[items].tolist(), ratings.tolist(), times.tolist())))
        for j in np.flatnonzero(counts == 0).tolist():
            f.write(f"catalog{j}::{raw_items[j]}::1::{FIRST_TIMESTAMP}\n")
    hist = lengths[users]
    top = np.sort(counts)[::-1][:max(1, NUM_ITEMS // 100)]
    return {
        "users": int(users.size),
        "items": int(np.count_nonzero(counts)),
        "catalog_users": int(NUM_ITEMS - np.count_nonzero(counts)),
        "interactions": int(hist.sum()),
        "history_quantiles": {q: int(np.quantile(hist, float(q)))
                              for q in ("0", "0.25", "0.5", "0.75", "0.99", "1")},
        "top1pct_item_share": round(float(top.sum() / counts.sum()), 4),
    }


def _he(rng, rows, cols):
    return rng.normal(0.0, np.sqrt(2.0 / cols), size=(rows, cols))


def write_checkpoint(path, seed, variant, num_users, num_items):
    """Write random parameters in the documented ``DICF1`` layout: magic
    line, ``U I variant k k_prime L alpha beta`` header, hidden sizes,
    then little-endian float64 arrays in checkpoint order."""
    rng = np.random.default_rng([seed, 3, CHECKPOINT_VARIANTS.index(variant)])
    k, kp = MODEL_K, MODEL_K_PRIME
    sizes = () if variant == "FISM" else MODEL_LAYERS
    arrays = [rng.normal(0.0, EMBED_STD, size=(num_items, k)),
              rng.normal(0.0, EMBED_STD, size=(num_items, k)),
              rng.normal(0.0, 0.1, size=num_users),
              rng.normal(0.0, 0.1, size=num_items)]
    if sizes:
        arrays.append(rng.normal(0.0, np.sqrt(1.0 / sizes[-1]), size=sizes[-1]))
    else:
        arrays.append(np.ones(k))     # FISM's fixed all-ones output vector
    prev = k
    for d in sizes:
        arrays += [_he(rng, d, prev), np.full(d, 0.1)]
        prev = d
    if variant == "DeepICF_A":
        arrays += [_he(rng, kp, k), np.full(kp, 0.05),
                   rng.normal(0.0, 1.0, size=kp)]
    header = (f"{num_users} {num_items} {variant} {k} {kp} {len(sizes)} "
              f"0.0 {MODEL_BETA!r}\n{' '.join(map(str, sizes))}\n")
    with open(path, "wb") as f:
        f.write(b"DICF1\n" + header.encode("ascii"))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def generate(out_dir, seed, sample=None):
    """Write ``ratings.dat`` (and, for the full log, one checkpoint per
    model variant) under ``out_dir``; returns the shape statistics."""
    os.makedirs(out_dir, exist_ok=True)
    stats = write_log(os.path.join(out_dir, "ratings.dat"), seed, sample)
    if sample is None:
        for variant in CHECKPOINT_VARIANTS:
            write_checkpoint(os.path.join(out_dir, f"{variant}.ckpt"), seed,
                             variant, NUM_USERS, NUM_ITEMS)
    return stats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--sample", type=int, default=None,
                    help="write only this many stratified users")
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.out, args.seed, args.sample)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
