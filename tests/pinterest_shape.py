"""A synthetic interaction log shaped like the paper's Pinterest data: many
users with short histories over a catalog of 9,916 items.

At scale 1 the log holds 55,187 users, whose history lengths are
``clip(geometric(1/8) + 19, 20, 500)`` (a mean of about 27; 1,490,397
interactions in all). Each history is drawn without replacement with
Zipf(0.8) probabilities over a shuffled catalog, all from
``numpy.random.default_rng(7)``. A scale below 1 keeps the catalog and
draws that share of the users. Each line reads ``u<n>::i<n>::1::<ts>``,
in user order, with timestamps that rise line by line.

    python tests/pinterest_shape.py OUT [--scale S]

writes the log to OUT, for ``deepicf split --format double_colon``.
"""

import argparse

import numpy as np

USERS, ITEMS = 55_187, 9_916
SEED = 7
ZIPF = 0.8
FIRST_TIMESTAMP = 1_000_000_000


def pinterest_lines(scale=1.0):
    """The log's lines at ``scale``, each ended by a newline."""
    rng = np.random.default_rng(SEED)
    catalog = rng.permutation(ITEMS)
    lengths = np.clip(rng.geometric(1 / 8, size=round(USERS * scale)) + 19,
                      20, 500)
    popularity = 1.0 / np.arange(1, ITEMS + 1) ** ZIPF
    popularity /= popularity.sum()
    timestamp = FIRST_TIMESTAMP
    for user, length in enumerate(lengths.tolist()):
        history = catalog[rng.choice(ITEMS, size=length, replace=False,
                                     p=popularity)]
        for item in history.tolist():
            yield f"u{user}::i{item}::1::{timestamp}\n"
            timestamp += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the log file to write")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="the share of the 55,187 users to draw")
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as f:
        f.writelines(pinterest_lines(args.scale))


if __name__ == "__main__":
    main()
