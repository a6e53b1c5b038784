"""The catalog-length row merge, kept as the oracle of
``deepicf.model._merge_rows``.

It counts every entry over all ``size`` rows of the table, one
``np.bincount`` for the uses and one per column of the values, and keeps
the rows whose uses are positive. Each bin sums its values in input
order, starting from 0.0, as the merge under test must.
"""

import numpy as np


def merge_rows(entries, size):
    """The rows in ``range(size)`` to which a list of ``(index, values,
    uses)`` entries gives positive uses, ascending, with their values and
    uses summed in order. Values are one per index, or ``(width,
    indices)``, a row per index."""
    uses = sum(np.bincount(index, weights, size)
               for index, _, weights in entries)
    rows = np.flatnonzero(uses > 0)
    sums = sum(np.stack([np.bincount(index, column, size)[rows]
                         for column in np.atleast_2d(values)], axis=1)
               for index, values, _ in entries)
    return rows, sums if np.ndim(entries[0][1]) > 1 else sums[:, 0], \
        uses[rows]
