"""First-wins duplicate arbitration for Algorithm 3.2.

A batch of candidate attachments ``(row, value)`` may name the same pair more
than once: two slots of one node drawing the same direct target, or two copy
chains that end at the same node (Lines 6-10 and 26-29).  The first record in
batch order keeps the pair; every later one loses and redraws.  Both the
rank program and the vectorised sequential copy model arbitrate this way.

The pair packs into one ``int64`` key, ``row * n + value``, and a stable
sort of that key orders records by ``(row, value, batch position)``: the
order of a three-key ``np.lexsort`` at the cost of a one-key ``argsort``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_KEY_N", "first_wins"]

#: the largest ``n`` whose keys ``row * n + value`` (``row, value < n``) fit
#: in ``int64``: ``n * n - 1 <= 2**63 - 1``
MAX_KEY_N = math.isqrt(2**63)


def first_wins(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Mask of the first record of each ``(row, value)`` pair, in batch order.

    ``rows`` and ``values`` are equal-length integer arrays with entries in
    ``[0, n)``.  Raises :class:`ValueError` when ``n`` exceeds
    :data:`MAX_KEY_N`, where the packed key would wrap.

    Examples
    --------
    >>> first_wins(np.array([0, 1, 0, 0]), np.array([5, 5, 5, 2]), 10).tolist()
    [True, True, False, True]
    """
    if n > MAX_KEY_N:
        raise ValueError(
            f"n={n} exceeds {MAX_KEY_N}: the (row, value) key would overflow int64"
        )
    key = np.asarray(rows, dtype=np.int64) * n + np.asarray(values, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = skey[1:] != skey[:-1]
    keep = np.zeros(len(key), dtype=bool)
    keep[order[first]] = True
    return keep
