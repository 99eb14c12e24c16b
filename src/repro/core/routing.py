"""Destination routing shared by the PA rank programs.

Both Algorithm 3.1 and 3.2 end each phase by scattering a batch of protocol
records to their destination ranks.  The grouping is a single stable argsort
plus one split — ``O(m log m)`` on the batch, no per-record Python work —
and lived as an identical private method in both rank programs until it was
hoisted here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["route_by_dest"]


def route_by_dest(out: dict, records: np.ndarray, dests: np.ndarray) -> None:
    """Group ``records`` by destination rank and append chunks to ``out``.

    Parameters
    ----------
    out:
        Outbox mapping ``dest -> list of record arrays`` (typically a
        ``defaultdict(list)``); each destination's chunk is appended.
    records:
        The record batch (any dtype, typically structured).
    dests:
        Destination rank per record, same length as ``records``.

    The stable sort preserves batch order within each destination, which the
    deterministic cross-engine guarantees rely on.  A batch bound for one
    destination (every batch at ``P = 2`` once local records are split off)
    is appended as it is, without the sort and its permuted copies.
    """
    dests = np.asarray(dests)
    if len(records) == 0:
        return
    if (dests == dests[0]).all():
        out[int(dests[0])].append(records)
        return
    order = np.argsort(dests, kind="stable")
    records, dests = records[order], dests[order]
    cut = np.flatnonzero(np.diff(dests)) + 1
    for dest, chunk in zip(
        np.concatenate([dests[:1], dests[cut]]).tolist(),
        np.split(records, cut),
    ):
        out[int(dest)].append(chunk)
