"""Message envelopes and tags used by the simulated runtime.

The event-driven engine moves :class:`Envelope` objects between rank
mailboxes.  Payload size accounting is centralised in :func:`payload_nbytes`
so that the cost model and the traffic statistics agree on what a "byte" is
regardless of whether the payload is a NumPy array, a tuple of ints, or an
arbitrary picklable object.  The superstep engines charge their array
payloads through :func:`charged_nbytes`, which honours a record size the
payload's dtype declares.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "TAG_DEFAULT",
    "Envelope",
    "charged_nbytes",
    "payload_nbytes",
]

TAG_DEFAULT = 0


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a message payload.

    NumPy arrays report their buffer size; everything else is costed at its
    pickled size, matching how mpi4py's lowercase API would transmit it.
    Sizes feed the :class:`~repro.mpsim.costmodel.CostModel` byte term and the
    per-rank traffic counters.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if payload is None:
        return 0
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, tuple) and all(isinstance(x, (int, float, bool)) for x in payload):
        return 8 * len(payload)
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable payloads are costed flat
        return 64


def charged_nbytes(arr: np.ndarray) -> int:
    """Bytes the cost model and the traffic statistics charge for ``arr``.

    A record dtype may declare the size the model charges per record, as
    ``metadata={"charged_bytes": b}``, independent of its encoding: the
    array is then charged ``len(arr) * b``.  Otherwise it is charged its
    buffer size.
    """
    meta = arr.dtype.metadata
    if meta and "charged_bytes" in meta:
        return len(arr) * meta["charged_bytes"]
    return int(arr.nbytes)


@dataclass(order=True)
class Envelope:
    """A message in flight.

    Envelopes sort by ``(deliver_at, seq)`` so each rank's mailbox is a
    plain heap; ``seq`` breaks ties deterministically in send order.
    """

    deliver_at: float
    seq: int
    source: int = field(compare=False)
    dest: int = field(compare=False)
    tag: int = field(compare=False)
    payload: Any = field(compare=False)
    nbytes: int = field(compare=False, default=0)
