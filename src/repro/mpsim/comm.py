"""Rank-side communicator handle for the event-driven engine.

:class:`Comm` is the object a rank program receives; it exposes an
mpi4py-flavoured point-to-point API.  Sends are immediate method calls;
receives are *operation objects* the program must ``yield`` (a blocking
call cannot be expressed inside a generator any other way):

.. code-block:: python

    def program(comm):
        comm.send(dest=(comm.rank + 1) % comm.size, payload="token")
        msg = yield comm.recv()
        comm.charge(nodes=1)

Algorithms 3.1 and 3.2 exchange only buffered point-to-point
``<request>``/``<resolved>`` messages (Section 3.5), so this is the whole
surface the event engine needs.
"""

from __future__ import annotations

from typing import Any

from repro.mpsim.datatypes import ANY_SOURCE, ANY_TAG, TAG_DEFAULT
from repro.mpsim.runtime import Recv, RecvOrQuiesce

__all__ = ["Comm"]


class Comm:
    """Communicator bound to one rank of a :class:`~repro.mpsim.runtime.Simulator`."""

    def __init__(self, simulator: Any, rank: int) -> None:
        self._sim = simulator
        self.rank = rank
        self.size = simulator.size

    # -- point to point ----------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = TAG_DEFAULT) -> None:
        """Eager buffered send (returns immediately, like ``MPI_Bsend``)."""
        self._sim.post_send(self.rank, dest, payload, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Recv:
        """Blocking-receive operation; use as ``msg = yield comm.recv()``."""
        return Recv(source, tag)

    def recv_or_quiesce(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvOrQuiesce:
        """Receive that returns ``None`` at global quiescence (termination)."""
        return RecvOrQuiesce(source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking test for a deliverable matching message."""
        return self._sim.iprobe(self.rank, source, tag)

    # -- cost accounting ----------------------------------------------------
    def charge(self, nodes: int = 0, work_items: int = 0) -> None:
        """Charge local computation to this rank's virtual clock."""
        self._sim.charge(self.rank, nodes, work_items)

    @property
    def clock(self) -> float:
        """This rank's current virtual time."""
        return self._sim._ranks[self.rank].clock

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comm(rank={self.rank}, size={self.size})"
