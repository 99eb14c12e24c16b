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

Algorithm 3.1 exchanges only buffered point-to-point
``<request>``/``<resolved>`` messages (Section 3.5) and receives whichever
arrives first, so this is the whole surface the event engine needs: a
receive takes the rank's next message, from any source, with any tag.
"""

from __future__ import annotations

from typing import Any

from repro.mpsim.datatypes import TAG_DEFAULT
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

    def recv(self) -> Recv:
        """Blocking-receive operation; use as ``msg = yield comm.recv()``."""
        return Recv()

    def recv_or_quiesce(self) -> RecvOrQuiesce:
        """Receive that returns ``None`` at global quiescence (termination)."""
        return RecvOrQuiesce()

    def iprobe(self) -> bool:
        """Non-blocking test for a deliverable message."""
        return self._sim.iprobe(self.rank)

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
