"""Peer-to-peer superstep exchange fabric for the multiprocessing backend.

The paper's ranks message each other directly; so do the workers of
:mod:`repro.mpsim.mp_backend`.  :class:`P2PFabric` is the shared state that
makes that possible with no parent on the data path.  It is created
*before* the workers fork and inherited by all of them, and provides three
shared facilities.  Its memory is anonymous ``MAP_SHARED`` mappings, like
:class:`repro.core.parallel_pa.ResultRegions`: they have no name, so they
are gone with the last process that maps them and a killed run leaks none.

**Mailbox matrix.**  One mapping holds one fixed-size slot
(:data:`SLOT_BYTES`) per ``(src, dst, parity)`` triple.  In superstep ``s``
rank ``src`` writes, for every ``dst``, a small pickled list of payload
descriptors (produced by the shm payload writer) into slot
``(src, dst, s % 2)``; after the barrier, rank ``dst`` reads column
``(*, dst, s % 2)`` in source order.  Slots are double-buffered by
superstep parity exactly like the payload segments: superstep ``s + 1``
writes the other parity, and parity ``s % 2`` is not rewritten until
superstep ``s + 2`` — by which time every reader of superstep ``s`` has
passed the ``s + 1`` barrier, so a single barrier per superstep is
sufficient.

**Control arrays.**  Parity-indexed per-rank ``done`` flags, sent-record
counters, and virtual step times.  Every rank publishes its triple before
the barrier and reads everyone's after it, so all ranks take the same
termination decision on the same superstep — distributed termination
detection with shared counters instead of a coordinator round.  Two more
per-rank rows record progress: the superstep whose barrier each rank last
reached, and the superstep each rank last entered (its heartbeat,
:meth:`P2PFabric.beat`), which tells the parent where a dead worker died.

**Barrier.**  A ``multiprocessing.Barrier`` (semaphore-backed, so waiting
ranks *block* instead of spinning — essential on oversubscribed hosts where
``P`` exceeds the core count).  A crashing rank aborts the barrier so its
peers fail fast with :class:`~repro.mpsim.errors.MPSimError` instead of
waiting out the timeout.
"""

from __future__ import annotations

import mmap
import pickle
import secrets
import struct
from typing import Any

import numpy as np

from repro.mpsim.errors import MPSimError, RankFailure


__all__ = ["P2PFabric", "MailboxOverflow"]

#: capacity of one ``(src, dst, parity)`` descriptor slot, excluding the
#: length header; fits a few hundred payload descriptors
SLOT_BYTES = 8192

#: bytes reserved at the head of each mailbox slot for the blob length
_HEADER = 8
_LEN = struct.Struct("<q")


class MailboxOverflow(MPSimError):
    """A superstep's descriptor blob outgrew its fixed mailbox slot.

    Descriptors are tiny (a segment name, offset, count, and dtype per
    payload array), so a slot (:data:`SLOT_BYTES`) fits a few hundred arrays
    per destination per superstep; a program that exceeds it should send
    fewer, larger arrays.
    """


class P2PFabric:
    """Shared-memory exchange fabric connecting ``size`` worker ranks.

    Create in the parent before forking; every worker uses the inherited
    object directly.  The parent calls :meth:`close` once after the workers
    are gone.  :attr:`name` is a random token unique to the fabric; the
    backend prefixes its workers' payload-segment names with it.

    Parameters
    ----------
    size:
        Number of ranks.
    timeout:
        Barrier wait timeout in wall seconds; a rank that waits this long
        concludes the world is wedged and raises.
    """

    def __init__(self, size: int, timeout: float = 120.0) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        import multiprocessing as mp

        self.size = size
        self.timeout = timeout
        self._slot = _HEADER + SLOT_BYTES
        self.name = f"repro_{secrets.token_hex(4)}"
        self._mail = mmap.mmap(-1, max(size * size * 2 * self._slot, 1))
        # control block: done flags, sent-record counters, virtual step
        # times — each [2][size], indexed by superstep parity — then two
        # [size] rows: barrier progress (highest superstep whose barrier
        # each rank has *reached*, for attributing a broken barrier to the
        # rank(s) that never arrived) and heartbeats (the superstep each
        # rank last entered, for attributing a dead worker)
        self._ctl = mmap.mmap(-1, 8 * size * 8)
        self._done = np.frombuffer(self._ctl, np.int64, 2 * size, 0).reshape(2, size)
        self._traffic = np.frombuffer(
            self._ctl, np.int64, 2 * size, 2 * size * 8
        ).reshape(2, size)
        self._times = np.frombuffer(
            self._ctl, np.float64, 2 * size, 4 * size * 8
        ).reshape(2, size)
        self._progress = np.frombuffer(self._ctl, np.int64, size, 6 * size * 8)
        self._entered = np.frombuffer(self._ctl, np.int64, size, 7 * size * 8)
        # anonymous mappings start zeroed; only the progress rows start at
        # "no superstep yet"
        self._progress[:] = -1
        self._entered[:] = -1
        self.barrier = mp.get_context("fork").Barrier(size)

    # ------------------------------------------------------------- mailboxes
    def _offset(self, src: int, dst: int, parity: int) -> int:
        return ((src * self.size + dst) * 2 + parity) * self._slot

    def post(self, src: int, superstep: int, meta: dict[int, list[Any]]) -> None:
        """Publish rank ``src``'s outbox descriptors for ``superstep``.

        ``meta`` maps destination rank to a list of payload descriptors.
        Every slot in the row is (re)written — destinations absent from
        ``meta`` get an empty marker — so readers never see stale parity
        data.
        """
        parity = superstep % 2
        buf = self._mail
        for dst in range(self.size):
            if dst == src:
                continue
            off = self._offset(src, dst, parity)
            descs = meta.get(dst)
            if not descs:
                _LEN.pack_into(buf, off, 0)
                continue
            blob = pickle.dumps(descs, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) > SLOT_BYTES:
                raise MailboxOverflow(
                    f"rank {src} -> {dst} descriptor blob is {len(blob)} bytes; "
                    f"mailbox slots hold {SLOT_BYTES} (send fewer, larger arrays)"
                )
            _LEN.pack_into(buf, off, len(blob))
            buf[off + _HEADER : off + _HEADER + len(blob)] = blob

    def collect(self, dst: int, superstep: int) -> list[tuple[int, Any]]:
        """Read rank ``dst``'s inbox descriptors for ``superstep``.

        Returns ``(source, descriptor)`` pairs ordered by source rank then
        send order — the delivery order the in-process engine produces,
        which is what keeps the two engines bit-identical.
        """
        parity = superstep % 2
        buf = self._mail
        inbox: list[tuple[int, Any]] = []
        for src in range(self.size):
            if src == dst:
                continue
            off = self._offset(src, dst, parity)
            (length,) = _LEN.unpack_from(buf, off)
            if length == 0:
                continue
            descs = pickle.loads(buf[off + _HEADER : off + _HEADER + length])
            inbox.extend((src, desc) for desc in descs)
        return inbox

    # ----------------------------------------------------- termination state
    def publish(
        self, rank: int, superstep: int, done: bool, sent_records: int, step_time: float
    ) -> None:
        """Publish ``rank``'s pre-barrier status triple for ``superstep``."""
        parity = superstep % 2
        self._done[parity, rank] = 1 if done else 0
        self._traffic[parity, rank] = sent_records
        self._times[parity, rank] = step_time

    def quiescent(self, superstep: int) -> bool:
        """Post-barrier global termination test for ``superstep``.

        True when every rank reported ``done`` and no rank sent a record —
        the same decision the in-process engine's coordinator takes, computed
        identically by every rank from the same shared counters.
        """
        parity = superstep % 2
        return bool(self._done[parity].all()) and int(self._traffic[parity].sum()) == 0

    def max_step_time(self, superstep: int) -> float:
        """Post-barrier: the superstep's virtual duration (max over ranks)."""
        return float(self._times[superstep % 2].max())

    def traffic(self, superstep: int) -> int:
        """Post-barrier: total records sent world-wide in ``superstep``."""
        return int(self._traffic[superstep % 2].sum())

    # ------------------------------------------------------------ heartbeats
    def beat(self, rank: int, superstep: int) -> None:
        """Record that ``rank`` is alive and entering ``superstep``.

        Lock-free: each rank writes only its own slot and the parent only
        reads, so a torn read costs at most an off-by-one superstep in an
        error message.
        """
        self._entered[rank] = superstep

    def last_superstep(self, rank: int) -> int | None:
        """The last superstep ``rank`` reported entering, or None if never."""
        s = int(self._entered[rank])
        return None if s < 0 else s

    # --------------------------------------------------------------- barrier
    def wait(self, rank: int, superstep: int) -> None:
        """Block until all ranks arrive at ``superstep``'s barrier.

        The caller's arrival is recorded in the shared progress row *before*
        waiting, so a broken barrier can be attributed: the raised
        :class:`~repro.mpsim.errors.RankFailure` names the lowest rank whose
        progress never reached this superstep's barrier — the casualty, not
        the survivor that noticed.  A broken barrier that every rank's
        progress reached counts as passed: the rank woke late from a
        barrier all ranks had arrived at, and the abort came after (a peer
        died in the next superstep), so this cut is whole and the next
        ``wait`` raises and attributes the death.
        """
        import threading

        self._progress[rank] = superstep
        try:
            self.barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            missing = [r for r in range(self.size) if int(self._progress[r]) < superstep]
            if missing:
                raise RankFailure(
                    missing[0],
                    MPSimError(
                        f"rank(s) {missing} never reached the superstep-"
                        f"{superstep} barrier (died or wedged)"
                    ),
                    superstep=superstep,
                )

    def abort(self) -> None:
        """Break the barrier so peer ranks fail fast instead of waiting."""
        try:
            self.barrier.abort()
        except Exception:  # pragma: no cover - barrier already torn down
            pass

    # --------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Unmap the fabric in this process (parent only, workers gone).

        The mappings have no name, so there is nothing to unlink.
        """
        # drop the numpy views first: mmap.close() refuses while exported
        # buffers exist
        self._done = self._traffic = self._times = None
        self._progress = self._entered = None
        self._mail.close()
        self._ctl.close()
