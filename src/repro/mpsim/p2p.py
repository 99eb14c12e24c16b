"""Peer-to-peer superstep exchange fabric for the multiprocessing backend.

The paper's ranks message each other directly; so do the workers of
:mod:`repro.mpsim.mp_backend`.  :class:`P2PFabric` is the shared state that
makes that possible with no parent on the data path.  It is created
*before* the workers fork and inherited by all of them, and provides four
shared facilities.  None of it has a name: the mailbox and control block
are anonymous ``MAP_SHARED`` mappings, like
:class:`repro.core.parallel_pa.ResultRegions`, and the payload files are
memfds (``os.memfd_create``, so the backend is Linux-only).  The kernel
frees each one with the last process that holds it, so a killed run, its
coordinator included, leaks none.

**Payload files.**  Two memfds per rank, one per superstep parity.  In
superstep ``s`` rank ``src`` writes its outbox arrays back to back into
file ``(src, s % 2)`` with ``pwritev`` (:meth:`P2PFabric.send`); after the
barrier each receiver copies its records out with ``preadv`` into arrays
of its own (:meth:`P2PFabric.receive`), so nothing is mapped.  Once the
barrier of ``s + 1`` passes, every reader has copied superstep ``s``'s
records, and the writer truncates that file to zero bytes
(:meth:`P2PFabric.release`), which frees its pages.

**Mailbox matrix.**  One mapping holds one fixed-size slot
(:data:`SLOT_BYTES`) per ``(src, dst, parity)`` triple.  In superstep ``s``
rank ``src`` writes, for every ``dst``, a small pickled list of payload
descriptors ``(offset, count, dtype)`` into slot ``(src, dst, s % 2)``;
the source rank and the parity name the payload file.  After the barrier,
rank ``dst`` reads column ``(*, dst, s % 2)`` in source order.  Slots are
double-buffered by superstep parity exactly like the payload files:
superstep ``s + 1`` writes the other parity, and parity ``s % 2`` is not
rewritten until superstep ``s + 2`` — by which time every reader of
superstep ``s`` has passed the ``s + 1`` barrier, so a single barrier per
superstep is sufficient.

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
import os
import pickle
import struct

import numpy as np

from repro.mpsim.errors import MPSimError, RankFailure


__all__ = ["P2PFabric", "MailboxOverflow"]

#: capacity of one ``(src, dst, parity)`` descriptor slot, excluding the
#: length header; fits a few hundred payload descriptors
SLOT_BYTES = 8192

#: bytes reserved at the head of each mailbox slot for the blob length
_HEADER = 8
_LEN = struct.Struct("<q")

#: most arrays one ``pwritev`` call takes (the kernel's ``IOV_MAX``)
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class MailboxOverflow(MPSimError):
    """A superstep's descriptor blob outgrew its fixed mailbox slot.

    Descriptors are tiny (an offset, count, and dtype per payload array),
    so a slot (:data:`SLOT_BYTES`) fits a few hundred arrays per
    destination per superstep; a program that exceeds it should send
    fewer, larger arrays.
    """


class P2PFabric:
    """Shared-memory exchange fabric connecting ``size`` worker ranks.

    Create in the parent before forking; every worker uses the inherited
    object directly.  The parent calls :meth:`close` once after the workers
    are gone.

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
        # payload files, [rank][parity]
        self._payload = [
            tuple(os.memfd_create(f"repro-payload-{r}-{parity}") for parity in (0, 1))
            for r in range(size)
        ]
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

    # ------------------------------------------------------------- exchange
    def _offset(self, src: int, dst: int, parity: int) -> int:
        return ((src * self.size + dst) * 2 + parity) * self._slot

    def send(self, src: int, superstep: int, outbox: dict[int, list[np.ndarray]]) -> None:
        """Publish rank ``src``'s ``outbox`` for ``superstep``.

        ``outbox`` maps destination rank to non-empty one-dimensional arrays.
        Their bytes go back to back into ``src``'s payload file of the
        superstep's parity, and one ``(offset, count, dtype)`` descriptor
        per array into the slot ``(src, dst, parity)``.  Every slot in the
        row is (re)written — destinations absent from ``outbox`` get an
        empty marker — so readers never see stale parity data.
        """
        parity = superstep % 2
        buf = self._mail
        arrays: list[np.ndarray] = []
        end = 0
        for dst in range(self.size):
            if dst == src:
                continue
            off = self._offset(src, dst, parity)
            arrs = outbox.get(dst)
            if not arrs:
                _LEN.pack_into(buf, off, 0)
                continue
            descs = []
            for arr in arrs:
                descs.append((end, len(arr), arr.dtype))
                end += arr.nbytes
            arrays += arrs
            blob = pickle.dumps(descs, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) > SLOT_BYTES:
                raise MailboxOverflow(
                    f"rank {src} -> {dst} descriptor blob is {len(blob)} bytes; "
                    f"mailbox slots hold {SLOT_BYTES} (send fewer, larger arrays)"
                )
            _LEN.pack_into(buf, off, len(blob))
            buf[off + _HEADER : off + _HEADER + len(blob)] = blob
        _pwrite_all(self._payload[src][parity], arrays)

    def receive(self, dst: int, superstep: int) -> list[tuple[int, np.ndarray]]:
        """Copy rank ``dst``'s inbox for ``superstep`` out of the senders'
        payload files; call after the superstep's barrier.

        Returns ``(source, array)`` pairs ordered by source rank then send
        order — the delivery order the in-process engine produces, which is
        what keeps the two engines bit-identical.  Each array is this
        process's own: the file is reused two supersteps later.
        """
        parity = superstep % 2
        buf = self._mail
        inbox: list[tuple[int, np.ndarray]] = []
        for src in range(self.size):
            if src == dst:
                continue
            off = self._offset(src, dst, parity)
            (length,) = _LEN.unpack_from(buf, off)
            if length == 0:
                continue
            fd = self._payload[src][parity]
            descs = pickle.loads(buf[off + _HEADER : off + _HEADER + length])
            for offset, count, dtype in descs:
                arr = np.empty(count, dtype)
                _pread_all(fd, arr, offset)
                inbox.append((src, arr))
        return inbox

    def release(self, src: int, superstep: int) -> None:
        """Free what rank ``src`` wrote in ``superstep``; call once the
        barrier of superstep ``superstep + 1`` has passed, when every reader
        has copied it.  Truncating the file frees its pages."""
        os.ftruncate(self._payload[src][superstep % 2], 0)

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
        """Unmap the fabric and close the payload files in this process
        (parent only, workers gone).

        Nothing has a name, so there is nothing to unlink.
        """
        # drop the numpy views first: mmap.close() refuses while exported
        # buffers exist
        self._done = self._traffic = self._times = None
        self._progress = self._entered = None
        self._mail.close()
        self._ctl.close()
        for fds in self._payload:
            for fd in fds:
                os.close(fd)
        self._payload = []


def _pwrite_all(fd: int, arrays: list[np.ndarray]) -> None:
    """Write ``arrays`` back to back from offset 0 of ``fd``.

    ``pwritev`` takes at most :data:`_IOV_MAX` buffers and may write fewer
    bytes than asked (Linux moves at most ~2 GiB a call), so this loops.
    """
    bufs = [np.ascontiguousarray(arr).view(np.uint8) for arr in arrays]
    i = offset = 0
    while i < len(bufs):
        n = os.pwritev(fd, bufs[i : i + _IOV_MAX], offset)
        offset += n
        while i < len(bufs) and n >= len(bufs[i]):
            n -= len(bufs[i])
            i += 1
        if n:
            bufs[i] = bufs[i][n:]


def _pread_all(fd: int, arr: np.ndarray, offset: int) -> None:
    """Fill ``arr`` with the bytes of ``fd`` from ``offset`` on."""
    buf = arr.view(np.uint8)
    got = 0
    while got < len(buf):
        n = os.preadv(fd, [buf[got:]], offset + got)
        if n == 0:
            raise MPSimError(f"payload file ends {len(buf) - got} bytes short")
        got += n
