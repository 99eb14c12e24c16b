"""Unit tests for the exchange fabric's payload files, heartbeat row and
barrier.

The mp backend's workers beat the fabric at the top of every superstep;
when one dies, the parent reads the row to attribute the death to the
superstep the rank last entered.  A broken barrier is attributed from the
barrier-progress row instead.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.mpsim import p2p
from repro.mpsim.errors import RankFailure
from repro.mpsim.p2p import P2PFabric


@pytest.fixture
def fabric():
    f = P2PFabric(3)
    yield f
    f.close()


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        P2PFabric(0)
    with pytest.raises(ValueError):
        P2PFabric(-3)


def test_never_beaten_rank_reports_none(fabric):
    assert [fabric.last_superstep(r) for r in range(3)] == [None, None, None]


def test_beat_records_superstep_per_rank(fabric):
    fabric.beat(0, 5)
    fabric.beat(2, 9)
    assert [fabric.last_superstep(r) for r in range(3)] == [5, None, 9]


def test_last_beat_wins(fabric):
    for superstep in (1, 2, 7):
        fabric.beat(0, superstep)
    assert fabric.last_superstep(0) == 7


def test_superstep_zero_counts_as_beaten(fabric):
    fabric.beat(1, 0)
    assert fabric.last_superstep(1) == 0


def test_beats_are_not_barrier_progress(fabric):
    # the two rows answer different questions: where a rank died, and
    # which ranks reached a barrier
    fabric.beat(0, 4)
    assert int(fabric._progress[0]) == -1


def _child_beats(fabric: P2PFabric, rank: int, superstep: int) -> None:
    fabric.beat(rank, superstep)


def test_beats_cross_process_via_fork_inheritance(fabric):
    # the fabric is created pre-fork and inherited, exactly as the mp
    # backend uses it; the parent must observe the child's beat
    proc = mp.get_context("fork").Process(target=_child_beats, args=(fabric, 1, 42))
    proc.start()
    proc.join(timeout=10)
    assert proc.exitcode == 0
    assert fabric.last_superstep(1) == 42
    assert fabric.last_superstep(0) is None


def test_broken_barrier_every_rank_reached_counts_as_passed():
    # rank 0 wakes late from barrier 3, which rank 1 also reached; rank 1
    # then died in superstep 4 and the parent aborted the barrier.  Cut 3
    # is whole, so rank 0 goes on, and its next barrier names rank 1.
    fabric = P2PFabric(2)
    try:
        fabric._progress[1] = 3
        fabric.abort()
        fabric.wait(0, 3)
        with pytest.raises(RankFailure) as err:
            fabric.wait(0, 4)
        assert (err.value.rank, err.value.superstep) == (1, 4)
    finally:
        fabric.close()


def test_broken_barrier_a_rank_never_reached_names_it():
    fabric = P2PFabric(2)
    try:
        fabric._progress[1] = 2
        fabric.abort()
        with pytest.raises(RankFailure) as err:
            fabric.wait(0, 3)
        assert (err.value.rank, err.value.superstep) == (1, 3)
    finally:
        fabric.close()


def test_send_writes_every_byte_past_short_and_chunked_writes(monkeypatch):
    """An outbox of more arrays than one ``pwritev`` takes, written by a
    ``pwritev`` that stops halfway through its last buffer, still arrives
    whole and in send order."""
    real = os.pwritev
    calls = []

    def short(fd, bufs, offset):
        calls.append(len(bufs))
        last = bufs[-1][: (len(bufs[-1]) + 1) // 2]
        return real(fd, [*bufs[:-1], last], offset)

    monkeypatch.setattr(os, "pwritev", short)
    fabric = P2PFabric(4)
    try:
        outbox = {d: [np.arange(i, i + 3) for i in range(400)] for d in (1, 2, 3)}
        fabric.send(0, 1, outbox)
        assert max(calls) == p2p._IOV_MAX
        for d in (1, 2, 3):
            got = fabric.receive(d, 1)
            assert [src for src, _ in got] == [0] * 400
            assert [arr.tolist() for _, arr in got] == [a.tolist() for a in outbox[d]]
    finally:
        fabric.close()
