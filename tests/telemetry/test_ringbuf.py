"""Unit and property tests for the shared-memory event ring.

The load-bearing guarantee: a producer NEVER blocks on a full ring — the
oldest unread event is evicted and counted — and under concurrent
multi-process writers no event is silently lost: everything put is either
drained or visible in ``dropped``.
"""

import multiprocessing as mp
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.ringbuf import EventRing


@pytest.fixture
def ring():
    r = EventRing(slots=8, slot_bytes=64)
    yield r
    r.close()


def test_put_drain_round_trip(ring):
    payloads = [bytes([i]) * 3 for i in range(5)]
    assert all(ring.put(p) for p in payloads)
    assert ring.pending == 5
    assert ring.drain() == payloads
    assert ring.pending == 0
    assert ring.dropped == 0


def test_full_ring_drops_oldest_and_counts(ring):
    for i in range(11):  # slots=8 -> 3 evictions
        assert ring.put(bytes([i]))  # eviction is not a failed put
    assert ring.pending == 8
    assert ring.dropped == 3
    assert [b[0] for b in ring.drain()] == list(range(3, 11))


def test_oversize_payload_is_dropped_not_written(ring):
    assert ring.put(b"x" * 65) is False
    assert ring.pending == 0
    assert ring.dropped == 1
    assert ring.put(b"x" * 64)  # exactly slot_bytes fits


def test_drain_max_events_preserves_order(ring):
    for i in range(6):
        ring.put(bytes([i]))
    assert [b[0] for b in ring.drain(max_events=4)] == [0, 1, 2, 3]
    assert [b[0] for b in ring.drain()] == [4, 5]


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        EventRing(slots=0)
    with pytest.raises(ValueError):
        EventRing(slot_bytes=0)


def test_ring_refuses_pickling():
    ring = EventRing(slots=4, slot_bytes=16)
    try:
        with pytest.raises(TypeError):
            pickle.dumps(ring)
    finally:
        ring.close()


def test_close_is_idempotent():
    ring = EventRing(slots=4, slot_bytes=16)
    ring.close()
    ring.close()


@settings(max_examples=25, deadline=None)
@given(
    slots=st.integers(min_value=1, max_value=16),
    puts=st.lists(st.integers(min_value=0, max_value=255), max_size=64),
)
def test_property_drained_plus_dropped_equals_put(slots, puts):
    ring = EventRing(slots=slots, slot_bytes=8)
    try:
        for i in puts:
            assert ring.put(bytes([i]))
        drained = ring.drain()
        assert len(drained) + ring.dropped == len(puts)
        # survivors are exactly the newest `pending` puts, in order
        assert [b[0] for b in drained] == puts[len(puts) - len(drained):]
    finally:
        ring.close()


# ----------------------------------------------------- concurrent producers
def _producer(ring: EventRing, writer: int, count: int) -> None:
    for seq in range(count):
        ring.put(bytes([writer]) + seq.to_bytes(2, "little"))


def test_concurrent_writers_account_for_every_event():
    """N forked producers hammer one small ring; nothing is lost silently:
    drained + dropped == total, every cell decodes, and each writer's
    surviving events keep their order."""
    writers, per_writer = 4, 300
    ring = EventRing(slots=64, slot_bytes=16)
    try:
        ctx = mp.get_context("fork")
        procs = [
            ctx.Process(target=_producer, args=(ring, w, per_writer))
            for w in range(writers)
        ]
        drained: list[bytes] = []
        for p in procs:
            p.start()
        while any(p.is_alive() for p in procs):
            drained.extend(ring.drain())  # drain concurrently with writes
        for p in procs:
            p.join()
            assert p.exitcode == 0
        drained.extend(ring.drain())

        assert len(drained) + ring.dropped == writers * per_writer
        assert all(len(b) == 3 for b in drained)  # no torn cells
        for w in range(writers):
            seqs = [int.from_bytes(b[1:], "little") for b in drained if b[0] == w]
            assert seqs == sorted(seqs)  # per-writer order preserved
    finally:
        ring.close()


def test_worker_events_survive_a_sigkill():
    """What was published before a SIGKILL stays drainable — the property
    the crash-surviving trace merge rests on."""
    import os
    import signal

    ring = EventRing(slots=64, slot_bytes=16)
    try:
        ctx = mp.get_context("fork")

        def victim():
            for i in range(10):
                ring.put(bytes([9, i]))
            os.kill(os.getpid(), signal.SIGKILL)

        p = ctx.Process(target=victim)
        p.start()
        p.join()
        assert p.exitcode == -signal.SIGKILL
        assert [b[1] for b in ring.drain()] == list(range(10))
    finally:
        ring.close()
