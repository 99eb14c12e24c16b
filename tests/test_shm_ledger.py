"""Tests for the ``no_leftovers`` shared-memory check (``conftest.ShmLedger``)."""

import multiprocessing as mp
import os
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

SHM_DIR = Path("/dev/shm")
pytestmark = pytest.mark.skipif(not SHM_DIR.is_dir(), reason="POSIX shm not at /dev/shm")


def _leak_segment() -> None:
    """Create a segment and exit without unlinking it; unregistered, so no
    resource tracker unlinks it on this process's behalf either."""
    shm = shared_memory.SharedMemory(create=True, size=64)
    resource_tracker.unregister(shm._name, "shared_memory")
    shm.close()


def test_segment_leaked_by_a_forked_child_fails_the_check(shm_ledger):
    child = mp.get_context("fork").Process(target=_leak_segment)
    child.start()
    child.join()
    assert child.exitcode == 0
    (name,) = shm_ledger.created()
    try:
        assert shm_ledger.leaked() == [name]
    finally:
        os.unlink(SHM_DIR / name)
    assert shm_ledger.leaked() == []


def test_segment_leaked_by_the_test_process_fails_the_check(shm_ledger):
    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        assert shm_ledger.leaked() == [shm.name]
    finally:
        shm.close()
        shm.unlink()
    assert shm_ledger.leaked() == []


def test_segment_of_another_process_is_not_this_tests_leak(shm_ledger):
    """A new ``/dev/shm`` entry no ``SharedMemory`` of this process tree
    created, as a concurrent test run or benchmark would make, passes."""
    foreign = SHM_DIR / f"foreign-{os.getpid()}"
    foreign.touch()
    try:
        assert shm_ledger.created() == set()
        assert shm_ledger.leaked() == []
    finally:
        foreign.unlink()


def test_attaching_records_nothing(shm_ledger):
    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        other = shared_memory.SharedMemory(name=shm.name)
        other.close()
        assert shm_ledger.created() == {shm.name}
    finally:
        shm.close()
        shm.unlink()
