"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import functools
import os
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.mpsim.costmodel import CostModel


@pytest.fixture
def rng():
    """A deterministic generator for tests that need ad-hoc randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def zero_cost():
    """A cost model with all charges zero (pure-logic tests)."""
    return CostModel(alpha=0.0, beta=0.0, per_message=0.0, per_node=0.0, per_work_item=0.0)


SHM_DIR = Path("/dev/shm")


class ShmLedger:
    """The ``/dev/shm`` segments this process tree creates and leaves behind.

    While started, every ``SharedMemory(create=True)`` made by this process
    or a child forked from it appends the segment's name to ``log`` (one
    ``O_APPEND`` line, so concurrent workers do not interleave).
    :meth:`leaked` reports the recorded names that are in ``/dev/shm`` now
    but were not at :meth:`start`; a segment some unrelated process makes
    meanwhile is not this tree's leak.
    """

    def __init__(self, log: Path) -> None:
        self.log = Path(log)
        self._before: set[str] = set()
        self._original = None

    def start(self) -> None:
        self.log.touch()
        self._before = _shm_entries()
        original = self._original = shared_memory.SharedMemory.__init__
        log = str(self.log)

        @functools.wraps(original)
        def recording_init(shm, *args, **kwargs):
            original(shm, *args, **kwargs)
            if kwargs.get("create", args[1] if len(args) > 1 else False):
                with open(log, "a") as fh:
                    fh.write(shm.name + "\n")

        shared_memory.SharedMemory.__init__ = recording_init

    def stop(self) -> None:
        shared_memory.SharedMemory.__init__ = self._original

    def created(self) -> set[str]:
        return set(self.log.read_text().split())

    def leaked(self) -> list[str]:
        return sorted((_shm_entries() - self._before) & self.created())


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


@pytest.fixture
def shm_ledger(tmp_path_factory):
    """A started :class:`ShmLedger` for the test, stopped after it."""
    ledger = ShmLedger(tmp_path_factory.mktemp("shm") / "created")
    ledger.start()
    yield ledger
    ledger.stop()


@pytest.fixture
def no_leftovers(request, shm_ledger):
    """Fail the test if it leaves behind a shared-memory segment that its
    own process tree created (:class:`ShmLedger`), or a ``*.tmp`` file
    under its ``tmp_path`` when it uses one.

    Apply per module with ``pytestmark = pytest.mark.usefixtures("no_leftovers")``.
    """
    # set tmp_path up first so it is still there when this fixture checks it
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    leaked = shm_ledger.leaked()
    assert not leaked, f"shared memory left behind: {leaked}"
    if tmp is not None:
        stray = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*.tmp"))
        assert not stray, f"temp files left behind under tmp_path: {stray}"


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, (int, float, str)):
        return f"{argname}={val}"
    return None
