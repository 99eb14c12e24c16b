"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import os
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


@pytest.fixture
def no_leftovers(request):
    """Fail the test if it leaves a new ``/dev/shm`` entry behind, or a
    ``*.tmp`` file under its ``tmp_path`` when it uses one.

    Apply per module with ``pytestmark = pytest.mark.usefixtures("no_leftovers")``.
    """
    shm = Path("/dev/shm")
    # set tmp_path up first so it is still there when this fixture checks it
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    before = set(os.listdir(shm)) if shm.is_dir() else set()
    yield
    if shm.is_dir():
        leaked = sorted(set(os.listdir(shm)) - before)
        assert not leaked, f"shared memory left behind: {leaked}"
    if tmp is not None:
        stray = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*.tmp"))
        assert not stray, f"temp files left behind under tmp_path: {stray}"


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, (int, float, str)):
        return f"{argname}={val}"
    return None
