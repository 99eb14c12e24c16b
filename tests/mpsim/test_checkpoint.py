"""Tests for BSP checkpoint/restart: crash-recovery is bit-exact."""

import errno
import os
import pickle

import numpy as np
import pytest

from repro.core.parallel_pa import PAx1RankProgram
from repro.core.parallel_pa_general import PAGeneralRankProgram
from repro.core.partitioning import make_partition
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_pa_graph
from repro.mpsim.bsp import BSPEngine
from repro.mpsim.checkpoint import (
    Checkpointer,
    checkpoint_chain,
    load_checkpoint,
    load_latest_valid,
    resume,
    save_sealed,
)
from repro.mpsim.errors import CorruptCheckpointError, MPSimError
from repro.mpsim.faults import FaultPlan
from repro.rng import StreamFactory


def _collect(programs) -> EdgeList:
    edges = EdgeList()
    for prog in programs:
        edges.extend(prog.local_edges())
    return edges


def _make_programs(n, x, P, seed, scheme="rrp"):
    part = make_partition(scheme, n, P)
    factory = StreamFactory(seed)
    if x == 1:
        return [PAx1RankProgram(r, part, 0.5, factory.stream(r)) for r in range(P)]
    return [PAGeneralRankProgram(r, part, x, 0.5, factory.stream(r)) for r in range(P)]


class TestCheckpointing:
    def test_snapshots_written(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "run.ckpt", every=2)
        engine = BSPEngine(4)
        engine.run(_make_programs(2000, 3, 4, seed=0), checkpointer=ckpt)
        assert ckpt.snapshots >= 2
        assert (tmp_path / "run.ckpt").exists()

    def test_checkpoint_loads(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "run.ckpt")
        engine = BSPEngine(4)
        engine.run(_make_programs(1000, 2, 4, seed=1), checkpointer=ckpt)
        data = load_checkpoint(tmp_path / "run.ckpt")
        assert data.size == 4
        assert data.supersteps >= 1

    @pytest.mark.parametrize("x", [1, 4])
    def test_resume_is_bit_exact(self, tmp_path, x):
        """Kill a run mid-flight; the resumed run matches the clean run."""
        n, P, seed = 3000, 6, 7

        clean_programs = _make_programs(n, x, P, seed)
        BSPEngine(P).run(clean_programs)
        clean_edges = _collect(clean_programs)

        # Crash rank 2 during superstep 4 via an injected fault.
        crash_programs = _make_programs(n, x, P, seed)
        ckpt = Checkpointer(tmp_path / "crash.ckpt", every=1)
        with pytest.raises(MPSimError):
            BSPEngine(P).run(
                crash_programs,
                checkpointer=ckpt,
                fault_plan=FaultPlan(0).crash(2, at_superstep=4),
            )

        engine, resumed_programs = resume(tmp_path / "crash.ckpt")
        resumed_edges = _collect(resumed_programs)
        assert np.array_equal(resumed_edges.canonical(), clean_edges.canonical())
        assert validate_pa_graph(resumed_edges, n, x).ok

    def test_resume_continues_counters(self, tmp_path):
        n, P = 2000, 4
        ckpt = Checkpointer(tmp_path / "c.ckpt", every=1)
        with pytest.raises(MPSimError):
            BSPEngine(P).run(
                _make_programs(n, 2, P, seed=3),
                checkpointer=ckpt,
                fault_plan=FaultPlan(0).crash(1, at_superstep=2),
            )
        engine, _ = resume(tmp_path / "c.ckpt")
        assert engine.supersteps > 2
        assert engine.simulated_time > 0

    def test_resume_default_bound_is_checkpoints_own(self, tmp_path):
        """resume() inherits max_supersteps from the checkpoint (not 10k)."""
        n, P = 1000, 4
        ckpt = Checkpointer(tmp_path / "b.ckpt", every=1)
        with pytest.raises(MPSimError, match="max_supersteps"):
            BSPEngine(P, max_supersteps=2).run(
                _make_programs(n, 2, P, seed=3), checkpointer=ckpt
            )
        # the recorded bound (2) is already exhausted: resuming with the
        # default re-raises rather than silently adopting a fresh bound
        with pytest.raises(MPSimError, match="max_supersteps"):
            resume(tmp_path / "b.ckpt")
        # an explicit larger bound completes the run
        engine, _ = resume(tmp_path / "b.ckpt", max_supersteps=10_000)
        assert engine.supersteps > 2

    def test_bad_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        import pickle

        bad.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(MPSimError, match="not a BSP checkpoint"):
            load_checkpoint(bad)

    def test_invalid_every(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "x", every=0)

    def test_checkpoint_overwritten_atomically(self, tmp_path):
        path = tmp_path / "atomic.ckpt"
        ckpt = Checkpointer(path, every=1)
        engine = BSPEngine(4)
        engine.run(_make_programs(1500, 2, 4, seed=5), checkpointer=ckpt)
        # no stray temp files left behind
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert load_checkpoint(path).size == 4


class TestIntegrity:
    def test_truncated_file_raises_corrupt_not_pickle(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ckpt = Checkpointer(path, every=1)
        BSPEngine(4).run(_make_programs(1000, 2, 4, seed=5), checkpointer=ckpt)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_garbage_file_raises_corrupt(self, tmp_path):
        bad = tmp_path / "g.ckpt"
        bad.write_bytes(b"\x00\x01 not a pickle at all")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(bad)

    def test_bitflip_fails_checksum(self, tmp_path):
        path = tmp_path / "f.ckpt"
        ckpt = Checkpointer(path, every=1)
        BSPEngine(4).run(_make_programs(1000, 2, 4, seed=5), checkpointer=ckpt)
        blob = bytearray(path.read_bytes())
        blob[-20] ^= 0xFF  # flip a payload byte, keeping the pickle parseable
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError, match="checksum|unreadable"):
            load_checkpoint(path)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")
        with pytest.raises(FileNotFoundError):
            load_latest_valid(tmp_path / "nope.ckpt")

    @pytest.mark.parametrize("where", ["write", "fsync"])
    def test_full_disk_leaves_no_temp_file(self, tmp_path, monkeypatch, where):
        def no_space(*args, **kwargs):
            if where == "write":
                args[1].write(b"partial")  # the bytes that fit before ENOSPC
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if where == "write":
            monkeypatch.setattr(pickle, "dump", no_space)
        else:
            monkeypatch.setattr(os, "fsync", no_space)
        d = tmp_path / "d"
        with pytest.raises(OSError) as exc:
            save_sealed(d / "MANIFEST", "magic", {"edges": 3})
        assert exc.value.errno == errno.ENOSPC
        assert list(d.glob("*.tmp")) == []
        assert not (d / "MANIFEST").exists()


class TestRotation:
    def test_keep_last_k(self, tmp_path):
        path = tmp_path / "r.ckpt"
        ckpt = Checkpointer(path, every=1, keep=3)
        engine = BSPEngine(4)
        engine.run(_make_programs(2000, 2, 4, seed=1), checkpointer=ckpt)
        assert ckpt.snapshots >= 3
        chain = checkpoint_chain(path)
        assert [p.name for p in chain] == ["r.ckpt", "r.ckpt.1", "r.ckpt.2"]
        # newest first: strictly decreasing superstep counters
        steps = [load_checkpoint(p).supersteps for p in chain]
        assert steps == sorted(steps, reverse=True)
        assert steps[0] - steps[1] == 1

    def test_fallback_to_older_snapshot(self, tmp_path):
        """A corrupted newest snapshot falls back to the previous one."""
        n, P = 2000, 4
        path = tmp_path / "fb.ckpt"
        ckpt = Checkpointer(path, every=1, keep=3)
        clean_programs = _make_programs(n, 2, P, seed=2)
        BSPEngine(P).run(clean_programs, checkpointer=ckpt)
        clean_edges = _collect(clean_programs)

        path.write_bytes(b"garbage")
        data, used = load_latest_valid(path)
        assert used.name == "fb.ckpt.1"

        engine, programs = resume(path)
        assert np.array_equal(_collect(programs).canonical(), clean_edges.canonical())

    def test_all_corrupt_raises_corrupt_checkpoint_error(self, tmp_path):
        path = tmp_path / "ac.ckpt"
        ckpt = Checkpointer(path, every=1, keep=3)
        BSPEngine(4).run(_make_programs(1500, 2, 4, seed=4), checkpointer=ckpt)
        for p in checkpoint_chain(path):
            p.write_bytes(b"junk")
        with pytest.raises(CorruptCheckpointError, match="no valid checkpoint"):
            load_latest_valid(path)
        with pytest.raises(CorruptCheckpointError):
            resume(path)

    def test_min_superstep_suppresses_saves(self, tmp_path):
        path = tmp_path / "ms.ckpt"
        ckpt = Checkpointer(path, every=1, keep=2)
        ckpt.min_superstep = 10_000  # suppress everything
        engine = BSPEngine(4)
        engine.run(_make_programs(800, 2, 4, seed=6), checkpointer=ckpt)
        assert ckpt.snapshots == 0
        assert checkpoint_chain(path) == []
