"""Tests for out-of-core (spill-to-disk) edge storage.

Covers the :mod:`repro.core.spill` containers in isolation (the adopted
read-only edge list, sealed rank regions and their verification on
adoption), commfree mp-worker deaths, and the property the
whole layer is built on: a spilled generation is *bit-identical* to the in-RAM
one, on every engine, partition scheme and rank count, even with a
pathologically small budget that shrinks every verification read.
"""

from __future__ import annotations

import errno
import json
import multiprocessing as mp
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.commfree as commfree_mod
from repro.core.commfree import commfree_edge_counts, commfree_edge_slice, commfree_mp
from repro.core.generator import generate
from repro.core.partitioning import make_partition
from repro.core.spill import (
    EdgeShardWriter,
    SpillEdgeList,
    assemble_shards,
    edges_digest,
    iter_edge_blocks,
    load_edge_manifest,
    prepare_regions,
    rank_edge_counts,
    rank_shard_dir,
    write_edge_shards,
)
from repro.graph.edgelist import EdgeList
from repro.mpsim.errors import CorruptCheckpointError, RankFailure
from repro.mpsim.faults import FaultPlan

pytestmark = pytest.mark.usefixtures("no_leftovers")

#: small enough to force many read blocks on a few thousand edges
TINY = 1 << 10

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def sample_arrays(rng):
    u = rng.integers(0, 5_000, 4_000).astype(np.int64)
    v = rng.integers(0, 5_000, 4_000).astype(np.int64)
    return u, v


def adopted(directory, u, v, budget_bytes=TINY) -> SpillEdgeList:
    """Write ``u``/``v`` as the two column files and adopt them."""
    directory.mkdir(parents=True, exist_ok=True)
    np.asarray(u, dtype="<i8").tofile(directory / "u.i64")
    np.asarray(v, dtype="<i8").tofile(directory / "v.i64")
    max_node = int(max(np.max(u), np.max(v))) if len(u) else -1
    return SpillEdgeList.adopt(directory, max_node, budget_bytes=budget_bytes)


class TestSpillEdgeList:
    def test_empty(self, tmp_path):
        el = adopted(tmp_path, [], [])
        assert len(el) == 0
        assert el.num_nodes == 0
        assert el.sources.size == 0
        assert el == EdgeList()

    def test_matches_in_ram_edgelist(self, tmp_path, sample_arrays):
        u, v = sample_arrays
        ram = EdgeList.from_arrays(u, v)
        spill = adopted(tmp_path, u, v)
        assert spill == ram
        assert spill.num_nodes == ram.num_nodes
        assert list(spill) == list(ram)  # iterates in budget-sized blocks
        assert np.array_equal(spill.as_array(), ram.as_array())
        assert np.array_equal(spill.canonical(), ram.canonical())

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="budget_bytes"):
            adopted(tmp_path, [1], [0], budget_bytes=0)

    def test_unhashable(self, tmp_path):
        with pytest.raises(TypeError):
            hash(adopted(tmp_path, [1], [0]))


class TestEdgeBlocksAndDigest:
    def test_iter_edge_blocks_covers_everything(self, sample_arrays, tmp_path):
        u, v = sample_arrays
        el = adopted(tmp_path, u, v)
        got_u = np.concatenate([bu for bu, _ in iter_edge_blocks(el, 123)])
        assert np.array_equal(got_u, u)

    def test_bad_block_size(self):
        with pytest.raises(ValueError, match="block_edges"):
            list(iter_edge_blocks(EdgeList(), 0))

    def test_digest_is_storage_and_blocksize_invariant(
        self, sample_arrays, tmp_path
    ):
        u, v = sample_arrays
        ram = EdgeList.from_arrays(u, v)
        spill = adopted(tmp_path, u, v)
        d = edges_digest(ram)
        assert edges_digest(spill) == d
        assert edges_digest(spill, block_edges=17) == d

    def test_digest_detects_single_bit_difference(self, sample_arrays):
        u, v = sample_arrays
        a = EdgeList.from_arrays(u, v)
        v2 = v.copy()
        v2[-1] ^= 1
        assert edges_digest(a) != edges_digest(EdgeList.from_arrays(u, v2))


def _write_regions(directory, blocks_per_rank):
    """Lay out one region per rank and fill each from its ``(u, v)`` blocks."""
    counts = [sum(len(u) for u, _ in blocks) for blocks in blocks_per_rank]
    offsets = prepare_regions(directory, counts)
    return [
        write_edge_shards(directory, r, offsets, blocks)
        for r, blocks in enumerate(blocks_per_rank)
    ]


def _flip_byte(path, pos):
    with open(path, "r+b") as fh:
        fh.seek(pos)
        byte = fh.read(1)[0]
        fh.seek(pos)
        fh.write(bytes([byte ^ 0xFF]))


class TestSealedShards:
    """Rank regions: written in place, sealed by a manifest, adopted whole."""

    def test_roundtrip_chunked(self, tmp_path, sample_arrays):
        u, v = sample_arrays
        blocks = [(u[i : i + 300], v[i : i + 300]) for i in range(0, len(u), 300)]
        (manifest,) = _write_regions(tmp_path, [blocks])
        assert manifest["offset"] == 0
        assert manifest["edges"] == len(u)
        el = assemble_shards(tmp_path, 1, budget_bytes=TINY)
        assert isinstance(el, SpillEdgeList)
        assert np.array_equal(el.sources, u)
        assert np.array_equal(el.targets, v)
        assert el.num_nodes == int(max(u.max(), v.max())) + 1

    def test_empty_emission_still_seals(self, tmp_path):
        (manifest,) = _write_regions(tmp_path, [[]])
        assert manifest["edges"] == 0
        el = assemble_shards(tmp_path, 1)
        assert len(el) == 0
        assert el.num_nodes == 0

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="never\\s+completed"):
            load_edge_manifest(tmp_path)

    def test_corrupt_shard_detected(self, tmp_path, sample_arrays):
        # a byte flipped inside rank 1's v region after rank 1 sealed it
        u, v = sample_arrays
        _write_regions(tmp_path, [[(u[:2000], v[:2000])], [(u[2000:], v[2000:])]])
        _flip_byte(tmp_path / "edges" / "v.i64", 8 * 2500 + 3)
        with pytest.raises(CorruptCheckpointError, match="rank 1: column v"):
            assemble_shards(tmp_path, 2, budget_bytes=TINY)

    def test_deleted_shard_detected(self, tmp_path, sample_arrays):
        u, v = sample_arrays
        _write_regions(tmp_path, [[(u, v)]])
        (tmp_path / "edges" / "v.i64").unlink()
        with pytest.raises(CorruptCheckpointError, match="missing"):
            assemble_shards(tmp_path, 1)

    def test_writer_refuses_appends_after_seal(self, tmp_path):
        w = EdgeShardWriter(tmp_path, 0, prepare_regions(tmp_path, [0]))
        w.seal()
        with pytest.raises(ValueError, match="sealed"):
            w.append_arrays(np.arange(2), np.arange(2))

    def test_assemble_shards_is_rank_ordered(self, tmp_path):
        size = 3
        per_rank = [np.arange(r * 100, r * 100 + 10, dtype=np.int64) for r in range(size)]
        offsets = prepare_regions(tmp_path, [10] * size)
        for r in reversed(range(size)):  # the region, not write order, decides
            write_edge_shards(tmp_path, r, offsets, [(per_rank[r], np.zeros(10))])
        out = assemble_shards(tmp_path, size)
        assert np.array_equal(out.sources, np.concatenate(per_rank))


class TestRegionIntegrity:
    """Adoption refuses anything but a complete, verified tiling."""

    def test_missing_rank_manifest_names_the_rank(self, tmp_path):
        offsets = prepare_regions(tmp_path, [3, 2])
        write_edge_shards(tmp_path, 0, offsets, [(np.arange(3), np.arange(3))])
        with pytest.raises(FileNotFoundError, match="rank 1"):
            assemble_shards(tmp_path, 2)

    def test_corrupt_manifest_names_the_rank(self, tmp_path):
        _write_regions(tmp_path, [[(np.arange(3), np.arange(3))], []])
        path = rank_shard_dir(tmp_path / "shards", 0, 2) / "MANIFEST"
        _flip_byte(path, path.stat().st_size - 1)
        with pytest.raises(CorruptCheckpointError, match="rank 0"):
            assemble_shards(tmp_path, 2)

    def test_stale_manifest_is_never_adopted(self, tmp_path):
        kwargs = dict(ranks=2, seed=5, engine="mp", generator="commfree")
        generate(900, out_of_core=str(tmp_path), **kwargs)
        stale = rank_shard_dir(tmp_path / "shards", 1, 2) / "MANIFEST"
        assert stale.exists()
        # a second run in the same directory whose rank 1 never seals
        offsets = prepare_regions(tmp_path, commfree_edge_counts(900, 1, 2))
        assert not stale.exists()
        u, v = commfree_edge_slice(900, 0, 450, seed=5)
        write_edge_shards(tmp_path, 0, offsets, [(u, v)])
        with pytest.raises(FileNotFoundError, match="rank 1"):
            assemble_shards(tmp_path, 2)
        # and a complete rerun with another n adopts only its own regions
        again = generate(700, out_of_core=str(tmp_path), **kwargs)
        assert again.edges == generate(700, **kwargs).edges

    @pytest.mark.parametrize(
        "rank1_offsets,fragment",
        [
            ([0, 4, 8], "rank 1: region \\[4, 8\\) leaves a gap"),
            ([0, 2, 8], "rank 1: region \\[2, 8\\) leaves an overlap"),
            ([0, 3, 7], "cover \\[0, 7\\) but the columns hold 8"),
        ],
    )
    def test_gapped_or_overlapping_regions_rejected(
        self, tmp_path, rank1_offsets, fragment
    ):
        offsets = prepare_regions(tmp_path, [3, 5])
        write_edge_shards(tmp_path, 0, offsets, [(np.arange(3), np.arange(3))])
        count = rank1_offsets[2] - rank1_offsets[1]
        write_edge_shards(
            tmp_path, 1, rank1_offsets, [(np.arange(count), np.arange(count))]
        )
        with pytest.raises(CorruptCheckpointError, match=fragment):
            assemble_shards(tmp_path, 2)

    @pytest.mark.parametrize("edges,fragment", [(4, "overflow"), (2, "wrote 2")])
    def test_writer_rejects_wrong_edge_count(self, tmp_path, edges, fragment):
        offsets = prepare_regions(tmp_path, [3])
        with pytest.raises(ValueError, match=fragment):
            write_edge_shards(
                tmp_path, 0, offsets, [(np.arange(edges), np.arange(edges))]
            )
        with pytest.raises(FileNotFoundError, match="rank 0"):
            assemble_shards(tmp_path, 1)

    @pytest.mark.parametrize(
        "call,nth,err",
        [("pwrite", 2, errno.ENOSPC), ("fsync", 1, errno.EIO)],
        ids=["second-pwrite", "first-fsync"],
    )
    def test_failed_write_seals_nothing(self, tmp_path, monkeypatch, call, nth, err):
        """A full disk on rank 1's v column, or a failed fsync of its u
        column in ``seal``, leaves rank 1 without a manifest."""
        offsets = prepare_regions(tmp_path, [3, 4])
        write_edge_shards(tmp_path, 0, offsets, [(np.arange(3), np.arange(3))])
        real, calls = getattr(os, call), []

        def failing(*args):
            calls.append(args)
            if len(calls) == nth:
                raise OSError(err, os.strerror(err))
            return real(*args)

        monkeypatch.setattr(os, call, failing)
        with pytest.raises(OSError) as exc:
            write_edge_shards(tmp_path, 1, offsets, [(np.arange(4), np.arange(4))])
        assert exc.value.errno == err
        rank1 = rank_shard_dir(tmp_path / "shards", 1, 2)
        assert not (rank1 / "MANIFEST").exists()
        assert list(tmp_path.rglob("*.tmp")) == []
        with pytest.raises(FileNotFoundError, match="rank 1"):
            assemble_shards(tmp_path, 2)

    def test_short_pwrites_write_the_same_bytes(
        self, tmp_path, monkeypatch, sample_arrays
    ):
        u, v = sample_arrays
        blocks = [(u[i : i + 700], v[i : i + 700]) for i in range(0, len(u), 700)]
        _write_regions(tmp_path / "full", [blocks[:2], blocks[2:]])
        real_pwrite = os.pwrite
        monkeypatch.setattr(
            os, "pwrite", lambda fd, data, pos: real_pwrite(fd, data[:5], pos)
        )
        _write_regions(tmp_path / "short", [blocks[:2], blocks[2:]])
        for col in ("u.i64", "v.i64"):
            full = (tmp_path / "full" / "edges" / col).read_bytes()
            assert (tmp_path / "short" / "edges" / col).read_bytes() == full
        assert edges_digest(assemble_shards(tmp_path / "short", 2)) == edges_digest(
            EdgeList.from_arrays(u, v)
        )


class TestEdgeCounts:
    """Region sizes are known before any rank runs."""

    @pytest.mark.parametrize("scheme", ["rrp", "ucp", "lcp"])
    @pytest.mark.parametrize("x", [1, 3])
    def test_partition_counts_match_node_sets(self, scheme, x):
        part = make_partition(scheme, 500, 4)
        expected = [
            int(np.minimum(part.partition_nodes(r), x).sum()) for r in range(4)
        ]
        assert rank_edge_counts(x, part.sizes(), part.owner).tolist() == expected

    @pytest.mark.parametrize("n,x,ranks", [(10, 1, 3), (50, 4, 3), (3, 1, 5)])
    def test_commfree_counts_match_slices(self, n, x, ranks):
        from repro.core.commfree import commfree_slices

        got = [
            len(commfree_edge_slice(n, lo, hi, x=x, seed=0)[0])
            for lo, hi in commfree_slices(n, ranks)
        ]
        assert commfree_edge_counts(n, x, ranks).tolist() == got


class TestWorkerDeath:
    """A dead commfree mp worker fails the call fast instead of hanging it."""

    @pytest.fixture
    def deadline(self):
        """Fail, rather than hang, if a death is never noticed."""

        def expire(signum, frame):
            raise TimeoutError("commfree_mp still blocked on a dead worker")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(20)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize("spill", [False, True])
    def test_killed_worker_raises_rank_failure(
        self, tmp_path, monkeypatch, deadline, spill
    ):
        def doomed(n, lo, hi, **kwargs):
            if lo > 0:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # a surviving worker that must be terminated

        monkeypatch.setattr(commfree_mod, "commfree_edge_slice", doomed)
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as info:
            commfree_mp(
                20_000_000, ranks=2, seed=1,
                spill_dir=str(tmp_path) if spill else None,
            )
        assert time.monotonic() - t0 < 10
        assert info.value.rank == 1
        assert mp.active_children() == []
        if spill:
            with pytest.raises(FileNotFoundError):
                assemble_shards(tmp_path, 2)

    def test_worker_exception_propagates(self):
        # a slice's own exception names its rank, as on the copy model
        with pytest.raises(RankFailure, match="retries") as info:
            commfree_mp(10, x=2, p=1.0, ranks=2, seed=0)
        assert type(info.value.original) is RuntimeError
        assert "retries" in str(info.value.original)


#: (engine, generator, x, ranks) — every supported out-of-core surface
COMBOS = [
    ("sequential", "copy", 1, 1),
    ("sequential", "copy", 2, 1),
    ("bsp", "copy", 1, 4),
    ("bsp", "copy", 2, 3),
    ("mp", "copy", 1, 2),
    ("mp", "copy", 2, 3),
    ("sequential", "commfree", 1, 1),
    ("sequential", "commfree", 2, 1),
    ("bsp", "commfree", 1, 4),
    ("bsp", "commfree", 2, 2),
    ("mp", "commfree", 1, 3),
]

#: the copy-model surfaces whose regions come from a partition, rerun under
#: the consecutive schemes (COMBOS covers the default rrp)
SCHEME_COMBOS = [c for c in COMBOS if c[0] != "sequential" and c[1] == "copy"]


def _assert_spilled_matches_in_ram(tmp_path, n, **kwargs):
    ram = generate(n, **kwargs)
    spilled = generate(n, out_of_core=str(tmp_path), spill_budget_bytes=TINY, **kwargs)
    assert isinstance(spilled.edges, SpillEdgeList)
    assert np.array_equal(spilled.edges.sources, ram.edges.sources)
    assert np.array_equal(spilled.edges.targets, ram.edges.targets)
    assert edges_digest(spilled.edges) == edges_digest(ram.edges)


class TestGenerateOutOfCore:
    @pytest.mark.parametrize("engine,gen,x,ranks", COMBOS)
    def test_bit_identical_to_in_ram(self, tmp_path, engine, gen, x, ranks):
        _assert_spilled_matches_in_ram(
            tmp_path, 1_200, x=x, ranks=ranks, seed=7, engine=engine, generator=gen
        )

    @pytest.mark.parametrize("scheme", ["ucp", "lcp"])
    @pytest.mark.parametrize("engine,gen,x,ranks", SCHEME_COMBOS)
    def test_bit_identical_under_scheme(
        self, tmp_path, engine, gen, x, ranks, scheme
    ):
        _assert_spilled_matches_in_ram(
            tmp_path, 1_200, x=x, ranks=ranks, seed=7, engine=engine,
            generator=gen, scheme=scheme,
        )

    def test_figure7_counters_survive_spilling(self, tmp_path):
        ram = generate(800, ranks=3, seed=3, engine="mp")
        spilled = generate(
            800, ranks=3, seed=3, engine="mp", out_of_core=str(tmp_path)
        )
        assert np.array_equal(spilled.requests_sent, ram.requests_sent)
        assert np.array_equal(spilled.requests_received, ram.requests_received)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(engine="event"), "event-driven"),
            (dict(engine="bsp", checkpoint_dir="ck"), "two shard lifecycles"),
            (dict(checkpoint_dir="ck", max_retries=0), "shard lifecycles"),
            (dict(engine="mp", checkpoint_dir="ck"), "shard lifecycles"),
            (dict(spill_budget_bytes=0), "spill_budget_bytes"),
        ],
    )
    def test_incompatible_knobs_rejected(self, tmp_path, kwargs, fragment):
        kwargs.setdefault("ranks", 2)
        with pytest.raises(ValueError, match=fragment):
            generate(500, seed=0, out_of_core=str(tmp_path), **kwargs)

    def test_spilled_run_writes_sealed_rank_dirs(self, tmp_path):
        result = generate(
            600, ranks=2, seed=1, engine="bsp", out_of_core=str(tmp_path),
            spill_budget_bytes=TINY,
        )
        end = 0
        for r in range(2):
            manifest = load_edge_manifest(
                rank_shard_dir(tmp_path / "shards", r, 2)
            )
            assert manifest["edges"] > 0
            assert manifest["offset"] == end
            end += manifest["edges"]
        assert end == len(result.edges) == 599
        # each edge is written once: the two columns are the whole spill
        assert (tmp_path / "edges" / "u.i64").stat().st_size == 8 * end

    @pytest.mark.parametrize("engine", ["bsp", "mp"])
    @pytest.mark.parametrize("x", [1, 3])
    def test_copy_model_writes_only_the_columns(self, tmp_path, engine, x):
        """An out-of-core copy-model run leaves its output columns and
        their manifests and nothing else: the rank programs' ``F`` and wait
        queues stay in RAM."""
        generate(
            1_200, x=x, ranks=2, seed=5, engine=engine, out_of_core=str(tmp_path)
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges", "shards"]
        assert sorted(p.name for p in (tmp_path / "edges").iterdir()) == [
            "u.i64", "v.i64"
        ]

    @pytest.mark.parametrize("engine", ["bsp", "mp"])
    def test_failed_run_leaves_no_region_file(self, tmp_path, engine):
        """A run that raises removes the columns it laid out and any
        manifests its ranks sealed: no half-written region survives it."""
        with pytest.raises(RankFailure):
            generate(
                20_000, x=2, ranks=2, engine=engine, seed=1, out_of_core=str(tmp_path),
                fault_plan=FaultPlan().crash(1, at_superstep=2),
            )
        assert list(tmp_path.iterdir()) == []


def test_copy_x4_bsp_footprint(tmp_path):
    """An out-of-core x=4 bsp run holds its ranks' ``F`` and wait queues,
    not its output.

    The run's RSS growth over ``import repro`` at n = 1.5e6 (6e6 edges)
    is ~24.4 B per edge (~24.6 while the wait queues were memmapped
    files): ``F`` alone is 8 B per edge, and the columns are written with
    ``pwrite`` and never paged in.
    """
    n = 1_500_000
    code = (
        "import json, resource, repro; "
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        f"r = repro.generate(n={n}, x=4, ranks=2, engine='bsp', seed=1, "
        f"out_of_core={str(tmp_path)!r}); "
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "print(json.dumps([base, peak, len(r.edges)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    shutil.rmtree(tmp_path / "edges")  # 96 MB pytest would keep for three sessions
    base_kib, peak_kib, m = json.loads(out.stdout.strip().splitlines()[-1])
    assert m == 4 * (n - 4) + 6
    per_edge = (peak_kib - base_kib) * 1024 / m
    assert per_edge < 27, f"RSS grew {per_edge:.1f} B per edge"
