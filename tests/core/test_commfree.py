"""Tests for the communication-free generator family.

The load-bearing property is *evaluation-order invariance*: because every
draw is a pure function of ``(seed, slot)``, the one-slice run, the
in-process slice loop, the mp engine, and the block-by-block sink protocol
must all produce the same graph bit for bit — and all of them must match
the boring scalar oracle in :mod:`repro.seq.commfree_ref`.
"""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import commfree as commfree_mod
from repro.core.commfree import (
    commfree,
    commfree_edge_slice,
    commfree_mp,
    commfree_slices,
)
from repro.core.generator import generate
from repro.core.spill import edges_digest
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_pa_graph
from repro.mpsim.faults import FaultPlan
from repro.seq.commfree_ref import commfree_reference

pytestmark = pytest.mark.usefixtures("no_leftovers")


def concat_slices(n, ranks, **kw) -> EdgeList:
    el = EdgeList()
    for lo, hi in commfree_slices(n, ranks):
        u, v = commfree_edge_slice(n, lo, hi, **kw)
        el.append_arrays(u, v)
    return el


class BlockSink:
    """Records the ``(u, v)`` blocks :func:`commfree_edge_slice` hands a sink."""

    def __init__(self):
        self.blocks = []

    def append_arrays(self, u, v):
        self.blocks.append((np.array(u), np.array(v)))


def slice_blocks(n, **kw):
    """The blocks of the one-slice run ``[0, n)``, as a spilling worker sees them."""
    return commfree_edge_slice(n, 0, n, out=BlockSink(), **kw).blocks


def one_slice(n, **kw) -> EdgeList:
    """The one-slice run ``[0, n)``, taking the slice's own ``block_size``."""
    return commfree_edge_slice(n, 0, n, out=EdgeList(), **kw)


class TestOracleBitIdentity:
    """Every vectorised surface equals the scalar ascending-order sweep."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 2_000])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_x1_batch(self, n, p):
        assert commfree(n, p=p, seed=7) == commfree_reference(n, 1, p, 7)

    @pytest.mark.parametrize("n,x", [(4, 3), (5, 4), (40, 2), (300, 4)])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_general_batch(self, n, x, p):
        assert commfree(n, x=x, p=p, seed=3) == commfree_reference(n, x, p, 3)

    @given(n=st.integers(min_value=1, max_value=400),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_x1_batch_property(self, n, seed):
        assert commfree(n, seed=seed) == commfree_reference(n, seed=seed)


class TestStructure:
    def test_x1_attachments_point_backwards(self):
        el = commfree(5_000, seed=3)
        assert np.array_equal(el.sources, np.arange(1, 5_000))
        assert (el.targets < el.sources).all()
        assert (el.targets >= 0).all()

    def test_x1_validates(self):
        n = 3_000
        assert validate_pa_graph(commfree(n, seed=1), n, 1).ok

    def test_general_validates(self):
        n, x = 800, 4
        assert validate_pa_graph(commfree(n, x=x, seed=1), n, x).ok

    def test_general_rows_distinct_and_backward(self):
        n, x = 400, 5
        el = commfree(n, x=x, p=0.4, seed=1)
        start = x * (x + 1) // 2  # past the clique and node x's row
        owners = el.sources[start:].reshape(-1, x)
        rows = el.targets[start:].reshape(-1, x)
        assert np.array_equal(owners[:, 0], np.arange(x + 1, n))
        for t, row in zip(range(x + 1, n), rows):
            assert len(set(row.tolist())) == x
            assert (row >= 0).all() and (row < t).all()

    def test_edge_counts(self):
        assert len(commfree(100, seed=0)) == 99
        assert len(commfree(100, x=3, seed=0)) == 3 + 97 * 3

    def test_determinism_and_seed_sensitivity(self):
        assert commfree(500, seed=5) == commfree(500, seed=5)
        assert commfree(500, seed=5) != commfree(500, seed=6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            commfree(0)
        with pytest.raises(ValueError):
            commfree(10, p=0.0)
        with pytest.raises(ValueError):
            commfree(5, x=5)
        with pytest.raises(ValueError):
            commfree_edge_slice(10, 0, 10, block_size=0)

    def test_degenerate_duplicate_rejection_raises(self):
        # p=1 with x>1: node x+1 can only ever draw k=x, but needs x
        # distinct attachments — must fail loudly, like the copy model
        with pytest.raises(RuntimeError, match="retries"):
            commfree(10, x=2, p=1.0, seed=0)


class TestBlockInvariance:
    """Block size is a perf knob, never a semantic one."""

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
    def test_batch_blocks(self, block):
        assert one_slice(2_000, seed=3, block_size=block) == commfree(2_000, seed=3)


class TestSliceIdentity:
    """Concatenated slices == sequential output, for any rank count."""

    @pytest.mark.parametrize("n", [2, 5, 1_000, 4_999])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 7])
    def test_x1(self, n, ranks):
        assert concat_slices(n, ranks, seed=11) == commfree(n, seed=11)

    @pytest.mark.parametrize("n,x", [(200, 4), (500, 3)])
    @pytest.mark.parametrize("ranks", [1, 3, 8])
    def test_general(self, n, x, ranks):
        assert concat_slices(n, ranks, x=x, seed=2) == commfree(n, x=x, seed=2)

    def test_slice_bounds_checked(self):
        with pytest.raises(ValueError):
            commfree_edge_slice(100, 50, 30)
        with pytest.raises(ValueError):
            commfree_edge_slice(100, 0, 101)

    def test_slices_partition_the_nodes(self):
        for n, ranks in ((10, 3), (1_000, 7), (5, 8)):
            s = commfree_slices(n, ranks)
            assert s[0][0] == 0 and s[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(s, s[1:]))


class TestPrefixChase:
    """x = 1 surfaces keep only ``F[0:_PREFIX]`` and recompute chain hops
    above it; with a tiny table every path runs that chase."""

    N = 400

    @pytest.mark.parametrize("lo,hi", [(10, 300), (64, 300), (150, 400)],
                             ids=["below", "at", "above"])
    @pytest.mark.parametrize("block_size", [1, 7, 1 << 16])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_small_prefix_matches_oracle(self, monkeypatch, p, block_size, lo, hi):
        monkeypatch.setattr(commfree_mod, "_PREFIX", 64)
        n = self.N
        ref = commfree_reference(n, 1, p, 19)
        kw = dict(p=p, seed=19, block_size=block_size)

        u, v = commfree_edge_slice(n, lo, hi, **kw)
        assert np.array_equal(u, ref.sources[lo - 1 : hi - 1])
        assert np.array_equal(v, ref.targets[lo - 1 : hi - 1])
        assert one_slice(n, **kw) == ref
        assert commfree(n, p=p, seed=19) == ref

    def test_real_prefix_slices(self):
        n = (1 << 20) + 3 * (1 << 16)
        assert commfree_mod._PREFIX < n
        assert concat_slices(n, 3, seed=23) == commfree(n, seed=23)


_FLAT_RSS = textwrap.dedent("""
    import resource, shutil, sys
    from repro import generate
    from repro.core.commfree import commfree_edge_slice

    def peak(who):
        return resource.getrusage(who).ru_maxrss / 1024

    class Count:
        edges = 0

        def append_arrays(self, u, v):
            self.edges += len(u)

    stream = []
    for n in (2_000_000, 8_000_000):
        assert commfree_edge_slice(n, 0, n, seed=1, out=Count()).edges == n - 1
        stream.append(peak(resource.RUSAGE_SELF))
    workers = []
    for i, n in enumerate((2_000_000, 8_000_000)):
        r = generate(n, x=1, ranks=2, engine="mp", generator="commfree",
                     seed=1, out_of_core=f"{sys.argv[1]}/run{i}")
        assert len(r.edges) == n - 1
        del r
        workers.append(peak(resource.RUSAGE_CHILDREN))
        # gone now, not when pytest prunes old temp dirs at a later exit
        shutil.rmtree(f"{sys.argv[1]}/run{i}")
    print(stream[1] - stream[0], workers[1] - workers[0])
""")

_COORDINATOR_RSS = textwrap.dedent("""
    import json, resource
    from repro import generate
    from repro.core.spill import edges_digest

    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    r = generate({n}, x=1, ranks=2, engine="mp", generator="commfree", seed=1)
    edges_digest(r.edges)  # page the whole output in
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps([base, peak, len(r.edges)]))
""")


class TestFlatMemory:
    """Spilled and block-wise x = 1 runs hold no n-sized state."""

    def test_peak_rss_flat_in_n(self, tmp_path):
        # a fresh interpreter: RUSAGE_CHILDREN keeps the maximum of every
        # child ever waited for, including earlier tests' workers
        out = subprocess.run(
            [sys.executable, "-c", _FLAT_RSS, str(tmp_path)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        stream_growth, worker_growth = map(float, out)
        assert stream_growth < 16, f"stream peak grew {stream_growth:.1f} MiB"
        assert worker_growth < 16, f"worker peak grew {worker_growth:.1f} MiB"

    def test_mp_coordinator_holds_only_the_output(self):
        """In RAM the mp workers write their slices into shared columns, so
        the coordinator grows over ``import repro`` by the 16 B/edge output
        plus slack: ~17.1 B/edge at n = 8e6, against ~32 while the slices
        came back through pipes and were concatenated."""
        n = 8_000_000
        out = subprocess.run(
            [sys.executable, "-c", _COORDINATOR_RSS.format(n=n)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        base_kib, peak_kib, m = json.loads(out.strip().splitlines()[-1])
        assert m == n - 1
        per_edge = (peak_kib - base_kib) * 1024 / m
        assert per_edge <= 18, f"coordinator RSS grew {per_edge:.1f} B per edge"


class TestMpIdentity:
    """The mp engine path is bit-identical to sequential, any P."""

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_x1(self, ranks):
        assert commfree_mp(10_000, ranks=ranks, seed=13) == commfree(
            10_000, seed=13
        )

    def test_general(self):
        assert commfree_mp(300, x=4, ranks=3, seed=13) == commfree(
            300, x=4, seed=13
        )

    def test_spec_telemetry_and_barrier_timeout_reach_the_engine(self, monkeypatch):
        from repro.telemetry import Telemetry

        seen = []
        engine_cls = commfree_mod.MultiprocessingBSPEngine

        class Spy(engine_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self)

        monkeypatch.setattr(commfree_mod, "MultiprocessingBSPEngine", Spy)
        tel = Telemetry()
        r = generate(20_000, generator="commfree", engine="mp", ranks=2,
                     seed=4, barrier_timeout=5.0, telemetry=tel)
        assert r.edges == commfree(20_000, seed=4)
        (eng,) = seen
        assert eng.barrier_timeout == 5.0
        assert eng.tel is tel
        # the coordinator's lane and one compute span per worker lane
        assert {s.tid for s in tel.spans.spans} == {-1, 0, 1}
        computes = [s for s in tel.spans.spans if s.name == "compute"]
        assert sorted(s.tid for s in computes) == [0, 1]


    @pytest.mark.parametrize("x", [1, 3])
    def test_out_of_core_at_seven_ranks_matches_in_ram(self, tmp_path, x):
        """commfree x out of core x mp at P=7: the spilled edge stream is
        the in-RAM run's, digest for digest."""
        kw = dict(x=x, ranks=7, seed=13, engine="mp", generator="commfree")
        spilled = generate(5_000, out_of_core=str(tmp_path / "run"), **kw)
        assert edges_digest(spilled.edges) == edges_digest(generate(5_000, **kw).edges)


class TestStreaming:
    """At x = 1 the one-slice run hands a sink bounded blocks in node order
    (node 1's edge leads), so it streams without materialising the list."""

    @pytest.mark.parametrize("block_size", [1, 7, 64, 100_000])
    def test_bit_identical_to_batch(self, block_size):
        n = 3_000
        assert one_slice(n, seed=5, block_size=block_size) == commfree(
            n, seed=5
        )

    def test_edge_count_and_small_n(self):
        assert slice_blocks(1, seed=0) == []
        for n in (2, 3, 100):
            assert len(one_slice(n, seed=1)) == n - 1

    def test_chunk_protocol_matches_copy_stream(self):
        # same shape contract as stream_copy_model_x1: node 1's edge leads
        # the first block, blocks stay bounded by block_size (+1 for it)
        sizes = [len(u) for u, _ in slice_blocks(1_000, seed=2, block_size=100)]
        assert max(sizes) <= 101
        assert sum(sizes) == 999

    def test_accumulator_consumes_stream(self):
        from repro.core.streaming import StreamingDegreeAccumulator
        from repro.graph.degree import degrees_from_edges

        n = 5_000
        acc = StreamingDegreeAccumulator(n)
        for u, v in slice_blocks(n, seed=3, block_size=500):
            acc.update(u, v)
        batch = degrees_from_edges(commfree(n, seed=3), n)
        assert np.array_equal(acc.degrees, batch)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            slice_blocks(0)
        with pytest.raises(ValueError):
            slice_blocks(10, block_size=0)


class TestGenerateFacade:
    def test_surfaces_bit_identical(self):
        seq = generate(5_000, generator="commfree", engine="sequential", seed=4)
        bsp = generate(5_000, generator="commfree", engine="bsp", ranks=4,
                       seed=4)
        mp = generate(5_000, generator="commfree", engine="mp", ranks=4,
                      seed=4)
        assert seq.edges == bsp.edges == mp.edges
        assert seq.validate().ok

    def test_result_shape(self):
        r = generate(1_000, generator="commfree", engine="bsp", ranks=4,
                     seed=1)
        assert r.scheme == "contig"
        assert r.supersteps == 0
        assert r.requests_sent.sum() == 0 and r.requests_received.sum() == 0
        assert r.nodes_per_rank.sum() == 1_000
        assert r.imbalance == pytest.approx(1.0, abs=0.01)

    def test_general_x_through_facade(self):
        r = generate(500, x=3, generator="commfree", engine="bsp", ranks=3,
                     seed=1)
        assert r.validate().ok
        assert len(r.edges) == 3 + 497 * 3

    def test_simulated_time_scales_perfectly(self):
        one = generate(20_000, generator="commfree", engine="sequential",
                       seed=1)
        eight = generate(20_000, generator="commfree", engine="bsp", ranks=8,
                         seed=1)
        assert eight.simulated_time == pytest.approx(one.simulated_time / 8)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate(100, generator="nope")

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(fault_seed=1), "fault"),
        (dict(checkpoint_dir="unused"), "snapshot"),
        (dict(checkpoint_dir="unused", max_retries=0), "snapshot"),
        (dict(fault_plan=FaultPlan().crash(0, at_superstep=1)), "fault"),
        (dict(engine="event"), "zero-message"),
    ])
    def test_meaningless_knobs_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            generate(100, generator="commfree", **kwargs)

    def test_partition_rejected(self):
        from repro.core.partitioning import make_partition

        with pytest.raises(ValueError, match="contiguous"):
            generate(100, generator="commfree",
                     partition=make_partition("rrp", 100, 4))
