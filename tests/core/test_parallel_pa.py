"""Tests for Algorithm 3.1 (x = 1) on the BSP engine."""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import generate
from repro.core import parallel_pa
from repro.core.arena import RecordQueue
from repro.core.chains import dependency_chain_lengths
from repro.core.generator import rank_programs
from repro.core.parallel_pa import (
    REPLY_DTYPE,
    REQUEST_DTYPE,
    PAx1RankProgram,
    ResultRegions,
)
from repro.core.partitioning import ConsecutivePartition, make_partition
from repro.core.spill import edges_digest
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_pa_graph
from repro.mpsim.bsp import BSPEngine, BSPRankContext
from repro.mpsim.costmodel import CostModel
from repro.mpsim.datatypes import charged_nbytes
from repro.mpsim.errors import RankFailure
from repro.mpsim.faults import FaultPlan
from repro.mpsim.stats import WorldStats
from repro.rng import StreamFactory

SRC = Path(__file__).resolve().parents[2] / "src"

SCHEMES = ["ucp", "lcp", "rrp"]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCorrectness:
    @pytest.mark.parametrize("n,P", [(50, 1), (100, 4), (1000, 16), (64, 64)])
    def test_valid_structure(self, scheme, n, P):
        part = make_partition(scheme, n, P)
        edges = generate(n, partition=part, seed=0).edges
        report = validate_pa_graph(edges, n, 1)
        assert report.ok, report.errors

    def test_deterministic(self, scheme):
        part = make_partition(scheme, 500, 8)
        a = generate(500, partition=part, seed=42).edges
        b = generate(500, partition=part, seed=42).edges
        assert a == b

    def test_seed_changes_graph(self, scheme):
        part = make_partition(scheme, 500, 8)
        a = generate(500, partition=part, seed=1).edges
        b = generate(500, partition=part, seed=2).edges
        assert a != b

    def test_single_rank_no_messages(self, scheme):
        part = make_partition(scheme, 300, 1)
        r = generate(300, partition=part, seed=3)
        assert r.world_stats.total_messages == 0
        assert r.requests_sent[0] == 0


class TestProtocol:
    def test_request_counters_match_engine(self):
        """Every protocol record is a request or its resolved reply."""
        part = make_partition("rrp", 2000, 8)
        r = generate(2000, partition=part, seed=4)
        requests = r.requests_sent.sum()
        received = r.requests_received.sum()
        assert requests == received
        # each remote request eventually yields >= 1 resolved record;
        # chains can relay, so total records >= 2 * requests
        assert r.world_stats.total_messages >= 2 * requests

    def test_supersteps_logarithmic(self):
        """Quiescence in O(log n) supersteps (Theorem 3.3 consequence)."""
        for n in (1000, 10_000, 100_000):
            part = make_partition("rrp", n, 16)
            r = generate(n, partition=part, seed=5)
            assert r.supersteps <= 6 * np.log(n)

    def test_expected_request_volume(self):
        """About (1 - p) of nodes send a request, minus same-rank targets."""
        n, P = 20_000, 10
        part = make_partition("rrp", n, P)
        total = generate(n, partition=part, p=0.5, seed=6).requests_sent.sum()
        expect = 0.5 * n * (P - 1) / P
        assert total == pytest.approx(expect, rel=0.1)

    def test_p_one_no_copies(self):
        part = make_partition("rrp", 1000, 4)
        r = generate(1000, partition=part, p=1.0, seed=7)
        assert r.requests_sent.sum() == 0
        assert r.supersteps <= 2


class TestDistribution:
    def test_degree_tail_matches_sequential(self):
        """Parallel and sequential copy model share the attachment law."""
        from repro.graph.degree import degrees_from_edges
        from repro.seq.copy_model import copy_model_x1

        n = 30_000
        part = make_partition("rrp", n, 12)
        par_edges = generate(n, partition=part, seed=8).edges
        seq_edges = copy_model_x1(n, seed=9)
        d_par = degrees_from_edges(par_edges, n)
        d_seq = degrees_from_edges(seq_edges, n)
        assert abs((d_par >= 4).mean() - (d_seq >= 4).mean()) < 0.01
        assert abs((d_par >= 16).mean() - (d_seq >= 16).mean()) < 0.005

    @given(n=st.integers(min_value=2, max_value=300),
           P=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_always_valid(self, n, P, seed):
        P = min(P, n)
        part = make_partition("rrp", n, P)
        edges = generate(n, partition=part, seed=seed).edges
        assert validate_pa_graph(edges, n, 1).ok


class TestErrors:
    def test_partition_size_mismatch(self):
        part = make_partition("rrp", 100, 4)
        with pytest.raises(ValueError, match="partition covers"):
            generate(200, partition=part, seed=0)


class _CountingQueue(RecordQueue):
    """A RecordQueue that counts ``columns()`` calls, each one gather of
    the whole queue (a sweep gathers the pend queue once)."""

    def __init__(self, ncols, capacity=64):
        super().__init__(ncols, capacity)
        self.gathers = 0

    def columns(self):
        self.gathers += 1
        return super().columns()


@pytest.fixture
def hops(monkeypatch):
    """The rows each pointer-jump pass of the x=1 sweep gathers, in order."""
    rows, hop = [], parallel_pa._hop

    def counted(F, t):
        rows.append(len(t))
        return hop(F, t)

    monkeypatch.setattr(parallel_pa, "_hop", counted)
    return rows


class _Ctx:
    """Stand-in for BSPRankContext that sums the charged work items."""

    def __init__(self):
        self.work_items = 0

    def charge(self, nodes=0, work_items=0):
        self.work_items += work_items


def _x1_draws(n, p, seed):
    """The ``(k, direct)`` draws a one-rank run makes, in chains.py's layout."""
    t = np.arange(2, n, dtype=np.int64)
    u = StreamFactory(seed).stream(0).random(2 * len(t))
    k = np.zeros(n, dtype=np.int64)
    direct = np.zeros(n, dtype=bool)
    direct[1] = True
    k[2:] = 1 + (u[0::2] * (t - 1)).astype(np.int64)
    direct[2:] = u[1::2] < p
    return k, direct


class TestLocalSweep:
    """The pend queue pointer-jumps through ``F`` (``F[t] = -2 - kidx``)."""

    @pytest.mark.parametrize("n,p,seed", [(20_000, 0.2, 1), (5_000, 0.05, 2), (3_000, 0.5, 3)])
    def test_all_local_chains_resolve_in_log_passes(self, n, p, seed, hops):
        part = make_partition("ucp", n, 1)
        prog = PAx1RankProgram(
            0, part, p, StreamFactory(seed).stream(0), queue_factory=_CountingQueue
        )
        BSPEngine(1).run([prog])
        assert prog.done
        k, direct = _x1_draws(n, p, seed)
        l_max = int(dependency_chain_lengths(k, direct).max())
        assert l_max >= 8  # long enough that one pass per level would fail
        assert len(hops) <= math.ceil(math.log2(l_max)) + 2
        # one rank sweeps once, in the setup step: its first pass takes
        # every copy and each later pass fewer rows, the ones still moving
        assert prog._pend.gathers == 1
        assert hops[0] == int(np.count_nonzero(~direct[1:]))
        assert all(a > b for a, b in zip(hops, hops[1:]))

        edges = generate(n, partition=part, p=p, seed=seed).edges
        assert prog.local_edges() == edges

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("P", [2, 4])
    def test_pending_waits_point_at_anchors(self, scheme, P):
        n, p, seed = 3_000, 0.2, 11
        part = make_partition(scheme, n, P)
        checked = []

        class Checked(PAx1RankProgram):
            def step(self, ctx, inbox):
                out = super().step(ctx, inbox)
                waits = np.flatnonzero(self.F < -1)
                # after a sweep no jump is left: each wait points at a node
                # that itself waits on a remote reply
                assert (self.F[-2 - self.F[waits]] == -1).all()
                assert np.array_equal(np.sort(self._pend.column(0)), waits)
                checked.append(len(waits))
                return out

        factory = StreamFactory(seed)
        progs = [Checked(r, part, p, factory.stream(r)) for r in range(P)]
        BSPEngine(P).run(progs)
        assert any(checked)  # some step did hold anchored waits
        edges = generate(n, partition=part, p=p, seed=seed).edges
        got = [np.concatenate(cols) for cols in zip(*(pr.result() for pr in progs))]
        assert EdgeList.from_arrays(*got) == edges

    def test_hand_built_chains(self, hops):
        # rank 1 of ucp(10, 2) owns nodes 5..9 at local slots 0..4
        part = make_partition("ucp", 10, 2)
        prog = PAx1RankProgram(
            1, part, 0.5, StreamFactory(0).stream(1), queue_factory=_CountingQueue
        )
        ctx = _Ctx()
        # node 5 waits on a remote reply (the anchor); 7 -> 6 -> 5 is a
        # local chain ending at it; 9 -> 8 is a chain of length 1 ending at
        # the resolved node 8
        prog.F[:] = [-1, -2 - 0, -2 - 1, 3, -2 - 3]
        prog._pend.push(np.array([1, 2, 4]))
        unresolved = prog._unresolved

        prog._local_sweep(ctx)
        assert prog.F.tolist() == [-1, -2, -2, 3, 3]
        assert prog._pend.column(0).tolist() == [1, 2]
        assert (ctx.work_items, prog._unresolved) == (1, unresolved - 1)
        # the first pass takes all three rows; 9 resolves, 5 stops at the
        # anchor, and only 7 (now pointing at 5) goes into a second pass
        assert (hops, prog._pend.gathers) == ([3, 1], 1)

        reply = np.zeros(1, dtype=REPLY_DTYPE)
        reply["t"], reply["v"] = 5, 4
        prog._apply_resolved(reply, ctx)
        prog._local_sweep(ctx)
        assert prog.F.tolist() == [4, 4, 4, 3, 3]
        assert len(prog._pend) == 0
        assert (hops, prog._pend.gathers) == ([3, 1, 2], 2)
        assert (ctx.work_items, prog._unresolved) == (4, unresolved - 4)

    def test_empty_pend_queue(self, hops):
        part = make_partition("ucp", 10, 2)
        prog = PAx1RankProgram(
            1, part, 0.5, StreamFactory(0).stream(1), queue_factory=_CountingQueue
        )
        ctx = _Ctx()
        prog._local_sweep(ctx)
        assert (hops, prog._pend.gathers, ctx.work_items) == ([], 0, 0)
        assert (prog.F == -1).all()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_only_the_setup_and_replies_start_a_sweep(self, scheme):
        """A step whose inbox holds no reply gathers nothing, and a sweep
        gathers the pend queue once, however many passes it makes."""
        n, p, seed, P = 3_000, 0.2, 11, 2
        part = make_partition(scheme, n, P)
        idle, swept = [], []

        class Counted(PAx1RankProgram):
            def step(self, ctx, inbox):
                setup = not self._started
                replied = any(a.dtype == REPLY_DTYPE and len(a) for _s, a in inbox)
                pend, gathers = len(self._pend), self._pend.gathers
                out = super().step(ctx, inbox)
                gathers = self._pend.gathers - gathers
                (swept if setup or replied else idle).append((pend, gathers))
                return out

        factory = StreamFactory(seed)
        progs = [
            Counted(r, part, p, factory.stream(r), queue_factory=_CountingQueue)
            for r in range(P)
        ]
        BSPEngine(P).run(progs)
        assert any(pend for pend, _g in idle)  # waits sat out a step
        assert all(gathers == 0 for _pend, gathers in idle)
        assert sum(gathers for _pend, gathers in swept) > len(progs)
        assert all(gathers <= 1 for _pend, gathers in swept)
        edges = generate(n, partition=part, p=p, seed=seed).edges
        got = [np.concatenate(cols) for cols in zip(*(pr.result() for pr in progs))]
        assert EdgeList.from_arrays(*got) == edges

    def test_two_column_pend_queue_fails_loudly(self):
        """A checkpoint from before local waits moved into ``F`` held a
        ``(t idx, k idx)`` pend queue and ``-1`` in ``F`` for local waits."""
        part = make_partition("ucp", 10, 2)
        prog = PAx1RankProgram(1, part, 0.5, StreamFactory(0).stream(1))
        prog._started = True
        prog._pend = RecordQueue(2)
        resumed = pickle.loads(pickle.dumps(prog))
        assert resumed.step(_Ctx(), []) == {}  # an empty old queue is inert

        prog._pend.push(np.array([2]), np.array([1]))
        resumed = pickle.loads(pickle.dumps(prog))
        with pytest.raises(ValueError, match="pend queue has 2 columns"):
            resumed.step(_Ctx(), [])


class TestWire:
    """Requests are ``(t, kidx)`` and replies ``(t, v)``, 16 B a record,
    each charged the paper's 24 B ``<request, t, k>``."""

    def test_records_are_16_bytes_charged_24(self):
        """Stepped by hand, a P=3 trio sends each destination one array a
        step, and the bsp run's traffic and simulated time are those the
        24-byte ``(kind, t, a)`` records gave."""
        n, P, seed = 3000, 3, 5
        part = make_partition("rrp", n, P)
        programs = rank_programs(part, 1, 0.5, seed)
        stats, cost = WorldStats.for_size(P), CostModel()
        ctxs = [BSPRankContext(r, P, stats, cost) for r in range(P)]
        inboxes = [[] for _ in range(P)]
        records = charged = 0
        kinds = set()
        while True:
            sent = [[] for _ in range(P)]
            for rank, prog in enumerate(programs):
                for dest, arrs in prog.step(ctxs[rank], inboxes[rank]).items():
                    assert len(arrs) == 1
                    (arr,) = arrs
                    assert arr.dtype in (REQUEST_DTYPE, REPLY_DTYPE)
                    assert arr.dtype.itemsize == 16
                    assert charged_nbytes(arr) == 24 * len(arr)
                    if arr.dtype == REQUEST_DTYPE:
                        assert arr["kidx"].min() >= 0
                        assert arr["kidx"].max() < part.partition_size(dest)
                    records += len(arr)
                    charged += charged_nbytes(arr)
                    kinds.add(arr.dtype.names)
                    sent[dest].append((rank, arr))
            inboxes = sent
            if not any(sent) and all(prog.done for prog in programs):
                break
        assert kinds == {REQUEST_DTYPE.names, REPLY_DTYPE.names}

        bsp = generate(n, 1, p=0.5, partition=part, seed=seed)
        assert [prog.requests_sent for prog in programs] == bsp.requests_sent.tolist()
        assert records == 2 * sum(bsp.requests_sent)
        assert charged == bsp.world_stats.total_bytes == 48240
        assert (bsp.supersteps, bsp.requests_sent.tolist()) == (10, [325, 330, 350])
        assert bsp.simulated_time == 0.0025093179200000003

    def test_old_format_records_are_rejected(self):
        """An in-flight inbox of 24-byte ``(kind, t, a)`` records, as a
        checkpoint written before the 16-byte format holds, fails loudly
        instead of leaving its requesters unanswered."""
        old = np.zeros(1, dtype=[("kind", "i8"), ("t", "i8"), ("a", "i8")])
        part = make_partition("ucp", 10, 2)
        prog = PAx1RankProgram(1, part, 0.5, StreamFactory(0).stream(1))
        with pytest.raises(ValueError, match=r"rank 1 got records of unknown dtype .*'kind'"):
            prog.step(_Ctx(), [(0, old)])

        factory = StreamFactory(0)
        programs = [PAx1RankProgram(r, part, 0.5, factory.stream(r)) for r in range(2)]
        with pytest.raises(RankFailure) as info:
            BSPEngine(2).run(programs, initial_inboxes=[[], [(0, old)]])
        assert isinstance(info.value.__cause__, ValueError)


class TestAnswerOnArrival:
    """A step answers parked requests whose ``F_k`` resolved, then each
    arriving request whose ``F_k`` is known, and parks only the rest."""

    class _Recording(RecordQueue):
        """A RecordQueue that records the length of every pushed batch."""

        def __init__(self, ncols, capacity=64):
            super().__init__(ncols, capacity)
            self.pushed = []

        def push(self, *batches):
            self.pushed.append(len(batches[0]))
            super().push(*batches)

    def _program(self):
        # rank 1 of ucp(10, 2) owns nodes 5..9 at local slots 0..4
        part = make_partition("ucp", 10, 2)
        prog = PAx1RankProgram(
            1, part, 0.5, StreamFactory(0).stream(1), queue_factory=self._Recording
        )
        prog._started = True
        prog.F[:] = [-1, 2, -1, 3, 0]  # slots 0 and 2 unknown
        prog._park.push(np.array([1, 0]), np.array([2, 3]))  # t=2 on 1, t=3 on 0
        return prog

    @staticmethod
    def _requests(t, kidx):
        req = np.empty(len(t), dtype=REQUEST_DTYPE)
        req["t"], req["kidx"] = t, kidx
        return req

    def test_replies_old_ready_first_then_arrivals_in_source_order(self):
        prog, ctx = self._program(), _Ctx()
        out = prog.step(ctx, [(0, self._requests([1, 4], [3, 2]))])
        (replies,) = out[0]
        assert replies.dtype == REPLY_DTYPE
        assert replies["t"].tolist() == [2, 1]
        assert replies["v"].tolist() == [2, 3]
        assert [c.tolist() for c in prog._park.columns()] == [[0, 2], [3, 4]]
        # two requests received, two answered: the work of parking both
        # and draining the whole queue once
        assert (ctx.work_items, prog.requests_received) == (4, 2)

    def test_queue_holds_only_unanswerable_requests(self):
        prog, ctx = self._program(), _Ctx()
        prog.step(ctx, [(0, self._requests([0, 1], [1, 3])), (2, self._requests([4], [4]))])
        assert prog._park.pushed == [2]  # the two rows _program parked
        prog.step(ctx, [(0, self._requests([4, 1], [2, 4]))])
        assert prog._park.pushed == [2, 1]
        assert [c.tolist() for c in prog._park.columns()] == [[0, 2], [3, 4]]


def _protocol(edges, supersteps, requests_sent, simulated_time):
    return (
        edges_digest(edges), supersteps,
        tuple(int(r) for r in requests_sent), simulated_time,
    )


class TestDrawBlocks:
    """Drawing in blocks of ``_BLOCK`` nodes changes no draw and no message."""

    N = 600

    @pytest.mark.parametrize("p", [0.2, 0.9])
    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["ucp", "lcp", "rrp", "ecp"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_reproduce_one_draw(self, monkeypatch, block, scheme, P, p):
        part = make_partition(scheme, self.N, P)

        def run():
            r = generate(self.N, partition=part, p=p, seed=P)
            return _protocol(r.edges, r.supersteps, r.requests_sent, r.simulated_time)

        monkeypatch.setattr(parallel_pa, "_BLOCK", self.N)
        whole = run()
        monkeypatch.setattr(parallel_pa, "_BLOCK", block)
        assert run() == whole

    @pytest.mark.parametrize("engine", ["supervised-bsp", "mp"])
    def test_blocks_on_other_result_paths(self, monkeypatch, tmp_path, engine):
        """Restored programs are copied into their region instead of
        resolving in place; mp workers resolve in the shared columns."""

        def run(block, name):
            monkeypatch.setattr(parallel_pa, "_BLOCK", block)
            kw = {"engine": "mp"}
            if engine == "supervised-bsp":
                kw = {
                    "engine": "bsp", "checkpoint_dir": str(tmp_path / name),
                    "fault_plan": FaultPlan().crash(1, at_superstep=2),
                }
            r = generate(self.N, x=1, p=0.2, ranks=3, scheme="lcp", seed=5, **kw)
            assert bool(r.recoveries) == (engine == "supervised-bsp")
            return _protocol(r.edges, r.supersteps, r.requests_sent, r.simulated_time)

        assert run(7, "blocked") == run(self.N, "whole")


def test_ranks_resolve_into_the_output_column():
    """Each rank's ``F`` is its region of the target column; the rank that
    owns node 0 (rank 1 here, rank 0 owns nothing) also holds its slot."""
    n, p, seed = 600, 0.3, 4
    part = ConsecutivePartition(n, 3, [0, 0, 250, n])
    regions = ResultRegions(1, part)
    programs = rank_programs(part, 1, p, seed, regions=regions)
    BSPEngine(3).run(programs)
    edges = regions.edges(programs)
    assert all(np.shares_memory(pr.F, edges.targets) for pr in programs[1:])

    factory = StreamFactory(seed)
    copied = [PAx1RankProgram(r, part, p, factory.stream(r)) for r in range(3)]
    BSPEngine(3).run(copied)
    got = [np.concatenate(cols) for cols in zip(*(pr.result() for pr in copied))]
    assert EdgeList.from_arrays(*got) == edges


@pytest.mark.parametrize(
    "engine,ranks,bound", [("bsp", 2, 26), ("sequential", 1, 24)]
)
def test_bsp_footprint_near_output_size(engine, ranks, bound):
    """An in-process x=1 run holds little more than its output.

    The output is 16 B per edge; the run's RSS growth over ``import repro``
    at n = 4e6 stays under ``bound`` B per edge: ~21.6 measured on bsp
    (~32 while requests and replies went as 24-byte records, every arriving
    request was parked, consumed inboxes lived to the end of the superstep
    and drained queues kept their peak capacity; ~49 while every rank drew
    all its uniforms at once and the result was copied out of the
    programs), ~17 for the sequential copy model, which resolves into the
    target column block by block.
    """
    n = 4_000_000
    code = (
        "import json, resource, repro; "
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        f"r = repro.generate(n={n}, x=1, ranks={ranks}, engine={engine!r}, seed=1); "
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "print(json.dumps([base, peak, len(r.edges)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    base_kib, peak_kib, m = json.loads(out.stdout.strip().splitlines()[-1])
    assert m == n - 1
    per_edge = (peak_kib - base_kib) * 1024 / m
    assert per_edge < bound, f"RSS grew {per_edge:.1f} B per edge"
