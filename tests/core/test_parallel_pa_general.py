"""Tests for Algorithm 3.2 (x >= 1) on the BSP engine."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import generate
from repro.core import parallel_pa_general
from repro.core.arbitration import first_wins
from repro.core.arena import RecordQueue
from repro.core.generator import rank_programs
from repro.core.parallel_pa import ResultRegions
from repro.core.parallel_pa_general import (
    REPLY_DTYPE,
    REQUEST_DTYPE,
    PAGeneralRankProgram,
)
from repro.core.partitioning import make_partition
from repro.graph.degree import degrees_from_edges
from repro.graph.validation import validate_pa_graph
from repro.core.spill import edges_digest
from repro.mpsim.bsp import BSPEngine, BSPRankContext
from repro.mpsim.costmodel import CostModel
from repro.mpsim.datatypes import charged_nbytes
from repro.mpsim.faults import FaultPlan
from repro.mpsim.stats import WorldStats
from repro.rng import StreamFactory

SRC = Path(__file__).resolve().parents[2] / "src"

SCHEMES = ["ucp", "lcp", "rrp"]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCorrectness:
    @pytest.mark.parametrize("n,x,P", [(100, 2, 4), (500, 5, 8), (300, 10, 3), (64, 3, 64)])
    def test_valid_structure(self, scheme, n, x, P):
        part = make_partition(scheme, n, P)
        edges = generate(n, x, partition=part, seed=0).edges
        report = validate_pa_graph(edges, n, x)
        assert report.ok, report.errors

    def test_deterministic(self, scheme):
        part = make_partition(scheme, 400, 8)
        a = generate(400, 3, partition=part, seed=11).edges
        b = generate(400, 3, partition=part, seed=11).edges
        assert a == b

    def test_single_rank(self, scheme):
        part = make_partition(scheme, 300, 1)
        r = generate(300, 4, partition=part, seed=1)
        assert r.world_stats.total_messages == 0
        assert validate_pa_graph(r.edges, 300, 4).ok


class TestEdgeSemantics:
    def test_clique_present(self):
        n, x = 200, 5
        part = make_partition("rrp", n, 7)
        edges = generate(n, x, partition=part, seed=2).edges
        canon = {tuple(row) for row in edges.canonical().tolist()}
        for i in range(x):
            for j in range(i + 1, x):
                assert (i, j) in canon

    def test_node_x_attaches_to_clique(self):
        n, x = 100, 4
        part = make_partition("ucp", n, 5)
        edges = generate(n, x, partition=part, seed=3).edges
        targets = sorted(
            int(v) for u, v in zip(edges.sources, edges.targets) if u == x
        )
        assert targets == list(range(x))

    def test_all_attachments_point_backwards(self):
        n, x = 300, 3
        part = make_partition("rrp", n, 6)
        edges = generate(n, x, partition=part, seed=4).edges
        hi = np.maximum(edges.sources, edges.targets)
        lo = np.minimum(edges.sources, edges.targets)
        assert (lo < hi).all()

    def test_x_distinct_targets_per_node(self):
        n, x = 500, 6
        part = make_partition("lcp", n, 9)
        edges = generate(n, x, partition=part, seed=5).edges
        from collections import defaultdict

        targets = defaultdict(set)
        for u, v in zip(edges.sources.tolist(), edges.targets.tolist()):
            hi, lo = max(u, v), min(u, v)
            targets[hi].add(lo)
        for t in range(x, n):
            assert len(targets[t]) == x


class TestRetryBehaviour:
    def test_retries_occur_but_bounded(self):
        """Small ranges (t near x) force duplicate retries; they stay modest."""
        n, x = 400, 8
        part = make_partition("rrp", n, 8)
        programs = rank_programs(part, x, 0.5, 6)
        BSPEngine(part.P).run(programs)
        total_retries = sum(p.retries for p in programs)
        assert total_retries > 0
        assert total_retries < n * x  # far fewer retries than slots

    def test_x1_general_path_matches_specialised(self):
        """The general program with x=1 produces a valid x=1 graph too."""
        n = 300
        part = make_partition("rrp", n, 4)
        rngs = StreamFactory(7)
        programs = [
            PAGeneralRankProgram(r, part, 1, 0.5, rngs.stream(r)) for r in range(part.P)
        ]
        BSPEngine(part.P).run(programs)
        edges = ResultRegions(1, part).edges(programs)
        assert validate_pa_graph(edges, n, 1).ok


class TestDistribution:
    def test_degree_tail_matches_sequential(self):
        from repro.seq.copy_model import copy_model

        n, x = 20_000, 4
        part = make_partition("rrp", n, 10)
        par_edges = generate(n, x, partition=part, seed=8).edges
        seq_edges = copy_model(n, x=x, seed=9)
        d_par = degrees_from_edges(par_edges, n)
        d_seq = degrees_from_edges(seq_edges, n)
        for threshold in (8, 16, 32):
            assert abs(
                (d_par >= threshold).mean() - (d_seq >= threshold).mean()
            ) < 0.01, threshold

    def test_min_degree_is_x(self):
        n, x = 5000, 5
        part = make_partition("rrp", n, 8)
        edges = generate(n, x, partition=part, seed=10).edges
        deg = degrees_from_edges(edges, n)
        assert deg.min() == x

    @given(n=st.integers(min_value=10, max_value=200),
           x=st.integers(min_value=2, max_value=5),
           P=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_always_valid(self, n, x, P, seed):
        if n <= x:
            n = x + 2
        P = min(P, n)
        part = make_partition("rrp", n, P)
        edges = generate(n, x, partition=part, seed=seed).edges
        report = validate_pa_graph(edges, n, x)
        assert report.ok, report.errors


class TestErrors:
    def test_x_too_large(self):
        part = make_partition("rrp", 5, 2)
        with pytest.raises(ValueError):
            generate(5, 5, partition=part, seed=0)

    def test_partition_mismatch(self):
        part = make_partition("rrp", 100, 4)
        with pytest.raises(ValueError, match="partition covers"):
            generate(50, 2, partition=part, seed=0)


def test_wire_records_are_16_bytes_charged_40():
    """Stepped by hand, a P=2 x=4 program pair sends each destination one
    array per record kind, 16 B a record, and each record is charged the
    paper's 40 B: the bsp run's traffic statistics, to the byte."""
    n, x, P, seed = 3000, 4, 2, 5
    part = make_partition("rrp", n, P)
    programs = rank_programs(part, x, 0.5, seed)
    stats, cost = WorldStats.for_size(P), CostModel()
    ctxs = [BSPRankContext(r, P, stats, cost) for r in range(P)]
    inboxes = [[] for _ in range(P)]
    records = charged = 0
    kinds = set()
    while True:
        sent = [[] for _ in range(P)]
        for rank, prog in enumerate(programs):
            for dest, arrs in prog.step(ctxs[rank], inboxes[rank]).items():
                dtypes = [arr.dtype for arr in arrs]
                assert len(set(dtypes)) == len(dtypes) <= 2
                for arr in arrs:
                    assert arr.dtype in (REQUEST_DTYPE, REPLY_DTYPE)
                    assert arr.dtype.itemsize == 16
                    assert charged_nbytes(arr) == 40 * len(arr)
                    records += len(arr)
                    charged += charged_nbytes(arr)
                    kinds.add(arr.dtype.names)
                    sent[dest].append((rank, arr))
        inboxes = sent
        if not any(sent) and all(prog.done for prog in programs):
            break
    assert kinds == {REQUEST_DTYPE.names, REPLY_DTYPE.names}

    bsp = generate(n, x, p=0.5, partition=part, seed=seed)
    assert [prog.requests_sent for prog in programs] == bsp.requests_sent.tolist()
    assert records == 2 * sum(bsp.requests_sent)
    assert charged == bsp.world_stats.total_bytes


class TestAnswerOnArrival:
    """A step answers the parked requests whose slot resolved, then each
    arriving request whose slot is known, and parks only the rest: the
    answer path Algorithm 3.1 uses too."""

    class _Recording(RecordQueue):
        """A RecordQueue that records the length of every pushed batch."""

        def __init__(self, ncols, capacity=64):
            super().__init__(ncols, capacity)
            self.pushed = []

        def push(self, *batches):
            self.pushed.append(len(batches[0]))
            super().push(*batches)

    def _program(self):
        # rank 1 of ucp(20, 2) owns nodes 10..19; x = 2, so a key is
        # kidx * 2 + l and rank 0's requesters have slots t * 2 + e < 20
        part = make_partition("ucp", 20, 2)
        prog = PAGeneralRankProgram(
            1, part, 2, 0.5, StreamFactory(0).stream(1), queue_factory=self._Recording
        )
        prog._started = True
        prog.F = np.full((10, 2), -1, dtype=np.int64)
        prog.F[1] = [3, 4]  # keys 2 and 3 known
        prog.F[2, 0] = 7  # key 4 known, key 5 not
        prog._park.push(np.array([2, 0]), np.array([10, 11]))  # key 2 known, 0 not
        prog._park.pushed.clear()
        return prog

    @staticmethod
    def _requests(slot, key):
        req = np.empty(len(slot), dtype=REQUEST_DTYPE)
        req["slot"], req["key"] = slot, key
        return req

    @staticmethod
    def _ctx():
        stats = WorldStats.for_size(2)
        return BSPRankContext(1, 2, stats, CostModel()), stats

    def test_replies_old_ready_first_then_arrivals_in_source_order(self):
        prog = self._program()
        ctx, stats = self._ctx()
        out = prog.step(ctx, [(0, self._requests([12, 13], [5, 4]))])
        (replies,) = out[0]
        assert replies.dtype == REPLY_DTYPE
        assert replies["slot"].tolist() == [10, 13]
        assert replies["v"].tolist() == [3, 7]
        assert [c.tolist() for c in prog._park.columns()] == [[0, 5], [11, 12]]
        # two requests received, two answered: the work of parking both
        # and draining the whole queue once
        assert (stats[1].work_items, prog.requests_received) == (4, 2)

    def test_queue_holds_only_unanswerable_requests(self):
        prog = self._program()
        ctx, _ = self._ctx()
        prog.step(ctx, [(0, self._requests([12, 13, 14], [2, 3, 5]))])
        assert prog._park.pushed == [1]  # only key 5 waits
        prog.step(ctx, [(0, self._requests([15, 16], [4, 3]))])
        assert prog._park.pushed == [1]
        assert [c.tolist() for c in prog._park.columns()] == [[0, 5], [11, 14]]

    @pytest.mark.parametrize(
        "scheme,P,pins",
        [
            ("rrp", 3, (0.006720388800000001, 330320, 14, [1365, 1401, 1363])),
            ("lcp", 4, (0.0076031904, 300560, 7, [1703, 1344, 710, 0])),
        ],
    )
    def test_no_parked_request_is_answerable(self, scheme, P, pins):
        """Stepped by hand, no rank's wait queue holds a request whose slot
        is known after a step, and the bsp run's simulated time, traffic,
        supersteps and requests received are those of parking every arrival
        and draining once."""
        n, x, seed = 3000, 4, 5
        part = make_partition(scheme, n, P)
        programs = rank_programs(part, x, 0.5, seed)
        stats, cost = WorldStats.for_size(P), CostModel()
        ctxs = [BSPRankContext(r, P, stats, cost) for r in range(P)]
        inboxes = [[] for _ in range(P)]
        parked = 0
        while True:
            sent = [[] for _ in range(P)]
            for rank, prog in enumerate(programs):
                for dest, arrs in prog.step(ctxs[rank], inboxes[rank]).items():
                    sent[dest].extend((rank, arr) for arr in arrs)
                key, _slot = prog._park.columns()
                assert (prog.F.take(key) < 0).all()
                parked = max(parked, len(key))
            inboxes = sent
            if not any(sent) and all(prog.done for prog in programs):
                break
        assert parked > 0
        assert [prog.requests_received for prog in programs] == pins[3]

        bsp = generate(n, x, p=0.5, partition=part, seed=seed)
        got = (bsp.simulated_time, bsp.world_stats.total_bytes, bsp.supersteps)
        assert got == pins[:3]
        assert bsp.requests_received.tolist() == pins[3]


def test_old_format_records_are_rejected():
    """An in-flight inbox of the 40-byte ``(kind, t, e, a, l)`` records, as
    a checkpoint written before the 16-byte format holds, fails loudly
    instead of leaving its requesters unanswered."""
    old = np.zeros(1, dtype=[(f, "i8") for f in ("kind", "t", "e", "a", "l")])
    part = make_partition("rrp", 100, 2)
    (prog, _) = rank_programs(part, 3, 0.5, 0)
    ctx = BSPRankContext(0, 2, WorldStats.for_size(2), CostModel())
    with pytest.raises(ValueError, match=r"rank 0 got records of unknown dtype .*'kind'"):
        prog.step(ctx, [(1, old)])


class TestTryAssign:
    """``_try_assign`` checks a batch for values already in their row in
    blocks of ``_BLOCK`` records, and decides and writes as the whole-batch
    formula ``first_wins(rows, v) & ~(F[rows] == v[:, None]).any(axis=1)``."""

    ROWS, N = 40, 200

    @pytest.mark.parametrize("block", [16, None], ids=["block=16", "block=default"])
    @pytest.mark.parametrize("x", [1, 2, 4, 6])
    def test_matches_broadcast_formula(self, monkeypatch, x, block):
        if block is not None:
            monkeypatch.setattr(parallel_pa_general, "_BLOCK", block)
        block = parallel_pa_general._BLOCK
        rng = np.random.default_rng(x)
        rows = 4 * block + self.ROWS
        F = np.where(rng.random((rows, x)) < 0.3, rng.integers(0, 12, (rows, x)), -1)
        F[0] = -1
        # a batch of 2 * block + 5 distinct free slots, values from [0, 12),
        # but for an in-batch duplicate across the first block boundary:
        # records block - 1 and block both claim (row 0, 150), from two
        # slots of row 0 (for x = 1, from its one slot)
        m = 2 * block + 5
        pair = [0, min(1, x - 1)]
        free = np.flatnonzero(F.reshape(-1)[x:] < 0) + x
        slot = rng.choice(free, m, replace=False)
        slot[block - 1 : block + 1] = pair
        tidx, e = np.divmod(slot, x)
        v = rng.integers(0, 12, m)
        v[block - 1 : block + 1] = 150
        if x > 1:  # and one record, past the boundary, claims a value its row holds
            i = block + 1 + np.flatnonzero((F[tidx[block + 1 :]] >= 0).any(axis=1))[0]
            v[i] = F[tidx[i]].max()
        dup_row = (F[tidx] == v[:, None]).any(axis=1)
        expected_win = first_wins(tidx, v, self.N) & ~dup_row
        expected_F = F.copy()
        expected_F[tidx[expected_win], e[expected_win]] = v[expected_win]
        assert dup_row.any() or x == 1  # values already in the row lose
        assert expected_win[block - 1] and not expected_win[block]

        part = make_partition("ucp", self.N, 1)
        prog = PAGeneralRankProgram(0, part, x, 0.5, np.random.default_rng(0))
        prog.F = F.copy()
        prog._unresolved = m
        win = prog._try_assign(tidx, e, v)
        assert win.dtype == bool
        assert win.tolist() == expected_win.tolist()
        assert np.array_equal(prog.F, expected_F)
        assert prog._unresolved == m - int(expected_win.sum())


class TestDrawBlocks:
    """Drawing the setup in blocks of ``_BLOCK`` nodes changes no draw, no
    message and no retry: each block reads the stream positions one
    whole-rank draw would, and the losers are redrawn after the last block."""

    N = 600

    @staticmethod
    def run(n, x, p, scheme, P, seed):
        part = make_partition(scheme, n, P)
        programs = rank_programs(part, x, p, seed)
        eng = BSPEngine(P)
        eng.run(programs)
        return (
            edges_digest(ResultRegions(x, part).edges(programs)),
            eng.supersteps,
            tuple(pr.requests_sent for pr in programs),
            tuple(pr.requests_received for pr in programs),
            tuple(pr.retries for pr in programs),
            eng.simulated_time,
        )

    @pytest.mark.parametrize("p", [0.2, 0.9])
    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("scheme", ["ucp", "lcp", "rrp"])
    @pytest.mark.parametrize("x", [2, 4])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_match_one_draw(self, monkeypatch, block, x, scheme, P, p):
        monkeypatch.setattr(parallel_pa_general, "_BLOCK", self.N)
        whole = self.run(self.N, x, p, scheme, P, seed=P)
        assert sum(whole[4]) > 0  # direct duplicates were redrawn
        monkeypatch.setattr(parallel_pa_general, "_BLOCK", block)
        assert self.run(self.N, x, p, scheme, P, seed=P) == whole

    def test_supervised_mp_blocks_match_bsp(self, monkeypatch, tmp_path, no_leftovers):
        """Blocked mp workers, one killed at superstep 2 and recovered,
        write the graph of an unblocked bsp run into the shared regions."""
        n, x, P, seed = 3000, 4, 3, 6
        monkeypatch.setattr(parallel_pa_general, "_BLOCK", n)
        whole = generate(n, x, ranks=P, p=0.4, seed=seed)
        monkeypatch.setattr(parallel_pa_general, "_BLOCK", 7)
        r = generate(
            n, x, ranks=P, p=0.4, seed=seed, engine="mp",
            checkpoint_dir=str(tmp_path / "ckpts"),
            fault_plan=FaultPlan().crash(1, at_superstep=2),
        )
        assert r.recoveries
        assert edges_digest(r.edges) == edges_digest(whole.edges)
        assert r.supersteps == whole.supersteps
        assert r.requests_sent.tolist() == whole.requests_sent.tolist()


@functools.lru_cache(maxsize=None)
def _mp_footprint(n: int) -> tuple[int, int, int, int]:
    """``(base, coordinator, worker, edges)`` of ``generate(n, x=4,
    ranks=2, engine="mp")`` in a fresh interpreter: ``ru_maxrss`` in KiB
    after ``import repro``, the coordinator's peak (``RUSAGE_SELF``) and the
    biggest worker's (``RUSAGE_CHILDREN``), and the edge count."""
    code = (
        "import json, resource, repro; "
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        f"r = repro.generate(n={n}, x=4, ranks=2, engine='mp', seed=1); "
        "print(json.dumps([base] + [resource.getrusage(who).ru_maxrss for who in "
        "(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)] + [len(r.edges)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    base, coordinator, worker, m = json.loads(out.stdout.strip().splitlines()[-1])
    assert m == 4 * (n - 4) + 6
    return base, coordinator, worker, m


def test_mp_footprint_near_output_size():
    """A two-worker x=4 mp run holds about its output, not its draws.

    The output is 16 B per edge.  The run's peak, the larger of the
    coordinator's and the biggest worker's, grows over ``import repro`` by
    ~18.2 B per edge at n = 5e5: ~21.7 while workers parked every arriving
    request, kept dead payload halves and their early supersteps' heap, and
    the coordinator scanned the output for its max node; ~25 when 16-byte
    records were first measured; ~31.5 while requests and replies
    went as 40-byte records; ~75 while each worker drew all its slots at
    once and pickled its edges back to the coordinator, which copied them
    into the output.
    """
    base, coordinator, worker, m = _mp_footprint(500_000)
    per_edge = (max(coordinator, worker) - base) * 1024 / m
    assert per_edge < 21, f"RSS grew {per_edge:.1f} B per edge"


def test_mp_coordinator_never_scans_the_output():
    """The coordinator wraps the workers' shared output columns without
    reading them: its peak grows over ``import repro`` by ~1.4 B per edge
    at n = 5e5, against ~17.5 (the whole 16 B per edge output paged in)
    while wrapping computed the max node id."""
    base, coordinator, _worker, m = _mp_footprint(500_000)
    per_edge = (coordinator - base) * 1024 / m
    assert per_edge < 4, f"coordinator RSS grew {per_edge:.1f} B per edge"
