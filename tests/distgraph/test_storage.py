"""Tests for distributed graph storage (scatter + CSR)."""

import numpy as np
import pytest

from repro.core.partitioning import make_partition
from repro.distgraph import DistributedGraph
from repro.graph.edgelist import EdgeList
from repro.graph.metrics import adjacency_from_edges
from repro.seq.copy_model import copy_model


@pytest.fixture(params=["ucp", "lcp", "rrp"])
def scheme(request):
    return request.param


class TestFromEdgeList:
    def test_adjacency_matches_sequential(self, scheme):
        n, P = 500, 7
        edges = copy_model(n, x=3, seed=0)
        part = make_partition(scheme, n, P)
        g = DistributedGraph.from_edgelist(edges, part)

        ref_indptr, ref_nbrs = adjacency_from_edges(edges, n)
        for node in range(n):
            ours = np.sort(g.neighbors_of(node))
            ref = np.sort(ref_nbrs[ref_indptr[node]:ref_indptr[node + 1]])
            assert np.array_equal(ours, ref), node

    def test_edge_count(self, scheme):
        n, P = 300, 4
        edges = copy_model(n, x=2, seed=1)
        g = DistributedGraph.from_edgelist(edges, make_partition(scheme, n, P))
        assert g.num_edges == len(edges)

    def test_local_degrees_cover_global(self):
        from repro.graph.degree import degrees_from_edges

        n, P = 400, 5
        edges = copy_model(n, x=2, seed=2)
        part = make_partition("rrp", n, P)
        g = DistributedGraph.from_edgelist(edges, part)
        global_deg = degrees_from_edges(edges, n)
        for r in range(P):
            assert np.array_equal(g.local_degrees(r), global_deg[part.partition_nodes(r)])

    def test_empty_graph(self):
        part = make_partition("rrp", 10, 2)
        g = DistributedGraph.from_edgelist(EdgeList(), part)
        assert g.num_edges == 0
        assert (g.local_degrees(0) == 0).all()

    def test_repr(self):
        part = make_partition("rrp", 10, 2)
        g = DistributedGraph.from_edgelist(EdgeList.from_arrays([1], [0]), part)
        assert "n=10" in repr(g)

    def test_mismatched_csr_rejected(self):
        part = make_partition("rrp", 10, 2)
        with pytest.raises(ValueError):
            DistributedGraph(part, [np.zeros(6, dtype=np.int64)], [])


class TestFromRankEdges:
    def test_adopts_generator_output(self):
        """Generation output feeds analysis without a global gather."""
        from repro.core.generator import rank_programs
        from repro.core.parallel_pa import ResultRegions
        from repro.mpsim.bsp import BSPEngine

        n, x, P = 600, 3, 6
        part = make_partition("rrp", n, P)
        programs = rank_programs(part, x, 0.5, 3)
        BSPEngine(P).run(programs)
        edges = ResultRegions(x, part).edges(programs)
        g = DistributedGraph.from_rank_edges(
            [prog.local_edges() for prog in programs], part
        )
        assert g.num_edges == len(edges)
        ref_indptr, ref_nbrs = adjacency_from_edges(edges, n)
        for node in (0, 1, n // 2, n - 1):
            assert np.array_equal(
                np.sort(g.neighbors_of(node)),
                np.sort(ref_nbrs[ref_indptr[node]:ref_indptr[node + 1]]),
            )

    def test_wrong_list_length(self):
        part = make_partition("rrp", 10, 2)
        with pytest.raises(ValueError):
            DistributedGraph.from_rank_edges([EdgeList()], part)
