"""Tests for distributed BFS, components, PageRank, and degree histogram."""

import numpy as np
import pytest

from repro.core.partitioning import make_partition
from repro.distgraph import (
    DistributedGraph,
    distributed_bfs,
    distributed_components,
    distributed_degree_histogram,
    distributed_degrees,
    distributed_pagerank,
)
from repro.graph.edgelist import EdgeList
from repro.seq.copy_model import copy_model


def dist_graph(edges, n, P=4, scheme="rrp"):
    return DistributedGraph.from_edgelist(edges, make_partition(scheme, n, P))


class TestBFS:
    def test_path_graph(self):
        g = dist_graph(EdgeList.from_arrays([1, 2, 3], [0, 1, 2]), 4, P=2)
        dist, _ = distributed_bfs(g, 0)
        assert dist.tolist() == [0, 1, 2, 3]

    def test_unreachable_marked(self):
        g = dist_graph(EdgeList.from_arrays([1], [0]), 4, P=2)
        dist, _ = distributed_bfs(g, 0)
        assert dist.tolist() == [0, 1, -1, -1]

    @pytest.mark.parametrize("scheme", ["ucp", "rrp"])
    @pytest.mark.parametrize("source", [0, 17, 499])
    def test_matches_networkx(self, scheme, source):
        nx = pytest.importorskip("networkx")
        n = 500
        edges = copy_model(n, x=2, seed=0)
        g = dist_graph(edges, n, P=6, scheme=scheme)
        dist, _ = distributed_bfs(g, source)
        ref = nx.single_source_shortest_path_length(edges.to_networkx(), source)
        for node in range(n):
            assert dist[node] == ref.get(node, -1), node

    def test_supersteps_track_eccentricity(self):
        n = 2000
        edges = copy_model(n, x=3, seed=1)
        g = dist_graph(edges, n, P=8)
        dist, engine = distributed_bfs(g, 0)
        assert engine.supersteps <= dist.max() + 4

    def test_invalid_source(self):
        g = dist_graph(EdgeList.from_arrays([1], [0]), 2, P=2)
        with pytest.raises(ValueError):
            distributed_bfs(g, 5)


class TestComponents:
    def test_two_components(self):
        g = dist_graph(EdgeList.from_arrays([1, 4], [0, 3]), 5, P=2)
        labels, _ = distributed_components(g)
        assert labels.tolist() == [0, 0, 2, 3, 3]

    def test_pa_graph_single_component(self):
        n = 1000
        edges = copy_model(n, x=2, seed=2)
        g = dist_graph(edges, n, P=5)
        labels, _ = distributed_components(g)
        assert (labels == 0).all()

    @pytest.mark.parametrize("scheme", ["ucp", "lcp", "rrp"])
    def test_matches_networkx(self, scheme):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(3)
        n = 300
        u = rng.integers(0, n, 200)
        v = rng.integers(0, n, 200)
        keep = u != v
        edges = EdgeList.from_arrays(u[keep], v[keep])
        g = dist_graph(edges, n, P=5, scheme=scheme)
        labels, _ = distributed_components(g)
        nxg = edges.to_networkx()
        nxg.add_nodes_from(range(n))
        for comp in nx.connected_components(nxg):
            comp_labels = {int(labels[node]) for node in comp}
            assert len(comp_labels) == 1
            assert comp_labels.pop() == min(comp)


class TestPageRank:
    def test_mass_conserved(self):
        n = 400
        edges = copy_model(n, x=2, seed=4)
        g = dist_graph(edges, n, P=4)
        pr, _ = distributed_pagerank(g, iterations=30)
        assert pr.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("P", [1, 3, 8])
    def test_matches_networkx(self, P):
        nx = pytest.importorskip("networkx")
        n = 300
        edges = copy_model(n, x=2, seed=5)
        g = dist_graph(edges, n, P=P)
        pr, _ = distributed_pagerank(g, iterations=80)
        ref = nx.pagerank(edges.to_networkx(), alpha=0.85, max_iter=200, tol=1e-12)
        for node in range(n):
            assert pr[node] == pytest.approx(ref[node], abs=1e-6)

    def test_dangling_nodes_handled(self):
        """Isolated node: its mass is redistributed, total stays 1."""
        edges = EdgeList.from_arrays([1, 2], [0, 1])  # node 3 isolated
        g = dist_graph(edges, 4, P=2)
        pr, _ = distributed_pagerank(g, iterations=60)
        assert pr.sum() == pytest.approx(1.0, abs=1e-9)
        assert pr[3] > 0

    def test_hub_ranks_highest(self):
        n = 2000
        edges = copy_model(n, x=2, seed=6)
        g = dist_graph(edges, n, P=4)
        pr, _ = distributed_pagerank(g, iterations=40)
        deg = distributed_degrees(g)
        assert pr.argmax() == deg.argmax()

    def test_invalid_params(self):
        g = dist_graph(EdgeList.from_arrays([1], [0]), 2, P=1)
        with pytest.raises(ValueError):
            distributed_pagerank(g, damping=1.5)
        with pytest.raises(ValueError):
            distributed_pagerank(g, iterations=0)


class TestDegree:
    def test_degrees_match_sequential(self):
        from repro.graph.degree import degrees_from_edges

        n = 600
        edges = copy_model(n, x=3, seed=7)
        g = dist_graph(edges, n, P=6)
        assert np.array_equal(distributed_degrees(g), degrees_from_edges(edges, n))

    @pytest.mark.parametrize("P", [1, 2, 7])
    def test_histogram_reduction(self, P):
        n = 500
        edges = copy_model(n, x=2, seed=8)
        g = dist_graph(edges, n, P=P)
        hist, engine = distributed_degree_histogram(g)
        deg = distributed_degrees(g)
        assert np.array_equal(hist, np.bincount(deg, minlength=len(hist)))
        assert hist.sum() == n

    def test_histogram_cap_pools_tail(self):
        n = 500
        edges = copy_model(n, x=2, seed=9)
        g = dist_graph(edges, n, P=3)
        hist, _ = distributed_degree_histogram(g, max_degree=5)
        assert len(hist) == 6
        assert hist.sum() == n


class TestEndToEnd:
    def test_generate_then_analyse_distributed(self):
        """Full pipeline: parallel generation feeds distributed analysis
        (the paper's motivating workflow)."""
        from repro import generate

        n, x, P = 3000, 3, 8
        part = make_partition("rrp", n, P)
        g = DistributedGraph.from_edgelist(generate(n, x, partition=part, seed=10).edges, part)
        labels, _ = distributed_components(g)
        assert (labels == 0).all()  # PA graphs are connected
        dist, _ = distributed_bfs(g, 0)
        assert dist.max() <= 12  # ultra-small world
        pr, _ = distributed_pagerank(g, iterations=25)
        assert pr.sum() == pytest.approx(1.0, abs=1e-9)
