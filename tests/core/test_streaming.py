"""Tests for streaming (on-the-fly) generation and analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingDegreeAccumulator, stream_copy_model_x1
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_pa_graph
from repro.seq.copy_model import copy_model_x1


def collect(n, **kw) -> EdgeList:
    el = EdgeList()
    for u, v in stream_copy_model_x1(n, **kw):
        el.append_arrays(u, v)
    return el


class TestStreamEquivalence:
    @pytest.mark.parametrize("block_size", [1, 7, 64, 100_000])
    def test_bit_identical_to_batch(self, block_size):
        """Streamed blocks concatenate to the batch generator's edges."""
        n, seed = 3_000, 5
        streamed = collect(n, seed=seed, block_size=block_size)
        batch = copy_model_x1(n, seed=seed)
        assert streamed == batch

    def test_valid_structure(self):
        n = 2_000
        el = collect(n, seed=0, block_size=97)
        assert validate_pa_graph(el, n, 1).ok

    @given(n=st.integers(min_value=1, max_value=500),
           block=st.integers(min_value=1, max_value=600),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_block_size_never_changes_output(self, n, block, seed):
        a = collect(n, seed=seed, block_size=block)
        b = collect(n, seed=seed, block_size=10**6)
        assert a == b

    def test_edge_count(self):
        for n in (1, 2, 3, 100):
            assert len(collect(n, seed=1)) == max(n - 1, 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            list(stream_copy_model_x1(0))
        with pytest.raises(ValueError):
            list(stream_copy_model_x1(10, p=0.0))
        with pytest.raises(ValueError):
            list(stream_copy_model_x1(10, block_size=0))

    def test_blocks_are_bounded(self):
        sizes = [len(u) for u, _ in stream_copy_model_x1(1_000, seed=2, block_size=100)]
        assert max(sizes) <= 101  # first block carries node 1's extra edge
        assert sum(sizes) == 999


class TestAccumulator:
    def test_matches_batch_degrees(self):
        from repro.graph.degree import degrees_from_edges

        n = 5_000
        acc = StreamingDegreeAccumulator(n)
        for u, v in stream_copy_model_x1(n, seed=3, block_size=500):
            acc.update(u, v)
        batch = degrees_from_edges(copy_model_x1(n, seed=3), n)
        assert np.array_equal(acc.degrees, batch)
        assert acc.num_edges == n - 1
        assert acc.mean_degree == pytest.approx(2 * (n - 1) / n)

    def test_distribution_sums_to_one(self):
        n = 2_000
        acc = StreamingDegreeAccumulator(n)
        for u, v in stream_copy_model_x1(n, seed=4):
            acc.update(u, v)
        _, pk = acc.distribution()
        assert pk.sum() == pytest.approx(1.0)

    def test_mismatched_block(self):
        acc = StreamingDegreeAccumulator(10)
        with pytest.raises(ValueError):
            acc.update(np.array([1]), np.array([1, 2]))

    def test_empty(self):
        acc = StreamingDegreeAccumulator(0)
        assert acc.max_degree == 0
        assert acc.mean_degree == 0.0

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            StreamingDegreeAccumulator(-1)

    def test_empty_update_is_a_noop(self):
        acc = StreamingDegreeAccumulator(5)
        empty = np.empty(0, dtype=np.int64)
        acc.update(empty, empty)
        assert acc.num_edges == 0
        assert acc.max_degree == 0
        assert np.array_equal(acc.degrees, np.zeros(5, dtype=np.int64))

    def test_self_loop_counts_twice(self):
        # both endpoint increments land on the same node: degree 2, like
        # the standard graph-theoretic convention degrees_from_edges uses
        acc = StreamingDegreeAccumulator(3)
        acc.update(np.array([1]), np.array([1]))
        assert acc.num_edges == 1
        assert acc.degrees[1] == 2
        assert acc.mean_degree == pytest.approx(2 / 3)

    def test_distribution_skips_zero_degree_nodes(self):
        # node 3 never appears in an edge: it is excluded from the support
        # (only k > 0 listed) but still in the denominator, so pk sums to
        # the positive-degree fraction, not 1
        acc = StreamingDegreeAccumulator(4)
        acc.update(np.array([1, 2]), np.array([0, 0]))
        ks, pk = acc.distribution()
        assert 0 not in ks
        assert np.array_equal(ks, np.array([1, 2]))
        assert pk[ks == 1] == pytest.approx(2 / 4)  # nodes 1 and 2
        assert pk[ks == 2] == pytest.approx(1 / 4)  # node 0
        assert pk.sum() == pytest.approx(3 / 4)

    def test_accumulates_commfree_stream(self):
        # the accumulator is the verification path for sliced commfree
        # output: fold slices, compare against the materialized batch
        from repro.core.commfree import commfree, commfree_edge_slice, commfree_slices
        from repro.graph.degree import degrees_from_edges

        n = 2_000
        acc = StreamingDegreeAccumulator(n)
        for lo, hi in commfree_slices(n, 16):
            acc.update(*commfree_edge_slice(n, lo, hi, seed=9, block_size=128))
        assert np.array_equal(
            acc.degrees, degrees_from_edges(commfree(n, seed=9), n)
        )
        assert acc.num_edges == n - 1
