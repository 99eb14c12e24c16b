"""Tests for the EdgeList container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import EdgeList


class TestConstruction:
    def test_empty(self):
        el = EdgeList()
        assert len(el) == 0
        assert el.num_nodes == 0

    def test_from_arrays(self):
        el = EdgeList.from_arrays([1, 2], [0, 1])
        assert len(el) == 2
        assert el.num_nodes == 3

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(ValueError):
            EdgeList.from_arrays([1, 2], [0])

    def test_from_arrays_2d_rejected(self):
        with pytest.raises(ValueError):
            EdgeList.from_arrays(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_from_arrays_zero_length(self):
        el = EdgeList.from_arrays(np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(el) == 0
        assert el.num_nodes == 0
        assert el == EdgeList()

    def test_from_arrays_no_copy_wraps_views(self):
        u = np.array([3, 1], dtype=np.int64)
        v = np.array([0, 0], dtype=np.int64)
        el = EdgeList.from_arrays(u, v, copy=False)
        assert np.shares_memory(el.sources, u)  # the arrays ARE the storage
        assert el.num_nodes == 4

    def test_no_copy_resolves_max_node_on_first_use(self):
        """Wrapping scans nothing; ``num_nodes`` scans once, then caches."""
        u = np.array([3, 7, 2], dtype=np.int64)
        v = np.array([0, 1, 9], dtype=np.int64)
        el = EdgeList.from_arrays(u, v, copy=False)
        assert el._max_node is None
        assert el.num_nodes == 10 == EdgeList.from_arrays(u, v).num_nodes
        assert el._max_node == 9

    @pytest.mark.parametrize("new", [(4, 12), (4, 1)])
    def test_no_copy_append_resolves_max_node(self, new):
        """Appending to an unscanned zero-copy list keeps the wrapped
        arrays' max, whether or not the new edge exceeds it."""
        u = np.array([3, 7], dtype=np.int64)
        v = np.array([0, 9], dtype=np.int64)
        scalar = EdgeList.from_arrays(u, v, copy=False)
        scalar.append(*new)
        bulk = EdgeList.from_arrays(u, v, copy=False)
        bulk.append_arrays(np.array([new[0]]), np.array([new[1]]))
        expected = max(9, *new) + 1
        assert scalar.num_nodes == bulk.num_nodes == expected
        assert scalar == bulk
        assert u.tolist() == [3, 7]  # the wrapped arrays are never mutated

    def test_no_copy_empty(self):
        el = EdgeList.from_arrays(np.empty(0, np.int64), np.empty(0, np.int64), copy=False)
        assert el.num_nodes == 0
        el.append_arrays(np.array([2]), np.array([1]))
        assert el.num_nodes == 3

    def test_from_arrays_copy_is_independent(self):
        u = np.array([3, 1], dtype=np.int64)
        el = EdgeList.from_arrays(u, np.zeros(2, np.int64))
        u[0] = 99
        assert el.sources[0] == 3


class TestGrowth:
    def test_scalar_append(self):
        el = EdgeList(capacity=1)
        for i in range(1, 100):
            el.append(i, 0)
        assert len(el) == 99
        assert np.array_equal(el.sources, np.arange(1, 100))

    def test_bulk_append_grows(self):
        el = EdgeList(capacity=2)
        el.append_arrays(np.arange(1000), np.arange(1000))
        el.append_arrays(np.arange(1000), np.arange(1000))
        assert len(el) == 2000

    def test_batch_length_mismatch(self):
        with pytest.raises(ValueError):
            EdgeList().append_arrays(np.array([1]), np.array([1, 2]))

    def test_extend(self):
        a = EdgeList.from_arrays([1], [0])
        b = EdgeList.from_arrays([2, 3], [0, 1])
        a.extend(b)
        assert len(a) == 3

    def test_repeated_small_appends_amortised(self):
        """Growth reallocates O(log n) times, not once per append batch."""
        el = EdgeList(capacity=1)
        caps = set()
        for i in range(5000):
            el.append(i + 1, 0)
            caps.add(len(el._u))
        # doubling from 1 to >=5000 passes through at most ~13 capacities;
        # a non-amortised implementation would show thousands
        assert len(caps) <= 15
        assert np.array_equal(el.sources, np.arange(1, 5001))

    def test_bulk_appends_amortised(self):
        el = EdgeList(capacity=1)
        caps = set()
        for i in range(2000):
            el.append_arrays(np.array([i, i + 1]), np.array([0, 0]))
            caps.add(len(el._u))
        assert len(caps) <= 15
        assert len(el) == 4000

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_append_roundtrip(self, pairs):
        el = EdgeList(capacity=1)
        for u, v in pairs:
            el.append(u, v)
        assert list(el) == pairs


class TestNumNodesCache:
    """``num_nodes`` is O(1); the cached max must track every append path."""

    def test_scalar_appends_update_cache(self):
        el = EdgeList()
        el.append(3, 0)
        assert el.num_nodes == 4
        el.append(1, 9)
        assert el.num_nodes == 10
        el.append(2, 1)  # no new max
        assert el.num_nodes == 10

    def test_bulk_appends_update_cache(self):
        el = EdgeList.from_arrays([5], [0])
        assert el.num_nodes == 6
        el.append_arrays(np.array([2, 77]), np.array([1, 0]))
        assert el.num_nodes == 78

    def test_extend_and_copy_preserve_cache(self):
        a = EdgeList.from_arrays([4], [0])
        a.extend(EdgeList.from_arrays([10], [2]))
        assert a.num_nodes == 11
        assert a.copy().num_nodes == 11

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_cache_matches_rescan(self, pairs):
        el = EdgeList(capacity=1)
        for u, v in pairs:
            el.append(u, v)
        expected = int(max(max(u, v) for u, v in pairs)) + 1
        assert el.num_nodes == expected


class TestViews:
    def test_iteration(self):
        el = EdgeList.from_arrays([5, 6], [1, 2])
        assert list(el) == [(5, 1), (6, 2)]

    def test_as_array(self):
        el = EdgeList.from_arrays([5], [1])
        assert np.array_equal(el.as_array(), [[5, 1]])

    def test_repr(self):
        assert "num_edges=1" in repr(EdgeList.from_arrays([1], [0]))

    def test_equality(self):
        a = EdgeList.from_arrays([1, 2], [0, 0])
        b = EdgeList.from_arrays([1, 2], [0, 0])
        c = EdgeList.from_arrays([2, 1], [0, 0])
        assert a == b
        assert a != c
        assert a != "not an edgelist"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(EdgeList())

    def test_copy_is_independent(self):
        a = EdgeList.from_arrays([1], [0])
        b = a.copy()
        b.append(2, 0)
        assert len(a) == 1 and len(b) == 2


class TestCanonicalAndChecks:
    def test_canonical_sorts_and_orients(self):
        el = EdgeList.from_arrays([3, 1], [0, 2])
        canon = el.canonical()
        assert np.array_equal(canon, [[0, 3], [1, 2]])

    def test_duplicate_detection(self):
        el = EdgeList.from_arrays([1, 0], [0, 1])  # same undirected edge twice
        assert el.has_duplicates()
        el2 = EdgeList.from_arrays([1, 2], [0, 0])
        assert not el2.has_duplicates()

    def test_self_loop_detection(self):
        assert EdgeList.from_arrays([3], [3]).has_self_loops()
        assert not EdgeList.from_arrays([3], [2]).has_self_loops()

    def test_empty_checks(self):
        el = EdgeList()
        assert not el.has_duplicates()
        assert not el.has_self_loops()

    def test_to_networkx(self):
        nx = pytest.importorskip("networkx")
        g = EdgeList.from_arrays([1, 2], [0, 0]).to_networkx()
        assert g.number_of_edges() == 2
        assert set(g.nodes) == {0, 1, 2}

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_canonical_is_permutation_invariant(self, pairs):
        el1 = EdgeList()
        el2 = EdgeList()
        for u, v in pairs:
            el1.append(u, v)
        for u, v in reversed(pairs):
            el2.append(v, u)
        assert np.array_equal(el1.canonical(), el2.canonical())
