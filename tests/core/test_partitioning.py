"""Tests for UCP / LCP / RRP node partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import (
    ExactPartition,
    LinearPartition,
    RoundRobinPartition,
    UniformPartition,
    make_partition,
)

ALL_SCHEMES = ["ucp", "lcp", "rrp", "ecp"]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestPartitionContract:
    """Invariants every scheme must satisfy (Appendix A's three queries)."""

    @pytest.mark.parametrize("n,P", [(10, 1), (100, 7), (1000, 16), (64, 64)])
    def test_partitions_cover_disjointly(self, scheme, n, P):
        part = make_partition(scheme, n, P)
        seen = np.concatenate([part.partition_nodes(r) for r in range(P)])
        assert len(seen) == n
        assert np.array_equal(np.sort(seen), np.arange(n))

    @pytest.mark.parametrize("n,P", [(100, 7), (1000, 16)])
    def test_owner_inverse_of_partition_nodes(self, scheme, n, P):
        part = make_partition(scheme, n, P)
        for r in range(P):
            nodes = part.partition_nodes(r)
            assert (np.asarray(part.owner(nodes)) == r).all()

    @pytest.mark.parametrize("n,P", [(100, 7), (513, 8)])
    def test_local_index_is_position(self, scheme, n, P):
        part = make_partition(scheme, n, P)
        for r in range(P):
            nodes = part.partition_nodes(r)
            idx = np.asarray(part.local_index(r, nodes))
            assert np.array_equal(idx, np.arange(len(nodes)))

    def test_local_index_of_mixed_owners(self, scheme):
        part = make_partition(scheme, 513, 8)
        u = np.arange(513)
        expected = np.empty(513, dtype=np.int64)
        for r in range(8):
            expected[part.partition_nodes(r)] = np.arange(part.partition_size(r))
        assert np.array_equal(part.local_index(part.owner(u), u), expected)

    def test_scalar_owner(self, scheme):
        part = make_partition(scheme, 100, 4)
        o = part.owner(17)
        assert isinstance(o, int)
        assert 17 in part.partition_nodes(o)

    def test_sizes_sum_to_n(self, scheme):
        part = make_partition(scheme, 997, 13)
        assert part.sizes().sum() == 997

    def test_invalid_rank_queries(self, scheme):
        part = make_partition(scheme, 10, 2)
        with pytest.raises(ValueError):
            part.partition_nodes(2)
        with pytest.raises(ValueError):
            part.partition_size(-1)

    def test_invalid_construction(self, scheme):
        with pytest.raises(ValueError):
            make_partition(scheme, 0, 1)
        with pytest.raises(ValueError):
            make_partition(scheme, 10, 0)
        with pytest.raises(ValueError):
            make_partition(scheme, 4, 8)  # more ranks than nodes

    @given(n=st.integers(min_value=1, max_value=2000),
           P=st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_cover_property(self, scheme, n, P):
        if P > n:
            P = n
        part = make_partition(scheme, n, P)
        owners = np.asarray(part.owner(np.arange(n)))
        sizes = np.bincount(owners, minlength=P)
        assert np.array_equal(sizes, part.sizes())


class TestUniform:
    def test_block_structure(self):
        part = UniformPartition(10, 3)  # B = 4
        assert np.array_equal(part.partition_nodes(0), [0, 1, 2, 3])
        assert np.array_equal(part.partition_nodes(2), [8, 9])

    def test_owner_closed_form(self):
        part = UniformPartition(100, 7)
        assert part.owner(0) == 0
        assert part.owner(99) == 99 // part.B

    def test_balanced_within_one(self):
        sizes = UniformPartition(1000, 7).sizes()
        assert sizes.max() - sizes.min() <= 1 or sizes.min() == 0


class TestLinear:
    def test_sizes_increase_with_rank(self):
        part = LinearPartition(100_000, 16)
        sizes = part.sizes()
        # LCP gives low ranks fewer nodes (they receive more messages)
        assert sizes[0] < sizes[-1]
        assert (np.diff(sizes) >= -1).all()  # monotone up to rounding

    def test_closed_form_owner_close_to_exact(self):
        part = LinearPartition(50_000, 16)
        u = np.arange(50_000)
        exact = np.asarray(part.owner(u))
        closed = np.asarray(part.owner_closed_form(u))
        assert np.abs(exact - closed).max() <= 1

    def test_single_rank(self):
        part = LinearPartition(100, 1)
        assert part.partition_size(0) == 100

    def test_custom_b(self):
        a = LinearPartition(10_000, 8, b=1.0).sizes()
        b = LinearPartition(10_000, 8, b=10.0).sizes()
        # larger b = more constant work per node = flatter distribution
        assert (b.max() - b.min()) < (a.max() - a.min())


class TestRoundRobin:
    def test_stride_structure(self):
        part = RoundRobinPartition(10, 3)
        assert np.array_equal(part.partition_nodes(0), [0, 3, 6, 9])
        assert np.array_equal(part.partition_nodes(1), [1, 4, 7])

    def test_owner_is_mod(self):
        part = RoundRobinPartition(100, 7)
        u = np.arange(100)
        assert np.array_equal(np.asarray(part.owner(u)), u % 7)

    def test_balanced_within_one(self):
        sizes = RoundRobinPartition(1000, 7).sizes()
        assert sizes.max() - sizes.min() <= 1


class TestFactory:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_partition("nope", 10, 2)

    def test_case_insensitive(self):
        assert isinstance(make_partition("RRP", 10, 2), RoundRobinPartition)

    def test_repr(self):
        assert "n=10" in repr(make_partition("ucp", 10, 2))


class TestExact:
    def test_balances_better_than_lcp(self):
        """ECP equalises the analytic load strictly better than LCP."""
        from repro.core.load_model import consecutive_partition_load

        n, P = 200_000, 32
        loads = {}
        for cls in (LinearPartition, ExactPartition):
            part = cls(n, P)
            b = part.boundaries.astype(float)
            per = np.array([
                consecutive_partition_load(b[i], b[i + 1], n) for i in range(P)
            ])
            loads[cls.scheme] = per.max() / per.mean()
        assert loads["ecp"] < loads["lcp"]
        assert loads["ecp"] < 1.01

    def test_generates_valid_graphs(self):
        from repro import generate

        r = generate(3000, x=3, ranks=8, scheme="ecp", seed=0)
        assert r.validate().ok

    def test_sizes_increase_with_rank(self):
        sizes = ExactPartition(50_000, 16).sizes()
        assert sizes[0] < sizes[-1]

    def test_single_rank(self):
        part = ExactPartition(100, 1)
        assert part.partition_size(0) == 100

    def test_measured_load_beats_ucp(self):
        """End-to-end: ECP's measured total-load imbalance beats UCP's."""
        from repro import generate

        ecp = generate(20_000, x=4, ranks=16, scheme="ecp", seed=1)
        ucp = generate(20_000, x=4, ranks=16, scheme="ucp", seed=1)
        assert ecp.imbalance < ucp.imbalance


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@given(n=st.integers(min_value=1, max_value=3000),
       P=st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_node_range_is_the_node_set(scheme, n, P):
    """``node_range`` enumerates ``partition_nodes`` without materialising it."""
    P = min(P, n)
    part = make_partition(scheme, n, P)
    for r in range(P):
        nodes = part.node_range(r)
        assert isinstance(nodes, range)
        assert np.array_equal(np.arange(nodes.start, nodes.stop, nodes.step),
                              part.partition_nodes(r))
        assert len(nodes) == part.partition_size(r)
        if len(nodes):
            idx = np.arange(len(nodes))
            assert np.array_equal(part.local_index(r, np.array(nodes)), idx)
            assert part.local_index(r, nodes[-1]) == len(nodes) - 1
