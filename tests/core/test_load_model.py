"""Tests for the harmonic-number load model (Lemma 3.4, Eqn 10)."""

import numpy as np
import pytest

from repro.core.load_model import (
    consecutive_partition_load,
    expected_incoming_messages,
    harmonic,
    lcp_parameters,
    solve_balanced_boundaries,
    total_load,
)


class TestHarmonic:
    def test_exact_small_values(self):
        for k in range(1, 50):
            assert float(harmonic(k)) == pytest.approx(
                sum(1 / i for i in range(1, k + 1)), rel=1e-12
            )

    def test_h_zero(self):
        assert float(harmonic(0)) == pytest.approx(0.0, abs=1e-12)

    def test_vectorised(self):
        out = harmonic(np.array([1, 2, 4]))
        assert out.shape == (3,)
        assert out[2] == pytest.approx(25 / 12)

    def test_continuous_monotone(self):
        xs = np.linspace(0.5, 100, 500)
        assert (np.diff(harmonic(xs)) > 0).all()


class TestLemma34:
    def test_formula_monotone_decreasing_in_k(self):
        n = 10_000
        ks = np.arange(1, n - 1)
        em = expected_incoming_messages(ks, n)
        assert (np.diff(em) < 0).all()

    def test_scales_with_one_minus_p(self):
        a = expected_incoming_messages(10, 1000, p=0.5)
        b = expected_incoming_messages(10, 1000, p=0.75)
        assert a == pytest.approx(2 * b)

    def test_matches_measured_message_counts(self):
        """Monte-Carlo check of Lemma 3.4: run the actual parallel algorithm
        with every node on its own 'rank neighbourhood' and compare received
        request counts to (1-p)(H_{n-1} - H_k) averaged over node blocks."""
        from repro import generate
        from repro.core.partitioning import make_partition

        n, P, reps = 3000, 10, 8
        measured = np.zeros(P)
        for seed in range(reps):
            part = make_partition("ucp", n, P)
            measured += generate(n, partition=part, seed=seed).requests_received
        measured /= reps
        # analytic per-block expectation; intra-rank copies resolve locally
        # so subtract the within-block expectation.
        ks = np.arange(1, n)
        em = expected_incoming_messages(ks, n)
        block = np.array(
            [em[(ks >= part.boundaries[r]) & (ks < part.boundaries[r + 1])].sum()
             for r in range(P)]
        )
        # remote requests only: scale down by the fraction of requesters
        # outside the block (approx (P-1)/P); tolerance is generous.
        expected_remote = block * (P - 1) / P
        # Rank 0 receives by far the most; check ordering and rough magnitude.
        assert measured[0] > measured[-1] * 2
        assert measured[0] == pytest.approx(expected_remote[0], rel=0.35)


class TestLoadExpressions:
    def test_total_load_telescopes(self):
        n, b = 5000, 2.0
        assert total_load(n, b) == pytest.approx(b * (n - 1), rel=1e-9)

    def test_partition_loads_sum_to_total(self):
        n, P = 10_000, 8
        bounds = np.linspace(0, n - 1, P + 1)
        loads = [
            consecutive_partition_load(bounds[i], bounds[i + 1], n) for i in range(P)
        ]
        assert sum(loads) == pytest.approx(total_load(n), rel=1e-9)

    def test_low_partitions_cost_more_per_node(self):
        """Same node count, lower node ids => more incoming messages."""
        n = 100_000
        lo = consecutive_partition_load(0, 1000, n)
        hi = consecutive_partition_load(n - 1001, n - 1, n)
        assert lo > hi


class TestEqn10Solver:
    def test_boundaries_equalise_load(self):
        n, P = 100_000, 16
        bounds = solve_balanced_boundaries(n, P)
        loads = np.array(
            [consecutive_partition_load(bounds[i], bounds[i + 1], n) for i in range(P)]
        )
        assert loads.std() / loads.mean() < 1e-6

    def test_boundaries_monotone(self):
        bounds = solve_balanced_boundaries(50_000, 32)
        assert (np.diff(bounds) > 0).all()

    def test_sizes_increase(self):
        """Low ranks must receive fewer nodes (they get more messages)."""
        bounds = solve_balanced_boundaries(100_000, 8)
        sizes = np.diff(bounds)
        assert (np.diff(sizes) > 0).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            solve_balanced_boundaries(1, 2)
        with pytest.raises(ValueError):
            solve_balanced_boundaries(100, 0)


class TestLCPParameters:
    def test_sizes_sum_to_n(self):
        params = lcp_parameters(100_000, 16)
        assert params.partition_sizes().sum() == pytest.approx(100_000, rel=1e-9)

    def test_positive_slope(self):
        params = lcp_parameters(100_000, 16)
        assert params.d > 0

    def test_linear_approximates_exact(self):
        """Figure 3: the linear fit tracks the Eqn-10 solution."""
        n, P = 200_000, 32
        exact = np.diff(solve_balanced_boundaries(n, P))
        linear = lcp_parameters(n, P).partition_sizes()
        rel_err = np.abs(exact - linear) / exact
        assert np.median(rel_err) < 0.15

    def test_single_rank(self):
        params = lcp_parameters(100, 1)
        assert params.a == 100
        assert params.d == 0.0

    def test_boundaries_integer_partition(self):
        b = lcp_parameters(9999, 7).boundaries()
        assert b[0] == 0 and b[-1] == 9999
        assert (np.diff(b) >= 0).all()
