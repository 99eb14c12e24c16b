"""First-wins arbitration kernel against the three-key lexsort it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbitration import MAX_KEY_N, first_wins


def lexsort_first_wins(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The oracle: first record per ``(row, value)`` via a three-key lexsort."""
    order = np.lexsort((np.arange(len(rows)), values, rows))
    srow, sv = rows[order], values[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (srow[1:] != srow[:-1]) | (sv[1:] != sv[:-1])
    keep = np.zeros(len(rows), dtype=bool)
    keep[order[first]] = True
    return keep


@st.composite
def batches(draw):
    """``(rows, values, n)`` with few distinct rows and values, so duplicates
    within a row and the same value across rows are both common."""
    n = draw(st.integers(min_value=1, max_value=MAX_KEY_N))
    pool = st.one_of(
        st.integers(min_value=0, max_value=min(n - 1, 3)),
        st.integers(min_value=max(n - 3, 0), max_value=n - 1),
    )
    pairs = draw(st.lists(st.tuples(pool, pool), max_size=60))
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    return rows, values, n


class TestAgainstLexsort:
    @given(batches())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, batch):
        rows, values, n = batch
        got = first_wins(rows, values, n)
        assert got.dtype == bool and got.shape == rows.shape
        np.testing.assert_array_equal(got, lexsort_first_wins(rows, values))

    def test_large_random_batch(self, rng):
        n = 5_000
        rows = rng.integers(0, 50, 100_000)
        values = rng.integers(0, n, 100_000)
        values[::7] = n - 1
        np.testing.assert_array_equal(
            first_wins(rows, values, n), lexsort_first_wins(rows, values)
        )


class TestEdgeCases:
    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.int64)
        out = first_wins(empty, empty, 10)
        assert out.dtype == bool and out.shape == (0,)

    def test_one_record(self):
        assert first_wins(np.array([3]), np.array([9]), 10).tolist() == [True]

    def test_duplicates_within_a_row(self):
        rows = np.array([2, 2, 2, 2])
        values = np.array([7, 1, 7, 1])
        assert first_wins(rows, values, 8).tolist() == [True, True, False, False]

    def test_same_value_across_rows_is_no_conflict(self):
        rows = np.array([0, 1, 2, 1])
        values = np.array([4, 4, 4, 4])
        assert first_wins(rows, values, 5).tolist() == [True, True, True, False]

    def test_value_n_minus_1_does_not_alias_next_row(self):
        # (row 0, value n-1) and (row 1, value 0) pack to adjacent keys
        n = 6
        rows = np.array([0, 1, 0, 1])
        values = np.array([n - 1, 0, n - 1, 0])
        assert first_wins(rows, values, n).tolist() == [True, True, False, False]


class TestOverflowBoundary:
    def test_max_key_n_is_the_int64_limit(self):
        assert MAX_KEY_N * MAX_KEY_N - 1 <= np.iinfo(np.int64).max
        assert (MAX_KEY_N + 1) * (MAX_KEY_N + 1) - 1 > np.iinfo(np.int64).max

    def test_largest_n_keys_stay_exact(self):
        n = MAX_KEY_N
        rows = np.array([n - 1, n - 1, n - 2, n - 1])
        values = np.array([n - 1, n - 2, n - 1, n - 1])
        assert first_wins(rows, values, n).tolist() == [True, True, True, False]
        np.testing.assert_array_equal(
            first_wins(rows, values, n), lexsort_first_wins(rows, values)
        )

    @pytest.mark.parametrize("n", [MAX_KEY_N + 1, 2**40, 2**63])
    def test_n_past_the_limit_raises(self, n):
        with pytest.raises(ValueError, match="overflow int64"):
            first_wins(np.array([0]), np.array([0]), n)
