"""Closed-form reference distributions for preferential attachment.

The strongest exactness test available for a PA generator is a
goodness-of-fit against the *known* limiting degree law of the BA process.
For the BA model with ``x`` edges per node the stationary degree
distribution is (Dorogovtsev–Mendes / Bollobás):

``P(k) = 2 x (x + 1) / (k (k + 1) (k + 2))``  for ``k >= x``

whose tail is ``~ 2 x^2 k^{-3}`` (the γ = 3 law).  This module provides
that pmf, its CCDF, and a chi-square goodness-of-fit helper used by the
statistical test-suite to certify that the parallel generator follows the
exact BA law — the property the paper claims over approximate prior art.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ba_degree_pmf",
    "ba_degree_ccdf",
    "ba_chi_square_gof",
    "expected_max_degree",
]


def ba_degree_pmf(k: np.ndarray | int, x: int) -> np.ndarray | float:
    """Limiting BA degree probability ``P(K = k)`` for attachment count ``x``.

    Exact for the linear preferential-attachment process the copy model at
    ``p = 1/2`` implements; finite-``n`` samples deviate in the extreme tail
    (``k`` comparable to ``sqrt(n)``).

    Examples
    --------
    >>> round(float(ba_degree_pmf(1, 1)), 4)   # P(K=1) = 2*1*2/(1*2*3)
    0.6667
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    k_arr = np.asarray(k, dtype=np.float64)
    out = np.where(
        k_arr >= x,
        2.0 * x * (x + 1) / (k_arr * (k_arr + 1) * (k_arr + 2)),
        0.0,
    )
    return out if out.ndim else float(out)


def ba_degree_ccdf(k: np.ndarray | int, x: int) -> np.ndarray | float:
    """Limiting BA tail probability ``P(K >= k)``.

    The telescoping sum of the pmf gives the closed form
    ``P(K >= k) = x (x + 1) / (k (k + 1))`` for ``k >= x``.

    Examples
    --------
    >>> float(ba_degree_ccdf(1, 1))
    1.0
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    k_arr = np.asarray(np.maximum(k, x), dtype=np.float64)
    out = x * (x + 1) / (k_arr * (k_arr + 1))
    return out if out.ndim else float(out)


def ba_chi_square_gof(
    degrees: np.ndarray,
    x: int,
    k_max: int | None = None,
    min_expected: float = 10.0,
) -> tuple[float, float]:
    """Chi-square goodness of fit of a degree sample against the exact BA law.

    Bins are single degrees ``x .. k_max`` with everything above pooled into
    one tail bin; bins with expected count below ``min_expected`` are merged
    into the tail.  Returns ``(statistic, p_value)``.  High p-values mean
    the sample is consistent with exact preferential attachment.
    """
    from scipy import stats as sps

    degrees = np.asarray(degrees)
    degrees = degrees[degrees >= x]
    n = degrees.size
    if n < 100:
        raise ValueError(f"need at least 100 tail observations, got {n}")
    if k_max is None:
        # choose k_max so the tail bin keeps a healthy expected count
        k_max = x
        while ba_degree_ccdf(k_max + 1, x) * n > 5 * min_expected and k_max < 10_000:
            k_max += 1
    ks = np.arange(x, k_max + 1)
    expected = ba_degree_pmf(ks, x) * n
    observed = np.array([(degrees == k).sum() for k in ks], dtype=np.float64)
    tail_expected = ba_degree_ccdf(k_max + 1, x) * n
    tail_observed = float((degrees > k_max).sum())

    # merge sparse bins (right to left) into the tail
    keep = expected >= min_expected
    tail_expected += expected[~keep].sum()
    tail_observed += observed[~keep].sum()
    expected = np.append(expected[keep], tail_expected)
    observed = np.append(observed[keep], tail_observed)

    # renormalise the tiny truncation residue so sums match exactly
    expected *= observed.sum() / expected.sum()
    stat, pvalue = sps.chisquare(observed, expected)
    return float(stat), float(pvalue)


def expected_max_degree(n: int, x: int) -> float:
    """Order-of-magnitude estimate of the max degree: ``x sqrt(n)``.

    For BA networks the largest hub grows as ``k_max ~ x n^{1/2}`` (up to a
    distributional constant); used by sanity tests and capacity planning.
    """
    if n < 1 or x < 1:
        raise ValueError("n and x must be >= 1")
    return float(x * np.sqrt(n))
