"""Analytic load model: harmonic numbers, Lemma 3.4, and Eqn 10.

Section 3.5.1 of the paper derives how much work a consecutive partition
``[n_i, n_{i+1})`` incurs:

* types A and B (local processing + outgoing requests) are proportional to
  the partition size;
* type C (incoming requests) follows Lemma 3.4 — node ``k`` expects
  ``(1 - p)(H_{n-1} - H_k)`` request messages — summing to
  ``(n_{i+1} - n_i)(H_{n-1} + 1) - (n_{i+1} H_{n_{i+1}} - n_i H_{n_i})``.

Setting every partition's load to the uniform share yields the nonlinear
system (Eqn 10) whose exact solution Figure 3 plots against the linear
approximation that defines the LCP scheme.  :func:`solve_balanced_boundaries`
computes that exact solution by marching a scalar root-finder across the
partitions, and :func:`lcp_parameters` extracts the paper's ``(a, d)``
arithmetic-progression parameters (Appendix A.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "harmonic",
    "expected_incoming_messages",
    "consecutive_partition_load",
    "total_load",
    "solve_balanced_boundaries",
    "lcp_parameters",
    "LCPParameters",
]

_EULER_GAMMA = float(np.euler_gamma)


def harmonic(k: np.ndarray | float) -> np.ndarray | float:
    """Harmonic number ``H_k = Σ_{j=1..k} 1/j``, continuously extended.

    Uses ``H_k = ψ(k + 1) + γ`` (digamma), exact to double precision for all
    ``k >= 0`` and valid for fractional ``k``, which the root-finder in
    :func:`solve_balanced_boundaries` relies on.

    Examples
    --------
    >>> round(float(harmonic(1)), 12)
    1.0
    >>> round(float(harmonic(4)), 12)   # 1 + 1/2 + 1/3 + 1/4
    2.083333333333
    """
    from scipy import special

    k = np.asarray(k, dtype=np.float64)
    out = special.digamma(k + 1.0) + _EULER_GAMMA
    return out if out.ndim else float(out)


def expected_incoming_messages(
    k: np.ndarray | int, n: int, p: float = 0.5
) -> np.ndarray | float:
    """Lemma 3.4: expected request messages received for node ``k``.

    ``E[M_k] = (1 - p)(H_{n-1} - H_k)``; monotonically decreasing in ``k``,
    which is why consecutive partitions overload low ranks.
    """
    return (1.0 - p) * (harmonic(n - 1) - harmonic(k))


def consecutive_partition_load(
    lo: np.ndarray | float, hi: np.ndarray | float, n: int, b: float = 2.0
) -> np.ndarray | float:
    """Load of the consecutive partition ``[lo, hi)`` per Section 3.5.1.

    ``(hi - lo)(H_{n-1} + b) - (hi * H_hi - lo * H_lo)`` with ``b = 1 + c``
    absorbing the per-node constant work.  Continuous in ``lo, hi`` so it can
    be root-found.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    h_n1 = harmonic(n - 1)
    out = (hi - lo) * (h_n1 + b) - (hi * harmonic(hi) - lo * harmonic(lo))
    return out if out.ndim else float(out)


def total_load(n: int, b: float = 2.0) -> float:
    """Total load across all partitions; telescopes to ``b (n - 1)``."""
    return consecutive_partition_load(0.0, float(n - 1), n, b)


def solve_balanced_boundaries(n: int, P: int, b: float = 2.0) -> np.ndarray:
    """Exact solution of Eqn 10: boundaries equalising per-partition load.

    Returns a float array ``[n_0 = 0, n_1, ..., n_P = n - 1]`` such that
    every consecutive partition carries ``total_load / P``.  This is the
    "actual solutions of Equation 10" curve in Figure 3; the paper deems
    solving it at scale "prohibitively large" in time, which motivates LCP —
    here it costs ``P`` scalar Brent solves and is used for analysis only.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    from scipy import optimize

    share = total_load(n, b) / P
    bounds = np.empty(P + 1, dtype=np.float64)
    bounds[0] = 0.0
    bounds[P] = float(n - 1)
    lo = 0.0
    for i in range(1, P):
        # load(lo, z) is increasing in z; bracket and root-find.
        f = lambda z: consecutive_partition_load(lo, z, n, b) - share  # noqa: E731
        hi = float(n - 1)
        if f(hi) < 0:  # numerical safety: put everything remaining here
            bounds[i:P] = np.linspace(lo, n - 1, P - i + 1)[1:]  # pragma: no cover
            break
        z = optimize.brentq(f, lo, hi, xtol=1e-9, rtol=1e-12)
        bounds[i] = z
        lo = z
    return bounds


@dataclass(frozen=True)
class LCPParameters:
    """The linear consecutive partitioning parameters of Appendix A.2.

    Partition ``i`` receives ``a + i d`` nodes (continuous model); the
    integer partition rounds the cumulative boundaries.
    """

    a: float
    d: float
    n: int
    P: int

    def partition_sizes(self) -> np.ndarray:
        """Continuous sizes ``a + i d`` for ``i = 0 .. P-1``."""
        return self.a + self.d * np.arange(self.P)

    def boundaries(self) -> np.ndarray:
        """Integer cumulative boundaries ``[0, ..., n]`` (length P + 1)."""
        cum = np.concatenate([[0.0], np.cumsum(self.partition_sizes())])
        bounds = np.rint(cum * (self.n / cum[-1])).astype(np.int64)
        bounds[0], bounds[-1] = 0, self.n
        # enforce monotonicity after rounding
        np.maximum.accumulate(bounds, out=bounds)
        return bounds


def lcp_parameters(n: int, P: int, b: float = 2.0) -> LCPParameters:
    """Fit the paper's linear approximation to the Eqn-10 solution.

    Appendix A.2: solve Eqn 10 at ``i = 0`` and ``i = P - 1`` only, giving
    the first and last partition sizes ``n_1`` and ``n - 1 - n_{P-1}``; the
    slope is ``d = (n - 1 - n_{P-1} - n_1) / P`` and the intercept follows
    from ``Σ (a + j d) = n``.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if P == 1:
        return LCPParameters(a=float(n), d=0.0, n=n, P=1)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    from scipy import optimize

    share = total_load(n, b) / P

    # First partition: load(0, n_1) = share.
    f_first = lambda z: consecutive_partition_load(0.0, z, n, b) - share  # noqa: E731
    n_1 = optimize.brentq(f_first, 0.0, float(n - 1), xtol=1e-9)

    # Last partition: load(n_{P-1}, n-1) = share.
    f_last = lambda z: consecutive_partition_load(z, float(n - 1), n, b) - share  # noqa: E731
    n_Pm1 = optimize.brentq(f_last, 0.0, float(n - 1), xtol=1e-9)

    first_size = n_1
    last_size = (n - 1) - n_Pm1
    d = (last_size - first_size) / P
    a = n / P - (P - 1) * d / 2.0
    return LCPParameters(a=a, d=d, n=n, P=P)
