"""Node partitioning schemes: UCP, LCP, RRP (Section 3.5 + Appendix A).

A partition maps each node id to its owning rank (Criterion A demands this
be O(1) without communication) and enumerates each rank's node set.  All
three schemes of the paper are provided behind one interface:

* :class:`UniformPartition` (UCP) — ``ceil(n/P)`` consecutive nodes each;
  simplest, but overloads low ranks (Lemma 3.4).
* :class:`LinearPartition` (LCP) — consecutive blocks whose sizes grow as
  the arithmetic progression ``a + i d`` fitted to the Eqn-10 solution;
  low ranks get fewer nodes to offset their extra incoming messages.
* :class:`RoundRobinPartition` (RRP) — node ``u`` belongs to rank
  ``u mod P``; balances the monotone per-node load almost perfectly
  (load spread ``O(log n)`` per Appendix A.3).

``owner`` methods accept scalars or arrays (the bulk algorithms route whole
request batches with one vectorised call).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.load_model import LCPParameters, lcp_parameters

__all__ = [
    "Partition",
    "ConsecutivePartition",
    "UniformPartition",
    "LinearPartition",
    "RoundRobinPartition",
    "make_partition",
    "SCHEMES",
]


class Partition(ABC):
    """Common interface of the three schemes."""

    #: short scheme name ("ucp", "lcp", "rrp")
    scheme: str = ""

    def __init__(self, n: int, P: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
        if P > n:
            raise ValueError(f"more ranks than nodes (P={P}, n={n}) is unsupported")
        self.n = n
        self.P = P

    @abstractmethod
    def owner(self, u: np.ndarray | int) -> np.ndarray | int:
        """Rank owning node ``u`` (vectorised)."""

    @abstractmethod
    def node_range(self, rank: int) -> range:
        """Node ids owned by ``rank``, ascending, as an arithmetic progression.

        Every scheme's node set is one: ``range(lo, hi)`` for consecutive
        blocks, ``range(rank, n, P)`` for round robin.  Callers that walk
        their nodes block by block never materialise the whole set.
        """

    def partition_nodes(self, rank: int) -> np.ndarray:
        """Sorted node ids owned by ``rank``."""
        r = self.node_range(rank)
        return np.arange(r.start, r.stop, r.step, dtype=np.int64)

    @abstractmethod
    def local_index(self, rank: int | np.ndarray, u: np.ndarray | int) -> np.ndarray | int:
        """Position of node ``u`` within ``rank``'s sorted node set.

        The parallel algorithms store per-node state in dense local arrays;
        this is the O(1) global-id -> local-slot map (vectorised).  ``rank``
        may also be an array, one rank per node of ``u`` (e.g. ``owner(u)``,
        for a batch bound for several ranks).  Behaviour is undefined when
        ``u`` is not owned by ``rank``.
        """

    def partition_size(self, rank: int) -> int:
        """Number of nodes owned by ``rank``."""
        return len(self.node_range(rank))

    def sizes(self) -> np.ndarray:
        """All partition sizes, rank order (Figure 7a's data)."""
        return np.array([self.partition_size(r) for r in range(self.P)], dtype=np.int64)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.P:
            raise ValueError(f"rank {rank} outside [0, {self.P})")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, P={self.P})"


class ConsecutivePartition(Partition):
    """Base for UCP/LCP: explicit boundary array ``[0, ..., n]``."""

    def __init__(self, n: int, P: int, boundaries: np.ndarray) -> None:
        super().__init__(n, P)
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.shape != (P + 1,):
            raise ValueError(f"need {P + 1} boundaries, got {boundaries.shape}")
        if boundaries[0] != 0 or boundaries[-1] != n:
            raise ValueError("boundaries must start at 0 and end at n")
        if (np.diff(boundaries) < 0).any():
            raise ValueError("boundaries must be non-decreasing")
        self.boundaries = boundaries

    def owner(self, u: np.ndarray | int) -> np.ndarray | int:
        idx = np.searchsorted(self.boundaries, u, side="right") - 1
        idx = np.minimum(idx, self.P - 1)
        if np.ndim(u) == 0:
            return int(idx)
        return idx.astype(np.int64)

    def node_range(self, rank: int) -> range:
        return range(*self.partition_range(rank))

    def partition_range(self, rank: int) -> tuple[int, int]:
        """Half-open node range ``[lo, hi)`` of ``rank``."""
        self._check_rank(rank)
        return int(self.boundaries[rank]), int(self.boundaries[rank + 1])

    def local_index(self, rank: int | np.ndarray, u: np.ndarray | int) -> np.ndarray | int:
        idx = np.asarray(u) - self.boundaries[rank]
        if np.ndim(u) == 0:
            return int(idx)
        return idx.astype(np.int64)


class UniformPartition(ConsecutivePartition):
    """UCP: equal consecutive blocks of ``B = ceil(n/P)`` nodes (App. A.1)."""

    scheme = "ucp"

    def __init__(self, n: int, P: int) -> None:
        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
        B = -(-n // P)  # ceil
        bounds = np.minimum(np.arange(P + 1, dtype=np.int64) * B, n)
        super().__init__(n, P, bounds)
        self.B = B

    def owner(self, u: np.ndarray | int) -> np.ndarray | int:
        """Closed form ``i = floor(u / B)`` — the paper's O(1) lookup."""
        owner = np.asarray(u) // self.B
        if np.ndim(u) == 0:
            return int(owner)
        return owner.astype(np.int64)


class LinearPartition(ConsecutivePartition):
    """LCP: block sizes follow the fitted arithmetic progression (App. A.2).

    Parameters
    ----------
    n, P:
        Problem size and rank count.
    b:
        The per-node constant of the load model (``b = 1 + c``).
    params:
        Pre-computed :class:`~repro.core.load_model.LCPParameters`
        (recomputed from ``(n, P, b)`` when omitted).
    """

    scheme = "lcp"

    def __init__(self, n: int, P: int, b: float = 2.0, params: LCPParameters | None = None) -> None:
        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.params = params if params is not None else lcp_parameters(n, P, b)
        super().__init__(n, P, self.params.boundaries())

    def owner_closed_form(self, u: np.ndarray | int) -> np.ndarray | int:
        """The paper's O(1) quadratic-formula rank lookup (Inequality 11).

        Exact for the *continuous* progression; the integer partition rounds
        boundaries, so this can be off by one near a boundary — the default
        :meth:`owner` (binary search over P+1 boundaries) is exact and what
        the algorithms use.  Kept for fidelity and tested to be within ±1.
        """
        a, d = self.params.a, self.params.d
        u_arr = np.asarray(u, dtype=np.float64)
        if abs(d) < 1e-12:
            i = np.floor(u_arr / max(a, 1e-12))
        else:
            i = np.floor(
                (-(2 * a - d) + np.sqrt((2 * a - d) ** 2 + 8 * d * u_arr)) / (2 * d)
            )
        i = np.clip(i, 0, self.P - 1)
        if np.ndim(u) == 0:
            return int(i)
        return i.astype(np.int64)


class RoundRobinPartition(Partition):
    """RRP: node ``u`` belongs to rank ``u mod P`` (Appendix A.3)."""

    scheme = "rrp"

    def owner(self, u: np.ndarray | int) -> np.ndarray | int:
        owner = np.asarray(u) % self.P
        if np.ndim(u) == 0:
            return int(owner)
        return owner.astype(np.int64)

    def node_range(self, rank: int) -> range:
        self._check_rank(rank)
        return range(rank, self.n, self.P)

    def local_index(self, rank: int | np.ndarray, u: np.ndarray | int) -> np.ndarray | int:
        idx = (np.asarray(u) - rank) // self.P
        if np.ndim(u) == 0:
            return int(idx)
        return idx.astype(np.int64)


class ExactPartition(ConsecutivePartition):
    """ECP: consecutive blocks from the *exact* Eqn-10 solution.

    The paper rejects solving the nonlinear balanced-load system at cluster
    scale ("prohibitively large time") and approximates it linearly (LCP).
    With a modern scalar root-finder the exact solve costs ``P`` Brent
    iterations (~10 ms at P=160), so we offer it as a fourth scheme — both
    as an ablation (how much balance does LCP's approximation give up?) and
    as a practical option when consecutive ranges are required and ``P`` is
    moderate.
    """

    scheme = "ecp"

    def __init__(self, n: int, P: int, b: float = 2.0) -> None:
        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if P == 1 or n < 2:
            bounds = np.array([0, n], dtype=np.int64)[: P + 1]
            if len(bounds) < P + 1:  # pragma: no cover - P<=n guard hits first
                bounds = np.linspace(0, n, P + 1).astype(np.int64)
        else:
            from repro.core.load_model import solve_balanced_boundaries

            real = solve_balanced_boundaries(n, P, b)
            bounds = np.rint(real).astype(np.int64)
            bounds[0], bounds[-1] = 0, n
            np.maximum.accumulate(bounds, out=bounds)
            bounds = np.minimum(bounds, n)
        super().__init__(n, P, bounds)


SCHEMES = {
    "ucp": UniformPartition,
    "lcp": LinearPartition,
    "rrp": RoundRobinPartition,
    "ecp": ExactPartition,
}


def make_partition(scheme: str, n: int, P: int, **kwargs) -> Partition:
    """Factory: ``make_partition("rrp", n, P)`` etc.

    ``scheme`` is one of ``"ucp"``, ``"lcp"``, ``"rrp"`` (case-insensitive).
    Extra keyword arguments are forwarded (LCP accepts ``b`` and ``params``).
    """
    key = scheme.lower()
    if key not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}")
    return SCHEMES[key](n, P, **kwargs)
