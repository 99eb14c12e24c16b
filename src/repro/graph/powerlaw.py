"""Discrete power-law exponent estimation.

The paper reports γ ≈ 2.7 for the degree distribution of the generated
network (Section 4.2).  We estimate γ two ways:

* :func:`fit_powerlaw` — the discrete maximum-likelihood estimator of
  Clauset, Shalizi & Newman (2009): γ̂ maximises the zeta-distribution
  likelihood over degrees ``k ≥ k_min``; the Hill approximation
  ``γ̂ ≈ 1 + n / Σ ln(k_i / (k_min - 1/2))`` seeds the optimiser.  A
  Kolmogorov–Smirnov distance between the fitted and empirical tails
  quantifies fit quality, and ``k_min`` can be selected by KS minimisation.
* :func:`fit_ccdf_slope` — a least-squares slope on the log–log CCDF, the
  quick-and-dirty estimator many papers (including this one, most likely)
  actually use.  For a power law with exponent γ the CCDF slope is
  ``1 - γ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.degree import ccdf

__all__ = ["PowerLawFit", "fit_powerlaw", "fit_ccdf_slope"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a power-law tail fit.

    Attributes
    ----------
    gamma:
        Estimated exponent γ in ``P(k) ∝ k^{-γ}``.
    k_min:
        Smallest degree included in the tail fit.
    ks_distance:
        Kolmogorov–Smirnov distance between fitted and empirical tail CDFs.
    n_tail:
        Number of observations with ``k >= k_min``.
    """

    gamma: float
    k_min: int
    ks_distance: float
    n_tail: int

    def __str__(self) -> str:
        return (
            f"PowerLawFit(gamma={self.gamma:.3f}, k_min={self.k_min}, "
            f"ks={self.ks_distance:.4f}, n_tail={self.n_tail})"
        )


def _zeta_tail(gamma: float, k_min: int) -> float:
    """Hurwitz zeta ζ(γ, k_min) — the normaliser of the discrete power law."""
    from scipy import special

    return float(special.zeta(gamma, k_min))


def _mle_gamma(degrees: np.ndarray, k_min: int) -> float:
    """Maximise the discrete power-law log-likelihood in γ."""
    from scipy import optimize

    tail = degrees[degrees >= k_min].astype(np.float64)
    n = tail.size
    sum_log = np.log(tail).sum()

    def neg_loglik(gamma: float) -> float:
        if gamma <= 1.0001:
            return np.inf
        return n * np.log(_zeta_tail(gamma, k_min)) + gamma * sum_log

    # Hill-style seed, then bounded scalar minimisation.
    seed = 1.0 + n / np.log(tail / (k_min - 0.5)).sum()
    lo, hi = max(1.01, seed - 1.5), seed + 1.5
    res = optimize.minimize_scalar(neg_loglik, bounds=(lo, hi), method="bounded")
    return float(res.x)


def _ks_tail(degrees: np.ndarray, gamma: float, k_min: int) -> float:
    """KS distance between empirical and fitted tail CDFs."""
    from scipy import special

    tail = np.sort(degrees[degrees >= k_min])
    if tail.size == 0:
        return np.inf
    ks, values = 0.0, np.unique(tail)
    z = _zeta_tail(gamma, k_min)
    # Fitted CDF at k: 1 - zeta(gamma, k+1)/zeta(gamma, k_min)
    fitted = 1.0 - special.zeta(gamma, values + 1) / z
    empirical = np.searchsorted(tail, values, side="right") / tail.size
    ks = float(np.abs(empirical - fitted).max())
    return ks


def fit_powerlaw(
    degrees: np.ndarray,
    k_min: int | None = None,
    k_min_candidates: int = 20,
) -> PowerLawFit:
    """Fit a discrete power law to the degree tail.

    Parameters
    ----------
    degrees:
        Degree of every node.
    k_min:
        Fixed tail cutoff; when ``None``, scan candidate cutoffs and keep the
        one minimising the KS distance (Clauset et al.'s procedure, over a
        bounded candidate set for speed).
    k_min_candidates:
        How many distinct small degrees to consider as cutoffs.

    Examples
    --------
    >>> rng = np.random.default_rng(0)
    >>> u = rng.random(200_000)
    >>> k = np.floor(u ** (-1 / 1.7)).astype(int)   # gamma = 2.7 tail
    >>> fit = fit_powerlaw(k, k_min=2)
    >>> 2.4 < fit.gamma < 3.0
    True
    """
    degrees = np.asarray(degrees)
    degrees = degrees[degrees > 0]
    if degrees.size < 10:
        raise ValueError(f"need at least 10 positive degrees, got {degrees.size}")
    if k_min is not None:
        gamma = _mle_gamma(degrees, k_min)
        return PowerLawFit(
            gamma=gamma,
            k_min=k_min,
            ks_distance=_ks_tail(degrees, gamma, k_min),
            n_tail=int((degrees >= k_min).sum()),
        )
    candidates = np.unique(degrees)
    candidates = candidates[: min(len(candidates), k_min_candidates)]
    best: PowerLawFit | None = None
    for km in candidates:
        n_tail = int((degrees >= km).sum())
        if n_tail < 50:
            break
        gamma = _mle_gamma(degrees, int(km))
        ks = _ks_tail(degrees, gamma, int(km))
        fit = PowerLawFit(gamma=gamma, k_min=int(km), ks_distance=ks, n_tail=n_tail)
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    assert best is not None
    return best


def fit_ccdf_slope(degrees: np.ndarray, k_min: int = 1) -> float:
    """Estimate γ from the log–log CCDF slope (γ = 1 − slope).

    Cruder than the MLE but robust for eyeballing — the estimator behind a
    "measured to be 2.7" statement in a systems paper.
    """
    k, tail = ccdf(np.asarray(degrees))
    keep = k >= k_min
    k, tail = k[keep], tail[keep]
    if k.size < 3:
        raise ValueError("not enough distinct degrees for a slope fit")
    slope, _ = np.polyfit(np.log(k), np.log(tail), 1)
    return float(1.0 - slope)
