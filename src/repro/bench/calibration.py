"""Cost-model calibration from measured runs.

The default :class:`~repro.mpsim.costmodel.CostModel` constants target the
paper's 2013 testbed.  Users reproducing the scaling experiments against
*their own* machine measurements (e.g. timings of a real MPI port, or the
wall-clock of the in-process engine) can fit the per-event constants
instead:

* :func:`collect_observations` runs a grid of generation configurations and
  records, per run, the totals of each cost driver (node events, work
  items, records, bytes, rounds) together with a measured time;
* :func:`fit_cost_model` solves the non-negative least-squares system
  ``time ≈ c·nodes + w·work + o·records + β·bytes + α·rounds`` and returns
  a :class:`~repro.mpsim.costmodel.CostModel`.

The test-suite closes the loop: generate observations under a *known*
model, fit, and recover the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpsim.costmodel import CostModel

__all__ = ["Observation", "collect_observations", "fit_cost_model"]


@dataclass(frozen=True)
class Observation:
    """Cost-driver totals and a measured time for one run."""

    nodes: float
    work_items: float
    records: float
    bytes: float
    rounds: float
    measured_time: float

    def drivers(self) -> np.ndarray:
        return np.array(
            [self.nodes, self.work_items, self.records, self.bytes, self.rounds]
        )


def collect_observations(
    configs: list[dict],
    timer: str = "simulated",
    seed: int = 0,
) -> list[Observation]:
    """Run generation configs and collect per-run cost drivers.

    Parameters
    ----------
    configs:
        Keyword dicts for :func:`repro.core.generator.generate`
        (``n``, ``x``, ``ranks``, ``scheme``...).
    timer:
        ``"simulated"`` records the engine's virtual time (useful for tests
        and sensitivity studies); ``"wall"`` records host wall-clock of the
        in-process engine (calibrating Python-level throughput).
    """
    import time as _time

    from repro.core.generator import generate

    if timer not in ("simulated", "wall"):
        raise ValueError(f"timer must be 'simulated' or 'wall', got {timer}")
    out: list[Observation] = []
    for cfg in configs:
        t0 = _time.perf_counter()
        result = generate(seed=seed, **cfg)
        wall = _time.perf_counter() - t0
        stats = result.world_stats
        rounds_total = float(sum(rs.rounds for rs in stats.ranks))
        out.append(
            Observation(
                nodes=float(sum(rs.nodes for rs in stats.ranks)),
                work_items=float(sum(rs.work_items for rs in stats.ranks)),
                records=float(
                    sum(rs.msgs_sent + rs.msgs_received for rs in stats.ranks)
                ),
                # every byte is charged at both endpoints (send + receive)
                bytes=float(
                    sum(rs.bytes_sent + rs.bytes_received for rs in stats.ranks)
                ),
                rounds=rounds_total,
                measured_time=(
                    # total busy time = exactly the sum of all per-event
                    # charges, the quantity the linear model describes
                    float(sum(rs.busy_time for rs in stats.ranks))
                    if timer == "simulated"
                    else wall
                ),
            )
        )
    return out


def fit_cost_model(observations: list[Observation]) -> CostModel:
    """Non-negative least-squares fit of the five per-event constants.

    Needs at least five observations with linearly independent driver
    vectors; vary ``n``, ``x``, and ``ranks`` across the grid to ensure
    that.
    """
    from scipy import optimize

    if len(observations) < 5:
        raise ValueError(
            f"need at least 5 observations to fit 5 constants, got {len(observations)}"
        )
    A = np.vstack([obs.drivers() for obs in observations])
    y = np.array([obs.measured_time for obs in observations])
    scale = A.max(axis=0)
    scale[scale == 0] = 1.0
    coef, _residual = optimize.nnls(A / scale, y)
    coef = coef / scale
    c, w, o, beta, alpha = coef
    return CostModel(
        alpha=float(alpha),
        beta=float(beta),
        per_message=float(o),
        per_node=float(c),
        per_work_item=float(w),
    )
