"""The paper's contribution: parallel PA generation with partitioning schemes.

* :mod:`repro.core.partitioning` — UCP, LCP, RRP node partitions
  (Section 3.5, Appendix A);
* :mod:`repro.core.load_model` — harmonic-number load analysis, Lemma 3.4,
  and the nonlinear balanced-load system Eqn 10;
* :mod:`repro.core.chains` — selection/dependency chains and their length
  statistics (Section 3.4, Theorem 3.3);
* :mod:`repro.core.buffers` — per-destination message buffering with the
  RRP flush rule (Section 3.5.2);
* :mod:`repro.core.parallel_pa` — Algorithm 3.1 (``x = 1``) on the BSP
  engine;
* :mod:`repro.core.parallel_pa_general` — Algorithm 3.2 (``x >= 1``);
* :mod:`repro.core.arbitration` — Algorithm 3.2's first-wins duplicate
  arbitration, shared with the vectorised sequential copy model;
* :mod:`repro.core.event_driven` — Algorithm 3.1's literal per-message
  pseudocode on the event-driven engine (``x = 1`` only; the Section 3.5
  buffering demonstrations and cross-validation);
* :mod:`repro.core.commfree` — the communication-free generator family
  (Sanders & Schulz): counter-based randomness makes every endpoint
  recomputable locally, so parallel ranks exchange nothing;
* :mod:`repro.core.generator` — the top-level :func:`generate` facade.
"""

from repro.core.partitioning import (
    ConsecutivePartition,
    ExactPartition,
    LinearPartition,
    Partition,
    RoundRobinPartition,
    UniformPartition,
    make_partition,
)
from repro.core.generator import GenerationResult, RunSpec, generate
from repro.core.chains import chain_statistics, dependency_chains, selection_chain

__all__ = [
    "ConsecutivePartition",
    "ExactPartition",
    "GenerationResult",
    "LinearPartition",
    "Partition",
    "RoundRobinPartition",
    "RunSpec",
    "UniformPartition",
    "chain_statistics",
    "dependency_chains",
    "generate",
    "make_partition",
    "selection_chain",
]
