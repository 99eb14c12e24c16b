"""repro — distributed-memory parallel preferential-attachment graph generation.

Reproduction of Alam, Khan & Marathe, *Distributed-Memory Parallel Algorithms
for Generating Massive Scale-free Networks Using Preferential Attachment
Model* (SC'13).

Quick start::

    from repro import generate

    result = generate(n=100_000, x=4, ranks=16, scheme="rrp", seed=42)
    result.validate().raise_if_failed()
    print(result.edges)                 # EdgeList(num_edges=399994, ...)
    print(result.simulated_time)        # virtual cluster seconds
    print(result.imbalance)             # load balance (Figure 7d metric)

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the parallel algorithms, partitioning schemes, chain
  analysis (the paper's contribution);
* :mod:`repro.mpsim` — the simulated distributed-memory substrate;
* :mod:`repro.seq` — sequential generators (copy model, Batagelj–Brandes,
  naive BA);
* :mod:`repro.graph` — edge lists, degree statistics, power-law fitting,
  validation, I/O;
* :mod:`repro.baselines` — the Yoo–Henderson approximate parallel baseline;
* :mod:`repro.bench` — scaling drivers and paper-style reporting.
"""

from repro._version import __version__
from repro.core.generator import GenerationResult, RunSpec, generate
from repro.core.partitioning import make_partition
from repro.core.streaming import stream_copy_model_x1
from repro.graph.edgelist import EdgeList
from repro.graph.powerlaw import fit_powerlaw
from repro.graph.validation import validate_pa_graph
from repro.telemetry import Telemetry

__all__ = [
    "EdgeList",
    "GenerationResult",
    "RunSpec",
    "Telemetry",
    "__version__",
    "fit_powerlaw",
    "generate",
    "make_partition",
    "stream_copy_model_x1",
    "validate_pa_graph",
]
