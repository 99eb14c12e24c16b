"""Graph containers, statistics, and validation utilities.

* :mod:`repro.graph.edgelist` — the compact NumPy edge-list container every
  generator produces;
* :mod:`repro.graph.degree` — degree sequences, empirical distributions,
  CCDFs, and logarithmic binning (what Figure 4 plots);
* :mod:`repro.graph.powerlaw` — discrete maximum-likelihood power-law
  exponent estimation and KS distance (the γ ≈ 2.7 measurement);
* :mod:`repro.graph.theory` — the closed-form BA degree law and the
  chi-square goodness-of-fit certifier;
* :mod:`repro.graph.validation` — structural invariants of PA graphs
  (no self-loops, no parallel edges, exactly ``x`` smaller-id neighbours);
* :mod:`repro.graph.io` — per-rank edge-file output and merging, mirroring
  the paper's shared-file-system model.
"""

from repro.graph.edgelist import EdgeList
from repro.graph.degree import (
    ccdf,
    degree_distribution,
    degrees_from_edges,
    log_binned_distribution,
)
from repro.graph.powerlaw import fit_powerlaw, PowerLawFit
from repro.graph.validation import validate_pa_graph, ValidationReport

__all__ = [
    "EdgeList",
    "PowerLawFit",
    "ValidationReport",
    "ccdf",
    "degree_distribution",
    "degrees_from_edges",
    "fit_powerlaw",
    "log_binned_distribution",
    "validate_pa_graph",
]
