"""Sequential preferential-attachment generators (Section 3.1 of the paper).

This subpackage provides the sequential algorithms the paper discusses or
compares against:

* :mod:`repro.seq.ba_naive` — the Θ(n²) degree-scan Barabási–Albert
  implementation (the paper's strawman);
* :mod:`repro.seq.batagelj_brandes` — the O(m) repeated-nodes-list algorithm
  of Batagelj & Brandes, the efficient sequential baseline (what NetworkX
  implements);
* :mod:`repro.seq.copy_model` — the copy model of Kumar et al., the basis of
  the parallel algorithms; exact BA dynamics at ``p = 1/2``;
* :mod:`repro.seq.commfree_ref` — scalar oracle for the communication-free
  generators of :mod:`repro.core.commfree` (bit-identity reference);

All generators return a :class:`repro.graph.edgelist.EdgeList` and accept a
``rng``/``seed`` for reproducibility.
"""

from repro.seq.ba_naive import ba_naive
from repro.seq.batagelj_brandes import batagelj_brandes
from repro.seq.commfree_ref import commfree_reference
from repro.seq.copy_model import copy_model, copy_model_x1

__all__ = [
    "ba_naive",
    "batagelj_brandes",
    "commfree_reference",
    "copy_model",
    "copy_model_x1",
]
