"""``repro.mpsim`` — a simulated distributed-memory message-passing substrate.

The SC'13 paper runs its algorithms on a 768-rank MPICH2/InfiniBand cluster.
This package substitutes that substrate with a deterministic simulator that
executes the *same* rank-local programs and the *same* message protocol:

* :mod:`repro.mpsim.runtime` — an event-driven engine.  Each rank is a Python
  coroutine (generator) with an mpi4py-flavoured :class:`~repro.mpsim.comm.Comm`
  handle; a virtual clock orders message deliveries and meters per-rank busy
  time through a :class:`~repro.mpsim.costmodel.CostModel`.
* :mod:`repro.mpsim.bsp` — a bulk-synchronous superstep engine whose exchange
  primitive is an ``alltoallv`` over NumPy arrays.  This is the production
  path: it matches the paper's buffered-message implementation (Section 3.5,
  "Message Buffering") and scales to millions of nodes in pure Python.
* :mod:`repro.mpsim.mp_backend` — an optional backend that runs the same BSP
  rank-step functions in real OS processes, proving the rank code is
  genuinely shared-nothing.  Superstep traffic moves peer to peer, as the
  paper's ranks message each other, through the fabric of
  :mod:`repro.mpsim.p2p`: payloads in each sender's memfds, descriptors in
  shared mailbox slots, a shared barrier, and distributed termination
  detection — no parent on the data path, and nothing with a name.  It
  needs Linux (``os.memfd_create``).
* :mod:`repro.mpsim.faults` + :mod:`repro.mpsim.supervisor` — seeded rank
  crashes at superstep boundaries for both superstep engines, and a
  checkpoint-based supervisor that recovers crashed runs bit-identically.

All engines account traffic in :class:`~repro.mpsim.stats.RankStats`, which is
exactly the data the paper's load-balance evaluation (Figure 7) plots.
"""

from repro.mpsim.costmodel import CostModel, MachinePreset
from repro.mpsim.errors import (
    CorruptCheckpointError,
    DeadlockError,
    InjectedFault,
    MPSimError,
    RankFailure,
    UnrecoverableError,
)
from repro.mpsim.stats import RankStats, WorldStats
from repro.mpsim.runtime import Simulator
from repro.mpsim.bsp import BSPEngine, BSPRankContext
from repro.mpsim.faults import FaultPlan, FaultRecord
from repro.mpsim.checkpoint import Checkpointer, load_checkpoint, load_latest_valid, resume
from repro.mpsim.mp_backend import MultiprocessingBSPEngine
from repro.mpsim.supervisor import RecoveryEvent, Supervisor

__all__ = [
    "BSPEngine",
    "BSPRankContext",
    "Checkpointer",
    "CorruptCheckpointError",
    "CostModel",
    "DeadlockError",
    "FaultPlan",
    "FaultRecord",
    "InjectedFault",
    "MachinePreset",
    "MPSimError",
    "MultiprocessingBSPEngine",
    "RankFailure",
    "RankStats",
    "RecoveryEvent",
    "Simulator",
    "Supervisor",
    "UnrecoverableError",
    "WorldStats",
    "load_checkpoint",
    "load_latest_valid",
    "resume",
]
