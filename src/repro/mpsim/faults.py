"""Deterministic crash injection for the superstep engines.

The paper's target regime — hundreds of ranks generating billions of edges —
is exactly where rank crashes stop being corner cases.  A :class:`FaultPlan`
is a *seeded, reproducible* list of one-shot ``(rank, at_superstep)``
crashes, applied through the ``fault_plan=`` hook of
:class:`~repro.mpsim.bsp.BSPEngine` and of
:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`: the chosen rank
raises :class:`~repro.mpsim.errors.InjectedFault` (surfaced as
:class:`~repro.mpsim.errors.RankFailure`) just before its ``step()`` of
the scheduled superstep.  The mp engine realises the crash as a real
``SIGKILL`` of the worker.

Crash events are *one-shot*: once fired they are consumed, modelling a
transient fail-stop failure.  Combined with the deterministic engines this
gives the recovery property the test-suite asserts: a run crashed and
recovered through :class:`~repro.mpsim.supervisor.Supervisor` produces a
bit-identical edge list to a fault-free run.

Every crash actually applied is appended to :attr:`FaultPlan.log`, so tests
and operators can audit exactly what the plan did.  The real-process
backend uses :meth:`FaultPlan.consume_crash` to acknowledge a crash that
fired inside a worker it cannot observe directly: a killed process takes
its copy of the plan with it, so the coordinator marks the event fired on
*its* copy when it attributes the death — which is what keeps a supervised
retry from re-killing the respawned rank forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FaultPlan", "FaultRecord"]


@dataclass(frozen=True)
class FaultRecord:
    """One fault the plan actually applied."""

    kind: str  # "crash"
    rank: int
    superstep: int | None = None  # superstep of the fault, if known


class _Crash:
    __slots__ = ("rank", "at_superstep", "fired")

    def __init__(self, rank: int, at_superstep: int) -> None:
        self.rank = rank
        self.at_superstep = at_superstep
        self.fired = False


class FaultPlan:
    """A seeded, reproducible list of one-shot rank crashes.

    Build one explicitly::

        plan = FaultPlan(seed=7).crash(2, at_superstep=3)

    or derive a randomised plan from a single seed (the CLI's
    ``--inject-faults SEED``)::

        plan = FaultPlan.chaos(seed=7, size=16, crashes=1)

    The same seed always produces the same schedule.
    """

    def __init__(self, seed: int | None = 0) -> None:
        self.seed = seed
        self._crashes: list[_Crash] = []
        #: every fault actually applied, in application order
        self.log: list[FaultRecord] = []

    def crash(self, rank: int, at_superstep: int) -> "FaultPlan":
        """Schedule a one-shot crash of ``rank`` just before its ``step()``
        of superstep ``at_superstep`` (or the first superstep past it)."""
        self._crashes.append(_Crash(rank, at_superstep))
        return self

    @classmethod
    def chaos(
        cls,
        seed: int | None,
        size: int,
        crashes: int = 1,
        crash_supersteps: tuple[int, int] = (2, 6),
    ) -> "FaultPlan":
        """Derive a randomised plan for a ``size``-rank job from one seed."""
        plan = cls(seed)
        rng = np.random.default_rng(seed)
        lo, hi = crash_supersteps
        for _ in range(crashes):
            plan.crash(
                int(rng.integers(size)), at_superstep=int(rng.integers(lo, hi + 1))
            )
        return plan

    def should_crash(self, rank: int, superstep: int) -> bool:
        """Engine hook: does ``rank`` crash now?  Fires each event once."""
        for ev in self._crashes:
            if not ev.fired and ev.rank == rank and superstep >= ev.at_superstep:
                ev.fired = True
                self.log.append(FaultRecord("crash", rank, superstep=superstep))
                return True
        return False

    def consume_crash(self, rank: int, superstep: int | None = None) -> bool:
        """Coordinator hook: acknowledge a crash that fired *out of process*.

        The multiprocessing backend realises crash events as real worker
        kills, which destroy the worker's (forked) copy of the plan before it
        can report the event as fired.  When the coordinator attributes the
        death to ``rank``, it calls this on its own copy: the earliest
        unfired crash scheduled for that rank — and, when the death superstep
        is known, not scheduled later than it — is marked fired and logged.
        Returns False (and marks nothing) when no matching crash was pending,
        i.e. the death was organic rather than injected.
        """
        for ev in self._crashes:
            if ev.fired or ev.rank != rank:
                continue
            if superstep is not None and ev.at_superstep > superstep:
                continue
            ev.fired = True
            self.log.append(FaultRecord("crash", rank, superstep=superstep))
            return True
        return False

    @property
    def pending_crashes(self) -> int:
        return sum(not ev.fired for ev in self._crashes)

    def counts(self) -> dict[str, int]:
        """Applied-fault counts by kind (from the log)."""
        out: dict[str, int] = {}
        for rec in self.log:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, crashes={len(self._crashes)}, "
            f"applied={self.counts()})"
        )
