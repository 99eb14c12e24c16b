"""Deterministic fault injection for both mpsim engines.

The paper's target regime — hundreds of ranks generating billions of edges —
is exactly where rank crashes, lost or duplicated messages, and stragglers
stop being corner cases.  A :class:`FaultPlan` is a *seeded, reproducible*
schedule of such faults, applied through the ``fault_plan=`` hook of
:class:`~repro.mpsim.bsp.BSPEngine` and of the event-driven
:class:`~repro.mpsim.runtime.Simulator`:

* **crashes** — a chosen rank raises
  :class:`~repro.mpsim.errors.InjectedFault` (surfaced as
  :class:`~repro.mpsim.errors.RankFailure`) at a scheduled superstep or
  virtual time;
* **drops / duplications** — individual messages are discarded or delivered
  twice at exchange time, from a bounded budget so a supervised retry can
  eventually run clean;
* **stragglers** — selected ranks have their per-superstep compute (BSP) or
  message latency (event engine) inflated by a constant factor.

Crash events are *one-shot*: once fired they are consumed, modelling a
transient fail-stop failure.  Combined with the deterministic engines this
gives the recovery property the test-suite asserts: a run crashed and
recovered through :class:`~repro.mpsim.supervisor.Supervisor` produces a
bit-identical edge list to a fault-free run.

Every fault actually applied is appended to :attr:`FaultPlan.log`, so tests
and operators can audit exactly what the plan did.

Engines differ in which fault kinds they can physically realise, so a plan
exposes its *pending* fault kinds through :meth:`FaultPlan.capabilities`
(machine-checkable capability strings) — the API backends use to accept or
reject a plan, instead of peeking at private fields.  The real-process
backend additionally uses :meth:`FaultPlan.consume_crash` to acknowledge a
crash that fired inside a worker it cannot observe directly: a killed
process takes its copy of the plan with it, so the coordinator marks the
event fired on *its* copy when it attributes the death — which is what keeps
a supervised retry from re-killing the respawned rank forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "FaultPlan",
    "FaultRecord",
    "CAP_CRASH_SUPERSTEP",
    "CAP_CRASH_TIME",
    "CAP_DROP",
    "CAP_DUPLICATE",
    "CAP_STRAGGLE",
]

#: capability strings returned by :meth:`FaultPlan.capabilities`
CAP_CRASH_SUPERSTEP = "crash:superstep"
CAP_CRASH_TIME = "crash:time"
CAP_DROP = "drop"
CAP_DUPLICATE = "duplicate"
CAP_STRAGGLE = "straggle"

#: message fates returned by :meth:`FaultPlan.message_fate`
DELIVER, DROP, DUPLICATE = 1, 0, 2


@dataclass(frozen=True)
class FaultRecord:
    """One fault the plan actually applied."""

    kind: str  # "crash" | "drop" | "duplicate" | "straggle"
    rank: int  # crashed/straggling rank, or the message's source rank
    dest: int | None = None  # message destination (drop/duplicate only)
    superstep: int | None = None  # BSP superstep of the fault, if known
    time: float | None = None  # virtual time of the fault, if known


class _Crash:
    __slots__ = ("rank", "at_superstep", "at_time", "fired")

    def __init__(self, rank: int, at_superstep: int | None, at_time: float | None) -> None:
        if at_superstep is None and at_time is None:
            raise ValueError("crash needs at_superstep or at_time")
        self.rank = rank
        self.at_superstep = at_superstep
        self.at_time = at_time
        self.fired = False


class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    Build one explicitly::

        plan = FaultPlan(seed=7).crash(2, at_superstep=3).straggle(0, factor=8)

    or derive a randomised plan from a single seed (the CLI's
    ``--inject-faults SEED``)::

        plan = FaultPlan.chaos(seed=7, size=16, crashes=1, drops=5)

    The same seed always produces the same schedule, and — because both
    engines iterate messages deterministically — the same fault sequence.
    """

    def __init__(self, seed: int | None = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._crashes: list[_Crash] = []
        self.drop_rate = 0.0
        self.duplicate_rate = 0.0
        self._drops_left = 0
        self._duplicates_left = 0
        self._stragglers: dict[int, float] = {}
        #: every fault actually applied, in application order
        self.log: list[FaultRecord] = []

    # ------------------------------------------------------------- building
    def crash(
        self, rank: int, at_superstep: int | None = None, at_time: float | None = None
    ) -> "FaultPlan":
        """Schedule a one-shot crash of ``rank``.

        ``at_superstep`` fires in the BSP engine just before the rank's
        ``step()`` of that superstep; ``at_time`` fires in the event-driven
        engine at the rank's next send or compute charge past that virtual
        time (either bound may fire in either engine if both are set).
        """
        self._crashes.append(_Crash(rank, at_superstep, at_time))
        return self

    def drop(self, count: int, rate: float = 0.05) -> "FaultPlan":
        """Drop up to ``count`` messages, each with probability ``rate``."""
        self._drops_left += count
        self.drop_rate = rate
        return self

    def duplicate(self, count: int, rate: float = 0.05) -> "FaultPlan":
        """Deliver up to ``count`` messages twice, each with probability ``rate``."""
        self._duplicates_left += count
        self.duplicate_rate = rate
        return self

    def straggle(self, rank: int, factor: float = 5.0) -> "FaultPlan":
        """Inflate ``rank``'s compute time / message latency by ``factor``."""
        if factor < 1.0:
            raise ValueError(f"straggle factor must be >= 1, got {factor}")
        self._stragglers[rank] = factor
        return self

    @classmethod
    def chaos(
        cls,
        seed: int | None,
        size: int,
        crashes: int = 1,
        drops: int = 0,
        duplicates: int = 0,
        stragglers: int = 0,
        straggle_factor: float = 5.0,
        crash_supersteps: tuple[int, int] = (2, 6),
        rate: float = 0.05,
    ) -> "FaultPlan":
        """Derive a randomised plan for a ``size``-rank job from one seed."""
        plan = cls(seed)
        rng = plan._rng
        lo, hi = crash_supersteps
        for _ in range(crashes):
            plan.crash(
                int(rng.integers(size)), at_superstep=int(rng.integers(lo, hi + 1))
            )
        if drops:
            plan.drop(drops, rate=rate)
        if duplicates:
            plan.duplicate(duplicates, rate=rate)
        for r in _sample_ranks(rng, size, stragglers):
            plan.straggle(r, factor=straggle_factor)
        return plan

    # --------------------------------------------------------- engine hooks
    def should_crash(
        self, rank: int, superstep: int | None = None, time: float | None = None
    ) -> bool:
        """Engine hook: does ``rank`` crash now?  Fires each event once."""
        for ev in self._crashes:
            if ev.fired or ev.rank != rank:
                continue
            due = (
                ev.at_superstep is not None
                and superstep is not None
                and superstep >= ev.at_superstep
            ) or (ev.at_time is not None and time is not None and time >= ev.at_time)
            if due:
                ev.fired = True
                self.log.append(
                    FaultRecord("crash", rank, superstep=superstep, time=time)
                )
                return True
        return False

    def message_fate(
        self, source: int, dest: int, superstep: int | None = None
    ) -> int:
        """Engine hook: deliver this message 1, 0 (drop), or 2 (dup) times.

        Draws consume the plan's RNG only while a fault budget remains, so a
        plan with exhausted budgets is a transparent pass-through (and a
        supervised retry eventually replays clean).
        """
        if self._drops_left > 0 and self._rng.random() < self.drop_rate:
            self._drops_left -= 1
            self.log.append(FaultRecord("drop", source, dest=dest, superstep=superstep))
            return DROP
        if self._duplicates_left > 0 and self._rng.random() < self.duplicate_rate:
            self._duplicates_left -= 1
            self.log.append(
                FaultRecord("duplicate", source, dest=dest, superstep=superstep)
            )
            return DUPLICATE
        return DELIVER

    def straggle_multiplier(self, rank: int) -> float:
        """Engine hook: time-inflation factor for ``rank`` (1.0 = healthy)."""
        return self._stragglers.get(rank, 1.0)

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
            if (
                superstep is not None
                and ev.at_superstep is not None
                and ev.at_superstep > superstep
            ):
                continue
            ev.fired = True
            self.log.append(FaultRecord("crash", rank, superstep=superstep))
            return True
        return False

    # ------------------------------------------------------------ inspection
    @property
    def pending_crashes(self) -> int:
        return sum(not ev.fired for ev in self._crashes)

    def capabilities(self) -> frozenset[str]:
        """The fault kinds this plan can still apply, as capability strings.

        Backends use this to accept or reject a plan without reaching into
        private fields: ``crash:superstep`` / ``crash:time`` for pending
        crashes (by how they are scheduled), ``drop`` / ``duplicate`` for
        remaining message-fate budget, and ``straggle`` for slow ranks.
        A crash scheduled by *both* superstep and time counts as
        ``crash:superstep`` — any engine with a superstep counter can fire
        it.
        """
        caps: set[str] = set()
        for ev in self._crashes:
            if ev.fired:
                continue
            caps.add(
                CAP_CRASH_SUPERSTEP if ev.at_superstep is not None else CAP_CRASH_TIME
            )
        if self._drops_left > 0:
            caps.add(CAP_DROP)
        if self._duplicates_left > 0:
            caps.add(CAP_DUPLICATE)
        if self._stragglers:
            caps.add(CAP_STRAGGLE)
        return frozenset(caps)

    def has_drops(self) -> bool:
        """True while message-drop budget remains unspent."""
        return self._drops_left > 0

    def has_duplicates(self) -> bool:
        """True while message-duplication budget remains unspent."""
        return self._duplicates_left > 0

    @property
    def straggler_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self._stragglers))

    def counts(self) -> dict[str, int]:
        """Applied-fault counts by kind (from the log)."""
        out: dict[str, int] = {}
        for rec in self.log:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, crashes={len(self._crashes)}, "
            f"drops_left={self._drops_left}, duplicates_left={self._duplicates_left}, "
            f"stragglers={self.straggler_ranks}, applied={self.counts()})"
        )


def _sample_ranks(rng: np.random.Generator, size: int, k: int) -> Iterable[int]:
    if k <= 0:
        return ()
    k = min(k, size)
    return (int(r) for r in rng.choice(size, size=k, replace=False))
