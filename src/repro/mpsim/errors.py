"""Exception hierarchy for the simulated message-passing substrate."""

from __future__ import annotations

__all__ = [
    "MPSimError",
    "DeadlockError",
    "LivelockError",
    "RankFailure",
    "InjectedFault",
    "InvalidRankError",
    "CorruptCheckpointError",
    "UnrecoverableError",
]


class MPSimError(Exception):
    """Base class for all simulator errors."""


class DeadlockError(MPSimError):
    """Raised when no rank can make progress but unreceived work remains.

    The paper discusses exactly this hazard for round-robin partitioning with
    buffered resolved messages (Section 3.5.2): holding resolved messages in a
    partially-filled buffer can create circular waiting.  The event-driven
    engine detects the resulting quiescent-but-unfinished state and raises.
    """

    def __init__(self, message: str, blocked_ranks: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.blocked_ranks = blocked_ranks


class LivelockError(MPSimError):
    """The schedule-exploration watchdog saw no progress for too long.

    Raised by :class:`repro.schedsim.Schedule` when the engine keeps making
    scheduling decisions (deliveries, supersteps) without any rank finishing
    or any slot resolving for more than the configured budget of scheduler
    steps — the bounded-progress definition of livelock.  True deadlocks
    (nothing runnable at all) surface as :class:`DeadlockError` instead; this
    error catches the complementary failure mode where the system spins.
    """

    def __init__(self, message: str, ticks: int = 0, budget: int = 0) -> None:
        super().__init__(message)
        self.ticks = ticks
        self.budget = budget


class RankFailure(MPSimError):
    """A rank failed; wraps the original exception with the rank id.

    Raised for program exceptions on any engine, and — on the real-process
    backend — for worker deaths (a killed or crashed OS process).  When the
    failure superstep is known (e.g. from the dead worker's last heartbeat
    in the exchange fabric, :meth:`repro.mpsim.p2p.P2PFabric.beat`), it is
    carried in :attr:`superstep` so recovery and operators can see
    *where* in the run the rank was lost, not just which rank.
    """

    def __init__(
        self, rank: int, original: BaseException, superstep: int | None = None
    ) -> None:
        at = f" at superstep {superstep}" if superstep is not None else ""
        super().__init__(f"rank {rank} failed{at}: {original!r}")
        self.rank = rank
        self.original = original
        self.superstep = superstep


class InjectedFault(MPSimError):
    """A deliberate failure scheduled by a :class:`~repro.mpsim.faults.FaultPlan`.

    Raised inside the victim rank (wrapped in :class:`RankFailure` by the
    engines) so that recovery machinery sees injected crashes exactly as it
    would see organic ones.
    """


class CorruptCheckpointError(MPSimError):
    """A checkpoint file failed validation (truncated, garbage, or a
    checksum mismatch).  Loaders raise this instead of letting raw
    ``pickle``/``EOFError`` tracebacks escape, so supervisors can fall back
    to an older snapshot."""


class UnrecoverableError(MPSimError):
    """A supervised run exhausted its recovery budget.

    Carries the number of recovery attempts made and the failure that ended
    the run, so callers can distinguish "retried and gave up" from a
    first-strike error.
    """

    def __init__(
        self, message: str, attempts: int = 0, last_error: BaseException | None = None
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class InvalidRankError(MPSimError, ValueError):
    """A rank id outside ``[0, size)`` was used as a source or destination."""
