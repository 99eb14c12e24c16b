"""Supervised execution of BSP jobs with crash recovery.

The paper's algorithms run for hours on hundreds of ranks; at that scale a
rank crash must not cost the whole run.
:class:`Supervisor` wraps an engine's ``run`` in a restart loop.  It is
engine-agnostic: any object satisfying the BSP engine protocol works —
``size``/``stats``/``supersteps``/``simulated_time`` attributes plus
``run(programs, checkpointer=..., initial_inboxes=..., fault_plan=...)``
(and ``tracer=...`` when one is passed) — which covers both the simulated
:class:`~repro.mpsim.bsp.BSPEngine` and the real-process
:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine` (whose failures
are real ``SIGKILL``-ed workers, detected by their sentinels, placed by the
exchange fabric's heartbeat row, and resumed from cross-process checkpoint
shards).  The loop:

1. run the job under a :class:`~repro.mpsim.checkpoint.Checkpointer`;
2. on :class:`~repro.mpsim.errors.RankFailure`, reload the newest *valid*
   snapshot — skipping corrupted generations, and skipping snapshots that a
   previous retry already failed from;
3. rebuild a fresh engine from the snapshot, charge a simulated-time
   restart backoff (exponential per attempt), and continue;
4. if no usable snapshot remains, restart from scratch via the program
   factory — determinism makes even a full replay bit-identical;
5. after ``max_retries`` failed recoveries, raise
   :class:`~repro.mpsim.errors.UnrecoverableError`.

Any other error propagates at once.  A
:class:`~repro.mpsim.errors.DeadlockError` in particular is deterministic:
replaying it would only deadlock again.

During a retry the checkpointer is told not to overwrite snapshots for
ground the replay has already covered (``min_superstep``), so a failing
retry can never rotate away the older snapshots it might still need.

Every recovery is recorded as a :class:`RecoveryEvent` — appended to the
final run's :attr:`~repro.mpsim.stats.WorldStats.recoveries` and, when a
tracer is attached, marked on the timeline — so recoveries are observable,
not silent.

Because rank programs carry their RNG positions in checkpointed state and
both engines are deterministic, a supervised run that crashed and recovered
produces a **bit-identical** edge list to a fault-free run; the test-suite
asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.mpsim.checkpoint import CheckpointData, Checkpointer, load_checkpoint
from repro.mpsim.errors import MPSimError, RankFailure, UnrecoverableError
from repro.mpsim.stats import WorldStats
from repro.telemetry.collector import resolve

__all__ = ["Supervisor", "RecoveryEvent"]


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery the supervisor performed."""

    attempt: int  # 1-based recovery attempt number
    superstep: int  # superstep resumed from (0 = scratch restart)
    backoff: float  # simulated seconds charged for the restart
    error: str  # the failure that triggered recovery (repr)
    checkpoint: str | None  # snapshot file used, None = scratch restart


class Supervisor:
    """Run a BSP job to completion despite injected or organic failures.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable returning a fresh, configured engine —
        :class:`BSPEngine` or
        :class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine` (called
        once per attempt; checkpoint counters are restored onto it when
        resuming).  Real-process engines respawn their whole worker fleet
        per attempt, so a killed worker comes back as a fresh fork resumed
        from the snapshot.
    program_factory:
        Zero-argument callable returning fresh rank programs with their
        initial RNG state — used for the first attempt and for
        restart-from-scratch fallback.
    checkpointer:
        The :class:`Checkpointer` snapshots are written to and recovered
        from.  Use ``keep > 1`` so a corrupted newest snapshot still leaves
        older generations to fall back to.
    max_retries:
        Recovery attempts allowed before giving up with
        :class:`UnrecoverableError`.
    backoff, backoff_factor:
        Simulated-time restart cost: attempt ``k`` charges
        ``backoff * backoff_factor**(k-1)`` seconds to the resumed run's
        virtual clock (modelling failure detection + rank replacement).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  Each attempt gets an
        ``attempt`` span, each recovery a timeline mark (with the superstep
        resumed from), and checkpoint reloads a ``checkpoint.load`` span —
        so a crashed-and-recovered run renders as one continuous annotated
        trace.

    Examples
    --------
    >>> from repro.mpsim.bsp import BSPEngine
    >>> from repro.core.parallel_pa import PAx1RankProgram
    >>> from repro.core.partitioning import make_partition
    >>> from repro.mpsim.faults import FaultPlan
    >>> from repro.rng import StreamFactory
    >>> import tempfile, pathlib
    >>> part = make_partition("rrp", 600, 4)
    >>> def programs():
    ...     f = StreamFactory(3)
    ...     return [PAx1RankProgram(r, part, 0.5, f.stream(r)) for r in range(4)]
    >>> tmp = pathlib.Path(tempfile.mkdtemp())
    >>> sup = Supervisor(lambda: BSPEngine(4), programs,
    ...                  Checkpointer(tmp / "run.ckpt", keep=3))
    >>> engine, progs = sup.run(fault_plan=FaultPlan(0).crash(1, at_superstep=2))
    >>> len(sup.recoveries)
    1
    """

    def __init__(
        self,
        engine_factory: Callable[[], Any],
        program_factory: Callable[[], Sequence[Any]],
        checkpointer: Checkpointer,
        max_retries: int = 3,
        backoff: float = 1.0,
        backoff_factor: float = 2.0,
        telemetry: Any = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.engine_factory = engine_factory
        self.program_factory = program_factory
        self.checkpointer = checkpointer
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.tel = resolve(telemetry)
        #: RecoveryEvents of the most recent :meth:`run`
        self.recoveries: list[RecoveryEvent] = []
        #: checkpoint files skipped as corrupt during the most recent run
        self.skipped_checkpoints: list[str] = []

    # ------------------------------------------------------------------ run
    def run(
        self, fault_plan: Any = None, tracer: Any = None
    ) -> tuple[Any, list[Any]]:
        """Execute to completion; returns the final engine and programs.

        The returned engine's stats carry the cumulative counters of the
        surviving lineage plus every :class:`RecoveryEvent` applied.  For
        real-process engines the programs returned are the parent-side
        copies (final state lives in the workers) — read results off
        ``engine.results`` instead.
        """
        self.recoveries = []
        self.skipped_checkpoints = []
        tried_supersteps: set[int] = set()
        engine = self.engine_factory()
        programs = list(self.program_factory())
        inboxes: list[list[tuple[int, Any]]] | None = None
        attempt = 0

        # only the in-process engine records a timeline
        traced = {} if tracer is None else {"tracer": tracer}
        while True:
            try:
                with self.tel.span("attempt", cat="run", tid=-1, attempt=attempt + 1):
                    stats = engine.run(
                        programs,
                        checkpointer=self.checkpointer,
                        initial_inboxes=inboxes,
                        fault_plan=fault_plan,
                        **traced,
                    )
            except RankFailure as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise UnrecoverableError(
                        f"giving up after {self.max_retries} recovery "
                        f"attempt(s); last failure: {exc}",
                        attempts=self.max_retries,
                        last_error=exc,
                    ) from exc
                delay = self.backoff * self.backoff_factor ** (attempt - 1)
                with self.tel.span("checkpoint.load", cat="checkpoint", tid=-1):
                    data, used = self._pick_checkpoint(tried_supersteps)
                if data is None:
                    # nothing usable on disk: replay from the beginning
                    engine = self.engine_factory()
                    programs = list(self.program_factory())
                    inboxes = None
                    engine.simulated_time += delay
                    self.checkpointer.min_superstep = 0
                    event = RecoveryEvent(attempt, 0, delay, repr(exc), None)
                else:
                    tried_supersteps.add(data.supersteps)
                    engine = self._engine_from(data)
                    engine.simulated_time += delay
                    programs = list(data.programs)
                    inboxes = data.inboxes
                    # don't let the replay rotate away snapshots we may
                    # still need: suppress saves for covered ground
                    newest = self._newest_superstep()
                    self.checkpointer.min_superstep = max(
                        self.checkpointer.min_superstep, newest
                    )
                    event = RecoveryEvent(
                        attempt, data.supersteps, delay, repr(exc), str(used)
                    )
                self.recoveries.append(event)
                label = (
                    f"recovery #{attempt} from "
                    + ("scratch" if event.checkpoint is None else event.checkpoint)
                    + f" (+{delay:g}s backoff)"
                )
                if tracer is not None and hasattr(tracer, "mark"):
                    tracer.mark(event.superstep, label)
                if self.tel.enabled:
                    self.tel.mark(label, superstep=event.superstep)
                continue
            break

        if isinstance(stats, WorldStats):
            for event in self.recoveries:
                stats.record_recovery(event)
        return engine, programs

    # -------------------------------------------------------------- internal
    def _pick_checkpoint(
        self, tried: set[int]
    ) -> tuple[CheckpointData | None, Any]:
        """Newest valid snapshot not already failed-from, or ``(None, None)``."""
        for path in self.checkpointer.history():
            try:
                data = load_checkpoint(path)
            except MPSimError:
                self.skipped_checkpoints.append(str(path))
                continue
            if data.supersteps in tried:
                continue
            return data, path
        return None, None

    def _newest_superstep(self) -> int:
        for path in self.checkpointer.history():
            try:
                return load_checkpoint(path).supersteps
            except MPSimError:
                continue
        return 0

    def _engine_from(self, data: CheckpointData) -> Any:
        engine = self.engine_factory()
        if engine.size != data.size:
            raise MPSimError(
                f"engine factory produced {engine.size} ranks but the "
                f"checkpoint captured {data.size}"
            )
        engine.stats = data.stats
        engine.simulated_time = data.simulated_time
        engine.supersteps = data.supersteps
        return engine
