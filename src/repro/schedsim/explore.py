"""Budgeted schedule-space exploration: sweep, watchdog, shrink, replay.

:func:`explore` runs one generator configuration under many schedules (one
per derived seed) and asserts every run's *outcome* — the SHA-256 of the
canonical edge list, or the canonicalised error — matches the baseline
schedule's.  This is the executable form of the paper's Section 3.4 claim
that the algorithm computes the same network under any message arrival
order: the engines' schedule hooks realise "any order", and the digest
comparison realises "the same network".

When a schedule diverges, the recorded decision sequence is shrunk with
delta debugging (:func:`ddmin` over the non-baseline decisions) to a minimal
reproducer and dumped as a JSON artifact that :func:`replay` — or
``repro-pa explore --replay`` — re-runs exactly.

Fault composition: a fault *spec* (plain dict, JSON-serialisable) is
rebuilt into a fresh :class:`~repro.mpsim.faults.FaultPlan` for every trial,
so crash timing becomes part of the explored space.  Crashes fire at
superstep boundaries, so only ``engine="bsp"`` composes with them.
Multi-crash plans are rejected: which crash fires first would itself be a
function of the schedule and every comparison would be vacuously divergent.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.mpsim.errors import DeadlockError, LivelockError, MPSimError, RankFailure
from repro.mpsim.faults import FaultPlan
from repro.schedsim.policy import BaselinePolicy, Schedule, make_policy
from repro.telemetry.collector import resolve

__all__ = [
    "ScheduleOutcome",
    "Divergence",
    "ExplorationReport",
    "ReplayResult",
    "explore",
    "replay",
    "ddmin",
    "make_fault_plan",
    "dump_artifact",
    "load_artifact",
    "ARTIFACT_KIND",
    "ARTIFACT_VERSION",
]

ARTIFACT_KIND = "repro-schedule"
ARTIFACT_VERSION = 1

#: config keys the default runner understands (and artifacts round-trip)
_CONFIG_KEYS = ("n", "x", "p", "ranks", "scheme", "seed", "engine", "knobs", "fault")


# --------------------------------------------------------------------- faults
def make_fault_plan(spec: Mapping[str, Any] | None) -> FaultPlan | None:
    """Build a fresh :class:`FaultPlan` from a JSON-able spec dict.

    Spec shape::

        {"crashes": [{"rank": 1, "at_superstep": 2}], "seed": 0}

    At most one crash is allowed: with several pending crashes, *which*
    fires first depends on the schedule, so outcomes could not be compared.
    """
    if not spec:
        return None
    unknown = set(spec) - {"crashes", "seed"}
    if unknown:
        raise ValueError(f"unknown fault spec keys: {sorted(unknown)}")
    crashes = list(spec.get("crashes") or [])
    if len(crashes) > 1:
        raise ValueError(
            "explore() allows at most one pending crash: with several, "
            "which fires first is itself schedule-dependent"
        )
    plan = FaultPlan(seed=spec.get("seed", 0))
    for c in crashes:
        if set(c) != {"rank", "at_superstep"}:
            raise ValueError(f"a crash has keys rank and at_superstep, got {sorted(c)}")
        plan.crash(int(c["rank"]), at_superstep=int(c["at_superstep"]))
    return plan


# -------------------------------------------------------------------- running
@dataclass
class ScheduleOutcome:
    """What one scheduled run produced (digest XOR canonical error)."""

    digest: str | None
    error: str | None
    decisions: list[int] = field(default_factory=list)
    deviations: dict[int, int] = field(default_factory=dict)
    ticks: int = 0

    def same_as(self, other: "ScheduleOutcome | Mapping[str, Any]") -> bool:
        if isinstance(other, ScheduleOutcome):
            return self.digest == other.digest and self.error == other.error
        return self.digest == other.get("digest") and self.error == other.get("error")


def _canon_error(exc: BaseException) -> str:
    """Schedule-stable rendering of an engine failure."""
    if isinstance(exc, RankFailure):
        return f"RankFailure(rank={exc.rank})"
    if isinstance(exc, LivelockError):
        return "LivelockError"
    if isinstance(exc, DeadlockError):
        return "DeadlockError"
    return type(exc).__name__


def _default_runner(config: Mapping[str, Any], schedule: Schedule):
    """Run the configured generator under ``schedule``; return the EdgeList.

    The config is validated as a :class:`~repro.core.generator.RunSpec`
    first, so a combination :data:`~repro.core.generator.CONFLICTS` rejects
    raises its one-line :class:`ValueError` before any engine runs.
    """
    from repro.core.generator import RunSpec
    from repro.core.partitioning import make_partition

    plan = make_fault_plan(config.get("fault"))
    spec = RunSpec(
        n=int(config["n"]),
        x=int(config.get("x", 1)),
        p=float(config.get("p", 0.5)),
        ranks=int(config.get("ranks", 4)),
        scheme=str(config.get("scheme", "ecp")),
        seed=config.get("seed", 0),
        engine=str(config.get("engine", "bsp")),
        fault_plan=plan,
    )
    knobs = dict(config.get("knobs") or {})
    part = make_partition(spec.scheme, spec.n, spec.ranks)
    if spec.engine == "bsp":
        from repro.core.generator import rank_programs
        from repro.core.parallel_pa import ResultRegions
        from repro.mpsim.bsp import BSPEngine

        regions = ResultRegions(spec.x, part)
        programs = rank_programs(
            part, spec.x, spec.p, spec.seed, regions=regions,
            canonical_inbox=bool(knobs.get("canonical_inbox", True)),
        )
        BSPEngine(part.P).run(programs, fault_plan=plan, schedule=schedule)
        edges = regions.edges(programs)
    elif spec.engine == "event":
        from repro.core.event_driven import run_event_driven_pa_x1

        edges, _ = run_event_driven_pa_x1(
            spec.n, part, p=spec.p, seed=spec.seed, schedule=schedule,
        )
    else:
        raise ValueError(
            "schedule exploration drives the in-process engines only; "
            f"engine must be 'bsp' or 'event', got {spec.engine!r}"
        )
    return edges


Runner = Callable[[Mapping[str, Any], Schedule], Any]


def _run_one(
    config: Mapping[str, Any], schedule: Schedule, runner: Runner
) -> ScheduleOutcome:
    digest: str | None = None
    error: str | None = None
    try:
        edges = runner(config, schedule)
        digest = hashlib.sha256(np.ascontiguousarray(edges.canonical()).tobytes()).hexdigest()
    except MPSimError as exc:
        error = _canon_error(exc)
    return ScheduleOutcome(
        digest=digest,
        error=error,
        decisions=list(schedule.decisions),
        deviations=schedule.deviations(),
        ticks=schedule.ticks,
    )


# ------------------------------------------------------------------ shrinking
def ddmin(
    positions: Sequence[int],
    test: Callable[[list[int]], bool],
    max_tests: int = 256,
) -> list[int]:
    """Zeller's delta debugging over decision positions.

    ``test(subset)`` must return True when replaying only ``subset`` of the
    deviations still reproduces the divergence.  Returns a subset that still
    fails and from which no single complement-chunk can be removed (1-minimal
    up to the ``max_tests`` budget).
    """
    cur = list(positions)
    if not cur:
        return cur
    n = 2
    tests = 0
    while len(cur) >= 2 and tests < max_tests:
        chunk = max(1, len(cur) // n)
        reduced = False
        for start in range(0, len(cur), chunk):
            cand = cur[:start] + cur[start + chunk :]
            if not cand:
                continue
            tests += 1
            if test(cand):
                cur = cand
                n = max(n - 1, 2)
                reduced = True
                break
            if tests >= max_tests:
                break
        if not reduced:
            if n >= len(cur):
                break
            n = min(len(cur), n * 2)
    return cur


# ------------------------------------------------------------------ artifacts
def dump_artifact(
    path: str,
    config: Mapping[str, Any],
    policy: str,
    policy_seed: int,
    deviations: Mapping[int, int],
    total_decisions: int,
    baseline: ScheduleOutcome,
    observed: ScheduleOutcome,
) -> str:
    """Write a replayable failing-schedule artifact; return ``path``."""
    doc = {
        "version": ARTIFACT_VERSION,
        "kind": ARTIFACT_KIND,
        "config": {k: config.get(k) for k in _CONFIG_KEYS if config.get(k) is not None},
        "policy": policy,
        "policy_seed": int(policy_seed),
        "decisions": {str(k): int(v) for k, v in sorted(deviations.items())},
        "total_decisions": int(total_decisions),
        "baseline": {"digest": baseline.digest, "error": baseline.error},
        "observed": {"digest": observed.digest, "error": observed.error},
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_artifact(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != ARTIFACT_KIND:
        raise ValueError(f"{path!r} is not a {ARTIFACT_KIND} artifact")
    if doc.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact version {doc.get('version')!r} not supported "
            f"(expected {ARTIFACT_VERSION})"
        )
    return doc


@dataclass
class ReplayResult:
    """Outcome of re-running a dumped failing schedule."""

    outcome: ScheduleOutcome
    expected: dict
    baseline: dict
    #: True when the replay produced exactly the artifact's observed outcome
    reproduced: bool
    #: True when the replay still differs from the artifact's baseline
    diverges: bool


def replay(
    artifact: str | Mapping[str, Any],
    runner: Runner | None = None,
    watchdog: int | None = None,
) -> ReplayResult:
    """Re-run a failing-schedule artifact (path or loaded dict) exactly."""
    doc = load_artifact(artifact) if isinstance(artifact, str) else dict(artifact)
    decisions = {int(k): int(v) for k, v in doc.get("decisions", {}).items()}
    schedule = Schedule(replay=decisions, watchdog=watchdog)
    outcome = _run_one(doc["config"], schedule, runner or _default_runner)
    expected = doc.get("observed", {})
    baseline = doc.get("baseline", {})
    return ReplayResult(
        outcome=outcome,
        expected=expected,
        baseline=baseline,
        reproduced=outcome.same_as(expected),
        diverges=not outcome.same_as(baseline),
    )


# ---------------------------------------------------------------- exploration
@dataclass
class Divergence:
    """One schedule whose outcome differed from the baseline's."""

    trial: int
    policy: str
    policy_seed: int
    outcome: ScheduleOutcome
    deviations: dict[int, int]
    minimal: dict[int, int]
    artifact: str | None = None


@dataclass
class ExplorationReport:
    config: dict
    policy: str
    baseline: ScheduleOutcome
    explored: int
    divergences: list[Divergence]
    #: distinct Mazurkiewicz-trace classes seen (DPOR policy only)
    unique_classes: int | None = None
    deduped: int = 0
    watchdog: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _trial_seed(policy_seed: int, i: int) -> int:
    word = np.random.SeedSequence(entropy=policy_seed, spawn_key=(i,)).generate_state(1)
    return int(word[0])


def explore(
    config: Mapping[str, Any],
    policy: str = "random",
    schedules: int = 64,
    policy_seed: int = 0,
    watchdog_factor: int = 10,
    shrink_budget: int = 256,
    runner: Runner | None = None,
    telemetry: Any = None,
    artifact_dir: str | None = None,
) -> ExplorationReport:
    """Sweep ``schedules`` seeded schedules; shrink and dump any divergence.

    Parameters
    ----------
    config:
        Generator configuration (``n``/``x``/``p``/``ranks``/``scheme``/
        ``seed``/``engine``/``knobs``/``fault``) — the dict the runner and
        the replay artifacts share.
    policy:
        Name from :data:`repro.schedsim.POLICIES`.  ``"dpor"`` deduplicates
        trials by Mazurkiewicz-trace signature, drawing up to ``3 ×
        schedules`` seeds to reach ``schedules`` *unique* classes.
    watchdog_factor:
        Each trial's no-progress budget is ``max(1000, watchdog_factor ×
        baseline ticks)``; a trial exceeding it fails with
        ``LivelockError`` (itself a divergence from a clean baseline).
    runner:
        Override the engine dispatch — ``runner(config, schedule)`` must
        return an object with ``canonical()`` (tests use tiny synthetic
        runners to exercise watchdog and shrinking deterministically).
    """
    runner = runner or _default_runner
    tel = resolve(telemetry)
    baseline_schedule = Schedule(BaselinePolicy())
    baseline = _run_one(config, baseline_schedule, runner)
    if baseline.deviations:
        raise RuntimeError("baseline schedule recorded non-canonical decisions")
    budget = max(1000, int(watchdog_factor) * max(baseline.ticks, 1))

    dedupe = policy == "dpor"
    seen_classes: set = set()
    deduped = 0
    divergences: list[Divergence] = []
    explored = 0
    max_draws = 3 * schedules if dedupe else schedules

    for i in range(max_draws):
        if dedupe and len(seen_classes) >= schedules:
            break
        if not dedupe and explored >= schedules:
            break
        seed_i = _trial_seed(policy_seed, i)
        schedule = Schedule(make_policy(policy, seed_i), watchdog=budget)
        with tel.span(
            "schedule_trial", cat="schedsim", tid=-1, trial=i, policy=policy,
            policy_seed=seed_i,
        ):
            outcome = _run_one(config, schedule, runner)
        if dedupe:
            sig = schedule.signature()
            if sig in seen_classes:
                deduped += 1
                continue
            seen_classes.add(sig)
        explored += 1
        if outcome.same_as(baseline):
            continue

        deviations = dict(outcome.deviations)

        def still_fails(subset: list[int]) -> bool:
            rep = {pos: deviations[pos] for pos in subset}
            trial = Schedule(replay=rep, watchdog=budget)
            return not _run_one(config, trial, runner).same_as(baseline)

        minimal_positions = ddmin(
            sorted(deviations), still_fails, max_tests=shrink_budget
        )
        minimal = {pos: deviations[pos] for pos in minimal_positions}
        # The artifact's "observed" outcome is the *minimal* replay's (not
        # the original trial's): shrinking preserves "diverges from
        # baseline", not the exact digest, and replay asserts against what
        # the artifact's own decision set actually produces.
        minimal_outcome = _run_one(
            config, Schedule(replay=minimal, watchdog=budget), runner
        )
        path = None
        if artifact_dir is not None:
            path = os.path.join(
                artifact_dir,
                f"schedule-{config.get('engine', 'bsp')}-{policy}-trial{i}.json",
            )
            dump_artifact(
                path,
                config,
                policy,
                seed_i,
                minimal,
                total_decisions=len(outcome.decisions),
                baseline=baseline,
                observed=minimal_outcome,
            )
        divergences.append(
            Divergence(
                trial=i,
                policy=policy,
                policy_seed=seed_i,
                outcome=outcome,
                deviations=deviations,
                minimal=minimal,
                artifact=path,
            )
        )

    return ExplorationReport(
        config=dict(config),
        policy=policy,
        baseline=baseline,
        explored=explored,
        divergences=divergences,
        unique_classes=len(seen_classes) if dedupe else None,
        deduped=deduped,
        watchdog=budget,
    )
