"""Top-level generation facade — the one-call public API.

:func:`generate` wraps partition construction, RNG stream management, engine
selection, and result packaging:

.. code-block:: python

    from repro import generate

    result = generate(n=100_000, x=4, ranks=16, scheme="rrp", seed=42)
    result.validate().raise_if_failed()
    print(result.edges, result.simulated_time, result.imbalance)

Engines:

``"bsp"`` (default)
    the production bulk-synchronous implementation (Algorithms 3.1/3.2 with
    the paper's message buffering taken to its superstep conclusion);
``"event"``
    the literal per-message pseudocode on the event-driven simulator (small
    ``n`` — used for demonstrations and cross-validation);
``"sequential"``
    the sequential copy model (``ranks`` must be 1), the ``T_s`` baseline;
``"mp"``
    the same rank programs in real OS processes
    (:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`), whose
    ranks exchange superstep traffic peer to peer.

Orthogonally to the engine, ``generator="commfree"`` swaps the copy-model
message pipeline for the communication-free family
(:mod:`repro.core.commfree`): ranks recompute foreign endpoints from
counter-based randomness instead of requesting them, so the ``mp`` surface
degenerates to embarrassingly-parallel slice workers with no exchange at
all.

Which knobs combine is decided in one place: :data:`CONFLICTS` lists every
rejected combination with its one-line reason, and :func:`check_run` applies
it before anything is forked or written (the CLI calls it too).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.commfree import (
    commfree,
    commfree_edge_counts,
    commfree_edge_slice,
    commfree_mp,
    commfree_slices,
    stream_commfree_x1,
)
from repro.core.parallel_pa import PAx1RankProgram, ResultRegions
from repro.core.parallel_pa_general import PAGeneralRankProgram
from repro.core.partitioning import Partition, make_partition
from repro.core.streaming import stream_copy_model_x1
from repro.graph.degree import degrees_from_edges
from repro.graph.edgelist import EdgeList
from repro.graph.validation import ValidationReport, validate_pa_graph
from repro.mpsim.bsp import BSPEngine
from repro.mpsim.checkpoint import Checkpointer
from repro.mpsim.costmodel import CostModel
from repro.mpsim.faults import FaultPlan
from repro.mpsim.mp_backend import MultiprocessingBSPEngine, _check_mp_fault_plan
from repro.mpsim.supervisor import Supervisor
from repro.rng import StreamFactory
from repro.seq.copy_model import copy_model
from repro.telemetry.collector import resolve

__all__ = [
    "CONFLICTS", "Conflict", "GenerationResult", "check_run", "generate", "rank_programs",
]


@dataclass
class GenerationResult:
    """Everything a run produced: the graph plus execution telemetry."""

    edges: EdgeList
    n: int
    x: int
    p: float
    scheme: str
    ranks: int
    engine: str
    seed: int | None
    #: simulated parallel runtime (seconds under the cost model); equals the
    #: sequential compute estimate when ``ranks == 1``/sequential engine
    simulated_time: float
    #: BSP supersteps (0 for sequential)
    supersteps: int
    #: per-rank outgoing request-message counts (Figure 7b)
    requests_sent: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: per-rank incoming request-message counts (Figure 7c)
    requests_received: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: per-rank node counts (Figure 7a)
    nodes_per_rank: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: engine statistics object, when a parallel engine ran
    world_stats: Any = None
    #: supervised crash-recovery events
    #: (:class:`repro.mpsim.supervisor.RecoveryEvent`) applied during the
    #: run — empty unless faults were injected or a recovery happened
    recoveries: list = field(default_factory=list)
    #: the :class:`repro.mpsim.faults.FaultPlan` the run executed under
    #: (``None`` for fault-free runs); its ``log`` lists every applied fault
    fault_plan: Any = None

    @property
    def total_load_per_rank(self) -> np.ndarray:
        """The paper's total-load metric per rank (Figure 7d)."""
        return self.nodes_per_rank + self.requests_sent + self.requests_received

    @property
    def imbalance(self) -> float:
        """max/mean of the total load (1.0 = perfect balance)."""
        loads = self.total_load_per_rank
        if loads.size == 0 or loads.mean() == 0:
            return 1.0
        return float(loads.max() / loads.mean())

    def degrees(self) -> np.ndarray:
        return degrees_from_edges(self.edges, self.n)

    def validate(self) -> ValidationReport:
        return validate_pa_graph(self.edges, self.n, self.x)


class Conflict(NamedTuple):
    """One row of :data:`CONFLICTS`."""

    #: short label for the combination
    name: str
    #: predicate over :func:`generate`'s keywords (plus ``nranks``,
    #: ``checkpointing`` and ``faults``, see :func:`check_run`); true means
    #: rejected
    when: Callable[[SimpleNamespace], bool]
    #: the one-line reason, ``str.format``-ed with :func:`generate`'s keywords
    reason: str


#: Every combination of :func:`generate` keywords that is rejected, in the
#: order :func:`check_run` tests them; the first matching row's reason is
#: the error.
CONFLICTS: tuple[Conflict, ...] = (
    Conflict(
        "unknown-generator", lambda k: k.generator not in ("copy", "commfree"),
        "unknown generator {generator!r}; choose 'copy' or 'commfree'",
    ),
    Conflict(
        "unknown-engine",
        lambda k: k.engine not in ("bsp", "event", "sequential", "mp"),
        "unknown engine {engine!r}; choose bsp, event, sequential, or mp",
    ),
    Conflict("x", lambda k: k.x < 1, "x must be >= 1, got x={x}"),
    Conflict(
        "p", lambda k: not 0 < k.p <= 1 or (k.p == 1 and k.x > 1),
        "p must be in (0, 1], and below 1 when x > 1 (p=1 leaves node x+1 "
        "one direct target for its x edges), got p={p}, x={x}",
    ),
    Conflict(
        "ranks", lambda k: k.partition is None and k.ranks < 1,
        "ranks must be >= 1, got ranks={ranks}",
    ),
    Conflict(
        "n-not-above-x", lambda k: k.x > 1 and k.n <= k.x,
        "need n > x, got n={n}, x={x}",
    ),
    Conflict(
        "partition-size", lambda k: k.partition is not None and k.partition.n != k.n,
        "partition covers n={partition.n}, requested n={n}",
    ),
    Conflict(
        "spill-budget",
        lambda k: k.out_of_core is not None and k.spill_budget_bytes < 1,
        "spill_budget_bytes must be >= 1, got {spill_budget_bytes}",
    ),
    Conflict(
        "out-of-core-event",
        lambda k: k.out_of_core is not None and k.engine == "event",
        "out_of_core= bounds edge memory, and the event-driven simulator is a "
        "small-n demonstrator — use engine='bsp' or 'mp'",
    ),
    Conflict(
        "out-of-core-sequential-x",
        lambda k: k.out_of_core is not None and k.engine == "sequential"
        and k.x != 1,
        "sequential out-of-core needs a streaming emitter, and only x=1 has "
        "one — use engine='bsp' or 'mp', or x=1",
    ),
    Conflict(
        "out-of-core-checkpoint",
        lambda k: k.out_of_core is not None and k.checkpointing,
        "out_of_core= and checkpointing would combine two shard lifecycles, "
        "which is not supported — drop checkpoint_path/checkpoint_dir",
    ),
    Conflict(
        "commfree-faults", lambda k: k.generator == "commfree" and k.faults,
        "commfree has no distributed state to crash: rerunning a slice is the "
        "recovery — drop fault_plan/fault_seed",
    ),
    Conflict(
        "commfree-checkpoint", lambda k: k.generator == "commfree" and k.checkpointing,
        "commfree has nothing to snapshot: any slice is recomputable from "
        "the seed alone — drop checkpoint_path/checkpoint_dir",
    ),
    Conflict(
        "commfree-schedule",
        lambda k: k.generator == "commfree" and k.schedule is not None,
        "schedule= permutes message delivery order; commfree exchanges no "
        "messages — drop schedule=",
    ),
    Conflict(
        "commfree-partition",
        lambda k: k.generator == "commfree" and k.partition is not None,
        "commfree owns contiguous node slices, which is what reproduces the "
        "sequential edge order — drop partition=",
    ),
    Conflict(
        "commfree-event", lambda k: k.generator == "commfree" and k.engine == "event",
        "a zero-message algorithm leaves the event-driven simulator nothing "
        "to simulate — use engine 'sequential', 'bsp', or 'mp'",
    ),
    Conflict(
        "schedule-engine",
        lambda k: k.schedule is not None and k.engine not in ("bsp", "event"),
        "schedule= permutes the in-process engines' choice points; "
        "engine={engine!r} does not expose them (use 'bsp' or 'event')",
    ),
    Conflict(
        "schedule-supervised",
        lambda k: k.schedule is not None and k.checkpoint_dir is not None,
        "schedule= is single-use, so a supervised re-run would replay a "
        "half-consumed decision stream — drop checkpoint_dir=",
    ),
    Conflict(
        "barrier-timeout", lambda k: not k.barrier_timeout > 0,
        "barrier_timeout must be > 0 seconds, got {barrier_timeout}",
    ),
    Conflict(
        "sequential-ranks", lambda k: k.engine == "sequential" and k.nranks != 1,
        "sequential engine requires ranks=1 and no multi-rank partition",
    ),
    Conflict(
        "sequential-faults", lambda k: k.engine == "sequential" and k.faults,
        "fault injection requires a parallel engine",
    ),
    Conflict(
        "checkpoint-engine",
        lambda k: k.checkpointing and k.engine in ("sequential", "event"),
        "checkpointing needs superstep boundaries to snapshot at and "
        "engine={engine!r} has none — use engine='bsp' or 'mp'",
    ),
)


def check_run(**knobs: Any) -> None:
    """Reject an invalid :func:`generate` call before it forks or writes.

    Takes :func:`generate`'s keywords and raises :class:`ValueError` with
    the reason of the first matching :data:`CONFLICTS` row.  On
    ``engine="mp"`` it also rejects fault plans real processes cannot
    realise.
    """
    bound = inspect.signature(generate).bind(**knobs)
    bound.apply_defaults()
    k = SimpleNamespace(**bound.arguments)
    k.nranks = _nranks(k.partition, k.ranks)
    k.checkpointing = k.checkpoint_path is not None or k.checkpoint_dir is not None
    k.faults = k.fault_plan is not None or k.fault_seed is not None
    for row in CONFLICTS:
        if row.when(k):
            raise ValueError(row.reason.format(**bound.arguments))
    if k.engine == "mp":
        _check_mp_fault_plan(k.fault_plan)


def _nranks(partition: Partition | None, ranks: int) -> int:
    """The run's rank count: a given partition's, else ``ranks``."""
    return partition.P if partition is not None else ranks


def generate(
    n: int,
    x: int = 1,
    p: float = 0.5,
    ranks: int = 1,
    scheme: str = "rrp",
    seed: int | None = None,
    engine: str = "bsp",
    partition: Partition | None = None,
    cost_model: CostModel | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_keep: int = 3,
    fault_plan: Any = None,
    fault_seed: int | None = None,
    max_retries: int = 3,
    barrier_timeout: float = 120.0,
    telemetry: Any = None,
    schedule: Any = None,
    generator: str = "copy",
    out_of_core: str | None = None,
    spill_budget_bytes: int = 64 << 20,
) -> GenerationResult:
    """Generate a preferential-attachment network.

    Knobs that do not combine (say ``out_of_core`` with checkpointing, or
    ``schedule`` with an engine other than ``"bsp"``/``"event"``) are
    rejected up front with a one-line :class:`ValueError`; :data:`CONFLICTS`
    lists every rule and its reason.

    Parameters
    ----------
    n:
        Number of nodes.
    x:
        Edges contributed by each new node.
    p:
        Copy-model direct-attachment probability (``0.5`` = exact BA).
    ranks:
        Number of simulated processors.
    scheme:
        Partitioning scheme: ``"ucp"``, ``"lcp"``, or ``"rrp"``.
    generator:
        ``"copy"`` (default) — the paper's copy-model pipeline, in which
        ranks resolve dangling attachments through message exchange;
        ``"commfree"`` — the communication-free family
        (:mod:`repro.core.commfree`): every draw is a pure function of
        ``(seed, slot)``, ranks recompute foreign endpoints locally, and
        no messages exist to exchange.  Runs on the ``"sequential"``,
        ``"bsp"`` (in-process slices), and ``"mp"`` (one forked worker per
        slice) engines.  Same attachment statistics as the copy model, but
        a *different* graph at equal seeds (different draw protocol).
    seed:
        Root seed; identical inputs reproduce the identical graph.
    engine:
        ``"bsp"``, ``"event"``, ``"sequential"``, or ``"mp"`` (see module
        docstring).
    partition:
        Pre-built partition (overrides ``ranks``/``scheme``).
    cost_model:
        Virtual-time charges for the simulated cluster.
    checkpoint_path, checkpoint_every:
        When ``checkpoint_path`` is set (``bsp`` and ``mp`` engines), the
        run snapshots its complete state there every ``checkpoint_every``
        supersteps; crash recovery via
        :func:`repro.mpsim.checkpoint.resume` is bit-exact.  On ``mp``,
        workers write per-rank shards and the coordinator commits each
        complete cut as an ordinary manifest, so the snapshot is loadable by
        either engine.
    checkpoint_dir, checkpoint_keep:
        When ``checkpoint_dir`` is set (``bsp`` and ``mp`` engines),
        snapshots rotate through ``checkpoint_keep`` generations under that
        directory and the run executes under a
        :class:`repro.mpsim.supervisor.Supervisor`: rank crashes and
        deadlocks — on ``mp``, real ``SIGKILL``-ed worker processes — are
        recovered automatically (up to ``max_retries`` times) and recorded
        in the result's ``recoveries``.
    fault_plan, fault_seed:
        Inject faults: either an explicit
        :class:`repro.mpsim.faults.FaultPlan`, or a seed from which a
        default chaos plan (one scheduled rank crash) is derived.  With a
        supervised run (``checkpoint_dir``) the output is still
        bit-identical to the fault-free graph; without supervision failures
        propagate to the caller.
    max_retries:
        Recovery budget for supervised runs.
    barrier_timeout:
        Last-resort wall-clock bound (seconds) on one ``engine="mp"``
        superstep barrier.  Worker deaths are detected by the
        coordinator within one liveness poll and abort the barrier, so this
        only matters for organically wedged (not dead) ranks.
    schedule:
        Optional :class:`repro.schedsim.Schedule` permuting message delivery
        and rank activation order in the in-process ``bsp``/``event``
        engines (the real-process backend's interleavings are the OS's to
        make).  Used by ``repro-pa explore``; see
        ``docs/schedule_exploration.md``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; the run's spans and
        metrics (across every engine, including mp worker processes) land on
        it for export — ``telemetry.to_chrome_trace("run.trace.json")``,
        ``telemetry.to_prometheus()`` — see ``docs/observability.md``.
        Observation-only: the generated graph is bit-identical with
        telemetry on or off.
    out_of_core, spill_budget_bytes:
        When ``out_of_core`` names a directory, the run spills its edges to
        disk instead of accumulating them in RAM: the coordinator pre-sizes
        the final ``u``/``v`` columns, every worker/rank writes its edges
        straight into its own region and seals a sha256 manifest, and the
        coordinator verifies every region before adopting the files (never
        copying an edge).  ``result.edges`` is a
        :class:`repro.core.spill.SpillEdgeList`; ``spill_budget_bytes``
        (default 64 MiB) bounds its in-RAM write buffer and the
        verification reads.  The ``sequential`` engine spills through the
        ``x=1`` streaming emitters.  Output is **bit-identical** to the
        in-RAM path at every rank count.  See ``docs/performance.md``
        (out-of-core section) for the format and the RSS budget semantics.

    Examples
    --------
    >>> r = generate(2000, x=3, ranks=8, seed=1)
    >>> r.validate().ok
    True
    >>> len(r.edges)
    5994
    """
    knobs = dict(locals())  # the keywords are the run spec
    check_run(**knobs)

    nranks = _nranks(partition, ranks)
    plan = fault_plan
    if plan is None and fault_seed is not None:
        plan = FaultPlan.chaos(fault_seed, nranks, crashes=1)
    tel = resolve(telemetry)
    if tel.enabled:
        tel.meta.update(
            engine=engine, generator=generator, n=n, x=x, p=p, ranks=nranks,
            scheme="contig" if generator == "commfree" else scheme, seed=seed,
        )

    if engine == "sequential" or generator == "commfree":
        if engine == "sequential":
            edges, sizes = _run_sequential(tel, **knobs), np.array([n], np.int64)
        else:
            edges, sizes = _run_commfree_slices(tel, **knobs)
        # one-shot runs: pure compute, split perfectly over the ranks
        cost = cost_model or CostModel()
        run = dict(
            edges=edges, scheme="contig" if generator == "commfree" else "none",
            ranks=nranks, nodes_per_rank=sizes, supersteps=0,
            simulated_time=cost.compute_time(n, work_items=len(edges)) / nranks,
            requests_sent=np.zeros(nranks, np.int64),
            requests_received=np.zeros(nranks, np.int64),
        )
    else:
        part = partition if partition is not None else make_partition(scheme, n, ranks)
        if engine == "event":
            from repro.core.event_driven import run_event_driven_pa

            with tel.span("event.run", cat="run", tid=-1, n=n, x=x) as sp:
                edges, sim = run_event_driven_pa(
                    n, x, part, p=p, seed=seed, cost_model=cost_model,
                    fault_injector=plan, schedule=schedule,
                )
                sp.note(virtual_total_s=sim.makespan)
            run = dict(
                edges=edges, simulated_time=sim.makespan, supersteps=0,
                requests_sent=np.zeros(part.P, np.int64),
                requests_received=np.zeros(part.P, np.int64),
                world_stats=sim.stats,
            )
        else:
            run = _run_supersteps(part, plan, **knobs)
        run.update(scheme=part.scheme, ranks=part.P, nodes_per_rank=part.sizes())
    return GenerationResult(
        n=n, x=x, p=p, engine=engine, seed=seed, fault_plan=plan, **run
    )


def rank_programs(
    part: Partition,
    x: int,
    p: float,
    seed: int | None,
    *,
    queue_factory: Any = None,
    regions: ResultRegions | None = None,
    canonical_inbox: bool = True,
) -> list:
    """One copy-model rank program per rank of ``part``, rank ``r`` drawing
    from stream ``r`` of ``seed``.

    ``x = 1`` builds Algorithm 3.1's :class:`PAx1RankProgram`; with
    ``regions`` each resolves straight into its
    :meth:`ResultRegions.x1_region` of the output column.  Larger ``x``
    builds Algorithm 3.2's :class:`PAGeneralRankProgram`;
    ``canonical_inbox=False`` lets delivery order reach its arbitration (the
    schedule fuzzer's injected bug).  ``queue_factory`` backs the wait
    queues (out-of-core runs pass a spill factory).
    """
    rngs = StreamFactory(seed)
    if x == 1:
        return [
            PAx1RankProgram(
                r, part, p, rngs.stream(r), queue_factory=queue_factory,
                out=None if regions is None else regions.x1_region(r),
            )
            for r in range(part.P)
        ]
    return [
        PAGeneralRankProgram(
            r, part, x, p, rngs.stream(r),
            canonical_inbox=canonical_inbox, queue_factory=queue_factory,
        )
        for r in range(part.P)
    ]


def _run_supersteps(
    part, plan, *, engine, n, x, p, seed, cost_model,
    checkpoint_path, checkpoint_every, checkpoint_dir, checkpoint_keep,
    max_retries, barrier_timeout, telemetry, schedule,
    out_of_core, spill_budget_bytes, **_rest,
) -> dict:
    """Run the copy model's rank programs to quiescence on a superstep engine.

    ``engine="bsp"`` drives them in-process (:class:`BSPEngine`), ``"mp"`` in
    forked workers (:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`).
    ``checkpoint_dir`` runs under a
    :class:`~repro.mpsim.supervisor.Supervisor` that recovers crashes from
    rotated snapshots, bit-identically; ``checkpoint_path`` snapshots without
    supervision.  In RAM, every rank's result lands in its region of one
    pair of preallocated columns (:class:`ResultRegions`); in-process x=1
    programs resolve straight into theirs.  With ``out_of_core`` the
    programs' wait queues are memmap-backed and each rank writes its result
    into its region of the final columns on disk, which are verified and
    adopted at the end.  Returns the run's :class:`GenerationResult` fields.
    """
    offsets = regions = None
    if out_of_core is not None:
        from repro.core import spill

        offsets = spill.prepare_regions(
            out_of_core, spill.rank_edge_counts(x, part.sizes(), part.owner)
        )
    else:
        regions = ResultRegions(x, part)
    # in-process x=1 ranks resolve straight into the output column
    in_place = regions is not None and x == 1 and engine != "mp"

    def build_programs() -> list:
        qf = None
        if offsets is not None:
            qf = spill.SpillQueueFactory(Path(out_of_core) / "queues")
        progs = rank_programs(
            part, x, p, seed, queue_factory=qf, regions=regions if in_place else None
        )
        if offsets is None:
            return progs
        # each rank writes its region when asked for its result (inside its
        # worker on mp), so only a small sealed manifest travels back
        return [
            spill.SpillResultProgram(prog, out_of_core, r, offsets)
            for r, prog in enumerate(progs)
        ]

    def build_engine():
        if engine == "mp":
            return MultiprocessingBSPEngine(
                part.P, cost_model=cost_model,
                barrier_timeout=barrier_timeout, telemetry=telemetry,
            )
        return BSPEngine(part.P, cost_model=cost_model, telemetry=telemetry)

    checkpointer = None
    if checkpoint_dir is not None or checkpoint_path is not None:
        rotated = checkpoint_dir is not None
        checkpointer = Checkpointer(
            Path(checkpoint_dir) / "run.ckpt" if rotated else checkpoint_path,
            every=checkpoint_every, keep=checkpoint_keep if rotated else 1,
            telemetry=telemetry,
        )

    if checkpoint_dir is not None:
        eng, programs = Supervisor(
            build_engine, build_programs, checkpointer,
            max_retries=max_retries, telemetry=telemetry,
        ).run(fault_plan=plan)
    else:
        eng = build_engine()
        programs = build_programs()
        # only the bsp engine takes a schedule
        kw = {} if checkpointer is None else {"checkpointer": checkpointer}
        if schedule is not None:
            kw["schedule"] = schedule
        eng.run(programs, fault_plan=plan, **kw)

    if engine == "mp":
        # the final program state lives in the workers; they sent it back
        results = eng.results
        counters = [(c["requests_sent"], c["requests_received"]) for c in eng.rank_counters]
    else:
        results = programs
        counters = [(pr.requests_sent, pr.requests_received) for pr in programs]
    if offsets is None:
        edges = regions.edges(results)
    else:
        if engine != "mp":
            for prog in programs:  # in-process ranks write their regions here
                prog.result()
        edges = spill.assemble_shards(out_of_core, part.P, spill_budget_bytes)
    sent, received = np.array(list(zip(*counters)), dtype=np.int64)
    return dict(
        edges=edges, simulated_time=eng.simulated_time,
        supersteps=eng.supersteps, requests_sent=sent,
        requests_received=received, world_stats=eng.stats,
        recoveries=list(eng.stats.recoveries),
    )


def _run_sequential(
    tel, *, generator, n, x, p, seed, out_of_core, spill_budget_bytes, **_rest
):
    """One-shot sequential run of either generator (the ``T_s`` baseline).

    Out of core, the ``x = 1`` streaming emitter writes its ``n - 1`` edges
    block by block as the run's single region.
    """
    if generator == "commfree":
        whole, stream = commfree, stream_commfree_x1
        span, spill_span = "commfree", "commfree.stream.spill"
    else:
        whole, stream = copy_model, stream_copy_model_x1
        span, spill_span = "copy_model", "copy_stream.spill"
    if out_of_core is None:
        with tel.span(span, cat="compute", tid=0, n=n, x=x):
            return whole(n, x=x, p=p, seed=seed)
    from repro.core import spill

    with tel.span(spill_span, cat="compute", tid=0, n=n):
        offsets = spill.prepare_regions(out_of_core, [max(n - 1, 0)])
        spill.write_edge_shards(out_of_core, 0, offsets, stream(n, p=p, seed=seed))
        return spill.assemble_shards(out_of_core, 1, spill_budget_bytes)


def _run_commfree_slices(
    tel, *, n, x, p, ranks, seed, engine, out_of_core, spill_budget_bytes,
    **_rest,
):
    """Compute the commfree slices in-process (``bsp``) or in forked workers
    (``mp``); return the edges and each slice's node count.

    Every surface produces the same edge list bit for bit (the point of
    counter-based randomness).  With ``out_of_core`` each slice is written
    into its region of the final columns and the columns are adopted as a
    :class:`repro.core.spill.SpillEdgeList`.
    """
    slices = commfree_slices(n, ranks)
    sizes = np.array([hi - lo for lo, hi in slices], dtype=np.int64)
    if engine == "mp":
        with tel.span("commfree.mp", cat="run", tid=-1, n=n, x=x, P=ranks):
            edges = commfree_mp(
                n, x=x, p=p, ranks=ranks, seed=seed,
                spill_dir=out_of_core, budget_bytes=spill_budget_bytes,
            )
        return edges, sizes

    # bsp: slice-at-a-time on one core, the same work the mp workers do;
    # each slice appends straight into its sink (a region writer out of core)
    counts = commfree_edge_counts(n, x, ranks)
    if out_of_core is not None:
        from repro.core import spill

        offsets = spill.prepare_regions(out_of_core, counts)
    else:
        edges = EdgeList(capacity=max(int(counts.sum()), 1))

    with tel.span("commfree.slices", cat="compute", tid=0, n=n, x=x):
        for r, (lo, hi) in enumerate(slices):
            with tel.span("commfree.slice", cat="compute", tid=r, lo=lo, hi=hi):
                if out_of_core is None:
                    commfree_edge_slice(n, lo, hi, x=x, p=p, seed=seed, out=edges)
                else:
                    writer = spill.EdgeShardWriter(out_of_core, r, offsets)
                    commfree_edge_slice(n, lo, hi, x=x, p=p, seed=seed, out=writer)
                    writer.seal()
    if out_of_core is not None:
        edges = spill.assemble_shards(out_of_core, ranks, spill_budget_bytes)
    return edges, sizes
