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
    (:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`); pick the
    superstep transport with ``exchange`` (``"shm"``, ``"pickle"``, or the
    peer-to-peer ``"p2p"``) and pass a live
    :class:`~repro.mpsim.pool.WorkerPool` as ``pool`` to reuse forked
    workers across repeated calls.

Orthogonally to the engine, ``generator="commfree"`` swaps the copy-model
message pipeline for the communication-free family
(:mod:`repro.core.commfree`): ranks recompute foreign endpoints from
counter-based randomness instead of requesting them, so the ``mp`` surface
degenerates to embarrassingly-parallel slice workers with no exchange at
all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.parallel_pa import run_parallel_pa_x1
from repro.core.parallel_pa_general import run_parallel_pa
from repro.core.partitioning import Partition, make_partition
from repro.graph.degree import degrees_from_edges
from repro.graph.edgelist import EdgeList
from repro.graph.validation import ValidationReport, validate_pa_graph
from repro.mpsim.costmodel import CostModel
from repro.telemetry.collector import resolve

__all__ = ["GenerationResult", "generate"]


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
    #: the :class:`repro.dyngraph.evolve.EvolutionResult` when the run was
    #: asked to churn the generated graph (``generate(..., evolve=schedule)``)
    evolution: Any = None

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


def generate(
    n: int,
    x: int = 1,
    p: float = 0.5,
    ranks: int = 1,
    scheme: str = "rrp",
    seed: int | None = None,
    engine: str = "bsp",
    exchange: str = "shm",
    pool: Any = None,
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
    liveness_poll: float = 0.25,
    telemetry: Any = None,
    schedule: Any = None,
    generator: str = "copy",
    out_of_core: str | None = None,
    spill_budget_bytes: int = 64 << 20,
    evolve: Any = None,
) -> GenerationResult:
    """Generate a preferential-attachment network.

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
        no messages exist to exchange.  Supports ``engine`` ``"sequential"``,
        ``"bsp"`` (in-process slices), and ``"mp"`` (one forked worker per
        slice); fault injection, checkpointing, schedules, pools, and
        explicit partitions are meaningless without distributed state and
        are rejected.  Same attachment statistics as the copy model, but a
        *different* graph at equal seeds (different draw protocol).
    seed:
        Root seed; identical inputs reproduce the identical graph.
    engine:
        ``"bsp"``, ``"event"``, ``"sequential"``, or ``"mp"`` (see module
        docstring).
    exchange:
        Superstep transport for ``engine="mp"``: ``"shm"`` (default),
        ``"pickle"``, or ``"p2p"``.  Ignored by the other engines.
    pool:
        Optional live :class:`~repro.mpsim.pool.WorkerPool` to run an
        ``engine="mp"`` generation on (its workers are reused instead of
        forking a fresh fleet); the pool's ``size`` must match the
        partition's rank count.
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
        either engine.  Not supported with ``pool=`` (pooled workers
        outlive any single job's recovery lifecycle) or ``engine="event"``.
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
        Last-resort wall-clock bound (seconds) on the ``engine="mp"``
        ``exchange="p2p"`` barrier.  Worker deaths are detected by the
        coordinator within one liveness poll and abort the barrier, so this
        only matters for organically wedged (not dead) ranks.
    liveness_poll:
        ``engine="mp"`` only: how often (seconds) the coordinator wakes from
        waiting on worker pipes to check for silent worker deaths.  Lower
        values detect ``SIGKILL``-ed workers faster at the cost of more
        wakeups; the default (0.25 s) matches prior releases.
    schedule:
        Optional :class:`repro.schedsim.Schedule` permuting message delivery
        and rank activation order (in-process ``bsp``/``event`` engines
        only — the real-process backend's interleavings are the OS's to
        make).  Used by ``repro-pa explore``; see
        ``docs/schedule_exploration.md``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; the run's spans and
        metrics (across every engine, including mp worker processes) land on
        it for export — ``telemetry.to_chrome_trace("run.trace.json")``,
        ``telemetry.to_prometheus()`` — see ``docs/observability.md``.
        Observation-only: the generated graph is bit-identical with
        telemetry on or off.  Not supported together with ``pool=`` —
        construct the :class:`~repro.mpsim.pool.WorkerPool` with
        ``telemetry=`` instead (the ring must exist before its workers
        fork).
    out_of_core, spill_budget_bytes:
        When ``out_of_core`` names a directory, the run spills its edges to
        disk instead of accumulating them in RAM: the coordinator pre-sizes
        the final ``u``/``v`` columns, every worker/rank writes its edges
        straight into its own region and seals a sha256 manifest, and the
        coordinator verifies every region before adopting the files (never
        copying an edge).  ``result.edges`` is a
        :class:`repro.core.spill.SpillEdgeList`; ``spill_budget_bytes``
        (default 64 MiB) bounds its in-RAM write buffer and the
        verification reads.  Supported on
        the ``sequential`` (``x=1`` streaming emitters), ``bsp``, and
        ``mp`` engines for both generators; output is **bit-identical** to
        the in-RAM path at every rank count.  See ``docs/performance.md``
        (out-of-core section) for the format and the RSS budget semantics.
    evolve:
        Optional :class:`repro.dyngraph.ChurnSchedule`: after generation
        the graph churns under it (on the same engine and rank count) and
        the :class:`repro.dyngraph.evolve.EvolutionResult` lands on the
        result's ``evolution`` attribute; ``result.edges`` stays the
        static base graph.  Supported on the ``sequential``, ``bsp``, and
        ``mp`` engines; incompatible with ``out_of_core`` (the evolving
        edge arrays live in RAM).  See ``docs/dynamic_networks.md``.

    Examples
    --------
    >>> r = generate(2000, x=3, ranks=8, seed=1)
    >>> r.validate().ok
    True
    >>> len(r.edges)
    5994
    """
    plan = fault_plan
    if plan is None and fault_seed is not None:
        from repro.mpsim.faults import FaultPlan

        plan = FaultPlan.chaos(fault_seed, ranks, crashes=1)

    if generator not in ("copy", "commfree"):
        raise ValueError(
            f"unknown generator {generator!r}; choose 'copy' or 'commfree'"
        )
    if evolve is not None:
        if engine not in ("sequential", "bsp", "mp"):
            raise ValueError(
                "evolve= churns the generated graph on the sequential, bsp, "
                f"or mp engine; engine={engine!r} cannot run the evolution"
            )
        if out_of_core is not None:
            raise ValueError(
                "evolve= materialises the evolving edge arrays in RAM; "
                "drop out_of_core= (or evolve the spilled graph separately "
                "via repro.dyngraph.evolve)"
            )
    if out_of_core is not None:
        if spill_budget_bytes < 1:
            raise ValueError(
                f"spill_budget_bytes must be >= 1, got {spill_budget_bytes}"
            )
        if engine == "event":
            raise ValueError(
                "out_of_core= bounds edge-storage memory; the event-driven "
                "simulator is a small-n demonstrator whose edges trivially "
                "fit in RAM — use engine='bsp' or 'mp'"
            )
        if pool is not None:
            raise ValueError(
                "out_of_core= redirects worker results into a per-run spill "
                "directory; pooled workers outlive the run and its "
                "directory — drop pool="
            )
        if checkpoint_path is not None or checkpoint_dir is not None:
            raise ValueError(
                "out_of_core= spills edges, checkpointing spills program "
                "state; combining the two shard lifecycles is not supported "
                "yet — drop checkpoint_path/checkpoint_dir"
            )
    if generator == "commfree":
        if plan is not None:
            raise ValueError(
                "fault injection needs distributed state to damage; a "
                "commfree slice is a pure function of (seed, range) and "
                "rerunning it *is* the recovery — drop fault_plan/fault_seed"
            )
        if checkpoint_path is not None or checkpoint_dir is not None:
            raise ValueError(
                "checkpointing needs superstep state to snapshot; commfree "
                "has none (any slice is recomputable from the seed alone) — "
                "drop checkpoint_path/checkpoint_dir"
            )
        if schedule is not None:
            raise ValueError(
                "schedule= permutes message delivery order; commfree "
                "exchanges no messages — drop schedule="
            )
        if pool is not None:
            raise ValueError(
                "pool= runs copy-model rank programs on pooled workers; "
                "commfree forks its own trivially-parallel slice workers — "
                "drop pool="
            )
        if partition is not None:
            raise ValueError(
                "commfree always owns contiguous node slices (that is what "
                "makes rank-order concatenation reproduce the sequential "
                "edge order) — drop partition="
            )
        return _attach_evolution(
            _generate_commfree(
                n, x, p, ranks, seed, engine, cost_model, telemetry,
                out_of_core=out_of_core, spill_budget_bytes=spill_budget_bytes,
            ),
            evolve, engine, ranks, exchange, cost_model, telemetry,
        )

    if schedule is not None:
        if engine not in ("bsp", "event"):
            raise ValueError(
                "schedule= permutes the in-process engines' choice points; "
                f"engine={engine!r} does not expose them (use 'bsp' or 'event')"
            )
        if checkpoint_dir is not None:
            raise ValueError(
                "schedule= cannot compose with supervised recovery: a "
                "Schedule is single-use and a recovered re-run would replay "
                "a half-consumed decision stream"
            )

    tel = resolve(telemetry)
    if tel.enabled:
        if pool is not None:
            raise ValueError(
                "telemetry= cannot attach to a running WorkerPool: the "
                "telemetry ring must exist before the workers fork; build "
                "the pool with WorkerPool(..., telemetry=tel) instead"
            )
        tel.meta.update(
            engine=engine, n=n, x=x, p=p, scheme=scheme, ranks=ranks, seed=seed
        )

    if engine == "sequential":
        if ranks != 1:
            raise ValueError("sequential engine requires ranks=1")
        if plan is not None:
            raise ValueError("fault injection requires a parallel engine")
        if checkpoint_path is not None or checkpoint_dir is not None:
            raise ValueError(
                "checkpointing requires a superstep engine (engine='bsp' or "
                "'mp'); the sequential model runs in one shot"
            )
        from repro.seq.copy_model import copy_model

        if out_of_core is not None:
            if x != 1:
                raise ValueError(
                    "sequential out-of-core needs a streaming emitter and "
                    "only the x=1 copy stream has one — use engine='bsp' or "
                    "'mp' (whose rank programs spill their results), or x=1"
                )
            from repro.core.streaming import stream_copy_model_x1

            with tel.span("copy_stream.spill", cat="compute", tid=0, n=n):
                edges = _spill_stream(
                    out_of_core, spill_budget_bytes, n,
                    stream_copy_model_x1(n, p=p, seed=seed),
                )
        else:
            with tel.span("copy_model", cat="compute", tid=0, n=n, x=x):
                edges = copy_model(n, x=x, p=p, seed=seed)
        cost = cost_model or CostModel()
        return _attach_evolution(
            GenerationResult(
                edges=edges,
                n=n,
                x=x,
                p=p,
                scheme="none",
                ranks=1,
                engine=engine,
                seed=seed,
                simulated_time=cost.compute_time(n, work_items=len(edges)),
                supersteps=0,
                nodes_per_rank=np.array([n], dtype=np.int64),
                requests_sent=np.zeros(1, np.int64),
                requests_received=np.zeros(1, np.int64),
            ),
            evolve, engine, 1, exchange, cost_model, telemetry,
        )

    part = partition if partition is not None else make_partition(scheme, n, ranks)
    if part.n != n:
        raise ValueError(f"partition covers n={part.n}, requested n={n}")

    if engine == "event":
        if checkpoint_path is not None or checkpoint_dir is not None:
            raise ValueError(
                "checkpointing requires engine='bsp' or engine='mp'; the "
                "event-driven simulator has no superstep boundaries to "
                "snapshot at"
            )
        from repro.core.event_driven import run_event_driven_pa

        with tel.span("event.run", cat="run", tid=-1, n=n, x=x) as sp:
            edges, sim = run_event_driven_pa(
                n, x, part, p=p, seed=seed, cost_model=cost_model,
                fault_injector=plan, schedule=schedule,
            )
            sp.note(virtual_total_s=sim.makespan)
        return GenerationResult(
            edges=edges,
            n=n,
            x=x,
            p=p,
            scheme=part.scheme,
            ranks=part.P,
            engine=engine,
            seed=seed,
            simulated_time=sim.makespan,
            supersteps=0,
            nodes_per_rank=part.sizes(),
            requests_sent=np.zeros(part.P, np.int64),
            requests_received=np.zeros(part.P, np.int64),
            world_stats=sim.stats,
            fault_plan=plan,
        )

    if engine == "mp":
        return _attach_evolution(
            _generate_mp(
                n, x, p, part, seed, cost_model, exchange, pool, plan,
                checkpoint_path, checkpoint_every, checkpoint_dir,
                checkpoint_keep, max_retries, barrier_timeout, telemetry,
                liveness_poll, out_of_core, spill_budget_bytes,
            ),
            evolve, engine, part.P, exchange, cost_model, telemetry,
        )

    if engine != "bsp":
        raise ValueError(
            f"unknown engine {engine!r}; choose bsp, event, sequential, or mp"
        )

    checkpointer = None
    if checkpoint_dir is not None:
        from pathlib import Path

        from repro.mpsim.checkpoint import Checkpointer

        checkpointer = Checkpointer(
            Path(checkpoint_dir) / "run.ckpt", every=checkpoint_every,
            keep=checkpoint_keep, telemetry=telemetry,
        )
    elif checkpoint_path is not None:
        from repro.mpsim.checkpoint import Checkpointer

        checkpointer = Checkpointer(
            checkpoint_path, every=checkpoint_every, telemetry=telemetry
        )

    recoveries: list = []
    if checkpoint_dir is not None:
        # rotated checkpoints => run under the supervisor: crashes and
        # deadlocks are recovered (bit-identically) instead of propagating
        eng, programs = _run_supervised(
            n, x, p, part, seed, cost_model, checkpointer, plan, max_retries,
            telemetry,
        )
        edges = EdgeList(capacity=max(n * max(x, 1) - 1, 1))
        for prog in programs:
            u, v = prog.result()
            edges.append_arrays(u, v)
        recoveries = list(eng.stats.recoveries)
    elif out_of_core is not None:
        edges, eng, programs = _run_bsp_oocore(
            n, x, p, part, seed, cost_model, plan, telemetry, schedule,
            out_of_core, spill_budget_bytes,
        )
    elif x == 1:
        edges, eng, programs = run_parallel_pa_x1(
            n, part, p=p, seed=seed, cost_model=cost_model,
            checkpointer=checkpointer, fault_plan=plan, telemetry=telemetry,
            schedule=schedule,
        )
    else:
        edges, eng, programs = run_parallel_pa(
            n, x, part, p=p, seed=seed, cost_model=cost_model,
            checkpointer=checkpointer, fault_plan=plan, telemetry=telemetry,
            schedule=schedule,
        )
    return _attach_evolution(
        GenerationResult(
            edges=edges,
            n=n,
            x=x,
            p=p,
            scheme=part.scheme,
            ranks=part.P,
            engine=engine,
            seed=seed,
            simulated_time=eng.simulated_time,
            supersteps=eng.supersteps,
            requests_sent=np.array(
                [pr.requests_sent for pr in programs], dtype=np.int64
            ),
            requests_received=np.array(
                [pr.requests_received for pr in programs], dtype=np.int64
            ),
            nodes_per_rank=part.sizes(),
            world_stats=eng.stats,
            recoveries=recoveries,
            fault_plan=plan,
        ),
        evolve, engine, part.P, exchange, cost_model, telemetry,
    )


def _attach_evolution(
    result: GenerationResult, schedule, engine, ranks, exchange, cost_model,
    telemetry,
) -> GenerationResult:
    """Churn the generated graph when ``generate(..., evolve=)`` asked for it.

    The evolution runs on the same engine and rank count as the generation
    (the commfree mp surface exchanges nothing, but its evolution uses the
    regular mp backend).  ``result.edges`` keeps the static base graph; the
    evolved state and per-epoch deltas land on ``result.evolution``.
    """
    if schedule is None:
        return result
    from repro.dyngraph.evolve import evolve as _evolve

    result.evolution = _evolve(
        result.edges, result.n, schedule, engine=engine, ranks=ranks,
        exchange=exchange, cost_model=cost_model, telemetry=telemetry,
    )
    return result


def _spill_stream(out_dir, budget_bytes, n, blocks):
    """Write an x=1 streaming emitter's ``n - 1`` edges in place, block by
    block, as the run's single region; return the adopted spilled list."""
    from repro.core import spill

    offsets = spill.prepare_regions(out_dir, [max(n - 1, 0)])
    spill.write_edge_shards(out_dir, 0, offsets, blocks)
    return spill.assemble_shards(out_dir, 1, budget_bytes)


def _run_bsp_oocore(
    n, x, p, part, seed, cost_model, plan, telemetry, schedule, out_dir,
    budget_bytes,
):
    """The BSP generation with spilled wait queues and spilled results.

    Runs the same rank programs as :func:`run_parallel_pa_x1` /
    :func:`run_parallel_pa` (so the graph is bit-identical), but their
    park/pend queues are memmap-backed and each rank's result is written
    into its region of the final columns instead of concatenated in RAM.
    """
    from pathlib import Path

    from repro.core import spill
    from repro.core.parallel_pa import PAx1RankProgram
    from repro.core.parallel_pa_general import PAGeneralRankProgram
    from repro.mpsim.bsp import BSPEngine
    from repro.rng import StreamFactory

    if x > 1 and n <= x:
        raise ValueError(f"need n > x, got n={n}, x={x}")
    out_dir = Path(out_dir)
    qf = spill.SpillQueueFactory(out_dir / "queues")
    factory = StreamFactory(seed)
    if x == 1:
        programs = [
            PAx1RankProgram(r, part, p, factory.stream(r), queue_factory=qf)
            for r in range(part.P)
        ]
    else:
        programs = [
            PAGeneralRankProgram(
                r, part, x, p, factory.stream(r), queue_factory=qf
            )
            for r in range(part.P)
        ]
    engine = BSPEngine(
        part.P, cost_model=cost_model, telemetry=telemetry
    )
    engine.run(programs, fault_plan=plan, schedule=schedule)
    offsets = spill.prepare_regions(
        out_dir, spill.rank_edge_counts(x, part.sizes(), part.owner)
    )
    for r, prog in enumerate(programs):
        spill.write_edge_shards(out_dir, r, offsets, [prog.result()])
    edges = spill.assemble_shards(out_dir, part.P, budget_bytes)
    return edges, engine, programs


def _generate_mp(
    n, x, p, part, seed, cost_model, exchange, pool, plan,
    checkpoint_path=None, checkpoint_every=1, checkpoint_dir=None,
    checkpoint_keep=3, max_retries=3, barrier_timeout=120.0, telemetry=None,
    liveness_poll=0.25, out_of_core=None, spill_budget_bytes=64 << 20,
):
    """Run the generation on the real-process backend (or a live pool).

    Mirrors the BSP branch's checkpoint ladder: ``checkpoint_dir`` runs the
    one-shot engine under a :class:`~repro.mpsim.supervisor.Supervisor`
    (killed workers are respawned and resumed from the newest valid
    snapshot, bit-identically), ``checkpoint_path`` snapshots without
    supervision, and a :class:`~repro.mpsim.pool.WorkerPool` supports
    neither — pooled workers outlive any single job's recovery lifecycle.
    """
    from repro.core.parallel_pa import PAx1RankProgram
    from repro.core.parallel_pa_general import PAGeneralRankProgram
    from repro.mpsim.mp_backend import MultiprocessingBSPEngine
    from repro.rng import StreamFactory

    if x > 1 and n <= x:
        raise ValueError(f"need n > x, got n={n}, x={x}")

    spill_dir = offsets = None
    if out_of_core is not None:
        from pathlib import Path

        from repro.core.spill import prepare_regions, rank_edge_counts

        spill_dir = Path(out_of_core)
        offsets = prepare_regions(
            spill_dir, rank_edge_counts(x, part.sizes(), part.owner)
        )

    def program_factory():
        factory = StreamFactory(seed)
        qf = None
        if spill_dir is not None:
            from repro.core.spill import SpillQueueFactory

            qf = SpillQueueFactory(spill_dir / "queues")
        if x == 1:
            progs = [
                PAx1RankProgram(r, part, p, factory.stream(r), queue_factory=qf)
                for r in range(part.P)
            ]
        else:
            progs = [
                PAGeneralRankProgram(
                    r, part, x, p, factory.stream(r), queue_factory=qf
                )
                for r in range(part.P)
            ]
        if spill_dir is not None:
            # each worker writes its rank's region at result() time; the
            # coordinator then collects a small manifest over the pipe
            # instead of the rank's edge arrays
            from repro.core.spill import SpillResultProgram

            progs = [
                SpillResultProgram(prog, spill_dir, r, offsets)
                for r, prog in enumerate(progs)
            ]
        return progs

    if pool is not None and (
        checkpoint_path is not None or checkpoint_dir is not None
    ):
        raise ValueError(
            "checkpointing is not supported on a WorkerPool: pooled workers "
            "outlive any single job's recovery lifecycle; drop pool= so "
            "engine='mp' forks one-shot workers that can snapshot and resume"
        )

    recoveries: list = []
    if checkpoint_dir is not None:
        from pathlib import Path

        from repro.mpsim.checkpoint import Checkpointer
        from repro.mpsim.supervisor import Supervisor

        checkpointer = Checkpointer(
            Path(checkpoint_dir) / "run.ckpt",
            every=checkpoint_every,
            keep=checkpoint_keep,
            telemetry=telemetry,
        )
        supervisor = Supervisor(
            lambda: MultiprocessingBSPEngine(
                part.P, exchange=exchange, cost_model=cost_model,
                barrier_timeout=barrier_timeout, telemetry=telemetry,
                liveness_poll=liveness_poll,
            ),
            program_factory,
            checkpointer,
            max_retries=max_retries,
            telemetry=telemetry,
        )
        eng, _ = supervisor.run(fault_plan=plan)
        recoveries = list(eng.stats.recoveries)
    elif pool is not None:
        if pool.size != part.P:
            raise ValueError(
                f"pool has {pool.size} workers, partition needs {part.P}"
            )
        eng = pool
        eng.run(program_factory(), fault_plan=plan)
    else:
        checkpointer = None
        if checkpoint_path is not None:
            from repro.mpsim.checkpoint import Checkpointer

            checkpointer = Checkpointer(
                checkpoint_path, every=checkpoint_every, telemetry=telemetry
            )
        eng = MultiprocessingBSPEngine(
            part.P, exchange=exchange, cost_model=cost_model,
            barrier_timeout=barrier_timeout, telemetry=telemetry,
            liveness_poll=liveness_poll,
        )
        eng.run(program_factory(), fault_plan=plan, checkpointer=checkpointer)

    if spill_dir is not None:
        from repro.core.spill import assemble_shards

        edges = assemble_shards(spill_dir, part.P, spill_budget_bytes)
    else:
        edges = EdgeList(capacity=max(n * max(x, 1) - 1, 1))
        for pair in eng.results:
            edges.append_arrays(pair[0], pair[1])
    return GenerationResult(
        edges=edges,
        n=n,
        x=x,
        p=p,
        scheme=part.scheme,
        ranks=part.P,
        engine="mp",
        seed=seed,
        simulated_time=eng.simulated_time,
        supersteps=eng.supersteps,
        requests_sent=np.array(
            [t.get("requests_sent", 0) for t in eng.telemetry], dtype=np.int64
        ),
        requests_received=np.array(
            [t.get("requests_received", 0) for t in eng.telemetry], dtype=np.int64
        ),
        nodes_per_rank=part.sizes(),
        world_stats=eng.stats,
        recoveries=recoveries,
        fault_plan=plan,
    )


def _generate_commfree(
    n, x, p, ranks, seed, engine, cost_model, telemetry,
    out_of_core=None, spill_budget_bytes=64 << 20,
):
    """Run the communication-free generator on the requested surface.

    All three surfaces produce bit-identical edge lists (the point of
    counter-based randomness); they differ only in where the slices are
    computed.  The simulated time charges pure compute divided by the rank
    count — perfect scaling, because there is literally no communication
    term to add.  With ``out_of_core`` every surface writes each slice into
    its region of the final columns and adopts them as a
    :class:`repro.core.spill.SpillEdgeList` — still bit for bit the in-RAM
    graph.
    """
    from repro.core.commfree import (
        commfree,
        commfree_edge_counts,
        commfree_edge_slice,
        commfree_mp,
        commfree_slices,
    )

    tel = resolve(telemetry)
    if tel.enabled:
        tel.meta.update(
            engine=engine, generator="commfree", n=n, x=x, p=p, ranks=ranks,
            seed=seed,
        )
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    slices = commfree_slices(n, ranks)
    sizes = np.array([hi - lo for lo, hi in slices], dtype=np.int64)

    if engine == "sequential":
        if ranks != 1:
            raise ValueError("sequential engine requires ranks=1")
        if out_of_core is not None:
            if x != 1:
                raise ValueError(
                    "sequential out-of-core needs a streaming emitter and "
                    "only the x=1 commfree stream has one — use "
                    "engine='bsp' or 'mp' (slices spill region by region), "
                    "or x=1"
                )
            from repro.core.commfree import stream_commfree_x1

            with tel.span("commfree.stream.spill", cat="compute", tid=0, n=n):
                edges = _spill_stream(
                    out_of_core, spill_budget_bytes, n,
                    stream_commfree_x1(n, p=p, seed=seed),
                )
        else:
            with tel.span("commfree", cat="compute", tid=0, n=n, x=x):
                edges = commfree(n, x=x, p=p, seed=seed)
    elif engine == "bsp":
        # in-process slice-at-a-time evaluation: same work the mp workers
        # would do, on one core — supersteps do not exist here
        if out_of_core is not None:
            from repro.core import spill

            offsets = spill.prepare_regions(
                out_of_core, commfree_edge_counts(n, x, ranks)
            )
            with tel.span("commfree.slices", cat="compute", tid=0, n=n, x=x):
                for r, (lo, hi) in enumerate(slices):
                    with tel.span("commfree.slice", cat="compute", tid=r,
                                  lo=lo, hi=hi):
                        u, v = commfree_edge_slice(
                            n, lo, hi, x=x, p=p, seed=seed
                        )
                        spill.write_edge_shards(
                            out_of_core, r, offsets, [(u, v)]
                        )
            edges = spill.assemble_shards(
                out_of_core, ranks, spill_budget_bytes
            )
        else:
            m = x * (x - 1) // 2 + (n - x) * x if x > 1 else max(n - 1, 0)
            edges = EdgeList(capacity=max(m, 1))
            with tel.span("commfree.slices", cat="compute", tid=0, n=n, x=x):
                for r, (lo, hi) in enumerate(slices):
                    with tel.span("commfree.slice", cat="compute", tid=r,
                                  lo=lo, hi=hi):
                        u, v = commfree_edge_slice(
                            n, lo, hi, x=x, p=p, seed=seed
                        )
                        edges.append_arrays(u, v)
    elif engine == "mp":
        with tel.span("commfree.mp", cat="run", tid=-1, n=n, x=x, P=ranks):
            edges = commfree_mp(
                n, x=x, p=p, ranks=ranks, seed=seed,
                spill_dir=out_of_core, budget_bytes=spill_budget_bytes,
            )
    else:
        raise ValueError(
            f"generator='commfree' supports engines 'sequential', 'bsp', "
            f"and 'mp'; engine={engine!r} has nothing to contribute to a "
            f"zero-message algorithm"
        )

    cost = cost_model or CostModel()
    total = cost.compute_time(n, work_items=len(edges))
    return GenerationResult(
        edges=edges,
        n=n,
        x=x,
        p=p,
        scheme="contig",
        ranks=ranks,
        engine=engine,
        seed=seed,
        simulated_time=total / ranks,
        supersteps=0,
        requests_sent=np.zeros(ranks, np.int64),
        requests_received=np.zeros(ranks, np.int64),
        nodes_per_rank=sizes,
    )


def _run_supervised(
    n, x, p, part, seed, cost_model, checkpointer, plan, max_retries,
    telemetry=None,
):
    """Run the BSP generation under a crash-recovering Supervisor."""
    from repro.core.parallel_pa import PAx1RankProgram
    from repro.core.parallel_pa_general import PAGeneralRankProgram
    from repro.mpsim.bsp import BSPEngine
    from repro.mpsim.supervisor import Supervisor
    from repro.rng import StreamFactory

    if x > 1 and n <= x:
        raise ValueError(f"need n > x, got n={n}, x={x}")

    def engine_factory() -> BSPEngine:
        return BSPEngine(part.P, cost_model=cost_model, telemetry=telemetry)

    def program_factory():
        factory = StreamFactory(seed)
        if x == 1:
            return [PAx1RankProgram(r, part, p, factory.stream(r)) for r in range(part.P)]
        return [
            PAGeneralRankProgram(r, part, x, p, factory.stream(r))
            for r in range(part.P)
        ]

    supervisor = Supervisor(
        engine_factory, program_factory, checkpointer, max_retries=max_retries,
        telemetry=telemetry,
    )
    return supervisor.run(fault_plan=plan)
