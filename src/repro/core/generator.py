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
    Algorithm 3.1's literal per-message pseudocode on the event-driven
    simulator (``x = 1`` only — used for the Section 3.5 buffering
    demonstrations and cross-validation, bit-identical to ``"bsp"``);
``"sequential"``
    one rank (``ranks`` must be 1), the ``T_s`` baseline: the blocked copy
    model (:func:`~repro.seq.copy_model.copy_model_x1`) at ``x = 1``, the
    ``ranks=1`` ``bsp`` run at ``x > 1``, one slice for commfree;
``"mp"``
    the same rank programs in real OS processes
    (:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`), whose
    ranks exchange superstep traffic peer to peer.

Orthogonally to the engine, ``generator="commfree"`` swaps the copy-model
message pipeline for the communication-free family
(:mod:`repro.core.commfree`): ranks recompute foreign endpoints from
counter-based randomness instead of requesting them, so on every engine a
rank is one message-free superstep that writes its slice into its region
of the output.  It has the copy model's attachment statistics but draws a
different graph at equal seeds.

A run is described by one :class:`RunSpec`, whose fields are
:func:`generate`'s keywords and ``repro-pa generate``'s flags.  Which knobs
combine is decided in one place: :data:`CONFLICTS` lists every rejected
combination with its one-line reason, and constructing the spec applies it
before anything is forked or written.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.commfree import commfree_edge_counts, commfree_mp, commfree_programs
from repro.core.parallel_pa import PAx1RankProgram, ResultRegions, run_output
from repro.core.parallel_pa_general import PAGeneralRankProgram
from repro.core.partitioning import SCHEMES, Partition, make_partition
from repro.core.streaming import stream_copy_model_x1
from repro.graph.degree import degrees_from_edges
from repro.graph.edgelist import EdgeList
from repro.graph.validation import ValidationReport, validate_pa_graph
from repro.mpsim.bsp import BSPEngine
from repro.mpsim.checkpoint import CHECKPOINT_NAME, Checkpointer
from repro.mpsim.costmodel import CostModel
from repro.mpsim.faults import FaultPlan
from repro.mpsim.mp_backend import MultiprocessingBSPEngine
from repro.mpsim.supervisor import Supervisor
from repro.rng import StreamFactory
from repro.seq.copy_model import copy_model_x1
from repro.telemetry.collector import resolve

__all__ = [
    "CONFLICTS", "Conflict", "GenerationResult", "RunSpec", "generate", "rank_programs",
]


def _knob(
    default: Any, help: str, *flags: str,
    parse: Callable[[str], Any] | None = None, metavar: str | None = None,
) -> Any:
    """A :class:`RunSpec` field: its default and one line of help, plus, for
    a scalar knob, the ``repro-pa generate`` flags that set it and the parser
    of their value (``None`` keeps the string)."""
    return field(
        default=default,
        metadata={"help": help, "flags": flags, "parse": parse, "metavar": metavar},
    )


def _mib(text: str) -> int:
    """``--spill-budget-mb``'s value, in bytes."""
    return int(float(text) * (1 << 20))


@dataclass(frozen=True)
class RunSpec:
    """One validated :func:`generate` call: every knob of a run.

    Each field carries its default and one line of help; the scalar ones
    also carry their ``repro-pa generate`` flags, from which the CLI builds
    its parser.  Construction applies :data:`CONFLICTS`, so an invalid spec
    raises one :class:`ValueError` before any process forks or any file is
    written.

    ``checkpoint_dir`` runs the job under a
    :class:`~repro.mpsim.supervisor.Supervisor`: snapshots rotate through
    ``checkpoint_keep`` generations there, and rank crashes (on ``mp``,
    real ``SIGKILL``-ed workers) are recovered bit-identically
    up to ``max_retries`` times.  With ``max_retries=0`` the first failure
    raises, and :func:`repro.mpsim.checkpoint.resume` finishes the run from
    the directory.  ``out_of_core`` writes the edges once, in place, into
    sha256-verified column files (``result.edges`` is then a
    :class:`repro.core.spill.SpillEdgeList`), bit-identical to the in-RAM
    path; see ``docs/performance.md``.
    """

    n: int = _knob(MISSING, "number of nodes", "-n", "--nodes", parse=int)
    x: int = _knob(1, "edges contributed by each new node", "-x", "--edges-per-node",
                   parse=int)
    p: float = _knob(0.5, "copy-model direct-attachment probability (0.5 is exact BA)",
                     "-p", "--prob", parse=float)
    ranks: int = _knob(1, "processor count: simulated on bsp/event, processes on mp",
                       "-P", "--ranks", parse=int)
    scheme: str = _knob("rrp", "partitioning scheme: ucp, lcp, rrp, or ecp", "--scheme")
    seed: int | None = _knob(None, "root seed; the same spec reproduces the same graph",
                             "--seed", parse=int)
    engine: str = _knob("bsp", "bsp, event (x=1), sequential (ranks=1; at x>1 the "
                               "ranks=1 bsp run), or mp", "--engine")
    partition: Partition | None = _knob(None, "pre-built partition; overrides ranks "
                                              "and scheme")
    cost_model: CostModel | None = _knob(None, "virtual-time charges of the simulated "
                                               "cluster")
    checkpoint_every: int = _knob(1, "snapshot period in supersteps (with "
                                     "--checkpoint-dir)", "--checkpoint-every", parse=int)
    checkpoint_dir: str | None = _knob(
        None, "snapshot under this directory and recover crashes from it "
              "(engines bsp and mp)", "--checkpoint-dir", metavar="DIR",
    )
    checkpoint_keep: int = _knob(3, "snapshot generations kept in --checkpoint-dir",
                                 "--checkpoint-keep", parse=int)
    fault_plan: Any = _knob(None, "FaultPlan to inject")
    fault_seed: int | None = _knob(
        None, "inject a one-crash chaos plan seeded here (engines bsp and mp; "
              "recovered with --checkpoint-dir)", "--inject-faults", parse=int,
        metavar="SEED",
    )
    max_retries: int = _knob(3, "recoveries a --checkpoint-dir run attempts before "
                                "giving up (0: resume by hand)", "--max-retries", parse=int)
    barrier_timeout: float = _knob(
        120.0, "wall-clock bound in seconds on one mp superstep barrier; it "
               "catches wedged ranks, dead ones are detected within a poll",
        "--barrier-timeout", parse=float,
    )
    telemetry: Any = _knob(None, "Telemetry that collects the run's spans and marks "
                                 "(observation only)")
    generator: str = _knob(
        "copy", "copy (the paper's message-resolving copy model) or commfree "
                "(no messages: engines sequential, bsp, mp)", "--generator",
    )
    out_of_core: str | None = _knob(
        None, "write the edges in place into sha256-verified column files "
              "under DIR instead of RAM", "--out-of-core", metavar="DIR",
    )
    spill_budget_bytes: int = _knob(
        64 << 20, "out-of-core budget for the verification reads and the "
                  "SpillEdgeList read blocks (flag in MiB)", "--spill-budget-mb",
        parse=_mib, metavar="MIB",
    )

    def __post_init__(self) -> None:
        for row in CONFLICTS:
            if row.when(self):
                knobs = {f.name: getattr(self, f.name) for f in fields(self)}
                raise ValueError(row.reason.format(**knobs))

    @property
    def nranks(self) -> int:
        """The run's rank count: the partition's, else ``ranks``."""
        return self.partition.P if self.partition is not None else self.ranks

    @property
    def checkpointing(self) -> bool:
        return self.checkpoint_dir is not None

    @property
    def faults(self) -> bool:
        return self.fault_plan is not None or self.fault_seed is not None


@dataclass
class GenerationResult:
    """Everything a run produced: the graph plus execution telemetry."""

    #: the run's validated spec
    spec: RunSpec
    edges: EdgeList
    #: the partitioning scheme run (``"contig"`` for commfree slices,
    #: ``"none"`` for the sequential copy model at ``x = 1``)
    scheme: str
    ranks: int
    #: simulated parallel runtime (seconds under the cost model); equals the
    #: sequential compute estimate when ``ranks == 1``/sequential engine
    simulated_time: float
    #: BSP supersteps (0 for the event engine, commfree and sequential x=1)
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

    # the spec's knobs a result is most often read for
    n = property(lambda self: self.spec.n)
    x = property(lambda self: self.spec.x)
    p = property(lambda self: self.spec.p)
    engine = property(lambda self: self.spec.engine)
    seed = property(lambda self: self.spec.seed)

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
    #: predicate over the :class:`RunSpec` (its fields and its ``nranks``,
    #: ``checkpointing`` and ``faults``); true means rejected
    when: Callable[[RunSpec], bool]
    #: the one-line reason, ``str.format``-ed with the spec's fields
    reason: str


def _integral(value: Any) -> bool:
    """An ``int`` or NumPy integer, and not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


#: Every :class:`RunSpec` that is rejected, in the order its construction
#: tests them; the first matching row's reason is the error.
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
    Conflict(
        "unknown-scheme", lambda k: str(k.scheme).lower() not in SCHEMES,
        "unknown scheme {scheme!r}; choose ucp, lcp, rrp, or ecp",
    ),
    Conflict(
        "integer-knobs", lambda k: not all(map(_integral, (k.n, k.x, k.ranks))),
        "n, x and ranks must be integers, got n={n!r}, x={x!r}, ranks={ranks!r}",
    ),
    Conflict("n", lambda k: k.n < 1, "n must be >= 1, got n={n}"),
    Conflict("x", lambda k: k.x < 1, "x must be >= 1, got x={x}"),
    Conflict(
        "p", lambda k: not 0 < k.p <= 1 or (k.p == 1 and k.x > 1),
        "p must be in (0, 1], and below 1 when x > 1 (p=1 leaves node x+1 "
        "one direct target for its x edges), got p={p}, x={x}",
    ),
    Conflict(
        "seed",
        lambda k: k.seed is not None and (not _integral(k.seed) or k.seed < 0),
        "seed must be None or a non-negative integer, got seed={seed!r}",
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
        "ranks-above-n", lambda k: k.generator == "copy" and k.nranks > k.n,
        "the copy model gives every rank at least one node: need ranks <= n, "
        "got ranks={ranks}, n={n}",
    ),
    Conflict(
        "spill-budget",
        lambda k: k.out_of_core is not None and k.spill_budget_bytes < 1,
        "spill_budget_bytes must be >= 1, got {spill_budget_bytes}",
    ),
    Conflict(
        "checkpoint-every", lambda k: k.checkpointing and k.checkpoint_every < 1,
        "checkpoint_every must be >= 1 superstep, got {checkpoint_every}",
    ),
    Conflict(
        "checkpoint-keep", lambda k: k.checkpointing and k.checkpoint_keep < 1,
        "checkpoint_keep must be >= 1 generation, got {checkpoint_keep}",
    ),
    Conflict(
        "max-retries", lambda k: k.checkpointing and k.max_retries < 0,
        "max_retries must be >= 0, got {max_retries}",
    ),
    Conflict(
        "out-of-core-event",
        lambda k: k.out_of_core is not None and k.engine == "event",
        "out_of_core= bounds edge memory, and the event-driven simulator is a "
        "small-n demonstrator — use engine='bsp' or 'mp'",
    ),
    Conflict(
        "out-of-core-checkpoint",
        lambda k: k.out_of_core is not None and k.checkpointing,
        "out_of_core= and checkpointing would combine two shard lifecycles, "
        "which is not supported — drop checkpoint_dir",
    ),
    Conflict(
        "commfree-faults", lambda k: k.generator == "commfree" and k.faults,
        "commfree has no distributed state to crash: rerunning a slice is the "
        "recovery — drop fault_plan/fault_seed",
    ),
    Conflict(
        "commfree-checkpoint", lambda k: k.generator == "commfree" and k.checkpointing,
        "commfree has nothing to snapshot: any slice is recomputable from "
        "the seed alone — drop checkpoint_dir",
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
        "event-x", lambda k: k.engine == "event" and k.x > 1,
        "the event engine runs Algorithm 3.1 (x=1) only, got x={x} — use "
        "engine='bsp'",
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
        "faults-engine", lambda k: k.faults and k.engine in ("sequential", "event"),
        "injected crashes fire at superstep boundaries and engine={engine!r} "
        "has none — use engine='bsp' or 'mp'",
    ),
    Conflict(
        "checkpoint-engine",
        lambda k: k.checkpointing and k.engine in ("sequential", "event"),
        "checkpointing needs superstep boundaries to snapshot at and "
        "engine={engine!r} has none — use engine='bsp' or 'mp'",
    ),
)


def generate(*args: Any, **knobs: Any) -> GenerationResult:
    """Generate a preferential-attachment network.

    Takes :class:`RunSpec`'s fields — ``n`` and ``x`` may be positional, in
    that order — whose defaults and one-line docs live there.  A spec that
    :data:`CONFLICTS` rejects raises a one-line :class:`ValueError` before
    anything forks or is written.  A run that raises out of core removes
    the ``edges/`` and ``shards/`` it laid out
    (:func:`repro.core.spill.discard_regions`).  The run's spec is
    ``result.spec``.

    Examples
    --------
    >>> r = generate(2000, x=3, ranks=8, seed=1)
    >>> r.validate().ok
    True
    >>> len(r.edges)
    5994
    """
    spec = RunSpec(*args, **knobs)
    n, x, engine, nranks = spec.n, spec.x, spec.engine, spec.nranks
    commfree_run = spec.generator == "commfree"
    plan = spec.fault_plan
    if plan is None and spec.fault_seed is not None:
        plan = FaultPlan.chaos(spec.fault_seed, nranks, crashes=1)
    if commfree_run or (engine == "sequential" and x == 1):
        part, scheme = None, "contig" if commfree_run else "none"
    else:
        part = spec.partition
        if part is None:
            part = make_partition(spec.scheme, n, spec.ranks)
        scheme = part.scheme
    tel = resolve(spec.telemetry)
    if tel.enabled:
        tel.meta.update(
            {f.name: getattr(spec, f.name) for f in fields(spec) if f.metadata["flags"]},
            ranks=nranks, scheme=scheme,
        )

    try:
        if part is None:
            if commfree_run:
                edges, sizes = _run_commfree_slices(spec, tel)
            else:
                edges, sizes = _run_sequential(spec, tel), np.array([n], np.int64)
            # one-shot runs: pure compute, split perfectly over the ranks
            cost = spec.cost_model or CostModel()
            run = dict(
                edges=edges, ranks=nranks, nodes_per_rank=sizes, supersteps=0,
                simulated_time=cost.compute_time(n, work_items=len(edges)) / nranks,
                requests_sent=np.zeros(nranks, np.int64),
                requests_received=np.zeros(nranks, np.int64),
            )
        else:
            if engine == "event":
                from repro.core.event_driven import run_event_driven_pa_x1

                with tel.span("event.run", cat="run", tid=-1, n=n, x=x) as sp:
                    edges, sim = run_event_driven_pa_x1(
                        n, part, p=spec.p, seed=spec.seed,
                        cost_model=spec.cost_model,
                    )
                    sp.note(virtual_total_s=sim.makespan)
                run = dict(
                    edges=edges, simulated_time=sim.makespan, supersteps=0,
                    requests_sent=np.zeros(part.P, np.int64),
                    requests_received=np.zeros(part.P, np.int64),
                    world_stats=sim.stats,
                )
            else:
                run = _run_supersteps(spec, part, plan)
            run.update(ranks=part.P, nodes_per_rank=part.sizes())
    except BaseException:
        if spec.out_of_core is not None:
            from repro.core import spill

            spill.discard_regions(spec.out_of_core)
        raise
    return GenerationResult(spec=spec, scheme=scheme, fault_plan=plan, **run)


def rank_programs(
    part: Partition,
    x: int,
    p: float,
    seed: int | None,
    *,
    regions: ResultRegions | None = None,
    canonical_inbox: bool = True,
) -> list:
    """One copy-model rank program per rank of ``part``, rank ``r`` drawing
    from stream ``r`` of ``seed``.

    ``x = 1`` builds Algorithm 3.1's :class:`PAx1RankProgram`; with
    ``regions`` each resolves straight into its
    :meth:`ResultRegions.x1_region` of the output column.  Larger ``x``
    builds Algorithm 3.2's :class:`PAGeneralRankProgram`, which writes its
    region only when done (:meth:`ResultRegions.fill`), so ``regions`` is
    not used there; ``canonical_inbox=False`` lets delivery order reach its arbitration (the
    schedule fuzzer's injected bug).
    """
    rngs = StreamFactory(seed)
    if x == 1:
        return [
            PAx1RankProgram(
                r, part, p, rngs.stream(r),
                out=None if regions is None else regions.x1_region(r, part.node_range(r)),
            )
            for r in range(part.P)
        ]
    return [
        PAGeneralRankProgram(
            r, part, x, p, rngs.stream(r),
            canonical_inbox=canonical_inbox,
        )
        for r in range(part.P)
    ]


def _run_supersteps(spec: RunSpec, part: Partition, plan: Any) -> dict:
    """Run the copy model's rank programs to quiescence on a superstep engine.

    ``engine="bsp"`` drives them in-process (:class:`BSPEngine`), as does
    ``"sequential"`` at ``x > 1`` over its one-rank partition; ``"mp"`` in
    forked workers (:class:`~repro.mpsim.mp_backend.MultiprocessingBSPEngine`).
    ``checkpoint_dir`` runs under a
    :class:`~repro.mpsim.supervisor.Supervisor` that recovers crashes from
    rotated snapshots, bit-identically.  Each finished rank writes its
    edges into its region of the run's output
    (:func:`~repro.core.parallel_pa.run_output`) through its one
    ``collect(rank, program)`` hook, run where the rank ran (inside its
    worker on mp, so no edge array crosses a pipe).  In RAM the columns are
    a :class:`ResultRegions` pair, shared with the workers on mp, and x=1
    programs resolve straight into theirs.  With ``out_of_core`` the
    columns are files on disk, verified and adopted at the end; the
    programs' ``F`` and wait queues stay in RAM.  Returns the run's
    :class:`GenerationResult` fields.
    """
    engine, x, out_of_core, tel = spec.engine, spec.x, spec.out_of_core, spec.telemetry
    from repro.core import spill

    out = run_output(
        spill.rank_edge_counts(x, part.sizes(), part.owner), out_of_core,
        spec.spill_budget_bytes, shared=engine == "mp",
    )

    def build_programs() -> list:
        return rank_programs(part, x, spec.p, spec.seed, regions=out.regions)

    def build_engine():
        if engine == "mp":
            return MultiprocessingBSPEngine(
                part.P, cost_model=spec.cost_model,
                barrier_timeout=spec.barrier_timeout, telemetry=tel, collect=out.collect,
            )
        return BSPEngine(part.P, cost_model=spec.cost_model, telemetry=tel)

    if spec.checkpointing:
        checkpointer = Checkpointer(
            Path(spec.checkpoint_dir) / CHECKPOINT_NAME, every=spec.checkpoint_every,
            keep=spec.checkpoint_keep, telemetry=tel,
        )
        eng, programs = Supervisor(
            build_engine, build_programs, checkpointer,
            max_retries=spec.max_retries, telemetry=tel,
        ).run(fault_plan=plan)
    else:
        eng = build_engine()
        programs = build_programs()
        eng.run(programs, fault_plan=plan)

    if engine == "mp":
        # the final program state lives in the workers, which collected it
        counters = [(c["requests_sent"], c["requests_received"]) for c in eng.rank_counters]
    else:
        for r, prog in enumerate(programs):
            out.collect(r, prog)
        counters = [(pr.requests_sent, pr.requests_received) for pr in programs]
    sent, received = np.array(list(zip(*counters)), dtype=np.int64)
    return dict(
        edges=out.edges(), simulated_time=eng.simulated_time,
        supersteps=eng.supersteps, requests_sent=sent,
        requests_received=received, world_stats=eng.stats,
        recoveries=list(eng.stats.recoveries),
    )


def _run_sequential(spec: RunSpec, tel: Any):
    """The sequential copy model at ``x = 1`` (:func:`copy_model_x1`).

    Out of core, its streaming emitter writes the ``n - 1`` edges block by
    block as the run's single region.
    """
    n, p, seed, out_of_core = spec.n, spec.p, spec.seed, spec.out_of_core
    if out_of_core is None:
        with tel.span("copy_model", cat="compute", tid=0, n=n, x=1):
            return copy_model_x1(n, p=p, seed=seed)
    from repro.core import spill

    with tel.span("copy_stream.spill", cat="compute", tid=0, n=n):
        offsets = spill.prepare_regions(out_of_core, [max(n - 1, 0)])
        spill.write_edge_shards(
            out_of_core, 0, offsets, stream_copy_model_x1(n, p=p, seed=seed)
        )
        return spill.assemble_shards(out_of_core, 1, spec.spill_budget_bytes)


def _run_commfree_slices(spec: RunSpec, tel: Any):
    """Run the commfree slice programs in-process (``bsp``; ``sequential`` is
    the one-slice case) or on the mp engine (:func:`commfree_mp`); return
    the edges and each slice's node count.

    Every surface produces the same edge list bit for bit (the point of
    counter-based randomness), and all of them write each slice into its
    region of the one :func:`~repro.core.parallel_pa.run_output`: in RAM,
    or out of core as the sealed columns of a
    :class:`repro.core.spill.SpillEdgeList`.
    """
    n, x, p, ranks, seed = spec.n, spec.x, spec.p, spec.ranks, spec.seed
    out_of_core, budget = spec.out_of_core, spec.spill_budget_bytes
    programs = commfree_programs(n, x, p, ranks, seed)
    sizes = np.array([prog.hi - prog.lo for prog in programs], dtype=np.int64)
    if spec.engine == "mp":
        with tel.span("commfree.mp", cat="run", tid=-1, n=n, x=x, P=ranks):
            edges = commfree_mp(
                n, x=x, p=p, ranks=ranks, seed=seed,
                spill_dir=out_of_core, budget_bytes=budget,
                barrier_timeout=spec.barrier_timeout, telemetry=tel,
            )
        return edges, sizes

    # bsp: slice-at-a-time on one core, the same work the mp workers do
    out = run_output(commfree_edge_counts(n, x, ranks), out_of_core, budget)
    with tel.span("commfree.slices", cat="compute", tid=0, n=n, x=x):
        for r, prog in enumerate(programs):
            with tel.span("commfree.slice", cat="compute", tid=r, lo=prog.lo, hi=prog.hi):
                out.collect(r, prog)
    return out.edges(), sizes
