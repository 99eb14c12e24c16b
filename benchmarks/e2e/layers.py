"""Per-layer tracing for the end-to-end benchmark, installed from outside ``src/``.

Each layer of ``repro`` is observed by wrapping its public callables where
their callers look them up: a function is patched in its defining module and
in every ``repro`` module that imported it by name (so
``repro.core.parallel_pa.route_by_dest`` is wrapped as well as
``repro.core.routing.route_by_dest``), and a method is patched on its class
and on every subclass that overrides it.  Nothing under ``src/`` changes.

A wrapper times one call as a span and, when the layer has a work count
(records routed, rows pushed, values drawn, edges appended), adds it.  Spans
are aggregated per callable as they close: calls, inclusive seconds, *self*
seconds (the span minus the wrapped calls it made in the same process) and
the count.

The wrappers are installed in the traced child before ``generate()`` forks,
so forked mp ranks and commfree slice workers inherit them.  A forked process
starts with an empty span stack; whenever one of its outermost wrapped calls
returns (a rank program's ``step``/``result``, a ``commfree_edge_slice``) it
appends what it recorded to ``<trace_dir>/<pid>.jsonl``.  The child reads
those files back after ``generate()`` returns, by which time every worker has
flushed: a worker flushes before it sends its result to the coordinator.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

CALLS, INCL, SELF, COUNT = range(4)


def _batch_len(args, out) -> int:
    """Length of the first data argument, after ``self`` or ``out``."""
    return len(args[1])


def _out_size(args, out) -> int:
    return int(np.size(out))


def _out_len(args, out) -> int:
    return len(out)


#: ``(layer, module, attribute, work count)`` for every callable the
#: benchmark times.  ``CounterStream.uniforms`` has no count of its own: it
#: draws through ``hashes``, which counts.  ``StreamFactory.stream`` is
#: wrapped separately (see :class:`TimedGenerator`).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("generator", "repro.core.generator", "generate", None),
    ("partitioning", "repro.core.partitioning", "make_partition", None),
    ("partitioning", "repro.core.partitioning", "Partition.owner", None),
    ("partitioning", "repro.core.partitioning", "Partition.local_index", None),
    ("partitioning", "repro.core.partitioning", "Partition.partition_nodes", None),
    ("rng", "repro.rng.streams", "CounterStream.hashes", _out_size),
    ("rng", "repro.rng.streams", "CounterStream.uniforms", None),
    ("pa", "repro.core.parallel_pa", "PAx1RankProgram.step", None),
    ("pa", "repro.core.parallel_pa", "PAx1RankProgram.result", None),
    ("pa", "repro.core.parallel_pa_general", "PAGeneralRankProgram.step", None),
    ("pa", "repro.core.parallel_pa_general", "PAGeneralRankProgram.result", None),
    ("routing", "repro.core.routing", "route_by_dest", _batch_len),
    ("arena", "repro.core.arena", "RecordQueue.push", _batch_len),
    ("arena", "repro.core.arena", "RecordQueue.columns", None),
    ("arena", "repro.core.arena", "RecordQueue.keep", None),
    ("bsp", "repro.mpsim.bsp", "BSPEngine.run", None),
    ("mp", "repro.mpsim.mp_backend", "MultiprocessingBSPEngine.run", None),
    ("commfree", "repro.core.commfree", "commfree_mp", None),
    ("commfree", "repro.core.commfree", "commfree_edge_slice", None),
    ("spill", "repro.core.spill", "EdgeShardWriter.append_arrays", _batch_len),
    ("spill", "repro.core.spill", "EdgeShardWriter.seal", None),
    ("spill", "repro.core.spill", "write_edge_shards", None),
    ("spill", "repro.core.spill", "assemble_shards", None),
    ("spill", "repro.core.spill", "SpillEdgeList.append_arrays", _batch_len),
    ("spill", "repro.core.spill", "SpillEdgeList.flush", None),
    ("edgelist", "repro.graph.edgelist", "EdgeList.append_arrays", _batch_len),
    ("edgelist", "repro.graph.edgelist", "EdgeList.from_arrays", _out_len),
)

STREAM_SPAN = "rng/StreamFactory.stream"
SLICE_SPAN = "commfree/commfree_edge_slice"


class Recorder:
    """Span aggregation for one process, reset in every forked child."""

    def __init__(self, trace_dir: str | Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.active = True
        self.forked = False
        self._stack: list[float] = []  # child seconds of each open span
        self.agg: dict[str, list] = {}  # name -> [calls, incl, self, count]
        self.roots: list[list] = []  # [name, seconds] of outermost spans
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self.active:
            self._stack, self.agg, self.roots = [], {}, []
            self.forked = True

    def call(self, name: str, fn: Callable, count: Callable | None, /, *args, **kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        n = 0
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(args, out)
            return out
        finally:
            self._close(name, t0, n)

    def _close(self, name: str, t0: float, n: int) -> None:
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        row = self.agg.get(name)
        if row is None:
            row = self.agg[name] = [0, 0.0, 0.0, 0]
        row[CALLS] += 1
        row[INCL] += dur
        row[SELF] += dur - child
        row[COUNT] += n
        if self._stack:
            self._stack[-1] += dur
            return
        self.roots.append([name, dur])
        if self.forked:
            self._flush()

    def _flush(self) -> None:
        line = json.dumps({"pid": os.getpid(), "roots": self.roots, "agg": self.agg})
        with open(self.trace_dir / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.agg, self.roots = {}, []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, count, *args, **kwargs)

        return traced

    def records(self) -> list[dict]:
        """This process's record followed by every forked worker's flushes."""
        out = [{"pid": os.getpid(), "roots": self.roots, "agg": self.agg}]
        for path in sorted(self.trace_dir.glob("*.jsonl")):
            out.extend(json.loads(line) for line in path.read_text().splitlines())
        return out


class TimedGenerator:
    """Bit-transparent timing proxy for a rank's ``numpy.random.Generator``.

    Every public method call is forwarded to the wrapped generator unchanged
    and timed as an ``rng`` span counting the values it returned; the draws,
    and so the graph, are those of the plain generator.
    """

    __slots__ = ("_gen", "_rec")

    def __init__(self, gen: np.random.Generator, rec: Recorder) -> None:
        self._gen = gen
        self._rec = rec

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._gen, attr)
        if attr.startswith("_") or not callable(value):
            return value
        return functools.partial(
            self._rec.call, f"rng/Generator.{attr}", value, _out_size
        )


class Tracer:
    """Installs the layer wrappers and restores the originals on :meth:`close`."""

    def __init__(self, trace_dir: str | Path) -> None:
        self.recorder = Recorder(trace_dir)
        self._undo: list[tuple[Any, str, Any]] = []
        for layer, module, attr, count in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(owner, cls_name), meth, f"{layer}/{attr}", count)
            else:
                self._patch_function(owner, attr, f"{layer}/{attr}", count)
        from repro.rng.streams import StreamFactory

        stream = StreamFactory.__dict__["stream"]
        rec = self.recorder

        @functools.wraps(stream)
        def traced_stream(*args, **kwargs):
            return TimedGenerator(rec.call(STREAM_SPAN, stream, None, *args, **kwargs), rec)

        self._set(StreamFactory, "stream", traced_stream)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module: Any, attr: str, name: str, count) -> None:
        original = getattr(module, attr)
        wrapped = self.recorder.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                mod.__dict__.get(attr) is original
            ):
                self._set(mod, attr, wrapped)

    def _patch_method(self, cls: type, meth: str, name: str, count) -> None:
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            raw = klass.__dict__.get(meth)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(klass, meth, classmethod(self.recorder.wrap(name, raw.__func__, count)))
            else:
                self._set(klass, meth, self.recorder.wrap(name, raw, count))

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        self.recorder.active = False


def _merge(records: list[dict]) -> dict[str, list]:
    agg: dict[str, list] = {}
    for rec in records:
        for name, row in rec["agg"].items():
            tot = agg.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                tot[i] += row[i]
    return agg


def _mp_spans(spans: list) -> dict[str, float]:
    """Compute/exchange/wait seconds, summed over ranks, from mp engine spans."""
    per_rank: dict[int, dict[str, float]] = {}
    kinds = {
        "compute": "compute",
        "exchange.read": "exchange",
        "exchange.write": "exchange",
        "step.wait": "wait",
        "barrier.wait": "wait",
    }
    for span in spans:
        kind = kinds.get(span.name)
        if kind is None or span.tid < 0:
            continue
        row = per_rank.setdefault(span.tid, {"compute": 0.0, "exchange": 0.0, "wait": 0.0})
        row[kind] += span.dur
    return {
        "compute": sum(r["compute"] for r in per_rank.values()),
        "exchange": sum(r["exchange"] for r in per_rank.values()),
        "wait": sum(r["wait"] for r in per_rank.values()),
        "slowest": max((sum(r.values()) for r in per_rank.values()), default=0.0),
    }


def layer_metrics(records: list[dict], result: Any, tel: Any = None) -> dict[str, float]:
    """Every per-layer metric derivable from one traced run.

    ``records`` come from :meth:`Recorder.records` (the first is the
    process that called ``generate()``); ``tel`` is the Telemetry passed to
    an mp copy-model run, or ``None``.  A layer the run did not use reports
    0.  Self times are summed over processes.
    """
    agg = _merge(records)

    def total(layer: str, col: int, members: tuple[str, ...] | None = None) -> float:
        return sum(
            row[col]
            for name, row in agg.items()
            if name.split("/")[0] == layer
            and (members is None or name.split("/", 1)[1] in members)
        )

    def incl(name: str) -> float:
        return agg.get(name, [0, 0.0, 0.0, 0])[INCL]

    engine_stats = result.world_stats is not None
    m: dict[str, float] = {
        "generator.self_s": total("generator", SELF),
        "partitioning.self_s": total("partitioning", SELF),
        "partitioning.calls": total("partitioning", CALLS),
        "rng.self_s": total("rng", SELF),
        "rng.values": total("rng", COUNT),
        "pa.self_s": total("pa", SELF),
        "pa.steps": total(
            "pa", CALLS, ("PAx1RankProgram.step", "PAGeneralRankProgram.step")
        ),
        "pa.requests": int(np.sum(result.requests_sent)),
        "pa.imbalance": float(result.imbalance),
        "routing.self_s": total("routing", SELF),
        "routing.records": total("routing", COUNT),
        "arena.self_s": total("arena", SELF),
        "arena.rows_pushed": total("arena", COUNT),
        "bsp.self_s": total("bsp", SELF),
        "bsp.supersteps": result.supersteps if result.engine == "bsp" else 0,
        "bsp.bytes": (
            result.world_stats.total_bytes if result.engine == "bsp" and engine_stats else 0
        ),
        "spill.shard_write_s": total(
            "spill", SELF,
            ("EdgeShardWriter.append_arrays", "EdgeShardWriter.seal", "write_edge_shards"),
        ),
        "spill.assemble_s": incl("spill/assemble_shards"),
        "edgelist.append_s": total("edgelist", SELF),
        "edgelist.edges": total("edgelist", COUNT),
    }

    mp = _mp_spans(tel.spans.spans if tel is not None else [])
    busy = mp["compute"] + mp["exchange"] + mp["wait"]
    mp_run = incl("mp/MultiprocessingBSPEngine.run")
    m.update({
        "mp.compute_s": mp["compute"],
        "mp.exchange_s": mp["exchange"],
        "mp.wait_s": mp["wait"],
        "mp.wait_frac": mp["wait"] / busy if busy else 0.0,
        "mp.coord_self_s": mp_run - mp["slowest"] if mp_run else 0.0,
        "mp.supersteps": result.supersteps if result.engine == "mp" and engine_stats else 0,
        "mp.bytes": (
            result.world_stats.total_bytes if result.engine == "mp" and engine_stats else 0
        ),
    })

    slices = [dur for rec in records[1:] for name, dur in rec["roots"] if name == SLICE_SPAN]
    worker_busy: dict[int, float] = {}
    for rec in records[1:]:
        worker_busy[rec["pid"]] = worker_busy.get(rec["pid"], 0.0) + sum(
            dur for _name, dur in rec["roots"]
        )
    cf_run = incl("commfree/commfree_mp")
    m.update({
        "commfree.slice_max_s": max(slices, default=0.0),
        "commfree.slice_imbalance": max(slices) / (sum(slices) / len(slices)) if slices else 0.0,
        "commfree.coord_self_s": (
            cf_run - max(worker_busy.values(), default=0.0) if cf_run else 0.0
        ),
    })
    return m
