"""Checkpoint/restart for BSP runs.

Generating very large networks takes long enough that production runs need
crash recovery.  The BSP execution model makes this cheap and exact: at a
superstep boundary, the *entire* distributed computation is captured by

1. each rank program's state (its attachment tables, pendings, queues, and
   — critically — its RNG generator's position),
2. the in-flight inboxes of the upcoming superstep,
3. the engine's counters (supersteps, simulated time, traffic stats).

:class:`Checkpointer` snapshots that triple every ``every`` supersteps with
an fsync'd atomic write-then-rename and keep-last-``keep`` rotation, and
:func:`resume` reconstructs an engine that continues the run.  Because
execution is deterministic, a resumed run produces a **bit-identical** graph
to an uninterrupted one — which the test-suite asserts by killing a run
mid-flight.

Recovery has to be able to *trust* what it loads, so every snapshot embeds a
SHA-256 checksum of its payload.  Truncated, garbage, or bit-flipped files
raise :class:`~repro.mpsim.errors.CorruptCheckpointError` (never a raw
``pickle`` traceback), and :func:`load_latest_valid` walks the rotation
chain newest-first to find a snapshot that still validates — the fallback
path :class:`~repro.mpsim.supervisor.Supervisor` relies on.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.mpsim.bsp import BSPEngine
from repro.mpsim.costmodel import CostModel
from repro.mpsim.errors import CorruptCheckpointError, MPSimError
from repro.telemetry.collector import resolve

__all__ = [
    "CHECKPOINT_NAME",
    "Checkpointer",
    "CheckpointData",
    "ShardData",
    "checkpoint_chain",
    "load_checkpoint",
    "load_latest_valid",
    "load_sealed",
    "load_shard",
    "save_sealed",
    "save_shard",
    "resume",
]

#: the newest snapshot's file name in a checkpoint directory (a supervised
#: run's ``checkpoint_dir``); older generations are ``run.ckpt.1``, ...
CHECKPOINT_NAME = "run.ckpt"

_MAGIC = "repro-bsp-checkpoint"
_SHARD_MAGIC = "repro-bsp-shard"
_VERSION = 2


@dataclass
class CheckpointData:
    """Everything needed to continue a BSP run."""

    size: int
    cost: CostModel
    max_supersteps: int
    supersteps: int
    simulated_time: float
    stats: Any
    programs: list[Any]
    inboxes: list[list[tuple[int, Any]]]


@dataclass
class ShardData:
    """One rank's share of a distributed (multi-process) checkpoint cut.

    The real-process backend cannot hand the whole world to one
    :meth:`Checkpointer.maybe_save` call — each rank's program lives in its
    own address space.  Instead every worker serialises its own shard
    (program state, the inbox it is about to consume, and its statistics
    row) with the same checksum/atomic-rename discipline as a full
    checkpoint, and the coordinator assembles the ``size`` shards of a cut
    into one ordinary :class:`CheckpointData` manifest.  A committed
    manifest is indistinguishable from an in-process snapshot — either
    engine can resume from it.
    """

    rank: int
    superstep: int
    simulated_time: float
    program: Any
    inbox: list[tuple[int, Any]]
    rank_stats: Any


class Checkpointer:
    """Snapshot hook handed to :meth:`BSPEngine.run`.

    Parameters
    ----------
    path:
        Newest checkpoint file.  With ``keep > 1``, older snapshots are
        rotated to ``<path>.1`` (previous), ``<path>.2``, ... up to
        ``<path>.<keep-1>`` — the fallback chain corrupted-newest recovery
        walks.
    every:
        Snapshot period in supersteps.
    keep:
        How many generations of snapshots to retain (``1`` = just ``path``,
        the pre-rotation behaviour).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; committed snapshots get
        ``checkpoint.save`` spans, so checkpoint cost shows up on the run
        timeline (:attr:`snapshots` counts them).
    """

    def __init__(
        self,
        path: str | Path,
        every: int = 1,
        keep: int = 1,
        telemetry: Any = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.path = Path(path)
        self.every = every
        self.keep = keep
        self.tel = resolve(telemetry)
        self.snapshots = 0
        #: saves are suppressed while ``engine.supersteps <= min_superstep``;
        #: the Supervisor raises this during a retry so a replay of
        #: already-checkpointed ground cannot rotate away the snapshots it
        #: may still need to fall back to.
        self.min_superstep = 0

    def chain(self) -> list[Path]:
        """All candidate snapshot paths, newest first (existing or not)."""
        return [self.path] + [
            self.path.with_name(f"{self.path.name}.{i}") for i in range(1, self.keep)
        ]

    def history(self) -> list[Path]:
        """Snapshot paths currently on disk, newest first."""
        return [p for p in self.chain() if p.exists()]

    def maybe_save(
        self,
        engine: BSPEngine,
        programs: Sequence[Any],
        inboxes: list[list[tuple[int, Any]]],
    ) -> bool:
        """Called by the engine after each superstep; returns True if saved."""
        data = CheckpointData(
            size=engine.size,
            cost=engine.cost,
            max_supersteps=engine.max_supersteps,
            supersteps=engine.supersteps,
            simulated_time=engine.simulated_time,
            stats=engine.stats,
            programs=list(programs),
            inboxes=inboxes,
        )
        return self.commit(data)

    def commit(self, data: CheckpointData) -> bool:
        """Write ``data`` as the newest snapshot if the schedule allows.

        This is the engine-agnostic half of :meth:`maybe_save`: the
        multiprocessing coordinator calls it directly with a
        :class:`CheckpointData` it assembled from worker-written shards.
        Applies the ``every`` cadence and the supervisor's ``min_superstep``
        replay suppression, then performs the fsync'd write-then-rename and
        keep-last-``keep`` rotation.  Returns True if a snapshot was
        written.
        """
        if data.supersteps % self.every != 0:
            return False
        if data.supersteps <= self.min_superstep:
            return False
        with self.tel.span(
            "checkpoint.save", cat="checkpoint", tid=-1, superstep=data.supersteps
        ):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp_name = _atomic_dump(_MAGIC, data, self.path)
            chain = self.chain()
            for i in range(len(chain) - 1, 0, -1):
                if chain[i - 1].exists():
                    chain[i - 1].replace(chain[i])
            Path(tmp_name).replace(self.path)
        self.snapshots += 1
        return True


def _atomic_dump(magic: str, data: Any, path: Path, sync: bool = True) -> str:
    """Write ``(magic, version, sha256, blob)`` to a temp file, fsync'd
    unless ``sync`` is false.

    Returns the temp file's name; the caller renames it into place (the
    rename is what makes the write atomic — readers either see the old
    complete file or the new complete file, never a torn one).  A failed
    write (e.g. ``ENOSPC`` from the write or the fsync) unlinks the temp
    file and re-raises, so a full disk leaves nothing behind.
    """
    blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    payload = (magic, _VERSION, hashlib.sha256(blob).hexdigest(), blob)
    fh = tempfile.NamedTemporaryFile(
        dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
    )
    try:
        with fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(fh.name)
        raise
    return fh.name


def _load_envelope(path: str | Path, magic: str, what: str) -> Any:
    """Read and validate one ``(magic, version, sha256, blob)`` file."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CorruptCheckpointError(f"{path}: unreadable {what} ({exc!r})") from exc
    if not (isinstance(payload, tuple) and len(payload) == 4 and payload[0] == magic):
        raise CorruptCheckpointError(f"{path}: not a BSP {what} file")
    _magic, version, digest, blob = payload
    if version != _VERSION:
        raise MPSimError(f"{path}: unsupported {what} version {version}")
    if hashlib.sha256(blob).hexdigest() != digest:
        raise CorruptCheckpointError(f"{path}: checksum mismatch (corrupted {what})")
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CorruptCheckpointError(f"{path}: undecodable payload ({exc!r})") from exc


def save_sealed(path: str | Path, magic: str, payload: Any) -> None:
    """Atomically write ``payload`` in the sealed checkpoint envelope.

    The envelope is ``(magic, version, sha256, blob)`` with an fsync'd
    write-then-rename, so a process killed mid-write can never leave a torn
    file that a reader would trust.  This is the public face of the
    checkpoint envelope — the out-of-core edge spill
    (:mod:`repro.core.spill`) reuses it with its own ``magic`` so edge
    shards and checkpoint shards share one corruption story.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = _atomic_dump(magic, payload, path)
    Path(tmp_name).replace(path)


def load_sealed(path: str | Path, magic: str, what: str = "shard") -> Any:
    """Read and validate one sealed file written by :func:`save_sealed`.

    Raises :class:`CorruptCheckpointError` on truncation, garbage, a wrong
    magic, or a checksum mismatch (``what`` names the artifact in the
    message).
    """
    return _load_envelope(path, magic, what)


def save_shard(path: str | Path, shard: ShardData) -> None:
    """Atomically write one rank's checkpoint shard.

    Called *inside* a worker process; uses the same checksum envelope and
    write-then-rename discipline as full checkpoints so a worker killed
    mid-write can never leave a torn shard that the coordinator would trust.
    Unlike them it is not fsync'd: a shard only has to outlive its worker,
    which the page cache guarantees, and the coordinator either re-commits
    its cut as an fsync'd manifest or deletes it.  A host crash takes the
    coordinator down too, and the next run deletes the stale shards.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    Path(_atomic_dump(_SHARD_MAGIC, shard, path, sync=False)).replace(path)


def load_shard(path: str | Path) -> ShardData:
    """Read and validate one checkpoint shard.

    Raises :class:`CorruptCheckpointError` on truncation, garbage, or a
    checksum mismatch — the coordinator treats any invalid shard as "this
    cut never completed" and falls back to an older manifest.
    """
    data = _load_envelope(path, _SHARD_MAGIC, "checkpoint shard")
    if not isinstance(data, ShardData):
        raise CorruptCheckpointError(f"{path}: payload is not ShardData")
    return data


def checkpoint_chain(path: str | Path) -> list[Path]:
    """Existing snapshot files for ``path``, newest first.

    ``path`` is the newest snapshot's file, or a checkpoint directory holding
    it as :data:`CHECKPOINT_NAME`.  Discovers rotated generations
    (``<path>.1``, ``<path>.2``, ...) without needing to know the writer's
    ``keep`` setting.
    """
    path = Path(path)
    if path.is_dir():
        path = path / CHECKPOINT_NAME
    out = [path] if path.exists() else []
    i = 1
    while True:
        p = path.with_name(f"{path.name}.{i}")
        if not p.exists():
            break
        out.append(p)
        i += 1
    return out


def load_checkpoint(path: str | Path) -> CheckpointData:
    """Read and validate one checkpoint file.

    Raises
    ------
    CorruptCheckpointError
        The file is truncated, garbage, fails its embedded SHA-256
        checksum, or does not decode to :class:`CheckpointData`.
    MPSimError
        The file is a checkpoint of an unsupported format version.
    FileNotFoundError
        The file does not exist.
    """
    data = _load_envelope(path, _MAGIC, "checkpoint")
    if not isinstance(data, CheckpointData):
        raise CorruptCheckpointError(f"{path}: payload is not CheckpointData")
    return data


def load_latest_valid(path: str | Path) -> tuple[CheckpointData, Path]:
    """Load the newest snapshot in ``path``'s rotation chain that validates.

    Returns the data and the file it came from.  Corrupt generations are
    skipped; if *no* generation validates, the newest failure is re-raised
    as :class:`CorruptCheckpointError`.
    """
    chain = checkpoint_chain(path)
    if not chain:
        raise FileNotFoundError(f"no checkpoint found at {path}")
    failures: list[str] = []
    for p in chain:
        try:
            return load_checkpoint(p), p
        except MPSimError as exc:
            failures.append(str(exc))
    raise CorruptCheckpointError(
        f"no valid checkpoint in chain of {len(chain)} at {path}: "
        + "; ".join(failures)
    )


def resume(
    path: str | Path,
    checkpointer: Checkpointer | None = None,
    max_supersteps: int | None = None,
) -> tuple[BSPEngine, list[Any]]:
    """Continue a checkpointed run to completion.

    Loads the newest *valid* snapshot in ``path``'s rotation chain (falling
    back past corrupted generations); ``path`` may be a snapshot file or a
    run's ``checkpoint_dir``.  Returns the reconstructed engine
    (with cumulative counters) and the finished rank programs; read results
    off the programs exactly as after a normal :meth:`BSPEngine.run`.
    ``max_supersteps`` defaults to the checkpoint's own recorded bound —
    pass a larger value explicitly if the crashed run died by *exhausting*
    that bound.
    """
    data, _ = load_latest_valid(path)
    engine = BSPEngine(
        data.size,
        cost_model=data.cost,
        max_supersteps=max_supersteps if max_supersteps is not None else data.max_supersteps,
    )
    engine.stats = data.stats
    engine.simulated_time = data.simulated_time
    engine.supersteps = data.supersteps
    engine.run(data.programs, checkpointer=checkpointer, initial_inboxes=data.inboxes)
    return engine, data.programs
