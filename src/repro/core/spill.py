"""Out-of-core (spill-to-disk) storage for massive generations.

The paper generates 50-billion-edge networks; at 16 bytes per edge that is
~0.8 TB of edge storage — far beyond main memory, and the reason every
container in this repository being pure in-RAM NumPy capped practical ``n``
around 10^7.  This module moves the *edge storage* layer out of core while
keeping every hot loop vectorised:

* :class:`SpillEdgeList` — the read-only
  :class:`~repro.graph.edgelist.EdgeList` counterpart an out-of-core run
  returns, backed by the run's two ``int64`` column files; reads come back
  as read-only ``np.memmap`` views (the OS pages them in on demand and may
  evict them under pressure — they are file cache, not heap).
* :func:`prepare_regions` / :class:`EdgeShardWriter` /
  :func:`assemble_shards` — each edge is written once, into its final
  place.  The coordinator pre-sizes the run's two columns from the ranks'
  edge counts (:func:`rank_edge_counts`, a pure function of each rank's
  node set); every rank ``pwrite``-s its edges straight into its own
  region, hashing them as it goes, and seals a small manifest in the *same
  sha256-sealed envelope* as the mp checkpoint shards
  (:func:`repro.mpsim.checkpoint.save_sealed`).  The coordinator requires
  every manifest, checks that the regions tile the columns, re-hashes each
  region from disk, and only then adopts the files — so a worker killed
  mid-write, or a bit flipped on disk, raises instead of silently
  corrupting the graph.
* :func:`edges_digest` — chunked content digests, so even the bit-identity
  *check* against an in-RAM run never materialises the whole graph.

Everything here is bit-transparent: a spilled run produces exactly the
bytes an in-RAM run produces, at every rank count — asserted by
``tests/core/test_spill.py`` and gated in CI.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.mpsim.checkpoint import load_sealed, save_sealed
from repro.mpsim.errors import CorruptCheckpointError

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "EDGE_SHARD_MAGIC",
    "EdgeShardWriter",
    "SpillEdgeList",
    "assemble_shards",
    "edges_digest",
    "iter_edge_blocks",
    "load_edge_manifest",
    "prepare_regions",
    "rank_edge_counts",
    "rank_shard_dir",
    "write_edge_shards",
]

#: default out-of-core budget: bounds the adoption-time verification reads
#: and a :class:`SpillEdgeList`'s read blocks
DEFAULT_BUDGET_BYTES = 64 << 20

#: sealed-envelope magic for edge-region manifests — distinct from
#: checkpoint shards so a checkpoint loader can never mistake edge data for
#: program state
EDGE_SHARD_MAGIC = "repro-edge-shard"
_MANIFEST_NAME = "MANIFEST"

#: largest read block of the adoption-time re-hash (per thread)
_VERIFY_BLOCK = 1 << 20


class SpillEdgeList:
    """A read-only :class:`EdgeList` whose two columns are files on disk.

    The adopted form of an out-of-core run's output: :func:`assemble_shards`
    verifies the ranks' regions of ``<dir>/u.i64`` and ``<dir>/v.i64`` and
    then takes the files over with :meth:`adopt`, the one constructor.  It
    honours the EdgeList read API — ``sources`` / ``targets``,
    ``num_nodes``, ``as_array``, ``canonical``, iteration, equality — with
    one memory contract change: the columns come back as read-only
    ``np.memmap`` views (the OS pages them in on demand and may evict them
    under pressure — they are file cache, not heap).  Nothing appends to it.

    Examples
    --------
    >>> import tempfile
    >>> d = Path(tempfile.mkdtemp())
    >>> np.array([1, 2, 3], dtype="<i8").tofile(d / "u.i64")
    >>> np.array([0, 0, 1], dtype="<i8").tofile(d / "v.i64")
    >>> el = SpillEdgeList.adopt(d, max_node=3)
    >>> len(el), el.num_nodes, list(el)
    (3, 4, [(1, 0), (2, 0), (3, 1)])
    """

    @classmethod
    def adopt(
        cls,
        directory: str | Path,
        max_node: int,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ) -> "SpillEdgeList":
        """Take over complete ``u.i64``/``v.i64`` files under ``directory``.

        The files' length is the edge count; ``max_node`` is their largest
        node id (-1 when empty), which the caller already knows — e.g. from
        the ranks' manifests in :func:`assemble_shards`.  ``budget_bytes``
        bounds the blocks the streaming reads (iteration,
        :meth:`has_self_loops`) hold at once: ``budget_bytes // 16`` edges.
        """
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        el = cls.__new__(cls)
        el.directory = Path(directory)
        el.budget_bytes = int(budget_bytes)
        el._block = max(el.budget_bytes // 16, 1)
        el._path_u = el.directory / "u.i64"
        el._path_v = el.directory / "v.i64"
        el._size = _column_edges((el._path_u, el._path_v))
        el._max_node = int(max_node)
        return el

    # -------------------------------------------------------------- viewing
    def _column(self, path: Path) -> np.ndarray:
        if self._size == 0:
            return np.empty(0, dtype=np.int64)
        return np.memmap(path, dtype="<i8", mode="r", shape=(self._size,))

    @property
    def sources(self) -> np.ndarray:
        """The ``u`` endpoints as a read-only ``np.memmap`` view."""
        return self._column(self._path_u)

    @property
    def targets(self) -> np.ndarray:
        """The ``v`` endpoints as a read-only ``np.memmap`` view."""
        return self._column(self._path_v)

    def __len__(self) -> int:
        return self._size

    @property
    def num_edges(self) -> int:
        return self._size

    @property
    def num_nodes(self) -> int:
        """1 + max node id (0 when empty)."""
        if self._size == 0:
            return 0
        return self._max_node + 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for u, v in iter_edge_blocks(self, self._block):
            for i in range(len(u)):
                yield int(u[i]), int(v[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EdgeList, SpillEdgeList)):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool(np.array_equal(self.sources, other.sources))
            and bool(np.array_equal(self.targets, other.targets))
        )

    def __hash__(self) -> int:  # pragma: no cover - containers are unhashable
        raise TypeError("SpillEdgeList is unhashable, like EdgeList")

    def __repr__(self) -> str:
        return (
            f"SpillEdgeList(num_edges={len(self)}, num_nodes={self.num_nodes}, "
            f"dir={str(self.directory)!r})"
        )

    # ---------------------------------------------------------- conversions
    def as_array(self) -> np.ndarray:
        """``(m, 2)`` in-RAM array of edges (materialises; use in tests)."""
        return np.column_stack([np.asarray(self.sources), np.asarray(self.targets)])

    def canonical(self) -> np.ndarray:
        """Row-sorted ``(min, max)`` pairs (materialises; O(m) RAM)."""
        return self.to_edgelist().canonical()

    def has_duplicates(self) -> bool:
        return self.to_edgelist().has_duplicates()

    def has_self_loops(self) -> bool:
        out = False
        for u, v in iter_edge_blocks(self, self._block):
            if bool((u == v).any()):
                out = True
                break
        return out

    def to_edgelist(self) -> EdgeList:
        """Materialise into an in-RAM :class:`EdgeList` (O(m) RAM)."""
        return EdgeList.from_arrays(self.sources, self.targets)

    def copy(self) -> EdgeList:
        return self.to_edgelist()


def iter_edge_blocks(
    edges: Any, block_edges: int = 1 << 20
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(u, v)`` blocks of at most ``block_edges`` from any edge list.

    Works on :class:`EdgeList` and :class:`SpillEdgeList` alike; for the
    spilled kind the blocks are slices of the memmap views, so only
    ``block_edges`` worth of pages is ever touched at once.
    """
    if block_edges < 1:
        raise ValueError(f"block_edges must be >= 1, got {block_edges}")
    srcs, tgts = edges.sources, edges.targets
    for lo in range(0, len(srcs), block_edges):
        hi = min(lo + block_edges, len(srcs))
        yield np.asarray(srcs[lo:hi]), np.asarray(tgts[lo:hi])


def edges_digest(edges: Any, block_edges: int = 1 << 20) -> str:
    """SHA-256 of the edge stream, computed in bounded-RSS chunks.

    Hashes the full ``u`` column, then the full ``v`` column, so the digest
    is a pure function of the edge *content* — independent of
    ``block_edges`` and of where the edges live.  Two edge lists are
    bit-identical iff their digests match, so the out-of-core bench/CI can
    compare a 10^8-edge spilled run against an in-RAM reference without
    holding either as one array.
    """
    h = hashlib.sha256()
    for u, _ in iter_edge_blocks(edges, block_edges):
        h.update(np.ascontiguousarray(u, dtype="<i8").tobytes())
    for _, v in iter_edge_blocks(edges, block_edges):
        h.update(np.ascontiguousarray(v, dtype="<i8").tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# rank regions — out-of-core runs write each edge once, in its final place
# --------------------------------------------------------------------------

_EDGES_DIR = "edges"
_SHARDS_DIR = "shards"


def _column_paths(directory: str | Path) -> tuple[Path, Path]:
    """The run's final ``u``/``v`` columns: ``<directory>/edges/{u,v}.i64``."""
    edges = Path(directory) / _EDGES_DIR
    return edges / "u.i64", edges / "v.i64"


def _column_edges(paths: tuple[Path, Path]) -> int:
    """Edges held by a pair of column files; they must agree."""
    sizes = [p.stat().st_size if p.exists() else -1 for p in paths]
    if sizes[0] != sizes[1] or sizes[0] < 0 or sizes[0] % 8:
        raise CorruptCheckpointError(
            f"{paths[0].parent}: column files are missing or disagree "
            f"(u: {sizes[0]} bytes, v: {sizes[1]} bytes)"
        )
    return sizes[0] // 8


def rank_edge_counts(x: int, sizes: Any, owner: Any) -> np.ndarray:
    """Edges each rank emits, a pure function of its node set.

    Node ``t`` contributes ``min(t, x)`` edges: a clique node ``t < x`` its
    ``t`` clique edges (node 0 none), every later node ``x`` attachments.
    So rank ``r`` emits ``x * sizes[r]``, less ``x - t`` for each clique
    node ``t`` it owns — for contiguous slices and every partition scheme
    alike.  ``owner`` maps an array of node ids to their ranks, e.g.
    :meth:`repro.core.partitioning.Partition.owner`.

    Examples
    --------
    >>> rank_edge_counts(1, [3, 3], lambda t: t % 2).tolist()  # rrp, n=6
    [2, 3]
    >>> rank_edge_counts(3, [2, 3], lambda t: t // 2).tolist()  # x-clique
    [1, 8]
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = sizes * x
    clique = np.arange(min(x, int(sizes.sum())), dtype=np.int64)
    np.subtract.at(counts, np.asarray(owner(clique), dtype=np.int64), x - clique)
    return counts


def prepare_regions(directory: str | Path, counts: Any) -> np.ndarray:
    """Lay out an out-of-core run and return its region offsets.

    Creates ``<directory>/edges/{u,v}.i64`` sized to exactly
    ``sum(counts)`` edges (sparse until the ranks fill them) and removes
    every manifest under ``<directory>/shards``, so nothing an earlier run
    left in the same directory can be adopted.  Rank ``r`` owns edges
    ``[offsets[r], offsets[r + 1])`` of both columns.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError(f"edge counts must be >= 0, got {counts.tolist()}")
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    shards = Path(directory) / _SHARDS_DIR
    if shards.exists():
        shutil.rmtree(shards)
    for path in _column_paths(directory):
        path.parent.mkdir(parents=True, exist_ok=True)
        # a fresh inode: views already mapped from an earlier run's columns
        # keep their pages instead of faulting on a truncated file
        path.unlink(missing_ok=True)
        with open(path, "wb") as fh:
            fh.truncate(8 * int(offsets[-1]))
    return offsets


def discard_regions(directory: str | Path) -> None:
    """Remove what :func:`prepare_regions` and the ranks wrote under
    ``directory``: the ``edges/`` columns and the ``shards/`` manifests of
    a run that failed."""
    for sub in (_EDGES_DIR, _SHARDS_DIR):
        shutil.rmtree(Path(directory) / sub, ignore_errors=True)


def rank_shard_dir(directory: str | Path, rank: int, size: int) -> Path:
    """Canonical per-rank manifest directory within an out-of-core run dir."""
    width = max(len(str(size - 1)), 1)
    return Path(directory) / f"rank{rank:0{width}d}.of{size}"


def _pwrite_all(fd: int, data: np.ndarray, pos: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, pos)
        view = view[done:]
        pos += done


class EdgeShardWriter:
    """Writes one rank's edges straight into its region of the final columns.

    The region is ``[offsets[rank], offsets[rank + 1])`` of the columns
    :func:`prepare_regions` pre-sized.  :meth:`append_arrays` writes each
    batch into place with ``os.pwrite`` — no pickle, no staging copy — and
    folds its bytes into one running sha256 per column.  :meth:`seal` checks
    the region is exactly full, fsyncs both columns, and only then writes the
    rank's ``MANIFEST`` (offset, edge count, max node id, the two digests) in
    the same sha256-sealed envelope as mp checkpoint shards.  Until the
    manifest exists the region is not a valid rank output, so a worker
    killed mid-write is indistinguishable from one that never ran.
    """

    def __init__(self, directory: str | Path, rank: int, offsets: Any) -> None:
        self.directory = Path(directory)
        self.size = len(offsets) - 1
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        self.rank = int(rank)
        self.offset = int(offsets[rank])
        self.count = int(offsets[rank + 1]) - self.offset
        self._paths = _column_paths(directory)
        self._hashes = (hashlib.sha256(), hashlib.sha256())
        self._written = 0
        self._max_node = -1
        self._sealed = False

    def append_arrays(self, u: np.ndarray, v: np.ndarray) -> None:
        """Write a batch at the region's cursor; overflowing it raises."""
        if self._sealed:
            raise ValueError(f"rank {self.rank}: writer already sealed")
        u = np.ascontiguousarray(u, dtype="<i8")
        v = np.ascontiguousarray(v, dtype="<i8")
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("batch arrays must be equal-length and 1-D")
        if self._written + len(u) > self.count:
            raise ValueError(
                f"rank {self.rank}: {self._written + len(u)} edges overflow "
                f"its region of {self.count}"
            )
        if not len(u):
            return
        self._max_node = max(self._max_node, int(max(u.max(), v.max())))
        pos = 8 * (self.offset + self._written)
        for path, h, col in zip(self._paths, self._hashes, (u, v)):
            h.update(col)
            fd = os.open(path, os.O_WRONLY)
            try:
                _pwrite_all(fd, col, pos)
            finally:
                os.close(fd)
        self._written += len(u)

    def seal(self) -> dict:
        """Check the region is full, fsync it, write the sealed manifest."""
        if self._sealed:
            return self.manifest
        if self._written != self.count:
            raise ValueError(
                f"rank {self.rank}: wrote {self._written} edges into a region "
                f"of {self.count}"
            )
        for path in self._paths:
            fd = os.open(path, os.O_WRONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self.manifest = {
            "schema": "repro-edge-region-v1",
            "offset": self.offset,
            "edges": self.count,
            "max_node": self._max_node,
            "sha256_u": self._hashes[0].hexdigest(),
            "sha256_v": self._hashes[1].hexdigest(),
        }
        save_sealed(
            rank_shard_dir(self.directory / _SHARDS_DIR, self.rank, self.size)
            / _MANIFEST_NAME,
            EDGE_SHARD_MAGIC,
            self.manifest,
        )
        self._sealed = True
        return self.manifest


def write_edge_shards(
    directory: str | Path,
    rank: int,
    offsets: Any,
    blocks: Iterator[tuple[np.ndarray, np.ndarray]],
) -> dict:
    """Drain ``blocks`` into rank ``rank``'s region and seal it; returns the
    manifest.  The convenience wrapper streaming emitters such as the
    sequential copy model use."""
    writer = EdgeShardWriter(directory, rank, offsets)
    for u, v in blocks:
        writer.append_arrays(u, v)
    return writer.seal()


def load_edge_manifest(directory: str | Path) -> dict:
    """Load and validate one rank's sealed region manifest."""
    path = Path(directory) / _MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(
            f"{directory}: no sealed MANIFEST — the rank's emission never "
            f"completed (worker died before seal()) or this is not a rank "
            f"directory"
        )
    manifest = load_sealed(path, EDGE_SHARD_MAGIC, "edge-region manifest")
    if not isinstance(manifest, dict) or "offset" not in manifest:
        raise CorruptCheckpointError(f"{path}: payload is not a region manifest")
    return manifest


def _hash_region(path: Path, start: int, nbytes: int, block: int) -> str:
    """sha256 of ``nbytes`` of ``path`` from ``start``, read ``block`` at a time."""
    h = hashlib.sha256()
    buf = memoryview(bytearray(min(block, nbytes)))
    fd = os.open(path, os.O_RDONLY)
    try:
        done = 0
        while done < nbytes:
            got = os.preadv(fd, [buf[: min(block, nbytes - done)]], start + done)
            if not got:
                break
            h.update(buf[:got])
            done += got
    finally:
        os.close(fd)
    return h.hexdigest()


def assemble_shards(
    directory: str | Path, size: int, budget_bytes: int = DEFAULT_BUDGET_BYTES
) -> SpillEdgeList:
    """Verify every rank's region, then adopt the columns as the edge list.

    Requires all ``size`` sealed manifests, checks that their regions tile
    ``[0, m)`` of the pre-sized columns in rank order, and re-hashes every
    region from disk against its manifest — in a thread pool (``os.preadv``
    and ``hashlib`` release the GIL), reading blocks of at most 1 MiB that
    together stay within ``budget_bytes``.  Only then are the two files
    adopted as a :class:`SpillEdgeList`; no edge is copied.  A missing
    manifest raises
    :class:`FileNotFoundError`; a corrupt manifest, a gap or overlap, or a
    digest mismatch raises :class:`CorruptCheckpointError`.  Each names the
    rank.
    """
    paths = _column_paths(directory)
    m = _column_edges(paths)
    shards = Path(directory) / _SHARDS_DIR
    manifests = []
    end = 0
    for rank in range(size):
        try:
            man = load_edge_manifest(rank_shard_dir(shards, rank, size))
        except FileNotFoundError as exc:
            raise FileNotFoundError(f"rank {rank}: {exc}") from None
        except CorruptCheckpointError as exc:
            raise CorruptCheckpointError(f"rank {rank}: {exc}") from None
        off, cnt = man["offset"], man["edges"]
        if off != end:
            kind = "a gap" if off > end else "an overlap"
            raise CorruptCheckpointError(
                f"rank {rank}: region [{off}, {off + cnt}) leaves {kind} "
                f"after edge {end}"
            )
        end = off + cnt
        manifests.append(man)
    if end != m:
        raise CorruptCheckpointError(
            f"{paths[0].parent}: rank regions cover [0, {end}) but the "
            f"columns hold {m} edges"
        )

    tasks = [(rank, col) for rank in range(size) for col in range(2)]
    threads = max(min(len(tasks), os.cpu_count() or 1), 1)
    # cache-sized blocks hash fastest; the budget caps them on tiny budgets
    block = max(min(budget_bytes // threads, _VERIFY_BLOCK), 8)

    def digest(task: tuple[int, int]) -> str:
        rank, col = task
        man = manifests[rank]
        return _hash_region(paths[col], 8 * man["offset"], 8 * man["edges"], block)

    with ThreadPoolExecutor(threads) as pool:
        digests = list(pool.map(digest, tasks))
    for (rank, col), got in zip(tasks, digests):
        name = "uv"[col]
        want = manifests[rank][f"sha256_{name}"]
        if got != want:
            man = manifests[rank]
            raise CorruptCheckpointError(
                f"rank {rank}: column {name} region [{man['offset']}, "
                f"{man['offset'] + man['edges']}) fails its sha256 (sealed "
                f"{want[:12]}, on disk {got[:12]})"
            )
    max_node = max((man["max_node"] for man in manifests), default=-1)
    return SpillEdgeList.adopt(paths[0].parent, max_node, budget_bytes=budget_bytes)

