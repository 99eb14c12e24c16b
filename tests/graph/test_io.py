"""Tests for edge-list file I/O and the per-rank output model."""

import numpy as np
import pytest

from repro.graph.edgelist import EdgeList
from repro.graph.io import (
    merge_rank_files,
    rank_file_path,
    read_edges_binary,
    read_edges_text,
    read_rank_edges,
    write_edges_binary,
    write_edges_text,
    write_rank_edges,
)


@pytest.fixture
def sample_edges():
    rng = np.random.default_rng(0)
    return EdgeList.from_arrays(rng.integers(0, 1000, 500), rng.integers(0, 1000, 500))


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path, sample_edges):
        path = tmp_path / "edges.bin"
        write_edges_binary(path, sample_edges)
        assert read_edges_binary(path) == sample_edges

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_edges_binary(path, EdgeList())
        assert len(read_edges_binary(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_edges_binary(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            read_edges_binary(path)

    def test_truncated_body(self, tmp_path, sample_edges):
        path = tmp_path / "cut.bin"
        write_edges_binary(path, sample_edges)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_edges_binary(path)

    def test_mmap_roundtrip_zero_copy(self, tmp_path, sample_edges):
        path = tmp_path / "edges.bin"
        write_edges_binary(path, sample_edges)
        mapped = read_edges_binary(path, mmap_mode="r")
        assert mapped == sample_edges
        import mmap

        src = mapped.sources
        assert not src.flags.owndata  # a view over the file, not a copy
        base = src
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, mmap.mmap)  # ... and the file is the bottom
        with pytest.raises(ValueError):  # views are read-only
            src[0] = 99

    def test_mmap_leaves_max_node_unscanned(self, tmp_path, sample_edges):
        """Opening maps the file without reading its body; the max node id
        is read on first use and equals the eager read's."""
        path = tmp_path / "edges.bin"
        write_edges_binary(path, sample_edges)
        mapped = read_edges_binary(path, mmap_mode="r")
        assert mapped._max_node is None
        assert mapped.num_nodes == read_edges_binary(path).num_nodes == sample_edges.num_nodes

    def test_mmap_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_edges_binary(path, EdgeList())
        assert len(read_edges_binary(path, mmap_mode="r")) == 0

    def test_mmap_rejects_unknown_mode(self, tmp_path, sample_edges):
        path = tmp_path / "edges.bin"
        write_edges_binary(path, sample_edges)
        with pytest.raises(ValueError, match="mmap_mode"):
            read_edges_binary(path, mmap_mode="r+")

    def test_mmap_truncated_body(self, tmp_path, sample_edges):
        path = tmp_path / "cut.bin"
        write_edges_binary(path, sample_edges)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_edges_binary(path, mmap_mode="r")

    def test_chunked_write_bytes_identical(self, tmp_path, sample_edges):
        one_shot = tmp_path / "one.bin"
        chunked = tmp_path / "chunked.bin"
        write_edges_binary(one_shot, sample_edges)
        write_edges_binary(chunked, sample_edges, chunk_edges=7)
        assert one_shot.read_bytes() == chunked.read_bytes()


class TestTextFormat:
    def test_roundtrip(self, tmp_path, sample_edges):
        path = tmp_path / "edges.txt"
        write_edges_text(path, sample_edges)
        assert read_edges_text(path) == sample_edges

    def test_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="2 columns"):
            read_edges_text(path)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_edges_text(path, EdgeList())
        assert read_edges_text(path) == EdgeList()

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n  \n")
        assert len(read_edges_text(path)) == 0


class TestRankFiles:
    def test_rank_path_unique_and_sortable(self, tmp_path):
        paths = [rank_file_path(tmp_path, r, 16) for r in range(16)]
        assert len(set(paths)) == 16
        assert paths == sorted(paths)

    def test_write_read_merge(self, tmp_path):
        size = 4
        per_rank = []
        for r in range(size):
            el = EdgeList.from_arrays(
                np.arange(r * 10 + 1, r * 10 + 6), np.zeros(5, dtype=np.int64)
            )
            per_rank.append(el)
            write_rank_edges(tmp_path, r, size, el)
        for r in range(size):
            assert read_rank_edges(tmp_path, r, size) == per_rank[r]
        merged = merge_rank_files(tmp_path, size)
        assert len(merged) == 20

    def test_merge_missing_rank_names_the_gap(self, tmp_path):
        size = 3
        for r in (0, 2):  # rank 1 "crashed" before writing
            write_rank_edges(
                tmp_path, r, size,
                EdgeList.from_arrays(np.arange(1, 4), np.zeros(3, np.int64)),
            )
        with pytest.raises(FileNotFoundError, match="missing 1 of 3") as exc:
            merge_rank_files(tmp_path, size)
        assert rank_file_path(tmp_path, 1, size).name in str(exc.value)

    def test_streaming_merge_matches_in_ram(self, tmp_path):
        size = 4
        rng = np.random.default_rng(3)
        for r in range(size):
            write_rank_edges(
                tmp_path, r, size,
                EdgeList.from_arrays(
                    rng.integers(0, 50, 33), rng.integers(0, 50, 33)
                ),
            )
        in_ram = merge_rank_files(tmp_path, size)
        out = tmp_path / "merged.bin"
        streamed = merge_rank_files(tmp_path, size, out=out, chunk_edges=10)
        assert streamed == in_ram
        # the streamed file is itself a valid container with a correct count
        assert read_edges_binary(out) == in_ram

    def test_parallel_run_to_disk(self, tmp_path):
        """End-to-end: generate on 4 ranks, write per-rank, merge, validate."""
        from repro import generate
        from repro.core.partitioning import make_partition
        from repro.graph.validation import validate_pa_graph

        n, x, P = 400, 2, 4
        part = make_partition("rrp", n, P)
        edges = generate(n, x, partition=part, seed=1).edges
        stripes = zip(np.array_split(edges.sources, P), np.array_split(edges.targets, P))
        for r, (u, v) in enumerate(stripes):
            write_rank_edges(tmp_path, r, P, EdgeList.from_arrays(u, v))
        merged = merge_rank_files(tmp_path, P)
        assert validate_pa_graph(merged, n, x).ok
