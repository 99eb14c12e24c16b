"""Extension — distributed analysis of the generated, partitioned graph.

The paper motivates its partitioning flexibility with downstream analysis
(Section 3.2).  This benchmark exercises that workflow end-to-end: generate
with the parallel algorithm, scatter the edges to their owner ranks in the
distributed graph layer's one exchange, and run BFS / connected components /
PageRank / degree histogram as BSP programs — reporting supersteps and
traffic for each kernel, plus the utilisation Gantt that shows where
barrier time goes.
"""

import numpy as np
import pytest

from repro.bench.reporting import format_table
from repro import generate
from repro.core.partitioning import make_partition
from repro.distgraph import (
    DistributedGraph,
    distributed_bfs,
    distributed_components,
    distributed_degree_histogram,
    distributed_kcore,
    distributed_pagerank,
    distributed_triangles,
)

N = 100_000
X = 4
P = 32
SEED = 23


@pytest.fixture(scope="module")
def graph():
    part = make_partition("rrp", N, P)
    edges = generate(N, X, partition=part, seed=SEED).edges
    return DistributedGraph.from_edgelist(edges, part)


@pytest.fixture(scope="module")
def kernel_rows(graph):
    rows = []
    dist, eng = distributed_bfs(graph, 0)
    rows.append(("BFS (from node 0)", eng.supersteps, eng.stats.total_messages,
                 f"ecc={dist.max()}"))
    labels, eng = distributed_components(graph)
    rows.append(("connected components", eng.supersteps, eng.stats.total_messages,
                 f"components={len(np.unique(labels))}"))
    pr, eng = distributed_pagerank(graph, iterations=20)
    rows.append(("PageRank (20 iters)", eng.supersteps, eng.stats.total_messages,
                 f"top mass={pr.max():.2e}"))
    hist, eng = distributed_degree_histogram(graph)
    rows.append(("degree histogram", eng.supersteps, eng.stats.total_messages,
                 f"max degree={len(hist) - 1}"))
    mask, eng = distributed_kcore(graph, X + 1)
    rows.append((f"{X + 1}-core membership", eng.supersteps,
                 eng.stats.total_messages, f"core size={int(mask.sum())}"))
    return rows


def test_distributed_analysis_report(report, graph, kernel_rows):
    report.emit(format_table(
        ["kernel", "supersteps", "protocol records", "result"],
        kernel_rows,
        title=f"Distributed analysis on the partitioned graph, "
              f"n={N:.0e}, x={X}, P={P} (scattered in one exchange)",
    ))


def test_bfs_is_ultra_small_world(kernel_rows):
    ecc = int(kernel_rows[0][3].split("=")[1])
    assert ecc <= 3 * np.log(N) / np.log(np.log(N))


def test_graph_is_connected(kernel_rows):
    comps = int(kernel_rows[1][3].split("=")[1])
    assert comps == 1


def test_gantt_report(report, graph):
    from repro.mpsim.bsp import BSPEngine
    from repro.mpsim.trace import Tracer
    from repro.distgraph.bfs import _BFSProgram

    programs = [_BFSProgram(r, graph, 0) for r in range(P)]
    tracer = Tracer()
    BSPEngine(P).run(programs, tracer=tracer)
    report.emit(tracer.gantt(max_width=60))
    assert tracer.utilisation().mean() > 0.05


@pytest.mark.benchmark(group="distributed-analysis")
def test_bench_pagerank(benchmark, graph):
    pr, _ = benchmark.pedantic(
        lambda: distributed_pagerank(graph, iterations=10), rounds=1, iterations=1
    )
    assert abs(pr.sum() - 1.0) < 1e-9
