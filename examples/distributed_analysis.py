#!/usr/bin/env python
"""Scenario: analyse the generated network on its partition.

The paper's Section 3.2 anticipates exactly this consumer: "Many network
analysis algorithms require partitioning the graph ... Our different
partitioning schemes can be used to satisfy many such requirements."  This
example runs the full distributed pipeline:

1. generate a PA network with the parallel algorithm;
2. scatter its edges to their owner ranks in the distributed graph layer
   (one exchange);
3. run BFS, connected components, PageRank, and the degree histogram as
   BSP programs over the same partition;
4. render the execution Gantt showing per-rank utilisation.

Run:  python examples/distributed_analysis.py  [--small]
"""

import sys

import numpy as np

from repro import generate
from repro.core.partitioning import make_partition
from repro.distgraph import (
    DistributedGraph,
    distributed_bfs,
    distributed_components,
    distributed_degree_histogram,
    distributed_pagerank,
)
from repro.mpsim.bsp import BSPEngine
from repro.mpsim.trace import Tracer


def main() -> None:
    small = "--small" in sys.argv
    n, x, ranks = (4_000, 3, 4) if small else (60_000, 4, 16)

    print(f"1. Generating PA network: n={n:,}, x={x} on {ranks} ranks (RRP)")
    part = make_partition("rrp", n, ranks)
    result = generate(n, x, partition=part, seed=29)
    print(f"   done in {result.supersteps} supersteps")

    print("2. Building the distributed adjacency (one scatter exchange)")
    graph = DistributedGraph.from_edgelist(result.edges, part)
    print(f"   {graph!r}")

    print("3. Distributed kernels:")
    dist, eng = distributed_bfs(graph, 0)
    print(f"   BFS from node 0: eccentricity {int(dist.max())} "
          f"({eng.supersteps} supersteps) — ultra-small world")

    labels, eng = distributed_components(graph)
    print(f"   components: {len(np.unique(labels))} "
          f"({eng.supersteps} supersteps) — PA graphs are connected")

    pr, eng = distributed_pagerank(graph, iterations=20)
    hubs = np.argsort(pr)[-3:][::-1]
    print("   PageRank top-3: "
          + ", ".join(f"node {int(h)} ({pr[h]:.2e})" for h in hubs))

    hist, eng = distributed_degree_histogram(graph)
    tail = int(np.flatnonzero(hist)[-1])
    print(f"   degree histogram: max degree {tail}, "
          f"{int(hist[x])} nodes at the minimum degree {x}")

    print("4. Execution timeline of the BFS (shade = rank utilisation):")
    from repro.distgraph.bfs import _BFSProgram

    bfs_programs = [_BFSProgram(r, graph, 0) for r in range(ranks)]
    tracer = Tracer()
    BSPEngine(ranks).run(bfs_programs, tracer=tracer)
    print(tracer.gantt(max_width=48))


if __name__ == "__main__":
    main()
