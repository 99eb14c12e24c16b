#!/usr/bin/env python
"""Scenario: epidemic spread on a generated contact network.

NDSSL — the authors' lab — builds exactly this pipeline: generate a massive
synthetic contact network, then run epidemic dynamics on it.  This example
generates a PA contact network with the parallel algorithm, writes it
per-rank to disk (the paper's shared-file-system output model), reloads it,
and runs a discrete-time SIR process, comparing spread from a random seed
case versus a hub seed case.

Run:  python examples/epidemic_simulation.py [--small]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import generate
from repro.graph.edgelist import EdgeList
from repro.graph.io import merge_rank_files, write_rank_edges
from repro.graph.metrics import adjacency_from_edges

S, I, R = 0, 1, 2


def sir_step(indptr, nbrs, state, beta, gamma, rng):
    """One synchronous SIR step, fully vectorized; returns newly infected count.

    Every infected node's neighbourhood is gathered in one shot (CSR
    fancy-indexing, no per-node Python loop); each susceptible contact
    rolls an independent transmission with probability ``beta``, then the
    infected recover with probability ``gamma``.
    """
    infected = np.flatnonzero(state == I)
    if not len(infected):
        return 0
    counts = indptr[infected + 1] - indptr[infected]
    total = int(counts.sum())
    newly = 0
    if total:
        # gather all infected nodes' neighbours at once
        offsets = np.repeat(indptr[infected] - np.concatenate(
            ([0], np.cumsum(counts)[:-1])), counts)
        neigh = nbrs[np.arange(total) + offsets]
        sus = neigh[state[neigh] == S]
        hit = np.unique(sus[rng.random(len(sus)) < beta])
        state[hit] = I
        newly = len(hit)
    recover = infected[rng.random(len(infected)) < gamma]
    state[recover] = R
    return newly


def sir(indptr, nbrs, n, patient_zero, beta, gamma, rng, max_steps=100):
    """Discrete-time SIR; returns (peak_infected, total_ever_infected, steps)."""
    state = np.zeros(n, dtype=np.int8)
    state[patient_zero] = I
    peak, ever = 1, 1
    for step in range(1, max_steps + 1):
        if not (state == I).any():
            return peak, ever, step
        ever += sir_step(indptr, nbrs, state, beta, gamma, rng)
        peak = max(peak, int((state == I).sum()))
    return peak, ever, max_steps


def main() -> None:
    small = "--small" in sys.argv
    n, x, ranks = (3_000, 4, 4) if small else (30_000, 4, 8)
    print(f"Generating contact network: n={n:,}, x={x}, {ranks} ranks")
    result = generate(n=n, x=x, ranks=ranks, scheme="rrp", seed=11)
    result.validate().raise_if_failed()

    # Per-rank disk output, as the MPI ranks would write on a shared FS:
    # rank r writes the r-th contiguous stripe of the edge list.
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        stripes = zip(np.array_split(result.edges.sources, ranks),
                      np.array_split(result.edges.targets, ranks))
        for r, (u, v) in enumerate(stripes):
            path = write_rank_edges(tmp_path, r, ranks, EdgeList.from_arrays(u, v))
        print(f"wrote {ranks} rank files under {tmp_path.name}/ "
              f"(e.g. {path.name})")
        edges = merge_rank_files(tmp_path, ranks)
    print(f"reloaded {len(edges):,} edges from disk")

    indptr, nbrs = adjacency_from_edges(edges, n)
    degrees = np.diff(indptr)
    rng = np.random.default_rng(11)

    beta, gamma = 0.08, 0.35
    print(f"\nSIR dynamics: transmission beta={beta}, recovery gamma={gamma}")

    random_seed_case = int(rng.integers(0, n))
    hub = int(np.argmax(degrees))
    for label, p0 in (("random member", random_seed_case), ("top hub", hub)):
        peaks, evers = [], []
        for rep in range(5):
            peak, ever, _ = sir(indptr, nbrs, n, p0, beta, gamma,
                                np.random.default_rng(100 + rep))
            peaks.append(peak)
            evers.append(ever)
        print(f"  patient zero = {label:>13} (degree {degrees[p0]:>4}): "
              f"peak infected {np.mean(peaks):>8.0f}, "
              f"attack size {np.mean(evers) / n:.1%}")

    print("\nHub seeding ignites faster/larger outbreaks — why hub structure "
          "matters and why generators must reproduce it faithfully.")


if __name__ == "__main__":
    main()
