"""Section 4.3 context — sequential generator comparison.

The paper states its C++ sequential implementation "outperforms the best
available implementation of BA model given in NetworkX".  We reproduce the
comparison in Python: our Batagelj–Brandes implementation and the paper's
own algorithm — the copy model as ``generate(engine="sequential")`` runs it,
Algorithm 3.2's rank program over one rank at ``x = 4`` — against
NetworkX's ``barabasi_albert_graph`` and the naive Θ(n²) strawman.

Regenerates: the sequential-throughput comparison (edges/second table).
"""

import time

import pytest

from repro import generate
from repro.bench.reporting import format_table
from repro.seq.ba_naive import ba_naive
from repro.seq.batagelj_brandes import batagelj_brandes
from repro.seq.copy_model import copy_model_x1

N = 100_000
X = 4


def _copy_model(n, x, seed):
    return generate(n, x=x, engine="sequential", seed=seed).edges


def _networkx_ba(n, x, seed):
    import networkx as nx

    return nx.barabasi_albert_graph(n, x, seed=seed)


@pytest.mark.benchmark(group="sequential-x4")
def test_bench_batagelj_brandes(benchmark):
    el = benchmark.pedantic(batagelj_brandes, args=(N,), kwargs={"x": X, "seed": 0},
                            rounds=2, iterations=1)
    assert len(el) > 0


@pytest.mark.benchmark(group="sequential-x4")
def test_bench_copy_model(benchmark):
    el = benchmark.pedantic(_copy_model, args=(N, X, 0), rounds=2, iterations=1)
    assert len(el) > 0


@pytest.mark.benchmark(group="sequential-x4")
def test_bench_networkx(benchmark):
    pytest.importorskip("networkx")
    g = benchmark.pedantic(_networkx_ba, args=(N, X, 0), rounds=2, iterations=1)
    assert g.number_of_nodes() == N


@pytest.mark.benchmark(group="sequential-x1")
def test_bench_copy_model_x1_vectorised(benchmark):
    """The pointer-jumping x=1 path is the fastest generator in the repo."""
    el = benchmark.pedantic(copy_model_x1, args=(1_000_000,), kwargs={"seed": 0},
                            rounds=2, iterations=1)
    assert len(el) == 999_999


@pytest.mark.benchmark(group="sequential-naive")
def test_bench_naive_small(benchmark):
    """The Θ(n²) strawman at a size it can still handle."""
    el = benchmark.pedantic(ba_naive, args=(4_000,), kwargs={"x": 1, "seed": 0},
                            rounds=1, iterations=1)
    assert len(el) == 3_999


def test_throughput_report(report):
    rows = []
    for name, fn, n in (
        ("naive theta(n^2)", lambda: ba_naive(4_000, x=X, seed=1), 4_000),
        ("batagelj-brandes", lambda: batagelj_brandes(N, x=X, seed=1), N),
        ("copy model (x=4)", lambda: _copy_model(N, X, 1), N),
        ("copy model x=1 (vectorised)", lambda: copy_model_x1(1_000_000, seed=1), 1_000_000),
    ):
        t0 = time.perf_counter()
        el = fn()
        dt = time.perf_counter() - t0
        rows.append((name, n, len(el), f"{len(el) / dt / 1e6:.2f}"))
    try:
        import networkx as nx

        t0 = time.perf_counter()
        g = nx.barabasi_albert_graph(N, X, seed=1)
        dt = time.perf_counter() - t0
        rows.append(("networkx BA", N, g.number_of_edges(),
                     f"{g.number_of_edges() / dt / 1e6:.2f}"))
    except ImportError:  # pragma: no cover
        pass
    report.emit(format_table(
        ["generator", "n", "edges", "Medges/s"],
        rows,
        title="Sequential generator throughput (Section 4.3 context)",
    ))


def test_scaling_gap_naive_vs_bb(report):
    """Quadrupling n blows up the naive time far faster than BB's.

    Wall-clock ratios are noisy on loaded hosts, so the measurement is
    retried (best-of-3 per point, up to 3 measurement rounds) before the
    asymptotic-gap assertion is considered failed.
    """
    def measure():
        times = {}
        for n in (6_000, 24_000):
            for name, fn in (("naive", ba_naive), ("bb", batagelj_brandes)):
                best = float("inf")
                for _ in range(3):
                    t0 = time.perf_counter()
                    fn(n, x=1, seed=2)
                    best = min(best, time.perf_counter() - t0)
                times[(name, n)] = best
        naive_ratio = times[("naive", 24_000)] / times[("naive", 6_000)]
        bb_ratio = times[("bb", 24_000)] / times[("bb", 6_000)]
        return naive_ratio, bb_ratio

    for _round in range(3):
        naive_ratio, bb_ratio = measure()
        if naive_ratio > 1.5 * bb_ratio:
            break
    report.emit(f"time ratio for n 6k->24k: naive {naive_ratio:.1f}x "
                f"(Theta(n^2) predicts 16x), Batagelj-Brandes {bb_ratio:.1f}x "
                "(O(m) predicts 4x)")
    assert naive_ratio > 1.5 * bb_ratio
