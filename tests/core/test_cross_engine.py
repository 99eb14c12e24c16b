"""Cross-validation: BSP bulk engine vs literal event-driven engine.

The event engine runs Algorithm 3.1 (``x = 1``) only.  Both engines consume
the identical per-node uniforms from the same rank streams, so they must
produce **bit-identical** graphs.
"""

import numpy as np
import pytest

from repro import generate
from repro.core.event_driven import run_event_driven_pa_x1
from repro.core.partitioning import make_partition
from repro.graph.degree import degrees_from_edges


@pytest.mark.parametrize("scheme", ["ucp", "lcp", "rrp"])
@pytest.mark.parametrize("P", [1, 2, 5, 11])
def test_x1_bit_identical(scheme, P):
    n, seed = 1200, 99
    part = make_partition(scheme, n, P)
    bulk = generate(n, partition=part, seed=seed).edges
    literal, _ = run_event_driven_pa_x1(n, part, seed=seed)
    assert np.array_equal(bulk.canonical(), literal.canonical())


def test_x1_three_engines_bit_identical():
    """BSP bulk, literal event-driven, and the multiprocessing backend all
    consume the same per-node draw protocol: one seed, one graph, three
    execution engines."""
    from repro.core.parallel_pa import PAx1RankProgram
    from repro.mpsim.mp_backend import MultiprocessingBSPEngine
    from repro.rng import StreamFactory

    n, P, seed = 800, 4, 7
    part = make_partition("rrp", n, P)
    bulk = generate(n, partition=part, seed=seed).edges
    literal, _ = run_event_driven_pa_x1(n, part, seed=seed)

    factory = StreamFactory(seed)
    eng = MultiprocessingBSPEngine(P)
    eng.run([PAx1RankProgram(r, part, 0.5, factory.stream(r)) for r in range(P)])
    from repro.graph.edgelist import EdgeList

    mp_edges = EdgeList()
    for t, f in eng.results:
        mp_edges.append_arrays(t, f)

    assert np.array_equal(bulk.canonical(), literal.canonical())
    assert np.array_equal(bulk.canonical(), mp_edges.canonical())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_x1_bit_identical_many_seeds(seed):
    n, P = 700, 6
    part = make_partition("rrp", n, P)
    bulk = generate(n, partition=part, seed=seed).edges
    literal, _ = run_event_driven_pa_x1(n, part, seed=seed)
    assert np.array_equal(bulk.canonical(), literal.canonical())


def test_partitioning_changes_instance_not_distribution():
    """Different schemes give different graphs (rank streams shift) but the
    same degree law."""
    n, seed = 20_000, 5
    tails = []
    for scheme in ("ucp", "lcp", "rrp"):
        part = make_partition(scheme, n, 8)
        edges = generate(n, partition=part, seed=seed).edges
        tails.append((degrees_from_edges(edges, n) >= 4).mean())
    assert max(tails) - min(tails) < 0.01


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    n=st.integers(min_value=2, max_value=400),
    P=st.integers(min_value=1, max_value=10),
    scheme=st.sampled_from(["ucp", "lcp", "rrp", "ecp"]),
    p=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_x1_bit_identical_property(n, P, scheme, p, seed):
    """Property form of the cross-engine guarantee: for any configuration,
    the bulk and literal engines produce the identical graph."""
    P = min(P, n)
    part = make_partition(scheme, n, P)
    bulk = generate(n, partition=part, p=p, seed=seed).edges
    from repro.core.event_driven import run_event_driven_pa_x1 as _run_ed

    literal, _ = _run_ed(n, part, p=p, seed=seed)
    assert np.array_equal(bulk.canonical(), literal.canonical())
