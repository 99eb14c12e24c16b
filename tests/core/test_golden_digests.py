"""Pinned ``edges_digest`` values for Algorithms 3.1 (``x = 1``) and 3.2.

Most tests compare one engine with another, so a change that alters the bsp
and mp graphs the same way would pass them.  These digests pin the exact
graphs: a deliberate change to the draw protocol or to the order in which
duplicate arbitration picks winners must re-record them.

The protocol cases pin more than the graph: supersteps, per-rank
``requests_sent`` and ``simulated_time`` (at ``x = 1``, and at ``x > 1`` also
``world_stats.total_bytes``, the bytes the cost model is charged).  Simulated time is a float
sum of per-call compute charges, so regrouping the same work items into
fewer ``ctx.charge`` calls moves it in the last bits only; it is compared to
a relative ``1e-12``, far below one work item's share of it.
"""

import itertools

import pytest

from repro import generate
from repro.core.partitioning import make_partition
from repro.core.spill import edges_digest
from repro.seq.copy_model import copy_model

N = 600

#: ``(x, P, scheme, p) -> edges_digest[:16]`` of the bsp ``generate()`` at
#: ``n = N`` and ``seed = 100 x + 10 P + 10 p``
BSP_DIGESTS = {
    (2, 1, 'rrp', 0.2): '46ffd08c1af8bc54',
    (2, 1, 'rrp', 0.9): '749404ce96c07565',
    (2, 1, 'ucp', 0.2): '46ffd08c1af8bc54',
    (2, 1, 'ucp', 0.9): '749404ce96c07565',
    (2, 1, 'lcp', 0.2): '46ffd08c1af8bc54',
    (2, 1, 'lcp', 0.9): '749404ce96c07565',
    (2, 3, 'rrp', 0.2): '3d4823012a74d70d',
    (2, 3, 'rrp', 0.9): 'e56deb4dfa96dad0',
    (2, 3, 'ucp', 0.2): 'd8fc5fc6deaf71cc',
    (2, 3, 'ucp', 0.9): '7218ba52412f72a0',
    (2, 3, 'lcp', 0.2): '4e913c7e23aace4d',
    (2, 3, 'lcp', 0.9): 'a30a3d31818a04d2',
    (2, 4, 'rrp', 0.2): 'd857df2d396edc6b',
    (2, 4, 'rrp', 0.9): 'deae134b030f7e22',
    (2, 4, 'ucp', 0.2): 'c6ca71f6699b57e9',
    (2, 4, 'ucp', 0.9): 'ba83f77039263e36',
    (2, 4, 'lcp', 0.2): 'c8eda8c8b307d773',
    (2, 4, 'lcp', 0.9): '0136457811bb38a0',
    (4, 1, 'rrp', 0.2): 'a4a9138f4321946c',
    (4, 1, 'rrp', 0.9): 'cd131beb3de79eb1',
    (4, 1, 'ucp', 0.2): 'a4a9138f4321946c',
    (4, 1, 'ucp', 0.9): 'cd131beb3de79eb1',
    (4, 1, 'lcp', 0.2): 'a4a9138f4321946c',
    (4, 1, 'lcp', 0.9): 'cd131beb3de79eb1',
    (4, 3, 'rrp', 0.2): '8972a8afe54e1ae5',
    (4, 3, 'rrp', 0.9): 'bf27893fe6d19c39',
    (4, 3, 'ucp', 0.2): '5e6b6e41fb2a6c93',
    (4, 3, 'ucp', 0.9): '94a596934b0c523f',
    (4, 3, 'lcp', 0.2): 'e2d00e6c371a2ae1',
    (4, 3, 'lcp', 0.9): '73c5e6ba18814d9b',
    (4, 4, 'rrp', 0.2): '9c4db5cdf9f8fd65',
    (4, 4, 'rrp', 0.9): '416a73e1757c2e6c',
    (4, 4, 'ucp', 0.2): 'c5bf4aad8638d5ba',
    (4, 4, 'ucp', 0.9): '6e343db7f3a33ffd',
    (4, 4, 'lcp', 0.2): '3ffde6a0e59fd2ee',
    (4, 4, 'lcp', 0.9): 'e355e4d846f95088',
    (6, 1, 'rrp', 0.2): 'e70800b438d92a8b',
    (6, 1, 'rrp', 0.9): '6cd340de9acc9370',
    (6, 1, 'ucp', 0.2): 'e70800b438d92a8b',
    (6, 1, 'ucp', 0.9): '6cd340de9acc9370',
    (6, 1, 'lcp', 0.2): 'e70800b438d92a8b',
    (6, 1, 'lcp', 0.9): '6cd340de9acc9370',
    (6, 3, 'rrp', 0.2): 'abfe20a00b1b4912',
    (6, 3, 'rrp', 0.9): '58781a1f93c462f7',
    (6, 3, 'ucp', 0.2): '59dd5f7106ebbedd',
    (6, 3, 'ucp', 0.9): '40679cbaed344e39',
    (6, 3, 'lcp', 0.2): '99d3605f1dc28c1e',
    (6, 3, 'lcp', 0.9): '4312eb537d371077',
    (6, 4, 'rrp', 0.2): '4b81565de4367b6c',
    (6, 4, 'rrp', 0.9): '1a1d69faa14be11a',
    (6, 4, 'ucp', 0.2): 'b097d95b5eb77067',
    (6, 4, 'ucp', 0.9): 'c347f07e2a8147ed',
    (6, 4, 'lcp', 0.2): '5c0dd2502b7e34fd',
    (6, 4, 'lcp', 0.9): '9166c6189f02a835',
}


#: ``(P, scheme, p) -> (edges_digest[:16], supersteps, requests_sent per rank,
#: simulated_time)`` of the bsp ``generate()`` at ``n = N`` and
#: ``seed = 100 + 10 P + 10 p``
X1_PROTOCOL = {
    (1, 'rrp', 0.2): ('e3eaf4a974224d28', 1, (0,), 0.00107468),
    (1, 'rrp', 0.9): ('5dcd9179daa41d29', 1, (0,), 0.0009263599999999999),
    (1, 'ucp', 0.2): ('e3eaf4a974224d28', 1, (0,), 0.00107468),
    (1, 'ucp', 0.9): ('5dcd9179daa41d29', 1, (0,), 0.0009263599999999999),
    (1, 'lcp', 0.2): ('e3eaf4a974224d28', 1, (0,), 0.00107468),
    (1, 'lcp', 0.9): ('5dcd9179daa41d29', 1, (0,), 0.0009263599999999999),
    (3, 'rrp', 0.2): ('e87a2d20ceb5709d', 10, (108, 86, 114), 0.0006487332799999998),
    (3, 'rrp', 0.9): ('cc08fb26df0c5b64', 4, (10, 9, 9), 0.0003463294400000001),
    (3, 'ucp', 0.2): ('c130975b2a1e63f8', 4, (0, 117, 132), 0.0007900875200000001),
    (3, 'ucp', 0.9): ('6c18ffc25080118c', 3, (0, 9, 9), 0.0003394104000000001),
    (3, 'lcp', 0.2): ('99917fb4ea642a21', 4, (0, 101, 154), 0.00087178496),
    (3, 'lcp', 0.9): ('893840927c535f9e', 4, (0, 7, 14), 0.00044268176000000005),
    (4, 'rrp', 0.2): ('8605dbe59133845c', 12, (88, 83, 94, 93), 0.0005439259199999999),
    (4, 'rrp', 0.9): ('9f7b32ff86c2e23e', 4, (11, 12, 12, 14), 0.00027371408000000005),
    (4, 'ucp', 0.2): ('b4e9b537423435c3', 5, (0, 87, 92, 102), 0.0006724873600000001),
    (4, 'ucp', 0.9): ('170a1b2b885d75c8', 4, (0, 14, 10, 15), 0.00028622288000000005),
    (4, 'lcp', 0.2): ('83c59cac4d4a5a4a', 5, (0, 69, 97, 139), 0.00076011808),
    (4, 'lcp', 0.9): ('115577e75773170d', 4, (0, 11, 10, 19), 0.00037926032000000005),
}


#: ``(x, P, scheme, p) -> (edges_digest[:16], supersteps, requests_sent per
#: rank, simulated_time, world_stats.total_bytes)`` of the bsp ``generate()``
#: at ``n = N`` and ``seed = 100 x + 10 P + 10 p``.  ``total_bytes`` is the
#: byte count the cost model charges: 40 B per Algorithm 3.2 request and per
#: reply, the paper's ``<request, t, e, k, l>``, whatever the wire encoding.
GENERAL_PROTOCOL = {
    (2, 3, 'rrp', 0.2): ('3d4823012a74d70d', 24, (228, 240, 235), 0.0012582655999999997, 56240),
    (2, 3, 'rrp', 0.9): ('e56deb4dfa96dad0', 5, (31, 28, 21), 0.0005423151999999997, 6400),
    (2, 3, 'lcp', 0.2): ('4e913c7e23aace4d', 6, (0, 208, 332), 0.0015998648000000002, 43200),
    (2, 3, 'lcp', 0.9): ('a30a3d31818a04d2', 4, (0, 31, 33), 0.0007003896, 5120),
    (2, 4, 'rrp', 0.2): ('d857df2d396edc6b', 27, (182, 197, 205, 209), 0.0010746048, 63440),
    (2, 4, 'rrp', 0.9): ('deae134b030f7e22', 5, (26, 16, 26, 27), 0.0004192688, 7600),
    (2, 4, 'lcp', 0.2): ('c8eda8c8b307d773', 12, (0, 140, 220, 268), 0.0013640056000000004, 50240),
    (2, 4, 'lcp', 0.9): ('0136457811bb38a0', 5, (0, 15, 25, 40), 0.0005762231999999999, 6400),
    (4, 3, 'rrp', 0.2): ('8972a8afe54e1ae5', 20, (456, 464, 476), 0.0020236896000000006, 111680),
    (4, 3, 'rrp', 0.9): ('bf27893fe6d19c39', 8, (57, 68, 64), 0.0008040495999999998, 15120),
    (4, 3, 'lcp', 0.2): ('e2d00e6c371a2ae1', 8, (0, 398, 636), 0.0027245064, 82720),
    (4, 3, 'lcp', 0.9): ('73c5e6ba18814d9b', 5, (0, 52, 81), 0.0010034424000000001, 10640),
    (4, 4, 'rrp', 0.2): ('9c4db5cdf9f8fd65', 43, (383, 401, 424, 375), 0.0018378640000000003, 126640),
    (4, 4, 'rrp', 0.9): ('416a73e1757c2e6c', 6, (46, 53, 56, 39), 0.0006075279999999999, 15520),
    (4, 4, 'lcp', 0.2): ('3ffde6a0e59fd2ee', 11, (0, 264, 414, 547), 0.002301108, 98000),
    (4, 4, 'lcp', 0.9): ('e355e4d846f95088', 5, (0, 32, 62, 59), 0.0008138008000000001, 12240),
    (6, 3, 'rrp', 0.2): ('abfe20a00b1b4912', 42, (689, 706, 711), 0.003078323199999999, 168480),
    (6, 3, 'rrp', 0.9): ('58781a1f93c462f7', 10, (77, 88, 82), 0.0010438512000000004, 19760),
    (6, 3, 'lcp', 0.2): ('99d3605f1dc28c1e', 10, (0, 598, 968), 0.0039344104, 125280),
    (6, 3, 'lcp', 0.9): ('4312eb537d371077', 5, (0, 76, 120), 0.0013120696000000001, 15680),
    (6, 4, 'rrp', 0.2): ('4b81565de4367b6c', 35, (614, 584, 603, 597), 0.0024597727999999997, 191840),
    (6, 4, 'rrp', 0.9): ('1a1d69faa14be11a', 12, (79, 80, 72, 82), 0.0008375504000000004, 25040),
    (6, 4, 'lcp', 0.2): ('5c0dd2502b7e34fd', 13, (0, 404, 656, 872), 0.003361344799999999, 154560),
    (6, 4, 'lcp', 0.9): ('9166c6189f02a835', 6, (0, 57, 70, 109), 0.0010800984, 18880),
}


def _seed(x: int, P: int, p: float) -> int:
    return x * 100 + P * 10 + int(p * 10)


@pytest.mark.parametrize(
    "x,P,scheme,p",
    list(itertools.product((2, 4, 6), (1, 3, 4), ("rrp", "ucp", "lcp"), (0.2, 0.9))),
)
def test_bsp_digest(x, P, scheme, p):
    edges = generate(N, x, p=p, partition=make_partition(scheme, N, P), seed=_seed(x, P, p)).edges
    assert edges_digest(edges)[:16] == BSP_DIGESTS[(x, P, scheme, p)]


def _check_protocol(expected, edges, supersteps, requests_sent, simulated_time):
    digest, steps, requests, sim = expected
    got = (edges_digest(edges)[:16], supersteps, tuple(int(r) for r in requests_sent))
    assert got == (digest, steps, requests)
    assert simulated_time == pytest.approx(sim, rel=1e-12)


def _check_general_protocol(expected, result):
    *protocol, total_bytes = expected
    _check_protocol(
        protocol, result.edges, result.supersteps, result.requests_sent,
        result.simulated_time,
    )
    assert result.world_stats.total_bytes == total_bytes


@pytest.mark.parametrize(
    "P,scheme,p", list(itertools.product((1, 3, 4), ("rrp", "ucp", "lcp"), (0.2, 0.9)))
)
def test_x1_bsp_protocol(P, scheme, p):
    r = generate(N, 1, p=p, partition=make_partition(scheme, N, P), seed=_seed(1, P, p))
    _check_protocol(
        X1_PROTOCOL[(P, scheme, p)], r.edges, r.supersteps,
        r.requests_sent, r.simulated_time,
    )


@pytest.mark.parametrize(
    "engine,spill,checkpoint,seed,expected",
    [
        ("mp", False, False, 31,
         ('c40a92e017d452bc', 10, (330, 327, 321), 0.0024424313600000004)),
        ("bsp", True, False, 32,
         ('374c7389a42b5650', 10, (345, 333, 324), 0.0024544899199999996)),
        ("mp", True, False, 33,
         ('39196af688d6ab11', 9, (362, 344, 370), 0.00254284944)),
        ("bsp", False, True, 34,
         ('739e1cb38140c037', 8, (341, 324, 322), 0.002469314560000001)),
    ],
    ids=["mp", "spilled-bsp", "spilled-mp", "supervised-bsp"],
)
def test_x1_generate_protocol(tmp_path, engine, spill, checkpoint, seed, expected):
    kwargs = {}
    if spill:
        kwargs.update(out_of_core=str(tmp_path / "spill"), spill_budget_bytes=4096)
    if checkpoint:
        kwargs.update(checkpoint_dir=str(tmp_path / "ckpt"))
    result = generate(3000, x=1, ranks=3, engine=engine, seed=seed, **kwargs)
    _check_protocol(
        expected, result.edges, result.supersteps, result.requests_sent,
        result.simulated_time,
    )


@pytest.mark.parametrize(
    "x,P,scheme,p",
    list(itertools.product((2, 4, 6), (3, 4), ("rrp", "lcp"), (0.2, 0.9))),
)
def test_general_bsp_protocol(x, P, scheme, p):
    r = generate(N, x, p=p, partition=make_partition(scheme, N, P), seed=_seed(x, P, p))
    _check_general_protocol(GENERAL_PROTOCOL[(x, P, scheme, p)], r)


@pytest.mark.parametrize(
    "engine,spill,seed,expected",
    [
        ("mp", False, 41,
         ('389c29b5eb4cefe8', 11, (1335, 1305, 1353), 0.0066245888, 319440)),
        ("bsp", True, 42,
         ('1e3e32381a7a072e', 17, (1324, 1316, 1369), 0.006709865600000001, 320720)),
    ],
    ids=["mp", "spilled-bsp"],
)
def test_general_generate_protocol(tmp_path, engine, spill, seed, expected):
    kwargs = {}
    if spill:
        kwargs.update(out_of_core=str(tmp_path / "spill"), spill_budget_bytes=4096)
    result = generate(3000, x=4, ranks=3, engine=engine, seed=seed, **kwargs)
    _check_general_protocol(expected, result)


def test_mp_digest():
    edges = generate(3000, x=4, ranks=3, engine="mp", seed=21).edges
    assert edges_digest(edges)[:16] == 'ca8de7b974c8fc0d'


@pytest.mark.parametrize(
    "engine,seed,digest",
    [("bsp", 22, '7f4769b80d221e32'), ("mp", 23, 'd392a86cfcbe125d')],
)
def test_spilled_digest(tmp_path, engine, seed, digest):
    result = generate(
        3000, x=4, ranks=3, engine=engine, seed=seed,
        out_of_core=str(tmp_path / "spill"), spill_budget_bytes=4096,
    )
    assert edges_digest(result.edges)[:16] == digest


@pytest.mark.parametrize(
    "x,p,seed,digest",
    [(3, 0.5, 24, '64df240114d5a340'), (6, 0.2, 25, 'f7ae4e0e166cb0e9')],
)
def test_copy_model_fast_digest(x, p, seed, digest):
    edges = copy_model(3000, x=x, p=p, seed=seed, method="fast")
    assert edges_digest(edges)[:16] == digest
