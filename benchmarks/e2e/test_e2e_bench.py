"""Self-test of the end-to-end benchmark harness on tiny specs (well under 60 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

Calls the harness functions of ``run.py`` directly with tiny workloads, so
every path a full run takes (fresh children, checks, tracing, cleanup) is
exercised in seconds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402

TINY_MP = run.Workload("tiny-copy-mp", {"n": 3000, "x": 3, "ranks": 2, "engine": "mp"})
TINY_SPILL = run.Workload(
    "tiny-commfree-spill",
    {"n": 5000, "x": 1, "ranks": 2, "engine": "mp", "generator": "commfree",
     "out_of_core": True},
)


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.fixture()
def scratch(tmp_path):
    yield tmp_path
    assert list(tmp_path.iterdir()) == [], "a run left files behind"


@pytest.fixture(scope="module")
def traced_mp(bench, tmp_path_factory):
    return run.measure(TINY_MP, 1, 0, True, tmp_path_factory.mktemp("traced"), bench)


def test_every_metric_has_its_unit(bench, scratch, traced_mp):
    plain, _, _ = run.measure(TINY_MP, 1, 0, False, scratch, bench)
    traced, _, _ = traced_mp
    for result, defs in ((plain, bench["end_to_end"]), (traced, bench["per_layer"])):
        assert result["correct"], result
        assert set(result["metrics"]) == {m["name"] for m in defs}
        for m in defs:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    for m in bench["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0


def test_corrupted_pinned_digest_raises_failed_frac(bench, scratch):
    corrupt = run.Workload(TINY_MP.name, TINY_MP.spec, digest="0" * 64)
    report = run.run_set([corrupt], run.PINNED_SEED, 3, scratch, bench)
    w = report["workloads"][corrupt.name]
    # both runs of graph 0 miss the pin; the set goes on to graph 1
    assert w["attempted"] == 3 and w["failed"] == 2
    assert w["metrics"]["failed_frac"]["value"] == pytest.approx(2 / 3)
    assert all("edges_digest" in reason for reason in w["failures"])


def test_spans_from_both_forked_ranks_are_collected(traced_mp):
    result, _, traced = traced_mp
    assert traced["worker_processes"] == 2
    # every rank steps once per superstep, and each step ran in a worker
    assert result["metrics"]["pa.steps"]["value"] == 2 * traced["supersteps"]
    assert result["metrics"]["mp.compute_s"]["value"] > 0


def test_traced_and_untraced_digests_agree(bench, scratch, traced_mp):
    _, tally, traced = traced_mp
    assert tally.failed == 0
    assert traced["digest"] == tally.values("digest", tally.seed)[0]

    result, tally, traced = run.measure(TINY_SPILL, 5, 0, True, scratch, bench)
    assert result["correct"], tally.reasons
    assert traced["digest"] == tally.values("digest", tally.seed)[0]
    assert traced["worker_processes"] == 2
    assert result["metrics"]["spill.bytes_written"]["value"] > 0
    assert result["metrics"]["spill.shard_write_s"]["value"] > 0


def test_compare_reports_noise_wider_than_the_bound_as_unresolved(bench):
    def one_set(walls):
        metrics = {"wall_s": {"unit": "s", **run.summary(walls), "values": walls},
                   "failed_frac": {"unit": "ratio", "value": 0.0}}
        return {"workloads": {"w": {"metrics": metrics}}}

    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    steady = [1.0, 1.0, 1.01, 0.99, 1.0]
    noisy = [1.0, 1.0 + 2 * bound, 1.0 - bound, 1.0 + bound, 1.0]
    wall_only = {**bench, "end_to_end": [m for m in bench["end_to_end"]
                                         if m["name"] == "wall_s"]}

    def verdict(a, b):
        rows, bad, unresolved = run.compare(one_set(a), one_set(b), wall_only)
        return rows[0].rsplit(" ", 1)[1], len(bad), len(unresolved)

    assert verdict(steady, steady) == ("ok", 0, 0)
    assert verdict(steady, noisy) == ("unresolved", 0, 1)
    assert verdict(steady, [w * (1 + 2 * bound) for w in steady]) == ("REGRESSION", 1, 0)
    # every run of the second set faster than every run of the first: resolved
    assert verdict(noisy, [0.5 * w for w in steady]) == ("ok", 0, 0)


def test_each_graph_repeats_and_seeds_differ(bench, scratch):
    tally = run.Tally(TINY_MP, 7)
    for _ in range(4):
        run.run_once(tally, scratch)
    seeds = [r["graph_seed"] for r in tally.runs]
    assert seeds == [7, 7, 7 + run.SEED_STRIDE, 7 + run.SEED_STRIDE]
    assert len(set(tally.references.values())) == 2


def test_timeout_counts_as_failure(scratch):
    slow = run.Workload(TINY_MP.name, TINY_MP.spec, wall_s=1e-4)
    tally = run.Tally(slow, 1)
    assert run.run_once(tally, scratch) is None
    assert tally.failed == 1 and "timed out in generate()" in tally.reasons[0]


def test_wrappers_restore_the_originals(tmp_path):
    import repro
    from layers import Tracer

    from repro.core import parallel_pa, partitioning
    from repro.graph.edgelist import EdgeList
    from repro.rng.streams import StreamFactory

    before = (
        repro.generate, parallel_pa.route_by_dest,
        EdgeList.__dict__["from_arrays"], StreamFactory.__dict__["stream"],
        partitioning.RoundRobinPartition.__dict__["owner"],
    )
    tracer = Tracer(tmp_path)
    assert parallel_pa.route_by_dest is not before[1]
    tracer.close()
    after = (
        repro.generate, parallel_pa.route_by_dest,
        EdgeList.__dict__["from_arrays"], StreamFactory.__dict__["stream"],
        partitioning.RoundRobinPartition.__dict__["owner"],
    )
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "copy-x4-mp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
