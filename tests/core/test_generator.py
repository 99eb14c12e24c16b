"""Tests for the top-level generate() facade."""

import argparse
import multiprocessing
from dataclasses import fields

import numpy as np
import pytest

from repro import Telemetry, generate
from repro.cli import build_parser, main, run_spec
from repro.core.generator import CONFLICTS, RunSpec
from repro.core.parallel_pa import ResultRegions
from repro.core.partitioning import make_partition
from repro.core.spill import edges_digest
from repro.mpsim.checkpoint import resume
from repro.mpsim.costmodel import CostModel
from repro.mpsim.errors import UnrecoverableError
from repro.mpsim.faults import FaultPlan


class TestFacade:
    @pytest.mark.parametrize("engine", ["bsp", "event", "sequential"])
    def test_engines_produce_valid_graphs(self, engine):
        ranks = 1 if engine == "sequential" else 4
        x = 1 if engine == "event" else 2
        r = generate(300, x=x, ranks=ranks, engine=engine, seed=0)
        assert r.validate().ok
        assert r.engine == engine

    def test_x1_bsp(self):
        r = generate(500, x=1, ranks=8, seed=1)
        assert r.validate().ok
        assert len(r.edges) == 499

    def test_result_telemetry(self):
        r = generate(2000, x=3, ranks=8, scheme="rrp", seed=2)
        assert r.supersteps > 0
        assert r.simulated_time > 0
        assert r.nodes_per_rank.sum() == 2000
        assert len(r.requests_sent) == 8
        assert r.requests_sent.sum() == r.requests_received.sum()
        assert r.world_stats is not None

    def test_total_load_and_imbalance(self):
        r = generate(2000, x=3, ranks=8, scheme="rrp", seed=3)
        assert np.array_equal(
            r.total_load_per_rank,
            r.nodes_per_rank + r.requests_sent + r.requests_received,
        )
        assert r.imbalance >= 1.0

    def test_degrees_helper(self):
        r = generate(100, x=2, ranks=2, seed=4)
        deg = r.degrees()
        assert len(deg) == 100
        assert deg.sum() == 2 * len(r.edges)

    def test_custom_partition(self):
        part = make_partition("lcp", 400, 5)
        r = generate(400, x=2, partition=part, seed=5)
        assert r.scheme == "lcp"
        assert r.ranks == 5

    def test_custom_cost_model_changes_time(self):
        slow = CostModel(per_node=1.0)
        fast = CostModel(per_node=1e-9)
        a = generate(200, ranks=2, seed=6, cost_model=slow).simulated_time
        b = generate(200, ranks=2, seed=6, cost_model=fast).simulated_time
        assert a > b

    @pytest.mark.parametrize("x", [2, 4])
    @pytest.mark.parametrize("p", [0.2, 0.9])
    def test_sequential_is_the_one_rank_bsp_graph(self, x, p):
        seq = generate(1500, x, p=p, engine="sequential", seed=11)
        bsp = generate(1500, x, p=p, ranks=1, engine="bsp", seed=11)
        assert edges_digest(seq.edges) == edges_digest(bsp.edges)

    def test_sequential_ranks_must_be_one(self):
        with pytest.raises(ValueError, match="ranks=1"):
            generate(100, ranks=2, engine="sequential")

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            generate(100, engine="quantum")

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="p must be in"):
            generate(200, ranks=2, p=p)

    def test_p_one_rejected_when_x_above_one(self):
        # generate() on this spec redraws its direct slots forever, so only
        # the spec is built
        with pytest.raises(ValueError, match="below 1 when x > 1"):
            RunSpec(n=200, x=3, p=1.0)
        RunSpec(n=200, x=1, p=1.0)  # one slot per node cannot collide

    def test_negative_barrier_timeout_rejected_before_fork(self):
        # the 0 case is the barrier-timeout row of REJECTED
        with pytest.raises(ValueError, match="barrier_timeout must be > 0"):
            generate(2000, ranks=2, engine="mp", barrier_timeout=-1)
        assert multiprocessing.active_children() == []

    def test_partition_mismatch(self):
        part = make_partition("rrp", 100, 2)
        with pytest.raises(ValueError):
            generate(200, partition=part)

    def test_docstring_example(self):
        r = generate(2000, x=3, ranks=8, seed=1)
        assert r.validate().ok
        assert len(r.edges) == 5994


class TestReproducibility:
    def test_full_config_reproducible(self):
        kwargs = dict(n=1500, x=4, ranks=6, scheme="lcp", seed=77)
        a = generate(**kwargs)
        b = generate(**kwargs)
        assert a.edges == b.edges
        assert a.supersteps == b.supersteps
        assert np.array_equal(a.requests_sent, b.requests_sent)

    def test_rank_count_changes_instance(self):
        a = generate(1000, x=2, ranks=4, seed=8)
        b = generate(1000, x=2, ranks=8, seed=8)
        assert a.edges != b.edges  # different draw ownership, as on a cluster


#: One triggering call per CONFLICTS row: generate() keywords, and the CLI
#: arguments reaching the same row (None where no flag can express it).
#: Paths are relative: the test runs inside an empty tmp_path.
REJECTED = {
    "unknown-generator": (
        dict(n=100, generator="nope"), ["-n", "100", "--generator", "nope"]
    ),
    "unknown-engine": (
        dict(n=100, engine="quantum"), ["-n", "100", "--engine", "quantum"]
    ),
    "unknown-scheme": (dict(n=100, scheme="zcp"), ["-n", "100", "--scheme", "zcp"]),
    # library only: the CLI parses these flags with int()
    "integer-knobs": (dict(n=1000, x=2.5, ranks=2, out_of_core="spill"), None),
    "n": (dict(n=0), ["-n", "0"]),
    "x": (dict(n=100, x=0), ["-n", "100", "-x", "0"]),
    "p": (dict(n=100, p=1.5), ["-n", "100", "-p", "1.5"]),
    "seed": (
        dict(n=100, seed=-1, out_of_core="spill"),
        ["-n", "100", "--seed", "-1", "--out-of-core", "spill"],
    ),
    # library only: a bool is no seed, though Python counts it an int
    "seed-bool": (dict(n=50, seed=True), None),
    "ranks": (dict(n=100, ranks=0), ["-n", "100", "-P", "0"]),
    "n-not-above-x": (dict(n=5, x=6), ["-n", "5", "-x", "6"]),
    "partition-size": (
        dict(n=200, partition=make_partition("rrp", 100, 2)), None
    ),
    "ranks-above-n": (dict(n=100, ranks=500), ["-n", "100", "-P", "500"]),
    "spill-budget": (
        dict(n=100, out_of_core="spill", spill_budget_bytes=0),
        ["-n", "100", "--out-of-core", "spill", "--spill-budget-mb", "0"],
    ),
    "checkpoint-every": (
        dict(n=100, ranks=2, checkpoint_dir="ck", checkpoint_every=0),
        ["-n", "100", "-P", "2", "--checkpoint-dir", "ck",
         "--checkpoint-every", "0"],
    ),
    "checkpoint-keep": (
        dict(n=100, ranks=2, checkpoint_dir="ck", checkpoint_keep=0),
        ["-n", "100", "-P", "2", "--checkpoint-dir", "ck",
         "--checkpoint-keep", "0"],
    ),
    "max-retries": (
        dict(n=100, ranks=2, checkpoint_dir="ck", max_retries=-1),
        ["-n", "100", "-P", "2", "--checkpoint-dir", "ck",
         "--max-retries", "-1"],
    ),
    "out-of-core-event": (
        dict(n=100, ranks=2, engine="event", out_of_core="spill"),
        ["-n", "100", "-P", "2", "--engine", "event", "--out-of-core", "spill"],
    ),
    "out-of-core-checkpoint": (
        dict(n=100, ranks=2, out_of_core="spill", checkpoint_dir="ck"),
        ["-n", "100", "-P", "2", "--out-of-core", "spill",
         "--checkpoint-dir", "ck"],
    ),
    "commfree-faults": (
        dict(n=100, generator="commfree", fault_seed=1),
        ["-n", "100", "--generator", "commfree", "--inject-faults", "1"],
    ),
    "commfree-checkpoint": (
        dict(n=100, generator="commfree", checkpoint_dir="ck"),
        ["-n", "100", "--generator", "commfree", "--checkpoint-dir", "ck"],
    ),
    "commfree-partition": (
        dict(n=100, generator="commfree",
             partition=make_partition("rrp", 100, 2)),
        None,
    ),
    "commfree-event": (
        dict(n=100, generator="commfree", engine="event"),
        ["-n", "100", "--generator", "commfree", "--engine", "event"],
    ),
    "event-x": (
        dict(n=100, x=3, ranks=2, engine="event"),
        ["-n", "100", "-x", "3", "-P", "2", "--engine", "event"],
    ),
    "barrier-timeout": (
        dict(n=100, ranks=2, engine="mp", barrier_timeout=0.0),
        ["-n", "100", "-P", "2", "--engine", "mp", "--barrier-timeout", "0"],
    ),
    "sequential-ranks": (
        dict(n=100, ranks=2, engine="sequential"),
        ["-n", "100", "-P", "2", "--engine", "sequential"],
    ),
    "faults-engine": (
        dict(n=100, engine="sequential", fault_seed=1),
        ["-n", "100", "--engine", "sequential", "--inject-faults", "1"],
    ),
    "faults-engine-event": (
        dict(n=2000, ranks=4, engine="event", fault_seed=11),
        ["-n", "2000", "-P", "4", "--engine", "event", "--inject-faults", "11"],
    ),
    "checkpoint-engine": (
        dict(n=100, ranks=2, engine="event", checkpoint_dir="ck"),
        ["-n", "100", "-P", "2", "--engine", "event", "--checkpoint-dir", "ck"],
    ),
}


#: REJECTED cases that exercise a further value of a row, named after it
VARIANT_OF = {"seed-bool": "seed", "faults-engine-event": "faults-engine"}
ROWS = {row.name: row for row in CONFLICTS}


class TestConflictTable:
    """CONFLICTS is the oracle for rejection: each row fails generate() and
    the CLI with exactly its reason, before anything forks or is written."""

    def test_every_case_names_a_row(self):
        assert {VARIANT_OF.get(case, case) for case in REJECTED} == set(ROWS)
        assert set(ROWS) <= set(REJECTED)

    @pytest.mark.parametrize("case", REJECTED, ids=lambda case: case)
    def test_row_rejects_before_side_effects(
        self, case, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        row = ROWS[VARIANT_OF.get(case, case)]
        kwargs, argv = REJECTED[case]
        defaults = {f.name: f.default for f in fields(RunSpec)}
        reason = row.reason.format(**{**defaults, **kwargs})
        with pytest.raises(ValueError) as exc_info:
            generate(**kwargs)
        assert str(exc_info.value) == reason
        if argv is not None:
            assert main(["generate", "--seed", "1", *argv]) == 2
            assert capsys.readouterr().err == reason + "\n"
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []


class TestPartitionRankCount:
    """A ``partition=`` run has ``partition.P`` ranks, whatever ``ranks`` says:
    it behaves exactly like the same run given as ``ranks=P, scheme=...``."""

    def test_chaos_plan_spans_the_partition(self, tmp_path):
        def run(name, **spec):
            r = generate(4000, x=2, seed=1, fault_seed=5,
                         checkpoint_dir=str(tmp_path / name), **spec)
            return r.fault_plan.log, [(ev.superstep, ev.error) for ev in r.recoveries]

        by_partition = run("part", partition=make_partition("rrp", 4000, 4))
        assert by_partition == run("ranks", ranks=4, scheme="rrp")

    def test_sequential_rejects_a_multi_rank_partition(self):
        with pytest.raises(ValueError, match="sequential engine requires ranks=1"):
            generate(100, engine="sequential", partition=make_partition("rrp", 100, 4))

    def test_telemetry_meta_counts_the_partition(self):
        tel = Telemetry()
        r = generate(500, x=2, seed=1, partition=make_partition("rrp", 500, 4),
                     telemetry=tel)
        assert tel.meta["ranks"] == r.ranks == 4


#: the RunSpec fields no flag can express: they take library objects
OBJECT_FIELDS = {"partition", "cost_model", "fault_plan", "telemetry"}


class TestRunSpec:
    """RunSpec is the one list of knobs: generate() takes its fields, the
    result carries it, and ``repro-pa generate`` has one flag per scalar."""

    def test_every_scalar_field_has_exactly_one_flag(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices["generate"]._actions]
        for f in fields(RunSpec):
            assert dests.count(f.name) == (0 if f.name in OBJECT_FIELDS else 1), f.name
        assert {f.name for f in fields(RunSpec) if not f.metadata["flags"]} == OBJECT_FIELDS

    def test_parsed_flags_are_the_spec(self):
        args = build_parser().parse_args(["generate", "-n", "1234"])
        assert run_spec(args) == RunSpec(n=1234)
        args = build_parser().parse_args(
            ["generate", "--nodes", "50", "--edges-per-node", "2", "--prob", "0.25",
             "--inject-faults", "4", "--spill-budget-mb", "0.5"])
        assert run_spec(args) == RunSpec(
            n=50, x=2, p=0.25, fault_seed=4, spill_budget_bytes=1 << 19
        )

    def test_result_carries_its_spec(self):
        r = generate(300, 2, ranks=3, seed=4)
        assert r.spec == RunSpec(300, 2, ranks=3, seed=4)
        assert (r.n, r.x, r.p, r.engine, r.seed) == (300, 2, 0.5, "bsp", 4)

    def test_telemetry_meta_is_the_scalar_fields(self):
        tel = Telemetry()
        generate(300, 2, ranks=3, seed=4, telemetry=tel)
        scalars = {f.name for f in fields(RunSpec)} - OBJECT_FIELDS
        assert scalars <= set(tel.meta)
        assert (tel.meta["n"], tel.meta["x"], tel.meta["ranks"]) == (300, 2, 3)
        # the trace names the scheme the run executed, as its result does
        for knobs, scheme in [
            (dict(n=100, engine="sequential"), "none"),
            (dict(n=200, x=2, ranks=2, partition=make_partition("ucp", 200, 2)), "ucp"),
        ]:
            tel = Telemetry()
            r = generate(seed=4, telemetry=tel, **knobs)
            assert tel.meta["scheme"] == r.scheme == scheme

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            generate(100, checkpoint_path="run.ckpt")


class TestResumeCheckpointDir:
    """An unsupervised snapshot is ``checkpoint_dir=`` with ``max_retries=0``:
    the first crash gives up, and ``resume(checkpoint_dir)`` finishes the run
    bit-identically to the fault-free graph."""

    @pytest.mark.parametrize("engine", ["bsp", "mp"])
    def test_resume_finishes_a_crashed_run(self, engine, tmp_path, no_leftovers):
        n, x, P, seed = 4000, 3, 4, 2
        clean = generate(n, x, ranks=P, seed=seed)
        ckpts = tmp_path / "ckpts"
        with pytest.raises(UnrecoverableError):
            generate(n, x, ranks=P, seed=seed, engine=engine,
                     checkpoint_dir=str(ckpts), max_retries=0,
                     fault_plan=FaultPlan().crash(1, at_superstep=3))
        _, programs = resume(ckpts)
        resumed = ResultRegions(x, make_partition("rrp", n, P)).edges(programs)
        assert resumed == clean.edges
