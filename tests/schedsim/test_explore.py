"""End-to-end schedule exploration: invariance, injected bugs, shrink, replay.

The sweep sizes here are the acceptance criterion of the schedule fuzzer:
both in-process engines (the event engine runs Algorithm 3.1, x=1, only),
both algorithm variants on bsp, >= 16 schedules each with bit-identical edge
lists (the CI job runs the full 64-schedule sweep).
"""

import hashlib

import numpy as np
import pytest

from repro.mpsim.errors import LivelockError
from repro.schedsim import (
    Schedule,
    ddmin,
    dump_artifact,
    explore,
    load_artifact,
    make_fault_plan,
    replay,
)
from repro.schedsim.explore import ScheduleOutcome

#: a configuration whose general-case runs demonstrably exercise cross-rank
#: duplicate collisions (the order-sensitive code path) — verified by the
#: injected-bug tests below actually diverging
N, X, P, SEED = 300, 3, 4, 7
#: the swept (x, engine) cells: both algorithms on bsp, Algorithm 3.1 on event
CELLS = [(1, "bsp"), (X, "bsp"), (1, "event")]


def _config(engine, x=X, knobs=None, fault=None, n=N, seed=SEED):
    cfg = {"n": n, "x": x, "p": 0.5, "ranks": P, "scheme": "ecp",
           "seed": seed, "engine": engine}
    if knobs:
        cfg["knobs"] = knobs
    if fault:
        cfg["fault"] = fault
    return cfg


class TestInvarianceSweeps:
    """Correct programs produce identical graphs under every schedule."""

    @pytest.mark.parametrize("x,engine", CELLS)
    def test_invariant_under_random_schedules(self, engine, x):
        rep = explore(_config(engine, x=x), policy="random", schedules=16)
        assert rep.ok, rep.divergences
        assert rep.explored == 16
        assert rep.baseline.digest is not None

    @pytest.mark.parametrize("policy", ["priority", "straggler"])
    def test_invariant_under_skewed_policies(self, policy):
        assert explore(_config("bsp"), policy=policy, schedules=8).ok
        assert explore(_config("event", x=1), policy=policy, schedules=8).ok

    @pytest.mark.parametrize("x,engine", CELLS)
    def test_baseline_matches_generate(self, engine, x):
        """The fuzzer's runner reproduces the user path's graph."""
        from repro import generate
        from repro.core.partitioning import make_partition

        edges = generate(N, x, partition=make_partition("ecp", N, P), seed=SEED,
                         engine=engine).edges
        digest = hashlib.sha256(np.ascontiguousarray(edges.canonical()).tobytes())
        rep = explore(_config(engine, x=x), schedules=1)
        assert rep.baseline.digest == digest.hexdigest()

    def test_dpor_dedupes_commuting_orders(self):
        rep = explore(_config("event", x=1, n=120), policy="dpor", schedules=8)
        assert rep.ok
        assert rep.unique_classes == rep.explored


class TestInjectedBugs:
    """The seeded order-sensitivity knobs are caught, shrunk, and replayed."""

    def test_bsp_raw_inbox_bug_is_caught_and_shrunk(self, tmp_path):
        rep = explore(
            _config("bsp", knobs={"canonical_inbox": False}),
            policy="random", schedules=16, artifact_dir=str(tmp_path),
        )
        assert not rep.ok
        div = rep.divergences[0]
        assert 0 < len(div.minimal) <= len(div.deviations)
        assert div.artifact is not None

        res = replay(div.artifact)
        assert res.reproduced and res.diverges

    def test_replay_is_deterministic(self, tmp_path):
        rep = explore(
            _config("bsp", knobs={"canonical_inbox": False}),
            policy="random", schedules=16, artifact_dir=str(tmp_path),
        )
        art = rep.divergences[0].artifact
        a, b = replay(art), replay(art)
        assert a.outcome.digest == b.outcome.digest
        assert a.outcome.decisions == b.outcome.decisions


class TestFaultComposition:
    """Superstep crashes join the explored space on bsp; nothing else does."""

    def test_bsp_crash_attribution_is_schedule_stable(self):
        rep = explore(
            _config("bsp", x=1, fault={"crashes": [{"rank": 2, "at_superstep": 2}]}),
            policy="random", schedules=8,
        )
        assert rep.ok
        assert rep.baseline.error == "RankFailure(rank=2)"
        assert rep.baseline.digest is None

    def test_event_crash_rejected_before_any_run(self):
        """The event engine has no superstep for a crash to fire at."""
        fault = {"crashes": [{"rank": 1, "at_superstep": 2}]}
        with pytest.raises(ValueError, match="engine='event' has none"):
            explore(_config("event", x=1, fault=fault), schedules=4)

    def test_drop_and_duplicate_fates_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec keys"):
            make_fault_plan({"drops": 3})
        with pytest.raises(ValueError, match="unknown fault spec keys"):
            make_fault_plan({"duplicates": 2})
        with pytest.raises(ValueError, match="unknown fault spec keys"):
            make_fault_plan({"stragglers": [{"rank": 1, "factor": 8.0}]})

    def test_crash_needs_rank_and_superstep_only(self):
        with pytest.raises(ValueError, match="rank and at_superstep"):
            make_fault_plan({"crashes": [{"rank": 2, "at_time": 2e-5}]})

    def test_multiple_pending_crashes_rejected(self):
        with pytest.raises(ValueError, match="at most one pending crash"):
            make_fault_plan({"crashes": [
                {"rank": 0, "at_superstep": 1}, {"rank": 1, "at_superstep": 2},
            ]})

    def test_fresh_plan_per_trial(self):
        """Crash events are one-shot; the spec must rebuild every run."""
        spec = {"crashes": [{"rank": 0, "at_superstep": 1}]}
        a, b = make_fault_plan(spec), make_fault_plan(spec)
        assert a is not b
        assert a.pending_crashes == b.pending_crashes == 1

    def test_mp_engine_rejected(self):
        with pytest.raises(ValueError, match="'bsp' or 'event'"):
            explore(_config("mp", x=1, n=50), schedules=1)


class TestWatchdog:
    def test_livelock_surfaces_as_divergence(self):
        """A runner that spins without progress trips the budget."""

        calls = {"n": 0}

        class _FakeEdges:
            def canonical(self):
                return np.zeros((1, 2), dtype=np.int64)

        def runner(config, schedule):
            calls["n"] += 1
            if calls["n"] == 1:
                schedule.tick()  # cheap baseline => small budget
                return _FakeEdges()
            while True:  # every non-baseline schedule spins forever
                schedule.choose("deliver", [(0, 0), (0, 1)])

        rep = explore({"n": 1, "engine": "bsp"}, policy="random", schedules=2,
                      watchdog_factor=1, runner=runner)
        assert not rep.ok
        assert all(d.outcome.error == "LivelockError" for d in rep.divergences)

    def test_budget_scales_with_baseline(self):
        rep = explore(_config("bsp", x=1), policy="random", schedules=1,
                      watchdog_factor=50)
        assert rep.watchdog >= 50 * 1  # max(1000, 50 * baseline ticks)
        assert rep.watchdog >= 1000

    def test_livelock_error_fields(self):
        sch = Schedule(watchdog=3)
        with pytest.raises(LivelockError):
            for _ in range(5):
                sch.tick()


class TestShrinking:
    def test_ddmin_finds_single_culprit(self):
        culprit = 17
        runs = []

        def test_fn(subset):
            runs.append(list(subset))
            return culprit in subset

        minimal = ddmin(list(range(40)), test_fn)
        assert minimal == [culprit]

    def test_ddmin_keeps_coupled_pair(self):
        need = {3, 31}

        def test_fn(subset):
            return need <= set(subset)

        assert sorted(ddmin(list(range(40)), test_fn)) == sorted(need)

    def test_ddmin_respects_budget(self):
        count = {"n": 0}

        def test_fn(subset):
            count["n"] += 1
            return 0 in subset

        ddmin(list(range(64)), test_fn, max_tests=10)
        assert count["n"] <= 10


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        base = ScheduleOutcome(digest="aa", error=None)
        obs = ScheduleOutcome(digest="bb", error=None)
        path = dump_artifact(
            str(tmp_path / "a.json"), _config("bsp"), "random", 123,
            {4: 1, 9: 2}, total_decisions=40, baseline=base, observed=obs,
        )
        doc = load_artifact(path)
        assert doc["decisions"] == {"4": 1, "9": 2}
        assert doc["config"]["n"] == N
        assert doc["baseline"]["digest"] == "aa"
        assert doc["observed"]["digest"] == "bb"

    def test_wrong_kind_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "something-else", "version": 1}')
        with pytest.raises(ValueError, match="not a repro-schedule artifact"):
            load_artifact(str(bad))
