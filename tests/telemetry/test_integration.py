"""End-to-end telemetry guarantees across every engine.

The contract under test:

1. **Observation-only.**  Generation output is bit-identical with telemetry
   attached and without, on every engine — telemetry reads clocks and
   counters, never RNG state or messages.
2. **Completeness.**  A real-process run yields a merged trace containing
   every rank's lane plus the coordinator's, with compute / exchange /
   barrier spans, and it passes the Chrome trace-event schema check.
3. **Crash robustness.**  A supervised run that loses a worker to SIGKILL
   still produces one continuous annotated trace: the victim's published
   history survives, the recovery is marked, and ``inspect_summary``
   renders it.
"""

import pytest

from repro.core.generator import generate
from repro.core.spill import edges_digest
from repro.mpsim.faults import FaultPlan
from repro.telemetry import Telemetry
from repro.telemetry.export import inspect_summary, validate_chrome_trace


def _edges(n=1_500, engine="bsp", seed=13, telemetry=None, **kw):
    ranks = 1 if engine == "sequential" else 4
    return generate(
        n, ranks=ranks, seed=seed, engine=engine, telemetry=telemetry, **kw
    ).edges


# -------------------------------------------------------- observation-only
@pytest.mark.parametrize("engine", ["bsp", "event", "sequential"])
def test_output_bit_identical_with_telemetry_in_process(engine):
    baseline = _edges(engine=engine)
    tel = Telemetry()
    observed = _edges(engine=engine, telemetry=tel)
    assert observed == baseline
    assert tel.spans.spans  # and telemetry actually recorded something


def test_output_bit_identical_with_telemetry_mp():
    baseline = _edges(engine="mp")
    tel = Telemetry()
    observed = _edges(engine="mp", telemetry=tel)
    assert observed == baseline
    assert tel.spans.spans


# ------------------------------------------------------------ completeness
def test_mp_trace_covers_every_lane_and_validates():
    tel = Telemetry()
    result = generate(1_500, ranks=4, seed=13, engine="mp", telemetry=tel)

    trace = tel.to_chrome_trace()
    assert validate_chrome_trace(trace) == []
    tids = {e["tid"] for e in trace["traceEvents"]}
    assert {-1, 0, 1, 2, 3} <= tids  # all 4 ranks + the coordinator lane
    cats = {e.get("cat") for e in trace["traceEvents"]}
    assert {"compute", "exchange", "barrier", "run"} <= cats
    assert tel.dropped_events == 0
    # one compute span per rank per superstep
    assert result.supersteps > 0
    for rank in range(4):
        computes = [s for s in tel.spans.spans if s.name == "compute" and s.tid == rank]
        assert len(computes) == result.supersteps
    assert tel.meta["engine"] == "mp"
    # the summary renders without error and names every lane
    text = inspect_summary(trace)
    for tid in (-1, 0, 1, 2, 3):
        assert f"\n{tid:>6} " in text


@pytest.mark.parametrize("engine", ["bsp", "mp"])
def test_engines_sample_rss_per_superstep(engine):
    tel = Telemetry()
    _edges(engine=engine, telemetry=tel)

    # rss_bytes notes: one per sampled span (coordinator lane is tid -1)
    samples = [s for s in tel.spans.spans if "rss_bytes" in s.args]
    assert samples
    assert all(s.args["rss_bytes"] > 1 << 20 for s in samples)  # plausibly > 1 MB
    lanes = {s.tid for s in samples}
    assert -1 in lanes
    if engine == "mp":
        assert {-1, 0, 1, 2, 3} <= lanes  # every worker + the coordinator

    # spans: the per-superstep samples surface in the inspect summary
    text = inspect_summary(tel.to_chrome_trace())
    assert "rss per lane (first->peak):" in text


def test_bsp_superstep_spans_carry_virtual_time():
    tel = Telemetry()
    result = generate(2_000, ranks=4, seed=3, engine="bsp", telemetry=tel)
    steps = [s for s in tel.spans.spans if s.name == "superstep"]
    assert len(steps) == result.supersteps
    virtual = sum(s.args["virtual_s"] for s in steps)
    assert virtual == pytest.approx(result.simulated_time)
    assert steps[-1].args["virtual_total_s"] == pytest.approx(result.simulated_time)


# -------------------------------------------------------- crash robustness
def test_crashed_and_recovered_run_yields_annotated_trace(tmp_path):
    n, seed = 2_000, 11
    baseline = _edges(n=n, engine="mp", seed=seed)

    tel = Telemetry()
    plan = FaultPlan().crash(1, at_superstep=3)
    result = generate(
        n, ranks=4, seed=seed, engine="mp",
        fault_plan=plan, checkpoint_dir=str(tmp_path),
        barrier_timeout=30.0, telemetry=tel,
    )
    assert result.edges == baseline  # recovery is still bit-exact, observed
    assert len(result.recoveries) == 1

    # the recovery is on the timeline as a mark, next to the attempts and
    # the checkpoint saves it resumed from
    assert len(tel.marks) == len(result.recoveries) == 1
    assert "recovery #1" in tel.marks[0][1]
    attempts = [s for s in tel.spans.spans if s.name == "attempt"]
    assert [s.args["attempt"] for s in attempts] == [1, 2]
    assert any(s.name == "checkpoint.save" for s in tel.spans.spans)

    # the merged trace holds both attempts' worker spans and validates
    trace = tel.to_chrome_trace(tmp_path / "crash.json")
    assert validate_chrome_trace(trace) == []
    assert {-1, 0, 1, 2, 3} <= {e["tid"] for e in trace["traceEvents"]}
    marks = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
    assert any("recovery #1" in e["name"] for e in marks)

    text = inspect_summary(trace)
    assert "recovery #1" in text


def test_supervised_mp_run_traces_both_attempts(tmp_path):
    """Supervised mp x telemetry: the recovered run's edge stream is the
    unsupervised run's, and every worker lane has spans from both fleets."""
    n, seed = 2_000, 11
    plain = generate(n, ranks=4, seed=seed, engine="mp")
    tel = Telemetry()
    result = generate(
        n, ranks=4, seed=seed, engine="mp",
        fault_plan=FaultPlan().crash(2, at_superstep=4),
        checkpoint_dir=str(tmp_path), telemetry=tel,
    )
    assert edges_digest(result.edges) == edges_digest(plain.edges)
    assert len(result.recoveries) == 1
    attempts = [s for s in tel.spans.spans if s.name == "attempt"]
    assert len(attempts) == 2
    for rank in range(4):
        for name in ("compute", "exchange.write"):
            starts = [s.ts for s in tel.spans.spans if s.name == name and s.tid == rank]
            for a in attempts:
                assert any(a.ts <= ts <= a.ts + a.dur for ts in starts), (
                    rank, name, a.args["attempt"],
                )


# ------------------------------------------------- simulated-engine bridge
def test_tracer_to_chrome_trace_matches_schema(tmp_path):
    from repro.core.parallel_pa import PAx1RankProgram
    from repro.core.partitioning import make_partition
    from repro.mpsim.bsp import BSPEngine
    from repro.mpsim.trace import Tracer
    from repro.rng import StreamFactory

    part = make_partition("rrp", 600, 4)
    factory = StreamFactory(0)
    programs = [PAx1RankProgram(r, part, 0.5, factory.stream(r)) for r in range(4)]
    tracer = Tracer()
    engine = BSPEngine(4)
    engine.run(programs, tracer=tracer)
    tracer.mark(2, "synthetic mark")

    trace = tracer.to_chrome_trace(tmp_path / "virtual.json")
    assert validate_chrome_trace(trace) == []
    assert (tmp_path / "virtual.json").exists()
    assert trace["metadata"]["time_axis"] == "virtual_seconds"

    events = trace["traceEvents"]
    computes = [e for e in events if e["cat"] == "compute"]
    assert len(computes) == engine.supersteps * 4
    # virtual time is conserved: total compute lane time per rank sums to
    # that rank's busy time, and the peak envelope equals simulated_time
    total_peak = max(e["ts"] + e["dur"] for e in events if e["ph"] == "X") / 1e6
    assert total_peak == pytest.approx(engine.simulated_time)
    assert any(e["ph"] == "i" and e["name"] == "synthetic mark" for e in events)
    # the same summariser reads virtual traces
    assert "barrier wait" in inspect_summary(trace)
