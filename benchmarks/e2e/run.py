"""End-to-end generation benchmark: fresh-process medians and a per-layer breakdown.

Every run is one ``repro.generate()`` call in a fresh child interpreter
(``child.py``), and only one child runs at a time.  A set of runs at
``--seed s`` generates a sequence of graphs, each twice in a row: graph ``j``
uses ``generate(seed=s + j * SEED_STRIDE)``, so graph 0 is seed ``s`` itself.
The seed changes how much work a graph takes (commfree x=4 by ~10%), so a
median over several graphs is what stays steady from one seed to the next.

Every run's output is checked: the set's first run must pass
``validate_pa_graph``, and every run must reproduce its graph's pinned
``edges_digest`` (graph 0 at seed 1) or the digest of that graph's first
run.  A run that raises, exits non-zero, times out, produces a wrong digest
or leaves a new ``/dev/shm`` entry counts as failed; failures never abort
the set.

Workload form: one workload for ``--seconds``; the last line of stdout is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of one traced run of graph 0 (``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload copy-x4-mp --seed 3 --seconds 25 --trace 0

Set form: every workload round-robin for :data:`ROUNDS` rounds, then one
traced run each; prints every metric and writes the set as JSON::

    python3 benchmarks/e2e/run.py --seed 1 --out a.json
    python3 benchmarks/e2e/run.py --compare a.json b.json

Metric names, units and bounds come from ``BENCHMARK.json`` at the repository
root; ``README.md`` next to this file explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: the seed whose graph-0 ``edges_digest`` is pinned per workload
PINNED_SEED = 1
#: consecutive runs of each graph; the repeat checks determinism
REPEATS = 2
#: untraced runs per workload in the set form
ROUNDS = 10
#: graph ``j`` of a set at seed ``s`` is ``generate(seed=s + j * SEED_STRIDE)``
SEED_STRIDE = 1_000_000
#: limits (seconds) on a child's phases other than ``generate()``: start-up
#: plus ``import repro``, and digest plus validation plus the traced run's
#: sequential baseline
SETUP_LIMIT_S = 30.0
AFTER_LIMIT_S = 60.0
#: a run times out after this many times its workload's pinned ``wall_s``
TIMEOUT_FACTOR = 5
#: ``generate()`` limit for a workload with no pinned wall time
UNPINNED_LIMIT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One ``generate()`` call shape.

    ``spec`` holds the keyword arguments except ``seed``; ``out_of_core:
    True`` stands for a fresh spill directory per run, deleted after it.
    ``digest`` is graph 0's ``edges_digest`` at :data:`PINNED_SEED` and
    ``wall_s`` the median wall time the run timeout is derived from.
    """

    name: str
    spec: dict
    digest: str | None = None
    wall_s: float | None = None

    @property
    def ranks(self) -> int:
        return self.spec.get("ranks", 1)


# Pinned on a 2-vCPU host; BENCHMARK.json records why each workload exists.
# commfree-x4-mp runs n=100k, not 500k: at 500k one call takes ~6 s, too few
# graphs per 25-second run for a median that is steady across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "copy-x4-mp",
            {"n": 1_500_000, "x": 4, "ranks": 2, "engine": "mp"},
            "16a11e2b4b61156cef341d3dfe670ebf3636b81fa9dbd2f01742cd6baf2b7748",
            2.05,
        ),
        Workload(
            "copy-x1-bsp",
            {"n": 10_000_000, "x": 1, "ranks": 2, "engine": "bsp"},
            "63d1ccc5ccf1b4d998649b374e815b40bb895be13776bfdac80ea20ec36946b2",
            1.85,
        ),
        Workload(
            "commfree-x4-mp",
            {"n": 100_000, "x": 4, "ranks": 2, "engine": "mp", "generator": "commfree"},
            "c1dae2c8a3db0b48659fdc2c302cbaf8105f24c7ea4e8b1397f4f57428605bb8",
            0.75,
        ),
        Workload(
            "commfree-x1-spill",
            {
                "n": 20_000_000, "x": 1, "ranks": 2, "engine": "mp",
                "generator": "commfree", "out_of_core": True,
            },
            "77d4d6c9f1563422466e6583ec034b357ab05c8eb541934a32d935b38dfe50aa",
            1.7,
        ),
    )
}

#: end-to-end samples every passing untraced run contributes
SAMPLED = ("wall_s", "cpu_s", "peak_rss_mib", "setup_s")
#: output invariants of graph 0, identical across sets of the same seed
INVARIANTS = ("digest", "edges", "supersteps", "requests")


class RunFailed(Exception):
    """One run's failure; the message is the reason recorded for it."""


@dataclass
class Tally:
    """The runs of one workload in one set, and what they measured."""

    workload: Workload
    seed: int
    #: graph seed -> the digest every run of that graph must produce
    references: dict[int, str] = field(default_factory=dict)
    validated: bool = False
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    #: results of the passing untraced runs, in run order
    runs: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.seed == PINNED_SEED and self.workload.digest:
            self.references[self.seed] = self.workload.digest

    def graph_seed(self, run: int) -> int:
        return self.seed + (run // REPEATS) * SEED_STRIDE

    def values(self, name: str, graph_seed: int | None = None) -> list[float]:
        return [
            r[name] for r in self.runs
            if graph_seed is None or r["graph_seed"] == graph_seed
        ]

    def invariants(self) -> dict:
        first = next((r for r in self.runs if r["graph_seed"] == self.seed), None)
        return {k: first[k] for k in INVARIANTS} if first else {}


def load_benchmark(path: Path = BENCHMARK) -> dict:
    return json.loads(path.read_text())


def host_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _child_env(tmp: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


def prime(tmp: Path) -> None:
    """Import ``repro`` once so later children find its bytecode compiled.

    Users pay compilation once, not per run, so ``setup_s`` should not.
    """
    subprocess.run(
        [sys.executable, "-c", "import repro"], env=_child_env(tmp), check=True,
        timeout=SETUP_LIMIT_S * 4, stdout=subprocess.DEVNULL,
    )


def _read_events(proc: subprocess.Popen, spawned: float, limit_s: float) -> dict:
    """Collect the child's event lines until ``result``, enforcing phase limits."""
    events: dict[str, dict] = {}
    phase, deadline = "start-up", spawned + SETUP_LIMIT_S
    fd = proc.stdout.fileno()
    buf = b""
    while "result" not in events:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RunFailed(f"timed out in {phase}")
        if not select.select([fd], [], [], left)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return events  # exited early; the caller reports the exit code
        *lines, buf = (buf + chunk).split(b"\n")
        for line in lines:
            if not line.startswith(b"{"):
                continue
            event = json.loads(line)
            events[event["event"]] = event
            if event["event"] == "ready":
                phase, deadline = "generate()", time.monotonic() + limit_s
            elif event["event"] == "generated":
                phase, deadline = "digest/validation", time.monotonic() + AFTER_LIMIT_S
    return events


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group, and reap the child.

    After a normal exit that is nothing; after a timeout or crash it is the
    child and any mp workers it forked.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_child(job: dict, limit_s: float, tmp: Path) -> dict:
    """Run ``child.py`` on ``job``; return its result with ``setup_s`` added.

    ``setup_s`` runs from just before the spawn to the child's ``ready``
    stamp, both on the system-wide monotonic clock.  Raises
    :class:`RunFailed` if the child exits non-zero, overruns a phase
    (``limit_s`` for the ``generate()`` call), or leaves a new ``/dev/shm``
    entry behind.
    """
    shm_before = shm_entries()
    with open(tmp / "child.stderr", "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            stdout=subprocess.PIPE, stderr=err, env=_child_env(tmp),
            start_new_session=True,
        )
        try:
            events = _read_events(proc, spawned, limit_s)
            code = proc.wait(timeout=AFTER_LIMIT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed("did not exit after its result") from None
        finally:
            _stop_group(proc)
        if code != 0 or "result" not in events:
            err.seek(0)
            tail = err.read().strip().splitlines()[-1:] or [""]
            raise RunFailed(f"child exited {code}: {tail[0][:300]}")
    leaked = shm_entries() - shm_before
    if leaked:
        raise RunFailed(f"left /dev/shm entries {sorted(leaked)}")
    out = events["result"]
    out["setup_s"] = events["ready"]["t"] - spawned
    return out


def _check(tally: Tally, out: dict, graph_seed: int, validate: bool) -> None:
    if validate:
        if not out.get("valid"):
            raise RunFailed(f"validate_pa_graph failed: {out.get('errors')}")
        tally.validated = True
    want = tally.references.setdefault(graph_seed, out["digest"])
    if out["digest"] != want:
        raise RunFailed(
            f"seed {graph_seed}: edges_digest {out['digest'][:12]} != {want[:12]}"
        )


def run_once(tally: Tally, scratch: Path, untraced_wall_s: float | None = None) -> dict | None:
    """One checked fresh-process run; ``None`` if it failed.

    With ``untraced_wall_s`` (graph 0's untraced median) the run is a traced
    run of graph 0: it reports per-layer metrics, must reproduce the
    untraced digest, and contributes no end-to-end samples.
    """
    w = tally.workload
    traced = untraced_wall_s is not None
    graph_seed = tally.seed if traced else tally.graph_seed(tally.attempted)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    spec = {**w.spec, "seed": graph_seed}
    if spec.get("out_of_core"):
        spec["out_of_core"] = str(run_dir / "spill")
    job = {"spec": spec, "src": str(SRC), "validate": not (tally.validated or traced)}
    if traced:
        job.update(trace_dir=str(run_dir), untraced_wall_s=untraced_wall_s)
    limit = TIMEOUT_FACTOR * w.wall_s if w.wall_s else UNPINNED_LIMIT_S
    tally.attempted += 1
    try:
        out = run_child(job, limit, run_dir)
        _check(tally, out, graph_seed, job["validate"])
    except RunFailed as exc:
        tally.failed += 1
        tally.reasons.append(f"run {tally.attempted}: {exc}")
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out["graph_seed"] = graph_seed
    if not traced:
        tally.runs.append(out)
    return out


def traced_run(tally: Tally, scratch: Path) -> dict | None:
    """The set's one traced run, of graph 0, against graph 0's untraced median."""
    walls = tally.values("wall_s", tally.seed)
    if not walls:
        return None
    return run_once(tally, scratch, statistics.median(walls))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------- workload form
def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, scratch: Path,
    bench: dict,
) -> tuple[dict, Tally, dict | None]:
    """One workload-form run: the result object, the tally, and the traced run.

    Untraced runs go on, whole graphs at a time, while the next run
    (estimated from the last) fits in ``seconds``, or in half of it when a
    traced run follows; there is always at least one graph.
    """
    tally = Tally(workload, seed)
    start = time.monotonic()
    budget = seconds / 2 if trace else seconds
    last = 0.0
    while (
        tally.attempted < REPEATS
        or tally.attempted % REPEATS
        or time.monotonic() - start + last <= budget
    ):
        t0 = time.monotonic()
        run_once(tally, scratch)
        last = time.monotonic() - t0
    traced = traced_run(tally, scratch) if trace else None
    if trace:
        defs = bench["per_layer"]
        values = traced["layers"] if traced else None
    else:
        defs = bench["end_to_end"]
        values = {k: statistics.median(tally.values(k)) for k in SAMPLED} if tally.runs else None
    metrics = (
        {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs}
        if values else {}
    )
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, tally, traced


# --------------------------------------------------------------------- set form
def run_set(
    workloads: list[Workload], seed: int, rounds: int, scratch: Path, bench: dict
) -> dict:
    """Round-robin untraced runs, then one traced run per workload."""
    host = {"before": host_record()}
    tallies = [Tally(w, seed) for w in workloads]
    for _ in range(rounds):
        for tally in tallies:
            run_once(tally, scratch)
    traced = [traced_run(t, scratch) for t in tallies]
    host["after"] = host_record()
    return report(seed, host, list(zip(tallies, traced)), bench)


def report(
    seed: int, host: dict, runs: list[tuple[Tally, dict | None]], bench: dict
) -> dict:
    """A set's report: per workload, its summaries, failures and layers.

    ``runs`` pairs each workload's tally with its traced run, if any.  The
    workload form reports its one workload the same way.
    """
    cpus = min(host["before"]["cpus_affinity"], host["after"]["cpus_affinity"])
    out = {"seed": seed, "host": host, "workloads": {}}
    for tally, tr in runs:
        metrics: dict = {}
        for m in bench["end_to_end"]:
            values = tally.values(m["name"])
            if m["name"] in ("wall_s", "cpu_s") and tally.workload.ranks > cpus:
                metrics[m["name"]] = "not_comparable"
            elif values:
                metrics[m["name"]] = {"unit": m["unit"], **summary(values), "values": values}
        metrics["failed_frac"] = {"unit": "ratio", "value": tally.failed / tally.attempted}
        out["workloads"][tally.workload.name] = {
            "spec": tally.workload.spec,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "graphs": len({r["graph_seed"] for r in tally.runs}),
            "failures": tally.reasons,
            "metrics": metrics,
            **tally.invariants(),
            "layers": tr["layers"] if tr else {},
            "worker_processes": tr["worker_processes"] if tr else 0,
        }
    return out


def format_report(rep: dict) -> list[str]:
    lines = [f"host before: {rep['host']['before']}"]
    for name, w in rep["workloads"].items():
        lines.append(f"\n== {name}  (seed {rep['seed']}, {w['attempted']} runs, "
                     f"{w['failed']} failed, {w['graphs']} graphs)")
        for metric, s in w["metrics"].items():
            if isinstance(s, str):
                lines.append(f"  {metric:<26} {s}")
            elif "value" in s:
                lines.append(f"  {metric:<26} {s['value']:.4f} {s['unit']}")
            else:
                lines.append(
                    f"  {metric:<26} median {s['median']:.4f} {s['unit']}  "
                    f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
                )
        for reason in w["failures"]:
            lines.append(f"  FAILED {reason}")
        if w["layers"]:
            lines.append(f"  traced run ({w['worker_processes']} forked processes traced):")
            for metric, value in w["layers"].items():
                lines.append(f"    {metric:<26} {value:.6g}")
    lines.append(f"\nhost after: {rep['host']['after']}")
    return lines


def _spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / s["median"]


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], list[str], list[str]]:
    """Rows comparing set ``b`` with set ``a``; the regressions; the unresolved rows.

    Per workload and end-to-end metric, the verdict is ``REGRESSION`` when
    ``b``'s median is worse than ``a``'s by more than the bound.  It is
    ``unresolved`` when either set's quartile spread, (q3 - q1) / median, is
    wider than the bound, so noise could hide a regression; unless every run
    of ``b`` reads better than every run of ``a``.  Otherwise it is ``ok``.
    A higher ``failed_frac`` or a changed output invariant of graph 0 is
    also a regression.
    """
    rows: list[str] = []
    bad: list[str] = []
    unresolved: list[str] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            bad.append(f"{name}: missing from the second set")
            continue
        for m in bench["end_to_end"]:
            sa, sb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if not isinstance(sa, dict) or not isinstance(sb, dict):
                rows.append(f"{name:<18} {m['name']:<13} not comparable")
                continue
            change = sb["median"] / sa["median"] - 1.0
            lower = m["better"] == "lower"
            worse = change if lower else -change
            all_better = (
                max(sb["values"]) < min(sa["values"]) if lower
                else min(sb["values"]) > max(sa["values"])
            )
            spread = max(_spread(sa), _spread(sb))
            if worse > m["bound"]:
                verdict = "REGRESSION"
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                f"{name:<18} {m['name']:<13} {sa['median']:.4f} -> {sb['median']:.4f} "
                f"{m['unit']:<4} {change:+.1%} (bound {m['bound']:.0%}, "
                f"spread {spread:.1%}) {verdict}"
            )
            if verdict == "REGRESSION":
                bad.append(rows[-1])
            elif verdict == "unresolved":
                unresolved.append(rows[-1])
        fa = wa["metrics"]["failed_frac"]["value"]
        fb = wb["metrics"]["failed_frac"]["value"]
        if fb > fa:
            bad.append(f"{name}: failed_frac rose {fa:.3f} -> {fb:.3f}")
        for key in INVARIANTS:
            if wa.get(key) != wb.get(key):
                bad.append(f"{name}: {key} differs: {wa.get(key)} vs {wb.get(key)}")
    return rows, bad, unresolved


# ------------------------------------------------------------------------- CLI
def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="workload form: run this workload only")
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="workload form: measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="workload form: report the per-layer metrics of a traced run")
    ap.add_argument("--out", type=Path, help="set form: write the set as JSON here")
    ap.add_argument("--scratch-dir", type=Path, default=ROOT / ".bench_e2e",
                    help="where spill directories and trace files live (deleted)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two sets written by --out")
    args = ap.parse_args(argv)

    if args.compare:
        bench = load_benchmark()
        rows, bad, unresolved = compare(
            *(json.loads(p.read_text()) for p in args.compare), bench
        )
        print("\n".join(rows + [f"REGRESSED {b}" for b in bad]))
        if bad or unresolved:
            print(f"{len(bad)} regression(s), {len(unresolved)} unresolved "
                  "(quartile spread wider than the bound)")
            return 1
        print("sets agree within bounds")
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    signal.signal(signal.SIGTERM, _terminate)
    args.scratch_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bench-", dir=args.scratch_dir))
    try:
        prime(scratch)
        if args.workload is None:
            rep = run_set(list(WORKLOADS.values()), args.seed, ROUNDS, scratch, bench)
            print("\n".join(format_report(rep)))
            if args.out:
                args.out.write_text(json.dumps(rep, indent=1) + "\n")
            return 0 if all(w["failed"] == 0 for w in rep["workloads"].values()) else 1

        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        host = {"before": host_record()}
        result, tally, traced = measure(
            WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), scratch, bench
        )
        host["after"] = host_record()
        print("\n".join(format_report(report(args.seed, host, [(tally, traced)], bench))))
        print(json.dumps(result))
        return 0 if result["metrics"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            args.scratch_dir.rmdir()
        except OSError:
            pass  # not empty: another run's, or not ours


if __name__ == "__main__":
    raise SystemExit(main())
