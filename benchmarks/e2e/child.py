"""One ``repro.generate()`` call in a fresh interpreter: the benchmark's unit of work.

    python child.py '<job json>'

The job holds ``spec`` (the ``generate()`` keyword arguments, seed included),
``src`` (the directory ``repro`` must be imported from), and optionally
``validate`` (run ``validate_pa_graph`` on the output), ``trace_dir`` (install
the layer wrappers of :mod:`layers` and report per-layer metrics) and
``untraced_wall_s`` (the untraced median, for ``trace.overhead`` and
``seq.speedup``).

Prints one JSON object per line on stdout, each with an ``event`` key:

* ``ready`` once ``import repro`` is done, with the system-wide monotonic
  time, so the parent can compute ``setup_s`` from its own spawn time;
* ``generated`` as soon as ``generate()`` returns, so the parent can time
  that call out separately from validation;
* ``result`` with the measurements and the output's ``edges_digest``.

``peak_rss_mib`` is ``max(ru_maxrss SELF, CHILDREN)`` sampled right after
``generate()`` returns and before the digest: digesting a spilled run pages
its segment files back in, which would otherwise mask the spill layer's
bounded memory.  ``cpu_s`` is user+sys of this process and its waited-for
workers over the call, from ``getrusage`` (microsecond resolution, where
``os.times`` has clock ticks).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # Linux reports KiB


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _baseline_s(spec: dict) -> float:
    """Wall time of the sequential generator at the same (n, x, p, seed)."""
    from repro.core.commfree import commfree
    from repro.seq.copy_model import copy_model

    kw = dict(n=spec["n"], x=spec.get("x", 1), p=spec.get("p", 0.5), seed=spec["seed"])
    t0 = time.perf_counter()
    if spec.get("generator", "copy") == "commfree":
        commfree(**kw)
    else:
        copy_model(**kw, method="fast")
    return time.perf_counter() - t0


def main() -> int:
    job = json.loads(sys.argv[1])
    import repro
    from repro.core.spill import edges_digest

    src = Path(job["src"]).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 3
    _emit("ready", t=time.monotonic())

    spec = dict(job["spec"])
    trace_dir = job.get("trace_dir")
    tracer = tel = None
    if trace_dir is not None:
        from layers import Tracer, layer_metrics

        if spec.get("engine") == "mp" and spec.get("generator", "copy") == "copy":
            # the mp engine's own compute/exchange/wait spans; observation-only
            tel = spec["telemetry"] = repro.Telemetry()
        tracer = Tracer(trace_dir)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    result = repro.generate(**spec)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = _peak_rss_mib()
    if tracer is not None:
        tracer.close()
    _emit("generated")

    t0 = time.perf_counter()
    digest = edges_digest(result.edges)
    digest_s = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": rss,
        "digest": digest,
        "edges": len(result.edges),
        "supersteps": result.supersteps,
        "requests": int(result.requests_sent.sum()),
    }
    if job.get("validate"):
        report = result.validate()
        out["valid"] = report.ok
        out["errors"] = report.errors[:3]

    if tracer is not None:
        records = tracer.recorder.records()
        layers = layer_metrics(records, result, tel)
        spill_dir = spec.get("out_of_core")
        layers["spill.bytes_written"] = _dir_bytes(Path(spill_dir)) if spill_dir else 0
        layers["spill.readback_s"] = digest_s if spill_dir else 0.0
        untraced = job["untraced_wall_s"]
        layers["trace.overhead"] = wall / untraced
        layers["trace.unattributed_frac"] = layers["generator.self_s"] / wall
        del result
        layers["seq.baseline_s"] = _baseline_s(spec)
        layers["seq.speedup"] = layers["seq.baseline_s"] / untraced
        out["layers"] = layers
        # forked processes whose spans reached the trace directory
        out["worker_processes"] = len({rec["pid"] for rec in records[1:]})

    _emit("result", **out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
