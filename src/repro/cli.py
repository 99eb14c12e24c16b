"""Command-line interface: ``repro-pa`` / ``python -m repro``.

Subcommands
-----------

``generate``
    Generate a PA network and write it to disk (binary or text edge list).
``validate``
    Check the structural invariants of an edge-list file.
``stats``
    Degree-distribution summary and power-law fit of an edge-list file.
``scaling``
    Run a small strong-scaling sweep and print the Figure-5-style table.
``chains``
    Dependency-chain statistics for a given ``(n, p)`` (Theorem 3.3 check).
``inspect``
    Per-rank utilisation / barrier-wait summary of a Chrome trace written
    by ``generate --trace-out``.
``explore``
    Schedule-space fuzzing: sweep seeded message-delivery/activation
    schedules, assert the graph is schedule-invariant, shrink and dump any
    failing schedule, and ``--replay`` dumped artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

__all__ = ["main", "build_parser", "run_spec"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pa",
        description="Distributed-memory parallel preferential-attachment generator (SC'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a PA network")
    _add_spec_flags(g)
    g.add_argument("-o", "--output", type=Path, default=None, help="output edge file")
    g.add_argument("--text", action="store_true", help="write text instead of binary")
    g.add_argument("--validate", action="store_true", help="validate before writing")
    g.add_argument("--trace-out", type=Path, default=None,
                   help="record telemetry and write a Chrome trace-event "
                        "JSON here (open in chrome://tracing / Perfetto, "
                        "or summarize with 'repro-pa inspect')")

    d = sub.add_parser("degree-dist", help="log-binned degree distribution of a file")
    d.add_argument("path", type=Path)
    d.add_argument("--text", action="store_true")
    d.add_argument("--plot", action="store_true", help="render an ASCII log-log plot")

    v = sub.add_parser("validate", help="validate an edge-list file")
    v.add_argument("path", type=Path)
    v.add_argument("-n", "--nodes", type=int, required=True)
    v.add_argument("-x", "--edges-per-node", type=int, required=True)
    v.add_argument("--text", action="store_true")

    s = sub.add_parser("stats", help="degree statistics of an edge-list file")
    s.add_argument("path", type=Path)
    s.add_argument("--text", action="store_true")
    s.add_argument("--k-min", type=int, default=None, help="power-law tail cutoff")

    sc = sub.add_parser("scaling", help="strong-scaling sweep (Figure 5 style)")
    sc.add_argument("-n", "--nodes", type=int, default=50_000)
    sc.add_argument("-x", "--edges-per-node", type=int, default=6)
    sc.add_argument("--ranks", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    sc.add_argument("--schemes", nargs="+", default=["ucp", "lcp", "rrp"])
    sc.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("chains", help="dependency-chain statistics (Theorem 3.3)")
    c.add_argument("-n", "--nodes", type=int, default=1_000_000)
    c.add_argument("-p", "--prob", type=float, default=0.5)
    c.add_argument("--seed", type=int, default=0)

    i = sub.add_parser("inspect", help="summarize a Chrome trace from --trace-out")
    i.add_argument("path", type=Path, help="trace JSON written by generate --trace-out")

    e = sub.add_parser(
        "explore",
        help="fuzz message-delivery schedules and assert the graph is invariant",
    )
    e.add_argument("-n", "--nodes", type=int, default=300)
    e.add_argument("-x", "--edges-per-node", type=int, default=1)
    e.add_argument("-p", "--prob", type=float, default=0.5)
    e.add_argument("-P", "--ranks", type=int, default=4)
    e.add_argument("--scheme", choices=["ucp", "lcp", "rrp", "ecp"], default="ecp")
    e.add_argument("--engine", choices=["bsp", "event"], default="bsp",
                   help="in-process engine whose choice points are permuted")
    e.add_argument("--seed", type=int, default=0, help="generator seed under test")
    e.add_argument("--policy", choices=["random", "priority", "straggler", "dpor"],
                   default="random", help="schedule policy driving the sweep")
    e.add_argument("--schedules", type=int, default=64,
                   help="schedules to explore (unique classes under --policy dpor)")
    e.add_argument("--policy-seed", type=int, default=0,
                   help="root seed the per-trial policy seeds derive from")
    e.add_argument("--crash-rank", type=int, default=None,
                   help="compose a FaultPlan crash of this rank into the sweep")
    e.add_argument("--crash-superstep", type=int, default=None,
                   help="crash superstep (--engine bsp)")
    e.add_argument("--watchdog-factor", type=int, default=10,
                   help="no-progress budget = max(1000, factor x baseline ticks)")
    e.add_argument("--artifact-dir", type=Path, default=None,
                   help="dump shrunk failing-schedule artifacts here")
    e.add_argument("--replay", type=Path, default=None,
                   help="re-run a dumped failing-schedule artifact instead of "
                        "sweeping (all other options are read from the file)")

    return parser


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per scalar :class:`~repro.core.generator.RunSpec` field,
    spelled, parsed and documented as the field declares."""
    from repro.core.generator import RunSpec

    for f in fields(RunSpec):
        meta = f.metadata
        if not meta["flags"]:
            continue  # object-valued: library only
        required = f.default is MISSING
        parser.add_argument(
            *meta["flags"], dest=f.name, type=meta["parse"], metavar=meta["metavar"],
            required=required, default=None if required else f.default, help=meta["help"],
        )


def run_spec(args: argparse.Namespace, telemetry=None):
    """The :class:`~repro.core.generator.RunSpec` of parsed ``generate``
    arguments; raises :class:`ValueError` if it is invalid."""
    from repro.core.generator import RunSpec

    knobs = {f.name: getattr(args, f.name) for f in fields(RunSpec) if f.metadata["flags"]}
    return RunSpec(**knobs, telemetry=telemetry)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.generator import generate
    from repro.graph import io as gio

    tel = None
    if args.trace_out is not None:
        from repro.telemetry import Telemetry

        tel = Telemetry()
    try:
        spec = run_spec(args, tel)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    result = generate(**{f.name: getattr(spec, f.name) for f in fields(spec)})
    wall = time.perf_counter() - t0
    print(
        f"generated n={spec.n} x={spec.x} "
        f"m={len(result.edges)} on P={result.ranks} ({result.scheme}/{spec.engine}) "
        f"in {wall:.2f}s wall / {result.simulated_time:.4f}s simulated, "
        f"{result.supersteps} supersteps, imbalance {result.imbalance:.3f}"
    )
    if result.fault_plan is not None:
        print(f"fault plan: {result.fault_plan.counts() or 'no faults fired'}")
    for ev in result.recoveries:
        origin = ev.checkpoint if ev.checkpoint else "scratch"
        print(f"recovery #{ev.attempt}: superstep {ev.superstep} from {origin} "
              f"(+{ev.backoff:g}s simulated backoff) after {ev.error}")
    if args.validate:
        report = result.validate()
        if not report.ok:
            print("VALIDATION FAILED:", *report.errors, sep="\n  ", file=sys.stderr)
            return 1
        print("validation: ok")
    if args.output is not None:
        if args.text:
            gio.write_edges_text(args.output, result.edges)
        else:
            gio.write_edges_binary(args.output, result.edges)
        print(f"wrote {args.output}")
    if tel is not None:
        trace = tel.to_chrome_trace(args.trace_out)
        dropped = trace["metadata"]["dropped_events"]
        note = f" ({dropped} events dropped)" if dropped else ""
        print(f"wrote trace {args.trace_out}: "
              f"{len(trace['traceEvents'])} events{note}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.telemetry.export import inspect_summary, load_chrome_trace

    try:
        trace = load_chrome_trace(args.path)
    except FileNotFoundError:
        print(f"inspect: no such trace file: {args.path}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"inspect: {args.path} is not valid trace JSON: {exc}", file=sys.stderr)
        return 1
    print(inspect_summary(trace))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.schedsim import explore, replay

    if args.replay is not None:
        try:
            res = replay(str(args.replay))
        except FileNotFoundError:
            print(f"explore: no such artifact: {args.replay}", file=sys.stderr)
            return 1
        except (json.JSONDecodeError, ValueError) as exc:
            print(f"explore: cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 1
        out = res.outcome
        print(f"replayed {args.replay}: "
              f"digest={out.digest[:12] if out.digest else None} error={out.error}")
        if res.reproduced:
            print("reproduced: the replay matches the artifact's recorded outcome"
                  + (" (still diverges from baseline)" if res.diverges else ""))
            return 0
        print("NOT reproduced: replay outcome differs from the artifact's "
              f"(expected digest={str(res.expected.get('digest'))[:12]} "
              f"error={res.expected.get('error')})", file=sys.stderr)
        return 1

    config = {
        "n": args.nodes,
        "x": args.edges_per_node,
        "p": args.prob,
        "ranks": args.ranks,
        "scheme": args.scheme,
        "seed": args.seed,
        "engine": args.engine,
    }
    if args.crash_rank is not None:
        if args.crash_superstep is None:
            print("--crash-rank needs --crash-superstep", file=sys.stderr)
            return 2
        config["fault"] = {"crashes": [
            {"rank": args.crash_rank, "at_superstep": args.crash_superstep}
        ]}

    t0 = time.perf_counter()
    try:
        report = explore(
            config,
            policy=args.policy,
            schedules=args.schedules,
            policy_seed=args.policy_seed,
            watchdog_factor=args.watchdog_factor,
            artifact_dir=str(args.artifact_dir) if args.artifact_dir else None,
        )
    except ValueError as exc:  # the config's one-line RunSpec rejection
        print(exc, file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    base = report.baseline
    base_desc = base.error or f"digest {base.digest[:12]}"
    dedup = (f", {report.unique_classes} unique classes "
             f"({report.deduped} deduped)" if report.unique_classes is not None else "")
    print(f"explored {report.explored} {args.policy} schedules of "
          f"{args.engine}/x={args.edges_per_node} in {wall:.2f}s "
          f"(baseline: {base_desc}, watchdog budget {report.watchdog}{dedup})")
    if report.ok:
        print("all schedules agree with the baseline outcome")
        return 0
    for div in report.divergences:
        out = div.outcome
        what = out.error or f"digest {out.digest[:12]}"
        where = f" -> {div.artifact}" if div.artifact else ""
        print(f"DIVERGENT trial {div.trial} (policy seed {div.policy_seed}): "
              f"{what}; {len(div.deviations)} deviations shrunk to "
              f"{len(div.minimal)}{where}", file=sys.stderr)
    print(f"{len(report.divergences)} divergent schedule(s) found", file=sys.stderr)
    return 1


def _read_edges(args: argparse.Namespace):
    """The edge list at ``args.path`` (text with ``--text``), or ``None``
    after a one-line stderr reason when it cannot be read."""
    from repro.graph import io as gio

    try:
        return gio.read_edges_text(args.path) if args.text else gio.read_edges_binary(args.path)
    except OSError as exc:
        reason = exc.strerror
    except ValueError as exc:
        reason = exc
    print(f"{args.command}: cannot read {args.path}: {reason}", file=sys.stderr)
    return None


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.graph.validation import validate_pa_graph

    edges = _read_edges(args)
    if edges is None:
        return 1
    report = validate_pa_graph(edges, args.nodes, args.edges_per_node)
    if report.ok:
        print(f"ok: {report.num_edges} edges, all invariants hold")
        return 0
    print("FAILED:", *report.errors, sep="\n  ", file=sys.stderr)
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph.degree import degrees_from_edges
    from repro.graph.powerlaw import fit_powerlaw

    edges = _read_edges(args)
    if edges is None:
        return 1
    if not len(edges):
        print(f"stats: {args.path} holds no edges", file=sys.stderr)
        return 1
    deg = degrees_from_edges(edges)
    print(f"nodes: {edges.num_nodes}  edges: {len(edges)}")
    print(f"degree: min={deg.min()} mean={deg.mean():.2f} max={deg.max()}")
    try:
        print(f"power-law fit: {fit_powerlaw(deg, k_min=args.k_min)}")
    except ValueError as exc:
        print(f"power-law fit: skipped ({exc})")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.bench.scaling import strong_scaling

    curves = strong_scaling(
        n=args.nodes,
        x=args.edges_per_node,
        ranks_list=args.ranks,
        schemes=tuple(args.schemes),
        seed=args.seed,
    )
    rows = []
    for scheme, points in curves.items():
        for pt in points:
            rows.append(
                (scheme, pt.ranks, pt.simulated_time, pt.speedup, pt.supersteps, pt.imbalance)
            )
    print(
        format_table(
            ["scheme", "P", "T_p (sim s)", "speedup", "supersteps", "imbalance"],
            rows,
            title=f"strong scaling, n={args.nodes}, x={args.edges_per_node}",
        )
    )
    return 0


def _cmd_degree_dist(args: argparse.Namespace) -> int:
    from repro.bench.reporting import ascii_loglog, format_series
    from repro.graph.degree import degrees_from_edges, log_binned_distribution

    edges = _read_edges(args)
    if edges is None:
        return 1
    deg = degrees_from_edges(edges)
    centers, density = log_binned_distribution(deg)
    print(format_series("log-binned degree distribution", centers.round(1), density))
    if args.plot:
        print(ascii_loglog(centers, density, label="P(k) vs k (log-log)"))
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    from repro.core.chains import chain_statistics

    st = chain_statistics(args.nodes, p=args.prob, seed=args.seed)
    print(
        f"n={st.n} p={st.p}: mean chain {st.mean:.3f} "
        f"(bounds: 1/p={st.mean_bound_constant:.1f}, ln n={st.mean_bound:.1f}), "
        f"max chain {st.max} (bound 5 ln n = {st.max_bound:.1f})"
    )
    ok = st.mean_within_bounds and st.max_within_bounds
    print("within Theorem 3.3 bounds:", ok)
    return 0 if ok else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "scaling": _cmd_scaling,
    "chains": _cmd_chains,
    "degree-dist": _cmd_degree_dist,
    "inspect": _cmd_inspect,
    "explore": _cmd_explore,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
