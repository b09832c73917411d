"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``link``
    Print the Table 1 link budget (and the per-component loss).
``config [--nodes N]``
    Print the Table 3 system configuration.
``run --app oc --network fsoi [--nodes N] [--cycles C] [--optimized]``
    Run one CMP experiment and print its results.
``compare --app oc [--nodes N] [--cycles C]``
    Run FSOI and the mesh baseline side by side: speedup + energy.
``sweep --apps ba,lu --networks fsoi,mesh [--seeds 0,1] [--workers N]``
    Run a whole experiment grid in parallel with on-disk result
    caching (see ``repro.sweep`` and docs/sweeps.md).
``trace --app oc --network fsoi --out trace.jsonl``
    Run one experiment with event tracing on and export the trace as
    chrome://tracing-compatible JSONL (see docs/observability.md).
``faults --app oc --kill 3:data --drop-confirmations 0.05``
    Run one fault-injected FSOI experiment and print the resilience
    report (see repro.faults and docs/faults.md).
``profile --app oc --network fsoi [--json]``
    Run one experiment with per-phase wall-time profiling and print
    the cycle-loop attribution table (or a JSON document).
``top --app oc --network fsoi [--once] [--from timeline.jsonl]``
    Live dashboard of one running experiment: per-path sparkline rows
    from the windowed timeline, the health watchdogs' verdict and an
    ETA, redrawn as the run progresses (see docs/observability.md).
``report [--apps oc] [--out report.html]``
    Run (or ingest) a sweep, file it in the analytics run ledger,
    validate it against the paper's figure tolerance bands and render
    the report (terminal + optional HTML/Markdown) — see
    docs/analytics.md.
``thermal [--power W]``
    Evaluate the §3.3 cooling options at a given chip power.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, closing, contextmanager

from repro.cmp import CmpConfig, CmpSystem
from repro.cmp.system import NETWORK_KINDS
from repro.config import table3
from repro.core.link import OpticalLink
from repro.core.optimizations import OptimizationConfig
from repro.power import CoolingOption, SystemPowerModel, ThermalStack
from repro.workloads import APPLICATIONS

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type of the flags that count things: cycles, workers,
    events, window lengths."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _health_flags(note: str = "") -> argparse.ArgumentParser:
    health = argparse.ArgumentParser(add_help=False)
    health.add_argument(
        "--health", action="store_true",
        help="run the invariant/anomaly watchdogs after the run and "
        "print the health report" + note,
    )
    health.add_argument(
        "--strict-health", action="store_true",
        help="like --health, but exit non-zero if any watchdog fires",
    )
    return health


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Intra-Chip Free-Space Optical "
        "Interconnect' (ISCA 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag families, each declared once and inherited through parents=.
    # One experiment: every command that builds a CmpSystem...
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--app", default="oc", choices=sorted(APPLICATIONS))
    experiment.add_argument("--nodes", type=int, default=16)
    experiment.add_argument("--cycles", type=_positive_int, default=10_000)
    experiment.add_argument("--seed", type=int, default=0)
    # ...and those that also choose its transport.
    transport = argparse.ArgumentParser(add_help=False)
    transport.add_argument("--network", default="fsoi", choices=NETWORK_KINDS)
    transport.add_argument(
        "--optimized", action="store_true",
        help="enable all §5 optimizations (FSOI only)",
    )
    # One grid of experiments through the sweep runner.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--apps", default="oc",
        help="comma-separated application labels (e.g. ba,lu,oc,ro)",
    )
    grid.add_argument(
        "--networks", default="fsoi,mesh",
        help=f"comma-separated networks from {','.join(NETWORK_KINDS)}",
    )
    grid.add_argument(
        "--nodes", default="16", help="comma-separated node counts"
    )
    grid.add_argument(
        "--seeds", default="0", help="comma-separated experiment seeds"
    )
    grid.add_argument("--cycles", type=_positive_int, default=8_000)
    grid.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes (1 = run inline, no subprocesses)",
    )
    grid.add_argument(
        "--cache-dir", default=".repro-sweep-cache",
        help="on-disk result cache directory (default: %(default)s)",
    )
    grid.add_argument(
        "--no-cache", action="store_true",
        help="always recompute; do not read or write the cache",
    )

    link = sub.add_parser("link", help="Table 1 optical link budget")
    link.set_defaults(func=_cmd_link)

    config = sub.add_parser("config", help="Table 3 system configuration")
    config.add_argument("--nodes", type=int, default=16, choices=(16, 64))
    config.set_defaults(func=_cmd_config)

    run = sub.add_parser(
        "run", help="run one CMP experiment",
        parents=[experiment, transport, _health_flags()],
    )
    run.add_argument(
        "--timeline", default=None, metavar="TIMELINE.JSONL",
        help="collect windowed time-series telemetry and write the "
        "per-window delta archive here (see docs/observability.md)",
    )
    run.add_argument(
        "--timeline-window", type=_positive_int, default=100, metavar="CYCLES",
        help="timeline sampling window in cycles (default: %(default)s)",
    )
    run.add_argument(
        "--openmetrics", default=None, metavar="METRICS.TXT",
        help="also export the timeline totals as OpenMetrics text "
        "(implies timeline collection)",
    )
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare", help="FSOI vs mesh on one app", parents=[experiment]
    )
    compare.set_defaults(func=_cmd_compare, optimized=False)

    sweep = sub.add_parser(
        "sweep", parents=[grid],
        help="run an experiment grid in parallel with result caching",
    )
    sweep.add_argument(
        "--optimized", action="store_true",
        help="also sweep FSOI with all §5 optimizations enabled",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-point wall-clock limit in seconds",
    )
    sweep.add_argument(
        "--out", default=None, metavar="RESULTS.JSONL",
        help="stream per-point results to this JSONL file",
    )
    sweep.add_argument(
        "--metrics-dir", default=None, metavar="DIR",
        help="archive each executed point's metrics-registry snapshot "
        "as one JSON file in this directory",
    )
    sweep.add_argument(
        "--timeline-dir", default=None, metavar="DIR",
        help="archive each executed point's windowed timeline as one "
        "JSONL file in this directory",
    )
    sweep.add_argument(
        "--timeline-window", type=_positive_int, default=100, metavar="CYCLES",
        help="timeline sampling window for --timeline-dir "
        "(default: %(default)s)",
    )
    sweep.add_argument(
        "--spec", default=None, metavar="SPEC.JSON",
        help="load the grid from a JSON SweepSpec file instead of flags",
    )
    sweep.add_argument(
        "--baseline", default="mesh",
        help="network to report paired speedups against (default: mesh)",
    )
    sweep.add_argument(
        "--live", action="store_true",
        help="single live progress line (counters + ETA + in-flight "
        "points) instead of one line per completed point",
    )
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser(
        "report", parents=[grid],
        help="sweep + run ledger + paper-figure validation report",
    )
    report.add_argument(
        "--from", dest="from_jsonl", default=None, metavar="RESULTS.JSONL",
        help="validate an existing sweep results file instead of "
        "running a sweep",
    )
    report.add_argument(
        "--metrics-dir", default=None, metavar="DIR",
        help="per-point metrics-registry archive directory to attach "
        "to the ledger run",
    )
    report.add_argument(
        "--timeline-dir", default=None, metavar="DIR",
        help="per-point timeline archive directory to collect and "
        "attach to the ledger run",
    )
    report.add_argument(
        "--ledger", default=".repro-ledger.sqlite", metavar="LEDGER.SQLITE",
        help="run-ledger SQLite path; pass '' to skip ingestion "
        "(default: %(default)s)",
    )
    report.add_argument(
        "--label", default="", help="free-form label filed with the run"
    )
    report.add_argument(
        "--diff", action="store_true",
        help="also diff this run against the previous run in the ledger",
    )
    report.add_argument(
        "--out", default=None, metavar="REPORT.{HTML,MD}",
        help="also write the report as self-contained HTML (.html/.htm) "
        "or Markdown (any other suffix)",
    )
    report.add_argument(
        "--live", action="store_true",
        help="live progress line while the sweep runs",
    )
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace", help="run one experiment with event tracing",
        parents=[experiment, transport],
    )
    trace.add_argument(
        "--out", default="trace.jsonl", metavar="TRACE.JSONL",
        help="trace-event JSONL output path (default: %(default)s)",
    )
    trace.add_argument(
        "--chrome", default=None, metavar="TRACE.JSON",
        help="also write a {'traceEvents': [...]} file for direct "
        "loading in chrome://tracing / Perfetto",
    )
    trace.add_argument(
        "--buffer", type=_positive_int, default=1 << 20,
        help="trace ring-buffer capacity in events (default: %(default)s)",
    )
    trace.add_argument(
        "--categories", default=None,
        help="comma-separated category allow-list "
        "(fsoi,mesh,coherence,confirmation,backoff,fault; default: all)",
    )
    trace.add_argument(
        "--node", type=int, default=None,
        help="export only events of this node",
    )
    trace.add_argument(
        "--lane", default=None, choices=("meta", "data"),
        help="export only events of this lane",
    )
    trace.add_argument(
        "--metrics", default=None, metavar="METRICS.{JSON,CSV}",
        help="also export the run's metrics-registry snapshot",
    )
    trace.add_argument(
        "--summary", action="store_true",
        help="print a per-category/per-name event summary after the run",
    )
    trace.add_argument(
        "--timeline", action="store_true",
        help="also collect the windowed timeline and merge its counter "
        "events (ph 'C') into the exported trace files",
    )
    trace.add_argument(
        "--timeline-window", type=_positive_int, default=100, metavar="CYCLES",
        help="timeline sampling window for --timeline "
        "(default: %(default)s)",
    )
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile", help="run one experiment with cycle-loop profiling",
        parents=[experiment, transport],
    )
    profile.add_argument(
        "--json", action="store_true",
        help="print the phase attribution as JSON instead of the table",
    )
    profile.set_defaults(func=_cmd_profile)

    top = sub.add_parser(
        "top",
        help="live dashboard of one running experiment (sparklines + "
        "health + ETA)",
        parents=[experiment, transport],
    )
    top.add_argument(
        "--window", type=_positive_int, default=100, metavar="CYCLES",
        help="timeline sampling window in cycles (default: %(default)s)",
    )
    top.add_argument(
        "--refresh", type=int, default=5, metavar="WINDOWS",
        help="redraw every this many windows (default: %(default)s)",
    )
    top.add_argument(
        "--rows", type=int, default=12,
        help="maximum sparkline rows to show (default: %(default)s)",
    )
    top.add_argument(
        "--paths", default=None,
        help="comma-separated registry path patterns to sample "
        "(default: the standard timeline path set)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="run to completion and print one final frame (no ANSI "
        "redraws; for CI and non-interactive use)",
    )
    top.add_argument(
        "--from", dest="from_timeline", default=None,
        metavar="TIMELINE.JSONL",
        help="render an archived timeline instead of running an "
        "experiment (implies --once)",
    )
    top.add_argument(
        "--out", default=None, metavar="TIMELINE.JSONL",
        help="also write the collected timeline archive on exit",
    )
    top.set_defaults(func=_cmd_top)

    faults = sub.add_parser(
        "faults", help="run one fault-injected FSOI experiment",
        parents=[
            experiment,
            _health_flags(" (injected faults should trip them)"),
        ],
    )
    faults.add_argument(
        "--optimized", action="store_true",
        help="enable all §5 optimizations",
    )
    faults.add_argument(
        "--plan", default=None, metavar="PLAN.JSON",
        help="load the FaultPlan from a JSON file (overrides fault flags)",
    )
    faults.add_argument(
        "--kill", action="append", default=[],
        metavar="NODE:LANE[:START[:END]]",
        help="kill a node's transmit lane (lane meta|data; omit END for "
        "a permanent fault); repeatable",
    )
    faults.add_argument(
        "--kill-receiver", action="append", default=[],
        metavar="NODE:LANE:RX[:START[:END]]",
        help="kill one of a node's receivers; traffic is spared onto "
        "the next healthy receiver; repeatable",
    )
    faults.add_argument(
        "--droop", action="append", default=[],
        metavar="DB[:START[:END]]",
        help="thermal VCSEL power droop in dB, mapped to BER through "
        "the optical chain; repeatable",
    )
    faults.add_argument(
        "--droop-node", type=int, default=None,
        help="restrict --droop to one transmitting node (default: all)",
    )
    faults.add_argument(
        "--burst", action="append", default=[],
        metavar="RATE[:START[:END]]",
        help="bit-error burst: per-packet corruption probability over a "
        "window; repeatable",
    )
    faults.add_argument(
        "--drop-confirmations", type=float, default=0.0, metavar="RATE",
        help="drop this fraction of confirmation pulses",
    )
    faults.add_argument(
        "--giveup", type=int, default=None, metavar="RETRIES",
        help="senders abandon a packet after this many retries "
        "(default: retry forever)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the injector's private RNG streams",
    )
    faults.add_argument(
        "--metrics", default=None, metavar="METRICS.{JSON,CSV}",
        help="export the run's metrics-registry snapshot",
    )
    faults.add_argument(
        "--save-plan", default=None, metavar="PLAN.JSON",
        help="write the assembled FaultPlan as JSON and continue",
    )
    faults.set_defaults(func=_cmd_faults, network="fsoi")

    thermal = sub.add_parser("thermal", help="§3.3 cooling-option survey")
    thermal.add_argument("--power", type=float, default=121.0)
    thermal.set_defaults(func=_cmd_thermal)

    return parser


def _cmd_link(args) -> int:
    link = OpticalLink()
    print("Table 1 — optical link parameters")
    for key, value in link.table1().items():
        print(f"  {key:<28} {value:g}")
    print("loss budget (dB):")
    for key, value in link.path.loss_budget().items():
        print(f"  {key:<28} {value:.3f}")
    return 0


def _cmd_config(args) -> int:
    print(table3(args.nodes).render())
    return 0


@contextmanager
def _usage_errors(args):
    """A ``ValueError`` raised while *building* what a command runs —
    spec, plan, config, system — is bad input, not a bug, and so is an
    ``OSError`` reading an input file it names: one line on stderr and
    exit 2, as argparse does for the flags it can check."""
    try:
        yield
    except (ValueError, OSError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _build_system(args, network=None, faults=None) -> CmpSystem:
    """The one place command-line arguments become a ``CmpSystem``,
    closed when the command that built it returns (:func:`main`)."""
    optimizations = (
        OptimizationConfig.all() if args.optimized else OptimizationConfig.none()
    )
    with _usage_errors(args):
        system = CmpSystem(CmpConfig(
            num_nodes=args.nodes,
            app=args.app,
            network=network or args.network,
            optimizations=optimizations,
            faults=faults,
            seed=args.seed,
        ))
    return args.built.enter_context(closing(system))


def _headline(args) -> str:
    return (f"{args.app} on {args.network}, {args.nodes} nodes, "
            f"{args.cycles} cycles")


def _print_health(args, system, timeline) -> int:
    """Run the watchdogs, print their report; 1 if ``--strict-health``
    was asked for and one fired."""
    from repro.obs import check_health, render_health

    events = check_health(system=system, timeline=timeline)
    for line in render_health(events).splitlines():
        print(f"  {line}")
    if args.strict_health and events:
        print(f"repro {args.command}: --strict-health: {len(events)} health "
              "event(s) — failing")
        return 1
    return 0


def _cmd_run(args) -> int:
    system = _build_system(args)
    want_timeline = bool(args.timeline or args.openmetrics)
    want_health = args.health or args.strict_health
    timeline = None
    if want_timeline or want_health:
        # Health's starvation/backoff detectors read the windowed
        # series, so --health collects a timeline even when none is
        # exported.  Collection is non-perturbing (docs/observability.md)
        # — the results below match a plain `repro run` bit for bit.
        from repro.obs import timelining

        with timelining(window=args.timeline_window) as timeline:
            result = system.run(args.cycles)
    else:
        result = system.run(args.cycles)
    print(f"{_headline(args)}:")
    print(f"  instructions  {result.instructions:,}  (IPC {result.ipc:.3f})")
    print(f"  packets       {result.packets_delivered:,} delivered")
    breakdown = result.latency_breakdown
    print("  latency       "
          f"total {breakdown['total']:.2f} = "
          f"queuing {breakdown['queuing']:.2f} + "
          f"scheduling {breakdown['scheduling']:.2f} + "
          f"network {breakdown['network']:.2f} + "
          f"collisions {breakdown['collision_resolution']:.2f}")
    if result.fsoi:
        print(f"  meta lane     p={result.fsoi['meta_tx_probability']:.4f}, "
              f"collisions {100 * result.fsoi['meta_collision_rate']:.2f}%")
        print(f"  data lane     p={result.fsoi['data_tx_probability']:.4f}, "
              f"collisions {100 * result.fsoi['data_collision_rate']:.2f}%")
    if args.timeline:
        windows = timeline.write_jsonl(args.timeline)
        print(f"  timeline      {windows} windows of {args.timeline_window} "
              f"cycles -> {args.timeline}")
    if args.openmetrics:
        samples = timeline.write_openmetrics(args.openmetrics)
        print(f"  openmetrics   {samples} samples -> {args.openmetrics}")
    return _print_health(args, system, timeline) if want_health else 0


def _cmd_compare(args) -> int:
    runs = {}
    for network in ("mesh", "fsoi"):
        runs[network] = _build_system(args, network=network).run(args.cycles)
    model = SystemPowerModel()
    reports = {name: model.report(run) for name, run in runs.items()}
    speedup = runs["fsoi"].speedup_over(runs["mesh"])
    relative = reports["fsoi"].relative_to(reports["mesh"])
    print(f"{args.app}, {args.nodes} nodes, {args.cycles} cycles:")
    print(f"  mesh latency  {runs['mesh'].latency_breakdown['total']:.1f} cycles, "
          f"FSOI {runs['fsoi'].latency_breakdown['total']:.1f}")
    print(f"  speedup       {speedup:.3f}x")
    print(f"  energy        {relative['total']:.3f} of mesh "
          f"(network {relative['network']:.3f})")
    print(f"  power         {reports['mesh'].average_power:.0f} W -> "
          f"{reports['fsoi'].average_power:.0f} W")
    edp = (
        reports["mesh"].energy_delay_product()
        / reports["fsoi"].energy_delay_product()
    )
    print(f"  EDP           {edp:.2f}x better")
    return 0


def _csv(value: str) -> list[str]:
    return [part for part in value.split(",") if part]


def _grid_spec(args, optimizations=("none",)) -> "SweepSpec":
    from repro.sweep import SweepSpec

    with _usage_errors(args):
        return SweepSpec(
            apps=tuple(_csv(args.apps)),
            networks=tuple(_csv(args.networks)),
            nodes=tuple(int(n) for n in _csv(args.nodes)),
            seeds=tuple(int(s) for s in _csv(args.seeds)),
            cycles=args.cycles,
            optimizations=optimizations,
        )


def _run_grid(args, spec, per_point=None, **options) -> "SweepReport":
    """``run_sweep(spec)`` as the grid flags say, under the telemetry
    line; ``per_point(done, total, outcome, telemetry)`` after each point."""
    from repro.analytics import SweepTelemetry
    from repro.sweep import run_sweep

    telemetry = SweepTelemetry(
        total=len(spec.points()), workers=args.workers, live=args.live
    )

    def progress(done, total, outcome):
        telemetry.on_progress(done, total, outcome)
        if per_point is not None:
            per_point(done, total, outcome, telemetry)

    report = run_sweep(
        spec,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        metrics_path=args.metrics_dir,
        timeline_path=args.timeline_dir,
        progress=progress,
        heartbeat=telemetry.on_heartbeat if args.live else None,
        **options,
    )
    telemetry.close()
    return report


def _cmd_sweep(args) -> int:
    import itertools
    import json

    if args.spec:
        from repro.sweep import SweepSpec

        with _usage_errors(args), open(args.spec) as handle:
            spec = SweepSpec.from_dict(json.load(handle))
    else:
        spec = _grid_spec(
            args, ("none", "all") if args.optimized else ("none",)
        )
    points = spec.points()
    print(f"sweep: {len(points)} points, {args.workers} worker(s), "
          f"cache {'off' if args.no_cache else args.cache_dir}")

    def per_point(done, total, outcome, telemetry):
        if not args.live:
            tag = "cache" if outcome.cached else outcome.status
            print(f"  [{done:>{len(str(total))}}/{total}] "
                  f"{outcome.point.label():<28} {tag:<7} "
                  f"(cache {telemetry.from_cache}, "
                  f"failed {telemetry.failed})")

    report = _run_grid(
        args, spec, per_point,
        timeout=args.timeout,
        jsonl_path=args.out,
        timeline_window=args.timeline_window,
    )

    skip = ""
    if report.skipped_cycles:
        skip = (f", fast-forwarded {report.skipped_cycles:,} of "
                f"{report.skipped_cycles + report.executed_cycles:,} cycles "
                f"({100 * report.skip_ratio:.0f}%)")
    print(f"done in {report.wall_seconds:.1f}s: {report.executed} executed, "
          f"{report.from_cache} from cache, {report.failed} failed{skip}")
    if report.ok:
        header = f"  {'point':<28} {'IPC':>8} {'latency':>8}"
        print(header)
        for point, result in report.results():
            print(f"  {point.label():<28} {result.ipc:>8.3f} "
                  f"{result.latency_breakdown['total']:>8.2f}")
    networks = {point.network for point in points}
    if args.baseline in networks:
        # One line per optimization set and fault plan: each pairs its
        # own points with the baseline's.
        for network in sorted(networks - {args.baseline}):
            for opts, plan in itertools.product(
                spec.optimizations, spec.faults
            ):
                try:
                    summary = report.paired_speedups(
                        network, args.baseline, optimizations=opts,
                        faults=plan,
                    )
                except ValueError:
                    continue
                label = [network]
                if opts and opts != "none":
                    label.append(str(opts))
                if not plan.is_empty():
                    label.append(plan.label or "faults")
                print(f"  speedup {'+'.join(label)} vs {args.baseline}: "
                      f"{summary}")
    for outcome in report.outcomes:
        if not outcome.ok:
            print(f"  FAILED {outcome.point.label()}: {outcome.error}")
    if report.jsonl_path:
        print(f"  results: {report.jsonl_path}")
    if args.timeline_dir:
        print(f"  timelines: {args.timeline_dir} "
              f"(window {args.timeline_window} cycles)")
    return 1 if report.failed else 0


def _cmd_report(args) -> int:
    from repro.analytics import ReportBundle, ResultRow, RunStore, validate
    from repro.analytics.validation import RunContext
    from repro.sweep import SweepPoint, load_jsonl
    from repro.util.stats import geometric_mean

    # Both sources come down to JSONL records; only a live sweep knows
    # which of them were cache hits and how long it took.
    sweep_report = None
    if args.from_jsonl:
        with _usage_errors(args):
            records = load_jsonl(args.from_jsonl, strict=False)
        cached = [False] * len(records)
        title = f"repro report — {args.from_jsonl}"
        wall = 0.0
    else:
        spec = _grid_spec(args)
        print(f"report: sweeping {len(spec.points())} points, "
              f"{args.workers} worker(s)")
        sweep_report = _run_grid(args, spec)
        outcomes = sweep_report.outcomes
        records = [outcome.record(i) for i, outcome in enumerate(outcomes)]
        cached = [outcome.cached for outcome in outcomes]
        title = (
            f"repro report — {args.apps} on {args.networks}, "
            f"{args.nodes} nodes, {args.cycles} cycles"
        )
        wall = sweep_report.wall_seconds
    rows = []
    for rec, was_cached in zip(records, cached):
        result = rec.get("result")
        ipc = latency = None
        if result is not None:
            cycles = result.get("cycles", 0)
            ipc = result["instructions"] / cycles if cycles else 0.0
            latency = result["latency_breakdown"]["total"]
        rows.append(ResultRow(
            label=SweepPoint.from_dict(rec["point"]).label(),
            status=rec["status"], cached=was_cached,
            ipc=ipc, latency=latency, error=rec.get("error"),
        ))
    context = RunContext(tuple(
        (rec["point"], rec["result"]) for rec in records
        if rec.get("status") == "ok" and rec.get("result") is not None
    ))

    run_info = diff = None
    if args.ledger:
        with RunStore(args.ledger) as store:
            ingest, source = (
                (store.ingest_jsonl, args.from_jsonl) if sweep_report is None
                else (store.ingest_report, sweep_report)
            )
            run_info = ingest(
                source, label=args.label,
                metrics_dir=args.metrics_dir, timeline_dir=args.timeline_dir,
            )
            if args.diff:
                older = [
                    run for run in store.runs()
                    if run.run_id != run_info.run_id
                ]
                if older:
                    diff = store.diff(older[0].run_id, run_info.run_id)
                else:
                    print("report: --diff requested but the ledger holds "
                          "no other run")

    speedups = {}
    for nodes in sorted({p["num_nodes"] for p, _ in context.pairs}):
        ratios = context.paired_speedups(nodes=nodes)
        if ratios:
            speedups[f"{nodes} nodes"] = geometric_mean(ratios)

    bundle = ReportBundle(
        title=title,
        rows=rows,
        validation=validate(context),
        run_info=run_info,
        diff=diff,
        speedups=speedups,
        wall_seconds=wall,
    )
    print(bundle.to_terminal())
    if args.out:
        bundle.write(args.out)
        print(f"report written to {args.out}")
    failed_points = sum(1 for row in rows if row.status != "ok")
    return 1 if (not bundle.validation.ok or failed_points) else 0


def _trace_summary(tracer) -> str:
    """Per-category / per-name breakdown of the retained events."""
    from collections import Counter

    names: dict[str, Counter] = {}
    lo = hi = None
    for event in tracer.events():
        names.setdefault(event.cat, Counter())[event.name] += 1
        lo = event.cycle if lo is None else min(lo, event.cycle)
        hi = event.cycle if hi is None else max(hi, event.cycle)
    lines = ["trace summary:"]
    if lo is None:
        lines.append("  (no events retained)")
        return "\n".join(lines)
    lines.append(f"  {len(tracer):,} events over cycles {lo:,}..{hi:,} "
                 f"({tracer.emitted:,} emitted, {tracer.dropped:,} dropped)")
    for cat in sorted(names):
        counter = names[cat]
        total = sum(counter.values())
        detail = ", ".join(
            f"{name} {count:,}" for name, count in counter.most_common(4)
        )
        if len(counter) > 4:
            detail += f", +{len(counter) - 4} more"
        lines.append(f"  {cat:<14} {total:>10,}  ({detail})")
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    from contextlib import nullcontext

    from repro.obs import timelining, tracing
    from repro.obs.trace import CATEGORIES

    categories = _csv(args.categories) if args.categories else None
    unknown = sorted(set(categories or ()) - set(CATEGORIES))
    with _usage_errors(args):
        if unknown:
            raise ValueError(f"unknown --categories {','.join(unknown)} "
                             f"(valid: {','.join(CATEGORIES)})")
        if args.node is not None and not 0 <= args.node < args.nodes:
            raise ValueError(f"--node {args.node} out of range "
                             f"[0, {args.nodes}) for --nodes {args.nodes}")
    timeline_ctx = (
        timelining(window=args.timeline_window) if args.timeline
        else nullcontext(None)
    )
    with tracing(capacity=args.buffer, categories=categories) as tracer, \
            timeline_ctx as timeline:
        system = _build_system(args)
        result = system.run(args.cycles)
    filters = {}
    if args.node is not None:
        filters["node"] = args.node
    if args.lane is not None:
        filters["lane"] = args.lane
    counters = timeline.counter_events() if timeline is not None else None
    written = tracer.write_jsonl(args.out, extra=counters, **filters)
    print(f"{_headline(args)}: {result.packets_delivered:,} packets")
    print(f"  trace         {written:,} events -> {args.out} "
          f"({tracer.emitted:,} emitted, {tracer.dropped:,} dropped)")
    for cat, count in tracer.category_counts().items():
        print(f"    {cat:<12} {count:,}")
    if counters is not None:
        print(f"    timeline     {len(counters):,} counter events merged "
              f"(window {args.timeline_window} cycles)")
    if args.chrome:
        tracer.write_chrome_json(args.chrome, extra=counters, **filters)
        print(f"  chrome trace  {args.chrome} (load in chrome://tracing)")
    if args.metrics:
        system.metrics_registry().write(args.metrics)
        print(f"  metrics       {args.metrics}")
    if args.summary:
        for line in _trace_summary(tracer).splitlines():
            print(f"  {line}")
    if tracer.dropped:
        print(f"  warning: ring buffer overflowed — {tracer.dropped:,} of "
              f"{tracer.emitted:,} events dropped; the exported trace is a "
              f"truncated suffix (raise --buffer past {tracer.emitted:,} "
              "or narrow --categories)")
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.obs import profiling

    with profiling() as profiler:
        result = _build_system(args).run(args.cycles)
    if args.json:
        print(json.dumps(
            {
                "app": args.app,
                "network": args.network,
                "num_nodes": args.nodes,
                "cycles": args.cycles,
                "seed": args.seed,
                "ipc": round(result.ipc, 6),
                "packets_delivered": result.packets_delivered,
                "wall_seconds": profiler.wall_seconds,
                "attributed_seconds": profiler.attributed_seconds,
                "total_cycles": profiler.total_cycles,
                "phases": profiler.report(),
            },
            indent=1,
            sort_keys=True,
        ))
        return 0
    print(f"{_headline(args)}: IPC {result.ipc:.3f}, "
          f"{result.packets_delivered:,} packets")
    print(profiler.render())
    return 0


def _fault_fields(flag: str, shape: str, spec: str, *kinds) -> tuple:
    """One ``FIELD[:FIELD...][:START[:END]]`` fault-flag value: the
    leading fields converted by ``kinds``, then the optional window."""
    parts = spec.split(":")
    if len(parts) < len(kinds):
        raise SystemExit(f"repro faults: {flag} wants {shape}, got {spec!r}")
    window = parts[len(kinds):]
    try:
        return (
            *(kind(part) for kind, part in zip(kinds, parts)),
            int(window[0]) if len(window) > 0 and window[0] else 0,
            int(window[1]) if len(window) > 1 and window[1] else None,
        )
    except ValueError as exc:
        raise ValueError(f"bad {flag} value {spec!r}: {exc}") from None


def _faults_plan(args) -> "FaultPlan":
    import json

    from repro.faults import (
        ConfirmationDrop,
        ErrorBurst,
        FaultPlan,
        LaneFault,
        ReceiverFault,
        ThermalDroop,
    )

    if args.plan:
        with open(args.plan) as handle:
            return FaultPlan.from_dict(json.load(handle))

    lane_faults = []
    for spec in args.kill:
        node, lane, start, end = _fault_fields(
            "--kill", "NODE:LANE", spec, int, str
        )
        lane_faults.append(LaneFault(node=node, lane=lane, start=start, end=end))
    receiver_faults = []
    for spec in args.kill_receiver:
        node, lane, receiver, start, end = _fault_fields(
            "--kill-receiver", "NODE:LANE:RX", spec, int, str, int
        )
        receiver_faults.append(ReceiverFault(
            node=node, lane=lane, receiver=receiver, start=start, end=end
        ))
    droops = []
    for spec in args.droop:
        droop_db, start, end = _fault_fields("--droop", "DB", spec, float)
        droops.append(ThermalDroop(
            droop_db=droop_db, node=args.droop_node, start=start, end=end
        ))
    bursts = []
    for spec in args.burst:
        rate, start, end = _fault_fields("--burst", "RATE", spec, float)
        bursts.append(ErrorBurst(rate=rate, start=start, end=end))
    drops = []
    if args.drop_confirmations > 0.0:
        drops.append(ConfirmationDrop(rate=args.drop_confirmations))
    return FaultPlan(
        label="cli",
        lane_faults=tuple(lane_faults),
        receiver_faults=tuple(receiver_faults),
        droops=tuple(droops),
        bursts=tuple(bursts),
        confirmation_drops=tuple(drops),
        giveup_retries=args.giveup,
        seed=args.fault_seed,
    )


def _cmd_faults(args) -> int:
    import json

    with _usage_errors(args):
        plan = _faults_plan(args)
    if plan.is_empty():
        raise SystemExit(
            "repro faults: empty plan — give at least one of --plan, --kill, "
            "--kill-receiver, --droop, --burst, --drop-confirmations, --giveup"
        )
    if args.save_plan:
        with open(args.save_plan, "w") as handle:
            json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"plan saved to {args.save_plan}")

    system = _build_system(args, faults=plan)
    want_health = args.health or args.strict_health
    timeline = None
    if want_health:
        from repro.obs import timelining

        with timelining() as timeline:
            result = system.run(args.cycles)
    else:
        result = system.run(args.cycles)

    print(f"{_headline(args)}, plan {plan.content_hash()}:")
    for line in plan.describe().splitlines():
        print(f"  {line}")
    print(f"  instructions  {result.instructions:,}  (IPC {result.ipc:.3f})")
    print(f"  packets       {result.packets_delivered:,} delivered")
    summary = result.fsoi.get("faults", {})
    print("  resilience    "
          f"suppressed {summary.get('meta', {}).get('suppressed', 0) + summary.get('data', {}).get('suppressed', 0):,}, "
          f"lane-down events {summary.get('lane_down_events', 0):,}, "
          f"remaps {summary.get('receiver_remaps', 0):,}")
    print("                "
          f"injected corrupt {summary.get('meta', {}).get('injected_corrupt', 0) + summary.get('data', {}).get('injected_corrupt', 0):,}, "
          f"confirmations dropped {summary.get('confirmations_dropped', 0):,}, "
          f"duplicates {summary.get('meta', {}).get('duplicate_rx', 0) + summary.get('data', {}).get('duplicate_rx', 0):,}")
    print("                "
          f"gave up {summary.get('gave_up_lost', 0):,} lost "
          f"+ {summary.get('gave_up_delivered', 0):,} already-delivered")
    if args.metrics:
        system.metrics_registry().write(args.metrics)
        print(f"  metrics       {args.metrics}")
    return _print_health(args, system, timeline) if want_health else 0


def _timeline_view(timeline) -> tuple[dict, list, dict]:
    """``(meta, cycles, columns)`` from a live collector or archive dict.

    Accepts both a :class:`repro.obs.TimelineCollector` and the
    ``load_timeline_jsonl`` shape, so one renderer serves the live and
    ``--from`` paths of ``repro top``.
    """
    if isinstance(timeline, dict):
        meta = dict(timeline["meta"])
        cycles = [int(c) for c in timeline["cycles"]]
        rows = timeline["deltas"]
    else:
        meta = timeline.meta_record()
        cycles = [int(c) for c in timeline.cycles()]
        rows = timeline.matrix()
    paths = list(meta.get("paths", ()))
    columns = {
        path: [float(row[i]) for row in rows]
        for i, path in enumerate(paths)
    }
    return meta, cycles, columns


def _render_top_frame(
    timeline,
    events,
    *,
    target_cycles: "int | None" = None,
    elapsed: "float | None" = None,
    rows: int = 12,
) -> str:
    """One ``repro top`` dashboard frame (no trailing newline)."""
    from repro.analytics import format_eta
    from repro.util.charts import sparkline

    meta, cycles, columns = _timeline_view(timeline)
    current = cycles[-1] if cycles else 0
    header = (
        f"repro top — {meta.get('app', '?')} on {meta.get('network', '?')}, "
        f"{meta.get('num_nodes', '?')} nodes, seed {meta.get('seed', '?')} · "
        f"window {meta.get('window', '?')}"
    )
    if target_cycles:
        header += (f" · cycle {current:,}/{target_cycles:,} "
                   f"({100 * current / target_cycles:.0f}%)")
        if elapsed is not None and 0 < current < target_cycles:
            eta = elapsed * (target_cycles - current) / current
            header += f" · eta {format_eta(eta)}"
    health = "OK" if not events else f"{len(events)} event(s)"
    header += f" · health {health}"
    lines = [header]
    if not cycles:
        lines.append("  (no windows sampled yet)")
        return "\n".join(lines)
    totals = {path: sum(values) for path, values in columns.items()}
    # Busiest paths first for the cut, then back to path order so rows
    # don't jump around between frames.
    busiest = set(sorted(columns, key=lambda p: -abs(totals[p]))[:rows])
    shown = [path for path in columns if path in busiest]
    label_width = max((len(path) for path in shown), default=4)
    lines.append(
        f"  {'path':<{label_width}} {'last':>12} {'total':>14}  "
        f"per-window deltas"
    )
    for path in shown:
        values = columns[path]
        lines.append(
            f"  {path:<{label_width}} {values[-1]:>12,.6g} "
            f"{totals[path]:>14,.6g}  {sparkline(values, width=32)}"
        )
    hidden = len(columns) - len(shown)
    if hidden > 0:
        lines.append(f"  (+{hidden} more paths; raise --rows)")
    if meta.get("dropped_windows"):
        lines.append(
            f"  note: {meta['dropped_windows']:,} oldest windows dropped "
            "from the ring (totals above stay exact)"
        )
    if events:
        lines.append("health events:")
        for event in events[-4:]:
            lines.append(
                f"  [{event.severity}] {event.detector} @ cycle "
                f"{event.cycle:,}: {event.message}"
            )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time

    from repro.obs import check_health, timelining
    from repro.obs.timeline import load_timeline_jsonl

    if args.from_timeline:
        with _usage_errors(args):
            timeline = load_timeline_jsonl(args.from_timeline)
        events = check_health(timeline=timeline)
        print(_render_top_frame(timeline, events, rows=args.rows))
        return 0

    system = _build_system(args)
    paths = _csv(args.paths) if args.paths else None
    # Slices stay window-aligned, so the sampled cycles (and any --out
    # archive) are byte-identical to a single uninterrupted run.
    chunk = args.window * max(1, args.refresh)
    started = time.perf_counter()
    events: list = []
    with timelining(window=args.window, paths=paths) as timeline:

        def frame() -> str:
            return _render_top_frame(
                timeline, events,
                target_cycles=args.cycles,
                elapsed=time.perf_counter() - started,
                rows=args.rows,
            )

        try:
            while system.cycle < args.cycles:
                system.run(min(chunk, args.cycles - system.cycle))
                events = check_health(system=system, timeline=timeline)
                if not args.once:
                    sys.stdout.write("\x1b[H\x1b[2J" + frame() + "\n")
                    sys.stdout.flush()
        except KeyboardInterrupt:
            print()
    if args.once:
        print(frame())
    if args.out:
        windows = timeline.write_jsonl(args.out)
        print(f"timeline: {windows} windows -> {args.out}")
    return 0


def _cmd_thermal(args) -> int:
    stack = ThermalStack()
    with _usage_errors(args):
        survey = stack.survey(args.power)
    print(f"cooling survey at {args.power:.0f} W chip power:")
    for option, report in survey.items():
        verdict = "OK" if report.feasible else "EXCEEDS LIMITS"
        print(f"  {option.value:<17} CMOS {report.cmos_junction:6.1f} C  "
              f"VCSEL {report.vcsel_layer:6.1f} C  {verdict}")
    for option in CoolingOption:
        print(f"  {option.value:<17} sustains up to "
              f"{stack.max_power(option):.0f} W")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Whoever builds a system closes it: the systems a command builds
    # are closed after its last read of them, when it returns or raises.
    with ExitStack() as args.built:
        try:
            return args.func(args)
        except BrokenPipeError:  # pragma: no cover - e.g. `repro link | head`
            return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
