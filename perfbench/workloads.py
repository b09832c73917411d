"""The six perfbench workloads.

Each workload has four steps, run once per repetition in a fresh process:

* ``setup(ctx)`` — everything before the first timed call (spec expansion,
  ``CmpSystem`` construction incl. warm-start, offer-schedule generation);
* ``timed(ctx)`` — the timed section with tracing off: only calls into
  ``repro``;
* ``timed_traced(ctx)`` — the same calls wrapped in benchmark-side spans,
  with ``repro.obs.profiling()`` around every ``CmpSystem.run``;
* ``post(ctx)`` — output checks, deterministic counts, and (traced only)
  the per-layer numbers.

Only the API surface listed in README.md is used, so the benchmark keeps
running while engines, flags and observability singletons are reworked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import CmpConfig, CmpSystem, FaultPlan, OpticalLink, OptimizationConfig
from repro.analytics import RunStore
from repro.core.analytical import collision_probability
from repro.faults import ConfirmationDrop, LaneFault, ReceiverFault, ThermalDroop
from repro.net.packet import LaneKind, Packet
from repro.sweep import ResultCache, SweepPoint, SweepSpec, run_sweep

try:
    from repro.obs import profiling
except ImportError:  # phase-derived layer metrics then read null
    profiling = None

from spans import SpanLog, children_of, seconds, self_seconds

__all__ = ["WORKLOADS", "Context", "available_workers"]

NETWORKS = ("mesh", "fsoi", "l0", "lr1", "lr2")
#: Offers are made every two cycles, the FSOI meta slot at default lanes.
OFFER_SLOT = 2
DATA_SHARE = 0.30
#: A leg that is not quiescent this long after its last offer has failed.
DRAIN_CAP = 20_000
SEGMENT = 1000
PHASES = ("calendar", "overflow", "memory", "network", "cores",
          "coherence", "horizon")


def available_workers() -> int:
    """``workers`` for the pooled grid: two, or one on a single CPU."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class Context:
    """What one repetition of one workload is given."""

    seed: int
    scale: float
    traced: bool
    workdir: Path
    log: SpanLog = field(default_factory=SpanLog)

    def cycles(self, full: int, floor: int = 1) -> int:
        return max(floor, int(full / self.scale))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


def op(name: str, why: str | None, result=None) -> dict:
    """One attempted operation; ``why`` is ``None`` when it passed."""
    return {"name": name, "ok": why is None, "why": why,
            "digest": digest(result) if result is not None else None}


def weighted_mean(pairs) -> float:
    """Mean of ``(count, mean)`` pairs."""
    total = sum(count for count, _mean in pairs)
    return sum(count * mean for count, mean in pairs) / total if total else 0.0


# ---------------------------------------------------------------------------
# CMP runs (grids and the faulted legs)
# ---------------------------------------------------------------------------


def profiled_run(system: CmpSystem, cycles: int):
    """``system.run(cycles)`` under the shipped profiler, if there is one."""
    if profiling is None:
        return system.run(cycles), None
    with profiling() as profiler:
        results = system.run(cycles)
    return results, {
        name: row["seconds"] for name, row in profiler.report().items()
    }


def cmp_result_problem(result: dict, cycles: int, clean: bool) -> str | None:
    loop = result["loop"]
    if loop["executed_cycles"] + loop["skipped_cycles"] != cycles:
        return f"executed+skipped != {cycles}: {loop}"
    if result["packets_delivered"] > result["packets_sent"]:
        return "delivered > sent"
    if clean and result.get("health"):
        return f"health event on a clean config: {result['health'][0]}"
    return None


def cmp_counts(results: list[dict]) -> dict:
    def total(group: str, key: str) -> int:
        return sum(result[group][key] for result in results)

    return {
        "cmp.count.executed_cycles": total("loop", "executed_cycles"),
        "cmp.count.skipped_cycles": total("loop", "skipped_cycles"),
        "cpu.count.instructions": sum(r["instructions"] for r in results),
        "coherence.count.messages": sum(r["packets_delivered"] for r in results),
        "coherence.count.dir_requests": total("directory", "requests"),
    }


def cmp_layers(runs: list[dict], counts: dict) -> dict:
    """Per-layer host time of the CMP runs of one traced repetition.

    ``runs`` holds, per system, its network kind, the construct / run /
    to_dict span durations, the profiler's phase seconds and the result.
    Without a profiler the phase-derived metrics are left out (null).
    """
    results = [run["result"] for run in runs]

    def on(*kinds: str) -> list[dict]:
        return [run for run in runs if run["network"] in kinds]

    def phase_s(name: str, picked=runs) -> float:
        return sum(run["phases"].get(name, 0.0) for run in picked)

    def per_cycle(seconds: float, picked=runs) -> float:
        """Microseconds per simulated cycle of the ``picked`` runs."""
        cycles = sum(run["result"]["cycles"] for run in picked)
        return 1e6 * seconds / cycles if cycles else 0.0

    def total(group: str, key: str) -> int:
        return sum(result[group][key] for result in results)

    core_cycles = [total("core_cycles", key) for key in ("busy", "stall", "sync")]
    retries = (total("l1", "retries") + total("directory", "nacks_sent")
               + total("directory", "queued"))
    cycles = sum(result["cycles"] for result in results)
    layers = {
        "cmp.construct_ms": 1e3 * statistics.median(r["construct_s"] for r in runs),
        "cmp.to_dict_ms": 1e3 * statistics.median(r["to_dict_s"] for r in runs),
        "cmp.skip_ratio": counts["cmp.count.skipped_cycles"] / cycles,
        "cpu.stall_share": core_cycles[1] / sum(core_cycles),
        "coherence.retry_share": retries / counts["coherence.count.dir_requests"],
    }
    if any(run["phases"] is None for run in runs):
        return layers
    attributed = sum(phase_s(name) for name in PHASES)
    ideal = on("l0", "lr1", "lr2")
    return layers | {
        "cmp.run_self_us_per_cycle":
            per_cycle(sum(run["run_s"] for run in runs) - attributed),
        "cmp.calendar_us_per_cycle": per_cycle(phase_s("calendar")),
        "cmp.horizon_us_per_cycle": per_cycle(phase_s("horizon")),
        "cmp.overflow_us_per_cycle": per_cycle(phase_s("overflow")),
        "cpu.cores_us_per_cycle": per_cycle(phase_s("cores")),
        "cpu.memory_us_per_cycle": per_cycle(phase_s("memory")),
        "cpu.us_per_kinstr":
            1e9 * phase_s("cores") / counts["cpu.count.instructions"],
        "coherence.us_per_cycle": per_cycle(phase_s("coherence")),
        "coherence.us_per_cycle.l0":
            per_cycle(phase_s("coherence", on("l0")), on("l0")),
        "coherence.us_per_message":
            1e6 * phase_s("coherence") / counts["coherence.count.messages"],
        "core.phase_us_per_cycle":
            per_cycle(phase_s("network", on("fsoi")), on("fsoi")),
        "mesh.phase_us_per_cycle":
            per_cycle(phase_s("network", on("mesh")), on("mesh")),
        "mesh.ideal_phase_us_per_cycle":
            per_cycle(phase_s("network", ideal), ideal),
    }


def traced_execute(point: dict, span_dir: str) -> dict:
    """The ``execute=`` payload of a traced sweep.

    Builds the system the way ``repro.sweep.execute_point`` does for a grid
    point (the result digests are compared with the untraced passes), and
    appends its span timings to a per-pid file: pool workers cannot reach
    the parent's span log, so the parent merges these files afterwards.
    """
    start = perf_counter()
    system = CmpSystem(SweepPoint.from_dict(point).to_config())
    built = perf_counter()
    results, phases = profiled_run(system, point["cycles"])
    ran = perf_counter()
    result = results.to_dict()
    end = perf_counter()
    line = {"pid": os.getpid(), "network": point["network"],
            "label": f"{point['app']}/{point['network']}",
            "stamps": [start, built, ran, end], "phases": phases}
    with open(Path(span_dir) / f"{os.getpid()}.jsonl", "a") as handle:
        handle.write(json.dumps(line) + "\n")
    return result


class SpannedCache(ResultCache):
    """A ``ResultCache`` whose ``get`` / ``put`` calls are recorded as spans."""

    def __init__(self, root, log: SpanLog):
        super().__init__(root)
        self._log = log

    def get(self, point):
        with self._log.span("cache.get"):
            return super().get(point)

    def put(self, point, result, elapsed=0.0):
        with self._log.span("cache.put"):
            return super().put(point, result, elapsed)


class Grid:
    """A Fig 6 / Fig 7 grid regenerated cold through ``run_sweep``."""

    def __init__(self, name, apps, nodes, cycles, pooled, paper):
        self.name = name
        self.apps = apps
        self.nodes = nodes
        self.full_cycles = cycles
        self.pooled = pooled
        self.paper = paper  # Fig 6b / 7b geometric-mean speedups over mesh

    def setup(self, ctx: Context) -> None:
        self.cycles = ctx.cycles(self.full_cycles)
        self.spec = SweepSpec(
            apps=self.apps, networks=NETWORKS, nodes=(self.nodes,),
            seeds=(ctx.seed,), cycles=self.cycles,
        )
        self.points = len(self.spec)
        self.workers = available_workers() if self.pooled else 1
        self.cache_dir = ctx.workdir / "cache"
        self.jsonl = ctx.workdir / "grid.jsonl"
        self.span_dir = ctx.workdir / "spans"
        self.span_dir.mkdir()

    def timed(self, ctx: Context) -> None:
        self.report = run_sweep(
            self.spec, workers=self.workers, cache_dir=self.cache_dir,
            jsonl_path=self.jsonl,
        )

    def timed_traced(self, ctx: Context) -> None:
        cache = SpannedCache(self.cache_dir, ctx.log)
        with ctx.log.span("run_sweep", workers=self.workers) as span:
            self.report = run_sweep(
                self.spec, workers=self.workers, cache=cache,
                jsonl_path=self.jsonl,
                execute=partial(traced_execute, span_dir=str(self.span_dir)),
            )
        self.sweep_span = span

    def post(self, ctx: Context) -> dict:
        outcomes = self.report.outcomes
        ops = [
            op(o.point.label(),
               o.error if not o.ok
               else cmp_result_problem(o.result, self.cycles, clean=True),
               o.result)
            for o in outcomes
        ]
        cold = [entry["digest"] for entry in ops]

        replays, replay_s = [], []
        for _ in range(5 if ctx.traced else 1):
            with ctx.log.span("warm_replay") as span:
                replays.append(run_sweep(
                    self.spec, workers=1, cache_dir=self.cache_dir
                ))
            replay_s.append(seconds(span))
        hits = min(replay.from_cache for replay in replays)
        warm = [digest(o.result) for o in replays[-1].outcomes]
        ops.append(op(
            "check:cache_replay",
            None if hits == self.points and warm == cold
            else f"{hits}/{self.points} hits, digests equal: {warm == cold}",
        ))

        results = [o.result for o in outcomes if o.ok]
        out = {
            "sim_cycles": self.report.executed_cycles + self.report.skipped_cycles,
            "ops": ops,
            "model_err": self.model_err() if len(results) == self.points else None,
            "counts": cmp_counts(results),
            "layers": {}, "samples": {},
        }
        if ctx.traced:
            self.traced_post(ctx, out, replays[-1], replay_s, hits)
        return out

    def model_err(self) -> float:
        """Mean relative error of the gmean speedups against the paper."""
        ipc = {
            (o.point.app, o.point.network):
                o.result["instructions"] / o.result["cycles"]
            for o in self.report.outcomes
        }
        errors = []
        for network, paper in self.paper.items():
            logs = [
                math.log(ipc[app, network] / ipc[app, "mesh"])
                for app in self.apps
            ]
            gmean = math.exp(sum(logs) / len(logs))
            errors.append(abs(gmean - paper) / paper)
        return sum(errors) / len(errors)

    def traced_post(self, ctx, out, replay, replay_s, hits) -> None:
        log = ctx.log
        runs, execute_s = [], []
        by_label = {o.point.label().rsplit("/", 2)[0]: o.result
                    for o in self.report.outcomes if o.ok}
        for path in sorted(self.span_dir.glob("*.jsonl")):
            for text in path.read_text().splitlines():
                line = json.loads(text)
                if line["label"] not in by_label:
                    continue  # the point failed after it ran; already an op
                start, built, ran, end = line["stamps"]
                parent = log.add(
                    "execute", start, end, parent=self.sweep_span["id"],
                    pid=line["pid"], point=line["label"],
                )["id"]
                log.add("CmpSystem", start, built, parent=parent)
                log.add("run", built, ran, parent=parent, phases=line["phases"])
                log.add("to_dict", ran, end, parent=parent)
                execute_s.append(end - start)
                runs.append({
                    "network": line["network"], "construct_s": built - start,
                    "run_s": ran - built, "to_dict_s": end - ran,
                    "phases": line["phases"], "result": by_label[line["label"]],
                })

        with RunStore(ctx.workdir / "ledger.sqlite") as store:
            with log.span("ledger.ingest") as ingest:
                store.ingest_report(self.report, run_id="cold")
            store.ingest_report(replay, run_id="warm")
            with log.span("ledger.select") as select:
                rows = store.select("cold", network="fsoi")
            with log.span("ledger.diff") as diff_span:
                diff = store.diff("cold", "warm")
        moved = diff.changed()
        out["ops"].append(op(
            "check:ledger",
            None if len(rows) == len(self.apps) and not moved
            else f"{len(rows)} fsoi rows, {len(moved)} metrics moved",
        ))

        def named(name: str) -> list[float]:
            return [seconds(span) for span in log.spans if span["name"] == name]

        runner_self = self_seconds(
            self.sweep_span, children_of(log.spans)[self.sweep_span["id"]]
        )
        out["layers"] = cmp_layers(runs, out["counts"]) | {
            "sweep.runner_self_ms_per_point": 1e3 * runner_self / self.points,
            "sweep.cache_put_ms": 1e3 * statistics.median(named("cache.put")),
            "sweep.cache_get_ms": 1e3 * statistics.median(named("cache.get")),
            "sweep.warm_replay_ms": 1e3 * statistics.median(replay_s),
            "sweep.cache_hit_ratio": hits / self.points,
            "sweep.pool_efficiency": (
                sum(execute_s) / (self.workers * seconds(self.sweep_span))
                if self.pooled else None
            ),
            "analytics.ledger_ingest_ms_per_point": 1e3 * seconds(ingest) / self.points,
            "analytics.ledger_select_ms": 1e3 * seconds(select),
            "analytics.ledger_diff_ms": 1e3 * seconds(diff_span),
        }
        out["samples"]["sweep.point_ms_p{q}"] = [1e3 * s for s in execute_s]


class Faulted:
    """Six long 16-node FSOI runs under a fault plan, with and without §5."""

    name = "faulted16"
    apps = ("oc", "mp", "ro")
    full_cycles = 10_000

    def setup(self, ctx: Context) -> None:
        self.cycles = cycles = ctx.cycles(self.full_cycles)
        # The fault windows keep their place within the run as it scales.
        plan = FaultPlan(
            label="perfbench",
            lane_faults=(LaneFault(node=3, lane="meta", start=cycles // 8,
                                   end=max(cycles * 3 // 8, cycles // 8 + 1)),),
            receiver_faults=(ReceiverFault(node=5, lane="data", receiver=0,
                                           start=cycles // 20),),
            droops=(ThermalDroop(droop_db=1.5),),
            confirmation_drops=(ConfirmationDrop(rate=0.01),),
            seed=ctx.seed,
        )
        self.legs = []
        designs = (("base", OptimizationConfig.none()),
                   ("opt", OptimizationConfig.all()))
        for design, optimizations in designs:
            for app in self.apps:
                label = f"{app}/{design}"
                with ctx.log.span("CmpSystem", leg=label) as span:
                    system = CmpSystem(CmpConfig(
                        num_nodes=16, app=app, network="fsoi", seed=ctx.seed,
                        faults=plan, optimizations=optimizations,
                    ))
                self.legs.append({"label": label, "system": system,
                                  "construct_s": seconds(span)})

    def timed(self, ctx: Context) -> None:
        for leg in self.legs:
            leg["result"] = leg["system"].run(self.cycles).to_dict()

    def timed_traced(self, ctx: Context) -> None:
        log = ctx.log
        for leg in self.legs:
            with log.span("leg", leg=leg["label"]):
                with log.span("run") as run:
                    results, leg["phases"] = profiled_run(leg["system"], self.cycles)
                run["phases"] = leg["phases"]
                with log.span("to_dict") as to_dict:
                    leg["result"] = results.to_dict()
            leg["run_s"], leg["to_dict_s"] = seconds(run), seconds(to_dict)

    def post(self, ctx: Context) -> dict:
        results = [leg["result"] for leg in self.legs]
        ops = [
            op(leg["label"],
               cmp_result_problem(leg["result"], self.cycles, clean=False),
               leg["result"])
            for leg in self.legs
        ]
        faults = [result["fsoi"]["faults"] for result in results]

        def lanes(key: str) -> int:
            return sum(f[lane][key] for f in faults for lane in ("meta", "data"))

        counts = cmp_counts(results) | {
            "faults.count.injected": lanes("fault_lost") + lanes("injected_corrupt")
            + sum(f["confirm_dropped"] for f in faults),
            "faults.count.suppressed": lanes("suppressed"),
            "faults.count.duplicate_rx": lanes("duplicate_rx"),
            "faults.count.receiver_remaps": sum(f["receiver_remaps"] for f in faults),
        }
        idle = [name for name, value in counts.items()
                if name.startswith("faults.") and value == 0]
        ops.append(op("check:fault_counters",
                      f"fault path not exercised: {idle}" if idle else None))
        layers = {}
        if ctx.traced:
            layers = cmp_layers(
                [leg | {"network": "fsoi"} for leg in self.legs], counts
            )
        return {"sim_cycles": self.cycles * len(self.legs), "ops": ops,
                "model_err": None, "counts": counts, "layers": layers,
                "samples": {}}


# ---------------------------------------------------------------------------
# Bare channels
# ---------------------------------------------------------------------------


def uniform_offers(rng, n: int, cycles: int, p: float):
    """Bernoulli(p) offers per node per offer slot to a uniform random peer."""
    slots = -(-cycles // OFFER_SLOT)
    slot, src = np.nonzero(rng.random((slots, n)) < p)
    dst = rng.integers(0, n - 1, len(src))
    dst += dst >= src
    return slot * OFFER_SLOT, src, dst, rng.random(len(src)) < DATA_SHARE


def incast_offers(rng, n: int, cycles: int, period: int, fan: int):
    """Every ``period`` cycles ``fan`` distinct senders target one receiver,
    over a 2 % uniform background."""
    columns = [uniform_offers(rng, n, cycles, 0.02)]
    for cycle in range(period, cycles, period):
        receiver = int(rng.integers(n))
        senders = rng.choice(n - 1, size=fan, replace=False)
        senders += senders >= receiver
        columns.append((
            np.full(fan, cycle), senders, np.full(fan, receiver),
            rng.random(fan) < DATA_SHARE,
        ))
    merged = [np.concatenate(parts) for parts in zip(*columns)]
    order = np.argsort(merged[0], kind="stable")
    return tuple(column[order] for column in merged)


@dataclass(frozen=True)
class LegSpec:
    """One channel leg: size, length, and its offer pattern."""

    nodes: int
    full_cycles: int
    period: int = 0  # 0 = uniform Bernoulli offers, else incast bursts
    fan: int = 0

    @property
    def label(self) -> str:
        pattern = f"incast{self.period}x{self.fan}" if self.period else "uniform"
        return f"n{self.nodes}/{pattern}"

    def offers(self, rng, cycles: int):
        if self.period:
            return incast_offers(rng, self.nodes, cycles, self.period, self.fan)
        return uniform_offers(rng, self.nodes, cycles, 0.10)


class Channel:
    """A bare interconnect driven by a pre-generated offer schedule.

    The channel is the one ``CmpSystem`` builds for ``kind``, so the legs
    measure whichever engine the product selects; every node's delivery
    callback is re-pointed at a counting sink and the system is never
    ticked, so cores, coherence and memory do nothing.
    """

    def __init__(self, name, kind, legs, collision_band=None):
        self.name = name
        self.kind = kind
        self.prefix = "core" if kind == "fsoi" else "mesh"
        self.leg_specs = legs
        self.collision_band = collision_band  # (low, high) per-leg check

    def setup(self, ctx: Context) -> None:
        self.legs = []
        construct_s = packets = 0
        for index, spec in enumerate(self.leg_specs):
            # At least four bursts, however far the run is scaled down.
            cycles = ctx.cycles(spec.full_cycles, floor=max(10, 4 * spec.period))
            with ctx.log.span("CmpSystem", leg=spec.label):
                net = CmpSystem(CmpConfig(
                    network=self.kind, num_nodes=spec.nodes, seed=ctx.seed
                )).network
            sink = [0]

            def count(packet, sink=sink):
                sink[0] += 1

            for node in range(spec.nodes):
                net.set_delivery_callback(node, count)

            rng = np.random.default_rng([ctx.seed, index])
            columns = [column.tolist() for column in spec.offers(rng, cycles)]
            schedule: list = [None] * cycles
            meta, data = LaneKind.META, LaneKind.DATA
            with ctx.log.span("schedule", leg=spec.label) as span:
                for cycle, src, dst, is_data in zip(*columns):
                    packet = Packet(src=src, dst=dst, lane=data if is_data else meta)
                    if schedule[cycle] is None:
                        schedule[cycle] = [packet]
                    else:
                        schedule[cycle].append(packet)
            construct_s += seconds(span)
            packets += len(columns[0])
            self.legs.append({"spec": spec, "net": net, "sink": sink,
                              "schedule": schedule, "cycles": cycles,
                              "offered": len(columns[0])})
        self.packet_construct_us = 1e6 * construct_s / packets

    def timed(self, ctx: Context) -> None:
        for leg in self.legs:
            net, schedule = leg["net"], leg["schedule"]
            try_send, tick, quiescent = net.try_send, net.tick, net.quiescent
            for cycle in range(leg["cycles"]):
                batch = schedule[cycle]
                if batch is not None:
                    for packet in batch:
                        try_send(packet, cycle)
                tick(cycle)
            cycle = leg["cycles"]
            limit = cycle + DRAIN_CAP
            while cycle < limit and not quiescent():
                tick(cycle)
                cycle += 1
            leg["end_cycle"] = cycle

    def timed_traced(self, ctx: Context) -> None:
        log, clock = ctx.log, perf_counter
        for leg in self.legs:
            net, schedule = leg["net"], leg["schedule"]
            try_send, tick, quiescent = net.try_send, net.tick, net.quiescent
            cycles = leg["cycles"]
            # One span per 1000-cycle segment; the per-call try_send / tick
            # timings are folded into sums on it (a span per call would
            # outweigh the calls and the result file).
            with log.span("leg", leg=leg["spec"].label, nodes=leg["spec"].nodes):
                for first in range(0, cycles, SEGMENT):
                    tick_s = send_s = 0.0
                    sends = 0
                    last = min(first + SEGMENT, cycles)
                    opened = clock()
                    for cycle in range(first, last):
                        batch = schedule[cycle]
                        if batch is not None:
                            for packet in batch:
                                t0 = clock()
                                try_send(packet, cycle)
                                send_s += clock() - t0
                            sends += len(batch)
                        t0 = clock()
                        tick(cycle)
                        tick_s += clock() - t0
                    log.add("segment", opened, clock(), tick_s=tick_s,
                            try_send_s=send_s, ticks=last - first, sends=sends)
                tick_s = 0.0
                cycle = cycles
                limit = cycle + DRAIN_CAP
                opened = clock()
                while cycle < limit and not quiescent():
                    t0 = clock()
                    tick(cycle)
                    tick_s += clock() - t0
                    cycle += 1
                log.add("drain", opened, clock(), tick_s=tick_s, try_send_s=0.0,
                        ticks=cycle - cycles, sends=0)
            leg["end_cycle"] = cycle

    def post(self, ctx: Context) -> dict:
        ops, errors = [], []
        tallies = {"delivered": 0, "refused": 0, "transmissions": 0,
                   "collisions": 0}
        resolution, latency = [], []
        for leg in self.legs:
            net, spec = leg["net"], leg["spec"]
            stats = net.stats.group.as_dict()
            sent, delivered = stats["packets_sent"], stats["packets_delivered"]
            why = None
            if not net.quiescent():
                why = f"not quiescent {DRAIN_CAP} cycles after the last offer"
            elif not leg["sink"][0] == delivered == sent:
                why = (f"sink {leg['sink'][0]}, delivered {delivered}, "
                       f"sent {sent} after the drain")
            elif sent + stats["send_refused"] != leg["offered"]:
                why = "sent + refused != offered"
            tallies["delivered"] += delivered
            tallies["refused"] += stats["send_refused"]
            latency.append((delivered, stats["total_delay"]["mean"]))
            if self.kind == "fsoi":
                lanes = [stats["meta"], stats["data"]]
                tx = sum(lane["transmissions"] for lane in lanes)
                tallies["transmissions"] += tx
                tallies["collisions"] += sum(
                    lane["collision_events"] for lane in lanes
                )
                resolution += [
                    (lane["resolution_among_collided"]["count"],
                     lane["resolution_among_collided"]["mean"]) for lane in lanes
                ]
                rate = sum(lane["collided_transmissions"] for lane in lanes) / tx
                low, high = self.collision_band
                if why is None and not low <= rate <= high:
                    why = f"collision rate {rate:.3f} outside [{low}, {high}]"
                if not spec.period:
                    predicted = collision_probability(
                        net.transmission_probability(LaneKind.META),
                        spec.nodes, net.lanes.receivers(LaneKind.META),
                    )
                    measured = net.collision_events_per_node_slot(LaneKind.META)
                    errors.append(abs(measured - predicted) / predicted)
            ops.append(op(spec.label, why, [stats, leg["end_cycle"]]))

        p = self.prefix
        counts = {f"{p}.count.delivered": tallies["delivered"],
                  f"{p}.count.refused": tallies["refused"]}
        if self.kind == "fsoi":
            counts[f"{p}.count.transmissions"] = tallies["transmissions"]
            counts[f"{p}.count.collisions"] = tallies["collisions"]
        out = {
            "sim_cycles": sum(leg["end_cycle"] for leg in self.legs),
            "ops": ops,
            "model_err": sum(errors) / len(errors) if errors else None,
            "counts": counts, "layers": {}, "samples": {},
        }
        if ctx.traced:
            self.traced_post(ctx, out, tallies, resolution, latency)
        return out

    def traced_post(self, ctx, out, tallies, resolution, latency) -> None:
        p = self.prefix
        legs = {s["id"]: s for s in ctx.log.spans if s["name"] == "leg"}
        parts = [s for s in ctx.log.spans if s["name"] in ("segment", "drain")]
        layers = {}
        for nodes in sorted({leg["nodes"] for leg in legs.values()}):
            mine = [s for s in parts if legs[s["parent"]]["nodes"] == nodes]
            layers[f"{p}.tick_us.n{nodes}"] = (
                1e6 * sum(s["tick_s"] for s in mine) / sum(s["ticks"] for s in mine)
            )
        layers[f"{p}.try_send_us"] = (
            1e6 * sum(s["try_send_s"] for s in parts) / sum(s["sends"] for s in parts)
        )
        layers[f"{p}.us_per_packet"] = (
            1e6 * sum(seconds(s) for s in legs.values())
            / tallies["delivered"]
        )
        layers["net.packet_construct_us"] = self.packet_construct_us
        if self.kind == "fsoi":
            layers["core.useful_ratio"] = (
                tallies["delivered"] / tallies["transmissions"]
            )
            layers["core.mean_resolution_cycles"] = weighted_mean(resolution)
            out["samples"]["core.segment_ms_p{q}.n64"] = [
                1e3 * seconds(s) for s in parts
                if s["name"] == "segment" and s["ticks"] == SEGMENT
                and legs[s["parent"]]["nodes"] == 64
            ]
        else:
            layers["mesh.mean_latency_cycles"] = weighted_mean(latency)
        if self.name == "fsoi_uniform":
            layers |= closed_form_probes(ctx.log)
        out["layers"] = layers


def closed_form_probes(log: SpanLog) -> dict:
    """Host time of the closed-form layers nothing else here exercises."""
    calls = 200
    with log.span("optics.link_budget") as span:
        for _ in range(calls):
            OpticalLink().ber()
    link_us = 1e6 * seconds(span) / calls
    grid = [(p / 100, nodes) for nodes in (16, 64) for p in range(1, 51)]
    with log.span("core.analytical") as span:
        for p, nodes in grid:
            collision_probability(p, nodes, 2)
    return {"optics.link_budget_us": link_us,
            "core.analytical_us": 1e6 * seconds(span) / len(grid)}


FIG6_PAPER = {"fsoi": 1.36, "l0": 1.43, "lr1": 1.32, "lr2": 1.22}
FIG7_PAPER = {"fsoi": 1.75, "l0": 1.91, "lr1": 1.55, "lr2": 1.29}

WORKLOADS = {
    w.name: w for w in (
        Grid("fig6_grid16", ("ba", "lu", "oc", "ro", "rx", "ws", "em", "mp"),
             nodes=16, cycles=2000, pooled=False, paper=FIG6_PAPER),
        Grid("fig7_grid64", ("ba", "lu", "oc", "ro", "rx"),
             nodes=64, cycles=1000, pooled=True, paper=FIG7_PAPER),
        Faulted(),
        Channel("fsoi_uniform", "fsoi",
                (LegSpec(16, 50_000), LegSpec(64, 20_000), LegSpec(256, 4_500)),
                collision_band=(0.0, 0.1)),
        Channel("fsoi_incast", "fsoi",
                (LegSpec(16, 40_000, 100, 8), LegSpec(64, 20_000, 200, 16),
                 LegSpec(64, 20_000, 400, 63), LegSpec(256, 4_000, 400, 64)),
                collision_band=(0.2, 1.0)),
        Channel("mesh_channel", "mesh",
                (LegSpec(16, 15_000), LegSpec(64, 2_500), LegSpec(256, 300),
                 LegSpec(16, 15_000, 100, 8), LegSpec(64, 5_000, 200, 16))),
    )
}
