"""Table 4 — off-chip memory bandwidth sensitivity, plus the §7.1 L1 note.

Reruns the 16-node speedup comparison at 8.8 GB/s and 52.8 GB/s memory
channels (the paper's two columns), and the L1-size sensitivity (32 KB
L1 -> avg miss 3.0% instead of 4.8% -> slightly lower FSOI speedup).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from helpers import bench_apps, bench_cycles, print_table, run_cached

from repro.cmp import run_app
from repro.util.stats import geometric_mean
from repro.workloads import signature

PAPER = {
    (16, 8.8, "fsoi"): 1.32, (16, 52.8, "fsoi"): 1.36,
    (16, 8.8, "l0"): 1.37, (16, 52.8, "l0"): 1.43,
}


def gmean_speedup(net, gbps, apps, nodes=16):
    speedups = []
    for app in apps:
        base = run_cached(app, "mesh", nodes, bench_cycles(), memory_gbps=gbps)
        run = run_cached(app, net, nodes, bench_cycles(), memory_gbps=gbps)
        speedups.append(run.ipc / base.ipc)
    return geometric_mean(speedups)


def test_table4_memory_bandwidth(benchmark):
    apps = bench_apps(limit=6)

    def sweep():
        return {
            (net, gbps): gmean_speedup(net, gbps, apps)
            for net in ("fsoi", "l0")
            for gbps in (8.8, 52.8)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [net, results[(net, 8.8)], PAPER[(16, 8.8, net)],
         results[(net, 52.8)], PAPER[(16, 52.8, net)]]
        for net in ("fsoi", "l0")
    ]
    print_table(
        "Table 4: 16-node speedup vs memory bandwidth",
        ["network", "8.8 GB/s", "(paper)", "52.8 GB/s", "(paper)"],
        rows,
        note="Higher memory bandwidth exposes more interconnect benefit.",
    )
    for net in ("fsoi", "l0"):
        assert results[(net, 52.8)] >= results[(net, 8.8)] * 0.97
        assert results[(net, 8.8)] > 1.0


def test_l1_size_sensitivity(benchmark):
    # §7.1: a 32 KB L1 lowers miss rates (avg 4.8% -> 3.0%) and the FSOI
    # speedup from 1.36 to 1.27.  Our signatures encode miss behaviour,
    # so the larger cache enters as a miss-scale (see DESIGN.md).
    apps = bench_apps(limit=4)
    scale = 3.0 / 4.8

    def sweep():
        out = {}
        for label in ("8KB", "32KB"):
            speedups = []
            for app in apps:
                sig = signature(app)
                if label == "32KB":
                    sig = sig.with_miss_scale(scale)
                runs = {
                    net: run_app(sig, net, 16, bench_cycles(), seed=0)
                    for net in ("mesh", "fsoi")
                }
                speedups.append(runs["fsoi"].ipc / runs["mesh"].ipc)
            out[label] = geometric_mean(speedups)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "§7.1: L1 size sensitivity (FSOI speedup over mesh)",
        ["L1", "speedup", "paper"],
        [["8 KB", results["8KB"], 1.36], ["32 KB", results["32KB"], 1.27]],
    )
    assert results["32KB"] < results["8KB"]
    assert results["32KB"] > 1.0
