"""Table 3 — system configuration.

Prints the evaluated systems' full configuration (the reproduction's
analogue of Table 3) and benchmarks CMP construction cost.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.cmp import CmpConfig, CmpSystem
from repro.config import table3


def test_table3_configuration(benchmark):
    built = []

    def build():
        system = CmpSystem(CmpConfig(num_nodes=16, app="ba", network="fsoi"))
        built.append(system)
        return system

    try:
        system = benchmark.pedantic(build, rounds=3, iterations=1)
        for nodes in (16, 64):
            print(f"\n=== Table 3: system configuration ({nodes} nodes) ===")
            print(table3(nodes).render())
        assert len(system.cores) == 16
        assert len(system.memory) == 4
    finally:
        for system in built:
            system.close()


def test_table3_vcsel_budget(benchmark):
    config = table3(16)
    total = benchmark(
        lambda: config.lanes.total_vcsels_per_node(16, dedicated=True) * 16
    )
    print(
        f"\ndedicated 16-node transmit VCSELs: {total} "
        "(paper: 'approximately 2000', ~5 mm^2 at 30 um spacing)"
    )
    area_mm2 = total * (30e-3) ** 2  # 30 um pitch in mm
    print(f"implied array area: {area_mm2:.1f} mm^2")
    assert 1500 < total < 3000
