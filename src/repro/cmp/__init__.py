"""The full chip-multiprocessor simulator.

Wires cores, L1 controllers, directory slices, memory controllers and
any of the interconnect models into one system (Table 3's
configuration), runs a workload, and produces the measurements behind
Figures 5–11 and Tables 3–4.
"""

from repro.cmp.results import CmpResults
from repro.cmp.system import CmpConfig, CmpSystem, run_app

__all__ = [
    "CmpConfig",
    "CmpSystem",
    "CmpResults",
    "run_app",
]
