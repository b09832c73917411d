"""The paper's contribution: the free-space optical interconnect (FSOI).

Subpackage map (paper section in parentheses):

* :mod:`repro.core.link` — the single-bit optical link: device chain,
  link budget, BER, power (§4.2, Table 1, Figure 2).
* :mod:`repro.core.lanes` — lane widths and slotting (§4.3.2, Table 3),
  and the phase array's re-steering cost (§4.1).
* :mod:`repro.core.layout` — the Figure 1c chip floorplan: per-pair hop
  geometry, link closure across the die, skew padding, mirror budget.
* :mod:`repro.core.backoff` — exponential back-off retransmission
  (§4.3.2, Figure 4).
* :mod:`repro.core.analytical` — the paper's closed-form / numerical
  models: collision probability (Fig. 3), collision-resolution delay
  (Fig. 4), optimal meta/data bandwidth split (B_M = 0.285).
* :mod:`repro.core.network` — the cycle-level FSOI network simulator
  implementing :class:`repro.net.Interconnect`, with its collision-free
  confirmation lane and the §5.1 one-bit signals (§4.3.2, §5.1).
* :mod:`repro.core.optimizations` — the §5 optimization switches and
  receiver-side machinery (request spacing, resolution hints).
"""

from repro.core.analytical import (
    bandwidth_constants,
    collision_probability,
    monte_carlo_collision_probability,
    optimal_meta_bandwidth,
    pathological_expected_retries,
    resolution_delay,
)
from repro.core.backoff import BackoffPolicy
from repro.core.clocking import ClockDistribution
from repro.core.lanes import LaneConfig
from repro.core.layout import ChipLayout
from repro.core.link import LinkPower, OpticalLink
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.core.queueing import (
    aloha_throughput,
    lane_goodput,
    lane_queuing_delay,
    lane_success_probability,
    saturation_load,
)

__all__ = [
    "bandwidth_constants",
    "collision_probability",
    "monte_carlo_collision_probability",
    "optimal_meta_bandwidth",
    "pathological_expected_retries",
    "resolution_delay",
    "BackoffPolicy",
    "ClockDistribution",
    "LaneConfig",
    "ChipLayout",
    "LinkPower",
    "OpticalLink",
    "FsoiConfig",
    "FsoiNetwork",
    "OptimizationConfig",
    "aloha_throughput",
    "lane_goodput",
    "lane_queuing_delay",
    "lane_success_probability",
    "saturation_load",
]
