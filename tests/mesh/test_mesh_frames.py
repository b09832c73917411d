"""A mesh flit or packet opens no Python frame of its own.

``MeshNetwork.tick`` moves the fronts due into their routers' ready
sets, injects, ejects and delivers in place, and calls
:meth:`Router.switch` once per router with a ready front.  This pin
drives a bare 16-node mesh on a fixed uniform schedule under
``sys.setprofile`` and counts the Python calls into ``src/repro/mesh/``
and the interface module other than the two the driver makes
(``try_send`` and ``tick``): they must be exactly the switch calls, one
per router-cycle with a ready front, recounted from the buffers before
each tick.  The count is of calls, not of time, so the pin does not
depend on the host.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

import repro.mesh as mesh_package
import repro.net.interface as interface_module
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.packet import LaneKind, Packet

NODES, OFFERED, DRAIN = 16, 2000, 600
MESH_DIR = Path(mesh_package.__file__).parent


def profiled(filename: str) -> bool:
    return filename == interface_module.__file__ or Path(filename).parent == MESH_DIR


def live_routers(net: MeshNetwork, cycle: int) -> int:
    """Routers holding a front flit processable at ``cycle``."""
    count = 0
    for router in net.routers:
        for buffer in router._bufs:
            if buffer.flits and buffer.flits[0] <= cycle:
                count += 1
                break
    return count


def test_no_frame_per_flit_or_packet():
    rng = np.random.default_rng(48)
    cycle, src = np.nonzero(rng.random((OFFERED, NODES)) < 0.04)
    dst = rng.integers(0, NODES - 1, len(src))
    dst += dst >= src
    by_cycle = {}
    for uid, (c, s, d, data) in enumerate(zip(
        cycle.tolist(), src.tolist(), dst.tolist(), (rng.random(len(src)) < 0.5).tolist()
    )):
        by_cycle.setdefault(c, []).append(
            Packet(s, d, LaneKind.DATA if data else LaneKind.META, uid=uid)
        )
    net = MeshNetwork(MeshConfig(num_nodes=NODES))
    delivered = []
    for node in range(NODES):
        net.set_delivery_callback(node, delivered.append)

    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and profiled(frame.f_code.co_filename):
            calls[frame.f_code.co_qualname] += 1

    live = 0  # router-cycles with a ready front
    sys.setprofile(profile)
    try:
        for c in range(OFFERED + DRAIN):
            for packet in by_cycle.get(c, ()):
                net.try_send(packet, c)
            live += live_routers(net, c)
            net.tick(c)
    finally:
        sys.setprofile(None)

    assert net.quiescent()
    net.audit()
    stats = net.stats.group.as_dict()
    assert len(delivered) == stats["packets_delivered"] == stats["packets_sent"] > 1000
    assert calls["MeshNetwork.try_send"] == stats["packets_sent"]
    assert calls["MeshNetwork.tick"] == OFFERED + DRAIN
    assert calls["Router.switch"] == live > 0
    others = sum(calls.values()) - calls["MeshNetwork.try_send"] - calls["MeshNetwork.tick"]
    assert others == calls["Router.switch"], calls
