"""Declarative fault schedules for the FSOI network.

A :class:`FaultPlan` is a frozen, serializable description of *what
goes wrong and when*: VCSEL lanes dying (permanently or transiently),
receivers going dark, thermal power droop degrading the optical budget,
bit-error bursts, and confirmation-channel drops.  Plans are pure data —
the runtime behaviour lives in :class:`repro.faults.injector.FaultInjector`.

Every fault carries an activity window ``[start, end)`` in CPU cycles;
``end=None`` means the fault is permanent.  Lanes are named by their
string value (``"meta"`` / ``"data"``) so a plan round-trips through
JSON without touching the simulator's enums — which also means plans
flow through the sweep engine's canonical-JSON cache keys unchanged
(see docs/faults.md).

Determinism: a plan embeds its own ``seed``.  The injector derives its
RNG streams from the *network's* hub (child ``"faults"``) so the rest
of the simulator draws exactly the same random numbers with or without
faults; the plan seed only offsets the fault streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "LANE_NAMES",
    "ConfirmationDrop",
    "ErrorBurst",
    "FaultPlan",
    "LaneFault",
    "ReceiverFault",
    "ThermalDroop",
]

LANE_NAMES = ("meta", "data")


def _check_window(start: int, end: Optional[int]) -> None:
    if start < 0:
        raise ValueError(f"fault start cycle must be >= 0: {start}")
    if end is not None and end <= start:
        raise ValueError(f"empty fault window: [{start}, {end})")


def _check_lane(lane: Optional[str], *, optional: bool = False) -> None:
    if lane is None:
        if optional:
            return
        raise ValueError("a lane name is required")
    if lane not in LANE_NAMES:
        raise ValueError(f"unknown lane {lane!r}; choose from {LANE_NAMES}")


def _check_rate(rate: float, what: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{what} must be a probability in [0, 1]: {rate}")


def check_keys(
    data: Any, allowed: Sequence[str], what: str, required: Sequence[str] = ()
) -> Mapping[str, Any]:
    """``data``, checked to be an object whose keys are ``allowed`` and
    include ``required``: a typo in a plan or spec file fails here
    rather than silently falling back to a default."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key {unknown[0]!r} in {what}; allowed: {sorted(allowed)}"
        )
    for key in required:
        if key not in data:
            raise ValueError(f"missing key {key!r} in {what}")
    return data


@dataclass(frozen=True)
class LaneFault:
    """A node's transmit VCSEL array for one lane goes dark.

    While active, the node's transmissions on ``lane`` consume the slot
    but emit no light: no receiver sees them, no confirmation comes
    back, and the sender escalates through back-off exactly as for a
    collision.  ``end=None`` models a dead device; a finite window
    models a recoverable brown-out.
    """

    node: int
    lane: str
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be >= 0: {self.node}")
        _check_lane(self.lane)
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ReceiverFault:
    """One of a node's receivers for a lane stops detecting light.

    Traffic statically partitioned onto the dead receiver is spared
    onto the destination's next healthy receiver (a deterministic remap
    every sender can compute); if every receiver is dark the
    transmission is lost like a :class:`LaneFault`.
    """

    node: int
    lane: str
    receiver: int
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be >= 0: {self.node}")
        if self.receiver < 0:
            raise ValueError(f"receiver index must be >= 0: {self.receiver}")
        _check_lane(self.lane)
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ThermalDroop:
    """Thermal VCSEL power droop, expressed as emitted-power loss in dB.

    The droop is turned into a per-packet corruption probability through
    the link's physical Q-factor chain (``OpticalLink`` received powers
    -> photocurrents -> ``ReceiverNoise.ber``), not an ad-hoc error
    knob — see :meth:`repro.faults.injector.FaultInjector.droop_ber`.
    ``node=None`` droops every transmitter (chip-wide hot spell).
    """

    droop_db: float
    node: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.droop_db <= 0.0:
            raise ValueError(f"droop must be a positive dB loss: {self.droop_db}")
        if self.node is not None and self.node < 0:
            raise ValueError(f"node must be >= 0: {self.node}")
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ErrorBurst:
    """A window of elevated per-packet corruption probability.

    Corrupted packets fail the PID/~PID integrity check at the receiver
    (like a collision, §4.3.1): no confirmation is sent and the sender
    retries under back-off.  ``node``/``lane`` of ``None`` apply the
    burst to every source / both lanes.
    """

    rate: float
    node: Optional[int] = None
    lane: Optional[str] = None
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate, "burst corruption rate")
        if self.node is not None and self.node < 0:
            raise ValueError(f"node must be >= 0: {self.node}")
        _check_lane(self.lane, optional=True)
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ConfirmationDrop:
    """The confirmation channel loses a fraction of its pulses.

    The packet *is* received and delivered, but the sender never sees
    the confirmation: it walks the timeout/back-off path and
    retransmits a packet the destination already has.  Duplicate
    receptions are detected and counted, and §5.1 ``on_confirmed``
    hooks fire exactly once.  ``node=None`` affects every sender.
    """

    rate: float
    node: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate, "confirmation drop rate")
        if self.node is not None and self.node < 0:
            raise ValueError(f"node must be >= 0: {self.node}")
        _check_window(self.start, self.end)


_FAULT_FIELDS = {
    "lane_faults": LaneFault,
    "receiver_faults": ReceiverFault,
    "droops": ThermalDroop,
    "bursts": ErrorBurst,
    "confirmation_drops": ConfirmationDrop,
}


#: The scalar keys of :meth:`FaultPlan.to_dict`, beside the fault lists.
_PLAN_KEYS = ("label", "giveup_retries", "detect_threshold", "seed")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one run.

    The default ``FaultPlan()`` is *empty* and guaranteed passive: the
    network builds no injector, creates no fault counters and consumes
    no extra randomness, so golden snapshots are byte-identical.

    Parameters
    ----------
    giveup_retries:
        Bounded graceful degradation: a sender abandons a packet once
        ``packet.retries`` exceeds this bound (surfaced as the
        ``gave_up_lost`` / ``gave_up_delivered`` metrics).  ``None``
        retries forever, the paper's implicit default.
    detect_threshold:
        Consecutive unconfirmed transmissions on a lane before the
        sender declares the lane down and stops lighting it (lane
        sparing); it probes again once the schedule heals the lane.
    seed:
        Offsets the injector's private RNG streams, so two plans with
        the same schedule but different seeds sample different faults.
    """

    label: str = ""
    lane_faults: tuple[LaneFault, ...] = ()
    receiver_faults: tuple[ReceiverFault, ...] = ()
    droops: tuple[ThermalDroop, ...] = ()
    bursts: tuple[ErrorBurst, ...] = ()
    confirmation_drops: tuple[ConfirmationDrop, ...] = ()
    giveup_retries: Optional[int] = None
    detect_threshold: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _FAULT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.giveup_retries is not None and self.giveup_retries < 1:
            raise ValueError(
                f"giveup_retries must be >= 1 (or None): {self.giveup_retries}"
            )
        if self.detect_threshold < 1:
            raise ValueError(
                f"detect_threshold must be >= 1: {self.detect_threshold}"
            )

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan injects nothing and bounds nothing."""
        return (
            not any(getattr(self, name) for name in _FAULT_FIELDS)
            and self.giveup_retries is None
        )

    def max_node(self) -> int:
        """Largest node index referenced anywhere in the plan (-1 if none)."""
        nodes = [-1]
        for name in _FAULT_FIELDS:
            for entry in getattr(self, name):
                if getattr(entry, "node", None) is not None:
                    nodes.append(entry.node)
        return max(nodes)

    def validate_for(self, num_nodes: int, receivers_by_lane: Mapping[str, int]) -> None:
        """Check the plan fits a concrete network topology."""
        if self.max_node() >= num_nodes:
            raise ValueError(
                f"fault plan references node {self.max_node()} but the "
                f"network has only {num_nodes} nodes"
            )
        for entry in self.receiver_faults:
            available = receivers_by_lane[entry.lane]
            if entry.receiver >= available:
                raise ValueError(
                    f"fault plan references receiver {entry.receiver} on the "
                    f"{entry.lane} lane, which has only {available} receivers"
                )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {key: getattr(self, key) for key in _PLAN_KEYS}
        for name in _FAULT_FIELDS:
            out[name] = [
                {f.name: getattr(entry, f.name) for f in fields(entry)}
                for entry in getattr(self, name)
            ]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """The inverse of :meth:`to_dict`; a key it does not write is a
        ``ValueError``."""
        check_keys(data, _PLAN_KEYS + tuple(_FAULT_FIELDS), "fault plan")
        kwargs: dict[str, Any] = {
            "label": data.get("label", ""),
            "giveup_retries": data.get("giveup_retries"),
            "detect_threshold": int(data.get("detect_threshold", 3)),
            "seed": int(data.get("seed", 0)),
        }
        for name, entry_cls in _FAULT_FIELDS.items():
            keys = [f.name for f in fields(entry_cls)]
            required = [f.name for f in fields(entry_cls) if f.default is MISSING]
            kwargs[name] = tuple(
                entry_cls(**check_keys(entry, keys, f"{name} entry", required))
                for entry in data.get(name, ())
            )
        return cls(**kwargs)

    def ledger_label(self) -> str:
        """The label under which runs with this plan are filed.

        The analytics run ledger (:class:`repro.analytics.RunStore`)
        groups and filters points by fault plan; an unlabelled but
        non-empty plan falls back to its content hash so two distinct
        anonymous schedules never alias, and the empty plan files under
        ``""`` (fault-free).
        """
        if self.label:
            return self.label
        return "" if self.is_empty() else self.content_hash()

    def content_hash(self) -> str:
        """Stable short hash of the schedule (cache keys, labels, docs)."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def describe(self) -> str:
        """Multi-line human-readable summary for CLI output."""
        if self.is_empty():
            return "empty plan (no faults)"

        def window(entry) -> str:
            end = "forever" if entry.end is None else str(entry.end)
            return f"cycles [{entry.start}, {end})"

        def scope(node: Optional[int]) -> str:
            return "all nodes" if node is None else f"node {node}"

        lines = []
        if self.label:
            lines.append(f"plan {self.label!r} (hash {self.content_hash()})")
        for entry in self.lane_faults:
            lines.append(
                f"dead {entry.lane} lane at node {entry.node}, {window(entry)}"
            )
        for entry in self.receiver_faults:
            lines.append(
                f"dead {entry.lane} receiver {entry.receiver} at node "
                f"{entry.node}, {window(entry)}"
            )
        for entry in self.droops:
            lines.append(
                f"thermal droop {entry.droop_db:g} dB at {scope(entry.node)}, "
                f"{window(entry)}"
            )
        for entry in self.bursts:
            lane = entry.lane or "both lanes"
            lines.append(
                f"error burst rate {entry.rate:g} on {lane} at "
                f"{scope(entry.node)}, {window(entry)}"
            )
        for entry in self.confirmation_drops:
            lines.append(
                f"confirmation drops rate {entry.rate:g} for "
                f"{scope(entry.node)}, {window(entry)}"
            )
        if self.giveup_retries is not None:
            lines.append(f"senders give up after {self.giveup_retries} retries")
        return "\n".join(lines)
