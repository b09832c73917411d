"""Declarative sweep specifications.

Every figure and table of the paper is a sweep over
(application x network x node count x seed x optimization) points; a
:class:`SweepSpec` names those axes once and expands to the cartesian
grid of :class:`SweepPoint` s.  A point is the *unit of work* of the
sweep engine: it serializes to a canonical JSON dict (the basis of the
on-disk cache key, see :mod:`repro.sweep.cache`), reconstructs the
exact :class:`repro.cmp.CmpConfig` it describes, and is cheap to ship
to a worker process.

Beyond the regular axes, a point can carry a :class:`Variant` — a
labelled bundle of extra ``CmpConfig`` keyword arguments (narrower
FSOI lanes, scaled mesh links, memory bandwidth, ...) used by the
sensitivity studies (Figure 11, Table 4).  Variant values are stored
in their JSON encoding so points stay hashable and canonical.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.cmp.system import NETWORK_KINDS, CmpConfig
from repro.core.lanes import LaneConfig
from repro.core.optimizations import OptimizationConfig
from repro.faults.plan import FaultPlan
from repro.workloads import APPLICATIONS

__all__ = [
    "OPTIMIZATION_FLAGS",
    "SweepPoint",
    "SweepSpec",
    "Variant",
    "canonical_json",
    "make_point",
    "pair_points",
]

#: The five independently switchable §5 mechanisms, in field order.
OPTIMIZATION_FLAGS = tuple(
    f.name for f in dataclasses.fields(OptimizationConfig)
)

#: ``CmpConfig`` keyword arguments that arrive as dataclasses and must
#: be rebuilt from their JSON dict form inside a worker process.
_EXTRA_DECODERS = {
    "fsoi_lanes": lambda data: LaneConfig(**data),
    "faults": FaultPlan.from_dict,
}


def _json_default(value: Any):
    """JSON fallback for numpy scalars/arrays leaking out of results."""
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {value!r} ({type(value).__name__})")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable floats."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def _normalize_optimizations(
    spec: Union[None, str, OptimizationConfig, Iterable[str]]
) -> tuple[str, ...]:
    """Normalize any optimization description to a sorted flag tuple."""
    if spec is None:
        return ()
    if isinstance(spec, OptimizationConfig):
        return tuple(
            sorted(name for name in OPTIMIZATION_FLAGS if getattr(spec, name))
        )
    if isinstance(spec, str):
        if spec == "none":
            return ()
        if spec == "all":
            return tuple(sorted(OPTIMIZATION_FLAGS))
        spec = [part for part in spec.split(",") if part]
    flags = tuple(sorted(set(spec)))
    unknown = [name for name in flags if name not in OPTIMIZATION_FLAGS]
    if unknown:
        raise ValueError(
            f"unknown optimization flags {unknown}; "
            f"choose from {sorted(OPTIMIZATION_FLAGS)}"
        )
    return flags


def _encode_extra(key: str, value: Any) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if key not in _EXTRA_DECODERS:
            raise ValueError(
                f"config kwarg {key!r} is a dataclass the sweep engine "
                "cannot rebuild in a worker; supported dataclass kwargs: "
                f"{sorted(_EXTRA_DECODERS)}"
            )
        value = dataclasses.asdict(value)
    return canonical_json(value)


def _encode_extras(kwargs: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(
        (key, _encode_extra(key, kwargs[key])) for key in sorted(kwargs)
    )


@dataclass(frozen=True)
class Variant:
    """A labelled bundle of extra ``CmpConfig`` keyword arguments.

    ``config`` holds each value in canonical-JSON form so variants (and
    the points carrying them) are hashable and serialize exactly.
    Build with :meth:`make`::

        Variant.make("narrow", fsoi_lanes=LaneConfig(data_vcsels=3))
    """

    label: str = ""
    config: tuple[tuple[str, str], ...] = ()

    @classmethod
    def make(cls, label: str = "", **config_kwargs: Any) -> "Variant":
        return cls(label=label, config=_encode_extras(config_kwargs))

    def config_dict(self) -> dict[str, Any]:
        """The decoded (JSON-level) keyword arguments."""
        return {key: json.loads(encoded) for key, encoded in self.config}


@dataclass(frozen=True)
class SweepPoint:
    """One experiment of a sweep: everything needed to run it.

    ``optimizations`` is the sorted tuple of enabled §5 flag names
    (empty = the §4 baseline); ``extras`` are extra ``CmpConfig``
    keyword arguments in ``(name, canonical-JSON value)`` form.
    """

    app: str
    network: str
    num_nodes: int
    cycles: int
    seed: int
    optimizations: tuple[str, ...] = ()
    variant: str = ""
    extras: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.app not in APPLICATIONS:
            raise ValueError(
                f"unknown application {self.app!r}; known: {sorted(APPLICATIONS)}"
            )
        if self.network not in NETWORK_KINDS:
            raise ValueError(
                f"unknown network {self.network!r}; choose from {NETWORK_KINDS}"
            )
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes: {self.num_nodes}")
        if self.cycles < 1:
            raise ValueError(f"need a positive cycle count: {self.cycles}")

    # -- construction of the experiment --------------------------------

    def optimization_config(self) -> OptimizationConfig:
        return OptimizationConfig(**{name: True for name in self.optimizations})

    def config_kwargs(self) -> dict[str, Any]:
        """Decoded extra ``CmpConfig`` keyword arguments."""
        out: dict[str, Any] = {}
        for key, encoded in self.extras:
            value = json.loads(encoded)
            decoder = _EXTRA_DECODERS.get(key)
            out[key] = decoder(value) if decoder else value
        return out

    def to_config(self) -> CmpConfig:
        return CmpConfig(
            num_nodes=self.num_nodes,
            app=self.app,
            network=self.network,
            seed=self.seed,
            optimizations=self.optimization_config(),
            **self.config_kwargs(),
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "network": self.network,
            "num_nodes": self.num_nodes,
            "cycles": self.cycles,
            "seed": self.seed,
            "optimizations": list(self.optimizations),
            "variant": self.variant,
            "extras": {key: json.loads(enc) for key, enc in self.extras},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPoint":
        return cls(
            app=data["app"],
            network=data["network"],
            num_nodes=int(data["num_nodes"]),
            cycles=int(data["cycles"]),
            seed=int(data["seed"]),
            optimizations=tuple(data.get("optimizations", ())),
            variant=data.get("variant", ""),
            extras=_encode_extras(data.get("extras", {})),
        )

    def label(self) -> str:
        """Short human-readable identity for tables and logs."""
        parts = [self.app, self.network, f"n{self.num_nodes}", f"s{self.seed}"]
        if self.optimizations:
            parts.append("+opt")
        if self.variant:
            parts.append(self.variant)
        if any(key == "faults" for key, _encoded in self.extras):
            parts.append("+flt")
        return "/".join(parts)


def make_point(
    app: str,
    network: str,
    num_nodes: int = 16,
    cycles: int = 8000,
    seed: int = 0,
    optimizations: Union[None, str, OptimizationConfig, Iterable[str]] = None,
    variant: str = "",
    **config_kwargs: Any,
) -> SweepPoint:
    """Build one :class:`SweepPoint` from plain experiment arguments.

    ``config_kwargs`` are extra :class:`repro.cmp.CmpConfig` fields
    (``fsoi_lanes=LaneConfig(...)``, ``memory_gbps=...``, ...).
    """
    return SweepPoint(
        app=app,
        network=network,
        num_nodes=num_nodes,
        cycles=cycles,
        seed=seed,
        optimizations=_normalize_optimizations(optimizations),
        variant=variant,
        extras=_encode_extras(config_kwargs),
    )


def pair_points(
    records: Sequence[tuple[Mapping[str, Any], Any]],
    network: str,
    baseline: str,
    optimizations: Union[None, str, OptimizationConfig, Iterable[str]] = None,
    faults: Optional[FaultPlan] = None,
) -> list[tuple[Any, Any]]:
    """Pair ``network`` points with their ``baseline`` points.

    ``records`` holds ``(point_dict, result)`` in :meth:`SweepPoint.to_dict`
    shape.  Every ``network`` point run with exactly ``optimizations``
    under ``faults`` (default: neither) pairs with the plain ``baseline``
    point of the same app, nodes, cycles, seed and variant — the same
    workload stream, so its randomness cancels.  Returns one
    ``(network result, baseline result)`` per paired point, none
    overwriting another, ordered by that shared key.
    """
    def workload(point: Mapping[str, Any]) -> tuple:
        return (point["app"], point["num_nodes"], point["cycles"],
                point["seed"], point.get("variant", ""))

    def setting(point: Mapping[str, Any]) -> tuple:
        plan = point.get("extras", {}).get("faults")
        return (tuple(point.get("optimizations", ())),
                None if plan is None else canonical_json(plan))

    wanted = (
        _normalize_optimizations(optimizations),
        None if faults is None or faults.is_empty()
        else canonical_json(faults.to_dict()),
    )
    bases: dict[tuple, Any] = {}
    for point, result in records:
        if point["network"] == baseline and setting(point) == ((), None):
            bases.setdefault(workload(point), result)
    fast = sorted(
        ((workload(point), result) for point, result in records
         if point["network"] == network and setting(point) == wanted
         and workload(point) in bases),
        key=lambda entry: entry[0],
    )
    return [(result, bases[key]) for key, result in fast]


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian grid of experiments.

    Expansion order is deterministic: the product of
    ``apps x networks x nodes x seeds x optimizations x variants x
    faults`` with the last axis varying fastest.  Optimization sets and
    non-empty fault plans apply only to the ``fsoi`` network (they rely
    on its confirmation channel / optical substrate — see
    :class:`repro.cmp.CmpConfig`); every other network gets exactly one
    baseline point per (app, nodes, seed, variant) combination.

    A non-empty :class:`repro.faults.FaultPlan` travels inside the
    point's ``extras`` in canonical-JSON form, so the on-disk cache key
    automatically covers the full fault schedule (docs/faults.md).
    """

    apps: tuple[str, ...]
    networks: tuple[str, ...]
    nodes: tuple[int, ...] = (16,)
    seeds: tuple[int, ...] = (0,)
    cycles: int = 8000
    optimizations: tuple[Union[str, OptimizationConfig], ...] = ("none",)
    variants: tuple[Variant, ...] = (Variant(),)
    faults: tuple[FaultPlan, ...] = (FaultPlan(),)

    def __post_init__(self) -> None:
        if not self.apps or not self.networks:
            raise ValueError("a sweep needs at least one app and one network")
        if not self.nodes or not self.seeds or not self.optimizations:
            raise ValueError("every sweep axis needs at least one value")
        if not self.faults:
            raise ValueError("the faults axis needs at least one plan")
        for plan in self.faults:
            if not isinstance(plan, FaultPlan):
                raise ValueError(f"not a FaultPlan: {plan!r}")
        # Validate eagerly so a bad spec fails before any work is queued.
        for entry in self.optimizations:
            _normalize_optimizations(entry)
        for app in self.apps:
            if app not in APPLICATIONS:
                raise ValueError(
                    f"unknown application {app!r}; known: {sorted(APPLICATIONS)}"
                )
        for network in self.networks:
            if network not in NETWORK_KINDS:
                raise ValueError(
                    f"unknown network {network!r}; choose from {NETWORK_KINDS}"
                )

    def points(self) -> list[SweepPoint]:
        """Expand the grid (deterministic order, duplicates removed)."""
        out: list[SweepPoint] = []
        seen: set[SweepPoint] = set()
        for app, network, num_nodes, seed in itertools.product(
            self.apps, self.networks, self.nodes, self.seeds
        ):
            if network == "fsoi":
                opt_sets = [
                    _normalize_optimizations(entry)
                    for entry in self.optimizations
                ]
                fault_plans = list(self.faults)
            else:
                opt_sets = [()]
                fault_plans = [FaultPlan()]
            for flags, variant, plan in itertools.product(
                opt_sets, self.variants, fault_plans
            ):
                extras = variant.config
                if not plan.is_empty():
                    # Keep extras sorted by key so the point (and its
                    # cache key) round-trips through to_dict/from_dict.
                    extras = tuple(sorted(
                        extras
                        + (("faults", canonical_json(plan.to_dict())),)
                    ))
                point = SweepPoint(
                    app=app,
                    network=network,
                    num_nodes=num_nodes,
                    cycles=self.cycles,
                    seed=seed,
                    optimizations=flags,
                    variant=variant.label,
                    extras=extras,
                )
                if point not in seen:
                    seen.add(point)
                    out.append(point)
        return out

    def __len__(self) -> int:
        return len(self.points())

    # -- serialization (CLI spec files) ---------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "apps": list(self.apps),
            "networks": list(self.networks),
            "nodes": list(self.nodes),
            "seeds": list(self.seeds),
            "cycles": self.cycles,
            "optimizations": [
                ",".join(_normalize_optimizations(entry)) or "none"
                for entry in self.optimizations
            ],
            "variants": [
                {"label": v.label, "config": v.config_dict()}
                for v in self.variants
            ],
            "faults": [plan.to_dict() for plan in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        variants = tuple(
            Variant(
                label=entry.get("label", ""),
                config=_encode_extras(entry.get("config", {})),
            )
            for entry in data.get("variants", [{}])
        ) or (Variant(),)
        faults = tuple(
            FaultPlan.from_dict(entry) for entry in data.get("faults", [{}])
        ) or (FaultPlan(),)
        return cls(
            apps=tuple(data["apps"]),
            networks=tuple(data["networks"]),
            nodes=tuple(int(n) for n in data.get("nodes", (16,))),
            seeds=tuple(int(s) for s in data.get("seeds", (0,))),
            cycles=int(data.get("cycles", 8000)),
            optimizations=tuple(data.get("optimizations", ("none",))),
            variants=variants,
            faults=faults,
        )
