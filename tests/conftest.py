"""Shared pytest configuration and the pin helpers.

Behaviour is held by sha256 pins in :data:`PINS_PATH`: a run's
:func:`fingerprint` must equal the digests recorded under its key.
After an *intentional* behaviour change, re-record the pins a test file
checks and commit the diff::

    PYTHONPATH=src python -m pytest tests/cmp/test_behaviour_pins.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.faults import ConfirmationDrop, FaultPlan, LaneFault
from repro.obs import tracing
from repro.sweep import canonical_json

#: One representative fault plan for whole-system runs: a lane outage
#: window plus stochastic confirmation drops, so the retry/backoff and
#: fault-clock paths are covered.
EQUIVALENCE_FAULT_PLAN = FaultPlan(
    label="engine-equivalence",
    lane_faults=(LaneFault(3, "data", start=200, end=900),),
    confirmation_drops=(ConfirmationDrop(0.05),),
    seed=11,
)

#: The pinned digests of whole-system and bare-channel runs.
PINS_PATH = Path(__file__).parent / "data" / "network_engine_pins.json"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class NextOpOnly:
    """A workload reduced to ``next_op``: a core cannot tell it is an
    ``AppWorkload`` underneath, so it runs the generic issue loop."""

    def __init__(self, workload):
        self._workload = workload

    def next_op(self, rng):
        return self._workload.next_op(rng)


def fingerprint(cycles=1200, trace=False, generic_issue=False, **config_kwargs):
    """Run one configuration; return ``(digests, results, system)``.

    ``digests`` holds the sha256 of the canonical ``CmpResults`` minus
    ``loop``, of the metrics snapshot and, with ``trace``, of the trace
    event stream minus fast-forward's own ``cat="loop"`` markers;
    ``results`` is the full ``CmpResults.to_dict()``.  ``generic_issue``
    hides every core's workload behind :class:`NextOpOnly` after
    construction (the warm start has read the real workloads by then).
    """
    system = CmpSystem(CmpConfig(**config_kwargs))
    if generic_issue:
        for core in system.cores:
            core.workload = NextOpOnly(core.workload)
    if trace:
        with tracing(capacity=1 << 20) as tracer:
            result = system.run(cycles)
            assert tracer.dropped == 0
            stream = "\n".join(
                json.dumps(event.to_chrome(), sort_keys=True)
                for event in tracer.events()
                if event.cat != "loop"
            )
    else:
        result = system.run(cycles)
    results = result.to_dict()
    digests = {
        "results": sha(canonical_json({k: v for k, v in results.items() if k != "loop"})),
        "metrics": sha(canonical_json(system.metrics_registry().snapshot())),
    }
    if trace:
        digests["trace"] = sha(stream)
    return digests, results, system


def check_pinned(update: bool, key: str, digests: dict) -> None:
    """``digests`` must equal pin ``key`` of :data:`PINS_PATH`; with
    ``update`` (``--update-golden``) the pin is recorded instead."""
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    if update:
        pins[key] = digests
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return
    assert key in pins, (
        f"no pin {key!r} in {PINS_PATH.name}; record it with --update-golden"
    )
    assert digests == pins[key], (
        f"{key} diverged from its pinned run; if the change is "
        "intentional, re-record with --update-golden"
    )


@pytest.fixture
def pinned(request):
    """``pinned(key, value)``: ``value`` must equal pin ``key`` of
    :data:`PINS_PATH` (recorded instead under ``--update-golden``)."""
    update = request.config.getoption("--update-golden")
    return lambda key, value: check_pinned(update, key, value)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden result snapshots under tests/data/ "
        "instead of comparing against them (commit the diff afterwards)",
    )
