"""Shared pytest configuration and equivalence helpers.

Every layer of the simulator has one implementation, so "equivalence"
means two things here:

* ``fast_forward`` (the next-event loop) is the one engine toggle left
  in :class:`~repro.cmp.CmpConfig`; it claims to be invisible in every
  measured quantity, and :func:`compare_engine_pair` runs it on and off
  and diffs the two.  (The helpers once took a flag name; the second
  value, the cores-engine toggle, was deleted with the second cores
  engine.)
* a core has two issue loops, chosen by what it can observe of its
  workload: the fused generate-and-access loop for an ``AppWorkload``
  and the generic ``workload.next_op`` loop for anything else.
  :func:`compare_issue_loops` hides the workloads behind
  :class:`NextOpOnly` to force the generic loop and diffs the runs.

Behaviour that used to be held by a second implementation is held by
:func:`check_pinned` digests recorded from it before it was deleted.
"""

import json
from pathlib import Path

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.faults import ConfirmationDrop, FaultPlan, LaneFault
from repro.sweep import canonical_json

#: One representative fault plan exercised by both equivalence suites:
#: a lane outage window plus stochastic confirmation drops, so the
#: retry/backoff and fault-clock paths are covered.
EQUIVALENCE_FAULT_PLAN = FaultPlan(
    label="engine-equivalence",
    lane_faults=(LaneFault(3, "data", start=200, end=900),),
    confirmation_drops=(ConfirmationDrop(0.05),),
    seed=11,
)


#: Digests of network, coherence and cores behaviour recorded from
#: earlier implementations (tests/cmp/test_network_vector_equivalence.py,
#: tests/net/test_channel_pins.py,
#: tests/coherence/test_vector_equivalence.py,
#: tests/cmp/test_vector_equivalence.py).
PINS_PATH = Path(__file__).parent / "data" / "network_engine_pins.json"


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


class NextOpOnly:
    """A workload reduced to ``next_op``: a core cannot tell it is an
    ``AppWorkload`` underneath, so it runs the generic issue loop."""

    def __init__(self, workload):
        self._workload = workload

    def next_op(self, rng):
        return self._workload.next_op(rng)


def run_engine(cycles: int = 1200, generic_issue: bool = False, **config_kwargs):
    """Run one configuration; return its ``(result, metrics)`` pair.

    ``generic_issue`` wraps every core's workload in :class:`NextOpOnly`
    after construction (the warm start has read the real workloads by
    then), taking the fused issue loop out of the run.
    """
    system = CmpSystem(CmpConfig(**config_kwargs))
    if generic_issue:
        for core in system.cores:
            core.workload = NextOpOnly(core.workload)
    result = system.run(cycles)
    metrics = json.loads(canonical_json(system.metrics_registry().snapshot()))
    return result, metrics


def run_engine_pair(cycles: int = 1200, **config_kwargs):
    """Run a config with ``fast_forward`` on and off; returns the
    ``[(result, metrics), ...]`` pairs in (enabled, disabled) order."""
    return [
        run_engine(cycles=cycles, fast_forward=enabled, **config_kwargs)
        for enabled in (True, False)
    ]


def assert_engines_equivalent(candidate, reference):
    """Byte-identical results (minus loop accounting) and metrics.

    ``candidate``/``reference`` are ``(result, metrics)`` pairs from
    :func:`run_engine`.  The ``loop`` field is excluded from the diff —
    it exists to *describe* the loop difference — and both loops are
    returned for the caller's engine-specific window checks.
    """
    cand_result, cand_metrics = candidate
    ref_result, ref_metrics = reference
    cand_dict = cand_result.to_dict()
    ref_dict = ref_result.to_dict()
    cand_loop = cand_dict.pop("loop")
    ref_loop = ref_dict.pop("loop")
    assert canonical_json(cand_dict) == canonical_json(ref_dict)
    assert cand_metrics == ref_metrics
    return cand_loop, ref_loop


def compare_engine_pair(cycles: int = 1200, **config_kwargs):
    """Run a ``fast_forward`` pair, diff it, and check the loop
    contract: the naive loop skips nothing, and the fast loop's
    executed + skipped covers the same window.  Hands back the
    fast-forwarded run's loop dict."""
    candidate, reference = run_engine_pair(cycles=cycles, **config_kwargs)
    cand_loop, ref_loop = assert_engines_equivalent(candidate, reference)
    assert ref_loop["skipped_cycles"] == 0
    total = cand_loop["executed_cycles"] + cand_loop["skipped_cycles"]
    assert total == ref_loop["executed_cycles"]
    return cand_loop


def compare_issue_loops(cycles: int = 1200, **config_kwargs):
    """The fused issue loop against the generic ``next_op`` loop: every
    result field — ``loop`` included, the choice of issue loop must not
    change what the simulation loop does — and every metric equal.
    Returns the (shared) loop dict."""
    fused, generic = (
        run_engine(cycles=cycles, generic_issue=generic, **config_kwargs)
        for generic in (False, True)
    )
    fused_dict = fused[0].to_dict()
    assert canonical_json(fused_dict) == canonical_json(generic[0].to_dict())
    assert fused[1] == generic[1]
    return fused_dict["loop"]


@pytest.fixture
def compare_engines():
    """Fixture handle on :func:`compare_engine_pair` for plain tests.

    Hypothesis-driven tests should import the function directly (a
    function-scoped fixture inside ``@given`` trips health checks).
    """
    return compare_engine_pair


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
