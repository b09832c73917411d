"""Shared pytest configuration and engine-equivalence helpers.

Two engine toggles in :class:`~repro.cmp.CmpConfig` claim to be
invisible in every measured quantity: ``fast_forward`` (the next-event
loop) and ``vectorized`` (the columnar core engine — the networks and
the coherence dispatch have one implementation each, so a
``vectorized`` pair differs only in the cores phase).  The equivalence
suites — ``tests/cmp/test_fastforward.py``,
``tests/cmp/test_vector_equivalence.py`` and the pair tests of
``tests/coherence/test_vector_equivalence.py`` — share the
run-both-and-diff machinery here instead of duplicating it.
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


#: Digests of network and coherence behaviour recorded from earlier
#: implementations (tests/cmp/test_network_vector_equivalence.py,
#: tests/net/test_channel_pins.py,
#: tests/coherence/test_vector_equivalence.py).
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


def run_engine(cycles: int = 1200, **config_kwargs):
    """Run one configuration; return its ``(result, metrics)`` pair."""
    system = CmpSystem(CmpConfig(**config_kwargs))
    result = system.run(cycles)
    metrics = json.loads(canonical_json(system.metrics_registry().snapshot()))
    return result, metrics


def run_engine_pair(flag: str, cycles: int = 1200, **config_kwargs):
    """Run a config twice with engine toggle ``flag`` on and off.

    ``flag`` is a :class:`CmpConfig` boolean field name
    (``"fast_forward"`` or ``"vectorized"``).  Returns the
    ``[(result, metrics), ...]`` pairs in (enabled, disabled) order.
    """
    return [
        run_engine(cycles=cycles, **{flag: enabled}, **config_kwargs)
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


def compare_engine_pair(flag: str, cycles: int = 1200, **config_kwargs):
    """Run a pair, diff it, and check the flag's loop contract.

    Runs ``flag`` on vs off for one configuration, asserts full
    equivalence, applies the flag's loop-accounting contract and hands
    back the enabled run's loop dict:

    * ``fast_forward`` — the naive loop skips nothing, and the fast
      loop's executed + skipped covers the same window.
    * ``vectorized`` — the pair differs only in the cores phase, and
      the columnar cores engine must not change what the simulation
      loop *does* at all, so the loops are identical.
    """
    candidate, reference = run_engine_pair(flag, cycles=cycles, **config_kwargs)
    cand_loop, ref_loop = assert_engines_equivalent(candidate, reference)
    if flag == "fast_forward":
        assert ref_loop["skipped_cycles"] == 0
        total = cand_loop["executed_cycles"] + cand_loop["skipped_cycles"]
        assert total == ref_loop["executed_cycles"]
    else:
        assert cand_loop == ref_loop
    return cand_loop


@pytest.fixture
def compare_engines():
    """Fixture handle on :func:`compare_engine_pair` for plain tests.

    Hypothesis-driven tests should import the function directly (a
    function-scoped fixture inside ``@given`` trips health checks).
    """
    return compare_engine_pair


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden result snapshots under tests/data/ "
        "instead of comparing against them (commit the diff afterwards)",
    )
