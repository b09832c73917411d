"""The import graph: every module is reached, and scipy stays off the
import path and out of runs.

Every module under ``src/repro`` must be reachable by static imports
(module level or inside a function) from ``repro``, ``repro.cli`` or a
script under ``benchmarks/``, ``examples/`` or ``perfbench/``; a module
that only its own unit tests import is dead code.  ``repro.__main__``
is the one exception: ``python -m repro`` runs it and nothing imports it.

Module scope imports numpy and the stdlib only; the three analysis-only
helpers that need scipy (``optimal_meta_bandwidth``, ``saturation_load``,
``q_from_ber``) import it where they call it, and ``ber_from_q`` — the
one a faulted run calls — is a pure-Python port of the routine
``scipy.special.erfc`` runs (docs/performance.md, "Time to first
cycle").  The checks run in fresh subprocesses — inside this pytest
process some other test has usually loaded scipy already.  The pinned
floats were recorded at the last commit that imported scipy at module
scope, so neither "lazy" nor the port changed a bit.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.analytical import optimal_meta_bandwidth
from repro.core.queueing import saturation_load
from repro.optics.noise import ber_from_q, q_from_ber

ROOT = Path(__file__).parents[2]
SRC = ROOT / "src"
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")
NOT_IMPORTED = {"repro.__main__"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path: Path, name: str = "") -> set[str]:
    """Every dotted name an ``import`` anywhere in ``path`` may load:
    ``from a import b`` names both ``a`` and ``a.b`` (``b`` may be a
    submodule), and relative imports resolve against ``name``."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_reachable():
    modules = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}
    todo = {"repro", "repro.cli"}
    for directory in ENTRY_DIRS:
        for script in (ROOT / directory).rglob("*.py"):
            todo |= imported_names(script)
    reached = set()
    while todo:
        parts = todo.pop().split(".")
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in modules and name not in reached:
                reached.add(name)
                todo |= imported_names(modules[name], name)
    unreached = sorted(set(modules) - reached - NOT_IMPORTED)
    assert not unreached, f"modules nothing imports: {unreached}"


def run_fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_scipy_on_import_or_in_a_run():
    run_fresh(
        """
import sys
import repro, repro.sweep, repro.analytics, repro.cli
from repro.cmp import CmpConfig, CmpSystem

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

assert not loaded(), f"imported at module scope: {loaded()[:5]}"
for network in ("fsoi", "mesh", "l0"):
    CmpSystem(CmpConfig(num_nodes=16, network=network)).run(200)
    assert not loaded(), f"{network} run imported {loaded()[:5]}"
"""
    )


def test_faulted_run_imports_nothing_after_construction():
    # The droop -> Q-factor -> BER chain runs on the erfc port: building
    # and running a faulted system loads no scipy module at all.
    run_fresh(
        """
import sys
from repro.cmp import CmpConfig, CmpSystem
from repro.faults.plan import FaultPlan, ThermalDroop

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

plan = FaultPlan(label="droop", droops=(ThermalDroop(droop_db=2.5),), seed=3)
system = CmpSystem(CmpConfig(num_nodes=16, network="fsoi", faults=plan))
assert not loaded(), f"construction imported {loaded()[:5]}"
before = set(sys.modules)
result = system.run(1500)
faults = result.to_dict()["fsoi"]["faults"]
assert faults["data"]["injected_corrupt"] > 0  # the droop path ran
assert set(sys.modules) == before, sorted(set(sys.modules) - before)[:5]
"""
    )


@pytest.mark.parametrize(
    "constants, pinned",
    [
        (None, "0x1.23ad551976be0p-2"),
        ((1.0, 2.0, 3.0, 4.0), "0x1.bda5608cd0cb0p-2"),
        ((0.5, 0.01, 0.2, 0.3), "0x1.9cc4c57acb678p-2"),
    ],
)
def test_optimal_meta_bandwidth_pins(constants, pinned):
    args = () if constants is None else (constants,)
    assert optimal_meta_bandwidth(*args).hex() == pinned


@pytest.mark.parametrize(
    "num_nodes, receivers, pinned",
    [
        (16, 2, "0x1.ffff37fca52cfp-1"),
        (16, 1, "0x1.ffff64a44e35fp-1"),
        (256, 4, "0x1.ffff37fca52cfp-1"),
    ],
)
def test_saturation_load_pins(num_nodes, receivers, pinned):
    assert saturation_load(num_nodes, receivers).hex() == pinned


@pytest.mark.parametrize(
    "q, pinned",
    [
        (0.37, "0x1.6c3a53666bb16p-2"),
        (3.3, "0x1.fae82e1b2d7b5p-12"),
        (6.36, "0x1.bba943878654ep-34"),
        (7.03, "0x1.22ab8c9d4f7a9p-40"),
        (9.9, "0x1.9298b576811aap-76"),
    ],
)
def test_ber_from_q_pins(q, pinned):
    assert ber_from_q(q).hex() == pinned


@pytest.mark.parametrize(
    "ber, pinned",
    [
        (1e-12, "0x1.c234fba57a329p+2"),
        (1e-10, "0x1.97203597a2155p+2"),
        (3.7e-9, "0x1.72057dce63186p+2"),
        (0.013, "0x1.1cf481db98022p+1"),
        (0.4999, "0x1.06d6ca8553fc1p-12"),
    ],
)
def test_q_from_ber_pins(ber, pinned):
    assert q_from_ber(ber).hex() == pinned
