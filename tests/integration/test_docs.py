"""Documentation-rot guards: referenced modules and files must exist."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
DOCS = sorted(ROOT.glob("*.md")) + sorted((ROOT / "docs").glob("*.md"))


def referenced_modules():
    pattern = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)`")
    out = set()
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text()):
            name = match.group(1)
            # Strip trailing attribute-looking segments conservatively:
            # try the full name first, then its parent.
            out.add(name)
    return sorted(out)


@pytest.mark.parametrize("name", referenced_modules())
def test_referenced_module_exists(name):
    """Every `repro.x.y` mentioned in the docs imports (or is an
    attribute of an importable parent)."""
    try:
        importlib.import_module(name)
        return
    except ImportError:
        parent, _, attr = name.rpartition(".")
        module = importlib.import_module(parent)
        assert hasattr(module, attr), f"{name} referenced in docs but missing"


def test_referenced_benchmarks_exist():
    pattern = re.compile(r"`(bench_[a-z0-9_]+\.py)`")
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text()):
            target = ROOT / "benchmarks" / match.group(1)
            assert target.exists(), f"{doc.name} references missing {match.group(1)}"


def test_referenced_examples_exist():
    pattern = re.compile(r"`?examples/([a-z0-9_]+\.py)`?")
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text()):
            target = ROOT / "examples" / match.group(1)
            assert target.exists(), f"{doc.name} references missing {match.group(1)}"


#: The documents that state how the code is now; CHANGES.md and ROADMAP.md
#: hold history and plans and may name what is gone.
CITING_DOCS = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
]
_SPAN = re.compile(r"`([^`\n]+)`")
_CITE = re.compile(
    r"(?<![\w/.])((?:tests|src/repro|benchmarks|examples)/[\w/.-]*?\.py)"
    r"((?:::\w+)*)"
)


def _defines(path: Path, names: list[str]) -> bool:
    """Whether ``names`` (the parts of ``Class::test``) are defined in
    ``path``: the first at top level, each next one inside the last."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("doc", CITING_DOCS, ids=lambda doc: doc.name)
def test_cited_paths_and_test_ids_exist(doc):
    """Every backticked ``tests/``, ``src/repro/``, ``benchmarks/`` or
    ``examples/`` path exists, and every ``::Name`` after it is defined
    there; trailing command-line arguments are ignored."""
    missing = []
    for span in _SPAN.finditer(doc.read_text()):
        for cite in _CITE.finditer(span.group(1)):
            path, names = ROOT / cite.group(1), cite.group(2).split("::")[1:]
            if not path.is_file() or not _defines(path, names):
                missing.append(cite.group(0))
    assert not missing, f"{doc.name} cites what does not exist: {missing}"


def test_core_documents_present():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        assert (ROOT / name).exists()


def test_design_covers_every_figure_and_table():
    design = (ROOT / "DESIGN.md").read_text()
    for exp in ("Table 1", "Table 2", "Table 3", "Table 4",
                "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11"):
        assert exp in design, f"DESIGN.md missing {exp}"


def test_experiments_covers_every_figure_and_table():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for exp in ("Table 1", "Table 2", "Table 4", "Figure 3", "Figure 4",
                "Figure 5", "Figure 6", "Figure 7", "Figure 8",
                "Figure 9", "Figure 10", "Figure 11"):
        assert exp in experiments, f"EXPERIMENTS.md missing {exp}"
