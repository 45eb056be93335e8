"""The package namespace is exactly the union of the modules' ``__all__``,
no module imports a name it never uses, and the test oracles import no
count from the package."""

from __future__ import annotations

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import arithproj

ROOT = Path(__file__).resolve().parent.parent

MODULES = (
    "chains",
    "errors",
    "groups",
    "instances",
    "kakeya",
    "patterns",
    "proofs",
    "sampling",
    "search",
)


def test_namespace_is_union_of_module_exports():
    expected = set()
    for name in MODULES:
        module = importlib.import_module(f"arithproj.{name}")
        expected.update(module.__all__)
        for attr in module.__all__:
            assert getattr(arithproj, attr) is getattr(module, attr), attr
    assert set(arithproj.__all__) == expected


def test_ladder_exponents_exported():
    from arithproj import FOUR_SLICE_EXPONENT, THREE_SLICE_EXPONENT

    assert (THREE_SLICE_EXPONENT, FOUR_SLICE_EXPONENT) == (
        Fraction(11, 6),
        Fraction(7, 4),
    )


def _unused_imports(path: Path) -> list[str]:
    """Imported names never read in the module, outside ``__all__`` and noqa lines."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


def test_no_unused_imports():
    paths = [
        path
        for folder in ("src/arithproj", "tests", "demos")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert paths
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


# the package's counts, which the oracles in tests/oracles.py check
COUNTS = re.compile(r"chain_count_\w*|verify_\w*|_linked_quads|_skew_collisions")


def test_oracles_import_no_counting_function():
    """tests/oracles.py imports the package's data types, but no count and
    no package module, whose counts it could reach as attributes."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "arithproj"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arithproj"):
            imported += [f"{node.module}.{a.name}" for a in node.names]
    assert "arithproj.proofs.Wedge" in imported
    for name in imported:
        last = name.rsplit(".", 1)[-1]
        assert not COUNTS.fullmatch(last), name
        assert last not in (*MODULES, "arithproj", "*"), name
