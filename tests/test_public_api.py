"""The package namespace holds exactly the names the demos import from it."""

import ast
from pathlib import Path

import quadglass

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def demo_imports():
    names = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "quadglass":
                names.update(alias.name for alias in node.names)
    return names


def test_all_is_exactly_what_the_demos_import():
    names = demo_imports()
    assert len(names) == 20
    assert "Factorization" in names
    assert set(quadglass.__all__) == names
    assert len(quadglass.__all__) == len(names)


def test_every_public_name_resolves():
    for name in quadglass.__all__:
        assert getattr(quadglass, name) is not None
