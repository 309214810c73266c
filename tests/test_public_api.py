"""The package namespace holds exactly the names the demos import from it,
and README's criteria table is the criteria table of the package."""

import ast
import re
from itertools import takewhile
from pathlib import Path

import quadglass
from quadglass.acceptance import CRITERIA

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def demo_imports():
    names = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "quadglass":
                names.update(alias.name for alias in node.names)
    return names


def readme_public_count():
    """N in README's sentence "re-exports the N names the demos import"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return int(re.search(r"re-exports the (\d+) names", text).group(1))


def test_all_is_exactly_what_the_demos_import():
    names = demo_imports()
    assert len(names) == readme_public_count()
    assert "Factorization" in names
    assert set(quadglass.__all__) == names
    assert len(quadglass.__all__) == len(names)


def test_every_public_name_resolves():
    for name in quadglass.__all__:
        assert getattr(quadglass, name) is not None


def readme_criteria():
    """The (id, description) rows of README's criteria table, with ``\\|`` read as ``|``."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    body = lines[lines.index("| id | description |") + 2:]  # past the rule under the head
    return [
        tuple(cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1])
        for line in takewhile(lambda line: line.startswith("|"), body)
    ]


def test_readme_criteria_table_is_the_criteria_table():
    assert readme_criteria() == [(cid, description) for cid, (description, _) in CRITERIA.items()]
