"""Rules the package source keeps, read from its syntax tree without importing it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hetsgd"


def nodes():
    """(file name, node) for every node of every module in the package."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "sgd.py", "experiments.py"} <= {p.name for p in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips them, so an invariant checked by assert would go unchecked.
    found = [f"{name}:{node.lineno}" for name, node in nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_print_only_in_the_cli():
    # Diagnostics go through logging; only the CLI prints its JSON answers.
    found = [f"{name}:{node.lineno}" for name, node in nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print" and name != "cli.py"]
    assert found == []
