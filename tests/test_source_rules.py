"""Rules the package source keeps, read from its syntax tree without importing it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hetsgd"


def modules():
    """(file name, syntax tree) for every module in the package."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "sgd.py", "experiments.py"} <= {p.name for p in paths}
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def nodes():
    """(file name, node) for every node of every module in the package."""
    for name, tree in modules():
        for node in ast.walk(tree):
            yield name, node


def import_time_nodes():
    """(file name, node) for every node that runs when its module is imported.

    That is every node but those inside a function's body (a class body runs at import).
    """
    for name, tree in modules():
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            yield name, node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))


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


def test_scipy_is_imported_only_inside_functions():
    # Loading scipy.special takes about 0.3 s. core.load_expit imports it when a logistic
    # gradient first needs it, so a process that only plans rates never pays for it.
    def names(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    found = [f"{name}:{node.lineno}" for name, node in import_time_nodes()
             if any(m == "scipy" or m.startswith("scipy.") for m in names(node))]
    assert found == []
