"""Every name the benchmark wraps or calls must exist: the tracer's entry points and the
workloads' ``hetsgd.<name>`` calls."""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_entry_points() -> dict:
    """ENTRY_POINTS of the tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {TRACER}")


def resolve(obj, dotted: str):
    """The attribute ``dotted`` of ``obj``, one part at a time; None where a part is missing."""
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves():
    entries = [e for group in traced_entry_points().values() for e in group]
    assert entries
    missing = []
    for entry in entries:
        module_name, qualname = entry.split(":")
        if not callable(resolve(importlib.import_module(module_name), qualname)):
            missing.append(entry)
    assert missing == []


def workload_names() -> tuple:
    """(hetsgd modules the workloads import, dotted ``hetsgd.`` paths they use), from source."""
    modules, paths = {"hetsgd"}, set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names if a.name.split(".")[0] == "hetsgd"}
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                parts.append(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == "hetsgd":
                paths.add(".".join(reversed(parts)))
    return modules, paths


def test_every_name_the_workloads_call_resolves_on_the_package():
    modules, paths = workload_names()
    assert {"select_rates", "compare_orders", "cli.main"} <= paths
    for module in modules:
        importlib.import_module(module)
    package = importlib.import_module("hetsgd")
    assert [path for path in sorted(paths) if resolve(package, path) is None] == []
