"""Every entry point the benchmark's tracer wraps by name must exist."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_entry_points() -> dict:
    """ENTRY_POINTS of the tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {TRACER}")


def test_every_traced_name_resolves():
    entries = [e for group in traced_entry_points().values() for e in group]
    assert entries
    missing = []
    for entry in entries:
        module_name, qualname = entry.split(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(entry)
    assert missing == []
