"""The library names that the benchmark's tracer wraps must keep resolving.

`perfbench/tracing.py` wraps each (module, attribute) in its TRACED
table by name, so a rename here would only fail under `--trace 1`. The
table is read as a literal, without importing the benchmark.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for home, attr in traced:
        target = importlib.import_module(f"cliquedyn.{home}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{home}.{attr}"
