"""Every library function the benchmark's tracer wraps by name still exists.

``perfbench/tracer.py`` patches the functions named in its ``TRACED`` table;
deleting or renaming one breaks every traced benchmark run.  The table is
read from the source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_is_a_library_function():
    for module, groups in _traced().items():
        mod = importlib.import_module(f"stripfol.{module}")
        for name in (n for group in groups for n in group):
            assert callable(getattr(mod, name, None)), f"stripfol.{module}.{name}"
