"""The package stays standard-library only.

Every import under ``src/stripfol`` is relative or names a standard-library
module, and importing the CLI in a fresh interpreter loads nothing else.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_import_is_relative_or_standard_library():
    files = sorted((SRC / "stripfol").glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_importing_the_cli_loads_only_standard_library_modules():
    # -I: no PYTHONPATH, no user site; only modules the import itself adds count
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import stripfol.cli\n"
        "print(json.dumps({'file': stripfol.__file__, 'loaded': sorted(set(sys.modules) - before)}))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    assert Path(report["file"]).resolve().is_relative_to(SRC)
    assert "stripfol.cli" in report["loaded"]
    outside = [
        m for m in report["loaded"] if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "stripfol"
    ]
    assert outside == []
