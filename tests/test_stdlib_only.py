"""The package stays standard-library only, and cheap to import.

Every import under ``src/stripfol`` is relative or names a standard-library
module, and importing the CLI in a fresh interpreter loads nothing else.
Each ``stripfol`` command is a fresh process, so the import is part of its
wall time: the package keeps out ``dataclasses``, which alone loads
``inspect``, ``ast``, ``dis`` and ``tokenize``, and its record classes carry
evaluated annotations, which ``typing`` need not compile.
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


# modules that are about half the cold import of the CLI when loaded
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_no_module_imports_dataclasses():
    files = sorted((SRC / "stripfol").glob("*.py"))
    found = [f"{path.name}:{line}: {name}" for path in files for line, name in _absolute_imports(path) if name == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_no_heavy_module():
    # -S as well: no site hook can load one of them first and hide the import
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import stripfol.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout)
    assert "stripfol.cli" in loaded
    assert [m for m in HEAVY if m in loaded] == []


def test_importing_the_cli_compiles_no_annotation_string():
    # A string annotation on a typing.NamedTuple field, as
    # ``from __future__ import annotations`` makes every one, becomes a
    # typing.ForwardRef, which compiles it at class creation.
    code = (
        "import builtins, collections, json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "calls = collections.Counter()\n"
        "compile_ = builtins.compile\n"
        "def counting(*args, **kwargs):\n"
        "    calls[sys._getframe(1).f_globals.get('__name__')] += 1\n"
        "    return compile_(*args, **kwargs)\n"
        "builtins.compile = counting\n"
        "import stripfol.cli\n"
        "print(json.dumps(calls))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout).get("typing", 0) == 0
