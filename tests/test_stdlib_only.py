"""The package stays standard-library only, and cheap to import.

Every import under ``src/stripfol`` is relative or names a standard-library
module, and importing the CLI in a fresh interpreter loads nothing else.
Each ``stripfol`` command is a fresh process, so the import is part of its
wall time: the package keeps out ``dataclasses``, which alone loads
``inspect``, ``ast``, ``dis`` and ``tokenize``; the CLI parses its arguments
without ``argparse`` (and its ``gettext``), its records are
``collections.namedtuple``s, not ``typing.NamedTuple``s, and the realization
engine ``homeo`` loads only when ``realize`` runs.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# modules that most commands never use; a site hook may load typing first,
# so only the modules the import itself adds count
LAZY = ("argparse", "gettext", "typing", "stripfol.homeo")


@pytest.mark.parametrize("flags", [["-I"], ["-I", "-S"]])
def test_importing_the_cli_loads_no_parser_typing_or_homeo(flags):
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import stripfol.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    run = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout)
    assert "stripfol.cli" in loaded
    assert [m for m in LAZY if m in loaded] == []


def test_homeo_exports_resolve_to_homeo_objects():
    import stripfol
    from stripfol import homeo

    names = (
        "GraphsIntersectError HalfStripChart HalfStripMap NonIncreasingInputError PLFunction Trapezoid"
        " rectify_stages realize_half_strip roof_homeo shrink_leaf trapezoid_under_clearance uk_eval"
    ).split()
    assert all(getattr(stripfol, name) is getattr(homeo, name) for name in names)
    with pytest.raises(AttributeError):
        stripfol.no_such_name
    # nothing is cached on the package: a patched homeo attribute shows through
    original = homeo.realize_half_strip
    homeo.realize_half_strip = marker = object()
    try:
        assert stripfol.realize_half_strip is marker
    finally:
        homeo.realize_half_strip = original
    assert stripfol.realize_half_strip is original


def test_record_instances_have_no_dict():
    from stripfol.core import GluingSpec, Interval, ModelStripSpec, Orientation, Side
    from stripfol.decomposition import CycleCheckReport, component_closures, decompose
    from stripfol.homeo import HalfStripChart, LeafShrink, PLFunction, RoofMap, Trapezoid, realize_half_strip, rectify_stages
    from stripfol.leafspace import build_leaf_space

    from fixtures import horseshoe

    ls = build_leaf_space(horseshoe())
    [chain], _ = decompose(horseshoe())
    zero, one = PLFunction.constant(0.0), PLFunction.constant(1.0)
    records = [
        Interval("a", Side.LOWER, 0),
        ModelStripSpec("A"),
        GluingSpec("g", "a", "b", Orientation.PRESERVING),
        ls,
        ls.points[0],
        chain,
        component_closures(chain)[0],
        CycleCheckReport(True, ()),
        zero,
        Trapezoid(zero, one, (0.0, 1.0)),
        HalfStripChart(((0.0, 1.0, -0.5),), ((2.0, 3.0),)),
        rectify_stages([(zero, 0.0)]),
        RoofMap(Trapezoid(zero, one, (0.0, 1.0)), Trapezoid(zero, one, (0.0, 1.0))),
        LeafShrink(0.0, 1.0, 0.5),
    ]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
    # the one exception: eta keeps a __dict__, so that a tracer can wrap its
    # apply and invert on each instance
    lower, _, _ = component_closures(chain)
    assert hasattr(realize_half_strip(horseshoe(), chain, lower)[1], "__dict__")
