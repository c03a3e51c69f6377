import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripfol import homeo
from stripfol.cli import main
from stripfol.core import SameSideGluingError, SurfaceError, build_surface, glue, strip
from stripfol.io import ParseError, leafspace_json, parse, render, render_dot, render_svg, serialize
from stripfol.leafspace import build_leaf_space

from fixtures import all_fixtures, cylinder, kaplan5
from _gen import random_surface


# ---------------------------------------------------------------------------
# parse / serialize


def test_round_trip_on_fixture_corpus():
    for name, s in all_fixtures().items():
        text = serialize(s)
        assert parse(text) == s, name
        assert serialize(parse(text)) == text, name


def test_round_trip_on_random_surfaces():
    rng = random.Random(30)
    for _ in range(40):
        s = random_surface(rng, connected=False)
        assert parse(serialize(s)) == s


def test_parse_minimal_document():
    s = parse('{"strips":[{"id":"A","lower":[],"upper":[]}],"gluings":[]}')
    assert s.strip_ids() == ("A",)
    assert s.strips[0].lower == () and s.strips[0].upper == ()


def test_parse_infinite_endpoints():
    text = serialize(cylinder())
    assert '"-inf"' in text and '"+inf"' in text
    assert parse(text) == cylinder()


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse('{"strips": [,]}')
    assert e.value.line == 1
    assert e.value.column is not None


def test_parse_error_names_the_path():
    with pytest.raises(ParseError) as e:
        parse('{"strips":[{"lower":[]}]}')
    assert "strips[0]" in str(e.value)


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"strips": 5}', "strips"),
        ('{"strips": [], "gluings": 3}', "gluings"),
        ('{"strips": null}', "strips"),
    ],
)
def test_parse_rejects_non_list_sections(text, path):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.path == path


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000 + "]" * 100000,  # nesting past the recursion limit
        "1" * 5000,  # an integer past the digit limit of int()
        '{"strips": [{"id": "A", "upper": [{"id": "u", "endpoints": [1%s, 2]}]}]}' % ("0" * 400),
    ],
    ids=["deep-nesting", "long-integer", "endpoint-overflow"],
)
def test_parse_refuses_oversized_values(text):
    with pytest.raises(ParseError):
        parse(text)


# Arbitrary JSON, and documents shaped like surfaces whose every field may be
# arbitrary JSON instead, so that the property reaches build_surface too.
_WORDS = ["-inf", "+inf", "A", "B", "x", "y", "z", "preserving", "reversing"]
_KEYS = ["id", "a", "b", "lower", "upper", "endpoints", "orientation"]
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_WORDS)
_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), kids, max_size=3),
    max_leaves=8,
)
_ids = st.sampled_from(_WORDS[2:7]) | _values
_intervals = _ids | st.fixed_dictionaries(
    {"id": _ids}, optional={"endpoints": st.lists(_scalars, max_size=3) | _values}
)
_strips = st.fixed_dictionaries(
    {"id": _ids},
    optional={"lower": st.lists(_intervals, max_size=3), "upper": st.lists(_intervals, max_size=3)},
)
_gluings = st.fixed_dictionaries(
    {"a": _ids, "b": _ids}, optional={"id": _ids, "orientation": _values}
)
_documents = _values | st.fixed_dictionaries(
    {},
    optional={
        "strips": st.lists(_strips | _values, max_size=3) | _values,
        "gluings": st.lists(_gluings | _values, max_size=3) | _values,
    },
)


@settings(max_examples=120, deadline=None)
@given(_documents)
def test_parse_raises_only_parse_or_surface_errors(doc):
    # any JSON document is either a surface or refused with a named error
    try:
        parse(json.dumps(doc))
    except (ParseError, SurfaceError):
        pass


def test_same_side_gluing_surfaces_with_ids():
    text = json.dumps(
        {
            "strips": [{"id": "A", "lower": [], "upper": [{"id": "A.u0"}, {"id": "A.u1"}]}],
            "gluings": [{"a": "A.u0", "b": "A.u1", "orientation": "preserving"}],
        }
    )
    with pytest.raises(SameSideGluingError) as e:
        parse(text)
    assert "A.u0" in str(e.value) and "A.u1" in str(e.value)


def test_gluing_ids_synthesized_when_absent():
    text = json.dumps(
        {
            "strips": [
                {"id": "A", "upper": [{"id": "A.u0"}]},
                {"id": "B", "lower": [{"id": "B.l0"}]},
            ],
            "gluings": [{"a": "A.u0", "b": "B.l0"}],
        }
    )
    s = parse(text)
    assert s.gluings[0].id == "g0"


# ---------------------------------------------------------------------------
# rendering


def test_kaplan5_dot_counts():
    dot = render_dot(build_leaf_space(kaplan5()))
    node_lines = [l for l in dot.splitlines() if "[shape=" in l]
    assert len(node_lines) == 9
    edges = [l for l in dot.splitlines() if " -- " in l]
    solid = [l for l in edges if "dashed" not in l]
    dashed = [l for l in edges if "dashed" in l]
    assert len(solid) == 8
    assert len(dashed) == 3
    for pair in (("alpha", "beta"), ("beta", "gamma"), ("delta", "gamma")):
        assert any(pair[0] in l and pair[1] in l for l in dashed)


def test_cylinder_dot_counts():
    dot = render_dot(build_leaf_space(cylinder()))
    node_lines = [l for l in dot.splitlines() if "[shape=" in l]
    assert len(node_lines) == 2
    edges = [l for l in dot.splitlines() if " -- " in l]
    assert len(edges) == 2  # both arc ends touch the seam point


def test_single_strip_svg_has_one_rectangle_no_bold_segments():
    from fixtures import open_strip

    svg = render_svg(open_strip())
    assert svg.count("<rect") == 1
    assert "<line" not in svg


def test_svg_marks_unbounded_intervals():
    svg = render_svg(cylinder())
    assert "&#8592;" in svg and "&#8594;" in svg


def test_svg_rows_go_piece_by_piece():
    # two pieces interleaved in strip order; the first splits at the special
    # points a, b into the components A, D+C (a chain listed from D) and B
    s = build_surface(
        [
            strip("A", upper=["A.u0", "A.u1"]),
            strip("X", upper=["X.u0"]),
            strip("D", lower=["D.l0"]),
            strip("B", lower=["B.l0"]),
            strip("C", lower=["C.l0"], upper=["C.u0"]),
            strip("Y", lower=["Y.l0"]),
        ],
        [glue("a", "A.u0", "B.l0"), glue("b", "A.u1", "C.l0"), glue("c", "C.u0", "D.l0"), glue("x", "X.u0", "Y.l0")],
    )
    svg = render_svg(s)
    texts = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
    assert texts == ["A", "D", "C", "B", "X", "Y", "a", "b", "c", "x"]
    assert hashlib.sha256(svg.encode()).hexdigest() == "fc661c0b4986cb3324d1653c5db9b4b42ee1fb1f56cb197adbfd8f58e8a15b0c"


_ODD_IDS_DOC = {
    "strips": [
        {"id": 'A<&"B', "lower": [], "upper": ['u"0', 'v"1']},
        {"id": "C\\D", "lower": ["l>0"], "upper": []},
    ],
    "gluings": [{"id": "g<1>", "a": 'u"0', "b": "l>0", "orientation": "reversing"}],
}
_DOT_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


def test_cli_render_escapes_ids(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(_ODD_IDS_DOC))

    code, svg = run_cli(capsys, "render", str(path))
    assert code == 0
    texts = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
    assert {'A<&"B', "C\\D", "g<1>"} <= set(texts)

    code, dot = run_cli(capsys, "render", str(path), "--format", "dot")
    assert code == 0
    names = set()
    for line in dot.splitlines()[1:-1]:
        # every quote opens or closes a DOT quoted string, so none is left over
        assert '"' not in _DOT_QUOTED.sub("", line), line
        names.update(re.sub(r"\\(.)", r"\1", q) for q in _DOT_QUOTED.findall(line))
    assert {'strip:A<&"B', "strip:C\\D", "pt:g<1>", 'pt:v"1', 'A<&"B', "C\\D", "g<1>", 'v"1'} <= names


@pytest.mark.parametrize("bad_id", ["A\u0001", "A\ud800"])
@pytest.mark.parametrize(
    "argv",
    [["render"], ["render", "--format", "dot"], ["leafspace", "--format", "dot"], ["realize", "--component", "S"]],
)
def test_cli_refuses_ids_that_cannot_be_written(tmp_path, monkeypatch, bad_id, argv):
    """Through a strict UTF-8 stdout, as on a terminal or a pipe, an id that
    SVG or UTF-8 cannot carry ends in one BadId line, not a traceback."""
    path = tmp_path / "bad_id.json"
    path.write_text(json.dumps({"strips": [{"id": "S", "upper": [bad_id]}]}))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main([argv[0], str(path), *argv[1:]])
    except SystemExit as e:
        code = e.code
    stdout.flush()
    [line] = stdout.buffer.getvalue().decode("utf-8").splitlines()
    assert code == 1
    assert json.loads(line)["rule"] == "BadId"


def test_render_deterministic():
    for obj in (kaplan5(), cylinder()):
        assert render(obj, "svg") == render(obj, "svg")
        assert render(obj, "dot") == render(obj, "dot")
    ls = build_leaf_space(kaplan5())
    assert leafspace_json(ls) == leafspace_json(ls)


# ---------------------------------------------------------------------------
# CLI


# a fresh ``python -m stripfol.cli`` reads the package from the source tree
_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def run_cli(capsys, *argv) -> tuple[int, str]:
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr().out
    return code, out


def test_cli_validate_ok(fixture_dir, capsys):
    code, out = run_cli(capsys, "validate", str(fixture_dir / "kaplan5.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["connected"]
    assert len(rep["glued_leaves"]) == 4


def test_cli_validate_disconnected_warns(tmp_path, capsys):
    from stripfol.core import build_surface, strip

    doc = tmp_path / "two.json"
    doc.write_text(serialize(build_surface([strip("A"), strip("B")], [])))
    code, out = run_cli(capsys, "validate", str(doc))
    assert code == 0
    rep = json.loads(out)
    assert not rep["connected"]
    assert any("Disconnected" in w for w in rep["warnings"])
    assert len(rep["components"]) == 2


def test_cli_validate_bad_sameside(tmp_path, capsys):
    bad = tmp_path / "bad_sameside.json"
    bad.write_text(
        json.dumps(
            {
                "strips": [{"id": "A", "upper": [{"id": "u0"}, {"id": "u1"}]}],
                "gluings": [{"a": "u0", "b": "u1"}],
            }
        )
    )
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["rule"] == "SameSideGluing"


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_cli_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"strips": [{"id": "\xff"}]}')
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_cli_usage_error_exit_code(capsys):
    code, out = run_cli(capsys, "frobnicate")
    assert code == 3
    [line] = out.splitlines()
    assert json.loads(line)["error"] == "usage"


def test_cli_help_is_not_an_error(capsys):
    code, out = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: stripfol")


@pytest.mark.parametrize(
    "doc",
    [
        # a gluing named like an unglued interval
        {
            "strips": [{"id": "A", "upper": ["x", "y"]}, {"id": "B", "lower": ["z"]}],
            "gluings": [{"id": "y", "a": "x", "b": "z"}],
        },
        # a strip named like an earlier interval
        {"strips": [{"id": "A", "upper": ["B"]}, {"id": "B", "lower": ["q"]}]},
    ],
    ids=["gluing-as-interval", "strip-as-interval"],
)
@pytest.mark.parametrize("command", ["validate", "leafspace"])
def test_cli_refuses_colliding_ids(tmp_path, capsys, doc, command):
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, command, str(path))
    assert code == 1
    [line] = out.splitlines()
    rep = json.loads(line)
    assert (rep["error"], rep["rule"]) == ("validation", "DuplicateId")


def test_cli_decompose_kaplan5(fixture_dir, capsys):
    code, out = run_cli(
        capsys, "decompose", str(fixture_dir / "kaplan5.json"), "--mode", "with-boundary"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["cut"] == ["alpha", "beta", "gamma", "delta"]
    assert len(rep["components"]) == 5
    assert all(c["class"] == "open-strip" for c in rep["components"])
    assert rep["cycle_check_ok"]


def test_cli_decompose_keeps_a_retained_leaf_with_an_empty_id(tmp_path, capsys):
    # the retained lower leaf of the chain A-B is the interval with id "";
    # B's upper side holds two intervals, so its leaves are special and cut
    doc = tmp_path / "empty-id.json"
    doc.write_text(
        json.dumps(
            {
                "strips": [
                    {"id": "A", "lower": [{"id": ""}], "upper": ["A.u0"]},
                    {"id": "B", "lower": ["B.l0"], "upper": ["B.u0", "B.u1"]},
                ],
                "gluings": [{"id": "g", "a": "A.u0", "b": "B.l0"}],
            }
        )
    )
    code, out = run_cli(capsys, "decompose", str(doc), "--mode", "interior")
    assert code == 0
    (comp,) = json.loads(out)["components"]
    assert comp["class"] == "half-closed-strip"
    assert comp["retained"] == {"lower": "", "upper": None}


def test_cli_iso_exit_codes(fixture_dir, capsys):
    code, out = run_cli(
        capsys,
        "iso",
        str(fixture_dir / "kaplan5.json"),
        str(fixture_dir / "kaplan5_mirror.json"),
    )
    assert code == 0 and json.loads(out)["isomorphic"]
    code, out = run_cli(
        capsys,
        "iso",
        str(fixture_dir / "cylinder.json"),
        str(fixture_dir / "moebius.json"),
    )
    assert code == 1 and not json.loads(out)["isomorphic"]


def test_cli_canon(fixture_dir, capsys):
    code, out = run_cli(capsys, "canon", str(fixture_dir / "two_strip_chain.json"))
    assert code == 0
    assert '"P+Q"' in out
    assert "code" in out


def test_cli_leafspace_formats(fixture_dir, capsys):
    code, out = run_cli(capsys, "leafspace", str(fixture_dir / "kaplan5.json"))
    assert code == 0
    doc = json.loads(out)
    assert sorted(p["id"] for p in doc["points"]) == ["alpha", "beta", "delta", "gamma"]
    code, out = run_cli(
        capsys, "leafspace", str(fixture_dir / "kaplan5.json"), "--format", "dot"
    )
    assert code == 0 and out.startswith("graph")


def test_cli_render(fixture_dir, capsys):
    code, out = run_cli(capsys, "render", str(fixture_dir / "kaplan5.json"))
    assert code == 0 and out.startswith("<svg")
    code, out = run_cli(
        capsys, "render", str(fixture_dir / "kaplan5.json"), "--format", "dot"
    )
    assert code == 0 and out.startswith("graph")


def test_cli_leafspace_and_render_print_the_same_dot(fixture_dir, tmp_path, capsys):
    # both commands write the leaf-space graph, on every fixture and on a
    # surface of two pieces
    split = build_surface(
        [strip("A", upper=["A.u0", "A.u1"]), strip("B", lower=["B.l0"]), strip("C", ["C.l0"], ["C.u0"])],
        [glue("g", "A.u0", "B.l0"), glue("h", "C.l0", "C.u0", "reversing")],
    )
    assert len(split._partition) == 2
    (tmp_path / "split.json").write_text(serialize(split))
    paths = [fixture_dir / f"{name}.json" for name in all_fixtures()] + [tmp_path / "split.json"]
    for path in paths:
        code, leafspace = run_cli(capsys, "leafspace", str(path), "--format", "dot")
        assert code == 0 and leafspace.startswith("graph leafspace {")
        assert run_cli(capsys, "render", str(path), "--format", "dot") == (0, leafspace)
        assert leafspace == render_dot(build_leaf_space(parse(path.read_text())))


def test_cli_realize_csv(fixture_dir, capsys):
    code, out = run_cli(
        capsys,
        "realize",
        str(fixture_dir / "kaplan5.json"),
        "--component",
        "B",
        "--side",
        "upper",
        "--samples",
        "8",
        "--depth",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x_in,y_in,x_out,y_out,leaf_id"
    base_rows = [l for l in lines[1:] if l.split(",")[1] == "-1"]
    assert base_rows
    assert {r.split(",")[4] for r in base_rows} == {"alpha", "beta"}
    interior = [l for l in lines[1:] if l.split(",")[1] != "-1"]
    for row in interior:
        x_in, y_in, x_out, y_out, leaf = row.split(",")
        assert leaf.startswith("level:")
        assert abs(float(y_in) - float(y_out)) < 1e-9


@pytest.mark.parametrize(
    "upper, spans",
    [
        ([["-inf", 0], [1, "+inf"]], [(-1.0, 0.0), (1.0, 2.0)]),
        ([["-inf", 0], [0.5, 3]], [(-1.0, 0.0), (0.5, 3.0)]),
        ([["-inf", "+inf"]], [(0.0, 1.0)]),
    ],
)
def test_cli_realize_spans_of_unbounded_leaves(tmp_path, capsys, upper, spans):
    """(-inf, b) is realized on (b-1, b), (a, +inf) on (a, a+1), the full line on (0, 1)."""
    doc = {"strips": [{"id": "S", "upper": [{"id": f"u{k}", "endpoints": e} for k, e in enumerate(upper)]}]}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "realize", str(path), "--component", "S", "--side", "upper", "--samples", "4")
    assert code == 0
    base = [row.split(",") for row in out.splitlines()[1:] if row.split(",")[1] == "-1"]
    assert [leaf for *_, leaf in base] == [f"u{k}" for k in range(len(upper)) for _ in range(3)]
    for _, _, x_out, _, leaf in base:
        lo, hi = spans[int(leaf[1:])]
        assert lo < float(x_out) < hi


@pytest.mark.parametrize(
    "fixture, flags",
    [
        ("cylinder", ["--component", "A"]),
        ("moebius", ["--component", "A"]),
        ("kaplan5", ["--component", "B", "--side", "upper", "--depth", "0"]),
        ("kaplan5", ["--component", "B", "--side", "upper", "--samples", "0"]),
        ("kaplan5", ["--component", "B", "--side", "upper", "--samples", "-3"]),
        ("kaplan5", ["--component", "nowhere"]),
        ("kaplan5", ["--component", "B", "--samples", "abc"]),
        ("kaplan5", ["--side", "upper"]),
    ],
)
def test_cli_realize_refuses_bad_requests(fixture_dir, capsys, fixture, flags):
    code, out = run_cli(capsys, "realize", str(fixture_dir / f"{fixture}.json"), *flags)
    assert code == 3
    [line] = out.splitlines()
    assert json.loads(line)["error"] == "usage"


def test_cli_deterministic_outputs(fixture_dir, capsys):
    for cmd in (
        ["decompose", str(fixture_dir / "kaplan5.json")],
        ["leafspace", str(fixture_dir / "kaplan5.json"), "--format", "dot"],
        ["render", str(fixture_dir / "horseshoe.json")],
        ["canon", str(fixture_dir / "kaplan5.json")],
        ["realize", str(fixture_dir / "kaplan5.json"), "--component", "B", "--side", "upper", "--samples", "6"],
    ):
        _, out1 = run_cli(capsys, *cmd)
        _, out2 = run_cli(capsys, *cmd)
        assert out1 == out2


def test_cli_realize_refuses_a_depth_past_float_resolution(fixture_dir, capsys):
    # the dyadic sub-segments of the trapezoid collapse in floating point
    path = str(fixture_dir / "kaplan5.json")
    code, out = run_cli(capsys, "realize", path, "--component", "B", "--side", "upper", "--depth", "50")
    assert code == 3
    [line] = out.splitlines()
    rep = json.loads(line)
    assert rep["error"] == "usage"
    assert "NonPositiveClearanceError" in rep["message"]
    code, out = run_cli(capsys, "realize", path, "--component", "B", "--side", "upper", "--depth", "45")
    assert code == 0
    assert out.startswith("x_in,y_in,x_out,y_out,leaf_id\n")


@pytest.mark.parametrize("ends", [[-1e300, 1e300], [-1e300, 1e299], [1e308, 1.7e308], [0.0, 1.4e154]])
def test_cli_realize_refuses_a_span_too_wide_for_floats(tmp_path, capsys, ends):
    # the collar maps multiply the span's width by an offset across it: at
    # [-1e300, 1e300] that overflowed, and the base rows printed x_out = inf
    doc = {"strips": [{"id": "S", "lower": [{"id": "a", "endpoints": ends}]}], "gluings": []}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "realize", str(path), "--component", "S", "--side", "lower", "--samples", "3", "--depth", "2")
    assert code == 3
    [line] = out.splitlines()
    assert json.loads(line) == {
        "error": "usage",
        "message": f"BadIntervalError: leaf span ({ends[0]}, {ends[1]}) is too wide: its squared width overflows",
    }


@pytest.mark.parametrize("ends", [[1e17, "+inf"], ["-inf", -1e17], [2**53, "+inf"]])
def test_cli_realize_refuses_an_unbounded_leaf_whose_unit_span_rounds_to_a_point(tmp_path, capsys, ends):
    # an unbounded leaf is realized on a unit span at its finite end; from
    # 2**53 on that span rounds to a point, and the collar's scale divided by
    # its zero width
    doc = {"strips": [{"id": "S", "upper": [{"id": "u0", "endpoints": ends}]}]}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "realize", str(path), "--component", "S", "--side", "upper")
    assert code == 3
    end = float(ends[0] if ends[1] == "+inf" else ends[1])
    assert json.loads(out) == {
        "error": "usage",
        "message": f"BadIntervalError: leaf span ({end}, {end}) is empty: an unbounded leaf's unit span rounds to a point",
    }


def test_cli_realize_ends_every_narrow_span_in_a_named_rule(tmp_path, capsys):
    # spans 10**-j at three offsets, every depth 1-8 and --samples 2-16.  The
    # chart rectangle of [0, 1e-17] collapses to one float step once
    # straightened, and realize refused its own base points as outside the
    # map domain.  Now such a base grid is refused as too narrow, every run
    # ends in exit 0 or a named rule, and an end that rounds onto the other
    # makes the document itself invalid.  Every run realized before the
    # narrow-span refusal is still realized (4,372).
    outcomes = collections.Counter()
    for j in range(1, 21):
        for offset in (0.0, 1.0, 1e6):
            ends = [offset, offset + 10.0**-j]
            doc = {"strips": [{"id": "S", "lower": [], "upper": [{"id": "S.u0", "endpoints": ends}]}], "gluings": []}
            path = tmp_path / f"narrow-{j}-{offset}.json"
            path.write_text(json.dumps(doc))
            narrow = f"leaf span ({ends[0]}, {ends[1]}) is too narrow: a base point rounds onto an end of its chart rectangle"
            for depth in range(1, 9):
                for samples in range(2, 17):
                    argv = ("realize", str(path), "--component", "S", "--side", "upper")
                    code, out = run_cli(capsys, *argv, "--samples", str(samples), "--depth", str(depth))
                    if ends[0] == ends[1]:
                        assert (code, json.loads(out)["rule"]) == (1, "BadEndpoints")
                        outcomes["BadEndpoints"] += 1
                    elif code == 0:
                        outcomes["realized"] += 1
                    else:
                        kind, _, message = json.loads(out)["message"].partition(": ")
                        assert code == 3 and issubclass(getattr(homeo, kind), homeo.HomeoError), message
                        assert kind != "HomeoError" and "map domain" not in message, message
                        outcomes["narrow" if message == narrow else kind] += 1
    assert outcomes == {
        "realized": 4372,
        "BadEndpoints": 1800,
        "narrow": 226,
        "BadIntervalError": 360,
        "NonPositiveClearanceError": 315,
        "NonIncreasingInputError": 120,
        "GraphsIntersectError": 7,
    }


def test_cli_realize_keeps_a_wide_span_finite(tmp_path, capsys):
    # just inside the bound every row is finite and the base rows stay on the leaf
    doc = {"strips": [{"id": "S", "lower": [{"id": "a", "endpoints": [0.0, 1.3e154]}]}], "gluings": []}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "realize", str(path), "--component", "S", "--side", "lower", "--samples", "3", "--depth", "2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(math.isfinite(float(v)) for row in rows for v in row[:4])
    base = [row for row in rows if row[1] == "-1"]
    assert base and all(row[4] == "a" and 0.0 < float(row[2]) < 1.3e154 for row in base)


def test_cli_realize_refuses_a_huge_depth_at_once(fixture_dir, capsys):
    # the refusal comes at the first collapsed sub-segment, before any work
    # that grows with the depth
    path = str(fixture_dir / "kaplan5.json")
    start = time.perf_counter()
    code, out = run_cli(capsys, "realize", path, "--component", "B", "--side", "upper", "--depth", str(10**9))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out) == {
        "error": "usage",
        "message": "NonPositiveClearanceError: clearance is not strictly positive on [5.551115123125783e-17, 1.0]",
    }
    assert run_cli(capsys, "realize", path, "--component", "B", "--side", "upper", "--depth", "100") == (code, out)


def test_cli_parser_reused_across_calls(fixture_dir, capsys):
    path = str(fixture_dir / "kaplan5.json")
    calls = [
        ["realize", path, "--component", "B", "--samples", "abc"],
        ["--help"],
        ["leafspace", path, "--format", "dot"],
        ["leafspace", path],
    ]
    # each call alone in a fresh interpreter, then all of them in this one
    fresh = []
    for argv in calls:
        run = subprocess.run([sys.executable, "-m", "stripfol.cli", *argv], capture_output=True, text=True, env=_ENV)
        fresh.append((run.returncode, run.stdout))
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert reused == fresh
    # no subcommand default leaks from the dot call into the next one
    code, out = reused[-1]
    assert code == 0 and json.loads(out)["arcs"] == ["A", "B", "C", "D", "E"]


# The usage contract: argv -> (exit code, stdout).  A refusal of the
# arguments is one JSON line whose message is argparse's text (Python 3.11);
# "{K}" is the kaplan5 document and "{M}" its mirror.
_COMMANDS_CHOICE = "'validate', 'leafspace', 'decompose', 'canon', 'iso', 'realize', 'render'"
_USAGE_REFUSALS = [
    ([], "the following arguments are required: command"),
    (["x"], f"argument command: invalid choice: 'x' (choose from {_COMMANDS_CHOICE})"),
    (["--", "validate", "{K}"], f"argument command: invalid choice: '--' (choose from {_COMMANDS_CHOICE})"),
    (["-x", "validate", "{K}"], "unrecognized arguments: -x"),
    (["validate"], "the following arguments are required: file"),
    (["iso", "{K}"], "the following arguments are required: file2"),
    (["realize"], "the following arguments are required: file, --component"),
    (["realize", "{K}", "--side", "upper"], "the following arguments are required: --component"),
    (["leafspace", "{K}", "--format", "xml"], "argument --format: invalid choice: 'xml' (choose from 'dot', 'json')"),
    (["render", "{K}", "--format=xml"], "argument --format: invalid choice: 'xml' (choose from 'svg', 'dot')"),
    (["decompose", "{K}", "--mode", "all"],
     "argument --mode: invalid choice: 'all' (choose from 'interior', 'with-boundary')"),
    (["realize", "{K}", "--component", "B", "--samples", "2.5"], "argument --samples: invalid int value: '2.5'"),
    (["realize", "{K}", "--component", "B", "--depth="], "argument --depth: invalid int value: ''"),
    (["validate", "a", "b"], "unrecognized arguments: b"),
    (["validate", "{K}", "--no-such-flag", "x"], "unrecognized arguments: --no-such-flag x"),
    (["iso", "{K}", "--", "{M}", "{K}"], "unrecognized arguments: {K}"),
    (["realize", "{K}", "--component"], "argument --component: expected one argument"),
    (["realize", "{K}", "--component", "--side", "upper"], "argument --component: expected one argument"),
    (["realize", "{K}", "--component", "B", "--s", "upper"], "ambiguous option: --s could match --side, --samples"),
    (["realize", "{K}", "--s=2", "--component", "B"], "ambiguous option: --s=2 could match --side, --samples"),
    (["realize", "{K}", "--component", "B", "--samples", "-3"], "--samples must be at least 1"),
    (["realize", "{K}", "--component", "B", "--depth", "0"], "--depth must be at least 1"),
    (["--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
]


def _contract_argv(argv, fixture_dir):
    docs = {"{K}": str(fixture_dir / "kaplan5.json"), "{M}": str(fixture_dir / "kaplan5_mirror.json")}
    return [docs.get(a, a) for a in argv]


@pytest.mark.parametrize("argv, message", _USAGE_REFUSALS)
def test_cli_usage_refusals(fixture_dir, capsys, argv, message):
    argv = _contract_argv(argv, fixture_dir)
    message = message.replace("{K}", str(fixture_dir / "kaplan5.json"))
    assert run_cli(capsys, *argv) == (3, json.dumps({"error": "usage", "message": message}) + "\n")


def test_cli_reads_a_double_dash_after_equals_as_the_value(fixture_dir, capsys):
    # argparse dropped it and stored an empty list: realize read that as the
    # upper side, and "--samples=--" ended in a traceback
    path = str(fixture_dir / "kaplan5.json")
    for option, choices in (("--side", " (choose from 'lower', 'upper')"), ("--samples", "")):
        message = f"argument {option}: invalid {'choice' if choices else 'int value'}: '--'{choices}"
        got = run_cli(capsys, "realize", path, "--component", "B", f"{option}=--")
        assert got == (3, json.dumps({"error": "usage", "message": message}) + "\n")


# accepted spellings -> the spelling whose output they must print
_USAGE_FORMS = [
    (["realize", "{K}", "--comp", "B", "--samples=2"], ["realize", "{K}", "--component", "B", "--samples", "2"]),
    (["realize", "--component=B", "--side=upper", "--depth=2", "--samples", "3", "{K}"],
     ["realize", "{K}", "--component", "B", "--side", "upper", "--depth", "2", "--samples", "3"]),
    (["realize", "--component", "B", "--samples", "2", "--", "{K}"], ["realize", "{K}", "--component", "B", "--samples", "2"]),
    (["validate", "--", "{K}"], ["validate", "{K}"]),
    (["iso", "{K}", "--", "{M}"], ["iso", "{K}", "{M}"]),
    (["leafspace", "--format", "dot", "{K}", "--format", "json"], ["leafspace", "{K}"]),
    (["decompose", "{K}", "--mo", "interior", "--mode", "with-boundary"], ["decompose", "{K}"]),
    (["realize", "{K}", "--component", "nowhere", "--component", "B", "--sa", "2"],
     ["realize", "{K}", "--component", "B", "--samples", "2"]),
    (["render", "{K}", "--f", "dot"], ["render", "{K}", "--format", "dot"]),
]


@pytest.mark.parametrize("argv, same_as", _USAGE_FORMS)
def test_cli_accepts_argparse_spellings(fixture_dir, capsys, argv, same_as):
    got = run_cli(capsys, *_contract_argv(argv, fixture_dir))
    want = run_cli(capsys, *_contract_argv(same_as, fixture_dir))
    assert want[0] in (0, 1) and want[1]
    assert got == want


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["--he"], ["-x", "-h"], ["validate", "-h"], ["leafspace", "--help"], ["decompose", "-h"],
     ["canon", "-h"], ["iso", "--help"], ["realize", "-h"], ["realize", "{K}", "--h"], ["render", "{K}", "-h", "-x"]],
)
def test_cli_help_exits_zero(fixture_dir, capsys, argv):
    code, out = run_cli(capsys, *_contract_argv(argv, fixture_dir))
    assert code == 0 and out.startswith("usage: stripfol")


# Mutations of the fixture documents: a value anywhere replaced by arbitrary
# JSON or by another value of the document, a key or list element dropped, a
# list element doubled, an id copied onto another, or the text cut.
_FIXTURE_DOCS = {name: json.loads(serialize(s)) for name, s in all_fixtures().items()}
_CONTRACT_COMMANDS = (
    ["validate"],
    ["leafspace"],
    ["decompose"],
    ["canon"],
    ["iso"],
    ["realize", "--samples", "3", "--depth", "2"],
    ["render"],
    ["render", "--format", "dot"],
)


def _nodes(doc):
    """Every (container, key) slot of a JSON document, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _nodes(value)


@st.composite
def _mutants(draw):
    name = draw(st.sampled_from(sorted(_FIXTURE_DOCS)))
    doc = json.loads(json.dumps(_FIXTURE_DOCS[name]))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_nodes(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        kind = draw(st.sampled_from(["replace", "transplant", "drop", "double", "copy-id"]))
        if kind == "replace":
            container[key] = draw(_values)
        elif kind == "transplant":
            c, k = draw(st.sampled_from(slots))
            container[key] = json.loads(json.dumps(c[k]))
        elif kind == "drop":
            del container[key]
        elif kind == "double" and isinstance(container, list):
            container.insert(key, json.loads(json.dumps(container[key])))
        elif kind == "copy-id":
            ids = [c[k] for c, k in slots if k == "id"]
            # a copy: an id may be a container, which shared could hold itself
            container[key] = json.loads(json.dumps(draw(st.sampled_from(ids)))) if ids else None
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return name, text


def _main_out(argv) -> tuple[int, str]:
    """``run_cli`` without capsys, which hypothesis cannot reset between examples."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(_mutants())
def test_cli_contract_on_mutated_fixture_documents(fixture_dir, tmp_path_factory, mutant):
    name, text = mutant
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(text)
    component = _FIXTURE_DOCS[name]["strips"][0]["id"]
    for command in _CONTRACT_COMMANDS:
        argv = [command[0], str(path)] + command[1:]
        if command[0] == "iso":
            argv.append(str(fixture_dir / f"{name}.json"))
        elif command[0] == "realize":
            argv += ["--component", component]
        code, out = _main_out(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 0 or (command[0] == "iso" and out == '{"isomorphic": false}\n'):
            continue
        # a refusal: exactly one JSON error object
        lines = out.splitlines()
        assert len(lines) == 1, (argv, out[:200])
        rep = json.loads(lines[0])
        assert isinstance(rep, dict) and "error" in rep, (argv, rep)
