"""The JSON writers against their reference, ``json.dumps(report, indent=2)``.

``serialize``, ``leafspace_json`` and the ``validate`` and ``decompose``
reports are each written by a writer that knows the document's shape.  Each
document must equal ``json.dumps(reference, indent=2)`` byte for byte (plus
the line break that ``print`` or the writer adds), with the reference dicts
built in ``tests/_oracles.py``.  The ``validate`` reference is the dict that
``validate_class_f`` returns.
"""

import contextlib
import io
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripfol.cli import main
from stripfol.core import (
    _BAD_ID_CHAR,
    GluingSpec,
    Interval,
    ModelStripSpec,
    build_surface,
    is_connected,
    validate_class_f,
)
from stripfol.decomposition import Mode
from stripfol.io import leafspace_json, parse, serialize
from stripfol.leafspace import build_leaf_space

from _gen import random_surface
from _oracles import decompose_reference, leafspace_reference, serialize_reference
from fixtures import hostile_ids, kaplan5

# ids: any string that build_surface accepts, so none holds a BadId character
_ids = st.one_of(
    st.text(),
    st.text(st.characters(exclude_categories=())),  # lone surrogates, removed below
    st.sampled_from(["", "tab\tnew\nline", 'q"b\\s/', "\u00e9\u2713\U0001f600", "line\u2028sep", "\ud83d\ude00", "<a&b>"]),
).map(lambda s: re.sub(_BAD_ID_CHAR, "", s))
_ends = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-math.inf, math.inf, -0.0, 5e-324, 1e300, -1e300, 2.0**53 + 1.0, 0.1, 1e16]),
)


@st.composite
def _surfaces(draw):
    """A random ``tests/_gen`` surface, connected or not, with drawn ids and
    endpoints on some of its sides."""
    connected = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    s = random_surface(rng, max_strips=5, max_intervals=3, p_glue=0.6 if connected else 0.3, connected=connected)
    old = [*s.strip_ids(), *(iv.id for iv in s.intervals()), *(g.id for g in s.gluings)]
    new = dict(zip(old, draw(st.lists(_ids, min_size=len(old), max_size=len(old), unique=True))))
    strips = []
    for spec in s.strips:
        sides = []
        for ivs in (spec.lower, spec.upper):
            xs = None
            if ivs and draw(st.booleans()):
                xs = sorted(draw(st.lists(_ends, min_size=2 * len(ivs), max_size=2 * len(ivs), unique=True)))
            sides.append(
                tuple(
                    Interval(new[iv.id], None if xs is None else (xs[2 * k], xs[2 * k + 1]))
                    for k, iv in enumerate(ivs)
                )
            )
        strips.append(ModelStripSpec(new[spec.id], *sides))
    gluings = [GluingSpec(new[g.id], new[g.first], new[g.second], g.orientation) for g in s.gluings]
    return build_surface(strips, gluings)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _check_writers(surface, path) -> None:
    assert serialize(surface) == json.dumps(serialize_reference(surface), indent=2) + "\n"
    ls = build_leaf_space(surface)
    assert leafspace_json(ls) == json.dumps(leafspace_reference(ls), indent=2) + "\n"
    path.write_text(serialize(surface), encoding="utf-8")
    assert _stdout(["validate", str(path)]) == json.dumps(validate_class_f(surface), indent=2) + "\n"
    if is_connected(surface):  # decompose refuses a disconnected surface
        for mode in Mode:
            got = _stdout(["decompose", str(path), "--mode", mode.value])
            assert got == json.dumps(decompose_reference(surface, mode), indent=2) + "\n"


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writers") / "doc.json"


@settings(max_examples=400, deadline=None)
@given(_surfaces())
def test_dumps_equals_indented_json_dumps(doc_path, surface):
    _check_writers(surface, doc_path)


def _doc(strips, gluings=()):
    return {"strips": strips, "gluings": list(gluings)}


# empty documents, sides and lists, and hostile ids and endpoints
EDGE_CASES = [
    {},
    _doc([{"id": "A"}]),  # empty sides: empty cut, interface and closure lists
    _doc([{"id": "A", "lower": [], "upper": ["u"]}]),
    _doc(
        [
            {"id": "A", "lower": [{"id": "A.l", "endpoints": ["-inf", "+inf"]}], "upper": [{"id": "A.u", "endpoints": ["-inf", "+inf"]}]},
        ],
        [{"id": "seam", "a": "A.l", "b": "A.u", "orientation": "reversing"}],
    ),  # one cycle component: a monodromy, no closures
    _doc(
        [{"id": "A", "lower": [{"id": ""}], "upper": ["A.u0"]}, {"id": "B", "lower": ["B.l0"], "upper": ["B.u0", "B.u1"]}],
        [{"id": "g", "a": "A.u0", "b": "B.l0"}],
    ),  # a retained leaf whose id is empty, and an interface
    _doc(
        [
            {
                "id": "E",
                "upper": [
                    {"id": "e0", "endpoints": [-1e300, -0.0]},
                    {"id": "e1", "endpoints": [5e-324, 0.1]},
                    {"id": "e2", "endpoints": [1.0, 2**53 + 1.0]},
                    {"id": "e3", "endpoints": [1e300, "+inf"]},
                ],
            }
        ]
    ),
    json.loads(serialize(hostile_ids())),
    json.loads(serialize(kaplan5())),
    _doc([{"id": "A"}, {"id": "B", "lower": ["b0", "b1"]}]),  # disconnected: warnings
    _doc(
        [{"id": "A", "upper": ["a"]}, {"id": "B", "lower": ["b"]}, {"id": "C", "upper": ["c"]}],
        [{"id": "ab", "a": "a", "b": "b"}],
    ),
]


@pytest.mark.parametrize("obj", EDGE_CASES)
def test_dumps_equals_indented_json_dumps_on_empty_and_mixed_containers(doc_path, obj):
    _check_writers(parse(json.dumps(obj)), doc_path)


def test_integral_endpoints_are_ints_below_1e16_only():
    # float.__repr__ writes every digit below 1e16 and an exponent from
    # there on, where an int would spell out up to 309 digits
    ends = [(-1e300, -1e16), (-9999999999999998.0, 1e15), (2.0**53 + 1.0, 1e16), (1.5e16, 1e300)]
    lower = tuple(Interval(f"i{k}", e) for k, e in enumerate(ends))
    s = build_surface([ModelStripSpec("A", lower)])
    text = serialize(s)
    tokens = [line.strip().rstrip(",") for line in text.splitlines() if line.strip()[:1] in "-0123456789"]
    assert tokens == ["-1e+300", "-1e+16", "-9999999999999998", "1000000000000000", "9007199254740992", "1e+16", "1.5e+16", "1e+300"]
    assert [float(x) for x in tokens] == [x for e in ends for x in e]
    assert parse(text) == s
