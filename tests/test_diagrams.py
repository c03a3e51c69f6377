"""The diagram writers against their references in ``tests/_oracles.py``.

``render_svg`` formats each distinct coordinate once and ``render_dot`` reads
the shared closure tuples of ``sorted_closures``.  Each diagram must equal
the one its reference writes, ``render_svg_reference`` or
``render_dot_reference``, byte for byte.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings

from stripfol.io import _draw_range, parse, render, render_dot, render_svg, serialize
from stripfol.leafspace import build_leaf_space

from _gen import connected_surface, random_surface
from _oracles import _draw_range as draw_range_reference
from _oracles import render_dot_reference, render_svg_reference
from test_dumps import EDGE_CASES, _surfaces


def _check_diagrams(surface) -> None:
    assert render_svg(surface) == render_svg_reference(surface)
    ls = build_leaf_space(surface)
    assert render_dot(ls) == render_dot_reference(ls)
    assert render(surface, "dot") == render_dot_reference(ls)


@settings(max_examples=300, deadline=None)
@given(_surfaces())
def test_diagrams_equal_their_references(surface):
    _check_diagrams(surface)


inf = math.inf
# ids that DOT and XML escape, endpoints past the drawing clamp and unbounded
MARKUP = {
    "strips": [
        {"id": 'a"b\\c', "lower": [{"id": "<l&>", "endpoints": [-inf, -20.5]}, {"id": "l2", "endpoints": [-3, 40]}]},
        {"id": "x<y>&z", "upper": [{"id": 'u"0', "endpoints": [-0.0, 0.125]}, {"id": "u\\1", "endpoints": [7, inf]}]},
        {"id": "plain", "lower": ["p0", "p1", "p2"], "upper": [{"id": "&amp;", "endpoints": [-inf, inf]}]},
    ],
    "gluings": [
        {"id": "<g1>", "a": "<l&>", "b": 'u"0', "orientation": "reversing"},
        {"id": 'g"2\\', "a": "l2", "b": "p1"},
        {"id": "g&3", "a": "u\\1", "b": "p2"},
    ],
}


def _generated():
    rng = random.Random(41)
    out = [serialize(connected_surface(rng, 60)), serialize(connected_surface(rng, 120, max_intervals=1))]
    out += [serialize(random_surface(rng, max_strips=12, p_glue=0.3, connected=False)) for _ in range(3)]
    return [json.loads(text) for text in out]


@pytest.mark.parametrize("doc", EDGE_CASES + [MARKUP] + _generated())
def test_diagrams_equal_their_references_on_edge_cases(doc):
    _check_diagrams(parse(json.dumps(doc)))


# Sides of several intervals that start at -inf and end at +inf: the least
# finite left end is then the second interval's (-2.5, on A's lower side) and
# the greatest finite right end the last but one's (4, on the same side), and
# both lie inside the drawing clamp, so a wrong range moves every coordinate.
UNBOUNDED_SIDES = {
    "strips": [
        {
            "id": "A",
            "lower": [
                {"id": "a0", "endpoints": ["-inf", -3]},
                {"id": "a1", "endpoints": [-2.5, 4]},
                {"id": "a2", "endpoints": [5, "+inf"]},
            ],
            "upper": [{"id": "a3", "endpoints": ["-inf", -1]}, {"id": "a4", "endpoints": [2, "+inf"]}],
        },
        {"id": "B", "lower": ["b0", "b1"], "upper": [{"id": "b2", "endpoints": ["-inf", "+inf"]}]},
    ],
    "gluings": [
        {"id": "g", "a": "a1", "b": "b0", "orientation": "reversing"},
        {"id": "h", "a": "a4", "b": "b2"},
    ],
}


def test_draw_range_reads_the_ends_of_unbounded_sides():
    surface = parse(json.dumps(UNBOUNDED_SIDES))
    assert _draw_range(surface) == draw_range_reference(surface) == (-3.5, 5.0)
    _check_diagrams(surface)
