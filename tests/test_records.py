"""The contract of the element records: immutable, hashed as the tuple of
their fields, printed as before, and kept equal through a JSON round trip.

The ``repr`` strings were computed when the records were frozen
dataclasses; the records must still print them.
"""

from __future__ import annotations

import random

import pytest

from stripfol.core import Interval, Side, build_surface, glue, strip
from stripfol.decomposition import component_closures, decompose
from stripfol.fixtures import horseshoe, kaplan5, moebius
from stripfol.io import parse, serialize
from stripfol.leafspace import build_leaf_space

from _gen import random_moves, random_surface


def _records():
    """(record, tuple of its fields, repr at the frozen-dataclass commit)."""
    iv = Interval("a", Side.LOWER, 0)
    iv2 = Interval("b", Side.UPPER, 1, (float("-inf"), 1.5))
    spec = strip("A", ["a"], [("b", (0, 1))])
    g = glue("g", "a", "b", "reversing")
    alpha = build_leaf_space(kaplan5()).point("alpha")
    [chain], _ = decompose(horseshoe())
    lower, _, _ = component_closures(chain)
    [cycle], _ = decompose(moebius())
    z = "LeafPoint(id='z', members=('P.l0', 'R.u0'), kind=<PointKind.SPECIAL: 'special'>, special=True)"
    pl1 = "LeafPoint(id='P.l1', members=('P.l1',), kind=<PointKind.BOUNDARY_LEAF: 'boundary-leaf'>, special=True)"
    return [
        (iv, (iv.id, iv.side, iv.index, iv.endpoints),
         "Interval(id='a', side=<Side.LOWER: 'lower'>, index=0, endpoints=None)"),
        (iv2, (iv2.id, iv2.side, iv2.index, iv2.endpoints),
         "Interval(id='b', side=<Side.UPPER: 'upper'>, index=1, endpoints=(-inf, 1.5))"),
        (spec, (spec.id, spec.lower, spec.upper),
         "ModelStripSpec(id='A', lower=(Interval(id='a', side=<Side.LOWER: 'lower'>, index=0, endpoints=None),), "
         "upper=(Interval(id='b', side=<Side.UPPER: 'upper'>, index=0, endpoints=(0.0, 1.0)),))"),
        (g, (g.id, g.first, g.second, g.orientation),
         "GluingSpec(id='g', first='a', second='b', orientation=<Orientation.REVERSING: 'reversing'>)"),
        (alpha, (alpha.id, alpha.members, alpha.kind, alpha.special),
         "LeafPoint(id='alpha', members=('A.u0', 'B.u0'), kind=<PointKind.SPECIAL: 'special'>, special=True)"),
        (chain,
         (chain.shape, chain.strips, chain.interfaces, chain.mode, chain.outer_lower, chain.outer_upper,
          chain.outer_lower_points, chain.outer_upper_points, chain.retained_lower, chain.retained_upper,
          chain.monodromy),
         "Component(shape=<Shape.CHAIN: 'chain'>, strips=(('P', False), ('R', False)), interfaces=('m',), "
         "mode=<Mode.WITH_BOUNDARY: 'with-boundary'>, outer_lower=('P', <Side.LOWER: 'lower'>), "
         f"outer_upper=('R', <Side.UPPER: 'upper'>), outer_lower_points=({z}, {pl1}), "
         f"outer_upper_points=({z},), retained_lower=None, retained_upper=None, monodromy=None)"),
        (cycle,
         (cycle.shape, cycle.strips, cycle.interfaces, cycle.mode, cycle.outer_lower, cycle.outer_upper,
          cycle.outer_lower_points, cycle.outer_upper_points, cycle.retained_lower, cycle.retained_upper,
          cycle.monodromy),
         "Component(shape=<Shape.CYCLE: 'cycle'>, strips=(('A', False),), interfaces=('seam',), "
         "mode=<Mode.WITH_BOUNDARY: 'with-boundary'>, outer_lower=None, outer_upper=None, "
         "outer_lower_points=(), outer_upper_points=(), retained_lower=None, retained_upper=None, monodromy=-1)"),
        (lower, (lower.base_points, lower.side_parity),
         f"ClosureStrip(base_points=({z}, {pl1}), side_parity=<Side.LOWER: 'lower'>)"),
    ]


def test_records_are_immutable_hash_as_their_fields_and_print_as_before():
    for record, fields, text in _records():
        assert repr(record) == text
        assert hash(record) == hash(fields)
        # a field of some record, and a name that no record has
        for attr in ("id", "side", "shape", "base_points", "brand_new"):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)
        assert repr(record) == text


def test_parse_serialize_keeps_records_equal_and_hashed_alike():
    rng = random.Random(8)
    for i in range(60):
        s = random_surface(rng, max_strips=10, p_glue=0.3 + 0.6 * rng.random(), connected=i % 3 != 0)
        if i % 2:
            s = random_moves(rng, s, 4)
        t = parse(serialize(s))
        assert t == s and hash(t) == hash(s)
        assert [hash(x) for x in t.strips + t.gluings] == [hash(x) for x in s.strips + s.gluings]
        assert [hash(iv) for iv in t.intervals()] == [hash(iv) for iv in s.intervals()]
    ends = build_surface([strip("A", [("a", (0, 1)), ("b", (1, 2.5))], [("c", (float("-inf"), float("inf")))])])
    for s in (kaplan5(), horseshoe(), moebius(), ends):
        t = parse(serialize(s))
        assert t == s and hash(t) == hash(s)
