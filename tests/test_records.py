"""The contract of the element records: immutable, hashed as the tuple of
their fields, printed as before, and kept equal through a JSON round trip.

The ``repr`` strings were computed when the records were frozen
dataclasses; the records must still print them.
"""

from __future__ import annotations

import random

import pytest

from stripfol.core import Interval, Side, build_surface, glue, strip
from stripfol.decomposition import CycleCheckReport, component_closures, decompose
from stripfol.homeo import (
    BadIntervalError,
    HalfStripChart,
    LeafShrink,
    NonIncreasingInputError,
    PLFunction,
    RoofMap,
    Straightening,
    Trapezoid,
)
from stripfol.io import parse, serialize
from stripfol.leafspace import build_leaf_space

from fixtures import horseshoe, kaplan5, moebius
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


# ---------------------------------------------------------------------------
# the structures around the records: a surface, its leaf space, the PL
# functions, trapezoids and charts of the realization, and two small reports


def _surface():
    return build_surface([strip("A", ["a"], [("b", (0, 1))]), strip("B", ["c"])], [glue("g", "b", "c", "reversing")])


def _chart():
    return HalfStripChart(((0.0, 1.0, -0.5),), ((2.0, 3.0),))


def test_structures_print_and_hash_as_before():
    # the reprs the frozen-dataclass versions printed
    s = _surface()
    assert repr(s) == (
        "StripedSurface(strips=(ModelStripSpec(id='A', lower=(Interval(id='a', side=<Side.LOWER: 'lower'>, "
        "index=0, endpoints=None),), upper=(Interval(id='b', side=<Side.UPPER: 'upper'>, index=0, "
        "endpoints=(0.0, 1.0)),)), ModelStripSpec(id='B', lower=(Interval(id='c', side=<Side.LOWER: 'lower'>, "
        "index=0, endpoints=None),), upper=())), gluings=(GluingSpec(id='g', first='b', second='c', "
        "orientation=<Orientation.REVERSING: 'reversing'>),))"
    )
    assert hash(s) == hash((s.strips, s.gluings))
    assert s == _surface() and s != (s.strips, s.gluings)
    f = PLFunction((0.0, 1.0), (2.0, 3.0))
    assert repr(f) == "PLFunction(breakpoints=(0.0, 1.0), values=(2.0, 3.0))"
    assert hash(f) == hash(((0.0, 1.0), (2.0, 3.0)))
    t = Trapezoid(PLFunction.constant(0.0), PLFunction.constant(1.0), (-1.0, 0.5), base=(0.0, 1.0))
    assert repr(t) == (
        "Trapezoid(alpha=PLFunction(breakpoints=(0.0,), values=(0.0,)), "
        "beta=PLFunction(breakpoints=(0.0,), values=(1.0,)), level_range=(-1.0, 0.5), base=(0.0, 1.0))"
    )
    # not the frozen-dataclass repr: the chart has two fields fewer since
    assert repr(_chart()) == "HalfStripChart(rectangles=((0.0, 1.0, -0.5),), leaf_spans=((2.0, 3.0),))"
    assert repr(CycleCheckReport(True, ())) == "CycleCheckReport(ok=True, violations=())"


def test_structures_take_keywords_and_defaults():
    zero, one = PLFunction.constant(0.0), PLFunction.constant(1.0)
    assert PLFunction(values=(2.0, 3.0), breakpoints=(0.0, 1.0)) == PLFunction((0.0, 1.0), (2.0, 3.0))
    t = Trapezoid(zero, one, (0.0, 1.0))
    assert t.base is None
    assert t == Trapezoid(alpha=zero, beta=one, level_range=(0.0, 1.0), base=None)
    assert HalfStripChart(leaf_spans=((2.0, 3.0),), rectangles=((0.0, 1.0, -0.5),)) == _chart()
    assert RoofMap(target=t, source=t) == RoofMap(t, t)
    assert RoofMap._fields == ("source", "target")
    assert HalfStripChart._fields == ("rectangles", "leaf_spans")
    assert LeafShrink(eps=0.5, a=-1.0, b=1.0) == LeafShrink(-1.0, 1.0, 0.5)
    assert Straightening(stages=((0.0, (zero,), (0.0,)),)).stages[0][1] == (zero,)
    assert CycleCheckReport(ok=False, violations=("v",)).violations == ("v",)


_ZERO, _ONE = PLFunction.constant(0.0), PLFunction.constant(1.0)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: PLFunction((0.0, 1.0), (2.0,)), ValueError),
        (lambda: PLFunction(breakpoints=(), values=()), ValueError),
        (lambda: PLFunction((1.0, 1.0), (2.0, 3.0)), NonIncreasingInputError),
        (lambda: PLFunction(values=(2.0, 3.0), breakpoints=(1.0, 0.0)), NonIncreasingInputError),
        (lambda: PLFunction((0.0, 1.0), (2.0, 3.0))._replace(breakpoints=(1.0, 0.0)), NonIncreasingInputError),
        (lambda: Trapezoid(_ZERO, _ONE, (1.0, 1.0)), BadIntervalError),
        (lambda: Trapezoid(alpha=_ONE, beta=_ZERO, level_range=(0.0, 1.0)), BadIntervalError),
        (lambda: Trapezoid(_ZERO, _ONE, (0.0, 1.0), (0.0, 2.0)), BadIntervalError),
        (lambda: Trapezoid(_ZERO, _ONE, (0.0, 1.0))._replace(level_range=(1.0, 0.0)), BadIntervalError),
        (lambda: HalfStripChart(((0.0, 2.0, -0.5), (1.0, 3.0, -0.7)), ()), BadIntervalError),
        (lambda: HalfStripChart(((0.0, 1.0, 0.0),), ((2.0, 3.0),)), BadIntervalError),
        (lambda: HalfStripChart(rectangles=((0.0, 1.0, 0.5),), leaf_spans=()), BadIntervalError),
        (lambda: _chart()._replace(rectangles=((1.0, 0.0, -0.5),)), BadIntervalError),
    ],
)
def test_structures_refuse_bad_fields(make, error):
    with pytest.raises(ValueError) as caught:
        make()
    assert caught.type is error


def test_structures_refuse_assignment():
    s = _surface()
    ls = build_leaf_space(s)
    fields = [
        (s, ("strips", "gluings", "_interval_loc")),
        (ls, ("surface", "points", "incidence", "ends_by_point")),
        (PLFunction((0.0, 1.0), (2.0, 3.0)), ("breakpoints", "values")),
        (Trapezoid(_ZERO, _ONE, (0.0, 1.0)), ("alpha", "level_range", "base")),
        (_chart(), ("rectangles", "leaf_spans")),
        (Straightening(()), ("stages",)),
        (RoofMap(_ZERO, _ONE), ("source", "target")),
        (LeafShrink(0.0, 1.0, 0.5), ("a", "eps")),
    ]
    for obj, names in fields:
        for attr in names + ("brand_new",):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        del s.strips
    # the cached partition still lands in the instance dict
    assert s._partition == (("A", "B"),) and "_partition" in vars(s)
