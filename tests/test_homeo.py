import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripfol.decomposition import Mode, component_closures, decompose
from stripfol.homeo import (
    BadEpsError,
    BadIntervalError,
    GraphsIntersectError,
    HalfStripMap,
    HomeoError,
    LevelRangeMismatchError,
    NonIncreasingInputError,
    NotOpenStripComponentError,
    PLFunction,
    Straightening,
    Trapezoid,
    rectify_stages,
    realize_half_strip,
    roof_homeo,
    shrink_leaf,
    trapezoid_under_clearance,
    _uk,
    uk_eval,
)

from fixtures import horseshoe, kaplan5, open_strip
from _gen import comb_surface, roof_samples
from _oracles import ExactEta, ExactStraightening, pl_eval_reference, staged_rectify, uk_eval_reference

TOL = 1e-9


# ---------------------------------------------------------------------------
# u_k


def test_uk_worked_values():
    assert uk_eval(5, [2], [0]) == 3
    assert uk_eval(3, [1, 5], [0, 2]) == 1
    assert uk_eval(7, [1, 2], [1, 2]) == 7


def test_uk_hits_breakpoints_exactly():
    y = [-2.0, 0.5, 3.0, 7.5]
    q = [-5.0, -1.0, 0.0, 2.0]
    for yi, qi in zip(y, q):
        assert uk_eval(yi, y, q) == qi


def test_uk_rejects_non_increasing():
    for f in (uk_eval, uk_eval_reference):
        with pytest.raises(NonIncreasingInputError):
            f(0, [1, 1], [0, 2])
        with pytest.raises(NonIncreasingInputError):
            f(0, [1, 2], [3, 3])
        with pytest.raises(NonIncreasingInputError):
            f(0, [], [])
        with pytest.raises(NonIncreasingInputError):
            f(0, [1, 2], [0])


def _outcome(f, *args):
    """The value of ``f(*args)``, or the type of what it raises.  At a single
    knot the references raise ZeroDivisionError on a NaN, where the kernels
    give nan as they do on more knots, so a NaN is held to nan."""
    try:
        return f(*args)
    except Exception as e:
        return type(e)


def _same(got, want) -> bool:
    return got == want or (got != got and want != want)  # NaN to NaN


def _knots(rng: random.Random, n: int) -> list[float]:
    x = rng.uniform(-100.0, 100.0)
    out = []
    for _ in range(n):
        out.append(x)
        x += rng.choice((1e-9, 1e-3, 1.0, 37.0)) * rng.uniform(0.5, 1.5)
    return out


def _probes(rng: random.Random, knots: list[float]) -> list[float]:
    """Every knot, a random point between each pair, beyond both ends, +-inf and NaN."""
    between = [a + (b - a) * rng.random() for a, b in zip(knots, knots[1:])]
    ends = [knots[0] - 1.0, knots[-1] + 1.0, knots[0] - 1e300, knots[-1] + 1e300]
    return knots + between + ends + [math.inf, -math.inf, math.nan]


def test_kernels_match_the_binary_search_references():
    rng = random.Random(18)
    for n in range(1, 65):
        for _ in range(3):
            bp, y, q = _knots(rng, n), _knots(rng, n), _knots(rng, n)
            vals = [rng.uniform(-10.0, 10.0) for _ in range(n)]
            f = PLFunction(tuple(bp), tuple(vals))
            for x in _probes(rng, bp):
                want = math.nan if x != x else _outcome(pl_eval_reference, bp, vals, x)
                assert _same(_outcome(f, x), want), (n, x)
            for x in _probes(rng, y) + _probes(rng, q):
                for args in ((x, y, q), (x, q, y), (x, y, list(y))):
                    want = math.nan if x != x else _outcome(uk_eval_reference, *args)
                    assert _same(_outcome(uk_eval, *args), want), (n, args)
                    if args[1] != args[2]:  # the unchecked stage kernel, off the identity
                        assert _same(_outcome(_uk, *args), want), (n, args)


increasing_lists = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=k, max_size=k, unique=True
        ),
        st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=k, max_size=k, unique=True
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(increasing_lists, st.floats(-100, 100), st.floats(-100, 100))
def test_uk_strictly_increasing_and_invertible(yq, x1, x2):
    y, q = sorted(yq[0]), sorted(yq[1])
    if any(b - a < 1e-9 for a, b in zip(y, y[1:])):
        return
    if any(b - a < 1e-9 for a, b in zip(q, q[1:])):
        return
    if abs(x1 - x2) < 1e-9:
        return
    lo, hi = min(x1, x2), max(x1, x2)
    assert uk_eval(lo, y, q) < uk_eval(hi, y, q)
    assert abs(uk_eval(uk_eval(x1, y, q), q, y) - x1) < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=4, unique=True),
    st.floats(-40, 40),
)
def test_uk_identity_when_parameters_match(ys, x):
    y = sorted(ys)
    if any(b - a < 1e-9 for a, b in zip(y, y[1:])):
        return
    assert uk_eval(x, y, y) == x


# ---------------------------------------------------------------------------
# rectification


def test_rectify_one_level_worked_values():
    m = rectify_stages([(lambda y: y, 1.0)], floor=0.0)
    assert m.apply(0.5, 0.5) == (1.0, 0.5)
    assert m.apply(0.0, 0.5) == (0.5, 0.5)
    for x in (-3.0, 0.0, 2.5):
        assert m.apply(x, 1.0) == (x, 1.0)


def test_rectify_one_level_drives_graphs_vertical():
    funcs = [lambda y: y, lambda y: 2 + 0.5 * math.sin(3 * y), lambda y: -3 + y * y]
    m = rectify_stages([(f, 1.0) for f in funcs], floor=0.0, samples=128)
    for f in funcs:
        target = f(1.0)
        for i in range(1, 40):
            y = i / 40
            X, Y = m.apply(f(y), y)
            assert abs(X - target) < TOL
            assert Y == y


def test_rectify_one_level_monotone_per_level():
    funcs = [lambda y: y, lambda y: y + 1]
    m = rectify_stages([(f, 1.0) for f in funcs], floor=0.0)
    rng = random.Random(0)
    for _ in range(200):
        y = rng.uniform(0.01, 1.0)
        a, b = sorted((rng.uniform(-5, 5), rng.uniform(-5, 5)))
        if b - a < 1e-9:
            continue
        assert m.apply(a, y)[0] < m.apply(b, y)[0]


def test_rectify_one_level_detects_intersection():
    with pytest.raises(GraphsIntersectError):
        rectify_stages([(lambda y: y, 1.0), (lambda y: 1 - y, 1.0)], floor=0.0)


def test_rectify_stages_single_level_equals_closure_staging():
    f = lambda y: y * y
    staged = rectify_stages([(f, 1.0)], floor=0.0)
    ref = staged_rectify([(f, 1.0)], floor=0.0)
    rng = random.Random(1)
    for _ in range(100):
        x, y = rng.uniform(-4, 4), rng.uniform(0.01, 1.0)
        a = staged.apply(x, y)
        b = ref.apply(x, y)
        assert abs(a[0] - b[0]) < TOL and a[1] == b[1]


def test_rectify_stages_two_levels():
    f1 = lambda y: 0.2 * math.sin(5 * y)
    f2 = lambda y: 3 + y
    staged = rectify_stages([(f1, 1.0), (f2, 0.5)], floor=0.0, samples=128)
    for i in range(1, 30):
        y = i / 30
        X, _ = staged.apply(f1(y), y)
        assert abs(X - f1(1.0)) < TOL
    q2 = staged.apply(f2(0.5), 0.5)[0]
    for i in range(1, 15):
        y = 0.5 * i / 15
        X, _ = staged.apply(f2(y), y)
        assert abs(X - q2) < TOL


def test_stage_maps_fixed_at_and_above_their_level():
    f1 = lambda y: 0.0
    f2 = lambda y: 5.0 + 2 * y
    staged = rectify_stages([(f1, 1.0), (f2, 0.5)], floor=0.0)
    # the composite above level 0.5 comes from stage one alone, which is the
    # identity at its own level 1.0
    for x in (-2.0, 0.3, 7.0):
        assert staged.apply(x, 1.0) == (x, 1.0)


def test_rectify_stages_detects_swap_between_samples():
    # f2 dips below f1 only on (0.325, 0.425), between the disjointness
    # samples at 0.25 and 0.5, so the construction-time check passes
    f1 = lambda y: 0.0
    f2 = lambda y: 1.0 - 4.0 * max(0.0, 1.0 - abs(y - 0.375) / 0.05)
    staged = rectify_stages([(f1, 1.0), (f2, 1.0)], floor=0.0, samples=4)
    assert staged.apply(0.5, 0.75) == (0.5, 0.75)
    with pytest.raises(GraphsIntersectError):
        staged.apply(0.5, 0.375)


def test_rectify_stages_empty_is_identity():
    m = rectify_stages([])
    assert m.apply(3.0, -0.7) == (3.0, -0.7)


def test_rectify_inverse_roundtrip():
    staged = rectify_stages(
        [(lambda y: y, 1.0), (lambda y: 4 - 0.5 * y, 0.75)], floor=0.0
    )
    rng = random.Random(2)
    for _ in range(100):
        x, y = rng.uniform(-5, 8), rng.uniform(0.01, 1.0)
        X, Y = staged.apply(x, y)
        x2, y2 = staged.invert(X, Y)
        assert abs(x2 - x) < TOL and y2 == y


def _curve_family(rng: random.Random):
    """A random family of PL curves on [0, 1] with 1-5 stage levels, each
    carrying a curve, and up to 10 curves in all, and the levels to probe it
    at.  The curves do not cross, unless one spikes across its neighbour on a
    narrow band; sometimes every curve is vertical."""
    levels = sorted({round(rng.uniform(0.2, 1.0), 3) for _ in range(rng.randint(1, 5))})
    n = rng.randint(len(levels), 10)
    bps = sorted({0.0, 1.0, *[round(rng.uniform(0.0, 1.0), 3) for _ in range(rng.randint(0, 4))]})
    vertical = rng.random() < 0.2
    columns = []  # per breakpoint, the curves' values in increasing order
    for _ in bps:
        x = rng.uniform(-3.0, 3.0)
        col = []
        for _ in range(n):
            col.append(round(x, 4))
            x += rng.uniform(0.05, 1.5)
        columns.append(columns[0] if vertical and columns else col)
    curves = [PLFunction(tuple(bps), tuple([c[i] for c in columns])) for i in range(n)]
    ys = [y for s in levels for y in (s + 0.05, s, s - 1e-9, s * rng.random())]
    if n > 1 and rng.random() < 0.3:
        i, y0 = rng.randrange(n - 1), round(rng.uniform(0.05, 0.95), 3)
        f, g = curves[i], curves[i + 1]
        spike = [(y0 - 0.01, f(y0 - 0.01)), (y0, g(y0) + 0.5), (y0 + 0.01, f(y0 + 0.01))]
        curves[i] = PLFunction.from_points([(y, f(y)) for y in bps if abs(y - y0) > 0.01] + spike)
        ys.append(y0)
    depth = levels + [rng.choice(levels) for _ in range(n - len(levels))]
    staged = list(zip(curves, depth))
    rng.shuffle(staged)
    return staged, ys


def _intersect_outcome(f, *args):
    """The value of ``f(*args)``, or GraphsIntersectError if it raises that."""
    try:
        return f(*args)
    except GraphsIntersectError:
        return GraphsIntersectError


@pytest.mark.parametrize("seed", range(40))
def test_straightening_equals_closure_staging(seed):
    rng = random.Random(f"straighten:{seed}")
    staged, ys = _curve_family(rng)
    samples = rng.choice((4, 16, 64))
    new = _intersect_outcome(rectify_stages, staged, 0.0, samples)
    ref = _intersect_outcome(staged_rectify, staged, 0.0, samples)
    if ref is GraphsIntersectError or new is GraphsIntersectError:
        assert new is ref is GraphsIntersectError
        return
    for y in ys + [-0.25]:
        xs = [f(y) for f, _ in rng.sample(staged, min(3, len(staged)))] + [rng.uniform(-6.0, 12.0)]
        for x in xs:
            assert _intersect_outcome(new.apply, x, y) == _intersect_outcome(ref.apply, x, y)
            assert _intersect_outcome(new.invert, x, y) == _intersect_outcome(ref.invert, x, y)


# ---------------------------------------------------------------------------
# against exact rational arithmetic

EXACT_TOL = 1e-12  # relative to max(1, |exact|)


def _exact_err(f, exact, x: float, y: float) -> float | None:
    """The relative error of ``f(x, y)``'s x against the exact value, None
    when both refuse the point, as at a level where curves cross."""
    try:
        want = exact(x, y)
    except GraphsIntersectError:
        with pytest.raises(GraphsIntersectError):
            f(x, y)
        return None
    got, y_out = f(x, y)
    assert y_out == y
    return float(abs(Fraction(got) - want)) / max(1.0, float(abs(want)))


def _worst(f, exact, points) -> float:
    """The worst relative error of ``f`` over ``points``."""
    return max([e for x, y in points if (e := _exact_err(f, exact, x, y)) is not None], default=0.0)


def _move_position(m: Straightening, by: float) -> Straightening:
    """``m`` with the first curve position of its deepest stage moved by ``by``."""
    s, curves, q = m.stages[-1]
    return Straightening(m.stages[:-1] + ((s, curves, (q[0] + by, *q[1:])),))


@pytest.mark.parametrize("seed", range(40))
def test_exact_straightening_matches_rectify_stages(seed):
    rng = random.Random(f"exact:{seed}")
    staged, ys = _curve_family(rng)
    try:
        m = rectify_stages(staged, floor=0.0, samples=rng.choice((4, 16, 64)))
    except GraphsIntersectError:
        return
    exact = ExactStraightening(staged)
    points = [
        (x, y)
        for y in ys + [-0.25]
        for x in [f(y) for f, _ in rng.sample(staged, min(3, len(staged)))] + [rng.uniform(-6.0, 12.0)]
    ]
    assert _worst(m.apply, exact.apply, points) <= EXACT_TOL
    assert _worst(m.invert, exact.invert, points) <= EXACT_TOL
    # one stage position moved by 1e-9 is caught where its curve runs below that stage
    s, (f, *_), _ = m.stages[-1]
    below = [(f(y), y) for y in (0.5 * s, 0.0, -0.25)]
    assert _worst(_move_position(m, 1e-9).apply, exact.apply, below) > EXACT_TOL


# ---------------------------------------------------------------------------
# leaf shrinking


def test_shrink_leaf_worked_values():
    m = shrink_leaf(-1, 1, 1)
    assert m.apply(3, 2) == (3, 2)
    assert m.apply(0, 0) == (0.0, 0)
    x, y = m.apply(1, 0)
    assert abs(x - 0.5) < TOL and y == 0


def test_shrink_leaf_identity_outside_band():
    m = shrink_leaf(0, 2, 0.5)
    for y in (0.5, -0.5, 3.0, -7.0):
        for x in (-10.0, 0.0, 42.0):
            assert m.apply(x, y) == (x, y)


def test_shrink_leaf_level_zero_lands_inside_interval():
    a, b = -2.0, 5.0
    m = shrink_leaf(a, b, 1.0)
    for x in (-1e6, -3.0, 0.0, 17.0, 1e6):
        X, _ = m.apply(x, 0.0)
        assert a < X < b


def test_shrink_leaf_strictly_increasing_and_invertible():
    m = shrink_leaf(-1, 1, 1)
    rng = random.Random(3)
    for _ in range(200):
        y = rng.uniform(-2, 2)
        a, b = sorted((rng.uniform(-8, 8), rng.uniform(-8, 8)))
        if b - a < 1e-9:
            continue
        assert m.apply(a, y)[0] < m.apply(b, y)[0]
    for _ in range(100):
        x, y = rng.uniform(-5, 5), rng.uniform(-2, 2)
        X, Y = m.apply(x, y)
        x2, y2 = m.invert(X, Y)
        assert abs(x2 - x) < TOL and y2 == y


def test_shrink_leaf_rejects_bad_input():
    with pytest.raises(BadIntervalError):
        shrink_leaf(1, 1, 0.5)
    with pytest.raises(BadEpsError):
        shrink_leaf(0, 1, 0.0)


# ---------------------------------------------------------------------------
# PL functions


def test_pl_function_clamps_beyond_both_ends():
    f = PLFunction((0.0, 1.0, 3.0), (2.0, 5.0, -1.0))
    assert (f(-1e300), f(-1.0), f(0.0)) == (2.0, 2.0, 2.0)
    assert (f(3.0), f(4.0), f(1e300)) == (-1.0, -1.0, -1.0)
    assert (f(0.5), f(2.0)) == (3.5, 2.0)
    single = PLFunction((2.0,), (7.0,))
    assert (single(-math.inf), single(1.0), single(2.0), single(3.0), single(math.inf)) == (7.0,) * 5


# ---------------------------------------------------------------------------
# trapezoids


def test_trapezoid_under_wedge_clearance():
    wedge = PLFunction((0.0, 0.5, 1.0), (0.0, 0.5, 0.0))
    t = trapezoid_under_clearance(wedge, 0.0, 1.0, 3)
    assert abs(t.top - 1 / 16) < 1e-15
    assert (t.alpha(t.top), t.beta(t.top)) == (0.25, 0.75)
    assert t.base == (0.0, 1.0)


def test_trapezoid_under_constant_clearance():
    t = trapezoid_under_clearance(PLFunction.constant(1.0), 0.0, 1.0, 1)
    assert t.top == 0.5
    assert (t.alpha(t.top), t.beta(t.top)) == (0.25, 0.75)


def test_trapezoid_containment_sampling():
    rng = random.Random(4)
    clearances = [
        PLFunction((0.0, 0.5, 1.0), (0.0, 0.5, 0.0)),
        PLFunction.constant(1.0),
        PLFunction((0.0, 0.2, 0.6, 1.0), (0.0, 0.9, 0.05, 0.0)),
    ]
    for cl in clearances:
        t = trapezoid_under_clearance(cl, 0.0, 1.0, 5)
        for _ in range(10_000 // len(clearances)):
            y = rng.uniform(1e-9, t.top)
            x = rng.uniform(t.alpha(y), t.beta(y))
            assert y < cl(x)


def test_trapezoid_rejects_nonpositive_clearance():
    from stripfol.homeo import NonPositiveClearanceError

    dip = PLFunction((0.0, 0.5, 1.0), (1.0, -0.1, 1.0))
    with pytest.raises(NonPositiveClearanceError):
        trapezoid_under_clearance(dip, 0.0, 1.0, 2)
    with pytest.raises(BadIntervalError):
        trapezoid_under_clearance(PLFunction.constant(1.0), 0.0, math.inf, 2)


def test_trapezoid_stops_at_the_first_collapsed_segment(monkeypatch):
    # from about depth 52 on, every segment of (1, 2) rounds to (1, 2)
    calls = []
    min_on = PLFunction.min_on

    def counted(f, lo, hi):
        calls.append((lo, hi))
        return min_on(f, lo, hi)

    monkeypatch.setattr(PLFunction, "min_on", counted)
    deep = trapezoid_under_clearance(PLFunction.constant(1.0), 1.0, 2.0, 10**6)
    assert len(calls) < 200
    assert deep == trapezoid_under_clearance(PLFunction.constant(1.0), 1.0, 2.0, 80)


# ---------------------------------------------------------------------------
# roof extension


def _rect(a, b, c, d):
    return Trapezoid(
        PLFunction.constant(a), PLFunction.constant(b), (c, d), base=(a, b)
    )


def test_roof_homeo_worked_values():
    m = roof_homeo(_rect(0, 1, 0, 1), _rect(2, 4, 0, 2))  # the affine level match, 2 * y
    assert m.apply(0.5, 0.5) == (3.0, 1.0)
    assert m.apply(0.0, 1.0) == (2.0, 2.0)


def test_roof_homeo_identity():
    s = _rect(0, 1, 0, 1)
    m = roof_homeo(s, s)
    rng = random.Random(5)
    for _ in range(50):
        x, y = rng.uniform(0, 1), rng.uniform(0.01, 1)
        X, Y = m.apply(x, y)
        assert abs(X - x) < TOL and abs(Y - y) < TOL


def test_roof_homeo_maps_roof_to_roof():
    wedge = PLFunction((0.0, 0.5, 1.0), (0.0, 0.5, 0.0))
    src = trapezoid_under_clearance(wedge, 0.0, 1.0, 4)
    dst = _rect(3, 5, 0, src.top * 2)
    m = roof_homeo(src, dst)  # the affine level match, 2 * y
    for x, y in roof_samples(src, 48):
        X, Y = m.apply(x, y)
        on_left = abs(X - dst.alpha(Y)) < TOL
        on_right = abs(X - dst.beta(Y)) < TOL
        on_top = abs(Y - dst.top) < TOL and dst.alpha(Y) - TOL <= X <= dst.beta(Y) + TOL
        assert on_left or on_right or on_top


def test_roof_homeo_extends_to_closed_bases():
    m = roof_homeo(_rect(0, 1, 0, 1), _rect(2, 4, 0, 2))
    assert m.apply(0.0, 0.0) == (2.0, 0.0)
    assert m.apply(1.0, 0.0) == (4.0, 0.0)


def test_roof_homeo_level_range_mismatch():
    # the affine level match onto these target ranges rounds flat: 1e17 + i
    # rounds to a multiple of 16, and i * 5e-324 / 64 to 0 or 5e-324
    for c, d in ((1e17, 1e17 + 64), (0.0, 5e-324)):
        target = _rect(2, 4, c, d)
        with pytest.raises(LevelRangeMismatchError, match="strictly increasing"):
            roof_homeo(_rect(0, 1, 0, 1), target)


# ---------------------------------------------------------------------------
# half-strip realization


def _component(surface, strip_id, side="upper"):
    comps, _ = decompose(surface, Mode.WITH_BOUNDARY)
    comp = next(c for c in comps if strip_id in c.strip_ids())
    lower, upper, _ = component_closures(comp)
    return comp, (lower if side == "lower" else upper)


def test_realize_empty_closure_is_identity():
    s = open_strip()
    comp, closure = _component(s, "A", "lower")
    chart, eta = realize_half_strip(s, comp, closure)
    assert chart.rectangles == ()
    assert eta.apply(2.5, -0.25) == (2.5, -0.25)


def _every_eta():
    """(k, eta) for each kind of eta realize_half_strip returns: the empty
    closure, kaplan5's B, and the combs k = 1..4 on both sides."""
    s = open_strip()
    yield 0, realize_half_strip(s, *_component(s, "A", "lower"))[1]
    k = kaplan5()
    yield 2, realize_half_strip(k, *_component(k, "B"), depth=3, samples=48)[1]
    for n in range(1, 5):
        comb = comb_surface(n)
        for side in ("lower", "upper"):
            comp, closure = _component(comb, "S", side)
            assert len(closure.base_points) == n
            yield n, realize_half_strip(comb, comp, closure, depth=3, samples=16)[1]


def test_eta_contract():
    etas = list(_every_eta())
    assert len(etas) == 10
    for k, eta in etas:
        # a tracer wraps apply and invert on each instance
        apply, invert = eta.apply, eta.invert
        calls = []
        eta.apply = lambda x, y: calls.append("apply") or apply(x, y)
        eta.invert = lambda x, y: calls.append("invert") or invert(x, y)
        X, Y = eta.apply(0.25, -0.5)
        assert eta.invert(X, Y) is not None and Y == -0.5
        assert calls == ["apply", "invert"]
        # y = 0.5 lies above every chart rectangle and outside -1 < y <= 0
        if k == 0:
            assert eta.apply(0.5, 0.5) == (0.5, 0.5)
        else:
            with pytest.raises(HomeoError):
                eta.apply(0.5, 0.5)
    # the wrappers stay on their own instances
    _, fresh = next(_every_eta())
    assert "apply" not in vars(fresh) and "invert" not in vars(fresh)


def test_eta_invert_refuses_points_off_its_image():
    # eta's image is the band -1 < y <= 0 plus the collars' bases at y = -1:
    # its inverse refuses the rest, as eta refuses what lies off its domain
    for k, eta in _every_eta():
        for x, y in ((0.5, 0.5), (0.5, -3.0)):
            if k == 0:
                assert eta.invert(x, y) == eta.apply(x, y) == (x, y)
                continue
            with pytest.raises(HomeoError):
                eta.apply(x, y)
            with pytest.raises(HomeoError):
                eta.invert(x, y)
    # kaplan5's B: the collar bases are the leaf spans (0, 1) and (2, 3)
    k = kaplan5()
    chart, eta = realize_half_strip(k, *_component(k, "B"), depth=3, samples=48)
    with pytest.raises(HomeoError):
        eta.invert(1.5, -1.0)
    with pytest.raises(HomeoError):
        eta.apply(chart.rectangles[0][0] - 1.0, -1.0)
    for x in (0.5, 2.5):
        X, Y = eta.invert(x, -1.0)
        assert Y == -1.0 and eta.apply(X, Y)[0] == pytest.approx(x, abs=TOL)


def test_realize_rejects_cycles():
    from fixtures import cylinder
    from stripfol.decomposition import ClosureStrip
    from stripfol.core import Side

    comps, _ = decompose(cylinder(), Mode.WITH_BOUNDARY)
    with pytest.raises(NotOpenStripComponentError):
        realize_half_strip(cylinder(), comps[0], ClosureStrip((), Side.LOWER))


def test_realize_kaplan5_b_component():
    k = kaplan5()
    comp, closure = _component(k, "B")
    assert [p.id for p in closure.base_points] == ["alpha", "beta"]
    chart, eta = realize_half_strip(k, comp, closure, depth=3, samples=48)
    assert len(chart.rectangles) == 2

    # base intervals land exactly on the leaf coordinates (0,1) and (2,3)
    for (a, b, _), (lo, hi) in zip(chart.rectangles, [(0.0, 1.0), (2.0, 3.0)]):
        for frac in (0.001, 0.25, 0.5, 0.75, 0.999):
            X, Y = eta.apply(a + (b - a) * frac, -1.0)
            assert Y == -1.0
            assert lo < X < hi
        left = eta.apply(a + (b - a) * 1e-9, -1.0)[0]
        right = eta.apply(a + (b - a) * (1 - 1e-9), -1.0)[0]
        assert abs(left - lo) < 1e-6 and abs(right - hi) < 1e-6


def test_realize_levels_are_preserved():
    k = kaplan5()
    comp, closure = _component(k, "B")
    _, eta = realize_half_strip(k, comp, closure, depth=3, samples=48)
    rng = random.Random(6)
    for _ in range(1000):
        y = rng.uniform(-0.999, -0.001)
        x = rng.uniform(-3, 6)
        X, Y = eta.apply(x, y)
        assert Y == y


def test_realize_pieces_agree_on_shared_boundaries():
    k = kaplan5()
    comp, closure = _component(k, "B")
    chart, eta = realize_half_strip(k, comp, closure, depth=3, samples=48)
    # each collar's roof map, level passed through, against the inverse
    # straightening that eta uses off the rectangles
    z_map = eta.straightening.invert
    worst = 0.0
    for roof, (a, b, d) in zip(eta.collars, chart.rectangles):
        for i in range(1, 30):
            y = -1 + (d + 1) * i / 30
            for x in (a, b):
                f1, f2 = (roof.apply(x, y)[0], y), z_map(x, y)
                worst = max(worst, abs(f1[0] - f2[0]), abs(f1[1] - f2[1]))
        for i in range(31):
            x = a + (b - a) * i / 30
            f1, f2 = (roof.apply(x, d)[0], d), z_map(x, d)
            worst = max(worst, abs(f1[0] - f2[0]), abs(f1[1] - f2[1]))
    assert worst < TOL


def test_realize_inverse_roundtrip():
    k = kaplan5()
    comp, closure = _component(k, "B")
    chart, eta = realize_half_strip(k, comp, closure, depth=3, samples=48)
    rng = random.Random(7)
    for _ in range(400):
        y = rng.uniform(-0.999, -0.001)
        x = rng.uniform(-3, 6)
        X, Y = eta.apply(x, y)
        x2, y2 = eta.invert(X, Y)
        assert abs(x2 - x) < TOL and abs(y2 - y) < TOL
    for a, b, _ in chart.rectangles:
        for frac in (0.1, 0.5, 0.9):
            x = a + (b - a) * frac
            X, Y = eta.apply(x, -1.0)
            x2, y2 = eta.invert(X, Y)
            assert abs(x2 - x) < TOL and abs(y2 + 1.0) < TOL


def test_realize_clamps_unbounded_base_leaves():
    from stripfol.core import build_surface, strip

    s = build_surface(
        [strip("A", lower=[("A.l", (float("-inf"), float("inf")))])], []
    )
    comps, _ = decompose(s, Mode.WITH_BOUNDARY)
    (comp,) = comps
    lower, _, _ = component_closures(comp)
    chart, eta = realize_half_strip(s, comp, lower, depth=2, samples=24)
    ((a, b, _),) = chart.rectangles
    X, Y = eta.apply((a + b) / 2, -1.0)
    assert Y == -1.0
    assert 0.0 < X < 1.0  # default coordinates stand in for the full line


def test_realize_horseshoe_merged_chain():
    h = horseshoe()
    comps, _ = decompose(h, Mode.WITH_BOUNDARY)
    (comp,) = comps
    lower, upper, overlap = component_closures(comp)
    assert [p.id for p in overlap] == ["z"]
    chart, eta = realize_half_strip(h, comp, lower, depth=3, samples=32)
    assert len(chart.rectangles) == 2
    for a, b, _ in chart.rectangles:
        X, Y = eta.apply((a + b) / 2, -1.0)
        assert Y == -1.0


def _eta_points(chart, n: int) -> tuple[list, list]:
    """Where the realize CLI evaluates eta with ``--samples n``: the grid over
    the band, then the base of each rectangle, with its sides and top."""
    xs_lo = min((a for a, _, _ in chart.rectangles), default=-1.0) - 1.0
    xs_hi = max((b for _, b, _ in chart.rectangles), default=1.0) + 1.0
    grid = [(xs_lo + (xs_hi - xs_lo) * i / (n - 1), -1.0 + (j + 1) / n) for i in range(n) for j in range(n)]
    rects = []
    for a, b, d in chart.rectangles:
        rects += [(a + (b - a) * i / n, -1.0) for i in range(1, n)]
        rects += [(a + (b - a) * i / n, d) for i in range(n + 1)]
        rects += [(x, -1.0 + (d + 1.0) * j / n) for x in (a, b) for j in range(1, n)]
    return grid, rects


def test_exact_eta_matches_realize():
    """eta against its exact values on the combs k = 1..6, both sides, and on
    kaplan5's B, at the realize CLI's defaults (depth 3, samples 16); prints
    the worst relative error per k."""
    cases = [(n, comb_surface(n), "S", side) for n in range(1, 7) for side in ("lower", "upper")]
    cases.append((2, kaplan5(), "B", "upper"))
    worst: dict[int, tuple[float, float]] = {}
    for k, surface, strip, side in cases:
        chart, eta = realize_half_strip(surface, *_component(surface, strip, side), depth=3, samples=16)
        assert len(chart.rectangles) == k
        exact = ExactEta(eta)
        # each rectangle spans the exact positions of its collar's two sides
        q = exact.straightening.positions()
        for (a, b, _), qa, qb in zip(chart.rectangles, q[::2], q[1::2]):
            assert abs(Fraction(a) - qa) <= EXACT_TOL * max(1, abs(qa))
            assert abs(Fraction(b) - qb) <= EXACT_TOL * max(1, abs(qb))
        # eta at the grid and on the rectangles, its inverse at their images and at the grid
        grid, rects = _eta_points(chart, 10)
        points = grid + rects
        images = [eta.apply(x, y) for x, y in points] + grid
        errs = (_worst(eta.apply, exact.apply, points), _worst(eta.invert, exact.invert, images))
        assert max(errs) <= EXACT_TOL, (k, side, errs)
        worst[k] = tuple(map(max, zip(worst.get(k, (0.0, 0.0)), errs)))
        if (k, side) == (3, "upper"):
            moved = HalfStripMap(eta.collars, _move_position(eta.straightening, 1e-9))
            assert _worst(moved.apply, exact.apply, points) > EXACT_TOL
            assert _worst(moved.invert, exact.invert, images) > EXACT_TOL
    for k, (apply_err, invert_err) in sorted(worst.items()):
        print(f"EXACT k={k} apply={apply_err:.1e} invert={invert_err:.1e}")
