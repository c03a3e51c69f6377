"""Level-preserving homeomorphisms between strips, realized numerically.

Everything here is plane geometry: piecewise-linear increasing interpolation
that straightens families of non-crossing curve graphs into vertical
segments, trapezoids inscribed under a clearance function, affine-per-level
maps between trapezoid roofs, a leaf-shrinking map, and their composite that
realizes the closure of a half strip as a model half strip with marked base
intervals.  Each map is a record of its data (a ``Straightening``, a
``RoofMap``, a ``LeafShrink``) or, for the composite, a ``HalfStripMap`` of
records, whose ``apply`` evaluates it pointwise and whose ``invert`` is its
numeric inverse; the working tolerance is ``TOL``.  Curves are
``PLFunction``s: ``Trapezoid`` and ``rectify_stages`` check exactly, at the
breakpoints, that theirs do not cross.  Knot order is checked once, where
knots are made: ``PLFunction`` on construction, ``uk_eval`` on each call, and
a straightening stage at its level when built and at each lower level as it
moves its curves there; the kernels that evaluate knots only search them.
"""

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Sequence

from .core import Side, StripedSurface
from .decomposition import Component, ClosureStrip, Shape, StripClass, classify_component

TOL = 1e-9


class HomeoError(ValueError):
    pass


class NonIncreasingInputError(HomeoError):
    pass


class GraphsIntersectError(HomeoError):
    pass


class BadIntervalError(HomeoError):
    pass


class BadEpsError(HomeoError):
    pass


class NonPositiveClearanceError(HomeoError):
    pass


class LevelRangeMismatchError(HomeoError):
    pass


class NotOpenStripComponentError(HomeoError):
    pass


class PLFunction(namedtuple("PLFunction", "breakpoints values")):
    """Piecewise-linear function through (breakpoints[i], values[i]).

    Constant beyond the end breakpoints, where it takes the end values.
    """

    __slots__ = ()

    def __new__(cls, breakpoints, values) -> "PLFunction":
        if len(breakpoints) != len(values) or not breakpoints:
            raise ValueError("breakpoints and values must be equal-length and non-empty")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not a < b:
                raise NonIncreasingInputError("breakpoints must be strictly increasing")
        return tuple.__new__(cls, (breakpoints, values))

    # _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_points(cls, points: Sequence[tuple[float, float]]) -> "PLFunction":
        pts = sorted(points)
        return cls(tuple([p[0] for p in pts]), tuple([p[1] for p in pts]))

    @classmethod
    def constant(cls, value: float) -> "PLFunction":
        return cls((0.0,), (value,))

    def __call__(self, x: float) -> float:
        bp, vals = self
        if x <= bp[0]:
            return vals[0]
        if not x < bp[-1]:  # a NaN x too, which gives nan
            return vals[-1] if x >= bp[-1] else x
        hi = bisect_right(bp, x)
        lo = hi - 1
        t = (x - bp[lo]) / (bp[hi] - bp[lo])
        return vals[lo] + t * (vals[hi] - vals[lo])

    def min_on(self, lo: float, hi: float) -> float:
        xs = [lo, hi] + [x for x in self.breakpoints if lo < x < hi]
        return min(self(x) for x in xs)


def uk_eval(x: float, y: Sequence[float], q: Sequence[float]) -> float:
    """Increasing piecewise-linear bijection of the line sending y_i to q_i.

    Affine on each [y_i, y_{i+1}], unit-slope translation beyond the extreme
    breakpoints; the identity when y == q.  Its inverse is ``uk_eval(x, q, y)``.
    """
    y = list(y)
    q = list(q)
    if len(y) != len(q) or not y:
        raise NonIncreasingInputError("y and q must be equal-length and non-empty")
    for seq in (y, q):
        for a, b in zip(seq, seq[1:]):
            if not a < b:
                raise NonIncreasingInputError("u_k parameters must be strictly increasing")
    return x if y == q else _uk(x, y, q)


def _uk(x: float, y: Sequence[float], q: Sequence[float]) -> float:
    """``uk_eval`` on knots whose lengths and order the caller has checked."""
    if x <= y[0]:
        return x - y[0] + q[0]
    if not x < y[-1]:  # a NaN x too, which gives nan
        return x - y[-1] + q[-1]
    hi = bisect_right(y, x)
    lo = hi - 1
    return q[lo] + (q[hi] - q[lo]) / (y[hi] - y[lo]) * (x - y[lo])


def _bisect_increasing(g: Callable[[float], float], target: float) -> float:
    lo, hi = -1.0, 1.0
    span = 1.0
    for _ in range(200):
        if g(lo) <= target:
            break
        span *= 2.0
        lo -= span
    else:
        raise HomeoError("target below the image of the map")
    span = 1.0
    for _ in range(200):
        if g(hi) >= target:
            break
        span *= 2.0
        hi += span
    else:
        raise HomeoError("target above the image of the map")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            return mid
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _below(f: PLFunction, g: PLFunction, lo: float, hi: float) -> bool:
    """Whether f < g on (lo, hi].  f - g is affine between the breakpoints of
    either curve, so f <= g at lo and f < g at each breakpoint in (lo, hi) and
    at hi decide it exactly."""
    xs = [x for x in (*f.breakpoints, *g.breakpoints) if lo < x < hi]
    return f(lo) <= g(lo) and all(f(x) < g(x) for x in (*xs, hi))


class Trapezoid(namedtuple("Trapezoid", "alpha beta level_range base")):
    """Region between two curve graphs over a half-open level interval (c, d].

    ``alpha``/``beta`` are PL curves giving x as a function of the level,
    with alpha < beta on (c, d]; the roof is the two side curves plus the
    upper base at level d; ``base`` is the open limit interval at level c,
    when the side curves converge to finite endpoints.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, level_range, base=None) -> "Trapezoid":
        c, d = level_range
        if not c < d:
            raise BadIntervalError("trapezoid level range must satisfy c < d")
        if not _below(alpha, beta, c, d):
            raise BadIntervalError(f"alpha(y) < beta(y) fails on levels ({c}, {d}]")
        if base is not None:
            a, b = base
            if not (abs(alpha(c) - a) <= TOL and abs(beta(c) - b) <= TOL):
                raise BadIntervalError("base endpoints must match the curve limits at c")
        return tuple.__new__(cls, (alpha, beta, level_range, base))

    _make = classmethod(lambda cls, fields: cls(*fields))  # as for PLFunction

    @property
    def top(self) -> float:
        return self.level_range[1]

    def contains_closed(self, x: float, y: float, tol: float = 0.0) -> bool:
        """Whether (x, y) lies in the trapezoid or on its base, to within ``tol``."""
        alpha, beta, (c, d), base = self
        if abs(y - c) <= tol and base is not None:
            return base[0] < x < base[1]
        return c < y <= d + tol and alpha(y) - tol <= x <= beta(y) + tol


def _check_disjoint(curves: Sequence[tuple[PLFunction, float]], floor: float) -> None:
    """Refuse two curves that meet or cross on (floor, min of their levels]."""
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            (f, df), (g, dg) = curves[i], curves[j]
            top = min(df, dg)
            if top > floor and not (_below(f, g, floor, top) or _below(g, f, floor, top)):
                raise GraphsIntersectError(f"curve graphs {i} and {j} meet on levels ({floor}, {top}]")


class Straightening(namedtuple("Straightening", "stages")):
    """The staged straightening: per stage from the top, its level s, its curves
    in their order at s, and their positions there.  Below s a stage moves its
    curves, as the stages above moved them, back to those positions by u_k.
    The build refuses curves that cross above its floor; ``_moved`` raises
    GraphsIntersectError where float rounding, or a level below the floor,
    ties two moved curves, so that ``_uk`` never gets tied knots.
    """

    __slots__ = ()

    def _moved(self, n: int, y: float) -> tuple[float, ...]:
        """Stage ``n``'s curves at level ``y``, as the stages above it move them."""
        above = tuple.__new__(Straightening, (self.stages[:n],))  # hot: skip the Python-level __new__
        vals = tuple([above.apply(f(y), y)[0] for f in self.stages[n][1]])
        for a, b in zip(vals, vals[1:]):
            if not a < b:
                raise GraphsIntersectError(f"stage curves cross at level {y}")
        return vals

    def apply(self, x: float, y: float) -> tuple[float, float]:
        for i, (s, _, q) in enumerate(self.stages):
            if y >= s:  # so is every lower stage's level
                break
            vals = self._moved(i, y)
            if vals != q:
                x = _uk(x, vals, q)
        return (x, y)

    def invert(self, x: float, y: float) -> tuple[float, float]:
        for i in range(len(self.stages) - 1, -1, -1):
            s, _, q = self.stages[i]
            if not y >= s:
                vals = self._moved(i, y)
                if vals != q:
                    x = _uk(x, q, vals)
        return (x, y)


def rectify_stages(staged: Sequence[tuple[PLFunction, float]], floor: float | None = None) -> Straightening:
    """Straighten each curve below its own level, deepest stage last.

    A stage straightens every curve alive at its level (already-vertical ones
    stay put), as the stages above it moved them there.  Two curves that meet
    on (floor, the lower of their levels] raise GraphsIntersectError; a tie at
    the floor is allowed.  The floor defaults to one below the lowest level.
    """
    staged = list(staged)
    if floor is None:
        floor = min([d for _, d in staged], default=0.0) - 1.0
    _check_disjoint(staged, floor)

    stages: list[tuple] = []
    for s in sorted({d for _, d in staged}, reverse=True):
        curves = [f for f, d in staged if d >= s]
        above = Straightening(tuple(stages))
        at_s = [above.apply(f(s), s)[0] for f in curves]
        order = sorted(range(len(curves)), key=at_s.__getitem__)
        q = tuple([at_s[i] for i in order])
        for a, b in zip(q, q[1:]):
            if not a < b:
                raise GraphsIntersectError(f"stage curves collide at level {s}")
        stages.append((s, tuple([curves[i] for i in order]), q))
    return Straightening(tuple(stages))


class LeafShrink(namedtuple("LeafShrink", "a b eps")):
    """The map of ``shrink_leaf``."""

    __slots__ = ()

    def _squeeze(self, x: float) -> float:
        a, b, _ = self
        return (a + b) / 2.0 + ((b - a) / math.pi) * math.atan(x)

    def apply(self, x: float, y: float) -> tuple[float, float]:
        m = min(abs(y) / self.eps, 1.0)
        if m >= 1.0:
            return (x, y)
        return (m * x + (1.0 - m) * self._squeeze(x), y)

    def invert(self, x: float, y: float) -> tuple[float, float]:
        m = min(abs(y) / self.eps, 1.0)
        if m >= 1.0:
            return (x, y)
        return (_bisect_increasing(lambda t: m * t + (1.0 - m) * self._squeeze(t), x), y)


def shrink_leaf(a: float, b: float, eps: float) -> LeafShrink:
    """Identity outside the band |y| < eps; squeezes level 0 onto (a, b).

    The level-0 restriction is the increasing bijection
    ``x -> (a+b)/2 + ((b-a)/pi) * atan(x)``; intermediate levels blend it
    linearly with the identity, so horizontal lines map to horizontal lines.
    """
    if not a < b:
        raise BadIntervalError(f"need a < b, got ({a}, {b})")
    if not eps > 0:
        raise BadEpsError(f"need eps > 0, got {eps}")
    return LeafShrink(a, b, eps)


def trapezoid_under_clearance(clearance: PLFunction, a: float, b: float, depth: int) -> Trapezoid:
    """Inscribe a half-open trapezoid with base (a, b) under a clearance graph.

    Dyadic shrinking sub-segments [a_i, b_i] of (a, b) get heights half the
    clearance minimum over them; the side curves interpolate those anchors
    linearly and run down to the base endpoints.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise BadIntervalError(f"need finite a < b, got ({a}, {b})")
    if depth < 1:
        raise BadIntervalError("depth must be at least 1")

    # anchor the side curves at height r_{i+1} over a_i / b_i, keeping only
    # strictly decreasing heights so x is a function of the level.  Once a
    # segment past the first rounds to (a, b), every deeper one does too, with
    # the same height, so none adds an anchor: the loop stops there, after
    # checking that segment's clearance.  That is at most about 54 levels in,
    # or about 1,074 when an end is 0.0 and its offsets run through subnormals.
    w = b - a
    alpha_pts, beta_pts = [(0.0, a)], [(0.0, b)]
    for i in range(depth + 1):
        a_i = a + w * 2.0 ** (-i - 2)
        b_i = b - w * 2.0 ** (-i - 2)
        r = 0.5 * clearance.min_on(a_i, b_i)
        if r <= 0:
            raise NonPositiveClearanceError(f"clearance is not strictly positive on [{a_i}, {b_i}]")
        if i and (len(alpha_pts) == 1 or r < alpha_pts[-1][0]):
            alpha_pts.append((r, a_prev))
            beta_pts.append((r, b_prev))
        if i and (a_i, b_i) == (a, b):
            break
        a_prev, b_prev = a_i, b_i
    top = alpha_pts[1][0]
    return Trapezoid(PLFunction.from_points(alpha_pts), PLFunction.from_points(beta_pts), (0.0, top), base=(a, b))


class RoofMap(namedtuple("RoofMap", "source target")):
    """The map of ``roof_homeo``."""

    __slots__ = ()

    def _level(self, y: float) -> float:
        (_, _, (cs, ds), _), (_, _, (ct, dt), _) = self
        return ct + (y - cs) * ((dt - ct) / (ds - cs))

    def apply(self, x: float, y: float) -> tuple[float, float]:
        (alpha, beta, _, _), (gamma, delta, _, _) = self
        s = self._level(y)
        A, B = alpha(y), beta(y)
        G, D = gamma(s), delta(s)
        return (G + (D - G) * (x - A) / (B - A), s)

    def invert(self, x: float, y: float) -> tuple[float, float]:
        (alpha, beta, (cs, ds), _), (gamma, delta, (ct, dt), _) = self
        y_in = cs + (y - ct) / ((dt - ct) / (ds - cs))
        A, B = alpha(y_in), beta(y_in)
        G, D = gamma(y), delta(y)
        return (A + (B - A) * (x - G) / (D - G), y_in)


def roof_homeo(source: Trapezoid, target: Trapezoid) -> RoofMap:
    """Extend a roof correspondence to a level-preserving trapezoid map.

    At each level the map is the affine stretch carrying [alpha, beta] of the
    source onto [gamma, delta] of the target at the affinely matched level;
    when both trapezoids have finite bases the map extends to the closed bases.
    """
    roof = RoofMap(source, target)
    (cs, ds), (ct, dt), level = source.level_range, target.level_range, roof._level
    if abs(level(cs) - ct) > TOL or abs(level(ds) - dt) > TOL:
        raise LevelRangeMismatchError(
            "the level match must carry the source level range onto the target level range"
        )
    prev = None
    for i in range(65):
        v = level(cs + (ds - cs) * i / 64.0)
        if prev is not None and not v > prev:
            raise LevelRangeMismatchError("the level match must be strictly increasing")
        prev = v
    return roof


class HalfStripChart(namedtuple("HalfStripChart", "rectangles leaf_spans")):
    """Half model strip: the band R x (-1, 0] plus marked base intervals.

    One half-open rectangle [a_i, b_i] x (-1, d_i] per base leaf, whose open
    base (a_i, b_i) at level -1 is the base interval J_i, and the span on the
    leaf's boundary line that eta carries J_i onto.
    """

    __slots__ = ()

    def __new__(cls, rectangles, leaf_spans) -> "HalfStripChart":
        spans = sorted((a, b) for a, b, _ in rectangles)
        for (a0, b0), (a1, b1) in zip(spans, spans[1:]):
            if not b0 < a1:
                raise BadIntervalError("rectangle x-spans must be pairwise disjoint")
        for a, b, di in rectangles:
            if not (a < b and -1.0 < di < 0.0):
                raise BadIntervalError("rectangle tops must lie strictly inside the band -1 < y < 0")
        return tuple.__new__(cls, (rectangles, leaf_spans))

    _make = classmethod(lambda cls, fields: cls(*fields))  # as for PLFunction


class HalfStripMap:
    """eta of ``realize_half_strip``: the roof map of each chart rectangle onto
    its collar, and the straightening, whose inverse covers the rest of the band
    -1 < y <= 0; with no collar, the identity of the plane.  It refuses points
    off its domain, and its inverse points off its image.  A plain class, not a
    record: a caller may wrap ``apply`` and ``invert`` on an instance."""

    def __init__(self, collars: tuple[RoofMap, ...], straightening: Straightening):
        self.collars = collars
        self.straightening = straightening

    def apply(self, x: float, y: float) -> tuple[float, float]:
        for roof in self.collars:
            if roof.source.contains_closed(x, y):
                # the level passes through verbatim, not through the level match
                return (roof.apply(x, y)[0], y)
        if -1.0 < y <= 0.0 or not self.collars:
            return self.straightening.invert(x, y)
        raise HomeoError(f"point ({x}, {y}) lies outside the map domain")

    def invert(self, x: float, y: float) -> tuple[float, float]:
        for roof in self.collars:
            if roof.target.contains_closed(x, y, 1e-12):
                return (roof.invert(x, y)[0], y)
        if -1.0 < y <= 0.0 or not self.collars:
            return self.straightening.apply(x, y)
        raise HomeoError(f"point ({x}, {y}) lies outside the map image")


def realize_half_strip(
    surface: StripedSurface,
    comp: Component,
    closure: ClosureStrip,
    depth: int = 4,
    samples: int = 64,
) -> tuple[HalfStripChart, HalfStripMap]:
    """Realize the closure of one half of an open-strip chain component.

    Over each base leaf a trapezoid collar is inscribed in chart coordinates,
    rectified into a rectangle by staged straightening, and mapped back by
    the affine roof extension.  The map eta, the roof maps on the rectangles
    and the inverse straightening elsewhere, is level-preserving, agrees
    across rectangle boundaries, and sends each base interval of the chart
    onto its leaf's interval coordinates.  ``samples`` has no effect: the
    collar sides are checked exactly, at their breakpoints.
    """
    if comp.shape is not Shape.CHAIN or classify_component(comp) is not StripClass.OPEN_STRIP:
        raise NotOpenStripComponentError(
            "half-strip realization needs an open-strip chain component"
        )
    end = comp.outer_lower if closure.side_parity is Side.LOWER else comp.outer_upper
    k = len(closure.base_points)

    # leaf coordinate intervals on the outer side-end, in interval order; an
    # unbounded leaf gets a unit span at its finite end, which keeps it
    # disjoint from its neighbours on the side
    leaf_spans: list[tuple[float, float]] = []
    for p in closure.base_points:
        member = next(m for m in p.members if surface.side_end_of(m) == end)
        lo, hi = surface.endpoints(member)
        if not math.isfinite(lo):
            lo = hi - 1.0 if math.isfinite(hi) else 0.0
        if not math.isfinite(hi):
            hi = lo + 1.0
        leaf_spans.append((lo, hi))

    gap = 0.5 / (k + 1)
    heights = gap / 2.0
    d_levels = [-1.0 + 0.5 * (k - i) / (k + 1) for i in range(k)]
    min_gap = min(
        (leaf_spans[i + 1][0] - leaf_spans[i][1] for i in range(k - 1)),
        default=math.inf,
    )
    kappa = min(0.1, 0.4 * min_gap) if min_gap > 0 else 0.0

    # one collar per base leaf, in chart coordinates: the trapezoid inscribed
    # under a wedge over the leaf span, its levels stretched onto (-1, d_i]
    # and its sides sheared by +-kappa at the top
    collars: list[Trapezoid] = []
    for i, (L, R) in enumerate(leaf_spans):
        w = R - L
        # the collar maps multiply a width by an offset across the span, which
        # overflows to inf once the squared width does; ends that overflow the
        # width or the midpoint lie past 1e308 and fail this check too
        if not math.isfinite(w * w):
            raise BadIntervalError(f"leaf span ({L}, {R}) is too wide: its squared width overflows")
        # a document's span has L < R; an unbounded leaf's unit stand-in can
        # round to a point once its finite end reaches 2**53 in magnitude
        if not L < R:
            raise BadIntervalError(f"leaf span ({L}, {R}) is empty: an unbounded leaf's unit span rounds to a point")
        scale = 8.0 * heights / w
        wedge = PLFunction((L, (L + R) / 2.0, R), (0.0, scale * w / 2.0, 0.0))
        trap = trapezoid_under_clearance(wedge, L, R, depth)
        shear = kappa if i % 2 == 0 else -kappa
        stretch = (d_levels[i] + 1.0) / trap.top

        def to_chart(curve: PLFunction) -> PLFunction:
            bps = tuple([-1.0 + t * stretch for t in curve.breakpoints])
            vals = tuple([v + shear * (t / trap.top) for t, v in zip(curve.breakpoints, curve.values)])
            return PLFunction(bps, vals)

        collars.append(Trapezoid(to_chart(trap.alpha), to_chart(trap.beta), (-1.0, d_levels[i]), base=(L, R)))

    staged = [(f, c.top) for c in collars for f in (c.alpha, c.beta)]
    straighten = rectify_stages(staged, floor=-1.0)

    rect_spans = [
        (straighten.apply(c.alpha(c.top), c.top)[0], straighten.apply(c.beta(c.top), c.top)[0])
        for c in collars
    ]
    chart = HalfStripChart(
        tuple([(a, b, d) for (a, b), d in zip(rect_spans, d_levels)]),
        tuple(leaf_spans),
    )
    roofs = [
        roof_homeo(Trapezoid(PLFunction.constant(a), PLFunction.constant(b), (-1.0, d), base=(a, b)), c)
        for (a, b), d, c in zip(rect_spans, d_levels, collars)
    ]
    return chart, HalfStripMap(tuple(roofs), straighten)
