"""Model strips, boundary intervals, gluings, and striped surfaces.

A striped surface is a finite family of model strips (each a horizontal band
``R x (a,b)`` together with finitely many open intervals on its two boundary
lines) plus a partial pairing of those intervals by orientation-flagged
identifications.  Everything downstream (leaf spaces, decomposition, the
homeomorphism engine) consumes the validated :class:`StripedSurface`.
"""

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from functools import cached_property


class Side(Enum):
    LOWER = "lower"
    UPPER = "upper"

    # members are singletons, so identity hashing is sound; it runs in C,
    # Enum.__hash__ in Python, and every (strip, Side) dict key pays for it
    __hash__ = object.__hash__

    @property
    def other(self) -> "Side":
        return Side.UPPER if self is Side.LOWER else Side.LOWER


class Orientation(Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"

    __hash__ = object.__hash__  # as for Side

    @property
    def sign(self) -> int:
        return 1 if self is Orientation.PRESERVING else -1

    @property
    def flipped(self) -> "Orientation":
        if self is Orientation.PRESERVING:
            return Orientation.REVERSING
        return Orientation.PRESERVING


class SurfaceError(ValueError):
    """Validation failure; ``rule`` names the violated construction rule."""

    rule = "Invalid"

    def __init__(self, message: str):
        super().__init__(f"{self.rule}: {message}")
        self.message = message


class DuplicateIdError(SurfaceError):
    rule = "DuplicateId"


class UnknownIntervalRefError(SurfaceError):
    rule = "UnknownIntervalRef"


class DoubleGluingError(SurfaceError):
    rule = "DoubleGluing"


class SelfGluingError(SurfaceError):
    rule = "SelfGluing"


class SameSideGluingError(SurfaceError):
    rule = "SameSideGluing"


class BadEndpointsError(SurfaceError):
    rule = "BadEndpoints"


class DisconnectedSurfaceError(SurfaceError):
    rule = "DisconnectedSurface"


class BadIdError(SurfaceError):
    rule = "BadId"


# characters a JSON string can carry but XML 1.0 text (the SVG of render)
# or strict UTF-8 (lone surrogates) cannot; re compiles it on first use
_BAD_ID_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


class Interval(namedtuple("Interval", "id endpoints", defaults=(None,))):
    """One open boundary interval of a strip.  Its side and its place k in
    left-to-right order are where it sits in its strip's side tuples.

    ``endpoints`` are optional extended reals (``-inf``/``+inf`` allowed); when
    absent, the interval at place k occupies ``(2k, 2k+1)``.
    """

    __slots__ = ()


class ModelStripSpec(namedtuple("ModelStripSpec", "id lower upper", defaults=((), ()))):
    """A model strip: band interior plus the interval tuples of its two sides."""

    __slots__ = ()

    def side_intervals(self, side: Side) -> tuple[Interval, ...]:
        return self.lower if side is Side.LOWER else self.upper


class GluingSpec(namedtuple("GluingSpec", "id first second orientation")):
    """Identification of two boundary intervals, preserving or reversing x."""

    __slots__ = ()


SideEnd = tuple[str, Side]  # (strip id, side)


def strip(
    strip_id: str,
    lower: Sequence[str | tuple[str, tuple[float, float]]] = (),
    upper: Sequence[str | tuple[str, tuple[float, float]]] = (),
) -> ModelStripSpec:
    """Build a strip spec from interval ids (optionally with endpoints)."""

    def make(items) -> tuple[Interval, ...]:
        out = []
        for item in items:
            if isinstance(item, str):
                out.append(Interval(item))
            else:
                iid, ends = item
                out.append(Interval(iid, (float(ends[0]), float(ends[1]))))
        return tuple(out)

    return ModelStripSpec(strip_id, make(lower), make(upper))


def glue(
    gluing_id: str,
    first: str,
    second: str,
    orientation: Orientation | str = Orientation.PRESERVING,
) -> GluingSpec:
    if isinstance(orientation, str):
        orientation = Orientation(orientation)
    return GluingSpec(gluing_id, first, second, orientation)


class StripedSurface:
    """A validated collection of strips and gluings.

    Immutable; construct through :func:`build_surface`, which enforces all
    invariants (unique ids, fixed-point-free partial involution of gluings,
    no same-side gluings, legal endpoint order) and builds the id indexes.
    Equality, hash and repr read the fields ``strips`` and ``gluings`` only.
    """

    strips: tuple[ModelStripSpec, ...]
    gluings: tuple[GluingSpec, ...]
    # id indexes, built by build_surface in its validation pass
    _strip_by_id: dict[str, ModelStripSpec]
    _interval_loc: dict[str, tuple[str, Side, int]]
    _gluing_by_interval: dict[str, GluingSpec]

    def __init__(self, strips, gluings, strip_by_id, interval_loc, gluing_by_interval) -> None:
        vars(self).update(
            strips=strips,
            gluings=gluings,
            _strip_by_id=strip_by_id,
            _interval_loc=interval_loc,
            _gluing_by_interval=gluing_by_interval,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strips, self.gluings) == (other.strips, other.gluings)

    def __hash__(self) -> int:
        return hash((self.strips, self.gluings))

    def __repr__(self) -> str:
        return f"StripedSurface(strips={self.strips!r}, gluings={self.gluings!r})"

    @cached_property
    def _partition(self) -> tuple[tuple[str, ...], ...]:
        """Strip ids of each connected piece, pieces in order of first strip.

        Computed on first use and kept in the instance ``__dict__``, which
        leaves the fields, equality and hash as they are.
        """
        parent = {s.id: s.id for s in self.strips}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.gluings:
            a = find(self._interval_loc[g.first][0])
            b = find(self._interval_loc[g.second][0])
            if a != b:
                parent[a] = b
        groups: dict[str, list[str]] = {}
        for s in self.strips:
            groups.setdefault(find(s.id), []).append(s.id)
        # dicts keep insertion order, so groups already follow first appearance
        return tuple([tuple(grp) for grp in groups.values()])

    def strip(self, strip_id: str) -> ModelStripSpec:
        return self._strip_by_id[strip_id]

    def strip_ids(self) -> tuple[str, ...]:
        # from a list, not a generator: tuple() allocates a generator's
        # items in a 10-slot tuple and shrinks it, and the shrunk tuples pile
        # up in CPython's free lists until the next full collection
        return tuple([s.id for s in self.strips])

    def endpoints(self, interval_id: str) -> tuple[float, float]:
        """An interval's endpoints, or ``(2k, 2k+1)`` for the default one at place k."""
        strip_id, side, k = self._interval_loc[interval_id]
        ends = self._strip_by_id[strip_id].side_intervals(side)[k].endpoints
        return (2.0 * k, 2.0 * k + 1.0) if ends is None else ends

    def side_end_of(self, interval_id: str) -> SideEnd:
        strip_id, side, _ = self._interval_loc[interval_id]
        return (strip_id, side)

    def gluing_of(self, interval_id: str) -> GluingSpec | None:
        return self._gluing_by_interval.get(interval_id)

    def intervals(self) -> list[Interval]:
        return [iv for s in self.strips for iv in (*s.lower, *s.upper)]


def _check_endpoints(strip_id: str, side: Side, intervals: tuple[Interval, ...], explicit: int) -> None:
    """Endpoint rules of one side, ``explicit`` of whose intervals carry endpoints."""
    for iv in intervals:
        if iv.endpoints is not None:
            x0, x1 = iv.endpoints
            if not x0 < x1:  # a NaN end fails it too
                raise BadEndpointsError(
                    f"interval {iv.id!r} endpoints must satisfy x0 < x1, got ({x0}, {x1})"
                )
    if explicit < len(intervals):  # so a mixed side has at least two intervals
        raise BadEndpointsError(
            f"({strip_id}, {side.value}): either all or no intervals of a side "
            "may carry explicit endpoints"
        )
    for prev, nxt in zip(intervals, intervals[1:]):
        if not prev.endpoints[1] <= nxt.endpoints[0]:
            raise BadEndpointsError(
                f"intervals {prev.id!r} and {nxt.id!r} on ({strip_id}, {side.value}) "
                "overlap or are out of order"
            )


def build_surface(
    strips: Iterable[ModelStripSpec], gluings: Iterable[GluingSpec] = ()
) -> StripedSurface:
    """Validate and assemble a striped surface.

    Raises a :class:`SurfaceError` subclass naming the violated rule:
    DuplicateId, UnknownIntervalRef, DoubleGluing, SelfGluing, SameSideGluing,
    BadEndpoints or BadId.
    """
    strips = tuple(strips)
    gluings = tuple(gluings)

    # strip, interval and gluing ids share one namespace: leaf points are
    # named by gluing ids and unglued interval ids alike
    seen_ids: set[str] = set()
    add = seen_ids.add
    strip_by_id: dict[str, ModelStripSpec] = {}
    interval_loc: dict[str, tuple[str, Side, int]] = {}
    lower_side, upper_side = Side.LOWER, Side.UPPER
    for s in strips:
        sid, lower, upper = s
        if sid in seen_ids:
            raise DuplicateIdError(f"strip id {sid!r} appears twice")
        add(sid)
        strip_by_id[sid] = s
        for side, ivs in ((lower_side, lower), (upper_side, upper)):
            # a side's endpoint faults come before its repeated ids
            dup = None
            explicit = 0
            k = 0
            for iid, ends in ivs:
                if iid in seen_ids and dup is None:
                    dup = iid
                add(iid)
                interval_loc[iid] = (sid, side, k)
                if ends is not None:
                    explicit += 1
                k += 1
            if explicit:
                _check_endpoints(sid, side, ivs, explicit)
            if dup is not None:
                raise DuplicateIdError(f"interval id {dup!r} appears twice")

    gluing_by_interval: dict[str, GluingSpec] = {}
    for g in gluings:
        gid, first, second, _ = g
        if gid in seen_ids:
            raise DuplicateIdError(f"gluing id {gid!r} appears twice")
        add(gid)
        if first == second:
            raise SelfGluingError(f"gluing {gid!r} pairs interval {first!r} with itself")
        a, b = interval_loc.get(first), interval_loc.get(second)
        if a is None or b is None or first in gluing_by_interval or second in gluing_by_interval:
            for iid in (first, second):
                if iid not in interval_loc:
                    raise UnknownIntervalRefError(f"gluing {gid!r} references unknown interval {iid!r}")
                if iid in gluing_by_interval:
                    raise DoubleGluingError(f"interval {iid!r} appears in more than one gluing")
        gluing_by_interval[first] = gluing_by_interval[second] = g
        if a[1] is b[1] and a[0] == b[0]:
            raise SameSideGluingError(
                f"gluing {gid!r} pairs intervals {first!r} and {second!r} "
                f"on the same side ({a[0]}, {a[1].value})"
            )

    # each such character is unprintable, and isprintable scans faster
    if not (ids := "".join(seen_ids)).isprintable() and re.search(_BAD_ID_CHAR, ids):
        bad = next(i for i in (*strip_by_id, *interval_loc, *[g.id for g in gluings]) if re.search(_BAD_ID_CHAR, i))
        char = ord(re.search(_BAD_ID_CHAR, bad).group())
        raise BadIdError(f"id {bad!r} holds U+{char:04X}, which SVG or UTF-8 output cannot carry")

    return StripedSurface(strips, gluings, strip_by_id, interval_loc, gluing_by_interval)


def validate_class_f(surface: StripedSurface) -> dict:
    """The JSON report of ``stripfol validate``: the collar sides of every
    glued leaf and the connected pieces of the surface."""
    parts = surface._partition
    return {
        # build_surface refuses a gluing of two intervals of one side
        # (SameSideGluing), so every surface it accepts is ok and every glued
        # leaf has its two collars on distinct side-ends
        "ok": True,
        "connected": len(parts) <= 1,
        "components": [list(c) for c in parts],
        "glued_leaves": [
            {
                "id": g.id,
                "collars": [
                    {"strip": s, "side": side.value} for s, side in map(surface.side_end_of, (g.first, g.second))
                ],
                "distinct": True,
            }
            for g in surface.gluings
        ],
        "warnings": [f"Disconnected: {len(parts)} components"] if len(parts) > 1 else [],
    }


def is_connected(surface: StripedSurface) -> bool:
    return len(surface._partition) <= 1
