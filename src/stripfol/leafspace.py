"""Combinatorial leaf spaces of striped surfaces.

The space of leaves of a striped surface is a (possibly non-Hausdorff)
one-manifold: one open arc per strip (parametrizing its interior leaves) and
one point per glued or unglued boundary interval class.  This module builds
that skeleton, computes Hausdorff closures of points and finds the special
points.  The components of the non-special part are the interior-mode
components of :func:`stripfol.decomposition.decompose`, which reads them off
the surface by its merge walk.
"""

from collections import namedtuple
from enum import Enum

from .core import Side, SideEnd, StripedSurface


class PointKind(Enum):
    SPECIAL = "special"
    NON_SPECIAL_GLUED = "non-special-glued"
    BOUNDARY_LEAF = "boundary-leaf"

    __hash__ = object.__hash__  # as for core.Side


class LeafPoint(namedtuple("LeafPoint", "id members kind special")):
    """A leaf-class point: one gluing (two member intervals) or one unglued interval.

    ``special`` holds exactly when the Hausdorff closure has more than one
    point.  Special gluings have kind SPECIAL; unglued intervals keep kind
    BOUNDARY_LEAF even when special.
    """

    __slots__ = ()


class LeafSpace(namedtuple("LeafSpace", "arcs points incidence point_by_id ends_by_point")):
    """Arcs (one per strip), points, and the side-end incidence lists:
    ``incidence`` maps each SideEnd to its point ids in interval order.
    ``point_by_id`` and ``ends_by_point`` are indexes, built by build_leaf_space.
    The surface is not kept: a caller that needs it holds it."""

    __slots__ = ()

    def point(self, point_id: str) -> LeafPoint:
        return self.point_by_id[point_id]

    def ends_of(self, point: LeafPoint | str) -> tuple[SideEnd, ...]:
        pid = point if isinstance(point, str) else point.id
        return self.ends_by_point[pid]


def build_leaf_space(surface: StripedSurface) -> LeafSpace:
    """Quotient a surface to its leaf-space skeleton.

    Point ids are the gluing ids (glued leaves) and interval ids (unglued
    boundary leaves); incidence lists follow the interval order of each side.
    """
    gluing_of = surface._gluing_by_interval.get
    loc = surface._interval_loc
    incidence: dict[SideEnd, tuple[str, ...]] = {}
    unglued: list[tuple[str, SideEnd]] = []
    # enum members are read from their classes once: each read is a lookup
    LOWER, UPPER = Side.LOWER, Side.UPPER
    SPECIAL, MERGING, BOUNDARY = PointKind.SPECIAL, PointKind.NON_SPECIAL_GLUED, PointKind.BOUNDARY_LEAF
    for s in surface.strips:
        for side, ivs in ((LOWER, s.lower), (UPPER, s.upper)):
            end = (s.id, side)
            ids = []
            for iv in ivs:
                g = gluing_of(iv.id)
                if g is None:
                    unglued.append((iv.id, end))
                    ids.append(iv.id)
                else:
                    ids.append(g.id)
            incidence[end] = tuple(ids)

    # The closure of a point is the point plus every point sharing one of its
    # side-ends, so it is more than the point exactly when one of those
    # side-ends carries another interval: build_surface rejects same-side
    # gluings, so the intervals of one side-end are distinct points.  Every
    # field is built here, so the records skip their constructors.
    new = tuple.__new__
    points = []
    ends_by_point: dict[str, tuple[SideEnd, ...]] = {}
    for g in surface.gluings:
        ends = ends_by_point[g.id] = (loc[g.first][:2], loc[g.second][:2])
        sp = len(incidence[ends[0]]) > 1 or len(incidence[ends[1]]) > 1
        points.append(new(LeafPoint, (g.id, (g.first, g.second), SPECIAL if sp else MERGING, sp)))
    for iid, end in unglued:
        ends_by_point[iid] = (end,)
        points.append(new(LeafPoint, (iid, (iid,), BOUNDARY, len(incidence[end]) > 1)))

    return new(LeafSpace, (surface.strip_ids(), tuple(points), incidence, {p.id: p for p in points}, ends_by_point))


def _closure_ids(ls: LeafSpace, pid: str) -> list[str]:
    """The ids of a point's Hausdorff closure in id order: the point plus
    every point on one of its side-ends, on which the point itself lies."""
    ends, incidence = ls.ends_by_point[pid], ls.incidence
    return sorted({*incidence[ends[0]], *incidence[ends[-1]]})


def sorted_closures(ls: LeafSpace) -> dict[str, tuple[str, ...]]:
    """Point id -> the sorted ids of its Hausdorff closure, as ``hausdorff_closure``."""
    return {pid: tuple(_closure_ids(ls, pid)) for pid in ls.ends_by_point}


def hausdorff_closure(ls: LeafSpace, point: LeafPoint | str) -> tuple[LeafPoint, ...]:
    """All points no neighborhood of which is disjoint from some neighborhood
    of `point`, in sorted-id order.

    Combinatorially: the point itself plus every other point sharing one of
    its incident side-ends.  The tests check it against a brute-force
    finite-basis computation.
    """
    pid = point if isinstance(point, str) else point.id
    return tuple([ls.point(i) for i in _closure_ids(ls, pid)])


def is_special(ls: LeafSpace, point: LeafPoint | str) -> bool:
    return (ls.point(point) if isinstance(point, str) else point).special


def special_points(ls: LeafSpace) -> tuple[LeafPoint, ...]:
    """Points whose Hausdorff closure is not a singleton, in point order."""
    return tuple([p for p in ls.points if p.special])
