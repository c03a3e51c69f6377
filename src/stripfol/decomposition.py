"""Canonical decomposition and combinatorial classification of striped surfaces.

Cutting a striped surface along its special (and optionally boundary)
leaves splits it into the chain and cycle components of the merge graph,
whose edges are the seams with both intervals alone on their sides.  One
walk reads them off the surface; the leaf space gives only the cut points
and closures.  Chains are open / half-closed / closed strips; cycles are a
cylinder or a Moebius band by their orientation monodromy.  Merging chains
yields a canonical representative (a cycle is returned as it is), and the
least rooted-traversal code over root strips and their flips decides
foliated-homeomorphism equivalence.
"""

from collections import namedtuple
from enum import Enum

from .core import (
    DisconnectedSurfaceError,
    GluingSpec,
    Interval,
    ModelStripSpec,
    Orientation,
    Side,
    SideEnd,
    StripedSurface,
    build_surface,
    is_connected,
)
from .leafspace import LeafPoint, LeafSpace, PointKind, build_leaf_space


class Mode(Enum):
    INTERIOR = "interior"            # cut special leaves only
    WITH_BOUNDARY = "with-boundary"  # cut special and boundary leaves


class Shape(Enum):
    CHAIN = "chain"
    CYCLE = "cycle"

    __hash__ = object.__hash__  # as for core.Side


class StripClass(Enum):
    OPEN_STRIP = "open-strip"
    HALF_CLOSED_STRIP = "half-closed-strip"
    CLOSED_STRIP = "closed-strip"
    CYLINDER = "cylinder"
    MOEBIUS = "moebius"

    __hash__ = object.__hash__  # as for core.Side


# chain classes by the number of retained (closed) extremes
_CHAIN_CLASSES = (StripClass.OPEN_STRIP, StripClass.HALF_CLOSED_STRIP, StripClass.CLOSED_STRIP)
_LOWER, _UPPER = Side.LOWER, Side.UPPER  # read once, for component_closures


class NotAChainError(ValueError):
    pass


class Component(
    namedtuple(
        "Component",
        "shape strips interfaces mode outer_lower outer_upper outer_lower_points outer_upper_points"
        " retained_lower retained_upper monodromy",
        defaults=(None, None, (), (), None, None, None),
    )
):
    """One connected piece of the cut surface.

    ``strips`` pairs each member strip with its vertical-flip flag in the
    stacking order of the chain (cycles use an arbitrary but deterministic
    starting strip).  Only chains expose the two outer side-ends; their
    ``*_points`` carry the cut leaves bordering that extreme, in interval
    order, and ``retained_*`` the non-special boundary leaf kept by interior
    mode, if any.  ``monodromy`` is the orientation sign around a cycle.
    """

    __slots__ = ()

    def strip_ids(self) -> tuple[str, ...]:
        return tuple([s for s, _ in self.strips])


class ClosureStrip(namedtuple("ClosureStrip", "base_points side_parity")):
    """Model-strip description of one half-closure of a chain component."""

    __slots__ = ()


def _merge_seams(surface: StripedSurface) -> list[GluingSpec]:
    """The merging seams, those whose two intervals are alone on their sides:
    the leaf space's non-special points, read off the surface."""
    alone = {ivs[0].id for s in surface.strips for ivs in (s.lower, s.upper) if len(ivs) == 1}
    return [g for g in surface.gluings if g.first in alone and g.second in alone]


def _merge_walk(surface: StripedSurface, seams: list[GluingSpec]) -> list[tuple]:
    """Per component of the graph of ``seams``, in order of first strip: (shape,
    strips, seam ids, lower end, upper end, monodromy) as in ``Component``.  A
    chain runs from its end of smaller strip order; a cycle goes up first."""
    loc = surface._interval_loc
    edges: dict[SideEnd, tuple[GluingSpec, SideEnd]] = {}  # side-end -> (seam, partner side-end)
    for g in seams:
        a, b = loc[g.first][:2], loc[g.second][:2]
        edges[a] = (g, b)
        edges[b] = (g, a)
    ids = surface.strip_ids()
    order = dict(zip(ids, range(len(ids))))
    CHAIN, CYCLE, LOWER, UPPER = Shape.CHAIN, Shape.CYCLE, Side.LOWER, Side.UPPER

    seen: set[str] = set()
    out: list[tuple] = []
    for first in ids:  # the first strip of its component
        if first in seen:
            continue
        # Up from ``first``, then down.  A walk that comes back to ``first``
        # has gone round a cycle.  A strip without seams is the chain both of
        # whose walks are empty.
        walks = []
        for side in (UPPER, LOWER):
            strips, crossed = [], []
            sign = 1
            cur, exit_ = first, side
            while (cur, exit_) in edges:
                g, (cur, entered) = edges[cur, exit_]
                crossed.append(g.id)
                # a seam joining a lower to an upper side keeps the y direction
                sign *= g.orientation.sign if entered is not exit_ else -g.orientation.sign
                if cur == first:
                    break
                seen.add(cur)
                strips.append((cur, entered is UPPER))
                exit_ = entered.other
            if cur == first and crossed:
                break
            walks.append((side, strips, crossed, (cur, exit_)))
        if len(walks) < 2:  # the walk up went round: the cycle leaves ``first`` upward
            out.append((CYCLE, ((first, False), *strips), tuple(crossed), None, None, sign))
            continue
        # The chain runs from its end of smaller strip order: that end's walk
        # reversed, so with each flip flag negated, then ``first``, then the
        # other walk.
        up, down = walks
        (head_side, head, head_seams, lower_end), (_, tail, tail_seams, upper_end) = (
            (up, down) if order[up[3][0]] < order[down[3][0]] else (down, up)
        )
        strips = (*[(s, not f) for s, f in reversed(head)], (first, head_side is UPPER), *tail)
        out.append((CHAIN, strips, (*reversed(head_seams), *tail_seams), lower_end, upper_end, None))
    return out


def decompose(
    surface: StripedSurface, mode: Mode = Mode.WITH_BOUNDARY, ls: LeafSpace | None = None
) -> tuple[list[Component], tuple[LeafPoint, ...]]:
    """Cut along special (and, per mode, boundary) leaves.

    Returns the components of the merge graph, each strip in exactly one, and
    the cut points, in the leaf space's point order.  The components come in
    order of their first strip in the surface.  A disconnected surface is
    accepted: each component lies in one connected piece, so the result is the
    union of the pieces' decompositions.  With ``Mode.INTERIOR`` the
    components are those of the leaf space minus its special points.
    """
    if ls is None:
        ls = build_leaf_space(surface)
    boundary_cut = mode is Mode.WITH_BOUNDARY
    boundary = PointKind.BOUNDARY_LEAF
    cut = tuple([p for p in ls.points if p.special or (boundary_cut and p.kind is boundary)])
    incidence = ls.incidence
    point = ls.point_by_id.__getitem__

    comps: list[Component] = []
    for shape, strips, seams, lower_end, upper_end, sign in _merge_walk(surface, _merge_seams(surface)):
        if shape is Shape.CYCLE:
            comps.append(tuple.__new__(Component, (shape, strips, seams, mode, None, None, (), (), None, None, sign)))
            continue
        # No merge seam lies on an exposed side-end, so each point there is
        # special or a boundary leaf: all are cut, except that interior mode
        # keeps a boundary leaf alone on its side-end.
        outer = []
        for end in (lower_end, upper_end):
            pts = tuple(map(point, incidence[end]))
            if boundary_cut or len(pts) != 1 or pts[0].special:
                outer.append((pts, None))
            else:
                outer.append(((), pts[0].id))
        (low_pts, low_ret), (up_pts, up_ret) = outer
        record = (shape, strips, seams, mode, lower_end, upper_end, low_pts, up_pts, low_ret, up_ret, None)
        comps.append(tuple.__new__(Component, record))
    return comps, cut


def classify_component(comp: Component) -> StripClass:
    """Five-type classification: chains by closed extremes, cycles by monodromy."""
    if comp.shape is Shape.CYCLE:
        return StripClass.CYLINDER if comp.monodromy == 1 else StripClass.MOEBIUS
    return _CHAIN_CLASSES[(comp.retained_lower is not None) + (comp.retained_upper is not None)]


CycleCheckReport = namedtuple("CycleCheckReport", "ok violations")


def check_cycle_components(
    surface: StripedSurface, components: list[Component]
) -> CycleCheckReport:
    """A cycle component must be the whole surface, with no special or boundary leaves."""
    violations = []
    cycles = [c for c in components if c.shape is Shape.CYCLE]
    for cyc in cycles:
        if len(components) != 1:
            violations.append(
                f"cycle through {cyc.strip_ids()} coexists with other components"
            )
        if set(cyc.strip_ids()) != set(surface.strip_ids()):
            violations.append("cycle component does not exhaust the surface")
    if cycles:
        # the leaf space's cut points, in its order, read off the surface: each
        # glued point whose seam does not merge, then each unglued interval
        merging = set(_merge_seams(surface))
        cut = [g.id for g in surface.gluings if g not in merging]
        cut += [iv.id for iv in surface.intervals() if iv.id not in surface._gluing_by_interval]
        violations += [f"cycle surface carries cut leaf {pid!r}" for pid in cut]
    return CycleCheckReport(ok=not violations, violations=tuple(violations))


def component_closures(
    comp: Component,
) -> tuple[ClosureStrip, ClosureStrip, tuple[LeafPoint, ...]]:
    """Closures of the two halves of a chain component, as base-leaf lists.

    The overlap holds the cut leaves bordering both extremes, in lower-side
    interval order: the same leaf can close both halves at once.
    """
    if comp.shape is not Shape.CHAIN:
        raise NotAChainError("component closures are defined for chain components only")
    low, up = comp.outer_lower_points, comp.outer_upper_points
    overlap = tuple(filter(set(up).__contains__, low)) if low and up else ()
    return tuple.__new__(ClosureStrip, (low, _LOWER)), tuple.__new__(ClosureStrip, (up, _UPPER)), overlap


# ---------------------------------------------------------------------------
# admissible moves


def _toggle_incident(
    gluings: list[GluingSpec], surface: StripedSurface, strip_ids: set[str]
) -> tuple[GluingSpec, ...]:
    """Toggle the orientation of each gluing with one end on an h-flipped strip."""
    loc = surface._interval_loc
    out = []
    for g in gluings:
        if (loc[g.first][0] in strip_ids) != (loc[g.second][0] in strip_ids):
            g = g._replace(orientation=g.orientation.flipped)
        out.append(g)
    return tuple(out)


def _reverse_side(intervals: tuple[Interval, ...], side: Side) -> tuple[Interval, ...]:
    """The intervals of an h-flipped side, put on ``side``: reversed, endpoints mirrored."""
    out = []
    for k, iv in enumerate(reversed(intervals)):
        ends = None if iv.endpoints is None else (-iv.endpoints[1], -iv.endpoints[0])
        out.append(Interval(iv.id, side, k, ends))
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical representative


def canonicalize(surface: StripedSurface) -> StripedSurface:
    """Merge every chain across its non-special gluings into a single strip.

    The merge walk reads the chains off the surface, without a leaf space.  A
    surface with no merging seam, or that is one cycle (which is terminal),
    is returned as it is.  Idempotent, and the leaf space of the output is
    isomorphic to that of the input (point ids are preserved verbatim).
    """
    if not is_connected(surface):
        raise DisconnectedSurfaceError("canonicalize requires a connected surface")
    # Without a merging seam every interior-mode component is a single strip.
    # Each merging seam consumes two side-ends: as many seams as strips
    # consume every side-end, and the connected surface is one cycle.
    seams = _merge_seams(surface)
    if not seams or len(seams) == len(surface.strips):
        return surface

    order = {sid: i for i, sid in enumerate(surface.strip_ids())}
    # a merged strip's id must not repeat any id of the one namespace
    taken = {iv.id for iv in surface.intervals()} | {g.id for g in surface.gluings} | set(order)
    h_flipped: set[str] = set()
    merged: list[tuple[int, ModelStripSpec]] = []
    for _, strips, interfaces, lower_end, upper_end, _ in _merge_walk(surface, seams):
        ids = [sid for sid, _ in strips]
        if len(ids) == 1:
            merged.append((order[ids[0]], surface.strip(ids[0])))
            continue
        # cumulative horizontal flip along the chain: one per reversing seam
        h = {ids[0]: False}
        for gid, (prev, nxt) in zip(interfaces, zip(ids, ids[1:])):
            h[nxt] = h[prev] ^ (surface.gluing(gid).orientation is Orientation.REVERSING)
        h_flipped.update([sid for sid, flipped in h.items() if flipped])

        def contributed(end: SideEnd, new_side: Side) -> tuple[Interval, ...]:
            sid, side = end
            ivs = surface.strip(sid).side_intervals(side)
            if h[sid]:
                return _reverse_side(ivs, new_side)
            return tuple([Interval(iv.id, new_side, k, iv.endpoints) for k, iv in enumerate(ivs)])

        merged_id = "+".join(ids)
        while merged_id in taken:
            merged_id += "+"
        taken.add(merged_id)
        lower, upper = contributed(lower_end, Side.LOWER), contributed(upper_end, Side.UPPER)
        merged.append((order[ids[0]], ModelStripSpec(merged_id, lower, upper)))

    new_strips = [s for _, s in sorted(merged, key=lambda t: t[0])]
    consumed = {g.id for g in seams}  # each inside a merged chain
    gluings = [g for g in surface.gluings if g.id not in consumed]
    return build_surface(new_strips, _toggle_incident(gluings, surface, h_flipped))


# ---------------------------------------------------------------------------
# canonical code and isomorphism


def _slot_table(surface: StripedSurface):
    """Per strip: (lower ids, upper ids); per glued interval: its partner's
    (strip, side 0/1, slot) and 1 if the seam reverses else 0."""
    loc = surface._interval_loc
    UPPER, REVERSING = Side.UPPER, Orientation.REVERSING
    sides = {s.id: (tuple([iv.id for iv in s.lower]), tuple([iv.id for iv in s.upper])) for s in surface.strips}
    partner = {}
    for g in surface.gluings:
        rev = int(g.orientation is REVERSING)
        for iid, other in ((g.first, g.second), (g.second, g.first)):
            sid, side, slot = loc[other]
            partner[iid] = (sid, int(side is UPPER), slot, rev)
    return sides, partner


def _rooted_rows(table, root: str, h: int, v: int, best: list[list[int]] | None):
    """Rows of the walk from ``root`` with flips ``h``, ``v``, with its placement.

    Strips are scanned in placement order, oriented side 0 then 1, each
    side's slots in oriented order.  A gluing that reaches an unplaced strip
    places it next, flipped so the seam reads preserving and the strip is
    entered on the oriented side opposite the one it was reached from.  A
    row holds the two side lengths, then per slot -1 (boundary) or the
    partner's (position, side, slot, seam flag).

    Each finished row is compared with the row of ``best`` at its index: the
    walk returns None at the first larger row and stops comparing after the
    first smaller one.  Otherwise it returns (rows, order, placed), where
    ``placed`` maps each strip to its (position, h, v).
    """
    sides, partner = table
    partner_of = partner.get
    placed = {root: (0, h, v)}
    order = [root]
    rows = []
    for sid in order:  # grows while the walk places strips
        _, h_here, v_here = placed[sid]
        oriented = sides[sid][::-1] if v_here else sides[sid]
        row = [len(oriented[0]), len(oriented[1])]
        for side_idx, ids in enumerate(oriented):
            for iid in ids[::-1] if h_here else ids:
                p = partner_of(iid)
                if p is None:
                    row.append(-1)
                    continue
                o_sid, o_side, o_slot, rev = p
                if o_sid not in placed:
                    placed[o_sid] = (len(order), h_here ^ rev, o_side ^ side_idx ^ 1)
                    order.append(o_sid)
                q, o_h, o_v = placed[o_sid]
                if o_h:
                    o_slot = len(sides[o_sid][o_side]) - 1 - o_slot
                row += (q, o_side ^ o_v, o_slot, rev ^ h_here ^ o_h)
        if best is not None:
            best_row = best[len(rows)]
            if row != best_row:
                if row > best_row:
                    return None
                best = None
        rows.append(row)
    return rows, order, placed


def _least_rows(table, roots: list[tuple[str, int, int]]) -> tuple[list[list[int]], int]:
    """Least walk over ``roots``, walking one root per orbit found so far, and the number of walks.

    A walk that ties the best walk gives an automorphism of the piece: the
    strip at each position of one walk goes to the strip at that position of
    the other, flips composed.  Roots joined by automorphisms have equal
    walks, so a root in the orbit of a walked root under the automorphisms
    found is skipped (McKay's orbit pruning).
    """
    autos = []  # per tie: the tied walk's placement, the best walk's order and placement
    known = set()  # the orbits of the walked roots under ``autos``
    new = []  # known roots whose images are not known yet
    best = None
    walks = 0
    for root in roots:
        while autos and new:
            sid, h, v = new.pop()
            for placed, best_order, best_placed in autos:
                pos, h1, v1 = placed[sid]
                t = best_order[pos]
                _, h2, v2 = best_placed[t]
                image = (t, h ^ h1 ^ h2, v ^ v1 ^ v2)
                if image not in known:
                    known.add(image)
                    new.append(image)
        if root in known:
            continue
        known.add(root)
        walks += 1
        walk = _rooted_rows(table, *root, None if best is None else best[0])
        if walk is not None and best is not None and walk[0] == best[0]:
            autos.append((walk[2], best[1], best[2]))
            new = list(known)  # the new automorphism moves every known root
        else:
            if walk is not None:
                best = walk  # smaller: the walk never returns a larger one
            new.append(root)
    return best[0], walks


def _least_roots(sides, piece) -> tuple[tuple[int, int], list[tuple[str, int, int]]]:
    """The least (side, other side) lengths in a piece, and every root whose walk opens with them."""
    lengths = {(sid, v): (len(sides[sid][v]), len(sides[sid][1 - v])) for sid in piece for v in (0, 1)}
    least = min(lengths.values())
    return least, [(sid, h, v) for (sid, v), n in lengths.items() if n == least for h in (0, 1)]


def canonical_code(surface: StripedSurface) -> bytes:
    """Least rooted-traversal code over all roots, per piece; pieces sorted.

    A root is a strip with its two flips, and the walk from it fixes every
    other strip's position and flips, so the least code over roots is
    invariant under admissible moves and tells non-isomorphic surfaces
    apart.  A root's first row opens with its side lengths, so only roots
    with the least lengths are walked, and only one per orbit of the
    automorphisms that ties reveal.  One slot table serves every piece: a
    walk never leaves the piece of its root.
    """
    table = _slot_table(surface)
    codes = []
    for piece in surface._partition:
        rows = _least_rows(table, _least_roots(table[0], piece)[1])[0]
        codes.append("|".join([str(row)[1:-1] for row in rows]).replace(" ", "").encode("ascii"))
    return b"/".join(sorted(codes))


def _invariants(surface: StripedSurface) -> tuple[int, list[tuple[int, int]]]:
    """The boundary-leaf count and the sorted per-strip (shorter, longer) side
    lengths: both read off the canonical code, so moves keep them."""
    pairs = sorted([(m, n) if m <= n else (n, m) for m, n in [(len(s.lower), len(s.upper)) for s in surface.strips]])
    return len(surface._interval_loc) - 2 * len(surface.gluings), pairs


def is_isomorphic(a: StripedSurface, b: StripedSurface) -> bool:
    """Foliated-homeomorphism equivalence of two connected surfaces.

    Both are canonicalized (chains merged); equality of canonical codes then
    decides equivalence under relabelings and strip flips.  A differing strip
    count, boundary-leaf count or multiset of side-length pairs answers false
    before any walk.  Only ``a``'s least rows are searched for; walks from
    ``b``'s least-length roots, bounded by them, end it at the first that
    ties (a map of ``b`` onto ``a``) or reads smaller.  After as many as
    ``a``'s search made, ``b``'s own search over the other roots decides: a
    tie can only be among them.
    """
    a, b = canonicalize(a), canonicalize(b)
    if len(a.strips) != len(b.strips) or not a.strips or _invariants(a) != _invariants(b):
        return not a.strips and not b.strips  # the empty surface is its own class
    table_a, table_b = _slot_table(a), _slot_table(b)
    roots = _least_roots(table_a[0], a.strip_ids())[1]
    roots_b = _least_roots(table_b[0], b.strip_ids())[1]
    best, walks = _least_rows(table_a, roots)
    for root in roots_b[:walks]:
        walk = _rooted_rows(table_b, *root, best)
        if walk is not None:  # a walk that stops larger returns None
            return walk[0] == best
    return len(roots_b) > walks and _least_rows(table_b, roots_b[walks:])[0] == best
