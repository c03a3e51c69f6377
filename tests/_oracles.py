"""Independent oracles: orientation propagation, exhaustive isomorphism and
automorphism counts, the leaf-space arc walker, the branch-and-bound
canonical code, the unpruned rooted traversal, the reference dicts of the
JSON documents, the member-search decomposition, the reference diagram
writers, the reference load path, the reference realization kernels, the
closure staging of the straightening and the realization in exact rational
arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple

import json
import math
import re

from stripfol.core import (
    _BAD_ID_CHAR,
    BadEndpointsError,
    BadIdError,
    DoubleGluingError,
    DuplicateIdError,
    GluingSpec,
    Interval,
    ModelStripSpec,
    Orientation,
    SameSideGluingError,
    SelfGluingError,
    Side,
    StripedSurface,
    UnknownIntervalRefError,
    build_surface,
    glue,
    strip,
)
from stripfol.decomposition import (
    Component,
    CycleCheckReport,
    Mode,
    Shape,
    check_cycle_components,
    classify_component,
    component_closures,
    decompose,
)
from stripfol.io import _BAND_GAP, _BAND_H, _MARGIN, _X_CLAMP, _X_SCALE, ParseError, _dot_quoted, _xml_text
from stripfol.leafspace import LeafSpace, PointKind, build_leaf_space, hausdorff_closure, is_special

from _gen import components


def _det2(m) -> float:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inv2(m):
    d = _det2(m)
    return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]


def _mul2(a, b):
    return [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]


def _chart_matrix(side: Side, occupies_positive: bool, x_dir: float):
    """Linear part of the chart placing a strip germ into a glued neighborhood.

    The strip's boundary line lands on y=0; the strip body occupies the
    positive or negative side according to which collar it provides, and its
    inward direction (down from an upper side, up from a lower side) must
    point into the body's side of the chart.
    """
    inward = -1.0 if side is Side.UPPER else 1.0
    y_scale = (1.0 if occupies_positive else -1.0) * inward
    return [[x_dir, 0.0], [0.0, y_scale]]


def orientability_by_propagation(surface: StripedSurface) -> bool:
    """Orientation-class propagation over a two-cells-per-strip decomposition.

    Each strip splits into a lower-half and an upper-half cell; the halves
    share the mid line (identity transition), and each gluing induces a
    transition whose Jacobian sign is the determinant of the composed chart
    matrices.  The surface is orientable iff signs propagate without conflict.
    """
    cells = [(s.id, half) for s in surface.strips for half in ("low", "up")]
    adj: dict = {c: [] for c in cells}
    for s in surface.strips:
        adj[(s.id, "low")].append(((s.id, "up"), 1))
        adj[(s.id, "up")].append(((s.id, "low"), 1))
    for g in surface.gluings:
        a_strip, a_side = surface.side_end_of(g.first)
        b_strip, b_side = surface.side_end_of(g.second)
        x_dir = 1.0 if g.orientation is Orientation.PRESERVING else -1.0
        m_a = _chart_matrix(a_side, occupies_positive=False, x_dir=1.0)
        m_b = _chart_matrix(b_side, occupies_positive=True, x_dir=x_dir)
        det = _det2(_mul2(_inv2(m_b), m_a))
        sign = 1 if det > 0 else -1
        cell_a = (a_strip, "low" if a_side is Side.LOWER else "up")
        cell_b = (b_strip, "low" if b_side is Side.LOWER else "up")
        adj[cell_a].append((cell_b, sign))
        adj[cell_b].append((cell_a, sign))

    colors: dict = {}
    for root in cells:
        if root in colors:
            continue
        colors[root] = 1
        stack = [root]
        while stack:
            c = stack.pop()
            for nxt, sign in adj[c]:
                want = colors[c] * sign
                if nxt not in colors:
                    colors[nxt] = want
                    stack.append(nxt)
                elif colors[nxt] != want:
                    return False
    return True


class TopologicalType(NamedTuple):
    """A connected striped surface up to homeomorphism (Kerekjarto, Richards).

    ``genus`` is the genus of an orientable surface and the crosscap count of
    a non-orientable one, as computed; a sound surface gives a whole number.
    ``circles`` counts the boundary circles of the compact surface that
    closes it, ``ends`` its ends and ``boundary_lines`` its unglued intervals.
    """

    orientable: bool
    euler: int
    genus: Fraction
    circles: int
    ends: int
    boundary_lines: int


def topological_type(surface: StripedSurface) -> TopologicalType:
    """The type of a connected surface, read off its strips and gluings alone.

    Strips and glued leaves are contractible, so the Euler characteristic is
    strips minus gluings.  Each strip closes to a disk whose boundary circle
    runs along the lower side left to right, then the upper side right to
    left; arcs of the circle join one interval's end to the next interval's.
    Closing each glued pair of intervals (a preserving seam joins left end to
    left end, a reversing one left end to right end) gives a compact surface
    whose boundary is made of those arcs and the unglued intervals.  Each of
    its circles is an end of the surface if it holds no unglued interval, and
    else gives one end per unglued interval on it.
    """
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        return v

    def union(a, b) -> None:
        parent[find(a)] = find(b)

    # vertices are interval ends (id, 0 left or 1 right); a seam merges ends
    for g in surface.gluings:
        flip = g.orientation is Orientation.REVERSING
        union((g.first, 0), (g.second, int(flip)))
        union((g.first, 1), (g.second, int(not flip)))
    glued = {i for g in surface.gluings for i in (g.first, g.second)}
    empty_disks = 0
    edges = []  # (vertex, vertex, whether the edge is an unglued interval)
    for s in surface.strips:
        # the circle's intervals, each as (end entered, end left)
        walk = [((iv.id, 0), (iv.id, 1)) for iv in s.lower] + [((iv.id, 1), (iv.id, 0)) for iv in reversed(s.upper)]
        if not walk:
            empty_disks += 1
        for (_, leave), (enter, _) in zip(walk, walk[1:] + walk[:1]):
            edges.append((leave, enter, False))
        edges += [((iv.id, 0), (iv.id, 1), True) for iv in (*s.lower, *s.upper) if iv.id not in glued]
    # every vertex meets two edges, so the components of the edge graph are circles
    for a, b, _ in edges:
        union(a, b)
    lines_on = dict.fromkeys({find(a) for a, _, _ in edges}, 0)
    for a, _, line in edges:
        lines_on[find(a)] += line
    circles = len(lines_on) + empty_disks
    ends = sum(max(n, 1) for n in lines_on.values()) + empty_disks
    orientable = orientability_by_propagation(surface)
    euler = len(surface.strips) - len(surface.gluings)
    # chi = 2 - 2g - circles if orientable, else 2 - k - circles
    genus = Fraction(2 - euler - circles, 2 if orientable else 1)
    return TopologicalType(orientable, euler, genus, circles, ends, sum(lines_on.values()))


def _interval_map(a: StripedSurface, b: StripedSurface, perm: dict, flips: dict):
    mapping = {}
    for s in a.strips:
        t = b.strip(perm[s.id])
        h, v = flips[s.id]
        a_sides = (s.lower, s.upper)
        b_sides = (t.lower, t.upper) if not v else (t.upper, t.lower)
        for a_ivs, b_ivs in zip(a_sides, b_sides):
            if len(a_ivs) != len(b_ivs):
                return None
            for k, iv in enumerate(a_ivs):
                k2 = len(b_ivs) - 1 - k if h else k
                mapping[iv.id] = b_ivs[k2].id
    return mapping


def is_isomorphism(a: StripedSurface, b: StripedSurface, perm: dict, flips: dict) -> bool:
    """Whether the strip bijection ``perm`` with the (h, v) ``flips`` carries ``a`` onto ``b``.

    Each side keeps its interval count; an unglued interval goes to an
    unglued one, and both intervals of a gluing go to the two of one gluing,
    whose seam flag is the first's toggled once per h-flipped end.
    """
    if sorted(perm) != sorted(a.strip_ids()) or sorted(perm.values()) != sorted(b.strip_ids()):
        return False
    mapping = _interval_map(a, b, perm, flips)
    if mapping is None:
        return False
    for iv in a.intervals():
        ga = a.gluing_of(iv.id)
        gb = b.gluing_of(mapping[iv.id])
        if (ga is None) != (gb is None):
            return False
        if ga is None:
            continue
        if {mapping[ga.first], mapping[ga.second]} != {gb.first, gb.second}:
            return False
        h1 = flips[a.side_end_of(ga.first)[0]][0]
        h2 = flips[a.side_end_of(ga.second)[0]][0]
        want_rev = (ga.orientation is Orientation.REVERSING) ^ h1 ^ h2
        if (gb.orientation is Orientation.REVERSING) != want_rev:
            return False
    return True


def _isomorphisms(a: StripedSurface, b: StripedSurface):
    """Yield every strip bijection with flips that carries ``a`` onto ``b``.

    Structural comparison over every bijection and flip assignment, so keep
    the surfaces small; completely independent of the canonical-code search.
    """
    if len(a.strips) != len(b.strips) or len(a.gluings) != len(b.gluings):
        return
    a_ids = a.strip_ids()
    b_ids = b.strip_ids()
    for target in permutations(b_ids):
        perm = dict(zip(a_ids, target))
        for flip_choice in product(((False, False), (False, True), (True, False), (True, True)), repeat=len(a_ids)):
            flips = dict(zip(a_ids, flip_choice))
            if is_isomorphism(a, b, perm, flips):
                yield perm, flips


def exhaustive_isomorphic(a: StripedSurface, b: StripedSurface) -> bool:
    """Intended for small canonicalized surfaces."""
    return next(_isomorphisms(a, b), None) is not None


def automorphism_count(surface: StripedSurface) -> int:
    """Strip permutations with h/v flips that keep every gluing and seam flag."""
    return sum(1 for _ in _isomorphisms(surface, surface))


# ---------------------------------------------------------------------------
# leaf-space arc walker: the components of the leaf space minus its special
# points, found by walking arcs across non-special points.  An independent
# reference for the interior-mode components of
# ``stripfol.decomposition.decompose``.


class ArcType(Enum):
    OPEN_INTERVAL = "open-interval"
    HALF_CLOSED = "half-closed"
    CLOSED = "closed"
    CIRCLE = "circle"


@dataclass(frozen=True)
class ArcComponent:
    """A connected component of the leaf space minus its special points."""

    arcs: tuple[str, ...]
    joints: tuple[str, ...]      # non-special glued points traversed
    end_points: tuple[str, ...]  # retained boundary points at closed ends


ArcEnd = tuple[str, Side]


def _end_status(ls: LeafSpace, end: ArcEnd):
    """Classify an arc end: ('continue', next_end, joint_id) | ('closed', pid) | ('open',)."""
    pids = ls.incidence.get(end, ())
    if len(pids) != 1:
        return ("open",)
    p = ls.point(pids[0])
    if p.special:
        return ("open",)
    if p.kind is PointKind.BOUNDARY_LEAF:
        return ("closed", p.id)
    # sole non-special gluing: the arc continues into the partner interval's strip
    a, b = ls.ends_of(p)
    return ("continue", b if a == end else a, p.id)


def _walk(ls: LeafSpace, end: ArcEnd, seen: set[str], arcs: list[str], joints: list[str]):
    """Follow non-special gluings from an arc end, appending the strips and joints met.

    Returns the status of the last end: ('open',), ('closed', pid), or
    ('circle',) when the walk reaches a strip already seen.
    """
    while True:
        status = _end_status(ls, end)
        if status[0] != "continue":
            return status
        _, (strip_id, entered), joint = status
        joints.append(joint)
        if strip_id in seen:
            return ("circle",)
        seen.add(strip_id)
        arcs.append(strip_id)
        end = (strip_id, entered.other)


def arc_component_types(ls: LeafSpace) -> list[tuple[ArcComponent, ArcType]]:
    """Connected components of the non-special part, each with its topological type.

    Arcs are joined across non-special glued points; a sole non-special
    boundary leaf closes its end; a chain meeting itself is a circle.
    """
    seen: set[str] = set()
    out: list[tuple[ArcComponent, ArcType]] = []
    for start in ls.arcs:
        if start in seen:
            continue
        seen.add(start)
        forward, backward, joints = [start], [], []
        up = _walk(ls, (start, Side.UPPER), seen, forward, joints)
        if up[0] == "circle":
            kind, end_points = ArcType.CIRCLE, ()
        else:
            # a chain that is not a circle cannot reach the strips walked above
            down = _walk(ls, (start, Side.LOWER), seen, backward, joints)
            end_points = tuple([st[1] for st in (up, down) if st[0] == "closed"])
            kind = (ArcType.OPEN_INTERVAL, ArcType.HALF_CLOSED, ArcType.CLOSED)[len(end_points)]
        arcs = tuple(reversed(backward)) + tuple(forward)
        out.append((ArcComponent(arcs, tuple(joints), end_points), kind))
    return out


def leafspace_invariants(ls):
    """Merge-invariant description: cut-point closures and component types.

    Non-special glued points disappear when chains merge; everything here is
    phrased in terms of the surviving point ids only.
    """
    closures = {}
    for p in ls.points:
        if is_special(ls, p) or p.kind is PointKind.BOUNDARY_LEAF:
            closures[p.id] = tuple(sorted(q.id for q in hausdorff_closure(ls, p)))
    types = sorted(
        (t.value, tuple(sorted(c.end_points))) for c, t in arc_component_types(ls)
    )
    return (closures, types)


# ---------------------------------------------------------------------------
# branch-and-bound canonical code: a differential reference for the rooted
# traversal of ``stripfol.decomposition.canonical_code``.  Two surfaces get
# equal codes exactly when some relabeling and per-strip flips carry one onto
# the other; the search is exponential in the strip count, so keep inputs
# small.


def _slot_table(surface: StripedSurface):
    """Per strip: (lower ids, upper ids); plus interval -> (strip, side, slot)."""
    sides = {}
    loc = {}
    for s in surface.strips:
        lo = tuple(iv.id for iv in s.lower)
        up = tuple(iv.id for iv in s.upper)
        sides[s.id] = (lo, up)
        for side_idx, ids in enumerate((lo, up)):
            for k, iid in enumerate(ids):
                loc[iid] = (s.id, side_idx, k)
    return sides, loc


def _assignment_row(surface, sides, loc, placed_pos, placement, p):
    """Encode strip row at position p given the partial placement.

    placement[p] = (strip_id, h, v).  Gluings are written as back references
    from their later endpoint in scan order; earlier endpoints emit a forward
    marker, boundary slots a 'b'.
    """
    sid, h, v = placement[p]
    lo, up = sides[sid]
    row_sides = (lo, up) if not v else (up, lo)
    row: list = [len(row_sides[0]), len(row_sides[1])]

    def scan_pos(strip_pos, strip_key, side_idx_natural, slot_natural):
        s_id, s_h, s_v = placement[strip_pos]
        side_idx = side_idx_natural ^ (1 if s_v else 0)
        n = len(sides[s_id][side_idx_natural])
        slot = (n - 1 - slot_natural) if s_h else slot_natural
        return (strip_pos, side_idx, slot)

    # tokens are tuples throughout so rows compare lexicographically; back
    # references ("g") sort below boundary ("i") and forward ("z") markers so
    # the minimal code keeps gluings as early as possible, which is what lets
    # the search prune on symmetric surfaces
    for side_idx, ids in enumerate(row_sides):
        ordered = tuple(reversed(ids)) if h else ids
        for slot, iid in enumerate(ordered):
            g = surface.gluing_of(iid)
            if g is None:
                row.append(("i",))
                continue
            other = g.second if iid == g.first else g.first
            o_sid, o_side_nat, o_slot_nat = loc[other]
            if o_sid not in placed_pos:
                row.append(("z",))
                continue
            q = placed_pos[o_sid]
            here = (p, side_idx, slot)
            there = scan_pos(q, o_sid, o_side_nat, o_slot_nat)
            if there >= here:
                row.append(("z",))
                continue
            _, o_h, _ = placement[q]
            flag = (g.orientation is Orientation.REVERSING) ^ h ^ o_h
            row.append(("g", there[0], there[1], there[2], 1 if flag else 0))
    return tuple(row)


def _canonical_rows(surface: StripedSurface) -> tuple:
    sides, loc = _slot_table(surface)
    n = len(surface.strips)
    strip_ids = surface.strip_ids()
    best: list[tuple] | None = None

    def rec(placement: list, placed_pos: dict, rows: list):
        nonlocal best
        p = len(placement)
        if p == n:
            rows_t = tuple(rows)
            if best is None or rows_t < tuple(best):
                best = list(rows)
            return
        candidates = []
        for sid in strip_ids:
            if sid in placed_pos:
                continue
            for h in (False, True):
                for v in (False, True):
                    placement.append((sid, h, v))
                    placed_pos[sid] = p
                    row = _assignment_row(surface, sides, loc, placed_pos, placement, p)
                    placement.pop()
                    del placed_pos[sid]
                    candidates.append((row, sid, h, v))
        candidates.sort(key=lambda c: c[0])
        for row, sid, h, v in candidates:
            if best is not None and tuple(rows + [row]) > tuple(best[: p + 1]):
                continue
            placement.append((sid, h, v))
            placed_pos[sid] = p
            rows.append(row)
            rec(placement, placed_pos, rows)
            rows.pop()
            placement.pop()
            del placed_pos[sid]

    rec([], {}, [])
    return tuple(best if best is not None else [])


def _rows_to_bytes(rows: tuple) -> bytes:
    parts = []
    for row in rows:
        tokens = []
        for tok in row:
            if isinstance(tok, tuple):
                tokens.append(tok[0] + ".".join(str(t) for t in tok[1:]))
            else:
                tokens.append(str(tok))
        parts.append(",".join(tokens))
    return ("|".join(parts)).encode("ascii")


def branch_and_bound_code(surface: StripedSurface) -> bytes:
    """Lexicographically minimal code over strip placement orders and flips."""
    return _rows_to_bytes(_canonical_rows(surface))


# ---------------------------------------------------------------------------
# unpruned rooted traversal: the walk of ``canonical_code`` from every root
# with the least side lengths, each to its end, with no early abandon and no
# orbit pruning.  The least of these walks is the code the library must print.


def _rooted_rows(sides, loc, partner, root: str, h: int, v: int) -> list[list[int]]:
    placed = {root: (0, h, v)}
    order = [root]
    rows = []
    for sid in order:  # grows while the walk places strips
        _, h_here, v_here = placed[sid]
        oriented = sides[sid][::-1] if v_here else sides[sid]
        row = [len(oriented[0]), len(oriented[1])]
        for side_idx, ids in enumerate(oriented):
            for iid in ids[::-1] if h_here else ids:
                if iid not in partner:
                    row.append(-1)
                    continue
                other, rev = partner[iid]
                o_sid, o_side, o_slot = loc[other]
                if o_sid not in placed:
                    placed[o_sid] = (len(order), h_here ^ rev, o_side ^ side_idx ^ 1)
                    order.append(o_sid)
                q, o_h, o_v = placed[o_sid]
                if o_h:
                    o_slot = len(sides[o_sid][o_side]) - 1 - o_slot
                row += (q, o_side ^ o_v, o_slot, rev ^ h_here ^ o_h)
        rows.append(row)
    return rows


def least_root_walks(piece: StripedSurface) -> dict:
    """Rows of the walk from every least-length root (strip, h, v) of a connected piece."""
    sides, loc = _slot_table(piece)
    partner = {}
    for g in piece.gluings:
        rev = int(g.orientation is Orientation.REVERSING)
        partner[g.first] = (g.second, rev)
        partner[g.second] = (g.first, rev)
    lengths = {
        (sid, v): (len(sides[sid][v]), len(sides[sid][1 - v])) for sid in sides for v in (0, 1)
    }
    least = min(lengths.values())
    return {
        (sid, h, v): _rooted_rows(sides, loc, partner, sid, h, v)
        for (sid, v), n in lengths.items()
        if n == least
        for h in (0, 1)
    }


def unpruned_rooted_code(surface: StripedSurface) -> bytes:
    """Least walk over all least-length roots, per piece; pieces sorted."""
    codes = []
    for piece in components(surface):
        rows = min(least_root_walks(piece).values())
        codes.append("|".join(",".join(map(str, row)) for row in rows).encode("ascii"))
    return b"/".join(sorted(codes))


def decode_code(code: bytes) -> StripedSurface:
    """A surface whose ``canonical_code`` is ``code``, read off the code alone.

    Row ``p`` of piece ``i`` is strip ``"{i}.{p}"``, oriented as the walk
    placed it: its side 0 is lower, and slot ``k`` of side ``s`` is interval
    ``"{i}.{p}.{'lu'[s]}{k}"``.  Each partner pair is one gluing, reversing
    iff its seam flag is 1.  Pieces are split at ``/``.
    """
    strips, gluings = [], []
    for i, piece in enumerate(code.decode("ascii").split("/") if code else ()):
        for p, text in enumerate(piece.split("|")):
            row = [int(t) for t in text.split(",")]
            ids = [[f"{i}.{p}.{'lu'[s]}{k}" for k in range(row[s])] for s in (0, 1)]
            strips.append(strip(f"{i}.{p}", ids[0], ids[1]))
            at = 2
            for s, k in [(s, k) for s in (0, 1) for k in range(row[s])]:
                if row[at] == -1:
                    at += 1
                    continue
                q, o_side, o_slot, flag = row[at : at + 4]
                at += 4
                if (p, s, k) < (q, o_side, o_slot):  # each pair once
                    other = f"{i}.{q}.{'lu'[o_side]}{o_slot}"
                    gluings.append(glue(f"{i}.g{len(gluings)}", ids[s][k], other, ("preserving", "reversing")[flag]))
    return build_surface(strips, gluings)


# ---------------------------------------------------------------------------
# reference dicts of the JSON documents: each document the CLI writes must
# equal json.dumps(reference, indent=2) byte for byte


def _endpoint_value(x: float):
    if x == float("-inf"):
        return "-inf"
    if x == float("inf"):
        return "+inf"
    # an int below 1e16 in magnitude; from there on json writes float.__repr__
    return int(x) if abs(x) < 1e16 and float(x).is_integer() else x


def serialize_reference(surface: StripedSurface) -> dict:
    """The surface document that ``io.serialize`` writes."""
    doc = {"strips": [], "gluings": []}
    for s in surface.strips:
        rec = {"id": s.id, "lower": [], "upper": []}
        for side_name, ivs in (("lower", s.lower), ("upper", s.upper)):
            for iv in ivs:
                irec = {"id": iv.id}
                if iv.endpoints is not None:
                    irec["endpoints"] = [_endpoint_value(x) for x in iv.endpoints]
                rec[side_name].append(irec)
        doc["strips"].append(rec)
    for g in surface.gluings:
        doc["gluings"].append({"id": g.id, "a": g.first, "b": g.second, "orientation": g.orientation.value})
    return doc


def leafspace_reference(ls: LeafSpace) -> dict:
    """The leaf-space document that ``io.leafspace_json`` writes."""
    return {
        "arcs": list(ls.arcs),
        "points": [
            {
                "id": p.id,
                "members": list(p.members),
                "kind": p.kind.value,
                "special": p.special,
                "hausdorff_closure": sorted(q.id for q in hausdorff_closure(ls, p)),
            }
            for p in ls.points
        ],
        "incidence": [
            {"strip": sid, "side": side.value, "points": list(ls.incidence[sid, side])}
            for sid in ls.arcs
            for side in (Side.LOWER, Side.UPPER)
        ],
    }


def decompose_reference(surface: StripedSurface, mode: Mode) -> dict:
    """The report of ``stripfol decompose`` on a connected surface.

    Cut and overlap points go in first-incidence order: by strip position,
    side, interval place.
    """
    ls = build_leaf_space(surface)
    order = {}
    for sid in ls.arcs:
        for side in (Side.LOWER, Side.UPPER):
            for pid in ls.incidence[sid, side]:
                order.setdefault(pid, len(order))
    comps, cut = decompose(surface, mode, ls)
    out = {
        "mode": mode.value,
        "cut": sorted((p.id for p in cut), key=order.__getitem__),
        "components": [],
        "cycle_check_ok": check_cycle_components(surface, comps).ok,
    }
    for comp in comps:
        rec = {
            "strips": [{"id": s, "flipped": f} for s, f in comp.strips],
            "shape": comp.shape.value,
            "class": classify_component(comp).value,
            "interfaces": list(comp.interfaces),
        }
        if comp.shape is Shape.CHAIN:
            lower, upper, overlap = component_closures(comp)
            rec["closures"] = {
                "lower": [p.id for p in lower.base_points],
                "upper": [p.id for p in upper.base_points],
                "overlap": sorted((p.id for p in overlap), key=order.__getitem__),
            }
            if comp.retained_lower is not None or comp.retained_upper is not None:
                rec["retained"] = {"lower": comp.retained_lower, "upper": comp.retained_upper}
        else:
            rec["monodromy"] = comp.monodromy
        out["components"].append(rec)
    return out


# ---------------------------------------------------------------------------
# member-search decomposition: each component's member strips are collected
# first, its extremes sorted by strip order, and the chain walked from the
# least one.  A differential reference for ``stripfol.decomposition.decompose``.


def _merge_edges(surface: StripedSurface, ls: LeafSpace) -> dict:
    """Map each side-end consumed by a non-special gluing to (gluing, partner side-end)."""
    gluing = {g.id: g for g in surface.gluings}
    out = {}
    for p in ls.points:
        if p.kind is PointKind.NON_SPECIAL_GLUED:
            g = gluing[p.id]
            a, b = ls.ends_of(p)
            out[a] = (g, b)
            out[b] = (g, a)
    return out


def _outer_data(ls: LeafSpace, end, cut_ids: set[str], mode: Mode):
    """Base points (cut leaves, interval order) and retained boundary leaf of an extreme."""
    pids = ls.incidence.get(end, ())
    base = tuple([ls.point(pid) for pid in pids if pid in cut_ids])
    retained = None
    if mode is Mode.INTERIOR and len(pids) == 1:
        p = ls.point(pids[0])
        # a boundary leaf alone on its side-end is never special
        if p.kind is PointKind.BOUNDARY_LEAF:
            retained = p.id
    return base, retained


def decompose_by_member_search(surface: StripedSurface, mode: Mode = Mode.WITH_BOUNDARY):
    """(components, the set of cut points), as ``decompose`` finds them."""
    ls = build_leaf_space(surface)
    boundary_cut = mode is Mode.WITH_BOUNDARY
    cut = frozenset([p for p in ls.points if p.special or (boundary_cut and p.kind is PointKind.BOUNDARY_LEAF)])
    cut_ids = {p.id for p in cut}
    edges = _merge_edges(surface, ls)

    order = {sid: i for i, sid in enumerate(surface.strip_ids())}
    seen: set[str] = set()
    comps = []
    for sid in surface.strip_ids():
        if sid in seen:
            continue
        comps.append(_trace_component(ls, sid, edges, cut_ids, mode, seen, order))
    return comps, cut


def _trace_component(ls, start, edges, cut_ids, mode, seen, order) -> Component:
    # collect the member strips first to find the extremes
    members = {start}
    frontier = [start]
    while frontier:
        sid = frontier.pop()
        for side in (Side.LOWER, Side.UPPER):
            if (sid, side) in edges:
                nxt = edges[(sid, side)][1][0]
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
    seen.update(members)

    def degree(sid: str) -> int:
        return ((sid, Side.LOWER) in edges) + ((sid, Side.UPPER) in edges)

    extremes = sorted((s for s in members if degree(s) < 2), key=lambda s: order[s])

    if extremes:
        first = extremes[0]
        exposed = Side.LOWER if (first, Side.LOWER) not in edges else Side.UPPER
        strips: list[tuple[str, bool]] = [(first, exposed is Side.UPPER)]
        interfaces: list[str] = []
        cur, cur_exit = first, exposed.other
        while (cur, cur_exit) in edges:
            g, (nxt, entered) = edges[(cur, cur_exit)]
            interfaces.append(g.id)
            strips.append((nxt, entered is Side.UPPER))
            cur, cur_exit = nxt, entered.other
        outer_lower = (first, exposed)
        outer_upper = (cur, cur_exit)
        low_pts, low_ret = _outer_data(ls, outer_lower, cut_ids, mode)
        up_pts, up_ret = _outer_data(ls, outer_upper, cut_ids, mode)
        return Component(
            shape=Shape.CHAIN,
            strips=tuple(strips),
            interfaces=tuple(interfaces),
            outer_lower=outer_lower,
            outer_upper=outer_upper,
            outer_lower_points=low_pts,
            outer_upper_points=up_pts,
            retained_lower=low_ret,
            retained_upper=up_ret,
        )

    # cycle: every member side is consumed
    first = min(members, key=lambda s: order[s])
    strips = [(first, False)]
    interfaces = []
    sign = 1
    cur, cur_exit = first, Side.UPPER
    while True:
        g, (nxt, entered) = edges[(cur, cur_exit)]
        interfaces.append(g.id)
        # a seam joining a lower to an upper side keeps the y direction
        sign *= g.orientation.sign if entered is not cur_exit else -g.orientation.sign
        if nxt == first and len(interfaces) == len(members):
            break
        strips.append((nxt, entered is Side.UPPER))
        cur, cur_exit = nxt, entered.other
    return Component(
        shape=Shape.CYCLE,
        strips=tuple(strips),
        interfaces=tuple(interfaces),
        monodromy=sign,
    )


# ---------------------------------------------------------------------------
# reference diagram writers: ``io.render_dot`` and ``io.render_svg`` as they
# were before they read the shared closures and formatted each coordinate
# once.  Each diagram must equal its reference byte for byte.


def render_dot_reference(ls: LeafSpace) -> str:
    """Leaf-space graph: strip and point nodes, solid incidence edges,
    dashed edges between non-separated point pairs."""
    quoted: dict[str, str] = {}
    lines = ["graph leafspace {"]
    for sid in ls.arcs:
        q = quoted[sid] = _dot_quoted(sid)
        lines.append(f'  "strip:{q}" [shape=box, label="{q}"];')
    edges = []
    for p in ls.points:
        q = quoted[p.id] = _dot_quoted(p.id)
        shape = "doublecircle" if p.special else "circle"
        lines.append(f'  "pt:{q}" [shape={shape}, label="{q}"];')
        for sid, side in ls.ends_of(p):
            edges.append(f'  "strip:{quoted[sid]}" -- "pt:{q}" [label="{side.value}"];')
    lines += edges
    seen = set()
    for p in ls.points:
        if not p.special:  # its closure is the point alone
            continue
        for qid in sorted(q.id for q in hausdorff_closure(ls, p)):
            if qid == p.id:
                continue
            key = (p.id, qid) if p.id < qid else (qid, p.id)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "pt:{quoted[key[0]]}" -- "pt:{quoted[key[1]]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _draw_range(surface: StripedSurface) -> tuple[float, float]:
    lo, hi = 0.0, 1.0
    for iv in surface.intervals():
        x0, x1 = surface.endpoints(iv.id)
        if math.isfinite(x0):
            lo = min(lo, x0)
        if math.isfinite(x1):
            hi = max(hi, x1)
    return lo - 1.0, hi + 1.0


def render_svg_reference(surface: StripedSurface) -> str:
    """Strip diagram: stacked rectangles, bold boundary intervals, gluing arcs.

    Coordinates print with two decimals; x maps to the page by
    ``_MARGIN + (x clamped to [lo, hi] - lo) * _X_SCALE``.
    """
    # rows go piece by piece, each piece's components in order of first strip
    piece_of = {sid: i for i, part in enumerate(surface._partition) for sid in part}
    comps, _ = decompose_by_member_search(surface, Mode.INTERIOR)
    comps.sort(key=lambda c: piece_of[c.strips[0][0]])
    rows = [(sid, surface.strip(sid)) for comp in comps for sid, _flipped in comp.strips]

    lo, hi = _draw_range(surface)
    lo, hi = max(lo, -_X_CLAMP), min(hi, _X_CLAMP + 1)
    width = (hi - lo) * _X_SCALE + 2 * _MARGIN
    height = len(rows) * (_BAND_H + _BAND_GAP) + 2 * _MARGIN
    x_lo = _MARGIN  # the page x of lo
    x_hi = _MARGIN + (hi - lo) * _X_SCALE

    body = []
    for i, (sid, spec) in enumerate(rows):
        y0 = _MARGIN + i * (_BAND_H + _BAND_GAP)
        body.append(
            f'<rect x="{x_lo:.2f}" y="{y0:.2f}" width="{x_hi - x_lo:.2f}" '
            f'height="{_BAND_H:.2f}" fill="#eef" stroke="#336"/>'
        )
        body.append(f'<text x="{x_lo + 4:.2f}" y="{y0 + 16:.2f}" font-size="12">{_xml_text(sid)}</text>')

    seg_pos: dict[str, tuple[float, float]] = {}
    for i, (sid, spec) in enumerate(rows):
        y0 = _MARGIN + i * (_BAND_H + _BAND_GAP)
        for ivs, yy in ((spec.upper, y0), (spec.lower, y0 + _BAND_H)):
            for iv in ivs:
                x0, x1 = surface.endpoints(iv.id)
                gx0 = _MARGIN + (min(max(x0, lo), hi) - lo) * _X_SCALE
                gx1 = _MARGIN + (min(max(x1, lo), hi) - lo) * _X_SCALE
                body.append(
                    f'<line x1="{gx0:.2f}" y1="{yy:.2f}" x2="{gx1:.2f}" '
                    f'y2="{yy:.2f}" stroke="#000" stroke-width="4"/>'
                )
                if not math.isfinite(x0):
                    body.append(f'<text x="{gx0 - 12:.2f}" y="{yy + 4:.2f}" font-size="12">&#8592;</text>')
                if not math.isfinite(x1):
                    body.append(f'<text x="{gx1 + 2:.2f}" y="{yy + 4:.2f}" font-size="12">&#8594;</text>')
                seg_pos[iv.id] = ((gx0 + gx1) / 2.0, yy)

    for g in surface.gluings:
        (xa, ya), (xb, yb) = seg_pos[g.first], seg_pos[g.second]
        dash = "" if g.orientation is Orientation.PRESERVING else ' stroke-dasharray="6 3"'
        midx = (xa + xb) / 2.0
        midy = (ya + yb) / 2.0 - 20.0
        body.append(
            f'<path d="M {xa:.2f} {ya:.2f} Q {midx:.2f} {midy:.2f} '
            f'{xb:.2f} {yb:.2f}" fill="none" stroke="#c33" stroke-width="1.5"{dash}/>'
        )
        body.append(f'<text x="{midx:.2f}" y="{midy + 10:.2f}" font-size="11" fill="#c33">{_xml_text(g.id)}</text>')

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


# ---------------------------------------------------------------------------
# the load path as it read before its per-record loops were tightened:
# parse_reference must build an equal surface with equal id indexes, or
# refuse with the same error class, text and path, as io.parse


_ORIENTATION_BY_VALUE = {o.value: o for o in Orientation}


def _num_reference(value, i: int, side_name: str, k: int, j: int) -> float:
    if type(value) is float:
        return value
    if value == "-inf":
        return float("-inf")
    if value == "+inf" or value == "inf":
        return float("inf")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            message = "number out of the float range"
    else:
        message = f"expected a number or -inf/+inf, got {value!r}"
    raise ParseError(message, path=f"strips[{i}].{side_name}[{k}].endpoints[{j}]")


def _not_a_string(value, path: str) -> ParseError:
    return ParseError(f"ids must be JSON strings, got {value!r}", path=path)


def parse_reference(text: str) -> StripedSurface:
    """``io.parse``: the document's records, validated by ``build_surface_reference``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    except (ValueError, RecursionError) as e:
        raise ParseError(str(e)) from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for key in ("strips", "gluings"):
        if not isinstance(doc.get(key, []), list):
            raise ParseError(f"'{key}' must be a list", path=key)

    strips = []
    for i, srec in enumerate(doc.get("strips", [])):
        if type(srec) is not dict or "id" not in srec:
            raise ParseError("strip record needs an 'id'", path=f"strips[{i}]")
        sid = srec["id"]
        if type(sid) is not str:
            raise _not_a_string(sid, f"strips[{i}].id")
        sides = []
        for side_name in ("lower", "upper"):
            recs = srec.get(side_name, [])
            if type(recs) is not list:
                raise ParseError(f"'{side_name}' must be a list", path=f"strips[{i}]")
            ivs = []
            for k, rec in enumerate(recs):
                if type(rec) is str:
                    ivs.append(Interval(rec, None))
                    continue
                if type(rec) is not dict or "id" not in rec:
                    raise ParseError("interval record needs an 'id'", path=f"strips[{i}].{side_name}[{k}]")
                iid = rec["id"]
                if type(iid) is not str:
                    raise _not_a_string(iid, f"strips[{i}].{side_name}[{k}].id")
                ends = rec.get("endpoints")
                if ends is not None:
                    if type(ends) is not list or len(ends) != 2:
                        raise ParseError("endpoints must be a [x0, x1] pair", path=f"strips[{i}].{side_name}[{k}]")
                    ends = (_num_reference(ends[0], i, side_name, k, 0), _num_reference(ends[1], i, side_name, k, 1))
                ivs.append(Interval(iid, ends))
            sides.append(tuple(ivs))
        strips.append(ModelStripSpec(sid, *sides))

    gluings = []
    for i, grec in enumerate(doc.get("gluings", [])):
        if type(grec) is not dict or "a" not in grec or "b" not in grec:
            raise ParseError("gluing record needs 'a' and 'b'", path=f"gluings[{i}]")
        flag = grec.get("orientation", "preserving")
        try:
            orientation = _ORIENTATION_BY_VALUE[flag]
        except (KeyError, TypeError):  # TypeError: an unhashable flag
            raise ParseError(
                f"orientation must be 'preserving' or 'reversing', got {flag!r}", path=f"gluings[{i}]"
            ) from None
        gid = grec["id"] if "id" in grec else f"g{i}"
        a = grec["a"]
        b = grec["b"]
        if type(gid) is not str or type(a) is not str or type(b) is not str:
            key = "id" if type(gid) is not str else "a" if type(a) is not str else "b"
            raise _not_a_string(grec[key], f"gluings[{i}].{key}")
        gluings.append(GluingSpec(gid, a, b, orientation))

    return build_surface_reference(strips, gluings)


def _check_endpoints_reference(strip_id: str, side: Side, intervals, explicit: int) -> None:
    for iv in intervals:
        if iv.endpoints is not None:
            x0, x1 = iv.endpoints
            if math.isnan(x0) or math.isnan(x1) or not x0 < x1:
                raise BadEndpointsError(
                    f"interval {iv.id!r} endpoints must satisfy x0 < x1, got ({x0}, {x1})"
                )
    if explicit < len(intervals):
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


def build_surface_reference(strips, gluings=()) -> StripedSurface:
    """``core.build_surface``: every rule, in the order it fires."""
    strips = tuple(strips)
    gluings = tuple(gluings)
    seen_ids: set[str] = set()
    strip_by_id = {}
    interval_loc = {}
    for s in strips:
        sid = s.id
        if sid in seen_ids:
            raise DuplicateIdError(f"strip id {sid!r} appears twice")
        seen_ids.add(sid)
        strip_by_id[sid] = s
        for side, ivs in ((Side.LOWER, s.lower), (Side.UPPER, s.upper)):
            # a side's endpoint faults come before its repeated ids
            dup = None
            explicit = 0
            for k, (iid, ends) in enumerate(ivs):
                if iid in seen_ids and dup is None:
                    dup = iid
                seen_ids.add(iid)
                interval_loc[iid] = (sid, side, k)
                if ends is not None:
                    explicit += 1
            if explicit:
                _check_endpoints_reference(sid, side, ivs, explicit)
            if dup is not None:
                raise DuplicateIdError(f"interval id {dup!r} appears twice")

    gluing_by_interval = {}
    for g in gluings:
        gid, first, second, _ = g
        if gid in seen_ids:
            raise DuplicateIdError(f"gluing id {gid!r} appears twice")
        seen_ids.add(gid)
        if first == second:
            raise SelfGluingError(f"gluing {gid!r} pairs interval {first!r} with itself")
        for iid in (first, second):
            if iid not in interval_loc:
                raise UnknownIntervalRefError(f"gluing {gid!r} references unknown interval {iid!r}")
            if iid in gluing_by_interval:
                raise DoubleGluingError(f"interval {iid!r} appears in more than one gluing")
            gluing_by_interval[iid] = g
        strip_id, side, _ = interval_loc[first]
        if interval_loc[second][:2] == (strip_id, side):
            raise SameSideGluingError(
                f"gluing {gid!r} pairs intervals {first!r} and {second!r} "
                f"on the same side ({strip_id}, {side.value})"
            )

    if re.search(_BAD_ID_CHAR, "".join(seen_ids)):
        bad = next(i for i in (*strip_by_id, *interval_loc, *[g.id for g in gluings]) if re.search(_BAD_ID_CHAR, i))
        char = ord(re.search(_BAD_ID_CHAR, bad).group())
        raise BadIdError(f"id {bad!r} holds U+{char:04X}, which SVG or UTF-8 output cannot carry")

    return StripedSurface(strips, gluings, strip_by_id, interval_loc, gluing_by_interval)


def pl_eval_reference(bp, vals, x: float) -> float:
    """``homeo.PLFunction.__call__`` through ``(bp, vals)``, by a hand-written binary search."""
    if x <= bp[0]:
        return vals[0]
    if x >= bp[-1]:
        return vals[-1]
    lo, hi = 0, len(bp) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bp[mid] <= x:
            lo = mid
        else:
            hi = mid
    t = (x - bp[lo]) / (bp[hi] - bp[lo])
    return vals[lo] + t * (vals[hi] - vals[lo])


def uk_eval_reference(x: float, y, q) -> float:
    """``homeo.uk_eval``: its checks on every call, then a hand-written binary search."""
    from stripfol.homeo import NonIncreasingInputError  # here, so that importing the oracles loads no homeo

    y = list(y)
    q = list(q)
    if len(y) != len(q) or not y:
        raise NonIncreasingInputError("y and q must be equal-length and non-empty")
    for seq in (y, q):
        for a, b in zip(seq, seq[1:]):
            if not a < b:
                raise NonIncreasingInputError("u_k parameters must be strictly increasing")
    if y == q:
        return x
    if x <= y[0]:
        return x - y[0] + q[0]
    if x >= y[-1]:
        return x - y[-1] + q[-1]
    lo, hi = 0, len(y) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if y[mid] <= x:
            lo = mid
        else:
            hi = mid
    return q[lo] + (q[hi] - q[lo]) / (y[hi] - y[lo]) * (x - y[lo])


class _StageChain:
    """Stage maps, each a (forward, backward) pair of closures: applied in
    order, inverted in reverse order."""

    def __init__(self, stages):
        self.stages = list(stages)

    def apply(self, x: float, y: float) -> tuple[float, float]:
        for forward, _ in self.stages:
            x, y = forward(x, y)
        return (x, y)

    def invert(self, x: float, y: float) -> tuple[float, float]:
        for _, backward in reversed(self.stages):
            x, y = backward(x, y)
        return (x, y)


def _stage_closures(curves, prefix: _StageChain, s: float):
    """One stage of ``staged_rectify``: straighten ``curves``, as moved by
    ``prefix``, below level ``s``, keeping their order at ``s``."""
    from stripfol.homeo import GraphsIntersectError, _uk  # as in uk_eval_reference

    at_s = [prefix.apply(f(s), s)[0] for f in curves]
    order = sorted(range(len(curves)), key=at_s.__getitem__)
    ordered = [curves[i] for i in order]
    q = [at_s[i] for i in order]
    for a, b in zip(q, q[1:]):
        if not a < b:
            raise GraphsIntersectError(f"stage curves collide at level {s}")

    def vals_at(y: float) -> list[float]:
        vals = [prefix.apply(f(y), y)[0] for f in ordered]
        for a, b in zip(vals, vals[1:]):
            if not a < b:
                raise GraphsIntersectError(f"stage curves cross at level {y}")
        return vals

    def forward(x: float, y: float) -> tuple[float, float]:
        if y >= s:
            return (x, y)
        vals = vals_at(y)
        return (x if vals == q else _uk(x, vals, q), y)

    def backward(x: float, y: float) -> tuple[float, float]:
        if y >= s:
            return (x, y)
        vals = vals_at(y)
        return (x if vals == q else _uk(x, q, vals), y)

    return forward, backward


def staged_rectify(staged, floor: float | None = None) -> _StageChain:
    """``homeo.rectify_stages`` as a chain of closures, each stage closing over
    the chain of the stages above it: the staging that the ``Straightening``
    record replaced, kept as its reference."""
    from stripfol.homeo import _check_disjoint

    staged = list(staged)
    if not staged:
        return _StageChain([])
    if floor is None:
        floor = min(d for _, d in staged) - 1.0
    _check_disjoint(staged, floor)
    stages = []
    for s in sorted({d for _, d in staged}, reverse=True):
        stages.append(_stage_closures([f for f, d in staged if d >= s], _StageChain(stages), s))
    return _StageChain(stages)


def check_cycle_components_reference(surface: StripedSurface, components) -> CycleCheckReport:
    """``decomposition.check_cycle_components`` with the cut leaves taken from a
    leaf space of their own, as before they were read off the surface."""
    violations = []
    cycles = [c for c in components if c.shape is Shape.CYCLE]
    for cyc in cycles:
        if len(components) != 1:
            violations.append(f"cycle through {cyc.strip_ids()} coexists with other components")
        if set(cyc.strip_ids()) != set(surface.strip_ids()):
            violations.append("cycle component does not exhaust the surface")
    if cycles:
        for p in build_leaf_space(surface).points:
            if p.special or p.kind is PointKind.BOUNDARY_LEAF:
                violations.append(f"cycle surface carries cut leaf {p.id!r}")
    return CycleCheckReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# the realization in exact rational arithmetic


def _exact_pl(pl) -> tuple[list[Fraction], list[Fraction]]:
    return [Fraction(b) for b in pl.breakpoints], [Fraction(v) for v in pl.values]


def crossing_pairs_exact(staged, floor: float) -> list[tuple[int, int]]:
    """The pairs ``(i, j)``, i < j, of ``staged``'s ``(PLFunction, level)``
    curves that meet on (floor, the lower of their levels], in rational
    arithmetic: the difference of the two curves is affine on each piece
    between the floor, the breakpoints of either curve and that level, so
    each piece is solved for its zero.  A zero at the floor itself is allowed,
    as ``homeo._check_disjoint`` allows it."""
    floor = Fraction(floor)
    exact = [(_exact_pl(f), Fraction(d)) for f, d in staged]
    pairs = []
    for i in range(len(exact)):
        for j in range(i + 1, len(exact)):
            (f, df), (g, dg) = exact[i], exact[j]
            top = min(df, dg)
            if not top > floor:
                continue
            xs = sorted({floor, top, *[x for x in f[0] + g[0] if floor < x < top]})
            diff = [pl_eval_reference(*f, x) - pl_eval_reference(*g, x) for x in xs]
            for x0, x1, d0, d1 in zip(xs, xs[1:], diff, diff[1:]):
                # the zero of the piece, or the whole piece when it is flat at 0
                zero = x0 + d0 * (x1 - x0) / (d0 - d1) if d0 != d1 else (x1 if d0 == 0 else None)
                if zero is not None and x0 < zero <= x1:
                    pairs.append((i, j))
                    break
    return pairs


class ExactStraightening:
    """``homeo.rectify_stages``'s map in closed form, in rational arithmetic.

    The stages above a level y compose to one u_k: its knots are the raw
    positions f(y) of the curves alive at y (those whose own level lies above
    y), and its values their final positions, each curve's position at its
    own level, where the stages above carried it.  Each stage's knots contain
    every earlier stage's, so the composite is affine between them; a curve
    that is vertical stays where it is.  Takes the ``(PLFunction, level)``
    pairs that ``rectify_stages`` takes, converted exactly; ``apply`` and
    ``invert`` return exact ``Fraction`` x values.  The reference kernels
    ``pl_eval_reference`` and ``uk_eval_reference`` evaluate, exactly, on
    ``Fraction``s.
    """

    def __init__(self, staged):
        from stripfol.homeo import GraphsIntersectError  # as in uk_eval_reference

        self._error = GraphsIntersectError
        self.curves: list[tuple] = []  # (knots, values, level, final position), top level first
        for f, d in sorted(staged, key=lambda c: -c[1]):
            bp, vals = _exact_pl(f)
            d = Fraction(d)
            self.curves.append((bp, vals, d, self._forward(pl_eval_reference(bp, vals, d), d)))

    def _knots(self, y: Fraction) -> tuple[list[Fraction], list[Fraction]]:
        """The raw and final positions of the curves alive at ``y``, in final order."""
        alive = sorted([(q, pl_eval_reference(bp, vals, y)) for bp, vals, d, q in self.curves if d > y])
        finals, raws = [q for q, _ in alive], [r for _, r in alive]
        for seq in (finals, raws):
            for a, b in zip(seq, seq[1:]):
                if not a < b:
                    raise self._error(f"curves leave their order at level {y}")
        return raws, finals

    def _forward(self, x: Fraction, y: Fraction) -> Fraction:
        raws, finals = self._knots(y)
        return uk_eval_reference(x, raws, finals) if raws else x

    def apply(self, x: float, y: float) -> Fraction:
        return self._forward(Fraction(x), Fraction(y))

    def invert(self, x: float, y: float) -> Fraction:
        raws, finals = self._knots(Fraction(y))
        return uk_eval_reference(Fraction(x), finals, raws) if raws else Fraction(x)

    def positions(self) -> list[Fraction]:
        """Each curve's final position, top level first, in ``staged`` order within a level."""
        return [q for *_, q in self.curves]


class ExactEta:
    """``homeo.HalfStripMap`` evaluated exactly from its own data: each collar's
    roof map, its rectangle onto its trapezoid at the level passed through,
    and off the rectangles the exact straightening of the trapezoids' sides,
    staged at their tops as ``realize_half_strip`` stages them.  A point goes
    to the branch that the float map picks; ``apply`` and ``invert`` return
    exact ``Fraction`` x values."""

    def __init__(self, eta):
        self.collars = eta.collars
        staged = [(f, roof.target.top) for roof in eta.collars for f in (roof.target.alpha, roof.target.beta)]
        self.straightening = ExactStraightening(staged)

    @staticmethod
    def _roof(roof, x: Fraction, y: Fraction, inverse: bool) -> Fraction:
        (alpha, beta, _, _), (gamma, delta, _, _) = roof
        A, B, G, D = [pl_eval_reference(*_exact_pl(f), y) for f in (alpha, beta, gamma, delta)]
        return A + (B - A) * (x - G) / (D - G) if inverse else G + (D - G) * (x - A) / (B - A)

    def apply(self, x: float, y: float) -> Fraction:
        for roof in self.collars:
            if roof.source.contains_closed(x, y):
                return self._roof(roof, Fraction(x), Fraction(y), False)
        if -1.0 < y <= 0.0 or not self.collars:
            return self.straightening.invert(x, y)
        raise ValueError(f"point ({x}, {y}) lies outside the map domain")

    def invert(self, x: float, y: float) -> Fraction:
        for roof in self.collars:
            if roof.target.contains_closed(x, y, 1e-12):
                return self._roof(roof, Fraction(x), Fraction(y), True)
        if -1.0 < y <= 0.0 or not self.collars:
            return self.straightening.apply(x, y)
        raise ValueError(f"point ({x}, {y}) lies outside the map image")
