"""JSON surface documents, the JSON reports and SVG / DOT diagram emission.

The document format:

    {"strips": [{"id": "A", "lower": [...], "upper": [...]}, ...],
     "gluings": [{"id": "g", "a": "A.u0", "b": "B.u0",
                  "orientation": "preserving"}, ...]}

Interval records are ``{"id": ..., "endpoints": [x0, x1]}`` with the
endpoints optional; ``"-inf"`` / ``"+inf"`` tokens stand for unbounded ends.
Ids are JSON strings.  Parsing is strict: malformed JSON raises
:class:`ParseError` with position, schema and validation failures name the
offending rule and ids.  Each JSON document written equals
``json.dumps(document, indent=2)`` byte for byte; so does each report:
``validate_json``, ``leafspace_json`` and ``decompose_json``.

``render(surface, fmt)`` draws a surface: ``render_svg`` its strips and
gluings, ``render_dot`` the graph of its leaf space, which it takes built.
"""

import json
import math

from .core import (
    Interval,
    ModelStripSpec,
    Orientation,
    Side,
    StripedSurface,
    build_surface,
    GluingSpec,
)
from .decomposition import Shape, StripClass, _merge_seams, _merge_walk, classify_component, component_closures
from .leafspace import LeafSpace, PointKind, build_leaf_space, sorted_closures


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None, path: str = ""):
        loc = f" at line {line}, column {column}" if line is not None else ""
        where = f" ({path})" if path else ""
        super().__init__(f"ParseError{loc}{where}: {message}")
        self.line = line
        self.column = column
        self.path = path


_ORIENTATIONS = {o.value: o for o in Orientation}
_INFINITIES = {"-inf": -math.inf, "+inf": math.inf, "inf": math.inf}


def _num(value, i: int, side_name: str, k: int, j: int) -> float:
    """Endpoint ``j`` of interval ``k`` on side ``side_name`` of strip record ``i``."""
    if type(value) is float:
        return value
    if type(value) is str and value in _INFINITIES:
        return _INFINITIES[value]
    if type(value) is int:  # not a bool; a float returned above
        try:
            return float(value)
        except OverflowError:
            message = "number out of the float range"
    else:
        message = f"expected a number or -inf/+inf, got {value!r}"
    raise ParseError(message, path=f"strips[{i}].{side_name}[{k}].endpoints[{j}]")


def _not_a_string(value, path: str) -> ParseError:
    return ParseError(f"ids must be JSON strings, got {value!r}", path=path)


def parse(text: str) -> StripedSurface:
    """Parse a surface document; errors carry position and the violated rule.

    Records are made with ``tuple.__new__``, as ``build_surface`` validates
    them; a refusal's path is spelled out only when the record is refused.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    except (ValueError, RecursionError) as e:  # integer digit limit, deep nesting
        raise ParseError(str(e)) from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")

    for key in ("strips", "gluings"):
        if not isinstance(doc.get(key, []), list):
            raise ParseError(f"'{key}' must be a list", path=key)

    new = tuple.__new__
    strips = []
    for i, srec in enumerate(doc.get("strips", [])):
        if type(srec) is not dict or "id" not in srec:
            raise ParseError("strip record needs an 'id'", path=f"strips[{i}]")
        sid = srec["id"]
        if type(sid) is not str:
            raise _not_a_string(sid, f"strips[{i}].id")
        spec = [sid]
        for side_name in ("lower", "upper"):
            recs = srec.get(side_name, [])
            if type(recs) is not list:
                raise ParseError(f"'{side_name}' must be a list", path=f"strips[{i}]")
            ivs = []
            for rec in recs:
                # an interval record, a bare id, and only then a refusal
                if type(rec) is dict and type(iid := rec.get("id")) is str:
                    ends = rec.get("endpoints")
                    if ends is not None:
                        k = len(ivs)
                        if type(ends) is not list or len(ends) != 2:
                            raise ParseError("endpoints must be a [x0, x1] pair", path=f"strips[{i}].{side_name}[{k}]")
                        ends = (_num(ends[0], i, side_name, k, 0), _num(ends[1], i, side_name, k, 1))
                elif type(rec) is str:
                    iid, ends = rec, None
                elif type(rec) is dict and "id" in rec:
                    raise _not_a_string(rec["id"], f"strips[{i}].{side_name}[{len(ivs)}].id")
                else:
                    raise ParseError("interval record needs an 'id'", path=f"strips[{i}].{side_name}[{len(ivs)}]")
                ivs.append(new(Interval, (iid, ends)))
            spec.append(tuple(ivs))
        strips.append(new(ModelStripSpec, spec))

    gluings = []
    for i, grec in enumerate(doc.get("gluings", [])):
        if type(grec) is not dict or "a" not in grec or "b" not in grec:
            raise ParseError("gluing record needs 'a' and 'b'", path=f"gluings[{i}]")
        flag = grec.get("orientation", "preserving")
        orientation = _ORIENTATIONS.get(flag) if type(flag) is str else None
        if orientation is None:
            raise ParseError(f"orientation must be 'preserving' or 'reversing', got {flag!r}", path=f"gluings[{i}]")
        gid = grec["id"] if "id" in grec else f"g{i}"
        a, b = grec["a"], grec["b"]
        if type(gid) is not str or type(a) is not str or type(b) is not str:
            key = "id" if type(gid) is not str else "a" if type(a) is not str else "b"
            raise _not_a_string(grec[key], f"gluings[{i}].{key}")
        gluings.append(new(GluingSpec, (gid, a, b, orientation)))

    return build_surface(strips, gluings)


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder's string writer
# The line break and indent before an item at depth d, as json.dumps(indent=2)
# writes them.  Every JSON writer formats its records by hand over this table,
# so that each output equals json.dumps(report, indent=2) byte for byte.
_NL = tuple(["\n" + "  " * d for d in range(8)])


def _strings(items, d: int) -> str:
    """A list of strings whose brackets sit at depth ``d``."""
    if not items:
        return "[]"
    inner = _NL[d + 1]
    return "[" + inner + ("," + inner).join(map(_encode_str, items)) + _NL[d] + "]"


def _records(items: list[str], d: int) -> str:
    """A list whose brackets sit at depth ``d``, of items already written at depth ``d + 1``."""
    if not items:
        return "[]"
    inner = _NL[d + 1]
    return "[" + inner + ("," + inner).join(items) + _NL[d] + "]"


def _endpoint_token(x: float) -> str:
    """An endpoint's JSON text: ``"-inf"``/``"+inf"``, an integral value as an int
    below 1e16 in magnitude, where ``float.__repr__`` would still write every digit."""
    if x == -math.inf:
        return '"-inf"'
    if x == math.inf:
        return '"+inf"'
    return int.__repr__(int(x)) if -1e16 < x < 1e16 and float(x).is_integer() else float.__repr__(float(x))


_ORIENTATION_TEXT = {o: _encode_str(o.value) for o in Orientation}


def serialize(surface: StripedSurface) -> str:
    """Canonical JSON text for a surface; parse(serialize(s)) == s."""
    enc = _encode_str
    n1, n2, n3, n4, n5, n6 = _NL[1:7]
    strips = []
    for s in surface.strips:
        sides = []
        for ivs in (s.lower, s.upper):
            recs = []
            for iv in ivs:
                if iv.endpoints is None:
                    recs.append(f'{{{n5}"id": {enc(iv.id)}{n4}}}')
                else:
                    x0, x1 = iv.endpoints
                    recs.append(
                        f'{{{n5}"id": {enc(iv.id)},{n5}"endpoints": ['
                        f"{n6}{_endpoint_token(x0)},{n6}{_endpoint_token(x1)}{n5}]{n4}}}"
                    )
            sides.append(_records(recs, 3))
        strips.append(f'{{{n3}"id": {enc(s.id)},{n3}"lower": {sides[0]},{n3}"upper": {sides[1]}{n2}}}')
    gluings = [
        f'{{{n3}"id": {enc(g.id)},{n3}"a": {enc(g.first)},{n3}"b": {enc(g.second)},'
        f'{n3}"orientation": {_ORIENTATION_TEXT[g.orientation]}{n2}}}'
        for g in surface.gluings
    ]
    return f'{{{n1}"strips": {_records(strips, 1)},{n1}"gluings": {_records(gluings, 1)}\n}}\n'


# ---------------------------------------------------------------------------
# diagrams


def _dot_quoted(id_: str) -> str:
    """An id made safe inside a DOT double-quoted string."""
    return id_.replace("\\", "\\\\").replace('"', '\\"')


def _xml_text(id_: str) -> str:
    """An id made safe as SVG text content."""
    return id_.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_SIDE_TEXT = {s: s.value for s in Side}


def render_dot(ls: LeafSpace) -> str:
    """Leaf-space graph: strip and point nodes, solid incidence edges,
    dashed edges between non-separated point pairs."""
    quoted: dict[str, str] = {}
    lines = ["graph leafspace {"]
    for sid in ls.arcs:
        q = quoted[sid] = _dot_quoted(sid)
        lines.append(f'  "strip:{q}" [shape=box, label="{q}"];')
    edges = []
    ends_by_point = ls.ends_by_point
    for p in ls.points:
        q = quoted[p.id] = _dot_quoted(p.id)
        lines.append(f'  "pt:{q}" [shape={"doublecircle" if p.special else "circle"}, label="{q}"];')
        for sid, side in ends_by_point[p.id]:
            edges.append(f'  "strip:{quoted[sid]}" -- "pt:{q}" [label="{_SIDE_TEXT[side]}"];')
    lines += edges
    # A point of a special point's closure is special too, so each pair is
    # drawn once: from its point that comes first in point order.
    rank = {pid: r for r, pid in enumerate(ls.point_by_id)}
    closures = sorted_closures(ls)
    for p in ls.points:
        if not p.special:  # its closure is the point alone
            continue
        r = rank[p.id]
        for qid in closures[p.id]:
            if rank[qid] > r:
                a, b = (p.id, qid) if p.id < qid else (qid, p.id)
                lines.append(f'  "pt:{quoted[a]}" -- "pt:{quoted[b]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_BAND_H = 60.0
_BAND_GAP = 30.0
_X_SCALE = 40.0
_X_CLAMP = 12.0  # drawing range for unbounded coordinates
_MARGIN = 40.0


def _draw_range(surface: StripedSurface) -> tuple[float, float]:
    # build_surface orders a side's endpoints and lets only its first left end be
    # -inf and its last right end +inf; k default intervals (2j, 2j + 1) reach 2k - 1
    lo, hi, longest = 0.0, 1.0, 0
    for _id, lower, upper in surface.strips:
        for ivs in (lower, upper):
            if ivs and ivs[0].endpoints is None:
                if len(ivs) > longest:
                    longest = len(ivs)
                continue
            for iv in ivs[:2]:
                if -math.inf < iv.endpoints[0] < lo:
                    lo = iv.endpoints[0]
            for iv in ivs[-2:]:
                if hi < iv.endpoints[1] < math.inf:
                    hi = iv.endpoints[1]
    return lo - 1.0, max(hi, 2.0 * longest - 1.0) + 1.0


class _Texts(dict):
    """Page coordinate -> its two-decimal text, each formatted once.  Page
    coordinates are positive, so equal keys print alike."""

    def __missing__(self, v: float) -> str:
        text = self[v] = f"{v:.2f}"
        return text


def render_svg(surface: StripedSurface) -> str:
    """Strip diagram: stacked rectangles, bold boundary intervals, gluing arcs.

    Coordinates print with two decimals; x maps to the page by
    ``_MARGIN + (x clamped to [lo, hi] - lo) * _X_SCALE``.
    """
    # rows go piece by piece, each piece's merge components in order of first strip
    piece_of = {sid: i for i, part in enumerate(surface._partition) for sid in part}
    comps = sorted(_merge_walk(surface, _merge_seams(surface)), key=lambda c: piece_of[c.strips[0][0]])
    strip_by_id = surface._strip_by_id
    rows = [strip_by_id[sid] for c in comps for sid, _flipped in c.strips]

    lo, hi = _draw_range(surface)
    lo, hi = max(lo, -_X_CLAMP), min(hi, _X_CLAMP + 1)
    width = (hi - lo) * _X_SCALE + 2 * _MARGIN
    height = len(rows) * (_BAND_H + _BAND_GAP) + 2 * _MARGIN
    x_lo = _MARGIN  # the page x of lo
    x_hi = _MARGIN + (hi - lo) * _X_SCALE
    text = _Texts()

    body = []
    rect = f'" width="{x_hi - x_lo:.2f}" height="{_BAND_H:.2f}" fill="#eef" stroke="#336"/>'
    label = f'<text x="{x_lo + 4:.2f}" y="'
    for i, spec in enumerate(rows):
        y0 = _MARGIN + i * (_BAND_H + _BAND_GAP)
        body.append(f'<rect x="{text[x_lo]}" y="{text[y0]}{rect}')
        body.append(f'{label}{y0 + 16:.2f}" font-size="12">{_xml_text(spec.id)}</text>')

    # interval geometry (its endpoints, or the place k of default ones) ->
    # its page x texts, midpoint and the x texts of its arrows, if unbounded
    segments: dict = {}
    seg_pos: dict[str, tuple[float, float]] = {}
    for i, spec in enumerate(rows):
        y0 = _MARGIN + i * (_BAND_H + _BAND_GAP)
        for ivs, yy in ((spec.upper, y0), (spec.lower, y0 + _BAND_H)):
            y = text[yy]
            for k, iv in enumerate(ivs):
                key = iv.endpoints or k
                seg = segments.get(key)
                if seg is None:
                    x0, x1 = iv.endpoints or (2.0 * k, 2.0 * k + 1.0)
                    gx0 = _MARGIN + (min(max(x0, lo), hi) - lo) * _X_SCALE
                    gx1 = _MARGIN + (min(max(x1, lo), hi) - lo) * _X_SCALE
                    seg = segments[key] = (
                        text[gx0],
                        text[gx1],
                        (gx0 + gx1) / 2.0,
                        None if math.isfinite(x0) else f"{gx0 - 12:.2f}",
                        None if math.isfinite(x1) else f"{gx1 + 2:.2f}",
                    )
                x0_text, x1_text, mid, left, right = seg
                body.append(f'<line x1="{x0_text}" y1="{y}" x2="{x1_text}" y2="{y}" stroke="#000" stroke-width="4"/>')
                if left is not None:
                    body.append(f'<text x="{left}" y="{yy + 4:.2f}" font-size="12">&#8592;</text>')
                if right is not None:
                    body.append(f'<text x="{right}" y="{yy + 4:.2f}" font-size="12">&#8594;</text>')
                seg_pos[iv.id] = (mid, yy)

    preserving = Orientation.PRESERVING
    for g in surface.gluings:
        (xa, ya), (xb, yb) = seg_pos[g.first], seg_pos[g.second]
        dash = "" if g.orientation is preserving else ' stroke-dasharray="6 3"'
        midx = (xa + xb) / 2.0
        midy = (ya + yb) / 2.0 - 20.0
        body.append(
            f'<path d="M {text[xa]} {text[ya]} Q {midx:.2f} {midy:.2f} '
            f'{text[xb]} {text[yb]}" fill="none" stroke="#c33" stroke-width="1.5"{dash}/>'
        )
        body.append(f'<text x="{midx:.2f}" y="{midy + 10:.2f}" font-size="11" fill="#c33">{_xml_text(g.id)}</text>')

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render(surface: StripedSurface, fmt: str = "svg") -> str:
    if fmt == "svg":
        return render_svg(surface)
    if fmt == "dot":
        return render_dot(build_leaf_space(surface))
    raise ValueError(f"unknown render format {fmt!r}")


_KIND_TEXT = {k: _encode_str(k.value) for k in PointKind}


def leafspace_json(ls: LeafSpace) -> str:
    """Deterministic JSON description of a leaf space."""
    enc = _encode_str
    n1, n2, n3 = _NL[1:4]
    closures = sorted_closures(ls)
    points = [
        f'{{{n3}"id": {enc(p.id)},{n3}"members": {_strings(p.members, 3)},{n3}"kind": {_KIND_TEXT[p.kind]},'
        f'{n3}"special": {"true" if p.special else "false"},'
        f'{n3}"hausdorff_closure": {_strings(closures[p.id], 3)}{n2}}}'
        for p in ls.points
    ]
    # build_leaf_space fills the incidence in strip order, lower side first
    incidence = [
        f'{{{n3}"strip": {enc(sid)},{n3}"side": "{_SIDE_TEXT[side]}",{n3}"points": {_strings(pids, 3)}{n2}}}'
        for (sid, side), pids in ls.incidence.items()
    ]
    return (
        f'{{{n1}"arcs": {_strings(ls.arcs, 1)},{n1}"points": {_records(points, 1)},'
        f'{n1}"incidence": {_records(incidence, 1)}\n}}\n'
    )


def validate_json(report: dict) -> str:
    """The ``validate`` report: ``validate_class_f``'s dict, formatted."""
    enc = _encode_str
    n1, n2, n3, n4, n5 = _NL[1:6]
    leaves = []
    for leaf in report["glued_leaves"]:
        collars = [f'{{{n5}"strip": {enc(c["strip"])},{n5}"side": {enc(c["side"])}{n4}}}' for c in leaf["collars"]]
        leaves.append(
            f'{{{n3}"id": {enc(leaf["id"])},{n3}"collars": {_records(collars, 3)},'
            f'{n3}"distinct": {"true" if leaf["distinct"] else "false"}{n2}}}'
        )
    return (
        f'{{{n1}"ok": {"true" if report["ok"] else "false"},'
        f'{n1}"connected": {"true" if report["connected"] else "false"},'
        f'{n1}"components": {_records([_strings(c, 2) for c in report["components"]], 1)},'
        f'{n1}"glued_leaves": {_records(leaves, 1)},{n1}"warnings": {_strings(report["warnings"], 1)}\n}}\n'
    )


def _point_order(ls: LeafSpace) -> dict:
    """Point id -> rank in first-incidence order: by strip position, side,
    interval place, the order in which build_leaf_space fills the incidence."""
    first = dict.fromkeys([pid for pids in ls.incidence.values() for pid in pids])
    return dict(zip(first, range(len(first))))


_SHAPE_TEXT = {s: _encode_str(s.value) for s in Shape}
_CLASS_TEXT = {c: _encode_str(c.value) for c in StripClass}


def decompose_json(ls: LeafSpace, mode, components, cut, cycle_check) -> str:
    """The ``decompose`` report of ``decompose``'s components and cut in
    ``mode``, with cut ids and overlaps in point order of the leaf space ``ls``
    that it read, and ``check_cycle_components``' verdict."""
    enc = _encode_str
    n1, n2, n3, n4, n5 = _NL[1:6]
    order = _point_order(ls)
    chain = Shape.CHAIN
    recs = []
    for comp in components:
        strips = [f'{{{n5}"id": {enc(s)},{n5}"flipped": {"true" if f else "false"}{n4}}}' for s, f in comp.strips]
        rec = (
            f'{{{n3}"strips": {_records(strips, 3)},{n3}"shape": {_SHAPE_TEXT[comp.shape]},'
            f'{n3}"class": {_CLASS_TEXT[classify_component(comp)]},{n3}"interfaces": {_strings(comp.interfaces, 3)}'
        )
        if comp.shape is chain:
            lower, upper, overlap = component_closures(comp)
            rec += (
                f',{n3}"closures": {{{n4}"lower": {_strings([p.id for p in lower.base_points], 4)},'
                f'{n4}"upper": {_strings([p.id for p in upper.base_points], 4)},'
                f'{n4}"overlap": {_strings(sorted([p.id for p in overlap], key=order.__getitem__), 4)}{n3}}}'
            )
            # an id may be the empty string, so test for None, as classify_component does
            low, up = comp.retained_lower, comp.retained_upper
            if low is not None or up is not None:
                rec += (
                    f',{n3}"retained": {{{n4}"lower": {"null" if low is None else enc(low)},'
                    f'{n4}"upper": {"null" if up is None else enc(up)}{n3}}}'
                )
        else:
            rec += f',{n3}"monodromy": {comp.monodromy}'
        recs.append(rec + n2 + "}")
    cut_ids = {p.id for p in cut}
    return (
        f'{{{n1}"mode": {enc(mode.value)},{n1}"cut": {_strings([pid for pid in order if pid in cut_ids], 1)},'
        f'{n1}"components": {_records(recs, 1)},{n1}"cycle_check_ok": {"true" if cycle_check.ok else "false"}\n}}\n'
    )
