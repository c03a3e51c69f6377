"""JSON surface documents and SVG / DOT diagram emission.

The document format:

    {"strips": [{"id": "A", "lower": [...], "upper": [...]}, ...],
     "gluings": [{"id": "g", "a": "A.u0", "b": "B.u0",
                  "orientation": "preserving"}, ...]}

Interval records are ``{"id": ..., "endpoints": [x0, x1]}`` with the
endpoints optional; ``"-inf"`` / ``"+inf"`` tokens stand for unbounded ends.
Parsing is strict: malformed JSON raises :class:`ParseError` with position,
schema and validation failures name the offending rule and ids.  Output is
deterministic byte for byte.
"""

from __future__ import annotations

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
from .leafspace import LeafSpace, build_leaf_space, closure_ids


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None, path: str = ""):
        loc = f" at line {line}, column {column}" if line is not None else ""
        where = f" ({path})" if path else ""
        super().__init__(f"ParseError{loc}{where}: {message}")
        self.line = line
        self.column = column
        self.path = path


_ORIENTATIONS = {o.value: o for o in Orientation}


def _interval_path(i: int, side: Side, k: int) -> str:
    return f"strips[{i}].{side.value}[{k}]"


def _num(value, i: int, side: Side, k: int, j: int) -> float:
    """Endpoint ``j`` of interval ``k`` on ``side`` of strip record ``i``."""
    if type(value) is float:
        return value
    if value == "-inf":
        return float("-inf")
    if value == "+inf" or value == "inf":
        return float("inf")
    path = f"{_interval_path(i, side, k)}.endpoints[{j}]"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ParseError("number out of the float range", path=path) from None
    raise ParseError(f"expected a number or -inf/+inf, got {value!r}", path=path)


def _interval(rec, i: int, side: Side, k: int) -> Interval:
    """Interval ``k`` on ``side`` of strip record ``i``; its path is spelled
    out only when the record is refused."""
    if isinstance(rec, str):
        return Interval(rec, side, k)
    if not isinstance(rec, dict) or "id" not in rec:
        raise ParseError("interval record needs an 'id'", path=_interval_path(i, side, k))
    ends = rec.get("endpoints")
    if ends is None:
        return Interval(str(rec["id"]), side, k)
    if not isinstance(ends, list) or len(ends) != 2:
        raise ParseError("endpoints must be a [x0, x1] pair", path=_interval_path(i, side, k))
    return Interval(str(rec["id"]), side, k, (_num(ends[0], i, side, k, 0), _num(ends[1], i, side, k, 1)))


def parse(text: str) -> StripedSurface:
    """Parse a surface document; errors carry position and the violated rule."""
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

    strips = []
    for i, srec in enumerate(doc.get("strips", [])):
        if not isinstance(srec, dict) or "id" not in srec:
            raise ParseError("strip record needs an 'id'", path=f"strips[{i}]")
        sides = []
        for side_name, side in (("lower", Side.LOWER), ("upper", Side.UPPER)):
            recs = srec.get(side_name, [])
            if not isinstance(recs, list):
                raise ParseError(f"'{side_name}' must be a list", path=f"strips[{i}]")
            sides.append(tuple([_interval(rec, i, side, k) for k, rec in enumerate(recs)]))
        strips.append(ModelStripSpec(str(srec["id"]), *sides))

    gluings = []
    for i, grec in enumerate(doc.get("gluings", [])):
        if not isinstance(grec, dict) or "a" not in grec or "b" not in grec:
            raise ParseError("gluing record needs 'a' and 'b'", path=f"gluings[{i}]")
        flag = grec.get("orientation", "preserving")
        try:
            orientation = _ORIENTATIONS[flag]
        except (KeyError, TypeError):  # TypeError: an unhashable flag
            raise ParseError(
                f"orientation must be 'preserving' or 'reversing', got {flag!r}", path=f"gluings[{i}]"
            ) from None
        gid = str(grec["id"]) if "id" in grec else f"g{i}"
        gluings.append(GluingSpec(gid, str(grec["a"]), str(grec["b"]), orientation))

    return build_surface(strips, gluings)


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder's string writer


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key that is not a string, quoted as ``json.dumps`` quotes it."""
    if isinstance(key, float):
        return f'"{_float_text(key)}"'
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dumps(obj, _nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    CPython runs its C encoder only when ``indent`` is None, and its
    pure-Python one is several times slower.  This writer hands every
    string to the C string encoder and writes a list of strings in one
    ``join``.  ``_nl`` is the line break and indent of ``obj``'s own level.
    Unlike ``json.dumps``, it does not look for reference cycles.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    inner = _nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            (_encode_str(k) if isinstance(k, str) else _key_text(k))
            + ": "
            + (_encode_str(v) if isinstance(v, str) else _dumps(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + _nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if isinstance(obj[0], str):
            try:
                return "[" + inner + ("," + inner).join(map(_encode_str, obj)) + _nl + "]"
            except TypeError:  # not all strings
                pass
        items = [_encode_str(x) if isinstance(x, str) else _dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + _nl + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _endpoint_token(x: float):
    if x == float("-inf"):
        return "-inf"
    if x == float("inf"):
        return "+inf"
    return int(x) if float(x).is_integer() else x


def serialize(surface: StripedSurface) -> str:
    """Canonical JSON text for a surface; parse(serialize(s)) == s."""
    doc = {"strips": [], "gluings": []}
    for s in surface.strips:
        rec = {"id": s.id, "lower": [], "upper": []}
        for side_name, ivs in (("lower", s.lower), ("upper", s.upper)):
            for iv in ivs:
                irec = {"id": iv.id}
                if iv.endpoints is not None:
                    irec["endpoints"] = [_endpoint_token(x) for x in iv.endpoints]
                rec[side_name].append(irec)
        doc["strips"].append(rec)
    for g in surface.gluings:
        doc["gluings"].append(
            {"id": g.id, "a": g.first, "b": g.second, "orientation": g.orientation.value}
        )
    return _dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# diagrams


def _dot_quoted(id_: str) -> str:
    """An id made safe inside a DOT double-quoted string."""
    return id_.replace("\\", "\\\\").replace('"', '\\"')


def _xml_text(id_: str) -> str:
    """An id made safe as SVG text content."""
    return id_.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_dot(ls: LeafSpace | StripedSurface) -> str:
    """Leaf-space graph: strip and point nodes, solid incidence edges,
    dashed edges between non-separated point pairs."""
    if isinstance(ls, StripedSurface):
        ls = build_leaf_space(ls)
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
        for qid in sorted(closure_ids(ls, p)):
            if qid == p.id:
                continue
            key = (p.id, qid) if p.id < qid else (qid, p.id)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "pt:{quoted[key[0]]}" -- "pt:{quoted[key[1]]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_BAND_H = 60.0
_BAND_GAP = 30.0
_X_SCALE = 40.0
_X_CLAMP = 12.0  # drawing range for unbounded coordinates
_MARGIN = 40.0


def _draw_range(surface: StripedSurface) -> tuple[float, float]:
    lo, hi = 0.0, 1.0
    for iv in surface.intervals():
        x0, x1 = iv.effective_endpoints()
        if math.isfinite(x0):
            lo = min(lo, x0)
        if math.isfinite(x1):
            hi = max(hi, x1)
    return lo - 1.0, hi + 1.0


def render_svg(surface: StripedSurface) -> str:
    """Strip diagram: stacked rectangles, bold boundary intervals, gluing arcs.

    Coordinates print with two decimals; x maps to the page by
    ``_MARGIN + (x clamped to [lo, hi] - lo) * _X_SCALE``.
    """
    from .decomposition import Mode, decompose

    # rows go piece by piece, each piece's components in order of first strip
    piece_of = {sid: i for i, part in enumerate(surface._partition) for sid in part}
    comps, _ = decompose(surface, Mode.INTERIOR)
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
                x0, x1 = iv.effective_endpoints()
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


def render(obj: StripedSurface | LeafSpace, fmt: str = "svg") -> str:
    if fmt == "svg":
        surface = obj.surface if isinstance(obj, LeafSpace) else obj
        return render_svg(surface)
    if fmt == "dot":
        return render_dot(obj)
    raise ValueError(f"unknown render format {fmt!r}")


def leafspace_json(ls: LeafSpace) -> str:
    """Deterministic JSON description of a leaf space."""
    doc = {
        "arcs": list(ls.arcs),
        "points": [
            {
                "id": p.id,
                "members": list(p.members),
                "kind": p.kind.value,
                "special": p.special,
                "hausdorff_closure": sorted(closure_ids(ls, p)),
            }
            for p in ls.points
        ],
        "incidence": [
            {"strip": sid, "side": side.value, "points": list(ls.points_on((sid, side)))}
            for sid in ls.arcs
            for side in (Side.LOWER, Side.UPPER)
        ],
    }
    return _dumps(doc) + "\n"
