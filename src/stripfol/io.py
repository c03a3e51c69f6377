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


def _num(value, path: str) -> float:
    if value == "-inf":
        return float("-inf")
    if value == "+inf" or value == "inf":
        return float("inf")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ParseError("number out of the float range", path=path) from None
    raise ParseError(f"expected a number or -inf/+inf, got {value!r}", path=path)


def _interval(rec, side: Side, index: int, path: str) -> Interval:
    if isinstance(rec, str):
        return Interval(rec, side, index)
    if not isinstance(rec, dict) or "id" not in rec:
        raise ParseError("interval record needs an 'id'", path=path)
    ends = rec.get("endpoints")
    if ends is None:
        return Interval(str(rec["id"]), side, index)
    if not isinstance(ends, list) or len(ends) != 2:
        raise ParseError("endpoints must be a [x0, x1] pair", path=path)
    return Interval(
        str(rec["id"]),
        side,
        index,
        (_num(ends[0], path + ".endpoints[0]"), _num(ends[1], path + ".endpoints[1]")),
    )


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
        path = f"strips[{i}]"
        if not isinstance(srec, dict) or "id" not in srec:
            raise ParseError("strip record needs an 'id'", path=path)
        sides = {}
        for side_name, side in (("lower", Side.LOWER), ("upper", Side.UPPER)):
            recs = srec.get(side_name, [])
            if not isinstance(recs, list):
                raise ParseError(f"'{side_name}' must be a list", path=path)
            sides[side_name] = tuple(
                _interval(rec, side, k, f"{path}.{side_name}[{k}]")
                for k, rec in enumerate(recs)
            )
        strips.append(ModelStripSpec(str(srec["id"]), sides["lower"], sides["upper"]))

    gluings = []
    for i, grec in enumerate(doc.get("gluings", [])):
        path = f"gluings[{i}]"
        if not isinstance(grec, dict) or "a" not in grec or "b" not in grec:
            raise ParseError("gluing record needs 'a' and 'b'", path=path)
        flag = grec.get("orientation", "preserving")
        try:
            orientation = Orientation(flag)
        except ValueError:
            raise ParseError(
                f"orientation must be 'preserving' or 'reversing', got {flag!r}", path=path
            ) from None
        gid = str(grec.get("id", f"g{i}"))
        gluings.append(GluingSpec(gid, str(grec["a"]), str(grec["b"]), orientation))

    return build_surface(strips, gluings)


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
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# diagrams


def render_dot(ls: LeafSpace | StripedSurface) -> str:
    """Leaf-space graph: strip and point nodes, solid incidence edges,
    dashed edges between non-separated point pairs."""
    if isinstance(ls, StripedSurface):
        ls = build_leaf_space(ls)
    lines = ["graph leafspace {"]
    for sid in ls.arcs:
        lines.append(f'  "strip:{sid}" [shape=box, label="{sid}"];')
    for p in ls.points:
        shape = "doublecircle" if p.special else "circle"
        lines.append(f'  "pt:{p.id}" [shape={shape}, label="{p.id}"];')
    for p in ls.points:
        for sid, side in ls.ends_of(p):
            lines.append(f'  "strip:{sid}" -- "pt:{p.id}" [label="{side.value}"];')
    seen = set()
    for p in ls.points:
        if not p.special:  # its closure is the point alone
            continue
        for qid in sorted(closure_ids(ls, p)):
            if qid == p.id:
                continue
            key = tuple(sorted((p.id, qid)))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "pt:{key[0]}" -- "pt:{key[1]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


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
    """Strip diagram: stacked rectangles, bold boundary intervals, gluing arcs."""
    from .decomposition import Mode, decompose
    from .core import is_connected, components as split

    pieces = [surface] if is_connected(surface) else split(surface)
    rows: list[tuple[str, ModelStripSpec]] = []
    for piece in pieces:
        comps, _ = decompose(piece, Mode.INTERIOR)
        for comp in comps:
            for sid, _flipped in comp.strips:
                rows.append((sid, surface.strip(sid)))

    lo, hi = _draw_range(surface)
    lo, hi = max(lo, -_X_CLAMP), min(hi, _X_CLAMP + 1)
    width = (hi - lo) * _X_SCALE + 2 * _MARGIN
    height = len(rows) * (_BAND_H + _BAND_GAP) + 2 * _MARGIN

    def X(x: float) -> float:
        return _MARGIN + (min(max(x, lo), hi) - lo) * _X_SCALE

    band_y: dict[str, float] = {}
    body = []
    for i, (sid, spec) in enumerate(rows):
        y0 = _MARGIN + i * (_BAND_H + _BAND_GAP)
        band_y[sid] = y0
        body.append(
            f'<rect x="{_fmt(X(lo))}" y="{_fmt(y0)}" width="{_fmt(X(hi) - X(lo))}" '
            f'height="{_fmt(_BAND_H)}" fill="#eef" stroke="#336"/>'
        )
        body.append(
            f'<text x="{_fmt(X(lo) + 4)}" y="{_fmt(y0 + 16)}" font-size="12">{sid}</text>'
        )

    seg_pos: dict[str, tuple[float, float]] = {}
    for sid, spec in rows:
        y0 = band_y[sid]
        for side, yy in ((Side.UPPER, y0), (Side.LOWER, y0 + _BAND_H)):
            for iv in spec.side_intervals(side):
                x0, x1 = iv.effective_endpoints()
                unbounded_l, unbounded_r = not math.isfinite(x0), not math.isfinite(x1)
                gx0, gx1 = X(max(x0, lo)), X(min(x1, hi))
                body.append(
                    f'<line x1="{_fmt(gx0)}" y1="{_fmt(yy)}" x2="{_fmt(gx1)}" '
                    f'y2="{_fmt(yy)}" stroke="#000" stroke-width="4"/>'
                )
                if unbounded_l:
                    body.append(
                        f'<text x="{_fmt(gx0 - 12)}" y="{_fmt(yy + 4)}" font-size="12">&#8592;</text>'
                    )
                if unbounded_r:
                    body.append(
                        f'<text x="{_fmt(gx1 + 2)}" y="{_fmt(yy + 4)}" font-size="12">&#8594;</text>'
                    )
                seg_pos[iv.id] = ((gx0 + gx1) / 2.0, yy)

    for g in surface.gluings:
        (xa, ya), (xb, yb) = seg_pos[g.first], seg_pos[g.second]
        dash = "" if g.orientation is Orientation.PRESERVING else ' stroke-dasharray="6 3"'
        midy = (ya + yb) / 2.0 - 20.0
        body.append(
            f'<path d="M {_fmt(xa)} {_fmt(ya)} Q {_fmt((xa + xb) / 2.0)} {_fmt(midy)} '
            f'{_fmt(xb)} {_fmt(yb)}" fill="none" stroke="#c33" stroke-width="1.5"{dash}/>'
        )
        body.append(
            f'<text x="{_fmt((xa + xb) / 2.0)}" y="{_fmt(midy + 10)}" '
            f'font-size="11" fill="#c33">{g.id}</text>'
        )

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
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
    return json.dumps(doc, indent=2) + "\n"
