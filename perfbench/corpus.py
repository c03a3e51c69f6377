"""Seeded surface documents for the benchmark, built without the library.

Every generator returns a plain JSON-ready dict in the stripfol document
format, so the answer keys derived from it (strip ids, leaf points, special
flags, base leaves) do not depend on the code under test.
"""

from __future__ import annotations

import random

# Side interval counts of 0, 2 or 3 make every gluing special: such a surface
# is already canonical, so its canonical strip count is its strip count.
CANONICAL_SIDES = ((2, 0), (0, 2), (2, 2), (3, 2), (2, 3), (2, 2), (3, 0), (0, 3))
# Any side may carry 1..3 intervals: chains merge and special leaves mix.
STRUCTURE_SIDES = tuple((a, b) for a in range(1, 4) for b in range(1, 4))


def _flag(rng: random.Random) -> str:
    return rng.choice(("preserving", "reversing"))


def connected_doc(rng: random.Random, n: int, sides=STRUCTURE_SIDES, prefix: str = "s") -> dict:
    """A connected surface of exactly ``n`` strips.

    A random spanning tree of gluings joins the strips; then about half of
    the remaining free intervals are glued at random, never two intervals on
    the same side of one strip.  The rest stay boundary leaves.
    """
    strips = []
    free: dict[str, tuple[int, str]] = {}
    by_strip: list[list[str]] = []
    for i in range(n):
        sid = f"{prefix}{i}"
        rec = {"id": sid, "lower": [], "upper": []}
        mine = []
        for side, count in zip(("lower", "upper"), rng.choice(sides)):
            for k in range(count):
                iid = f"{sid}.{side[0]}{k}"
                rec[side].append({"id": iid})
                free[iid] = (i, side)
                mine.append(iid)
        strips.append(rec)
        by_strip.append(mine)

    gluings = []

    def glue(a: str, b: str) -> None:
        del free[a], free[b]
        gluings.append({"id": f"g{len(gluings)}", "a": a, "b": b, "orientation": _flag(rng)})

    for i in range(1, n):
        hosts = [j for j in range(i) if any(iid in free for iid in by_strip[j])]
        j = rng.choice(hosts)
        glue(rng.choice([x for x in by_strip[i] if x in free]), rng.choice([x for x in by_strip[j] if x in free]))
    rest = list(free)
    rng.shuffle(rest)
    while len(rest) >= 2:
        a = rest.pop()
        if rng.random() > 0.5:
            continue
        partners = [k for k, b in enumerate(rest) if free[b] != free[a]]
        if partners:
            glue(a, rest.pop(rng.choice(partners)))
    return {"strips": strips, "gluings": gluings}


def chain_doc(rng: random.Random, m: int) -> dict:
    """``m`` strips stacked by non-special gluings; canonicalize merges them into one."""
    strips = []
    gluings = []
    enter = None
    for i in range(m):
        sid = f"c{i}"
        exit_side = rng.choice(("lower", "upper"))
        rec = {"id": sid, "lower": [], "upper": []}
        if enter is not None:
            entry_side = "lower" if exit_side == "upper" else "upper"
            rec[entry_side] = [{"id": f"{sid}.in"}]
            gluings.append({"id": f"m{i}", "a": enter, "b": f"{sid}.in", "orientation": _flag(rng)})
        if i < m - 1:
            rec[exit_side] = [{"id": f"{sid}.out"}]
            enter = f"{sid}.out"
        for side in ("lower", "upper"):
            if not rec[side]:
                rec[side] = [{"id": f"{sid}.{side[0]}{k}"} for k in range(rng.randint(0, 3))]
        strips.append(rec)
    return {"strips": strips, "gluings": gluings}


def ring_doc(n: int) -> dict:
    """A cycle of ``n`` strips, upper side of each glued to the lower side of the next."""
    return {
        "strips": [{"id": f"r{i}", "lower": [{"id": f"r{i}.l"}], "upper": [{"id": f"r{i}.u"}]} for i in range(n)],
        "gluings": [
            {
                "id": f"g{i}",
                "a": f"r{i}.u",
                "b": f"r{(i + 1) % n}.l",
                "orientation": "preserving",
            }
            for i in range(n)
        ],
    }


def comb_doc(rng: random.Random, k: int) -> dict:
    """One strip with ``k`` unglued intervals with explicit endpoints on each side.

    Widths and gaps vary by +-20% around 1 and 0.5: the realization's cost
    follows the interval geometry, and wider draws moved it by 20% per seed.
    """
    rec = {"id": "S", "lower": [], "upper": []}
    for side in ("lower", "upper"):
        x = rng.uniform(-0.5, 0.5)
        for j in range(k):
            width = rng.uniform(0.8, 1.2)
            rec[side].append({"id": f"S.{side[0]}{j}", "endpoints": [round(x, 6), round(x + width, 6)]})
            x += width + rng.uniform(0.4, 0.6)
    return {"strips": [rec], "gluings": []}


def kaplan5_doc() -> dict:
    """The five-strip reference example: a chain of four special leaves."""
    uppers = {"A": 1, "B": 2, "C": 2, "D": 2, "E": 1}
    strips = [{"id": s, "lower": [], "upper": [{"id": f"{s}.u{k}"} for k in range(c)]} for s, c in uppers.items()]
    pairs = [("alpha", "A.u0", "B.u0"), ("beta", "B.u1", "C.u0"), ("gamma", "C.u1", "D.u0"), ("delta", "D.u1", "E.u0")]
    return {"strips": strips, "gluings": [{"id": g, "a": a, "b": b, "orientation": "preserving"} for g, a, b in pairs]}


def horseshoe_doc() -> dict:
    """Two strips merged by a non-special seam whose extremes share the special leaf z."""
    return {
        "strips": [
            {"id": "P", "lower": [{"id": "P.l0"}, {"id": "P.l1"}], "upper": [{"id": "P.m"}]},
            {"id": "R", "lower": [{"id": "R.m"}], "upper": [{"id": "R.u0"}]},
        ],
        "gluings": [
            {"id": "m", "a": "P.m", "b": "R.m", "orientation": "preserving"},
            {"id": "z", "a": "P.l0", "b": "R.u0", "orientation": "preserving"},
        ],
    }


def cylinder_doc() -> dict:
    line = ["-inf", "+inf"]
    return {
        "strips": [{"id": "A", "lower": [{"id": "A.l", "endpoints": line}], "upper": [{"id": "A.u", "endpoints": line}]}],
        "gluings": [{"id": "seam", "a": "A.l", "b": "A.u", "orientation": "preserving"}],
    }


def moved_doc(rng: random.Random, doc: dict, prefix: str = "t") -> dict:
    """Apply random admissible moves: h-flips, v-flips, relabelling and reordering.

    An h-flip reverses both interval lists of a strip and toggles every
    gluing with exactly one end on it; a v-flip swaps its sides.  The result
    is foliated-homeomorphic to ``doc``.  Endpoints are not mirrored, so use
    this on documents without them.
    """
    strips = [{"id": s["id"], "lower": list(s["lower"]), "upper": list(s["upper"])} for s in doc["strips"]]
    owner = {iv["id"]: s["id"] for s in strips for side in ("lower", "upper") for iv in s[side]}
    gluings = [dict(g) for g in doc["gluings"]]
    for s in strips:
        if rng.random() < 0.5:
            s["lower"].reverse()
            s["upper"].reverse()
            for g in gluings:
                if (owner[g["a"]] == s["id"]) != (owner[g["b"]] == s["id"]):
                    g["orientation"] = "reversing" if g["orientation"] == "preserving" else "preserving"
        if rng.random() < 0.5:
            s["lower"], s["upper"] = s["upper"], s["lower"]
    names = [f"{prefix}{i}" for i in range(len(strips))]
    rng.shuffle(names)
    for s, name in zip(strips, names):
        s["id"] = name
    rng.shuffle(strips)
    rng.shuffle(gluings)
    for g in gluings:
        if rng.random() < 0.5:
            g["a"], g["b"] = g["b"], g["a"]
    return {"strips": strips, "gluings": gluings}


def flip_seam(doc: dict, index: int) -> dict:
    """Copy of ``doc`` with the orientation flag of one gluing reversed."""
    out = {"strips": doc["strips"], "gluings": [dict(g) for g in doc["gluings"]]}
    g = out["gluings"][index]
    g["orientation"] = "reversing" if g["orientation"] == "preserving" else "preserving"
    return out


def with_extra_boundary(doc: dict) -> dict | None:
    """Copy of ``doc`` with one more unglued interval on a side that has no gluing.

    The extra boundary leaf changes the count of boundary leaves, which every
    foliated homeomorphism preserves, and leaves the merge structure alone.
    Returns None when every side carries a gluing.
    """
    glued = {iid for g in doc["gluings"] for iid in (g["a"], g["b"])}
    for s in doc["strips"]:
        for side in ("lower", "upper"):
            if not any(iv["id"] in glued for iv in s[side]):
                strips = [dict(t) for t in doc["strips"]]
                rec = next(t for t in strips if t["id"] == s["id"])
                rec[side] = list(rec[side]) + [{"id": f"{s['id']}.extra"}]
                return {"strips": strips, "gluings": doc["gluings"]}
    return None


def leaf_points(doc: dict) -> dict[str, bool]:
    """Leaf-space points of a document with their special flag, from the definition.

    One point per gluing and per unglued interval; a point is special when a
    side it lies on carries more than one interval (its Hausdorff closure then
    holds that neighbour's point too).
    """
    side_len = {}
    for s in doc["strips"]:
        for side in ("lower", "upper"):
            for iv in s[side]:
                side_len[iv["id"]] = len(s[side])
    points = {}
    glued = set()
    for g in doc["gluings"]:
        points[g["id"]] = side_len[g["a"]] > 1 or side_len[g["b"]] > 1
        glued.update((g["a"], g["b"]))
    for iid, n in side_len.items():
        if iid not in glued:
            points[iid] = n > 1
    return points
