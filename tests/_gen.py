"""Random and exhaustive surface generation for the test suite, and the
admissible moves and sample points that the checks apply to them."""

from __future__ import annotations

import random
from itertools import product

from stripfol.core import (
    GluingSpec,
    ModelStripSpec,
    Orientation,
    Side,
    StripedSurface,
    build_surface,
    glue,
    strip,
)
from stripfol.decomposition import _reverse_side, _toggle_incident


def components(surface: StripedSurface) -> list[StripedSurface]:
    """Split a surface into its connected pieces (gluings restricted)."""
    parts = surface._partition
    if len(parts) == 1:
        return [surface]
    piece_of = {sid: i for i, part in enumerate(parts) for sid in part}
    strips: list[list[ModelStripSpec]] = [[] for _ in parts]
    gluings: list[list[GluingSpec]] = [[] for _ in parts]
    for s in surface.strips:
        strips[piece_of[s.id]].append(s)
    loc = surface._interval_loc
    for g in surface.gluings:
        gluings[piece_of[loc[g.first][0]]].append(g)
    return [build_surface(ss, gs) for ss, gs in zip(strips, gluings)]


def random_surface(
    rng: random.Random,
    max_strips: int = 6,
    max_intervals: int = 4,
    p_glue: float = 0.7,
    connected: bool = True,
) -> StripedSurface:
    """A valid random surface; with connected=True, its largest component."""
    n = rng.randint(1, max_strips)
    strips = []
    pool: list[tuple[str, str]] = []  # (interval id, "strip:side")
    for i in range(n):
        sid = f"s{i}"
        lower = [f"{sid}.l{k}" for k in range(rng.randint(0, max_intervals))]
        upper = [f"{sid}.u{k}" for k in range(rng.randint(0, max_intervals))]
        strips.append(strip(sid, lower, upper))
        pool += [(iid, f"{sid}:l") for iid in lower]
        pool += [(iid, f"{sid}:u") for iid in upper]

    rng.shuffle(pool)
    gluings = []
    gi = 0
    while len(pool) >= 2:
        a, a_end = pool.pop()
        if rng.random() > p_glue:
            continue
        candidates = [t for t in pool if t[1] != a_end]
        if not candidates:
            continue
        b, _ = candidates[rng.randrange(len(candidates))]
        pool = [t for t in pool if t[0] != b]
        flag = Orientation.PRESERVING if rng.random() < 0.5 else Orientation.REVERSING
        gluings.append(glue(f"g{gi}", a, b, flag))
        gi += 1

    surface = build_surface(strips, gluings)
    if connected:
        pieces = components(surface)
        surface = max(pieces, key=lambda p: len(p.strips))
    return surface


def connected_surface(rng: random.Random, n: int, max_intervals: int = 3) -> StripedSurface:
    """A connected surface of exactly ``n`` strips, each side with 1 to
    ``max_intervals`` intervals: a random spanning tree of gluings joins the
    strips, then about half of the other intervals are glued at random, never
    two on one side.  The rest stay boundary leaves."""
    strips = []
    free: dict[str, str] = {}  # unglued interval id -> "strip:side"
    mine: list[list[str]] = []
    on_side: dict[str, list[str]] = {}  # "strip:side" -> its interval ids
    for i in range(n):
        sid = f"s{i}"
        lower = [f"{sid}.l{k}" for k in range(rng.randint(1, max_intervals))]
        upper = [f"{sid}.u{k}" for k in range(rng.randint(1, max_intervals))]
        strips.append(strip(sid, lower, upper))
        free.update({iid: f"{sid}:l" for iid in lower})
        free.update({iid: f"{sid}:u" for iid in upper})
        mine.append(lower + upper)
        on_side[f"{sid}:l"], on_side[f"{sid}:u"] = lower, upper

    gluings = []

    def join(a: str, b: str) -> None:
        del free[a], free[b]
        flag = Orientation.PRESERVING if rng.random() < 0.5 else Orientation.REVERSING
        gluings.append(glue(f"g{len(gluings)}", a, b, flag))

    hosts = [0]  # strips placed so far that still have a free interval
    for i in range(1, n):
        j = rng.choice(hosts)
        join(rng.choice(mine[i]), rng.choice([iid for iid in mine[j] if iid in free]))
        if not any(iid in free for iid in mine[j]):  # i keeps one: it has two or more
            hosts.remove(j)
        hosts.append(i)
    rest = list(free)
    rng.shuffle(rest)
    waiting = set(rest)
    while len(rest) >= 2:
        a = rest.pop()
        waiting.remove(a)
        if rng.random() > 0.5:
            continue
        # the partner is drawn among the rest off a's side, in order: the
        # k-th of them is the k-th index of ``rest`` skipping the few on it
        same = sorted([rest.index(b) for b in on_side[free[a]] if b in waiting])
        if len(same) < len(rest):
            k = rng.choice(range(len(rest) - len(same)))
            for skipped in same:
                k += skipped <= k
            waiting.remove(rest[k])
            join(a, rest.pop(k))
    return build_surface(strips, gluings)


def random_connected_corpus(seed: int, count: int, **kw) -> list[StripedSurface]:
    rng = random.Random(seed)
    return [random_surface(rng, **kw) for _ in range(count)]


def enumerate_cycle_surfaces(max_strips: int = 3) -> list[StripedSurface]:
    """Every ring of 1..max_strips strips glued side-to-side around a cycle.

    Each strip contributes one interval per side; every choice of entry side
    per strip and orientation flag per seam appears exactly once.
    """
    out = []
    for flag in (Orientation.PRESERVING, Orientation.REVERSING):
        out.append(
            build_surface(
                [strip("s0", ["s0.l"], ["s0.u"])], [glue("g0", "s0.l", "s0.u", flag)]
            )
        )
    for m in range(2, max_strips + 1):
        for entries in product((Side.LOWER, Side.UPPER), repeat=m):
            for flags in product(
                (Orientation.PRESERVING, Orientation.REVERSING), repeat=m
            ):
                strips = [strip(f"s{i}", [f"s{i}.l"], [f"s{i}.u"]) for i in range(m)]
                gluings = []
                for i in range(m):
                    j = (i + 1) % m
                    exit_side = entries[i].other
                    tag = "l" if exit_side is Side.LOWER else "u"
                    enter_tag = "l" if entries[j] is Side.LOWER else "u"
                    gluings.append(
                        glue(f"g{i}", f"s{i}.{tag}", f"s{j}.{enter_tag}", flags[i])
                    )
                out.append(build_surface(strips, gluings))
    return out


def ring_surface(
    n: int, flags=(Orientation.PRESERVING,), width: int = 1, prefix: str = "r"
) -> StripedSurface:
    """``n`` strips of ``width`` intervals a side; each upper side is glued slot
    by slot to the next strip's lower side, seam ``i`` with ``flags[i % len(flags)]``."""
    strips = [
        strip(f"{prefix}{i}", [f"{prefix}{i}.l{k}" for k in range(width)], [f"{prefix}{i}.u{k}" for k in range(width)])
        for i in range(n)
    ]
    gluings = [
        glue(f"{prefix}g{i}.{k}", f"{prefix}{i}.u{k}", f"{prefix}{(i + 1) % n}.l{k}", flags[i % len(flags)])
        for i in range(n)
        for k in range(width)
    ]
    return build_surface(strips, gluings)


def comb_surface(k: int) -> StripedSurface:
    """One strip ``S`` with ``k`` unglued intervals with explicit endpoints on
    each side, the shape of the benchmark's realize combs.

    Widths and gaps vary by +-20% around 1 and 0.5, drawn from a generator
    seeded by ``k`` and rounded to six places.  A side's k base leaves give
    its realization k straightening stages, each built on all those above it.
    """
    rng = random.Random(f"comb:{k}")
    sides = []
    for side in "lu":
        x = rng.uniform(-0.5, 0.5)
        intervals = []
        for j in range(k):
            width = rng.uniform(0.8, 1.2)
            intervals.append((f"S.{side}{j}", (round(x, 6), round(x + width, 6))))
            x += width + rng.uniform(0.4, 0.6)
        sides.append(intervals)
    return build_surface([strip("S", *sides)], [])


def disjoint_union(*surfaces: StripedSurface) -> StripedSurface:
    return build_surface(
        [s for x in surfaces for s in x.strips], [g for x in surfaces for g in x.gluings]
    )


def cyclic_cover(rng: random.Random, surface: StripedSurface, m: int) -> StripedSurface:
    """``m`` copies of ``surface``; each gluing joins copy j to copy j + k for a
    random shift k, so shifting every copy by one is an automorphism."""
    strips = [
        strip(f"{s.id}#{j}", [f"{iv.id}#{j}" for iv in s.lower], [f"{iv.id}#{j}" for iv in s.upper])
        for j in range(m)
        for s in surface.strips
    ]
    shift = {g.id: rng.randrange(m) for g in surface.gluings}
    gluings = [
        glue(f"{g.id}#{j}", f"{g.first}#{j}", f"{g.second}#{(j + shift[g.id]) % m}", g.orientation)
        for j in range(m)
        for g in surface.gluings
    ]
    return build_surface(strips, gluings)


# Admissible moves: each gives a surface foliated-homeomorphic to its input.
# canonicalize merges a chain with the two steps of h_flip, _reverse_side
# and _toggle_incident, on each strip it flips.


def relabel_strips(surface: StripedSurface, mapping: dict[str, str]) -> StripedSurface:
    """Rename strips (interval and gluing ids untouched)."""
    strips = [s._replace(id=mapping.get(s.id, s.id)) for s in surface.strips]
    return build_surface(strips, surface.gluings)


def h_flip(surface: StripedSurface, strip_id: str) -> StripedSurface:
    """Reverse the interval order on both sides of one strip.

    Gluings with exactly one endpoint on the strip toggle orientation;
    self-gluings of the strip toggle twice, i.e. stay put.
    """
    strips = []
    for s in surface.strips:
        if s.id == strip_id:
            s = ModelStripSpec(s.id, _reverse_side(s.lower), _reverse_side(s.upper))
        strips.append(s)
    return build_surface(strips, _toggle_incident(surface.gluings, surface, {strip_id}))


def v_flip(surface: StripedSurface, strip_id: str) -> StripedSurface:
    """Swap the two sides of one strip."""
    strips = []
    for s in surface.strips:
        if s.id == strip_id:
            s = ModelStripSpec(s.id, s.upper, s.lower)
        strips.append(s)
    return build_surface(strips, surface.gluings)


def mirror(surface: StripedSurface) -> StripedSurface:
    """Reflect the whole surface: h-flip of every strip."""
    out = surface
    for sid in surface.strip_ids():
        out = h_flip(out, sid)
    return out


def roof_samples(t, n: int = 32) -> list[tuple[float, float]]:
    """Points on the roof of the trapezoid ``t``: its two side curves at n
    levels above its base, and n + 1 points across its upper base."""
    c, d = t.level_range
    pts = []
    for i in range(1, n + 1):
        y = c + (d - c) * i / n
        pts.append((t.alpha(y), y))
        pts.append((t.beta(y), y))
    a_top, b_top = t.alpha(d), t.beta(d)
    for i in range(n + 1):
        pts.append((a_top + (b_top - a_top) * i / n, d))
    return pts


def random_moves(rng: random.Random, surface: StripedSurface, count: int) -> StripedSurface:
    """Apply a random sequence of admissible moves (relabel, h-flip, v-flip)."""
    out = surface
    for _ in range(count):
        kind = rng.randrange(3)
        sid = rng.choice(out.strip_ids())
        if kind == 0:
            out = h_flip(out, sid)
        elif kind == 1:
            out = v_flip(out, sid)
        else:
            ids = list(out.strip_ids())
            shuffled = ids[:]
            rng.shuffle(shuffled)
            out = relabel_strips(out, {a: "tmp_" + b for a, b in zip(ids, shuffled)})
            out = relabel_strips(
                out, {"tmp_" + b: b for b in shuffled}
            )
    return out
