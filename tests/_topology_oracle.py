"""Brute-force finite-basis topology oracle for leaf spaces.

Discretizes a leaf space into finitely many points (n samples per arc plus
the leaf points) with an explicit filtered neighborhood basis, and computes
closures and Hausdorff closures by exhaustive search.  This grounds the
combinatorial side-end cohabitation rule of :mod:`stripfol.leafspace`.

A finite space cannot be T1 without being discrete, so the truncation of the
arc tails necessarily leaves the extreme sample of each populated side-end
with a non-closed singleton.  Those samples stand for residual arc tails
rather than single leaves; they are recorded in ``frontier`` and exempted
from the T1 scan (an exact account of the artifact, not a loosened check).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from stripfol.core import Side
from stripfol.leafspace import LeafSpace

Point = tuple  # ("arc", strip_id, index) | ("pt", point_id)


@dataclass(frozen=True)
class FiniteBasisSpace:
    """Finite point set with a filtered neighborhood basis per point."""

    points: frozenset
    basis: dict  # Point -> tuple of frozensets, each containing the owner
    frontier: frozenset = frozenset()
    leaf_points: frozenset = frozenset()

    def __post_init__(self) -> None:
        for p in self.points:
            sets = self.basis.get(p, ())
            if not sets:
                raise ValueError(f"point {p!r} has an empty neighborhood basis")
            for v in sets:
                if p not in v:
                    raise ValueError(f"a basic set of {p!r} does not contain it")
                if not v <= self.points:
                    raise ValueError(f"a basic set of {p!r} leaves the point set")
            for v, w in combinations(sets, 2):
                inter = v & w
                if not any(u <= inter for u in sets):
                    raise ValueError(f"basis of {p!r} is not filtered")


def discretize(ls: LeafSpace, n: int = 5) -> FiniteBasisSpace:
    """Sample each arc n times and wire up window and tail neighborhoods.

    Arc samples get symmetric index windows of every radius up to n; a leaf
    point gets, for each cutoff, itself plus the tail of samples hugging each
    incident side-end.  Tails at the same side-end always share the extreme
    sample, which is what makes cohabiting leaf points non-separated.
    """
    if n < 3:
        raise ValueError("need at least 3 samples per arc")
    points: set[Point] = set()
    basis: dict[Point, tuple] = {}
    frontier: set[Point] = set()

    for sid in ls.arcs:
        for j in range(n):
            points.add(("arc", sid, j))
        for j in range(n):
            windows = []
            for r in range(1, n + 1):
                windows.append(
                    frozenset(
                        ("arc", sid, i)
                        for i in range(max(0, j - r + 1), min(n, j + r))
                    )
                )
            basis[("arc", sid, j)] = tuple(windows)

    def tail(sid: str, side: Side, k: int) -> frozenset:
        if side is Side.UPPER:
            return frozenset(("arc", sid, j) for j in range(k - 1, n))
        return frozenset(("arc", sid, j) for j in range(0, n - k + 1))

    leaf_pts = set()
    for p in ls.points:
        pt: Point = ("pt", p.id)
        points.add(pt)
        leaf_pts.add(pt)
        ends = ls.ends_of(p)
        sets = []
        for k in range(1, n + 1):
            v = {pt}
            for sid, side in ends:
                v |= tail(sid, side, k)
            sets.append(frozenset(v))
        basis[pt] = tuple(sets)
        for sid, side in ends:
            frontier.add(("arc", sid, n - 1 if side is Side.UPPER else 0))

    return FiniteBasisSpace(
        frozenset(points), basis, frozenset(frontier), frozenset(leaf_pts)
    )


def closure_of(space: FiniteBasisSpace, s) -> frozenset:
    """Points all of whose basic neighborhoods meet s."""
    s = frozenset(s)
    return frozenset(z for z in space.points if all(v & s for v in space.basis[z]))


def bnd_bruteforce(space: FiniteBasisSpace, p: Point) -> frozenset:
    """Intersection of the closures of all basic neighborhoods of p."""
    out = space.points
    for v in space.basis[p]:
        out = out & closure_of(space, v)
    return out


@dataclass(frozen=True)
class AxiomReport:
    t1_ok: bool
    t1_failures: tuple
    frontier_t1_failures: tuple
    symmetry_ok: bool
    symmetry_failures: tuple


def check_axioms(space: FiniteBasisSpace) -> AxiomReport:
    """Scan singleton closedness (T1) and non-separation symmetry.

    Frontier points (truncated arc tails) are reported separately and do not
    fail the T1 verdict; on hand-built spaces the frontier is empty and every
    singleton is scanned.
    """
    t1_failures = []
    frontier_failures = []
    for p in sorted(space.points):
        if closure_of(space, {p}) != frozenset({p}):
            if p in space.frontier:
                frontier_failures.append(p)
            else:
                t1_failures.append(p)

    bnd = {p: bnd_bruteforce(space, p) for p in space.points}
    symmetry_failures = []
    for p, q in combinations(sorted(space.points), 2):
        if (q in bnd[p]) != (p in bnd[q]):
            symmetry_failures.append((p, q))

    return AxiomReport(
        t1_ok=not t1_failures,
        t1_failures=tuple(t1_failures),
        frontier_t1_failures=tuple(frontier_failures),
        symmetry_ok=not symmetry_failures,
        symmetry_failures=tuple(symmetry_failures),
    )
