import math
import random
import time

import pytest

from stripfol.core import (
    BadEndpointsError,
    DoubleGluingError,
    DuplicateIdError,
    SameSideGluingError,
    SelfGluingError,
    Side,
    UnknownIntervalRefError,
    build_surface,
    glue,
    is_connected,
    strip,
    validate_class_f,
)

from fixtures import kaplan5, cylinder, open_strip
from _gen import components, h_flip, random_moves, random_surface, relabel_strips, v_flip


def test_kaplan5_builds():
    k = kaplan5()
    assert k.strip_ids() == ("A", "B", "C", "D", "E")
    assert len(k.gluings) == 4
    assert k.side_end_of("B.u1") == ("B", Side.UPPER) and k.endpoints("B.u1") == (2.0, 3.0)


def test_empty_strip_is_valid():
    s = open_strip()
    assert s.strips[0].lower == () and s.strips[0].upper == ()


def test_same_side_gluing_rejected():
    with pytest.raises(SameSideGluingError):
        build_surface(
            [strip("A", upper=["u0", "u1"])], [glue("g", "u0", "u1")]
        )


def test_self_gluing_rejected():
    with pytest.raises(SelfGluingError):
        build_surface([strip("A", upper=["u0"])], [glue("g", "u0", "u0")])


def test_double_gluing_rejected():
    with pytest.raises(DoubleGluingError):
        build_surface(
            [strip("A", upper=["u0"]), strip("B", lower=["b0"], upper=["b1"])],
            [glue("g1", "u0", "b0"), glue("g2", "u0", "b1")],
        )


def test_unknown_interval_rejected():
    with pytest.raises(UnknownIntervalRefError):
        build_surface([strip("A", upper=["u0"])], [glue("g", "u0", "nope")])


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateIdError):
        build_surface([strip("A"), strip("A")], [])
    with pytest.raises(DuplicateIdError):
        build_surface([strip("A", upper=["x"]), strip("B", upper=["x"])], [])
    # strip, interval and gluing ids share one namespace: a gluing named like
    # an unglued interval, a strip named like an earlier interval, a gluing
    # named like a strip
    with pytest.raises(DuplicateIdError):
        build_surface(
            [strip("A", upper=["x", "y"]), strip("B", lower=["z"])], [glue("y", "x", "z")]
        )
    with pytest.raises(DuplicateIdError):
        build_surface([strip("A", upper=["B"]), strip("B", lower=["q"])], [])
    with pytest.raises(DuplicateIdError):
        build_surface([strip("A", upper=["x"]), strip("B", lower=["z"])], [glue("A", "x", "z")])


def test_bad_endpoints_rejected():
    with pytest.raises(BadEndpointsError):
        strip_spec = strip("A", upper=[("u0", (3.0, 1.0))])
        build_surface([strip_spec], [])
    with pytest.raises(BadEndpointsError):
        build_surface(
            [strip("A", upper=[("u0", (0.0, 2.0)), ("u1", (1.0, 3.0))])], []
        )


def test_full_line_interval_and_defaults():
    c = cylinder()
    assert c.endpoints("A.l") == (-math.inf, math.inf)
    k = kaplan5()
    assert k.endpoints("B.u0") == (0.0, 1.0)
    assert k.endpoints("B.u1") == (2.0, 3.0)


def test_validate_class_f_kaplan5():
    rep = validate_class_f(kaplan5())
    assert rep["ok"] and rep["connected"]
    assert len(rep["glued_leaves"]) == 4
    assert all(r["distinct"] for r in rep["glued_leaves"])
    assert rep["components"] == [["A", "B", "C", "D", "E"]]


def test_validate_class_f_cylinder_candidate():
    rep = validate_class_f(cylinder())
    assert rep["ok"] and rep["connected"]
    (rec,) = rep["glued_leaves"]
    assert rec["distinct"]
    assert rec["collars"] == [{"strip": "A", "side": "lower"}, {"strip": "A", "side": "upper"}]


def test_validate_flags_disconnected():
    s = build_surface([strip("A"), strip("B")], [])
    rep = validate_class_f(s)
    assert not rep["connected"]
    assert any("Disconnected" in w for w in rep["warnings"])
    assert len(rep["components"]) == 2


def test_components_partition():
    s = build_surface([strip("A"), strip("B")], [])
    parts = components(s)
    assert [p.strip_ids() for p in parts] == [("A",), ("B",)]

    k = kaplan5()
    assert components(k)[0] == k

    # dropping one seam from the kaplan5 chain splits it in two
    k2 = build_surface(k.strips, [g for g in k.gluings if g.id != "beta"])
    parts = components(k2)
    assert sorted(len(p.strips) for p in parts) == [2, 3]
    assert {p.strip_ids() for p in parts} == {("A", "B"), ("C", "D", "E")}


def test_gluing_relation_is_partial_involution():
    rng = random.Random(3)
    for _ in range(50):
        s = random_surface(rng, connected=False)
        seen = {}
        for iv in s.intervals():
            g = s.gluing_of(iv.id)
            if g is None:
                continue
            assert iv.id in (g.first, g.second) and g.first != g.second
            seen.setdefault(g.id, []).append(iv.id)
        for ids in seen.values():
            assert len(ids) == 2


def test_nonspecial_gluing_degree_bound():
    # a side can host at most one gluing that is sole on both of its sides
    rng = random.Random(4)
    for _ in range(50):
        s = random_surface(rng, connected=False)
        per_side = {}
        for g in s.gluings:
            e1, e2 = s.side_end_of(g.first), s.side_end_of(g.second)
            sole = all(
                len(s.strip(e[0]).side_intervals(e[1])) == 1 for e in (e1, e2)
            )
            if sole:
                for e in (e1, e2):
                    per_side[e] = per_side.get(e, 0) + 1
        assert all(v == 1 for v in per_side.values())


def _bfs_pieces(surface):
    """Connected pieces by breadth-first search over the gluings, as sets of strip ids."""
    neighbours = {sid: set() for sid in surface.strip_ids()}
    for g in surface.gluings:
        a, b = surface.side_end_of(g.first)[0], surface.side_end_of(g.second)[0]
        neighbours[a].add(b)
        neighbours[b].add(a)
    pieces, seen = [], set()
    for start in surface.strip_ids():
        if start in seen:
            continue
        piece, queue = {start}, [start]
        while queue:
            for nxt in neighbours[queue.pop()] - piece:
                piece.add(nxt)
                queue.append(nxt)
        seen |= piece
        pieces.append(piece)
    return pieces


def _check_partition(s):
    want = _bfs_pieces(s)
    assert is_connected(s) == (len(want) <= 1)
    assert [set(p.strip_ids()) for p in components(s)] == want
    assert [set(c) for c in validate_class_f(s)["components"]] == want


def _filtered_pieces(surface):
    """The pieces built by scanning every strip and gluing once per piece."""
    out = []
    for part in surface._partition:
        members = set(part)
        strips = [s for s in surface.strips if s.id in members]
        gluings = [g for g in surface.gluings if surface.side_end_of(g.first)[0] in members]
        out.append(build_surface(strips, gluings))
    return out


def test_components_of_many_pieces_in_linear_time():
    from stripfol.decomposition import canonical_code

    n = 20_000
    strips = [strip(f"s{i}", [f"s{i}.l"], [f"s{i}.u"]) for i in range(n)]
    # odd strips close up into cylinders and Moebius bands, even ones stay open
    gluings = [glue(f"g{i}", f"s{i}.l", f"s{i}.u", ("preserving", "reversing")[i % 4 == 1]) for i in range(1, n, 2)]
    s = build_surface(strips, gluings)
    start = time.perf_counter()
    parts = components(s)
    code = canonical_code(s)
    elapsed = time.perf_counter() - start
    assert [p.strip_ids() for p in parts] == [(f"s{i}",) for i in range(n)]
    assert code.count(b"/") == n - 1
    assert elapsed < 2.0, f"{n} one-strip pieces took {elapsed:.2f} s"


def test_partition_agrees_with_bfs_and_leaves_identity_alone():
    from stripfol.decomposition import canonicalize

    rng = random.Random(41)
    for i in range(80):
        s = random_surface(rng, max_strips=8, p_glue=0.3 + 0.6 * rng.random(), connected=i % 2 == 0)
        twin = build_surface(s.strips, s.gluings)
        before = (hash(s), repr(s))
        _check_partition(s)
        if not is_connected(s):
            assert components(s) == _filtered_pieces(s)
        # the partition is computed now; equality and hash read only the fields
        assert (hash(s), repr(s)) == before
        assert s == twin and hash(s) == hash(twin)
        sid = rng.choice(s.strip_ids())
        renamed = relabel_strips(s, {x: f"r{x}" for x in s.strip_ids()})
        for t in (h_flip(s, sid), v_flip(s, sid), renamed, random_moves(rng, s, 3)):
            _check_partition(t)
        if is_connected(s):
            _check_partition(canonicalize(s))
            [piece] = components(s)
            assert piece is s  # a connected surface is its own only piece
