import random

import pytest

from stripfol.leafspace import build_leaf_space, hausdorff_closure
from fixtures import cylinder, kaplan5, open_strip
from _topology_oracle import (
    FiniteBasisSpace,
    bnd_bruteforce,
    check_axioms,
    closure_of,
    discretize,
)

from _gen import random_surface


def pt(pid):
    return ("pt", pid)


def leaf_part(space, points):
    return frozenset(p for p in points if p[0] == "pt")


def test_discretize_point_counts():
    ls = build_leaf_space(kaplan5())
    space = discretize(ls, 3)
    assert len(space.points) == 5 * 3 + 4

    s = open_strip()
    space = discretize(build_leaf_space(s), 4)
    assert len(space.points) == 4
    assert all(p[0] == "arc" for p in space.points)


def test_discretize_rejects_tiny_n():
    with pytest.raises(ValueError):
        discretize(build_leaf_space(kaplan5()), 2)


def test_cylinder_tails_wrap_both_arc_ends():
    ls = build_leaf_space(cylinder())
    space = discretize(ls, 3)
    smallest = min(space.basis[pt("seam")], key=len)
    assert smallest == frozenset({pt("seam"), ("arc", "A", 0), ("arc", "A", 2)})


def test_closure_basics():
    ls = build_leaf_space(kaplan5())
    space = discretize(ls, 5)
    assert closure_of(space, frozenset()) == frozenset()
    assert closure_of(space, space.points) == space.points
    # the closure of a full tail at a side-end contains every point on it
    tail = frozenset(("arc", "B", j) for j in range(5))
    cl = closure_of(space, tail)
    assert pt("alpha") in cl and pt("beta") in cl


def test_closure_monotone_and_idempotent():
    ls = build_leaf_space(kaplan5())
    space = discretize(ls, 4)
    rng = random.Random(0)
    pts = sorted(space.points)
    for _ in range(40):
        s = frozenset(p for p in pts if rng.random() < 0.3)
        t = s | frozenset(p for p in pts if rng.random() < 0.2)
        cs, ct = closure_of(space, s), closure_of(space, t)
        assert s <= cs
        assert cs <= ct
        assert closure_of(space, cs) == cs


def test_bnd_examples_on_kaplan5():
    ls = build_leaf_space(kaplan5())
    space = discretize(ls, 3)
    assert leaf_part(space, bnd_bruteforce(space, pt("alpha"))) == frozenset(
        {pt("alpha"), pt("beta")}
    )
    assert leaf_part(space, bnd_bruteforce(space, pt("beta"))) == frozenset(
        {pt("alpha"), pt("beta"), pt("gamma")}
    )
    # interior arc samples have singleton Hausdorff closures
    assert bnd_bruteforce(space, ("arc", "B", 1)) == frozenset({("arc", "B", 1)})


def test_frontier_samples_absorb_the_truncation_artifact():
    # a finite space cannot both be T1 and carry non-trivial Hausdorff
    # closures; the non-closed singletons are exactly the frontier samples
    ls = build_leaf_space(kaplan5())
    space = discretize(ls, 4)
    not_closed = frozenset(
        p for p in space.points if closure_of(space, {p}) != frozenset({p})
    )
    assert not_closed == space.frontier
    assert space.frontier == frozenset(
        ("arc", sid, 3) for sid in ("A", "B", "C", "D", "E")
    )


def test_check_axioms_on_fixtures():
    for fixture in (kaplan5(), cylinder(), open_strip()):
        ls = build_leaf_space(fixture)
        for n in (3, 5):
            rep = check_axioms(discretize(ls, n))
            assert rep.t1_ok
            assert rep.symmetry_ok


def test_check_axioms_negative_control():
    # y's only neighborhood contains x, so {x} is not closed
    x, y = ("pt", "x"), ("pt", "y")
    space = FiniteBasisSpace(
        points=frozenset({x, y}),
        basis={x: (frozenset({x}),), y: (frozenset({x, y}),)},
    )
    rep = check_axioms(space)
    assert not rep.t1_ok
    assert rep.t1_failures == (x,)


def test_filtered_basis_enforced():
    x, y, z = ("pt", "x"), ("pt", "y"), ("pt", "z")
    with pytest.raises(ValueError):
        FiniteBasisSpace(
            points=frozenset({x, y, z}),
            basis={
                x: (frozenset({x, y}), frozenset({x, z})),
                y: (frozenset({y}),),
                z: (frozenset({z}),),
            },
        )


def test_grounding_matches_combinatorial_rule():
    rng = random.Random(9)
    for _ in range(40):
        s = random_surface(rng, max_strips=6, max_intervals=4)
        ls = build_leaf_space(s)
        for n in (3, 5, 8):
            space = discretize(ls, n)
            for p in ls.points:
                got = leaf_part(space, bnd_bruteforce(space, pt(p.id)))
                want = frozenset(pt(q.id) for q in hausdorff_closure(ls, p))
                assert got == want


def test_symmetry_universal():
    rng = random.Random(10)
    for _ in range(15):
        s = random_surface(rng, max_strips=4, max_intervals=3)
        space = discretize(build_leaf_space(s), 4)
        rep = check_axioms(space)
        assert rep.symmetry_ok
