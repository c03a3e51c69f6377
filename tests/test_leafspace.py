import os
import random
import subprocess
import sys
from pathlib import Path

import stripfol
from stripfol.core import Side, build_surface, glue, strip
from stripfol.decomposition import Mode, Shape, StripClass, classify_component, decompose
from stripfol.io import serialize
from stripfol.leafspace import (
    PointKind,
    build_leaf_space,
    hausdorff_closure,
    is_special,
    special_points,
)

from fixtures import cylinder, kaplan5, open_strip
from _gen import random_surface


def closure_ids(ls, pid):
    return sorted(p.id for p in hausdorff_closure(ls, pid))


def arc_components(surface):
    """The components of the leaf space minus its special points."""
    comps, _ = decompose(surface, Mode.INTERIOR)
    return comps


def retained(comp):
    return sorted(r for r in (comp.retained_lower, comp.retained_upper) if r is not None)


def test_kaplan5_leaf_space_structure():
    ls = build_leaf_space(kaplan5())
    assert ls.arcs == ("A", "B", "C", "D", "E")
    assert sorted(p.id for p in ls.points) == ["alpha", "beta", "delta", "gamma"]
    assert ls.incidence["B", Side.UPPER] == ("alpha", "beta")
    assert ls.incidence["C", Side.UPPER] == ("beta", "gamma")
    assert ls.incidence["D", Side.UPPER] == ("gamma", "delta")
    assert ls.incidence["A", Side.LOWER] == ()


def test_kaplan5_hausdorff_closures():
    ls = build_leaf_space(kaplan5())
    assert closure_ids(ls, "alpha") == ["alpha", "beta"]
    assert closure_ids(ls, "beta") == ["alpha", "beta", "gamma"]
    assert closure_ids(ls, "gamma") == ["beta", "delta", "gamma"]
    assert closure_ids(ls, "delta") == ["delta", "gamma"]
    # non-separation is not transitive
    assert "gamma" not in closure_ids(ls, "alpha")
    assert "delta" not in closure_ids(ls, "beta")


def test_kaplan5_special_points():
    ls = build_leaf_space(kaplan5())
    assert sorted(p.id for p in special_points(ls)) == [
        "alpha",
        "beta",
        "delta",
        "gamma",
    ]
    assert all(p.kind is PointKind.SPECIAL for p in ls.points)


def test_special_points_and_closures_come_in_a_fixed_order():
    # special points in the leaf space's point order, each closure in id
    # order: tuples, not frozensets, which iterate in an order that follows
    # the addresses of the PointKind members the points hash
    rng = random.Random(41)
    corpus = [kaplan5(), cylinder(), open_strip()]
    corpus += [random_surface(rng, max_strips=6, max_intervals=3) for _ in range(100)]
    for s in corpus:
        ls = build_leaf_space(s)
        assert special_points(ls) == tuple(p for p in ls.points if p.special)
        for p in ls.points:
            closure = hausdorff_closure(ls, p)
            assert type(closure) is tuple
            assert [q.id for q in closure] == sorted(q.id for q in closure)
    # the same order in every process, the hash seed fixed
    code = (
        "import sys\n"
        "from stripfol.io import parse\n"
        "from stripfol.leafspace import build_leaf_space, hausdorff_closure, special_points\n"
        "ls = build_leaf_space(parse(sys.argv[1]))\n"
        "print([p.id for p in special_points(ls)], [[q.id for q in hausdorff_closure(ls, p)] for p in ls.points])\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(Path(stripfol.__file__).parents[1])}
    doc = serialize(kaplan5())
    outs = {
        subprocess.run([sys.executable, "-c", code, doc], env=env, capture_output=True, text=True, check=True).stdout
        for _ in range(4)
    }
    assert outs == {
        "['alpha', 'beta', 'gamma', 'delta'] "
        "[['alpha', 'beta'], ['alpha', 'beta', 'gamma'], ['beta', 'delta', 'gamma'], ['delta', 'gamma']]\n"
    }


def test_single_unglued_interval_point():
    s = build_surface([strip("A", upper=["A.u0"])], [])
    ls = build_leaf_space(s)
    (p,) = ls.points
    assert p.kind is PointKind.BOUNDARY_LEAF
    assert hausdorff_closure(ls, p) == (p,)
    assert special_points(ls) == ()


def test_cylinder_leaf_space_is_circle():
    ls = build_leaf_space(cylinder())
    (p,) = ls.points
    assert p.kind is PointKind.NON_SPECIAL_GLUED
    assert ls.ends_of(p) == (("A", Side.LOWER), ("A", Side.UPPER))
    assert special_points(ls) == ()
    [comp] = arc_components(cylinder())
    assert comp.shape is Shape.CYCLE
    assert comp.strip_ids() == ("A",)
    assert comp.interfaces == ("seam",)
    assert retained(comp) == []


def test_boundary_leaf_kept_even_when_special():
    # two intervals on one side, one glued to a second strip, one unglued
    s = build_surface(
        [strip("A", upper=["A.u0", "A.u1"]), strip("B", lower=["B.l0"])],
        [glue("g", "A.u0", "B.l0")],
    )
    ls = build_leaf_space(s)
    b = ls.point("A.u1")
    assert b.kind is PointKind.BOUNDARY_LEAF
    assert is_special(ls, b)
    assert closure_ids(ls, "A.u1") == ["A.u1", "g"]


def test_interior_component_class_examples():
    assert [classify_component(c) for c in arc_components(kaplan5())] == [StripClass.OPEN_STRIP] * 5

    both_closed = build_surface([strip("A", lower=["A.l0"], upper=["A.u0"])], [])
    [comp] = arc_components(both_closed)
    assert classify_component(comp) is StripClass.CLOSED_STRIP
    assert retained(comp) == ["A.l0", "A.u0"]

    half = build_surface([strip("A", upper=["A.u0"])], [])
    [comp] = arc_components(half)
    assert classify_component(comp) is StripClass.HALF_CLOSED_STRIP

    [comp] = arc_components(open_strip())
    assert classify_component(comp) is StripClass.OPEN_STRIP


def test_chain_joining_across_nonspecial_point():
    s = build_surface(
        [strip("P", upper=["P.m"]), strip("Q", lower=["Q.m"])],
        [glue("seam", "P.m", "Q.m")],
    )
    [comp] = arc_components(s)
    assert classify_component(comp) is StripClass.OPEN_STRIP
    assert set(comp.strip_ids()) == {"P", "Q"}
    assert comp.interfaces == ("seam",)


def test_closure_symmetry_on_random_surfaces():
    rng = random.Random(11)
    for _ in range(120):
        s = random_surface(rng, connected=False)
        ls = build_leaf_space(s)
        for p in ls.points:
            assert p.special == (len(hausdorff_closure(ls, p)) > 1)
            for q in hausdorff_closure(ls, p):
                assert p in hausdorff_closure(ls, q)


def test_every_interval_in_exactly_one_point():
    rng = random.Random(12)
    for _ in range(60):
        s = random_surface(rng, connected=False)
        ls = build_leaf_space(s)
        counts = {}
        for p in ls.points:
            for m in p.members:
                counts[m] = counts.get(m, 0) + 1
        assert sorted(counts) == sorted(iv.id for iv in s.intervals())
        assert set(counts.values()) == {1} or not counts
