"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import math
import random
from contextlib import contextmanager

from stripfol.cli import main as cli_main
from stripfol.decomposition import (
    Mode,
    Shape,
    StripClass,
    canonical_code,
    canonicalize,
    check_cycle_components,
    classify_component,
    component_closures,
    decompose,
    is_isomorphic,
)
from stripfol.homeo import (
    PLFunction,
    Trapezoid,
    realize_half_strip,
    rectify_finite,
    roof_homeo,
    shrink_leaf,
    uk_eval,
)
from stripfol.leafspace import build_leaf_space, hausdorff_closure, special_points
from fixtures import (
    all_fixtures,
    cylinder,
    horseshoe,
    kaplan5,
    kaplan5_mirror,
    moebius,
    two_strip_chain,
)
from _topology_oracle import bnd_bruteforce, check_axioms, discretize

from _gen import enumerate_cycle_surfaces, random_moves, random_surface, roof_samples
from _oracles import exhaustive_isomorphic, orientability_by_propagation

TOL = 1e-9


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_reference_example_reproduction():
    with criterion(1, "reference example reproduction"):
        k = kaplan5()
        ls = build_leaf_space(k)
        assert {p.id for p in special_points(ls)} == {"alpha", "beta", "gamma", "delta"}

        def separated(a, b):
            return ls.point(b) not in hausdorff_closure(ls, a)

        assert not separated("alpha", "beta")
        assert not separated("beta", "gamma")
        assert not separated("gamma", "delta")
        assert separated("alpha", "gamma")
        assert separated("alpha", "delta")
        assert separated("beta", "delta")

        comps, cut = decompose(k, Mode.WITH_BOUNDARY)
        assert {p.id for p in cut} == {"alpha", "beta", "gamma", "delta"}
        assert len(comps) == 5
        assert all(classify_component(c) is StripClass.OPEN_STRIP for c in comps)
        base_counts = {}
        for c in comps:
            lower, upper, _ = component_closures(c)
            base_counts[c.strip_ids()[0]] = sorted(
                (len(lower.base_points), len(upper.base_points))
            )
        assert base_counts == {
            "A": [0, 1],
            "B": [0, 2],
            "C": [0, 2],
            "D": [0, 2],
            "E": [0, 1],
        }


def test_criterion_2_cylinder_moebius_and_monodromy_oracle():
    with criterion(2, "cylinder/moebius and orientation oracle"):
        for fixture, expected in (
            (cylinder(), StripClass.CYLINDER),
            (moebius(), StripClass.MOEBIUS),
        ):
            comps, _ = decompose(fixture, Mode.WITH_BOUNDARY)
            (c,) = comps
            assert classify_component(c) is expected
            assert check_cycle_components(fixture, comps).ok

        surfaces = enumerate_cycle_surfaces(3)
        assert len(surfaces) > 50
        for s in surfaces:
            comps, _ = decompose(s, Mode.WITH_BOUNDARY)
            (c,) = comps
            assert c.shape is Shape.CYCLE
            assert (
                classify_component(c) is StripClass.CYLINDER
            ) == orientability_by_propagation(s)
            assert check_cycle_components(s, comps).ok


def test_criterion_3_oracle_grounding():
    with criterion(3, "finite-basis oracle grounding"):
        rng = random.Random(2024)
        for _ in range(200):
            s = random_surface(rng, max_strips=6, max_intervals=4)
            ls = build_leaf_space(s)
            for n in (3, 5, 8):
                space = discretize(ls, n)
                for p in ls.points:
                    got = frozenset(
                        q for q in bnd_bruteforce(space, ("pt", p.id)) if q[0] == "pt"
                    )
                    want = frozenset(("pt", q.id) for q in hausdorff_closure(ls, p))
                    assert got == want
                rep = check_axioms(space)
                assert rep.t1_ok
                assert rep.symmetry_ok


def test_criterion_4_classification_soundness():
    with criterion(4, "classification soundness"):
        rng = random.Random(2025)
        wb_allowed = {StripClass.OPEN_STRIP, StripClass.CYLINDER, StripClass.MOEBIUS}
        for _ in range(200):
            s = random_surface(rng, max_strips=6, max_intervals=3)
            for mode in Mode:
                comps, _ = decompose(s, mode)
                for c in comps:
                    cls = classify_component(c)
                    if mode is Mode.WITH_BOUNDARY:
                        assert cls in wb_allowed
                    assert isinstance(cls, StripClass)
                    n = len(c.strips)
                    want = n if c.shape is Shape.CYCLE else n - 1
                    assert len(c.interfaces) == want


def test_criterion_5_invariant_stability():
    with criterion(5, "canonical code stability and isomorphism agreement"):
        rng = random.Random(2026)
        for fixture in (
            kaplan5(),
            cylinder(),
            moebius(),
            horseshoe(),
            two_strip_chain(),
        ):
            base = canonical_code(canonicalize(fixture))
            for _ in range(100):
                moved = random_moves(rng, fixture, rng.randint(1, 10))
                assert canonical_code(canonicalize(moved)) == base

        for _ in range(40):
            a = random_surface(rng, max_strips=4, max_intervals=3)
            b = random_surface(rng, max_strips=4, max_intervals=3)
            assert is_isomorphic(a, b) == exhaustive_isomorphic(
                canonicalize(a), canonicalize(b)
            )
            scrambled = random_moves(rng, a, 6)
            assert is_isomorphic(a, scrambled)


def test_criterion_6_homeo_engine_numerics():
    with criterion(6, "homeomorphism engine numerics"):
        assert uk_eval(5, [2], [0]) == 3
        assert uk_eval(3, [1, 5], [0, 2]) == 1
        rng = random.Random(2027)
        for _ in range(10_000):
            k = rng.randint(1, 4)
            y = sorted(rng.uniform(-20, 20) for _ in range(k))
            q = sorted(rng.uniform(-20, 20) for _ in range(k))
            if any(b - a < 1e-6 for a, b in zip(y, y[1:])):
                continue
            if any(b - a < 1e-6 for a, b in zip(q, q[1:])):
                continue
            for yi, qi in zip(y, q):
                assert uk_eval(yi, y, q) == qi
            x1 = rng.uniform(-30, 30)
            x2 = x1 + rng.uniform(1e-6, 5)
            assert uk_eval(x1, y, q) < uk_eval(x2, y, q)
            assert uk_eval(x1, y, y) == x1

        funcs = [lambda t: t, lambda t: 2 + 0.3 * math.sin(4 * t)]
        m = rectify_finite(funcs, s=1.0, c=0.0, samples=128)
        for f in funcs:
            for i in range(1, 50):
                t = i / 50
                X, Y = m.apply(f(t), t)
                assert abs(X - f(1.0)) < TOL
                assert Y == t
        for x in (-4.0, 0.0, 9.0):
            assert m.apply(x, 1.0) == (x, 1.0)

        sl = shrink_leaf(-1.0, 1.0, 1.0)
        X, Y = sl.apply(1.0, 0.0)
        assert abs(X - 0.5) < TOL and Y == 0.0
        for _ in range(500):
            x, y = rng.uniform(-6, 6), rng.uniform(-3, 3)
            if abs(y) >= 1.0:
                assert sl.apply(x, y) == (x, y)
            X, Y = sl.apply(x, y)
            x2, y2 = sl.invert(X, Y)
            assert abs(x2 - x) < TOL and y2 == y
        for x in (-1e5, -2.0, 0.0, 3.0, 1e5):
            X, _ = sl.apply(x, 0.0)
            assert -1.0 < X < 1.0

        src = Trapezoid(
            PLFunction.constant(0.0), PLFunction.constant(1.0), (0.0, 1.0), base=(0, 1)
        )
        dst = Trapezoid(
            PLFunction.constant(2.0), PLFunction.constant(4.0), (0.0, 2.0), base=(2, 4)
        )
        rh = roof_homeo(src, dst, lambda y: 2 * y)
        assert rh.apply(0.5, 0.5) == (3.0, 1.0)
        wedge = PLFunction((0.0, 0.5, 1.0), (0.0, 0.5, 0.0))
        from stripfol.homeo import trapezoid_under_clearance

        curvy = trapezoid_under_clearance(wedge, 0.0, 1.0, 4)
        flat = Trapezoid(
            PLFunction.constant(3.0),
            PLFunction.constant(5.0),
            (0.0, curvy.top),
            base=(3, 5),
        )
        m2 = roof_homeo(curvy, flat)
        for x, y in roof_samples(curvy, 64):
            X, Y = m2.apply(x, y)
            on_roof = (
                abs(X - 3.0) < TOL
                or abs(X - 5.0) < TOL
                or (abs(Y - curvy.top) < TOL and 3.0 - TOL <= X <= 5.0 + TOL)
            )
            assert on_roof


def test_criterion_7_realization_coherence():
    with criterion(7, "half-strip realization coherence"):
        k = kaplan5()
        comps, _ = decompose(k, Mode.WITH_BOUNDARY)
        comp = next(c for c in comps if c.strip_ids() == ("B",))
        lower, upper, _ = component_closures(comp)
        chart, eta = realize_half_strip(k, comp, upper, depth=3, samples=48)
        assert len(chart.rectangles) == 2

        # each collar's roof map, level passed through, against the inverse
        # straightening that eta uses off the rectangles
        z_map = eta.straightening.invert
        for roof, (a, b, d) in zip(eta.collars, chart.rectangles):
            for i in range(1, 25):
                y = -1 + (d + 1) * i / 25
                for x in (a, b):
                    f1, f2 = (roof.apply(x, y)[0], y), z_map(x, y)
                    assert abs(f1[0] - f2[0]) < TOL and abs(f1[1] - f2[1]) < TOL
            for i in range(26):
                x = a + (b - a) * i / 25
                f1, f2 = (roof.apply(x, d)[0], d), z_map(x, d)
                assert abs(f1[0] - f2[0]) < TOL and abs(f1[1] - f2[1]) < TOL

        rng = random.Random(2028)
        for _ in range(1000):
            y = rng.uniform(-0.999, -0.001)
            x = rng.uniform(-3, 6)
            X, Y = eta.apply(x, y)
            assert Y == y

        spans = {"alpha": (0.0, 1.0), "beta": (2.0, 3.0)}
        for p, (a, b) in zip(upper.base_points, chart.base_intervals):
            lo, hi = spans[p.id]
            for frac in [i / 40 for i in range(1, 40)]:
                X, Y = eta.apply(a + (b - a) * frac, -1.0)
                assert Y == -1.0
                assert lo < X < hi


def test_criterion_8_cli_contract(fixture_dir, capsys):
    with criterion(8, "CLI contract and determinism"):
        def run(*argv):
            try:
                code = cli_main(list(argv))
            except SystemExit as e:
                code = e.code
            return code, capsys.readouterr().out

        k = str(fixture_dir / "kaplan5.json")
        code, _ = run("validate", k)
        assert code == 0
        code, out = run("iso", k, str(fixture_dir / "kaplan5_mirror.json"))
        assert code == 0 and json.loads(out)["isomorphic"]
        code, _ = run("iso", k, str(fixture_dir / "cylinder.json"))
        assert code == 1

        bad = fixture_dir / "_bad.json"
        bad.write_text("{broken")
        code, _ = run("validate", str(bad))
        assert code == 2
        code, _ = run("nonsense")
        assert code == 3

        sameside = fixture_dir / "_sameside.json"
        sameside.write_text(
            json.dumps(
                {
                    "strips": [
                        {"id": "A", "upper": [{"id": "u0"}, {"id": "u1"}]}
                    ],
                    "gluings": [{"a": "u0", "b": "u1"}],
                }
            )
        )
        code, out = run("validate", str(sameside))
        assert code == 1 and json.loads(out)["rule"] == "SameSideGluing"

        for name in all_fixtures():
            path = str(fixture_dir / f"{name}.json")
            for argv in (
                ["validate", path],
                ["leafspace", path],
                ["leafspace", path, "--format", "dot"],
                ["decompose", path],
                ["decompose", path, "--mode", "interior"],
                ["canon", path],
                ["render", path],
                ["render", path, "--format", "dot"],
            ):
                c1, o1 = run(*argv)
                c2, o2 = run(*argv)
                assert (c1, o1) == (c2, o2), argv
