import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stripfol
from stripfol.core import Orientation, build_surface, glue, strip
from stripfol.decomposition import (
    Component,
    Mode,
    NotAChainError,
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
from stripfol.io import serialize
from stripfol.leafspace import PointKind, build_leaf_space

from fixtures import (
    cylinder,
    horseshoe,
    kaplan5,
    kaplan5_mirror,
    moebius,
    open_strip,
    two_strip_chain,
)
from _gen import (
    comb_surface,
    components,
    connected_surface,
    cyclic_cover,
    disjoint_union,
    enumerate_cycle_surfaces,
    h_flip,
    random_moves,
    random_surface,
    relabel_strips,
    ring_surface,
    v_flip,
)
from _oracles import (
    ArcType,
    _merge_edges,
    arc_component_types,
    automorphism_count,
    branch_and_bound_code,
    check_cycle_components_reference,
    decompose_by_member_search,
    exhaustive_isomorphic,
    leafspace_invariants,
    least_root_walks,
    orientability_by_propagation,
    unpruned_rooted_code,
)

P, R = Orientation.PRESERVING, Orientation.REVERSING


def test_kaplan5_decomposes_into_five_open_strips():
    k = kaplan5()
    comps, cut = decompose(k, Mode.WITH_BOUNDARY)
    assert sorted(p.id for p in cut) == ["alpha", "beta", "delta", "gamma"]
    assert len(comps) == 5
    assert all(c.shape is Shape.CHAIN for c in comps)
    assert all(classify_component(c) is StripClass.OPEN_STRIP for c in comps)
    assert check_cycle_components(k, comps).ok  # vacuous: no cycle components


def test_cylinder_and_moebius_classification():
    for fixture, expected in ((cylinder(), StripClass.CYLINDER), (moebius(), StripClass.MOEBIUS)):
        for mode in Mode:
            comps, cut = decompose(fixture, mode)
            assert cut == ()
            (c,) = comps
            assert c.shape is Shape.CYCLE
            assert classify_component(c) is expected
            assert check_cycle_components(fixture, comps).ok


def test_two_cells_moebius_from_same_side_gluings():
    s = build_surface(
        [strip("P", ["P.l"], ["P.u"]), strip("Q", ["Q.l"], ["Q.u"])],
        [
            glue("top", "P.u", "Q.u", Orientation.REVERSING),
            glue("bot", "P.l", "Q.l", Orientation.PRESERVING),
        ],
    )
    comps, _ = decompose(s, Mode.WITH_BOUNDARY)
    (c,) = comps
    assert c.shape is Shape.CYCLE
    assert classify_component(c) is StripClass.MOEBIUS


def test_nonspecial_seam_is_not_cut():
    comps, cut = decompose(two_strip_chain(), Mode.WITH_BOUNDARY)
    assert {p.id for p in cut} == {"P.l0", "Q.u0"}
    (c,) = comps
    assert c.shape is Shape.CHAIN
    assert c.strip_ids() == ("P", "Q")
    assert c.interfaces == ("seam",)


def test_pure_seam_chain_has_empty_cut():
    s = build_surface(
        [strip("P", upper=["P.m"]), strip("Q", lower=["Q.m"])],
        [glue("seam", "P.m", "Q.m")],
    )
    comps, cut = decompose(s, Mode.WITH_BOUNDARY)
    assert cut == ()
    (c,) = comps
    assert c.shape is Shape.CHAIN and len(c.strips) == 2


def test_interior_mode_retains_boundary_leaves():
    s = build_surface([strip("A", lower=["A.l0"], upper=["A.u0"])], [])
    comps, cut = decompose(s, Mode.INTERIOR)
    assert cut == ()
    (c,) = comps
    assert classify_component(c) is StripClass.CLOSED_STRIP
    assert c.retained_lower == "A.l0" and c.retained_upper == "A.u0"

    comps, cut = decompose(s, Mode.WITH_BOUNDARY)
    (c,) = comps
    assert classify_component(c) is StripClass.OPEN_STRIP
    assert {p.id for p in cut} == {"A.l0", "A.u0"}


def test_kaplan5_component_closures():
    comps, _ = decompose(kaplan5(), Mode.WITH_BOUNDARY)
    by_strip = {c.strip_ids()[0]: c for c in comps}
    expected = {
        "A": ["alpha"],
        "B": ["alpha", "beta"],
        "C": ["beta", "gamma"],
        "D": ["gamma", "delta"],
        "E": ["delta"],
    }
    for sid, want in expected.items():
        lower, upper, overlap = component_closures(by_strip[sid])
        assert [p.id for p in lower.base_points] == []
        assert [p.id for p in upper.base_points] == want
        assert overlap == ()


def test_open_strip_closures_empty():
    comps, _ = decompose(open_strip(), Mode.WITH_BOUNDARY)
    lower, upper, overlap = component_closures(comps[0])
    assert lower.base_points == () and upper.base_points == ()
    assert overlap == ()


def test_horseshoe_overlap():
    comps, cut = decompose(horseshoe(), Mode.WITH_BOUNDARY)
    assert sorted(p.id for p in cut) == ["P.l1", "z"]
    (c,) = comps
    assert c.strip_ids() == ("P", "R")
    lower, upper, overlap = component_closures(c)
    assert [p.id for p in lower.base_points] == ["z", "P.l1"]
    assert [p.id for p in upper.base_points] == ["z"]
    assert {p.id for p in overlap} == {"z"}


def _in_point_order(points, ls) -> bool:
    rank = {p.id: i for i, p in enumerate(ls.points)}
    return all(rank[a.id] < rank[b.id] for a, b in zip(points, points[1:]))


def _two_leaf_horseshoe():
    """The horseshoe with two leaves, z0 and z1, bordering both extremes."""
    return build_surface(
        [strip("P", lower=["P.l0", "P.l1", "P.l2"], upper=["P.m"]), strip("R", lower=["R.m"], upper=["R.u0", "R.u1"])],
        [glue("m", "P.m", "R.m"), glue("z0", "P.l0", "R.u0"), glue("z1", "P.l1", "R.u1")],
    )


def test_cut_and_overlap_come_in_a_fixed_order():
    # the cut in the leaf space's point order, the overlap in its lower side's
    # interval order: tuples, not sets, which iterate in an order that follows
    # the addresses of the PointKind members the points hash
    rng = random.Random(31)
    corpus = [kaplan5(), horseshoe(), _two_leaf_horseshoe(), two_strip_chain(), cylinder()]
    corpus += [random_surface(rng, max_strips=6, max_intervals=3) for _ in range(150)]
    for s in corpus:
        ls = build_leaf_space(s)
        for mode in Mode:
            comps, cut = decompose(s, mode, ls)
            boundary_cut = mode is Mode.WITH_BOUNDARY
            assert type(cut) is tuple
            assert cut == tuple(p for p in ls.points if p.special or (boundary_cut and p.kind is PointKind.BOUNDARY_LEAF))
            for comp in comps:
                if comp.shape is Shape.CHAIN:
                    lower, upper, overlap = component_closures(comp)
                    assert type(overlap) is tuple
                    assert overlap == tuple(p for p in lower.base_points if p in upper.base_points)
    # the same order in every process, the hash seed fixed
    code = (
        "import sys\n"
        "from stripfol.decomposition import component_closures, decompose\n"
        "from stripfol.io import parse\n"
        "[c], cut = decompose(parse(sys.argv[1]))\n"
        "print([p.id for p in cut], [p.id for p in component_closures(c)[2]])\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(Path(stripfol.__file__).parents[1])}
    doc = serialize(_two_leaf_horseshoe())
    outs = {
        subprocess.run([sys.executable, "-c", code, doc], env=env, capture_output=True, text=True, check=True).stdout
        for _ in range(4)
    }
    assert outs == {"['z0', 'z1', 'P.l2'] ['z0', 'z1']\n"}


def test_decompose_is_union_of_piece_decompositions():
    rng = random.Random(25)
    split = 0
    for _ in range(150):
        s = random_surface(rng, max_strips=8, max_intervals=3, p_glue=0.5, connected=False)
        pieces = components(s)
        split += len(pieces) > 1
        order = {sid: i for i, sid in enumerate(s.strip_ids())}
        for mode in Mode:
            comps, cut = decompose(s, mode)
            per_piece = [decompose(piece, mode) for piece in pieces]
            # the components of all pieces, in order of their first strip
            want = sorted(
                (c for piece_comps, _ in per_piece for c in piece_comps),
                key=lambda c: min(order[sid] for sid in c.strip_ids()),
            )
            assert comps == want
            assert set(cut) == set().union(*(piece_cut for _, piece_cut in per_piece))
            assert _in_point_order(cut, build_leaf_space(s))
    assert split > 50


def test_closures_reject_cycles():
    comps, _ = decompose(cylinder(), Mode.WITH_BOUNDARY)
    with pytest.raises(NotAChainError):
        component_closures(comps[0])


def test_partition_and_shape_properties():
    rng = random.Random(21)
    for _ in range(120):
        s = random_surface(rng, max_strips=6, max_intervals=3)
        ls = build_leaf_space(s)
        for mode in Mode:
            comps, cut = decompose(s, mode, ls)
            covered = [sid for c in comps for sid in c.strip_ids()]
            assert sorted(covered) == sorted(s.strip_ids())
            # every point is cut, an interface, or a retained boundary leaf
            roles = {p.id: "cut" for p in cut}
            for c in comps:
                for gid in c.interfaces:
                    assert gid not in roles
                    roles[gid] = "interface"
                for r in (c.retained_lower, c.retained_upper):
                    if r is not None:
                        assert r not in roles
                        roles[r] = "retained"
            assert sorted(roles) == sorted(p.id for p in ls.points)
            # merge graph degree <= 2: components are paths or cycles
            for c in comps:
                n = len(c.strips)
                want = n if c.shape is Shape.CYCLE else n - 1
                assert len(c.interfaces) == want


def test_mode_restricts_classification():
    rng = random.Random(22)
    seen_interior = set()
    for i in range(200):
        s = random_surface(
            rng, max_strips=5, max_intervals=2, p_glue=0.4 if i % 2 else 0.8
        )
        comps_wb, _ = decompose(s, Mode.WITH_BOUNDARY)
        for c in comps_wb:
            assert classify_component(c) in {
                StripClass.OPEN_STRIP,
                StripClass.CYLINDER,
                StripClass.MOEBIUS,
            }
        comps_int, _ = decompose(s, Mode.INTERIOR)
        for c in comps_int:
            seen_interior.add(classify_component(c))
    assert StripClass.OPEN_STRIP in seen_interior
    assert StripClass.HALF_CLOSED_STRIP in seen_interior
    assert StripClass.CLOSED_STRIP in seen_interior


def test_interior_decompose_matches_arc_component_types():
    # the oracle walks the leaf space minus its special points arc by arc
    rng = random.Random(23)
    type_of = {
        StripClass.OPEN_STRIP: ArcType.OPEN_INTERVAL,
        StripClass.HALF_CLOSED_STRIP: ArcType.HALF_CLOSED,
        StripClass.CLOSED_STRIP: ArcType.CLOSED,
        StripClass.CYLINDER: ArcType.CIRCLE,
        StripClass.MOEBIUS: ArcType.CIRCLE,
    }
    split = 0
    for i in range(300):
        if i % 2:
            s = random_surface(rng, max_strips=8, max_intervals=3, p_glue=0.4, connected=False)
            split += len(s._partition) > 1
        else:
            s = random_surface(rng, max_strips=6, max_intervals=3)
        ls = build_leaf_space(s)
        comps, _ = decompose(s, Mode.INTERIOR, ls)
        got = sorted(
            (
                sorted(c.strip_ids()),
                sorted(c.interfaces),
                sorted(r for r in (c.retained_lower, c.retained_upper) if r is not None),
                type_of[classify_component(c)].value,
            )
            for c in comps
        )
        want = sorted(
            (sorted(comp.arcs), sorted(comp.joints), sorted(comp.end_points), kind.value)
            for comp, kind in arc_component_types(ls)
        )
        assert got == want
    assert split > 60


@pytest.mark.parametrize("mode", list(Mode))
def test_one_walk_decompose_equals_member_search(mode):
    # the oracle collects each component's members first and walks the chain
    # from its extreme of least strip order
    rng = random.Random(31)
    surfaces = [kaplan5(), kaplan5_mirror(), horseshoe(), two_strip_chain(), open_strip()]
    surfaces += enumerate_cycle_surfaces(3)  # cylinders and Moebius bands of 1-3 strips
    surfaces += [ring_surface(7, (P, R, P)), ring_surface(4, (P,), width=2)]
    for i in range(400):
        # one interval a side and a high gluing rate make long chains and cycles
        width = 1 if i % 3 == 0 else 3
        surfaces.append(random_surface(rng, max_strips=8, max_intervals=width, p_glue=0.9, connected=i % 2 == 0))
    surfaces.append(disjoint_union(ring_surface(3, (R,)), random_surface(rng, max_strips=6), ring_surface(2, prefix="t")))
    surfaces.append(connected_surface(rng, 700))
    seen = {"chains": 0, "cycles": 0, "split": 0}
    for s in surfaces:
        comps, cut = decompose(s, mode)
        want_comps, want_cut = decompose_by_member_search(s, mode)
        assert comps == want_comps and set(cut) == want_cut
        assert _in_point_order(cut, build_leaf_space(s))
        assert all(type(c) is Component for c in comps)
        seen["chains"] += sum(c.shape is Shape.CHAIN and len(c.strips) > 1 for c in comps)
        seen["cycles"] += sum(c.shape is Shape.CYCLE for c in comps)
        seen["split"] += len(s._partition) > 1
    assert min(seen.values()) > 50, seen


def test_cycle_never_coexists():
    rng = random.Random(24)
    for _ in range(200):
        s = random_surface(rng, max_strips=3, max_intervals=2)
        comps, _ = decompose(s, Mode.WITH_BOUNDARY)
        assert check_cycle_components(s, comps).ok


@pytest.mark.parametrize(
    "make", [lambda: ring_surface(1), lambda: ring_surface(5), lambda: ring_surface(4, (P, R)), cylinder, moebius]
)
def test_decompose_cli_builds_one_leaf_space_for_a_cycle(make, tmp_path, monkeypatch, capsys):
    import sys

    from stripfol import cli, leafspace
    from stripfol.io import serialize

    path = tmp_path / "cycle.json"
    path.write_text(serialize(make()))
    calls = []
    build = leafspace.build_leaf_space

    def counted(surface):
        calls.append(None)
        return build(surface)

    for name, module in list(sys.modules.items()):
        if name.startswith("stripfol") and getattr(module, "build_leaf_space", None) is build:
            monkeypatch.setattr(module, "build_leaf_space", counted)
    assert cli.main(["decompose", str(path)]) == 0
    assert '"cycle_check_ok": true' in capsys.readouterr().out
    assert len(calls) == 1


def _whole_cycle(surface, sign=1):
    """A cycle component through every strip of ``surface``, built by hand."""
    strips = tuple([(sid, False) for sid in surface.strip_ids()])
    return Component(Shape.CYCLE, strips, (), Mode.WITH_BOUNDARY, monodromy=sign)


def test_cycle_check_violations_match_the_leaf_space_version():
    ring = ring_surface(3)
    (ring_cycle,), _ = decompose(ring)
    (chain,), _ = decompose(open_strip())
    cases = [
        (ring, [ring_cycle, chain]),  # coexists
        (disjoint_union(ring, ring_surface(2, prefix="q")), [ring_cycle]),  # does not exhaust
        (ring_surface(3, width=2), [_whole_cycle(ring_surface(3, width=2))]),  # special glued leaves
        (comb_surface(2), [_whole_cycle(comb_surface(2))]),  # boundary leaves
        (horseshoe(), [_whole_cycle(horseshoe()), ring_cycle]),  # all three
    ]
    rng = random.Random(134)
    for _ in range(200):
        s = random_surface(rng, max_strips=4, max_intervals=3, connected=rng.random() < 0.8)
        comps, _ = decompose(s)
        cases += [(s, comps), (s, [_whole_cycle(s, -1)]), (s, [_whole_cycle(s), *comps])]
    for surface, comps in cases:
        assert check_cycle_components(surface, comps) == check_cycle_components_reference(surface, comps)
    assert check_cycle_components(*cases[0]).violations == (
        "cycle through ('r0', 'r1', 'r2') coexists with other components",
    )
    assert check_cycle_components(*cases[1]).violations == ("cycle component does not exhaust the surface",)
    assert check_cycle_components(*cases[2]).violations == tuple(
        [f"cycle surface carries cut leaf {gid!r}" for gid in ("rg0.0", "rg0.1", "rg1.0", "rg1.1", "rg2.0", "rg2.1")]
    )
    assert check_cycle_components(*cases[3]).violations == tuple(
        [f"cycle surface carries cut leaf {iid!r}" for iid in ("S.l0", "S.l1", "S.u0", "S.u1")]
    )
    assert [v for v in check_cycle_components(*cases[4]).violations if "cut leaf" not in v] == [
        "cycle through ('P', 'R') coexists with other components",
        "cycle through ('r0', 'r1', 'r2') coexists with other components",
        "cycle component does not exhaust the surface",
    ]


def test_monodromy_agrees_with_orientation_oracle():
    for s in enumerate_cycle_surfaces(3):
        comps, _ = decompose(s, Mode.WITH_BOUNDARY)
        (c,) = comps
        assert c.shape is Shape.CYCLE
        orientable = orientability_by_propagation(s)
        assert (classify_component(c) is StripClass.CYLINDER) == orientable


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_merges_chain():
    merged = canonicalize(two_strip_chain())
    assert len(merged.strips) == 1
    (s,) = merged.strips
    assert [iv.id for iv in s.lower] == ["P.l0"]
    assert [iv.id for iv in s.upper] == ["Q.u0"]
    assert merged.gluings == ()


def test_canonicalize_merged_id_avoids_existing_ids():
    # the chain P, Q merges into a strip named "P+Q" unless that id is taken
    for taken_by in ("interval", "gluing"):
        upper = ["P+Q" if taken_by == "interval" else "Q.u0", "Q.u1"]
        gid = "P+Q" if taken_by == "gluing" else "seam"
        s = build_surface(
            [strip("P", upper=["P.u0"]), strip("Q", ["Q.l0"], upper), strip("R", ["R.l0"])],
            [glue(gid, "P.u0", "Q.l0"), glue("top", upper[0], "R.l0")],
        )
        merged = canonicalize(s)
        assert merged.strip_ids() == ("P+Q+", "R")
        assert is_isomorphic(s, merged)


def test_canonicalize_identity_on_canonical_surfaces():
    k = kaplan5()
    assert canonicalize(k) == k
    assert canonicalize(open_strip()) == open_strip()
    assert canonicalize(cylinder()) == cylinder()


def test_canonicalize_idempotent_and_leafspace_invariant():
    rng = random.Random(31)
    for _ in range(80):
        s = random_surface(rng, max_strips=5, max_intervals=3)
        comps, _ = decompose(s, Mode.INTERIOR)
        if any(c.shape is Shape.CYCLE for c in comps):
            assert canonicalize(s) == s
            continue
        c1 = canonicalize(s)
        assert canonicalize(c1) == c1
        assert leafspace_invariants(build_leaf_space(s)) == leafspace_invariants(
            build_leaf_space(c1)
        )


def test_canonicalize_reversing_seam_keeps_class():
    # a reversing seam horizontally flips the far strip when merging
    s = build_surface(
        [
            strip("P", lower=["P.a", "P.b"], upper=["P.m"]),
            strip("Q", lower=["Q.m"], upper=["Q.c", "Q.d"]),
            strip("W", lower=["W.a", "W.b"], upper=["W.c", "W.d"]),
        ],
        [
            glue("seam", "P.m", "Q.m", Orientation.REVERSING),
            glue("g1", "P.a", "W.a"),
            glue("g2", "P.b", "W.b"),
            glue("g3", "Q.c", "W.c"),
            glue("g4", "Q.d", "W.d"),
        ],
    )
    merged = canonicalize(s)
    assert len(merged.strips) == 2
    assert is_isomorphic(s, merged)
    m = next(st for st in merged.strips if "+" in st.id)
    assert [iv.id for iv in m.upper] == ["Q.d", "Q.c"]  # reversed by the seam
    flags = {g.id: g.orientation for g in merged.gluings}
    assert flags["g3"] is Orientation.REVERSING
    assert flags["g4"] is Orientation.REVERSING
    assert flags["g1"] is Orientation.PRESERVING


# ---------------------------------------------------------------------------
# canonical codes and isomorphism


def test_code_equal_under_mirror():
    assert canonical_code(kaplan5()) == canonical_code(kaplan5_mirror())


def test_code_differs_for_different_chain_lengths():
    k4 = build_surface(
        [
            strip("A", upper=["A.u0"]),
            strip("B", upper=["B.u0", "B.u1"]),
            strip("C", upper=["C.u0", "C.u1"]),
            strip("D", upper=["D.u0"]),
        ],
        [
            glue("a", "A.u0", "B.u0"),
            glue("b", "B.u1", "C.u0"),
            glue("c", "C.u1", "D.u0"),
        ],
    )
    assert canonical_code(kaplan5()) != canonical_code(k4)


def test_code_separates_cylinder_from_moebius():
    assert canonical_code(cylinder()) != canonical_code(moebius())
    # exhausting all four flip combinations never changes either verdict
    for s, expected in ((cylinder(), 1), (moebius(), -1)):
        variants = [s, h_flip(s, "A"), v_flip(s, "A"), v_flip(h_flip(s, "A"), "A")]
        codes = {canonical_code(v) for v in variants}
        assert len(codes) == 1
        for v in variants:
            comps, _ = decompose(v, Mode.WITH_BOUNDARY)
            assert comps[0].monodromy == expected


def test_code_invariant_under_move_sequences():
    rng = random.Random(41)
    for fixture in (kaplan5(), cylinder(), moebius(), horseshoe(), two_strip_chain()):
        base = canonical_code(canonicalize(fixture))
        for _ in range(25):
            moved = random_moves(rng, fixture, rng.randint(1, 8))
            assert canonical_code(canonicalize(moved)) == base


def test_is_isomorphic_examples():
    k = kaplan5()
    cyclic = relabel_strips(k, {"A": "Z1", "B": "Z2", "C": "Z3", "D": "Z4", "E": "Z5"})
    assert is_isomorphic(k, cyclic)
    assert is_isomorphic(k, kaplan5_mirror())
    assert not is_isomorphic(k, cylinder())

    up = build_surface([strip("A", upper=["A.u0", "A.u1"])], [])
    down = build_surface([strip("A", lower=["A.l0", "A.l1"])], [])
    assert is_isomorphic(up, down)  # vertical flip

    chain = two_strip_chain()
    single = build_surface([strip("S", lower=["s.l0"], upper=["s.u0"])], [])
    assert is_isomorphic(chain, single)


def test_is_isomorphic_reflexive_symmetric():
    rng = random.Random(42)
    surfaces = [random_surface(rng, max_strips=4, max_intervals=3) for _ in range(12)]
    for a in surfaces:
        assert is_isomorphic(a, a)
    for a in surfaces:
        for b in surfaces:
            assert is_isomorphic(a, b) == is_isomorphic(b, a)


def _kaplan5_split(seam_flag, c2_upper, beta_flag, gamma_flag):
    # kaplan5 with strip C cut along one interior leaf into C1 below, C2 above
    return build_surface(
        [
            strip("A", upper=["A.u0"]),
            strip("B", upper=["B.u0", "B.u1"]),
            strip("C1", upper=["C1.seam"]),
            strip("C2", lower=["C2.seam"], upper=c2_upper),
            strip("D", upper=["D.u0", "D.u1"]),
            strip("E", upper=["E.u0"]),
        ],
        [
            glue("alpha", "A.u0", "B.u0"),
            glue("beta", "B.u1", "C.u0", beta_flag),
            glue("gamma", "C.u1", "D.u0", gamma_flag),
            glue("delta", "D.u1", "E.u0"),
            glue("seam", "C1.seam", "C2.seam", seam_flag),
        ],
    )


def test_splitting_a_strip_along_a_leaf_is_invisible():
    P, R = Orientation.PRESERVING, Orientation.REVERSING
    k = kaplan5()
    assert is_isomorphic(k, _kaplan5_split(P, ["C.u0", "C.u1"], P, P))
    # a reversing cut re-enters as a horizontal flip of the upper piece
    assert is_isomorphic(k, _kaplan5_split(R, ["C.u1", "C.u0"], R, R))
    assert is_isomorphic(k, _kaplan5_split(R, ["C.u0", "C.u1"], P, P))


def test_flag_gauge_freedom():
    from itertools import product

    flavors = (Orientation.PRESERVING, Orientation.REVERSING)

    # flipping a sole-interval strip toggles its seams and nothing else, so
    # flags on a chain of sole-interval strips are pure gauge
    strips5 = (
        [strip("s0", upper=["s0.u"])]
        + [strip(f"s{i}", [f"s{i}.l"], [f"s{i}.u"]) for i in (1, 2, 3)]
        + [strip("s4", lower=["s4.l"])]
    )

    def chain(flags):
        return build_surface(
            strips5,
            [glue(f"g{i}", f"s{i}.u", f"s{i+1}.l", f) for i, f in enumerate(flags)],
        )

    base = chain([Orientation.PRESERVING] * 4)
    for flags in product(flavors, repeat=4):
        assert is_isomorphic(base, chain(list(flags)))

    # on kaplan5 a flip of B/C/D also reverses its two-interval side, so only
    # the seams at the sole-interval strips A and E are gauge; the canonical
    # code must agree with the exhaustive search on every variant
    from _oracles import exhaustive_isomorphic

    k = kaplan5()
    for flags in product(flavors, repeat=4):
        v = build_surface(
            k.strips,
            [glue(g.id, g.first, g.second, f) for g, f in zip(k.gluings, flags)],
        )
        lib = is_isomorphic(k, v)
        assert lib == exhaustive_isomorphic(canonicalize(k), canonicalize(v))
        free = (flags[1], flags[2]) == (
            Orientation.PRESERVING,
            Orientation.PRESERVING,
        )
        assert lib == free


def test_symmetric_chains_and_cycles_code_quickly():
    import time

    for n in (10, 200):
        strips = [strip(f"s{i}", [f"s{i}.l"], [f"s{i}.u"]) for i in range(n)]
        gl = [glue(f"g{i}", f"s{i}.u", f"s{i+1}.l") for i in range(n - 1)]
        cycle = build_surface(strips, gl + [glue("gw", f"s{n-1}.u", "s0.l")])
        t0 = time.time()
        canonical_code(cycle)
        assert time.time() - t0 < 5.0, n


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring_surface(5000),
        lambda: ring_surface(5000, (P, R)),
        lambda: ring_surface(1000, width=2),
        lambda: disjoint_union(*(ring_surface(500, prefix=f"c{j}.") for j in range(10))),
    ],
    ids=["ring5000", "alternating-ring5000", "double-ring1000", "ten-rings500"],
)
def test_symmetric_surfaces_code_in_under_two_seconds(build):
    import time

    s = build()
    t0 = time.perf_counter()
    canonical_code(s)
    assert time.perf_counter() - t0 < 2.0


def _defect_ring(n, period, flags=(P,)):
    """A ring with an extra boundary interval on every ``period``-th lower side."""
    ring = ring_surface(n, flags)
    strips = [
        strip(s.id, [f"{s.id}.l0", f"{s.id}.x"], [f"{s.id}.u0"]) if i % period == 0 else s
        for i, s in enumerate(ring.strips)
    ]
    return build_surface(strips, ring.gluings)


def _ring_family(rng):
    """Rings with mixed seam flags, periodic defects, moved copies and unions."""
    out = []
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        for flags in ((P,), (R,), (P, R), (R, R, P)):
            for width in (1, 2):
                out.append(ring_surface(n, flags, width))
            out += [_defect_ring(n, period, flags) for period in (2, 3, 4, n) if n % period == 0]
    out += [random_moves(rng, s, 6) for s in out[::3]]
    out.append(disjoint_union(ring_surface(6), ring_surface(6, prefix="q"), ring_surface(6, (R,), prefix="z")))
    out.append(disjoint_union(ring_surface(4, width=2), ring_surface(5, (P, R), 2, "q")))
    out.append(disjoint_union(*(ring_surface(7, prefix=f"c{j}.") for j in range(4))))
    return out


def test_pruned_code_equals_unpruned_walk():
    # early abandon and orbit pruning skip only walks that cannot be least,
    # so the bytes equal the least walk over every least-length root
    rng = random.Random(46)
    surfaces = [
        random_surface(rng, max_strips=8, max_intervals=rng.choice((1, 2, 3)), connected=i % 2 == 0)
        for i in range(1000)
    ]
    surfaces += _ring_family(rng)
    surfaces += [
        random_moves(rng, cyclic_cover(rng, random_surface(rng, max_strips=4), rng.choice((2, 3, 4))), 4)
        for _ in range(200)
    ]
    for s in surfaces:
        assert canonical_code(s) == unpruned_rooted_code(s)
    assert sum(len(s._partition) > 1 for s in surfaces) > 200


def test_tied_roots_count_automorphisms():
    # an automorphism of a connected piece is fixed by where it sends one
    # root, so the roots whose walk ties the least walk are the images of
    # the best root, one per automorphism, flips included
    rng = random.Random(47)
    pieces = enumerate_cycle_surfaces(3)
    pieces += [ring_surface(n, flags, 2) for n in (1, 2, 3, 4) for flags in ((P,), (R,), (P, R))]
    pieces += [random_surface(rng, max_strips=4, max_intervals=2) for _ in range(80)]
    covers = [cyclic_cover(rng, random_surface(rng, max_strips=2, max_intervals=2), 2) for _ in range(12)]
    pieces += [piece for cover in covers for piece in components(cover)]
    counts = []
    for piece in pieces:
        walks = least_root_walks(piece)
        least = min(walks.values())
        tied = sum(rows == least for rows in walks.values())
        counts.append(automorphism_count(piece))
        assert tied == counts[-1]
    assert len(set(counts)) > 3


def _flip_one_seam(rng, s):
    gl = list(s.gluings)
    k = rng.randrange(len(gl))
    gl[k] = glue(gl[k].id, gl[k].first, gl[k].second, gl[k].orientation.flipped)
    return build_surface(s.strips, gl)


def test_code_equality_agrees_with_branch_and_bound_search():
    # the rooted traversal decides the same classes as the exponential
    # search it replaced, on pairs, moved copies and one-seam near misses
    rng = random.Random(44)
    checks = 0
    for _ in range(120):
        a = canonicalize(random_surface(rng, max_strips=5, max_intervals=3))
        b = canonicalize(random_surface(rng, max_strips=5, max_intervals=3))
        others = [b, canonicalize(random_moves(rng, a, 6))]
        if a.gluings:
            others.append(_flip_one_seam(rng, a))
        for other in others:
            same = canonical_code(a) == canonical_code(other)
            assert same == (branch_and_bound_code(a) == branch_and_bound_code(other))
            checks += 1
    assert checks > 300


def test_disjoint_union_code_ignores_piece_order():
    x = build_surface(
        [strip("A", upper=["a0", "a1"]), strip("B", lower=["b0"])],
        [glue("x", "a0", "b0", Orientation.REVERSING)],
    )
    y = build_surface([strip("C", ["c.l"], ["c.u"])], [glue("y", "c.l", "c.u")])
    xy = build_surface(x.strips + y.strips, x.gluings + y.gluings)
    yx = build_surface(y.strips + x.strips, y.gluings + x.gluings)
    assert canonical_code(xy) == canonical_code(yx)
    assert canonical_code(xy) != canonical_code(x)
    rng = random.Random(45)
    for _ in range(20):
        s = random_surface(rng, max_strips=6, connected=False)
        flipped = build_surface(tuple(reversed(s.strips)), tuple(reversed(s.gluings)))
        assert canonical_code(random_moves(rng, flipped, 4)) == canonical_code(s)


def test_is_isomorphic_agrees_with_exhaustive_search():
    rng = random.Random(43)
    for i in range(40):
        a = random_surface(rng, max_strips=4, max_intervals=3)
        b = random_surface(rng, max_strips=4, max_intervals=3)
        ca, cb = canonicalize(a), canonicalize(b)
        assert is_isomorphic(a, b) == exhaustive_isomorphic(ca, cb)
        scrambled = random_moves(rng, a, 5)
        assert is_isomorphic(a, scrambled)
        assert exhaustive_isomorphic(ca, canonicalize(scrambled))


def _code_verdict(a, b):
    return canonical_code(canonicalize(a)) == canonical_code(canonicalize(b))


def _with_extra_interval(s, sid, side=0, iid=None):
    """``s`` with one more unglued interval (``sid.extra`` unless ``iid`` is
    given) at the end of side 0 (lower) or 1 (upper) of strip ``sid``."""
    strips = []
    for st in s.strips:
        if st.id == sid:
            sides = [[iv.id for iv in st.lower], [iv.id for iv in st.upper]]
            sides[side].append(iid or f"{sid}.extra")
            st = strip(sid, *sides)
        strips.append(st)
    return build_surface(strips, s.gluings)


def _with_extra_boundary(s):
    """``s`` with one more unglued interval on its first strip's lower side."""
    return _with_extra_interval(s, s.strips[0].id)


def _free_sides(s):
    """(strip, side 0/1) of each side that carries no gluing: an interval added
    there, or moved between two of them, leaves every seam as it was."""
    glued = s._gluing_by_interval
    return [(st.id, k) for st in s.strips for k, ivs in enumerate((st.lower, st.upper)) if not any(iv.id in glued for iv in ivs)]


def _reject_pairs(s):
    """Near misses of ``s`` that the reject invariants tell apart before any
    walk: one more unglued interval on a free side, and that interval on
    another free side instead."""
    free = _free_sides(s)
    if not free:
        return []
    extra = _with_extra_interval(s, *free[0], "extra")
    return [(s, extra)] + [(extra, _with_extra_interval(s, *end, "extra")) for end in free[1:2]]


def _kaplan5_reject_pairs():
    # kaplan5's side-length pairs are (0, 1), (0, 2), (0, 2), (0, 2), (0, 1)
    # and its lower sides are free: an interval on C's lower side makes one
    # boundary leaf more and C's pair (1, 2); moved to A's it makes A's (1, 1)
    k = kaplan5()
    on_c, on_a = _with_extra_interval(k, "C", 0, "x"), _with_extra_interval(k, "A", 0, "x")
    return [(k, on_c), (on_c, on_a)]


def test_is_isomorphic_is_code_equality():
    # the verdict is the equality of the two canonical codes, in both
    # argument orders, on near misses as well as on moved copies
    rng = random.Random(48)
    pairs = []
    for _ in range(60):
        a = random_surface(rng, max_strips=6, max_intervals=3)
        pairs += [(a, random_moves(rng, a, 5)), (a, _with_extra_boundary(a)), *_reject_pairs(a)]
        pairs.append((a, random_surface(rng, max_strips=6, max_intervals=3)))
        if a.gluings:
            pairs.append((a, _flip_one_seam(rng, a)))
    for n in (2, 3, 4, 5, 6):
        # equal strip counts, often unequal least side lengths
        pairs += [(connected_surface(rng, n, 2), connected_surface(rng, n, 2)) for _ in range(8)]
    covers = []
    while len(covers) < 40:
        base, m = random_surface(rng, max_strips=3, max_intervals=2), rng.choice((2, 3))
        c1, c2 = cyclic_cover(rng, base, m), cyclic_cover(rng, base, m)
        if len(c1._partition) == len(c2._partition) == 1:
            covers += [(c1, c2), (c1, random_moves(rng, c2, 4))]
    pairs += covers
    for n in (1, 3, 8, 50):
        ring = ring_surface(n)
        pairs += [(ring, _flip_one_seam(rng, ring)), (ring, _defect_ring(n, n)), (ring, random_moves(rng, ring, 4))]
        pairs += [(ring, ring_surface(n + 1)), (ring, ring_surface(n, width=2)), (ring, ring_surface(n, (R,)))]
        pairs.append((_defect_ring(n, n), random_moves(rng, _defect_ring(n, n), 4)))
    empty = build_surface([], [])
    pairs += [(empty, empty), (empty, open_strip()), (empty, ring_surface(2))]
    pairs += _kaplan5_reject_pairs()
    verdicts = []
    for a, b in pairs:
        verdicts.append(_code_verdict(a, b))
        assert is_isomorphic(a, b) == verdicts[-1] == is_isomorphic(b, a)
    assert 90 < sum(verdicts) < len(pairs) - 200


def _cycle_corpus(rng):
    """Connected surfaces with and without a cycle component: rings, their
    one-seam flips and moved copies, pieces of cyclic covers, enumerated
    cycles and random surfaces."""
    rings = [ring_surface(n, flags, width) for n in range(1, 9) for flags in ((P,), (R,), (P, R)) for width in (1, 2)]
    rings += [_flip_one_seam(rng, ring) for ring in rings]
    rings += [random_moves(rng, ring, 4) for ring in rings]
    bases = rings[::5] + [random_surface(rng, max_strips=3, max_intervals=rng.choice((1, 2))) for _ in range(60)]
    covers = [piece for base in bases for piece in components(cyclic_cover(rng, base, rng.choice((2, 3))))]
    out = rings + covers + enumerate_cycle_surfaces(3)
    out += [random_surface(rng, max_strips=6, max_intervals=rng.choice((1, 2, 3))) for _ in range(150)]
    out += [connected_surface(rng, rng.randint(1, 8), rng.choice((1, 2))) for _ in range(150)]
    return out


def test_reject_invariants_survive_moves():
    # the boundary-leaf count and the side-length pairs of the canonical form
    # are read off the canonical code, so admissible moves keep them
    import stripfol.decomposition as dec

    rng = random.Random(53)
    corpus = _cycle_corpus(rng) + [connected_surface(rng, rng.randint(1, 12), 3) for _ in range(100)]
    for s in corpus:
        inv = dec._invariants(canonicalize(s))
        for _ in range(2):
            assert dec._invariants(canonicalize(random_moves(rng, s, rng.randint(1, 6)))) == inv


def _least_lengths(s):
    return min(tuple(sorted((len(st.lower), len(st.upper)))) for st in s.strips)


def _boundary_leaves(s):
    return sum(len(st.lower) + len(st.upper) for st in s.strips) - 2 * len(s.gluings)


def test_is_isomorphic_rejects_on_invariants_without_a_walk(monkeypatch):
    # a differing boundary-leaf count or multiset of side-length pairs answers
    # false before any slot table is built or root walked.  In each pair the
    # merge structure, the canonical strip count and the least side lengths
    # agree, so without the invariants both surfaces would be searched
    import stripfol.decomposition as dec

    (k, on_c), (_, on_a) = _kaplan5_reject_pairs()
    big = connected_surface(random.Random(20), 5000)
    big_t = _with_extra_interval(big, *_free_sides(big)[0])
    for s, t in ((k, on_c), (on_c, on_a), (big, big_t)):
        cs, ct = canonicalize(s), canonicalize(t)
        assert len(cs.strips) == len(ct.strips) and _least_lengths(cs) == _least_lengths(ct)
    assert _boundary_leaves(on_c) == _boundary_leaves(on_a)  # moved: only the pairs differ

    calls = []
    for name in ("_slot_table", "_rooted_rows"):
        monkeypatch.setattr(dec, name, lambda *args, f=getattr(dec, name): calls.append(f) or f(*args))
    assert not is_isomorphic(k, on_c) and not is_isomorphic(on_c, k)
    assert not is_isomorphic(on_c, on_a) and not is_isomorphic(on_a, on_c)
    assert not is_isomorphic(big, big_t)
    assert calls == []


def test_canonicalize_iso_and_render_svg_build_no_leaf_space(monkeypatch):
    # a seam merges when its intervals are alone on their sides: the merge
    # walk reads the seams off the surface, so canonicalize, is_isomorphic
    # and render_svg never build a leaf space.  A surface with nothing to
    # merge, or one whole-surface cycle (which is terminal), comes back as it
    # is: those are exactly the surfaces where decompose finds no chain of
    # two or more strips, or a cycle component
    import stripfol.decomposition as dec
    import stripfol.io as sio
    import stripfol.leafspace as lsm

    def refuse(surface):
        raise AssertionError("build_leaf_space reached")

    build = lsm.build_leaf_space
    for module in (dec, sio, lsm):
        monkeypatch.setattr(module, "build_leaf_space", refuse)
    rng = random.Random(49)
    surfaces = [
        random_surface(rng, max_strips=6, max_intervals=rng.choice((1, 2, 3)))
        if i % 2
        else connected_surface(rng, rng.randint(1, 8), rng.choice((1, 2, 3)))
        for i in range(300)
    ]
    surfaces += _cycle_corpus(random.Random(52))
    seen = {"nothing merges": 0, "chain": 0, "cycle": 0}
    for s in surfaces:
        ls = build(s)
        merges = any(p.kind is PointKind.NON_SPECIAL_GLUED for p in ls.points)
        cycle = any(c.shape is Shape.CYCLE for c in decompose(s, Mode.INTERIOR, ls)[0])
        out = canonicalize(s)
        assert (out is s) == (cycle or not merges)
        assert is_isomorphic(s, out)
        sio.render_svg(s)
        seen["cycle" if cycle else "chain" if merges else "nothing merges"] += 1
    assert min(seen.values()) > 200, seen


def test_merge_seams_equal_the_leaf_space_merge_edges():
    # the merging seams read off the surface, as a side-end map, against the
    # leaf space's non-special glued points, on surfaces that merge nothing,
    # chains, cycles and disconnected ones
    import stripfol.decomposition as dec

    def seam_map(s):
        out = {}
        for g in dec._merge_seams(s):
            a, b = s.side_end_of(g.first), s.side_end_of(g.second)
            assert a not in out and b not in out  # a side-end is consumed once
            out[a], out[b] = (g, b), (g, a)
        return out

    rng = random.Random(54)
    surfaces = [
        random_surface(rng, max_strips=8, max_intervals=1 if i % 3 == 0 else 3, p_glue=0.9, connected=i % 2 == 0)
        for i in range(300)
    ]
    surfaces += [connected_surface(rng, rng.randint(1, 60), rng.choice((1, 2, 3))) for _ in range(100)]
    surfaces += _cycle_corpus(random.Random(55))
    surfaces += [disjoint_union(ring_surface(3, (R,)), random_surface(rng, max_strips=6), ring_surface(2, prefix="t"))]
    seen = {"nothing merges": 0, "merges": 0, "cycle": 0, "split": 0}
    for s in surfaces:
        seams = seam_map(s)
        assert seams == _merge_edges(build_leaf_space(s))
        cycle = len(seams) == 2 * len(s.strips)
        seen["cycle" if cycle else "merges" if seams else "nothing merges"] += 1
        seen["split"] += len(s._partition) > 1
    assert min(seen.values()) > 50, seen


def test_is_isomorphic_runs_one_canonical_search(monkeypatch):
    # only the first surface's code is searched for; on a ring the first
    # walk of the second surface ties it
    import stripfol.decomposition as dec

    walks = []  # (slot table, root) per walk
    walk = dec._rooted_rows
    monkeypatch.setattr(dec, "_rooted_rows", lambda *args: walks.append((id(args[0]), *args[1:4])) or walk(*args))
    ring = ring_surface(2000)
    canonical_code(canonicalize(ring))
    search = len(walks)
    walks.clear()
    assert is_isomorphic(ring, random_moves(random.Random(50), ring, 6))
    assert len(walks) == search + 1
    # the flipped ring's code is the larger: its bounded walks all stop
    # larger, and after as many as the ring's search made, its own search
    # over its other roots decides, instead of one walk from each of its
    # 8,000 roots; no root is walked twice
    flipped = canonicalize(_flip_one_seam(random.Random(51), ring))
    table = dec._slot_table(flipped)
    roots = dec._least_roots(table[0], flipped.strip_ids())[1]
    rest = dec._least_rows(table, roots[search:])[1]
    walks.clear()
    assert not is_isomorphic(ring, flipped)
    assert len(walks) == 2 * search + rest
    assert len(set(walks)) == len(walks)
