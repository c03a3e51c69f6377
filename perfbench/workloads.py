"""The three benchmark workloads: operations, inputs and answer keys.

An operation ("op") is one ``stripfol`` CLI call, or for ``realize`` also one
library round trip.  Each op carries its expected exit code and a check that
judges its output against answers taken from how the input was built or from
the independent oracles in ``tests/_oracles.py``, never from the code under
test.  ``build(workload, seed, out_dir)`` writes the input files and returns
the ops; the same seed gives the same files and ops.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus

# Documented exit codes of the CLI.
OK, INVALID, PARSE, USAGE = 0, 1, 2, 3

# One surface per size; the top tenth of the ops then spans the four largest
# surfaces, so one draw's structure does not set the p90.
STRUCTURE_SIZES = tuple(range(100, 701, 50))
STRUCTURE_VARIANTS = (
    ("validate",),
    ("leafspace", "--format", "json"),
    ("leafspace", "--format", "dot"),
    ("decompose", "--mode", "interior"),
    ("decompose", "--mode", "with-boundary"),
    ("render", "--format", "svg"),
    ("render", "--format", "dot"),
)
# Random canonical surfaces form a fixed pool, one per strip count from 4 to
# 23, each drawn from POOL_SEED and its size and none chosen by run time.  The
# search is exponential: one draw of 12 strips took 14 s per code and some of
# 21 strips over a minute, so a per-seed draw could break a run's time limit,
# and the cost of one size ranges over 100x between draws, which would swamp
# the seed-to-seed spread.  The seed moves, relabels and orders the copies.
# Surfaces up to FAMILY_MAX strips get every canon and iso op; the larger ones,
# the heavy tail, get canon and a profile-reject iso.
POOL_SEED = 2016
POOL_SIZES = tuple(range(4, 24))
FAMILY_MAX = 12
CLASSIFY_CHAINS = (2, 3, 4, 5, 6)
CLASSIFY_RINGS = (10, 16, 20)
REALIZE_KS = (1, 2, 3, 4, 5, 6)
# (side, --samples, --depth) of the CLI ops and of the round trip, per k.  The
# plan is fixed so that the seed moves only the comb endpoints: build and
# evaluation grow about 10x per extra base leaf and with the grid.  Only one
# side of the k=6 comb is realized by the CLI, so that k=6 stays under a tenth
# of the ops and the p90 lands inside the k=5 group, whose three ops cost
# about the same, rather than on the step between k=5 and k=6.
REALIZE_CLI = {
    1: (("lower", 16, 2), ("upper", 12, 3)),
    2: (("lower", 16, 3), ("upper", 8, 4)),
    3: (("lower", 16, 4), ("upper", 8, 2)),
    4: (("lower", 8, 2), ("upper", 4, 3)),
    5: (("lower", 4, 3), ("upper", 4, 4)),
    6: (("lower", 3, 4),),
}
REALIZE_TRIP = {1: ("upper", 8, 4), 2: ("lower", 8, 2), 3: ("upper", 4, 3), 4: ("lower", 4, 4), 5: ("upper", 4, 2), 6: ("upper", 2, 3)}
# (strip, side, --samples, --depth) on the reference surfaces
REALIZE_KAPLAN5 = (("A", "upper", 16, 2), ("B", "upper", 8, 3), ("C", "upper", 4, 4), ("D", "upper", 8, 3), ("E", "upper", 16, 2))
REALIZE_HORSESHOE = (("P", "lower", 8, 3), ("R", "upper", 12, 4))
ROUNDTRIP_TOL = 1e-9


@dataclass
class Op:
    """One operation of a workload.

    ``argv`` ops run ``stripfol.cli.main``; ``call`` ops run a library
    function.  ``check`` receives stdout (or the call's value) and returns a
    problem description, or None when the output is right.
    """

    name: str
    sub: str
    bucket: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    expect: int = OK
    check: Callable[[object], str | None] = lambda out: None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    probes: list[Op]
    sizes: dict


# ---------------------------------------------------------------------------
# output checks shared by the workloads


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def refused(kind: str | None = None, rule: str | None = None):
    """A refused op prints exactly one JSON error object on stdout.

    ``kind`` and ``rule``, when given, must match its ``error`` and ``rule``.
    """

    def check(out: str) -> str | None:
        lines = out.splitlines()
        doc = _json(lines[0]) if len(lines) == 1 else None
        if not isinstance(doc, dict) or "error" not in doc:
            return f"expected one JSON error object, got {out[:120]!r}"
        if kind is not None and (doc["error"] != kind or (rule is not None and doc.get("rule") != rule)):
            return f"expected error {kind}/{rule}, got {doc}"
        return None

    return check


def _write(out_dir: Path, name: str, doc) -> str:
    path = out_dir / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=1))
    return str(path)


# ---------------------------------------------------------------------------
# structure-large


def _structure_check(variant: tuple, doc: dict):
    strip_ids = [s["id"] for s in doc["strips"]]
    points = corpus.leaf_points(doc)
    n_special = sum(points.values())
    sub = variant[0]

    def dot_ok(out: str) -> str | None:
        if not (out.startswith("graph leafspace {\n") and out.endswith("}\n")):
            return "dot output is not one closed graph"
        if out.count("[shape=box") != len(strip_ids):
            return "dot: one box per strip expected"
        if out.count("[shape=doublecircle") != n_special:
            return "dot: special point count differs from the definition"
        return None

    def check(out: str) -> str | None:
        if sub in ("leafspace", "render") and variant[-1] == "dot":
            return dot_ok(out)
        if sub == "render":
            if not (out.startswith("<svg") and out.endswith("</svg>\n")):
                return "svg output is not one closed document"
            if out.count("<rect") != len(strip_ids) or out.count("<path") != len(doc["gluings"]):
                return "svg: one band per strip and one arc per gluing expected"
            return None
        rep = _json(out)
        if not isinstance(rep, dict):
            return "output is not one JSON object"
        if sub == "validate":
            comps = rep.get("components", [])
            if not (rep.get("ok") and rep.get("connected") and len(comps) == 1 and sorted(comps[0]) == sorted(strip_ids)):
                return "validate: a connected valid surface expected"
            return None
        if sub == "leafspace":
            got = {p["id"]: p["special"] for p in rep.get("points", [])}
            if rep.get("arcs") != strip_ids or got != points:
                return "leafspace: arcs, points or special flags differ from the definition"
            return None
        seen = [s["id"] for c in rep.get("components", []) for s in c["strips"]]
        if sorted(seen) != sorted(strip_ids):
            return "decompose: every strip must lie in exactly one component"
        return None

    return check


def _structure(rng: random.Random, out_dir: Path, small: bool) -> Workload:
    sizes = (8, 16) if small else STRUCTURE_SIZES
    ops = []
    docs = {}
    for n in sizes:
        doc = corpus.connected_doc(rng, n)
        docs[n] = doc
        path = _write(out_dir, f"surface{n}.json", doc)
        for variant in STRUCTURE_VARIANTS:
            name = "-".join(variant[:1] + variant[2:]) + f"-n{n}"
            ops.append(Op(name, variant[0], f"n{n}", argv=[variant[0], path, *variant[1:]], check=_structure_check(variant, doc)))

    # Invalid documents the CLI must refuse with a named rule and exit code.
    base = docs[sizes[len(sizes) // 2]]
    dup = json.loads(json.dumps(base))
    dup["strips"][1]["id"] = dup["strips"][0]["id"]
    unknown = json.loads(json.dumps(base))
    unknown["gluings"][0]["a"] = "no.such.interval"
    text = json.dumps(base, indent=1)
    invalid = [
        ("duplicate-id", dup, INVALID, refused("validation", "DuplicateId")),
        ("unknown-ref", unknown, INVALID, refused("validation", "UnknownIntervalRef")),
        ("malformed-json", text[: len(text) // 2], PARSE, refused("parse")),
    ]
    for name, doc, code, check in invalid:
        path = _write(out_dir, f"{name}.json", doc)
        sub = rng.choice(STRUCTURE_VARIANTS)
        ops.append(Op(f"{name}-{sub[0]}", sub[0], "invalid", argv=[sub[0], path, *sub[1:]], expect=code, check=check))

    # Known defects: inputs that crash or are accepted today.
    probes = [
        ("strips-not-a-list", {"strips": 5}, PARSE, refused()),
        ("non-utf8", b'{"strips": [{"id": "\xff"}]}', PARSE, refused()),
    ]
    probe_ops = []
    for name, doc, code, check in probes:
        path = _write(out_dir, f"{name}.json", doc)
        probe_ops.append(Op(name, "validate", "probe", argv=["validate", path], expect=code, check=check))

    warmup = [op for op in ops if op.bucket == f"n{sizes[0]}"]
    return Workload(ops, warmup, probe_ops, {"strips": list(sizes)})


# ---------------------------------------------------------------------------
# classify


def _canon_check(codes: dict, group: str, strips: int):
    """canon prints the canonical document and then one code line.

    The document must re-parse with the expected strip count, and every
    member of ``group`` (moved copies of one surface) must get one code.
    """
    from stripfol.io import parse

    def check(out: str) -> str | None:
        body, _, last = out.rstrip("\n").rpartition("\n")
        code = (_json(last) or {}).get("code") if last.startswith("{") else None
        if not isinstance(code, str):
            return "canon: no code line"
        try:
            canon = parse(body)
        except ValueError as e:
            return f"canon: output does not re-parse: {e}"
        if len(canon.strips) != strips:
            return f"canon: {len(canon.strips)} strips, expected {strips}"
        if codes.setdefault(group, code) != code:
            return "canon: moved copies got different codes"
        return None

    return check


def _iso_check(expected: bool):
    def check(out: str) -> str | None:
        if _json(out) != {"isomorphic": expected}:
            return f"iso: expected isomorphic={expected}, got {out.strip()[:80]!r}"
        return None

    return check


def _orientable(doc: dict) -> bool:
    from stripfol.io import parse
    from _oracles import orientability_by_propagation

    return orientability_by_propagation(parse(json.dumps(doc)))


def _classify(rng: random.Random, out_dir: Path, small: bool) -> Workload:
    ops: list[Op] = []
    codes: dict = {}

    def canon(tag: str, path: str, group: str, strips: int) -> None:
        ops.append(Op(f"canon-{tag}", "canon", f"n{strips}", argv=["canon", path], check=_canon_check(codes, group, strips)))

    def iso(tag: str, a: str, b: str, same: bool, strips: int) -> None:
        ops.append(Op(f"iso-{tag}", "iso", f"n{strips}", argv=["iso", a, b], expect=OK if same else INVALID, check=_iso_check(same)))

    def family(tag: str, doc: dict, strips: int, moves: bool = True, flips: bool = True) -> None:
        """canon on a surface and a moved copy, an iso positive and the negatives that exist."""
        path = _write(out_dir, f"{tag}.json", doc)
        canon(tag, path, tag, strips)
        if moves:
            moved = _write(out_dir, f"{tag}-moved.json", corpus.moved_doc(rng, doc))
            canon(f"{tag}-moved", moved, tag, strips)
            iso(f"{tag}-moved", path, moved, True, strips)
        if flips:
            # equal profile, other class: the first seam whose flip changes orientability
            orientable = _orientable(doc)
            for i in range(len(doc["gluings"])):
                flipped = corpus.flip_seam(doc, i)
                if _orientable(flipped) != orientable:
                    iso(f"{tag}-flip", path, _write(out_dir, f"{tag}-flip.json", flipped), False, strips)
                    break
        extra = corpus.with_extra_boundary(doc)
        if extra is not None:
            iso(f"{tag}-extra", path, _write(out_dir, f"{tag}-extra.json", extra), False, strips)

    for n in (4, 6) if small else POOL_SIZES:
        doc = corpus.connected_doc(random.Random(f"{POOL_SEED}:{n}"), n, corpus.CANONICAL_SIDES, prefix="p")
        family(f"random{n}", doc, n, moves=n <= FAMILY_MAX, flips=n <= FAMILY_MAX)
    for m in (2, 3) if small else CLASSIFY_CHAINS:
        family(f"chain{m}", corpus.chain_doc(rng, m), 1, flips=False)
    for n in (4,) if small else CLASSIFY_RINGS:
        family(f"ring{n}", corpus.ring_doc(n), n)

    warmup = [op for op in ops if op.bucket == "n4"]
    return Workload(ops, warmup, [], {"canonical_strips": sorted({int(op.bucket[1:]) for op in ops})})


# ---------------------------------------------------------------------------
# realize


def _side_leaves(doc: dict, strip: str, side: str) -> list[tuple[str, float, float]]:
    """Base leaves of a single-strip side: (point id, interval) in interval order."""
    gluing_of = {iid: g["id"] for g in doc["gluings"] for iid in (g["a"], g["b"])}
    rec = next(s for s in doc["strips"] if s["id"] == strip)
    out = []
    for j, iv in enumerate(rec[side]):
        lo, hi = iv.get("endpoints", (2.0 * j, 2.0 * j + 1.0))
        out.append((gluing_of.get(iv["id"], iv["id"]), float(lo), float(hi)))
    return out


def _realize_check(leaves: list, samples: int):
    """Levels preserved; base rows land, block by block, in their leaf's interval."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != "x_in,y_in,x_out,y_out,leaf_id":
            return "realize: missing CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != samples * samples + len(leaves) * (samples - 1):
            return f"realize: {len(rows)} rows for {samples} samples and {len(leaves)} leaves"
        base = 0
        for x_in, y_in, x_out, y_out, leaf in rows:
            if abs(float(y_out) - float(y_in)) > ROUNDTRIP_TOL:
                return f"realize: level {y_in} moved to {y_out}"
            if float(y_in) == -1.0:
                want, lo, hi = leaves[base // (samples - 1)]
                if leaf != want or not lo < float(x_out) < hi:
                    return f"realize: base point {x_in} landed at {x_out} ({leaf}), expected inside {want}"
                base += 1
        return None

    return check


def _roundtrip(surface, strip: str, side: str, depth: int, samples: int):
    """Library op: build eta for one half-strip closure, then apply and invert a fixed point set."""
    from stripfol import decomposition, homeo, leafspace

    def call():
        comps, _ = decomposition.decompose(surface, decomposition.Mode.WITH_BOUNDARY, leafspace.build_leaf_space(surface))
        comp = next(c for c in comps if strip in c.strip_ids())
        lower, upper, _ = decomposition.component_closures(comp)
        chart, eta = homeo.realize_half_strip(surface, comp, lower if side == "lower" else upper, depth=depth, samples=samples)
        lo = min(a for a, _, _ in chart.rectangles) - 1.0
        hi = max(b for _, b, _ in chart.rectangles) + 1.0
        points = [(lo + (hi - lo) * i / 4, y) for i in range(5) for y in (-0.75, -0.5, -0.25, 0.0)]
        points += [((a + b) / 2, -1.0) for a, b, _ in chart.rectangles]
        rows = []
        for x, y in points:
            X, Y = eta.apply(x, y)
            rows.append((x, y, X, Y, *eta.invert(X, Y)))
        return rows

    return call


def _roundtrip_check(leaves: list):
    def check(rows) -> str | None:
        err = 0.0
        for x, y, X, Y, x2, y2 in rows:
            if abs(Y - y) > ROUNDTRIP_TOL:
                return f"roundtrip: level {y} moved to {Y}"
            err = max(err, abs(x2 - x), abs(y2 - y))
        if err > ROUNDTRIP_TOL:
            return f"roundtrip: error {err:.3g} above {ROUNDTRIP_TOL}"
        base = [X for _, y, X, _, _, _ in rows if y == -1.0]
        if len(base) != len(leaves) or not all(lo < X < hi for X, (_, lo, hi) in zip(base, leaves)):
            return "roundtrip: base points left their leaf intervals"
        return None

    return check


def roundtrip_error(rows) -> float:
    return max((max(abs(x2 - x), abs(y2 - y)) for x, y, _, _, x2, y2 in rows), default=0.0)


def _realize(rng: random.Random, out_dir: Path, small: bool) -> Workload:
    from stripfol.io import parse

    ops: list[Op] = []

    def cli(tag: str, path: str, doc: dict, strip: str, side: str, samples: int, depth: int) -> None:
        leaves = _side_leaves(doc, strip, side)
        argv = ["realize", path, "--component", strip, "--side", side, "--depth", str(depth), "--samples", str(samples)]
        ops.append(Op(f"realize-{tag}{strip}-{side}-s{samples}", "realize", f"k{len(leaves)}", argv=argv, check=_realize_check(leaves, samples)))

    ks = (1, 2) if small else REALIZE_KS
    for k in ks:
        doc = corpus.comb_doc(rng, k)
        path = _write(out_dir, f"comb{k}.json", doc)
        for side, samples, depth in REALIZE_CLI[k]:
            cli(f"comb{k}", path, doc, "S", side, samples, depth)
        side, samples, depth = REALIZE_TRIP[k]
        call = _roundtrip(parse(json.dumps(doc)), "S", side, depth, samples)
        ops.append(Op(f"roundtrip-comb{k}-{side}", "roundtrip", f"k{k}", call=call, check=_roundtrip_check(_side_leaves(doc, "S", side))))

    kaplan = corpus.kaplan5_doc()
    kpath = _write(out_dir, "kaplan5.json", kaplan)
    for plan in REALIZE_KAPLAN5:
        cli("kaplan5", kpath, kaplan, *plan)
    horse = corpus.horseshoe_doc()
    hpath = _write(out_dir, "horseshoe.json", horse)
    # the horseshoe chain P-R exposes P's lower side and R's upper side
    for plan in REALIZE_HORSESHOE:
        cli("horseshoe", hpath, horse, *plan)

    # Known defects: bad requests that crash or succeed today.
    cyl = _write(out_dir, "cylinder.json", corpus.cylinder_doc())
    probes = [
        Op("cylinder-component", "realize", "probe", argv=["realize", cyl, "--component", "A"], expect=USAGE, check=refused()),
        Op("depth-0", "realize", "probe", argv=["realize", kpath, "--component", "B", "--side", "upper", "--depth", "0"], expect=USAGE, check=refused()),
        Op("samples-negative", "realize", "probe", argv=["realize", kpath, "--component", "B", "--side", "upper", "--samples", "-3"], expect=USAGE, check=refused()),
    ]
    warmup = [op for op in ops if op.bucket == "k1"]
    return Workload(ops, warmup, probes, {"k": list(ks)})


BUILDERS = {"structure-large": _structure, "classify": _classify, "realize": _realize}


def build(workload: str, seed: int, out_dir: Path, small: bool = False) -> Workload:
    """Write the inputs of one workload under ``out_dir`` and return its ops.

    ``small`` shrinks every size list for the smoke test.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    wl = BUILDERS[workload](rng, out_dir, small)
    rng.shuffle(wl.ops)
    return wl
