"""Reference surfaces used throughout the tests and the documentation."""

from __future__ import annotations

from stripfol.core import Orientation, StripedSurface, build_surface, glue, strip

from _gen import mirror


def kaplan5() -> StripedSurface:
    """Five strips glued in a chain along four special leaves.

    A and E carry one upper interval, B, C and D two; the gluings alpha..delta
    attach A-B, B-B's neighbor C, C-D, D-E.  All four glued leaves are special
    because each shares a side with another one.
    """
    return build_surface(
        [
            strip("A", upper=["A.u0"]),
            strip("B", upper=["B.u0", "B.u1"]),
            strip("C", upper=["C.u0", "C.u1"]),
            strip("D", upper=["D.u0", "D.u1"]),
            strip("E", upper=["E.u0"]),
        ],
        [
            glue("alpha", "A.u0", "B.u0"),
            glue("beta", "B.u1", "C.u0"),
            glue("gamma", "C.u1", "D.u0"),
            glue("delta", "D.u1", "E.u0"),
        ],
    )


def kaplan5_mirror() -> StripedSurface:
    """The reflection of kaplan5: every strip horizontally flipped."""
    return mirror(kaplan5())


def cylinder() -> StripedSurface:
    """One strip, full lower line glued to full upper line preserving x."""
    return build_surface(
        [
            strip(
                "A",
                lower=[("A.l", (float("-inf"), float("inf")))],
                upper=[("A.u", (float("-inf"), float("inf")))],
            )
        ],
        [glue("seam", "A.l", "A.u", Orientation.PRESERVING)],
    )


def moebius() -> StripedSurface:
    """Like the cylinder but with the identification reversing x."""
    return build_surface(
        [
            strip(
                "A",
                lower=[("A.l", (float("-inf"), float("inf")))],
                upper=[("A.u", (float("-inf"), float("inf")))],
            )
        ],
        [glue("seam", "A.l", "A.u", Orientation.REVERSING)],
    )


def open_strip() -> StripedSurface:
    """A single strip with empty boundary: the open plane band."""
    return build_surface([strip("A")], [])


def two_strip_chain() -> StripedSurface:
    """Two strips joined along one non-special leaf, one outer interval each.

    Canonicalization merges this into a single strip carrying both outer
    intervals, one per side.
    """
    return build_surface(
        [
            strip("P", lower=["P.l0"], upper=["P.m"]),
            strip("Q", lower=["Q.m"], upper=["Q.u0"]),
        ],
        [glue("seam", "P.m", "Q.m")],
    )


def horseshoe() -> StripedSurface:
    """A two-strip chain whose extremes both border the same special leaf.

    The leaf z runs along the chain's lower and upper outer sides at once, so
    it shows up in both half-closures; the unglued interval next to it is the
    cohabitant that makes z special.
    """
    return build_surface(
        [
            strip("P", lower=["P.l0", "P.l1"], upper=["P.m"]),
            strip("R", lower=["R.m"], upper=["R.u0"]),
        ],
        [
            glue("m", "P.m", "R.m"),
            glue("z", "P.l0", "R.u0"),
        ],
    )


def mirrored_chain() -> StripedSurface:
    """A two-strip chain across a reversing seam whose far strip R carries
    explicit endpoints on its exposed upper side, one end infinite and one
    -0.0.  Canonicalization flips R, so it reverses and mirrors them; the
    leaf z joining R to the near strip P toggles to reversing."""
    inf = float("inf")
    return build_surface(
        [
            strip("P", lower=["P.l0", "P.l1"], upper=["P.m"]),
            strip("R", lower=["R.m"], upper=[("R.u0", (-inf, -0.0)), ("R.u1", (0.5, 2.0))]),
        ],
        [
            glue("m", "P.m", "R.m", Orientation.REVERSING),
            glue("z", "P.l0", "R.u1"),
        ],
    )


def hostile_ids() -> StripedSurface:
    """A connected surface whose ids hold JSON escapes, non-ASCII characters
    and U+2028, and whose endpoints are infinite, signed zero, subnormal,
    huge or past 2**53."""
    inf = float("inf")
    return build_surface(
        [
            strip('q"uote\\back/slash', upper=[("tab\there", (-inf, -0.0)), ("new\nline", (5e-324, 1e300))]),
            strip("caf\u00e9\U0001f600", lower=[("sep\u2028arator", (-2.5, 2.0**53 + 1.0))], upper=[("\u00e9", (-inf, inf))]),
            strip("\U0001f600\u2028", lower=[('x/y\\z"', (0.1, 7.0))]),
        ],
        [
            glue('g"1', "tab\there", "sep\u2028arator"),
            glue("g\\2/\t\n", "\u00e9", 'x/y\\z"', Orientation.REVERSING),
        ],
    )


def all_fixtures() -> dict[str, StripedSurface]:
    return {
        "kaplan5": kaplan5(),
        "kaplan5_mirror": kaplan5_mirror(),
        "cylinder": cylinder(),
        "moebius": moebius(),
        "open_strip": open_strip(),
        "two_strip_chain": two_strip_chain(),
        "horseshoe": horseshoe(),
    }
