"""Striped surfaces: strip decompositions of surface foliations.

Encode a foliated surface as model strips glued along boundary intervals,
compute its (possibly non-Hausdorff) leaf space, cut it canonically along
special leaves, decide foliated-homeomorphism equivalence by canonical
codes, and realize the closure of a half strip by explicit level-preserving
maps.
"""

from .core import (
    BadEndpointsError,
    BadIdError,
    DisconnectedSurfaceError,
    DoubleGluingError,
    DuplicateIdError,
    GluingSpec,
    Interval,
    ModelStripSpec,
    Orientation,
    SameSideGluingError,
    SelfGluingError,
    Side,
    StripedSurface,
    SurfaceError,
    UnknownIntervalRefError,
    build_surface,
    glue,
    is_connected,
    strip,
    validate_class_f,
)
from .leafspace import (
    LeafPoint,
    LeafSpace,
    PointKind,
    build_leaf_space,
    hausdorff_closure,
    is_special,
    special_points,
)
from .decomposition import (
    ClosureStrip,
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
from .io import ParseError, leafspace_json, parse, render, render_dot, render_svg, serialize

__version__ = "0.1.0"

# The realization engine loads on first use: of the CLI's commands only
# realize needs it.  Nothing is cached here, so each read returns homeo's
# current attribute, even one patched after the first read.
_HOMEO = frozenset(
    "GraphsIntersectError HalfStripChart HalfStripMap NonIncreasingInputError PLFunction Trapezoid"
    " rectify_stages realize_half_strip roof_homeo shrink_leaf trapezoid_under_clearance uk_eval".split()
)


def __getattr__(name: str):
    if name in _HOMEO:
        from . import homeo

        return getattr(homeo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
