"""trichor: exact triangulation enumeration and charging-scheme audits.

The package enumerates every triangulation of a small planar point set
by flip-graph traversal, counts triangulations of simple polygons and
the Catalan variants exactly, builds flip-trees and rigid cores for
degree-3 vertices, and audits the charge that every 3-vint receives.
"""

from .bounds import BoundEntry, bounds_csv, derived_bounds
from .charging import (
    AuditReport,
    ChargeContribution,
    ChargeReport,
    FlipTree,
    FlipTreeNode,
    RigidCore,
    RulesReport,
    Vint,
    audit,
    build_flip_tree,
    charge,
    contr_minus,
    contr_plus,
    contr_plus_census,
    contr_plus_closed_form,
    hole_of,
    rigid_core,
    support,
)
from .enumeration import (
    EnumerationResult,
    V3RecursionReport,
    check_v3_recursion,
    enumerate_all,
    tri_upper_bound,
    vhat,
)
from .errors import (
    CapExceededError,
    CollinearTripleError,
    CrossingChordsError,
    DuplicatePointError,
    ExhaustedRetriesError,
    HasDeepEdgesError,
    InvalidChordError,
    InvariantError,
    NotA3VintError,
    NotFlippableError,
    NotSimpleError,
    OutOfRangeError,
    TrichorError,
    UnknownEdgeError,
)
from .geometry import (
    CCW,
    COLLINEAR,
    CW,
    AugmentedPointSet,
    Point,
    PointSet,
    augment,
    gen_convex,
    gen_convex_arc_in_triangle,
    gen_random,
    orient,
    read_points,
    write_points,
)
from .polygons import (
    SimplePolygon,
    catalan,
    catalan_generalized,
    count_triangulations,
    read_polygon,
    reflex_template,
    tr_with_chords,
    write_polygon,
)
from .triangulation import (
    DegreeVector,
    EdgeRef,
    Triangulation,
    degree_vector,
    initial_triangulation,
)

__version__ = "0.1.0"
