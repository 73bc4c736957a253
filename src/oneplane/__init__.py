"""Combinatorial 1-plane drawings and their certification toolkit.

A drawing lives as its planarization (a rotation-system map whose degree-4
fake vertices mark the crossings) plus an edge table.  The package derives
skeletons and colored duals, computes exact connectivity, searches the
complete single-edge insertion space (maximality, saturation,
immovability), generates the extremal families, and certifies every
crossing-number and edge-count inequality in exact rational arithmetic.
"""

from .core import (
    DrawingError,
    EdgeRec,
    FaceClass,
    OnePlaneGraph,
    OperationError,
    PlanarMap,
    SimpleGraph,
    ValidationError,
    VertexKind,
    Violation,
    c_of,
    check,
    faces,
    underlying,
    validate,
)
from .build import DrawingBuilder, Subdrawing, delete_edges, plane_graph
from .transform import DualMap, dual, skeleton
from .analyze import (
    BoundEntry,
    BoundReport,
    DegreeProfile,
    RegularityReport,
    check_blue_neighbors,
    check_color_identities,
    check_crossing_cliques,
    check_crossing_share,
    check_face_adjacency,
    check_near_optimal,
    check_true_face_neighbors,
    degree_profile,
    is_separating_cycle,
    is_triangulation,
    min_vertex_separator,
    property_suite,
    regularity_checks,
    verify_bounds,
    vertex_connectivity,
)
from .maximality import (
    ImmovabilityResult,
    InsertionCandidate,
    MaximalityResult,
    RedrawResult,
    SaturationPolicy,
    apply_insertion,
    insertion_candidates,
    is_immovable,
    is_maximal,
    min_redraw_crossings,
    saturate,
)
from .generators import (
    expected_stats,
    fixture_path,
    gen_H,
    gen_HH,
    gen_M,
    gen_M_triangulated,
    gen_XH,
    gen_XM,
    gen_YH,
    gen_random_seed,
    generate,
    k1_triangulate,
    k2_triangulate,
    tx_triangulate,
)
from .interchange import dump, load, parse, serialize, to_dot
