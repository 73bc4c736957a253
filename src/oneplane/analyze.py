"""Connectivity, degree statistics, structural checks and exact
bound certification.

All inequalities are evaluated in exact rational arithmetic; nothing here
compares floats.  A structural check returns its violations (empty when
the property holds) and its docstring states the hypothesis under which
the property holds; ``property_suite`` runs each check only on drawings
that meet it.  A bound row outside its domain prints NOT_APPLICABLE.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from . import flow, maximality
from .build import Subdrawing, delete_edges
from .core import (
    DrawingError,
    FaceClass,
    OnePlaneGraph,
    OperationError,
    PlanarMap,
    SimpleGraph,
    c_of,
    faces,
    once,
    underlying,
)
from .transform import dual, skeleton


# ---------------------------------------------------------------------------
# Vertex connectivity (exact, Menger via unit-capacity max-flow)
# ---------------------------------------------------------------------------

def vertex_connectivity(sg: SimpleGraph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs."""
    return flow.menger(sg)[0]


def min_vertex_separator(sg: SimpleGraph) -> frozenset[int]:
    """A vertex set of size ``vertex_connectivity(sg)`` whose removal
    disconnects the graph (complete graphs have none)."""
    kappa, nb, cut = flow.menger(sg)
    if kappa == sg.order - 1:
        raise OperationError("BAD_PARAMETER", "a complete graph has no vertex separator")
    return frozenset(nb) if cut is None else flow.residual_cut(*cut)


def connectivity_at_least(sg: SimpleGraph, k: int) -> bool:
    if k <= 0:
        return sg.order > 0
    if sg.order < 2:
        return False
    return vertex_connectivity(sg) >= k


@once
def map_graph(pmap: PlanarMap) -> SimpleGraph:
    """Adjacency structure of a plane map (parallel segments collapse),
    built once per map."""
    dv, opposite = pmap.dart_vertex, pmap.opposite
    return SimpleGraph({v: frozenset({dv[opposite[d]] for d in rot})
                        for v, rot in enumerate(pmap.rotations)})


# ---------------------------------------------------------------------------
# Degree statistics
# ---------------------------------------------------------------------------

class DegreeProfile(NamedTuple):
    histogram: dict[int, int]      # omega(k)
    min_degree: int                # d_p
    lambda1: int                   # degree-2 vertices
    lambda2: int                   # degree-4 vertices
    lambda3: int                   # odd-degree w with deg<=9 or G-w 2-connected

    def omega(self, k: int) -> int:
        return self.histogram.get(k, 0)


def degree_profile(sg: SimpleGraph) -> DegreeProfile:
    degrees = {v: len(ws) for v, ws in sg.adjacency.items()}
    hist = Counter(degrees.values())
    # odd vertices of degree <= 9 count as they are; kappa >= 3 makes every
    # G-w 2-connected, so a flow per vertex runs only below it
    big = [w for w, d in degrees.items() if d % 2 == 1 and d > 9]
    if big and not connectivity_at_least(sg, 3):
        big = [w for w in big if connectivity_at_least(sg.without([w]), 2)]
    return DegreeProfile(
        histogram=dict(sorted(hist.items())),
        min_degree=min(hist) if hist else 0,
        lambda1=hist.get(2, 0),
        lambda2=hist.get(4, 0),
        lambda3=sum(c for d, c in hist.items() if d % 2 == 1 and d <= 9) + len(big),
    )


# ---------------------------------------------------------------------------
# Triangulation utilities
# ---------------------------------------------------------------------------

@once
def is_triangulation(pmap: PlanarMap) -> bool:
    """True iff every face walk is a triangle on three distinct vertices: on
    a validated map, with no loop segment, any walk of three darts is one."""
    return set(map(len, pmap.face_walks)) <= {3}


def is_separating_cycle(pmap: PlanarMap, subset) -> bool:
    """True iff the subset induces a cycle and disconnects the map."""
    s = set(subset)
    sg = map_graph(pmap)
    if unknown := [v for v in s if v not in sg.adjacency]:
        raise OperationError("UNKNOWN_VERTEX", f"no vertex {unknown[0]}")
    # a simple graph on 3 or more vertices is a cycle iff it is connected
    # and 2-regular
    cycle = sg.without(sg.adjacency.keys() - s)
    if len(s) < 3 or any(len(ws) != 2 for ws in cycle.adjacency.values()):
        return False
    rest = sg.without(s)
    return cycle.is_connected() and rest.order > 0 and not rest.is_connected()


class RegularityReport(NamedTuple):
    is_56_regular: bool            # implies 5-connected
    hakimi_condition: bool         # floor(7*omega(4)/3)+omega(5) < 14, d_p >= 4
    min_degree: int
    omega4: int
    omega5: int
    kappa: int
    implied_connectivity: int      # 0 when neither criterion fires


def regularity_checks(pmap: PlanarMap) -> RegularityReport:
    """Degree-based connectivity criteria for a plane triangulation.

    When a criterion fires, the implied lower bound is cross-checked
    against the exact connectivity; a contradiction would mean a bug and
    raises.
    """
    if not is_triangulation(pmap):
        raise OperationError("NOT_TRIANGULATION",
                             "regularity criteria need a triangulation")
    sg = map_graph(pmap)
    prof = degree_profile(sg)
    dp, w4, w5 = prof.min_degree, prof.omega(4), prof.omega(5)
    is56 = set(prof.histogram) <= {5, 6}
    hakimi = dp >= 4 and (7 * w4) // 3 + w5 < 14
    implied = 0
    if is56:
        implied = max(implied, 5)
    if hakimi:
        implied = max(implied, dp)
    kappa = vertex_connectivity(sg)
    if kappa < implied:
        raise DrawingError(
            f"connectivity criterion contradicted: kappa={kappa} < {implied}")
    return RegularityReport(is56, hakimi, dp, w4, w5, kappa, implied)


# ---------------------------------------------------------------------------
# Near-optimal check
# ---------------------------------------------------------------------------

def check_near_optimal(g: OnePlaneGraph) -> list[str]:
    """Near-optimal conditions on the non-crossing-edge subgraph:
    (i) every face triangular or quadrangular, (ii) every quadrangular face
    holds exactly the crossing of its two diagonals, (iii) no edge shared
    by two distinct triangular faces.  Returns violation strings (empty =
    near-optimal)."""
    bad: list[str] = []
    crossed = [e for e, r in enumerate(g.edges) if r.crossing is not None]

    sub = delete_edges(g, crossed)
    if sub is None:
        return ["non-crossing subgraph is disconnected"]
    h, old = sub.graph, sub.vertex_ids
    # each face of H is a class of planarization faces; both edges through a
    # crossing are deleted, so the four faces around it share one class
    home = {f: i for i, ids in enumerate(sub.face_members) for f in ids}
    crossings: list[list[int]] = [[] for _ in h.map.face_walks]
    for c in g.map.fake_vertices:
        crossings[home[g.map.face_of_dart[g.map.rotations[c][0]]]].append(c)

    dv = h.map.dart_vertex
    triangle = []
    for i, walk in enumerate(h.map.face_walks):
        orig = tuple(old[dv[d]] for d in walk)
        simple = len(set(orig)) == len(orig)
        triangle.append(simple and len(orig) == 3)
        if triangle[i]:
            if crossings[i]:
                bad.append(f"triangular face {orig} contains a crossing")
            continue
        if not (simple and len(orig) == 4):
            bad.append(f"face {orig} is neither triangular nor quadrangular")
            continue
        inside = crossings[i]
        if len(inside) != 1:
            bad.append(f"quadrangular face {orig} holds {len(inside)} crossings")
            continue
        v0, v1, v2, v3 = orig
        want = {frozenset((v0, v2)), frozenset((v1, v3))}
        e1, e2 = g.edges_at_crossing(inside[0])
        got = {frozenset(g.edges[e1].ends), frozenset(g.edges[e2].ends)}
        if got != want:
            bad.append(f"crossing in face {orig} is not of its diagonals")

    for e, (f1, f2) in sorted(maximality._sides(h).items()):     # h is plane
        if f1 != f2 and triangle[f1] and triangle[f2]:
            u, v = h.edges[e].ends
            bad.append(f"edge {old[u]}-{old[v]} shared by two triangles")

    return bad


# ---------------------------------------------------------------------------
# Structural checks of maximal drawings
# ---------------------------------------------------------------------------

def _in_g_k(k: int, n: int, kappa: int, immovable: bool) -> bool:
    """Whether a maximal drawing on n vertices with connectivity kappa is
    in G_k: kappa >= k on n >= 5 vertices (n >= 6 for k >= 4), immovable
    when k = 3."""
    return kappa >= k and n >= (6 if k >= 4 else 5) and (k != 3 or immovable)


def check_face_adjacency(g: OnePlaneGraph) -> list[str]:
    """Every face boundary has >= 2 vertices and its true vertices are
    pairwise adjacent; holds when g is maximal."""
    bad: list[str] = []
    dv, adj, fake = g.map.dart_vertex, underlying(g).adjacency, set(g.map.fake_vertices)
    for f, walk in enumerate(g.map.face_walks):
        boundary = set(map(dv.__getitem__, walk))
        if len(boundary) < 2:
            bad.append(f"face-adjacency: face {f} has boundary {boundary}")
            continue
        bad += [f"face-adjacency: true vertices {u},{v} share face {f} but are not adjacent"
                for u, v in combinations(sorted(boundary - fake), 2) if v not in adj[u]]
    return bad


def check_crossing_cliques(g: OnePlaneGraph) -> list[str]:
    """The four ends of every crossing pair induce a K4; holds when g is
    maximal."""
    sg = underlying(g)
    bad: list[str] = []
    for c, e1, e2 in g.crossing_pairs:
        quad = (*g.edges[e1].ends, *g.edges[e2].ends)
        bad += [f"crossing-cliques: crossing {c}: {u},{v} not adjacent"
                for u, v in combinations(quad, 2) if not sg.has_edge(u, v)]
    return bad


def check_true_face_neighbors(g: OnePlaneGraph, k: int) -> list[str]:
    """The planarization is a triangulation whose true faces are each
    adjacent to at most 5-k true faces; holds when g is in G_k, k in 3..5."""
    if not 3 <= k <= 5:
        raise OperationError("BAD_PARAMETER", f"k={k} out of range [3,5]")
    name = f"true-face-neighbors(k={k})"
    if not is_triangulation(g.map):
        return [f"{name}: planarization is not a triangulation"]
    return [f"{name}: true face {f} adjacent to true faces {sorted(ws)}"
            for f, ws in dual(g.map, faces(g), FaceClass.TRUE).adjacency.items()
            if len(ws) > 5 - k]


def check_blue_neighbors(sk: Subdrawing, k: int) -> list[str]:
    """Blue faces of the skeleton ``sk`` (vertices of its dual) have at most
    5-k distinct blue neighbors; holds when the drawing is in G_k, k in
    3..5."""
    if not 3 <= k <= 5:
        raise OperationError("BAD_PARAMETER", f"k={k} out of range [3,5]")
    return [f"blue-neighbors(k={k}): blue vertex {v} has blue neighbors {sorted(ws)}"
            for v, ws in dual(sk.graph.map, sk.colors, FaceClass.BLUE).adjacency.items()
            if len(ws) > 5 - k]


def check_crossing_share(g: OnePlaneGraph) -> list[str]:
    """ceil(deg/3) <= c(v) <= floor(deg/2) at every true vertex; holds when
    g is in G_5."""
    bad: list[str] = []
    for v in g.map.true_vertices:
        d = g.map.degree(v)
        c = c_of(g, v)
        if not (-(-d // 3) <= c <= d // 2):
            bad.append(f"crossing-share: vertex {v}: deg={d}, c={c}")
    return bad


# ---------------------------------------------------------------------------
# Red/blue counting identities
# ---------------------------------------------------------------------------

def check_color_identities(sk: Subdrawing) -> list[str]:
    """Red/blue counting identities of a maximal drawing, read on its
    skeleton ``sk``; the triangulation identities are included when the
    planarization is triangulated.  Returns violation strings (empty = all
    hold)."""
    bad: list[str] = []
    g = sk.source
    cls = faces(g)
    n_fake = cls.count(FaceClass.FAKE)
    n_true = cls.count(FaceClass.TRUE)
    red = dual(sk.graph.map, sk.colors, FaceClass.RED).adjacency
    n_blue = sk.colors.count(FaceClass.BLUE)

    if 2 * len(red) > n_fake:
        bad.append(f"|V_rd|={len(red)} exceeds half of {n_fake} fake faces")
    if n_blue != n_true:
        bad.append(f"|V_bl|={n_blue} != |F_tr|={n_true}")
    bad += [f"red vertex {v} has no red neighbor" for v, ws in red.items() if not ws]

    n = g.n
    cr = g.crossing_count
    if is_triangulation(g.map):
        if not is_triangulation(sk.graph.map):
            bad.append("skeleton of a triangulated planarization is not a triangulation")
        if sk.graph.size != 3 * n - 6:
            bad.append(f"skeleton has {sk.graph.size} edges, expected {3 * n - 6}")
        if len(sk.colors) != 2 * n - 4:
            bad.append(f"skeleton has {len(sk.colors)} faces, expected {2 * n - 4}")
        if sk.graph.map.n_segments != 3 * n - 6:
            bad.append(f"dual has {sk.graph.map.n_segments} edges, expected {3 * n - 6}")
        if 2 * cr != len(red):
            bad.append(f"cr={cr} but |V_rd|={len(red)}")
        if g.size != 3 * n - 6 + cr:
            bad.append(f"|E|={g.size} != 3n-6+cr={3 * n - 6 + cr}")
    return bad


# ---------------------------------------------------------------------------
# Bound certification
# ---------------------------------------------------------------------------

class BoundEntry(NamedTuple):
    bound_id: str
    applicable: bool
    lhs: Fraction
    op: str             # ">=" or "<="
    rhs: Fraction
    passed: bool | None  # None when not applicable

    def line(self) -> str:
        status = "NOT_APPLICABLE" if not self.applicable else (
            "PASS" if self.passed else "FAIL")
        return f"{self.bound_id} {self.lhs} {self.op} {self.rhs} {status}"


class BoundReport(NamedTuple):
    n: int
    crossings: int
    size: int
    kappa: int
    triangulated: bool
    immovable: bool
    profile: DegreeProfile
    entries: tuple[BoundEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries if e.applicable)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]


def verify_bounds(g: OnePlaneGraph) -> BoundReport:
    """Evaluate every applicable crossing-number and size inequality for a
    maximal drawing.  The one table of the bound rows and their domains
    (the k rows on G_k, see ``_in_g_k``).  A FAIL marks an
    implementation bug: every inequality is proven on its domain."""
    if not maximality.is_maximal(g).is_maximal:
        raise OperationError("NOT_MAXIMAL", "bound certification needs a maximal drawing")

    n = Fraction(g.n)
    cr = Fraction(g.crossing_count)
    m = Fraction(g.size)
    kappa = vertex_connectivity(underlying(g))
    immovable = maximality.is_immovable(g).is_immovable
    tri = is_triangulation(g.map)
    prof = degree_profile(underlying(g))

    g3, g4, g5, g7 = (_in_g_k(k, g.n, kappa, immovable) for k in (3, 4, 5, 7))
    entries = [
        _entry("cr-k3", g3, cr, ">=", (n - 2) / 3),
        _entry("cr-k4", g4, cr, ">=", (n - 2) / 2),
        _entry("cr-k56", g5, cr, ">=", (3 * n - 6) / 5),
        _entry("cr-k7", g7, cr, ">=", 3 * n / 4),
        _entry("size-k3", g3, m, ">=", Fraction(10, 3) * (n - 2)),
        _entry("size-k4", g4, m, ">=", Fraction(7, 2) * (n - 2)),
        _entry("size-k56", g5, m, ">=", Fraction(18, 5) * (n - 2)),
        _entry("size-k7", g7, m, ">=", Fraction(15, 4) * (n - 2) + Fraction(3, 2)),
        _entry("size-min", g.n >= 5, m, ">=", Fraction(-(-7 * g.n // 3) - 3)),
        _entry("cr-max", g.n >= 3, cr, "<=", n - 2),
        # The degree-slack bound limits the minimum crossing number of a
        # maximal graph; it constrains this drawing's own count only when
        # the two coincide, i.e. when the planarization is a triangulation.
        # A maximal drawing of a non-maximal graph can exceed it otherwise:
        # K5 - e (n=5) drawn with two crossings has cr = 2 > 5/3.
        _entry("cr-max-slack", g.n >= 3 and tri, cr, "<=",
               n - 2 - Fraction(2 * prof.lambda1 + 2 * prof.lambda2 + prof.lambda3, 6)),
    ]
    return BoundReport(
        n=g.n, crossings=g.crossing_count, size=g.size, kappa=kappa,
        triangulated=tri, immovable=immovable, profile=prof,
        entries=tuple(entries),
    )


def _entry(bound_id: str, applicable: bool, lhs: Fraction, op: str,
           rhs: Fraction) -> BoundEntry:
    ok = None
    if applicable:
        ok = lhs >= rhs if op == ">=" else lhs <= rhs
    return BoundEntry(bound_id, applicable, lhs, op, rhs, ok)


# ---------------------------------------------------------------------------
# Aggregate property suite (shared by the fuzzer and the acceptance tests)
# ---------------------------------------------------------------------------

def property_suite(g: OnePlaneGraph) -> list[str]:
    """Every required invariant of a saturated drawing; returns the
    list of violations (empty means the instance is clean)."""
    if not maximality.is_maximal(g).is_maximal:
        return ["saturated drawing is not maximal"]

    rep = verify_bounds(g)
    n, kappa, immovable, tri = rep.n, rep.kappa, rep.immovable, rep.triangulated
    bad: list[str] = []
    if kappa >= 4 and not tri:
        bad.append(f"kappa={kappa} >= 4 but planarization is not a triangulation")

    if kappa == 3 and immovable and not tri:
        bad.append("kappa=3 immovable drawing without triangulated planarization")

    # the blue-neighbor check reads the skeleton's dual, which needs a
    # triangulated planarization (the true-face check fails without one)
    sk = skeleton(g) if tri else None
    k = min(kappa, 5)
    if k >= 3 and _in_g_k(k, n, kappa, immovable):
        bad += check_true_face_neighbors(g, k)
        if tri:
            bad += check_blue_neighbors(sk, k)

    bad += check_face_adjacency(g)
    bad += check_crossing_cliques(g)
    if _in_g_k(5, n, kappa, immovable):
        bad += check_crossing_share(g)

    if tri:
        bad += check_color_identities(sk)

    bad.extend(e.line() for e in rep.entries if e.applicable and not e.passed)
    return bad
