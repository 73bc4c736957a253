"""Connectivity, degree statistics, structural checks and exact
bound certification.

All inequalities are evaluated in exact rational arithmetic; nothing here
compares floats.  Checks that have preconditions report NOT_APPLICABLE
instead of silently passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import maximality
from .build import delete_edges
from .core import (
    DrawingError,
    FaceClass,
    OnePlaneGraph,
    OperationError,
    PlanarMap,
    SimpleGraph,
    c_of,
    once,
    underlying,
)
from .transform import DualMap, Skeleton, dual, skeleton


# ---------------------------------------------------------------------------
# Vertex connectivity (exact, Menger via unit-capacity max-flow)
# ---------------------------------------------------------------------------

def vertex_connectivity(sg: SimpleGraph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs."""
    return _menger(sg)[0]


def min_vertex_separator(sg: SimpleGraph) -> frozenset[int]:
    """A vertex set of size ``vertex_connectivity(sg)`` whose removal
    disconnects the graph (complete graphs have none)."""
    kappa, nb, cut = _menger(sg)
    if kappa == sg.order - 1:
        raise OperationError("BAD_PARAMETER", "a complete graph has no vertex separator")
    return frozenset(nb) if cut is None else _residual_cut(*cut)


@once
def _menger(sg: SimpleGraph):
    """κ, N(s) and, if a flow set κ, the network, source and residual
    capacities of that flow: what ``min_vertex_separator`` reads a
    minimum separator from.

    Fix a minimum-degree vertex s; κ <= deg(s) = ``best``, and N(s)
    separates s from any non-neighbor.  A minimum cut either misses s
    (some t outside N[s] has κ(s, t) = κ) or contains s (two non-adjacent
    neighbors of s are split by it).  The first batch visits each t outside
    N[s] in BFS order and settles it, i.e. learns κ(s, t) >= ``best``;
    N(s) counts as settled from the start.  A separator S of s and t with
    |S| < ``best`` would miss one of ``best`` internally disjoint paths
    from t to distinct settled vertices, and so join t to s, directly or
    through a settled end.  So t settles without an s-t flow when it has
    ``best`` settled neighbors, or else when a fan of ``best`` such paths
    exists; only then does the capped s-t flow run, possibly lowering
    ``best``.  The second batch flows between non-adjacent neighbors of s.
    Every flow runs on one split-vertex network built once per call.
    """
    n = sg.order
    if n < 2:
        raise OperationError("BAD_PARAMETER", "connectivity needs at least 2 vertices")
    if not sg.is_connected():
        raise OperationError("DISCONNECTED", "graph is not connected")

    net = _split_network(sg)
    index = net.index
    s = min(sg.vertices, key=lambda v: (sg.degree(v), v))
    nb = sg.neighbors(s)
    best, cut = len(nb), None
    fan = net.cap0[:]                   # sink arcs of settled vertices open
    settled = [False] * n

    def settle(v):
        settled[index[v]] = True
        fan[4 * index[v] + 2] = 1         # v_out -> sink

    def flow(x, y):
        nonlocal best, cut
        res = net.cap0[:]
        f = _augment(net, res, 2 * index[x] + 1, 2 * index[y], best)
        if f < best:
            best, cut = f, (net, 2 * index[x] + 1, res)

    for v in nb:
        settle(v)
    order, seen = [s], {s}
    for v in order:
        for w in sorted(sg.neighbors(v)):
            if w not in seen:
                seen.add(w)
                order.append(w)
    for t in order:
        if t == s or t in nb:
            continue
        if (sum(settled[index[w]] for w in sg.neighbors(t)) < best
                and _augment(net, fan[:], 2 * index[t] + 1, net.sink, best) < best):
            flow(s, t)
        settle(t)
    nbl = sorted(nb)
    for i, x in enumerate(nbl):
        for y in nbl[i + 1:]:
            if not sg.has_edge(x, y):
                flow(x, y)
    return best, nb, cut


def connectivity_at_least(sg: SimpleGraph, k: int) -> bool:
    if k <= 0:
        return sg.order > 0
    if sg.order < 2 or not sg.is_connected():
        return False
    return vertex_connectivity(sg) >= k


@dataclass(frozen=True)
class _SplitNetwork:
    """Residual network of a graph with every vertex split in two: node 2i
    is the in-copy of ``vertices[i]`` and 2i+1 its out-copy, joined by a
    unit arc (arc 4i); each edge uv gives unit arcs u_out->v_in and
    v_out->u_in (an inner vertex passes one unit, so no edge arc needs
    more).  Node ``sink`` = 2n is fed by an arc from every out-copy (arc
    4i+2) of capacity 0, which a fan opens for its settled vertices: fed
    from the out-copy, a settled vertex ends at most one path.
    Arc ``a`` runs to ``head[a]``, its reverse is ``a ^ 1``, and
    ``arcs[x]`` lists the arcs leaving node x."""

    index: dict[int, int]
    head: list[int]
    cap0: list[int]
    arcs: tuple[tuple[int, ...], ...]

    @property
    def sink(self) -> int:
        return len(self.arcs) - 1


def _split_network(sg: SimpleGraph) -> _SplitNetwork:
    n = sg.order
    index = {v: i for i, v in enumerate(sg.vertices)}
    head: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(2 * n + 1)]

    def arc(x, y):
        arcs[x].append(len(head))
        head.append(y)
        arcs[y].append(len(head))
        head.append(x)

    for i in range(n):
        arc(2 * i, 2 * i + 1)
        arc(2 * i + 1, 2 * n)
    for u, v in sg.edges:
        arc(2 * index[u] + 1, 2 * index[v])
        arc(2 * index[v] + 1, 2 * index[u])
    return _SplitNetwork(index, head, [1, 0, 0, 0] * n + [1, 0] * (2 * sg.size),
                        tuple(tuple(a) for a in arcs))


def _augment(net: _SplitNetwork, res: list[int], src: int, dst: int, cap: int) -> int:
    """Augment unit flows from node ``src`` to node ``dst`` in the residual
    capacities ``res`` (changed in place) until ``cap`` paths are found or
    none is left; returns their number.  Paths are found breadth-first.
    From an out-copy to an in-copy (s_out to t_in) this counts internally
    disjoint s-t paths: a path never returns to src, so the unit arcs of
    s and t stay unused; from t_out to the sink it counts a fan."""
    head, arcs = net.head, net.arcs
    flow = 0
    while flow < cap:
        via = [-1] * len(arcs)          # arc that first reached each node
        via[src] = -2
        queue = [src]
        for x in queue:
            for a in arcs[x]:
                if res[a]:
                    y = head[a]
                    if via[y] == -1:
                        via[y] = a
                        queue.append(y)
            if via[dst] != -1:
                break
        else:
            break
        x = dst
        while x != src:
            a = via[x]
            res[a] -= 1
            res[a ^ 1] += 1
            x = head[a ^ 1]
        flow += 1
    return flow


def _residual_cut(net: _SplitNetwork, src: int, res: list[int]) -> frozenset[int]:
    """Vertices whose in-copy, but not out-copy, is reachable from ``src``
    once a maximum flow in ``res`` has stopped.  Edge arcs count as
    unbounded (no flow puts two units on one), so the cut they leave holds
    only vertex arcs: a minimum separator."""
    head, arcs = net.head, net.arcs
    edge0 = 4 * len(net.index)
    seen = [False] * len(arcs)
    seen[src] = True
    queue = [src]
    for x in queue:
        for a in arcs[x]:
            if (res[a] or (a >= edge0 and not a & 1)) and not seen[head[a]]:
                seen[head[a]] = True
                queue.append(head[a])
    return frozenset(v for v, i in net.index.items()
                     if seen[2 * i] and not seen[2 * i + 1])


def map_graph(pmap: PlanarMap) -> SimpleGraph:
    """Adjacency structure of a plane map (parallel segments collapse)."""
    edges = set()
    for d in range(pmap.n_darts):
        o = pmap.opposite[d]
        if d < o:
            u, v = pmap.dart_vertex[d], pmap.dart_vertex[o]
            edges.add((min(u, v), max(u, v)))
    return SimpleGraph(tuple(range(pmap.n_vertices)), tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Degree statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeProfile:
    histogram: dict[int, int]      # omega(k)
    min_degree: int                # d_p
    lambda1: int                   # degree-2 vertices
    lambda2: int                   # degree-4 vertices
    lambda3: int                   # odd-degree w with deg<=9 or G-w 2-connected

    def omega(self, k: int) -> int:
        return self.histogram.get(k, 0)


def degree_profile(sg: SimpleGraph) -> DegreeProfile:
    hist: dict[int, int] = {}
    for v in sg.vertices:
        hist[sg.degree(v)] = hist.get(sg.degree(v), 0) + 1
    # kappa >= 3 makes every G-w 2-connected
    lam3 = 0
    for w in sg.vertices:
        d = sg.degree(w)
        if d % 2 == 1 and (d <= 9 or connectivity_at_least(sg, 3)
                           or connectivity_at_least(sg.without([w]), 2)):
            lam3 += 1
    return DegreeProfile(
        histogram=dict(sorted(hist.items())),
        min_degree=min(hist) if hist else 0,
        lambda1=hist.get(2, 0),
        lambda2=hist.get(4, 0),
        lambda3=lam3,
    )


# ---------------------------------------------------------------------------
# Triangulation utilities
# ---------------------------------------------------------------------------

def is_triangulation(pmap: PlanarMap) -> bool:
    """True iff every face walk is a triangle on three distinct vertices."""
    for walk in pmap.face_walks:
        if len(walk) != 3:
            return False
        if len({pmap.dart_vertex[d] for d in walk}) != 3:
            return False
    return True


def is_separating_cycle(pmap: PlanarMap, subset) -> bool:
    """True iff the subset induces a cycle and disconnects the map."""
    s = set(subset)
    if len(s) < 3:
        return False
    sg = map_graph(pmap)
    inside = {v: [w for w in sg.neighbors(v) if w in s] for v in s}
    if any(len(ns) != 2 for ns in inside.values()):
        return False
    # the induced 2-regular graph must be one cycle
    start = next(iter(s))
    seen = {start}
    prev, cur = None, start
    while True:
        nxt = [w for w in inside[cur] if w != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        if cur in seen:
            return False
        seen.add(cur)
    if seen != s:
        return False
    rest = sg.without(s)
    return rest.order > 0 and not rest.is_connected()


@dataclass(frozen=True)
class RegularityReport:
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
# Near-optimal predicate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearOptimalReport:
    is_near_optimal: bool
    violations: tuple[str, ...]


def is_near_optimal(g: OnePlaneGraph) -> NearOptimalReport:
    """Near-optimal conditions on the non-crossing-edge subgraph:
    (i) every face triangular or quadrangular, (ii) every quadrangular face
    holds exactly the crossing of its two diagonals, (iii) no edge shared
    by two distinct triangular faces."""
    bad: list[str] = []
    crossed = [e for e, r in enumerate(g.edges) if r.crossing is not None]

    # each face of H is one merge class of planarization faces
    cut = delete_edges(g, crossed)
    if cut is None:
        return NearOptimalReport(False, ("non-crossing subgraph is disconnected",))
    h = cut.result.graph
    inv_vertex = {new: old for old, new in cut.result.vertex_map.items()}

    # both edges through a crossing are deleted, so the four faces around it
    # share one class
    crossing_home: dict[int, list[int]] = {}
    for c in g.map.fake_vertices:
        home = cut.merge.find(g.map.face_of_dart[g.map.rotations[c][0]])
        crossing_home.setdefault(home, []).append(c)

    hf = h.face_set
    for f in hf:
        orig = tuple(inv_vertex[v] for v in f.vertices)
        if f.is_triangle():
            if crossing_home.get(cut.face_class[f.index]):
                bad.append(f"triangular face {orig} contains a crossing")
            continue
        if not f.is_quadrangle():
            bad.append(f"face {orig} is neither triangular nor quadrangular")
            continue
        inside = crossing_home.get(cut.face_class[f.index], [])
        if len(inside) != 1:
            bad.append(f"quadrangular face {orig} holds {len(inside)} crossings")
            continue
        v0, v1, v2, v3 = orig
        want = {frozenset((v0, v2)), frozenset((v1, v3))}
        e1, e2 = g.edges_at_crossing(inside[0])
        got = {frozenset(g.edges[e1].ends), frozenset(g.edges[e2].ends)}
        if got != want:
            bad.append(f"crossing in face {orig} is not of its diagonals")

    for e in range(h.size):
        d = h.edge_darts[e][0]
        f1 = hf.face_of_dart[d]
        f2 = hf.face_of_dart[h.map.opposite[d]]
        if f1 != f2 and hf[f1].is_triangle() and hf[f2].is_triangle():
            u, v = h.edges[e].ends
            bad.append(
                f"edge {inv_vertex[u]}-{inv_vertex[v]} shared by two triangles")

    return NearOptimalReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Structural checks of maximal drawings
# ---------------------------------------------------------------------------

class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: CheckStatus
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status is CheckStatus.PASS

    @property
    def failed(self) -> bool:
        return self.status is CheckStatus.FAIL


def check_face_adjacency(g: OnePlaneGraph) -> CheckResult:
    """Faces of a maximal drawing: boundary has >= 2 vertices and all true
    boundary vertices are pairwise adjacent."""
    name = "face-adjacency"
    if not maximality.is_maximal(g).is_maximal:
        return CheckResult(name, CheckStatus.NOT_APPLICABLE, "drawing not maximal")
    for f in g.face_set:
        if len(f.boundary) < 2:
            return CheckResult(name, CheckStatus.FAIL,
                               f"face {f.index} has boundary {set(f.boundary)}")
        tv = sorted(v for v in f.boundary if not g.map.is_fake(v))
        for i, u in enumerate(tv):
            for v in tv[i + 1:]:
                if not g.has_edge(u, v):
                    return CheckResult(
                        name, CheckStatus.FAIL,
                        f"true vertices {u},{v} share face {f.index} but are "
                        f"not adjacent")
    return CheckResult(name, CheckStatus.PASS)


def check_crossing_cliques(g: OnePlaneGraph) -> CheckResult:
    """Every crossing pair of a maximal drawing induces a K4."""
    name = "crossing-cliques"
    if not maximality.is_maximal(g).is_maximal:
        return CheckResult(name, CheckStatus.NOT_APPLICABLE, "drawing not maximal")
    for c, e1, e2 in g.crossing_pairs:
        quad = (*g.edges[e1].ends, *g.edges[e2].ends)
        for i in range(4):
            for j in range(i + 1, 4):
                if not g.has_edge(quad[i], quad[j]):
                    return CheckResult(
                        name, CheckStatus.FAIL,
                        f"crossing {c}: {quad[i]},{quad[j]} not adjacent")
    return CheckResult(name, CheckStatus.PASS)


def check_true_face_neighbors(g: OnePlaneGraph, k: int) -> CheckResult:
    """True faces of G-cross are adjacent to at most 5-k true faces,
    for k-connected maximal drawings (immovable when k=3)."""
    name = f"true-face-neighbors(k={k})"
    if not 3 <= k <= 5:
        return CheckResult(name, CheckStatus.NOT_APPLICABLE, f"k={k} out of range [3,5]")
    na = _g_k_applicability(g, k)
    if na:
        return CheckResult(name, CheckStatus.NOT_APPLICABLE, na)
    if not is_triangulation(g.map):
        return CheckResult(name, CheckStatus.FAIL,
                           "planarization is not a triangulation")
    fs = g.face_set
    for f in fs:
        if f.classification is not FaceClass.TRUE:
            continue
        true_adj = [
            j for j in fs.adjacent_faces(g.map, f.index)
            if fs[j].classification is FaceClass.TRUE
        ]
        if len(true_adj) > 5 - k:
            return CheckResult(
                name, CheckStatus.FAIL,
                f"true face {f.index} adjacent to true faces {true_adj}")
    return CheckResult(name, CheckStatus.PASS)


def check_blue_neighbors(dm: DualMap, k: int) -> CheckResult:
    """Blue dual vertices have at most 5-k distinct blue neighbors."""
    name = f"blue-neighbors(k={k})"
    if not 3 <= k <= 5:
        return CheckResult(name, CheckStatus.NOT_APPLICABLE, f"k={k} out of range")
    for v in dm.vertices_of_color(FaceClass.BLUE):
        blue = [w for w in dm.neighbor_sets[v]
                if dm.colors[w] is FaceClass.BLUE]
        if len(blue) > 5 - k:
            return CheckResult(name, CheckStatus.FAIL,
                               f"blue vertex {v} has blue neighbors {sorted(blue)}")
    return CheckResult(name, CheckStatus.PASS)


def check_crossing_share(g: OnePlaneGraph) -> CheckResult:
    """ceil(deg/3) <= c(v) <= floor(deg/2) for 5-connected maximal drawings."""
    name = "crossing-share"
    na = _g_k_applicability(g, 5)
    if na:
        return CheckResult(name, CheckStatus.NOT_APPLICABLE, na)
    for v in g.map.true_vertices:
        d = g.map.degree(v)
        c = c_of(g, v)
        if not (-(-d // 3) <= c <= d // 2):
            return CheckResult(name, CheckStatus.FAIL,
                               f"vertex {v}: deg={d}, c={c}")
    return CheckResult(name, CheckStatus.PASS)


def _g_k_applicability(g: OnePlaneGraph, k: int) -> str:
    """Empty string when g is in G_k: a k-connected maximal drawing on
    n >= 5 vertices (n >= 6 for k >= 4), immovable when k = 3; otherwise
    the reason it is not."""
    if g.n < 5 or (k >= 4 and g.n < 6):
        return f"n={g.n} below threshold"
    if not maximality.is_maximal(g).is_maximal:
        return "drawing not maximal"
    kappa = vertex_connectivity(underlying(g))
    if kappa < k:
        return f"kappa={kappa} < {k}"
    if k == 3 and not maximality.is_immovable(g).is_immovable:
        return "k=3 requires an immovable drawing"
    return ""


# ---------------------------------------------------------------------------
# Red/blue counting identities
# ---------------------------------------------------------------------------

def check_color_identities(g: OnePlaneGraph, sk: Skeleton | None = None) -> list[str]:
    """Red/blue counting identities of a maximal drawing; the triangulation
    identities are included when the planarization is triangulated.
    Returns violation strings (empty = all hold)."""
    bad: list[str] = []
    if sk is None:
        sk = skeleton(g)
    dm = dual(sk)
    fs = g.face_set
    n_fake = len(fs.of_class(FaceClass.FAKE))
    n_true = len(fs.of_class(FaceClass.TRUE))
    red = dm.vertices_of_color(FaceClass.RED)
    blue = dm.vertices_of_color(FaceClass.BLUE)

    if 2 * len(red) > n_fake:
        bad.append(f"|V_rd|={len(red)} exceeds half of {n_fake} fake faces")
    if len(blue) != n_true:
        bad.append(f"|V_bl|={len(blue)} != |F_tr|={n_true}")
    for v in red:
        if not any(dm.colors[w] is FaceClass.RED for w in dm.neighbor_sets[v]):
            bad.append(f"red vertex {v} has no red neighbor")

    n = g.n
    cr = g.crossing_count
    if is_triangulation(g.map):
        if not is_triangulation(sk.map):
            bad.append("skeleton of a triangulated planarization is not a triangulation")
        if sk.graph.size != 3 * n - 6:
            bad.append(f"skeleton has {sk.graph.size} edges, expected {3 * n - 6}")
        if len(sk.faces) != 2 * n - 4:
            bad.append(f"skeleton has {len(sk.faces)} faces, expected {2 * n - 4}")
        if dm.n != 2 * n - 4 or not dm.is_regular(3):
            bad.append("dual is not 3-regular on 2n-4 vertices")
        if len(dm.edges) != 3 * n - 6:
            bad.append(f"dual has {len(dm.edges)} edges, expected {3 * n - 6}")
        if 2 * cr != len(red):
            bad.append(f"cr={cr} but |V_rd|={len(red)}")
        if g.size != 3 * n - 6 + cr:
            bad.append(f"|E|={g.size} != 3n-6+cr={3 * n - 6 + cr}")
    return bad


# ---------------------------------------------------------------------------
# Bound certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundEntry:
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


@dataclass(frozen=True)
class BoundReport:
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
    (the k rows on G_k, see ``_g_k_applicability``).  A FAIL marks an
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

    g3, g4, g5, g7 = (not _g_k_applicability(g, k) for k in (3, 4, 5, 7))
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
    bad: list[str] = []
    if not maximality.is_maximal(g).is_maximal:
        bad.append("saturated drawing is not maximal")
        return bad

    rep = verify_bounds(g)
    kappa, tri = rep.kappa, rep.triangulated

    if kappa >= 4 and not tri:
        bad.append(f"kappa={kappa} >= 4 but planarization is not a triangulation")

    if kappa == 3 and rep.immovable and not tri:
        bad.append("kappa=3 immovable drawing without triangulated planarization")

    # r9 passes only on a triangulated planarization
    sk = skeleton(g) if tri else None
    if 3 <= kappa:
        k = min(kappa, 5)
        r9 = check_true_face_neighbors(g, k)
        if r9.failed:
            bad.append(f"{r9.name}: {r9.detail}")
        if r9.passed:
            r10 = check_blue_neighbors(dual(sk), k)
            if r10.failed:
                bad.append(f"{r10.name}: {r10.detail}")

    for res in (check_face_adjacency(g), check_crossing_cliques(g),
                check_crossing_share(g)):
        if res.failed:
            bad.append(f"{res.name}: {res.detail}")

    if tri:
        bad.extend(check_color_identities(g, sk))

    bad.extend(e.line() for e in rep.entries if e.applicable and not e.passed)
    return bad
