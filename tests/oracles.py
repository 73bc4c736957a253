"""Independent brute-force oracles, kept deliberately separate from the
library's own algorithms."""

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from oneplane.analyze import connectivity_at_least, map_graph
from oneplane.build import DrawingBuilder, Subdrawing, _compact
from oneplane.core import (
    DrawingError,
    FaceClass,
    OnePlaneGraph,
    OperationError,
    PlanarMap,
    SimpleGraph,
    VertexKind,
    Violation,
    underlying,
)
from oneplane.generators import (
    _first_inner_corner,
    _k2_on_builder,
    _lowest_diagonal_anchor,
    _xm1_base,
    gen_M,
    k1_triangulate,
)
from oneplane.maximality import (
    InsertionCandidate,
    RedrawResult,
    SaturationPolicy,
    _across,
    _Closure,
    _in_face,
    apply_insertion,
)


# ---------------------------------------------------------------------------
# Face objects, the per-edge dart index and deletion on a builder: the path
# that ``core.faces`` and ``build.delete_edges`` replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    index: int
    darts: tuple[int, ...]
    vertices: tuple[int, ...]          # vertex of each walk dart, in walk order
    classification: FaceClass

    @property
    def boundary(self) -> frozenset[int]:
        """The set of vertices visited by the boundary walk."""
        return frozenset(self.vertices)

    @property
    def size(self) -> int:
        return len(self.darts)

    def is_triangle(self) -> bool:
        return len(self.darts) == 3 and len(self.boundary) == 3

    def is_quadrangle(self) -> bool:
        return len(self.darts) == 4 and len(self.boundary) == 4


@dataclass(frozen=True)
class FaceSet:
    faces: tuple[Face, ...]
    face_of_dart: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self):
        return iter(self.faces)

    def __getitem__(self, i: int) -> Face:
        return self.faces[i]

    def of_class(self, cls: FaceClass) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.classification is cls)

    def adjacent_faces(self, pmap: PlanarMap, i: int) -> tuple[int, ...]:
        """Distinct faces sharing at least one segment with face ``i``."""
        out = set()
        for d in self.faces[i].darts:
            j = self.face_of_dart[pmap.opposite[d]]
            if j != i:
                out.add(j)
        return tuple(sorted(out))


def reference_faces(g: OnePlaneGraph) -> FaceSet:
    """Face walks of the planarization as ``Face`` objects, classified
    FAKE/TRUE: a face is FAKE iff its boundary walk visits a fake vertex.
    The walks and vertices come from the scatter oracles below, not from the
    map's own tables."""
    pmap = g.map
    walks, face_of_dart = scatter_faces(pmap)
    dart_vertex, _, fake = scatter_vertex_tables(pmap)
    out = []
    for i, walk in enumerate(walks):
        verts = tuple(dart_vertex[d] for d in walk)
        cls = FaceClass.FAKE if set(verts) & set(fake) else FaceClass.TRUE
        out.append(Face(i, walk, verts, cls))
    return FaceSet(tuple(out), face_of_dart)


def scatter_faces(pmap: PlanarMap) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(face walks, face of each dart), with walk starts and face ids of
    their own rather than the rotations' int objects ``PlanarMap._derived``
    takes: each dart's rotation successor is scattered into a table one
    dart at a time, and a walk starts at every dart, in id order, that no
    earlier walk holds."""
    nxt = [-1] * pmap.n_darts
    for rot in pmap.rotations:
        for d, e in zip(rot, rot[1:] + rot[:1]):
            nxt[d] = e
    phi = [nxt[o] for o in pmap.opposite]
    owner = [-1] * pmap.n_darts
    walks = []
    for d0 in range(pmap.n_darts):
        if owner[d0] >= 0:
            continue
        f = len(walks)
        walk = []
        d = d0
        while owner[d] < 0:
            owner[d] = f
            walk.append(d)
            d = phi[d]
        walks.append(tuple(walk))
    return tuple(walks), tuple(owner)


def scatter_vertex_tables(pmap: PlanarMap) -> tuple[tuple[int, ...], ...]:
    """(dart_vertex, true_vertices, fake_vertices), one dart and one vertex
    at a time, with vertex ids of their own, as ``PlanarMap`` computed them
    before ``_derived``."""
    owner = [-1] * pmap.n_darts
    for v, rot in enumerate(pmap.rotations):
        for d in rot:
            owner[d] = v
    return (tuple(owner),
            tuple(v for v, k in enumerate(pmap.kinds) if k is VertexKind.TRUE),
            tuple(v for v, k in enumerate(pmap.kinds) if k is VertexKind.FAKE))


def edge_darts(g: OnePlaneGraph) -> tuple[tuple[int, ...], ...]:
    """The darts of each edge, in id order: the per-edge index of
    ``dart_edge`` that ``OnePlaneGraph`` kept cached while
    ``build._merge_classes`` looped over it."""
    buckets: list[list[int]] = [[] for _ in g.edges]
    for d, e in enumerate(g.dart_edge):
        buckets[e].append(d)
    return tuple(map(tuple, buckets))


class FaceMerge:
    """Union-find over the faces of ``g``, merged across every segment of
    the given edges.  Deleting those edges leaves one face per merge class
    (while the drawing stays connected); a class is named by one of its
    faces of ``g``.  Only faces touched by a merge are stored, so merging
    one edge costs time in its segments, not in the drawing."""

    def __init__(self, g: OnePlaneGraph, edges):
        self._parent: dict[int, int] = {}
        fod, opposite, darts = g.map.face_of_dart, g.map.opposite, edge_darts(g)
        for e in edges:
            for d in darts[e]:
                a, b = self.find(fod[d]), self.find(fod[opposite[d]])
                if a != b:
                    self._parent[max(a, b)] = min(a, b)

    def find(self, face: int) -> int:
        """The merge class of a face of ``g``."""
        parent = self._parent
        while face in parent:
            up = parent[face]
            parent[face] = parent.get(up, up)     # path splitting
            face = up
        return face


DEAD = -2


def delete_edge(b: DrawingBuilder, e: int) -> None:
    """Remove an edge from the builder; a crossing on it is smoothed,
    restoring the partner edge to a single whole segment."""
    rec = b._edge(e)
    crossing = rec[2]
    # e's darts sit at its endpoints and, when crossed, at its crossing
    ends = rec if crossing is not None else rec[:2]
    darts = [d for w in ends for d in b.rotations[w] if b.dart_edge[d] == e]
    for d in darts:
        _kill_dart(b, d)
    b.edges[e] = None
    if crossing is not None:
        _smooth(b, crossing)


def _kill_dart(b: DrawingBuilder, d: int) -> None:
    b.rotations[b.dart_vertex[d]].remove(d)
    b.opposite[d] = DEAD


def _smooth(b: DrawingBuilder, c: int) -> None:
    """Remove a degree-2 fake vertex, merging its two segments."""
    rot = b.rotations[c]
    if len(rot) != 2:
        raise OperationError("BAD_CROSSING",
                             f"cannot smooth vertex {c} of degree {len(rot)}")
    t1, t2 = rot
    e = b.dart_edge[t1]
    far1 = b.opposite[t1]
    far2 = b.opposite[t2]
    b.opposite[far1] = far2
    b.opposite[far2] = far1
    b.rotations[c] = []
    b.opposite[t1] = DEAD
    b.opposite[t2] = DEAD
    b.edges[e][2] = None


def builder_is_connected(b: DrawingBuilder) -> bool:
    # smoothed-away fakes (empty rotation) no longer exist; an isolated
    # true vertex, however, is a real component of its own
    live = [v for v in range(len(b.kinds))
            if b.rotations[v] or b.kinds[v] is VertexKind.TRUE]
    if not live:
        return False
    seen = {live[0]}
    stack = [live[0]]
    while stack:
        v = stack.pop()
        for d in b.rotations[v]:
            w = b.dart_vertex[b.opposite[d]]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen & set(live)) == len(live)


def finish_with_ids(b: DrawingBuilder):
    """``b.finish()`` with the builder id of each vertex, edge and dart of
    the drawing: (graph, vertex_ids, edge_ids, dart_ids), as
    ``build._compact`` returns them."""
    return _compact(b.kinds, b.rotations, b.opposite, b.dart_edge, b.edges)


def builder_delete_edges(g: OnePlaneGraph, edges) -> Subdrawing | None:
    """Delete the edges one at a time on a builder copy of ``g``, then
    finish; None when the deletion disconnects the drawing."""
    edges = tuple(edges)
    b = DrawingBuilder.from_graph(g)
    for e in edges:
        delete_edge(b, e)
    return Subdrawing(*finish_with_ids(b), g, edges) if builder_is_connected(b) else None


@dataclass(frozen=True)
class Deletion:
    """A drawing minus some edges: the finished result with its id maps, the
    face merge on the source drawing, and the merge class of each face of
    ``result.graph``."""

    result: Subdrawing
    merge: FaceMerge
    face_class: tuple[int, ...]


def merge_deletion(g: OnePlaneGraph, edges) -> Deletion | None:
    """``builder_delete_edges`` with each face of the result mapped to its
    merge class.  None when the deletion disconnects the drawing."""
    edges = tuple(edges)
    res = builder_delete_edges(g, edges)
    if res is None:
        return None
    merge = FaceMerge(g, edges)
    # deletion keeps every surviving dart, so its face in the result is the
    # merge class of its face in g
    g_face, h_face = g.map.face_of_dart, res.graph.map.face_of_dart
    face_class: list[int | None] = [None] * len(res.graph.map.face_walks)
    for new, old in enumerate(res.dart_ids):
        f, cls = h_face[new], merge.find(g_face[old])
        if face_class[f] is None:
            face_class[f] = cls
        elif face_class[f] != cls:
            raise DrawingError(
                f"face {f} left by the deletion spans merge classes "
                f"{face_class[f]} and {cls}")
    return Deletion(res, merge, tuple(face_class))


@dataclass(frozen=True)
class ReferenceSkeleton:
    """A skeleton by the builder path: the deletion, and the color and the
    merged faces of ``g`` of each of its faces."""

    sub: Subdrawing
    colors: tuple[FaceClass, ...]
    face_members: tuple[frozenset[int], ...]


def reference_skeleton(g: OnePlaneGraph, removed=None) -> ReferenceSkeleton:
    """``transform.skeleton`` by ``merge_deletion``, for valid ``removed``
    (by default the larger edge of each crossing pair): each face of the
    result is BLUE when its merge class is one true face of ``g``."""
    if removed is None:
        removed = [b for _, _, b in g.crossing_pairs]
    cut = merge_deletion(g, sorted(removed))
    if cut is None:
        raise OperationError("DISCONNECTED",
                             "removing the edges disconnects the drawing")
    res, src_faces = cut.result, reference_faces(g)
    class_faces: dict[int, set[int]] = {}
    for i in range(len(src_faces)):
        class_faces.setdefault(cut.merge.find(i), set()).add(i)
    members = tuple(frozenset(class_faces[c]) for c in cut.face_class)
    colors = tuple(
        FaceClass.BLUE if len(ids) == 1
        and src_faces[next(iter(ids))].classification is FaceClass.TRUE
        else FaceClass.RED
        for ids in members)
    return ReferenceSkeleton(res, colors, members)


def reference_near_optimal(g: OnePlaneGraph) -> list[str]:
    """``analyze.check_near_optimal`` on the faces of ``merge_deletion``: each
    face of H = g minus its crossed edges is a merge class, and a crossing
    lies in the class of its four faces."""
    bad: list[str] = []
    crossed = [e for e, r in enumerate(g.edges) if r.crossing is not None]
    cut = merge_deletion(g, crossed)
    if cut is None:
        return ["non-crossing subgraph is disconnected"]
    h = cut.result.graph
    crossing_home: dict[int, list[int]] = {}
    for c in g.map.fake_vertices:
        home = cut.merge.find(g.map.face_of_dart[g.map.rotations[c][0]])
        crossing_home.setdefault(home, []).append(c)

    hf = reference_faces(h)
    for f in hf:
        orig = tuple(cut.result.vertex_ids[v] for v in f.vertices)
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

    for e, ds in enumerate(edge_darts(h)):
        d = ds[0]
        f1 = hf.face_of_dart[d]
        f2 = hf.face_of_dart[h.map.opposite[d]]
        if f1 != f2 and hf[f1].is_triangle() and hf[f2].is_triangle():
            u, v = h.edges[e].ends
            bad.append(
                f"edge {cut.result.vertex_ids[u]}-{cut.result.vertex_ids[v]} "
                "shared by two triangles")
    return bad


# ---------------------------------------------------------------------------
# The whole dual as a multi-edge list: the construction ``transform.dual``
# replaced
# ---------------------------------------------------------------------------

def dual_edges(pmap: PlanarMap) -> list[tuple[int, int]]:
    """The dual of a map, parallel edges and loops kept: one edge between
    the faces on the two sides of each segment, sorted."""
    fod = pmap.face_of_dart
    return sorted((fod[d], fod[o]) for d, o in enumerate(pmap.opposite) if d < o)


def dual_neighbors(pmap: PlanarMap, colors, color) -> dict[int, frozenset[int]]:
    """``transform.dual`` from ``dual_edges``: the distinct neighbors of
    every face, loops dropped, restricted to the faces of one color."""
    adj: list[set[int]] = [set() for _ in pmap.face_walks]
    for a, b in dual_edges(pmap):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {f: frozenset(w for w in adj[f] if colors[w] is color)
            for f, c in enumerate(colors) if c is color}


# ---------------------------------------------------------------------------
# Simple graphs as vertex and edge lists, and connectivity oracles on them
# ---------------------------------------------------------------------------

def simple_graph(vertices, edges) -> SimpleGraph:
    """The simple graph on ``vertices`` (any order) with the given edge
    pairs, as the adjacency a SimpleGraph holds."""
    adj: dict[int, set[int]] = {v: set() for v in sorted(vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return SimpleGraph({v: frozenset(ws) for v, ws in adj.items()})


def edge_pairs(sg: SimpleGraph) -> list[tuple[int, int]]:
    """The edges of ``sg`` as sorted pairs (u, v), u < v."""
    return [(v, w) for v, ws in sg.adjacency.items() for w in sorted(ws) if w > v]


def brute_force_connectivity(sg: SimpleGraph) -> int:
    """Minimum size of a vertex subset whose removal disconnects the graph,
    by exhaustive enumeration in increasing size; n-1 when no cut exists."""
    n = sg.order
    assert sg.is_connected()
    for size in range(n - 1):
        for subset in combinations(sg.vertices, size):
            rest = sg.without(subset)
            if rest.order >= 2 and not rest.is_connected():
                return size
    return n - 1


def rebuild_local_connectivity(sg: SimpleGraph, s: int, t: int, cap: int) -> int:
    """Max number of internally disjoint s-t paths (s,t non-adjacent), by
    augmenting unit flows in a split-vertex digraph built for this pair
    alone; stops early once ``cap`` is matched."""
    idx = {v: i for i, v in enumerate(sg.vertices)}
    n = sg.order
    # node 2i = v_in, 2i+1 = v_out
    graph: list[list[list[int]]] = [[] for _ in range(2 * n)]   # [to, cap, rev]

    def arc(a, b, c):
        graph[a].append([b, c, len(graph[b])])
        graph[b].append([a, 0, len(graph[a]) - 1])

    big = n
    for v in sg.vertices:
        i = idx[v]
        arc(2 * i, 2 * i + 1, 1 if v not in (s, t) else big)
    for u, v in edge_pairs(sg):
        arc(2 * idx[u] + 1, 2 * idx[v], big)
        arc(2 * idx[v] + 1, 2 * idx[u], big)

    src, dst = 2 * idx[s] + 1, 2 * idx[t]
    flow = 0
    while flow < cap:
        parent: list[tuple[int, int] | None] = [None] * (2 * n)
        parent[src] = (src, -1)
        q = deque([src])
        while q and parent[dst] is None:
            a = q.popleft()
            for j, (b, c, _r) in enumerate(graph[a]):
                if c > 0 and parent[b] is None:
                    parent[b] = (a, j)
                    q.append(b)
        if parent[dst] is None:
            break
        b = dst
        while b != src:
            a, j = parent[b]
            graph[a][j][1] -= 1
            rev = graph[a][j][2]
            graph[b][rev][1] += 1
            b = a
        flow += 1
    return flow


def all_pairs_connectivity(sg: SimpleGraph) -> int:
    """Vertex connectivity by a flow from a minimum-degree vertex s to every
    non-neighbor and between every non-adjacent pair of neighbors of s,
    each flow capped at the running minimum (n-1 at the start)."""
    s = min(sg.vertices, key=lambda v: (sg.degree(v), v))
    nb = sg.neighbors(s)
    best = sg.order - 1
    for t in sg.vertices:
        if t != s and t not in nb:
            best = min(best, rebuild_local_connectivity(sg, s, t, best))
    for x, y in combinations(sorted(nb), 2):
        if not sg.has_edge(x, y):
            best = min(best, rebuild_local_connectivity(sg, x, y, best))
    return best


class SplitNetwork(NamedTuple):
    """The explicit arc table that ``flow.menger``'s implicit network
    replaced.  Residual network of a graph with every vertex split in two: node 2i
    is the in-copy of the vertex with ``index`` i and 2i+1 its out-copy,
    joined by a unit arc (arc 4i); each edge uv gives unit arcs u_out->v_in
    and v_out->u_in (an inner vertex passes one unit, so no edge arc needs
    more), numbered from 4n in order of (tail, head) index.  Node ``sink``
    = 2n is fed by an arc from every out-copy (arc 4i+2) of capacity 0,
    which a fan opens for its settled vertices: fed from the out-copy, a
    settled vertex ends at most one path.
    Arc ``a`` runs to ``head[a]``, its reverse is ``a ^ 1``, and
    ``arcs[x]`` lists the arcs leaving node x by the index of their heads:
    at an in-copy its own unit arc first, at an out-copy its sink arc first
    and its reverse unit arc last."""

    index: dict[int, int]
    head: list[int]
    cap0: list[int]
    arcs: tuple[tuple[int, ...], ...]

    @property
    def sink(self) -> int:
        return len(self.arcs) - 1


def split_network(sg: SimpleGraph, index: dict[int, int]) -> SplitNetwork:
    """The network of ``sg`` with its vertices numbered by ``index``, which
    lists them in that order."""
    n = len(index)
    adj = sg.adjacency
    nbrs = [sorted(map(index.__getitem__, adj[v])) for v in index]
    head = [x for i in range(n) for x in (2 * i + 1, 2 * i, 2 * n, 2 * i + 1)]
    head += [x for i, ns in enumerate(nbrs) for j in ns for x in (2 * j, 2 * i + 1)]
    ins = [[4 * i] for i in range(n)]
    outs = []
    a = 4 * n
    for i, ns in enumerate(nbrs):
        outs.append((4 * i + 2, *range(a, a + 2 * len(ns), 2), 4 * i + 1))
        for j in ns:                    # i ascends, so each in-list does
            ins[j].append(a + 1)
            a += 2
    arcs = tuple(x for i in range(n) for x in (tuple(ins[i]), outs[i]))
    return SplitNetwork(index, head, [1, 0, 0, 0] * n + [1, 0] * (2 * sg.size),
                        arcs + ((),))


def split_paths(net: SplitNetwork, res: list[int], src: int, dst: int, cap: int,
                keep: bool) -> int:
    """Up to ``cap`` unit paths from node ``src`` to node ``dst`` through
    the arcs open in ``res``, each found depth-first in arc order and
    applied to ``res``; unless ``keep``, they are taken back before
    returning.  From t_out to the sink, with the sink arcs of the settled
    vertices open, this is a fan of t to distinct settled vertices; from
    s_out to t_in, it counts internally disjoint s-t paths."""
    head, arcs = net.head, net.arcs
    paths: list[list[int]] = []
    while len(paths) < cap:
        seen = {src}
        path: list[int] = []            # arcs from src to the top of todo
        todo = [iter(arcs[src])]
        while todo:
            for a in todo[-1]:
                if res[a] and head[a] not in seen:
                    break
            else:
                todo.pop()
                if path:
                    path.pop()
                continue
            y = head[a]
            path.append(a)
            if y == dst:
                break
            seen.add(y)
            todo.append(iter(arcs[y]))
        else:
            break
        for a in path:
            res[a] -= 1
            res[a ^ 1] += 1
        paths.append(path)
    if not keep:
        for path in paths:
            for a in path:
                res[a] += 1
                res[a ^ 1] -= 1
    return len(paths)


def split_residual_cut(net: SplitNetwork, src: int, res: list[int]) -> frozenset[int]:
    """Vertices whose in-copy, but not out-copy, is reachable from ``src``
    once a maximum flow in ``res`` has stopped.  Edge arcs count as
    unbounded, so the cut they leave holds only vertex arcs."""
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


def split_network_menger(sg: SimpleGraph) -> tuple[int, frozenset[int] | None]:
    """κ and a minimum separator (None for a complete graph) by the settle
    scheme of ``flow.menger`` on one explicit split-vertex network indexed
    by BFS position: a copy of the capacity table for the settled set and
    for every s-t flow, and each fan searched from scratch, with no
    direct paths placed first."""
    n = sg.order
    if n < 2:
        raise OperationError("BAD_PARAMETER", "connectivity needs at least 2 vertices")
    adj = sg.adjacency
    _, s = min((len(ws), v) for v, ws in adj.items())
    order, index = [s], {s: 0}
    for v in order:
        for w in sorted(adj[v]):
            if w not in index:
                index[w] = len(order)
                order.append(w)
    if len(order) < n:
        raise OperationError("DISCONNECTED", "graph is not connected")

    net = split_network(sg, index)
    nb = adj[s]
    best, cut = len(nb), None
    settled = net.cap0[:]               # sink arcs of settled vertices open

    def st_flow(x, y):
        nonlocal best, cut
        res = net.cap0[:]
        f = split_paths(net, res, 2 * index[x] + 1, 2 * index[y], best, keep=True)
        if f < best:
            best, cut = f, (net, 2 * index[x] + 1, res)

    for i in range(1, len(nb) + 1):     # N(s) comes first in BFS order
        settled[4 * i + 2] = 1          # v_out -> sink
    for i in range(len(nb) + 1, n):
        t = order[i]
        if (sum(index[w] < i for w in adj[t]) < best and
                split_paths(net, settled, 2 * i + 1, net.sink, best, keep=False) < best):
            st_flow(s, t)
        settled[4 * i + 2] = 1
    nbl = sorted(nb)
    for i, x in enumerate(nbl):
        for y in nbl[i + 1:]:
            if y not in adj[x]:
                st_flow(x, y)
    if best == n - 1:
        return best, None
    return best, frozenset(nb) if cut is None else split_residual_cut(*cut)


def bfs_augment(net: SplitNetwork, res: list[int], src: int, dst: int,
                cap: int) -> int:
    """``split_paths`` keeping its paths, with each one found
    breadth-first: a fresh table of the arc that first reached each node,
    and a scan from ``src`` over the whole network, per path."""
    head, arcs = net.head, net.arcs
    found = 0
    while found < cap:
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
        found += 1
    return found


def bfs_fan_menger(sg: SimpleGraph) -> tuple[int, frozenset[int] | None]:
    """κ and a minimum separator (None for a complete graph) by the settle
    scheme of ``flow.menger`` with every fan and every s-t flow found
    breadth-first: one ``bfs_augment`` per fan, on a copy of the residual
    table per non-neighbor t, in a network indexed by vertex id with edge
    arcs in edge order."""
    n = sg.order
    if n < 2:
        raise OperationError("BAD_PARAMETER", "connectivity needs at least 2 vertices")
    if not sg.is_connected():
        raise OperationError("DISCONNECTED", "graph is not connected")

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
    for u, v in edge_pairs(sg):
        arc(2 * index[u] + 1, 2 * index[v])
        arc(2 * index[v] + 1, 2 * index[u])
    net = SplitNetwork(index, head, [1, 0, 0, 0] * n + [1, 0] * (2 * sg.size),
                       tuple(tuple(a) for a in arcs))

    s = min(sg.vertices, key=lambda v: (sg.degree(v), v))
    nb = sg.neighbors(s)
    best, cut = len(nb), None
    fan = net.cap0[:]
    settled = [False] * n

    def settle(v):
        settled[index[v]] = True
        fan[4 * index[v] + 2] = 1

    def st_flow(x, y):
        nonlocal best, cut
        res = net.cap0[:]
        f = bfs_augment(net, res, 2 * index[x] + 1, 2 * index[y], best)
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
                and bfs_augment(net, fan[:], 2 * index[t] + 1, net.sink, best) < best):
            st_flow(s, t)
        settle(t)
    nbl = sorted(nb)
    for i, x in enumerate(nbl):
        for y in nbl[i + 1:]:
            if not sg.has_edge(x, y):
                st_flow(x, y)
    if best == n - 1:
        return best, None
    return best, frozenset(nb) if cut is None else split_residual_cut(*cut)


def separates(sg: SimpleGraph, cut) -> bool:
    """True iff removing ``cut`` leaves at least two vertices that no path
    joins, by one breadth-first search of the rest."""
    rest = [v for v in sg.vertices if v not in cut]
    if len(rest) < 2:
        return False
    adj = {v: set() for v in rest}
    for u, v in edge_pairs(sg):
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        for w in adj[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) < len(rest)


def brute_force_is_maximal(g: OnePlaneGraph) -> bool:
    """Try every nonadjacent true pair against every face and every face
    pair sharing an uncrossed edge incident to neither endpoint."""
    pmap = g.map
    faces = reference_faces(g)
    true_vertices = list(pmap.true_vertices)
    boundaries = [
        {v for v in f.boundary if not pmap.is_fake(v)} for f in faces
    ]
    shared_edges = []
    for rec, ds in zip(g.edges, edge_darts(g)):
        if rec.crossing is not None:
            continue
        d = ds[0]
        f1 = faces.face_of_dart[d]
        f2 = faces.face_of_dart[pmap.opposite[d]]
        if f1 != f2:
            shared_edges.append((f1, f2, rec.u, rec.v))

    sg = underlying(g)
    for u, v in combinations(true_vertices, 2):
        if sg.has_edge(u, v):
            continue
        for b in boundaries:
            if u in b and v in b:
                return False
        for f1, f2, a, bb in shared_edges:
            if {u, v} & {a, bb}:
                continue
            b1, b2 = boundaries[f1], boundaries[f2]
            if (u in b1 - b2 and v in b2 - b1) or (v in b1 - b2 and u in b2 - b1):
                return False
    return True


def face_set_insertion_candidates(g: OnePlaneGraph) -> tuple[InsertionCandidate, ...]:
    """Every admissible single-edge insertion, read off the ``Face`` objects
    of ``reference_faces(g)``: those inside each face, then those across each
    uncrossed edge, sorted by endpoints, kind, face ids and crossed edge."""
    fs = reference_faces(g)
    pmap = g.map
    on = [frozenset(v for v in f.boundary if not pmap.is_fake(v)) for f in fs]
    across = {}
    for e, (rec, ds) in enumerate(zip(g.edges, edge_darts(g))):
        if rec.crossing is None:
            d = ds[0]
            across[e] = (fs.face_of_dart[d], fs.face_of_dart[pmap.opposite[d]])
    adj = underlying(g).adjacency
    out = _in_face(range(len(fs)), on, adj) + _across(across, on, adj)
    return tuple(sorted(out, key=lambda c: (
        c.u, c.v, len(c.faces), c.faces, -1 if c.cross_edge is None else c.cross_edge)))


def rebuild_min_redraw_crossings(g: OnePlaneGraph, e: int) -> RedrawResult:
    """Minimum crossings of a redraw of edge ``e``, by building g - e and
    scanning each of its faces for both endpoints; on no common face, the
    route re-crosses e's old partner."""
    rec = g.edges[e]
    partner = g.crossing_partner(e)

    res = builder_delete_edges(g, (e,))
    if res is None:
        return RedrawResult(0, None, None)
    h = res.graph
    u, v = res.vertex_ids.index(rec.u), res.vertex_ids.index(rec.v)

    fs = reference_faces(h)
    for f in fs:
        if u in f.boundary and v in f.boundary:
            route = InsertionCandidate(min(u, v), max(u, v), (f.index,))
            return RedrawResult(0, route, h)

    assert partner is not None
    p = res.edge_ids.index(partner)
    d = edge_darts(h)[p][0]
    f1 = fs.face_of_dart[d]
    f2 = fs.face_of_dart[h.map.opposite[d]]
    if u not in fs[f1].boundary:
        f1, f2 = f2, f1
    assert u in fs[f1].boundary and v in fs[f2].boundary
    if u < v:
        route = InsertionCandidate(u, v, (f1, f2), p)
    else:
        route = InsertionCandidate(v, u, (f2, f1), p)
    return RedrawResult(1, route, h)


def face_merge_redrawable(g: OnePlaneGraph, e: int) -> bool:
    """Whether edge ``e`` = uv has a crossing-free redraw: with the faces of
    g merged across e's segments (``FaceMerge``), the classes of the faces
    at u's and at v's remaining darts meet.  An endpoint left with no dart
    is a component of its own, which can be placed in any face."""
    merge = FaceMerge(g, (e,))

    def at(v):
        return {merge.find(g.map.face_of_dart[d]) for d in g.map.rotations[v]
                if g.dart_edge[d] != e}
    at_u, at_v = at(g.edges[e].u), at(g.edges[e].v)
    return not at_u or not at_v or not at_u.isdisjoint(at_v)


def rebuild_first_redrawable(g: OnePlaneGraph):
    """(edge id, redraw) for the first crossed edge, in id order, that the
    rebuild finds redrawable without crossings; None if there is none."""
    for e, rec in enumerate(g.edges):
        if rec.crossing is not None:
            r = rebuild_min_redraw_crossings(g, e)
            if r.crossings == 0:
                return (e, r)
    return None


def per_vertex_lambda3(sg: SimpleGraph) -> int:
    """Odd-degree vertices w with deg(w) <= 9 or G-w 2-connected, each G-w
    decided by its own max-flow."""
    return sum(1 for w in sg.vertices
               if sg.degree(w) % 2 == 1
               and (sg.degree(w) <= 9 or connectivity_at_least(sg.without([w]), 2)))


def scan_delete_edge(b: DrawingBuilder, e: int) -> None:
    """``delete_edge`` finding the edge's live darts by scanning every dart
    of the builder."""
    crossing = b.edges[e][2]
    for d in [d for d, de in enumerate(b.dart_edge) if de == e and b.opposite[d] != DEAD]:
        _kill_dart(b, d)
    b.edges[e] = None
    if crossing is not None:
        _smooth(b, crossing)


def cone_cross_quad(b: DrawingBuilder, walk, first_diagonal: int = 0):
    """DrawingBuilder.cross_quad by coning the face with a fake center and
    merging its four spokes into two crossing edges, which leaves the four
    spoke edges dead."""
    if err := b.quad_error(walk):
        raise err
    vs = [b.dart_vertex[d] for d in walk]
    spokes = len(b.edges)
    c = b.cone(walk)
    b.kinds[c] = VertexKind.FAKE
    order = (0, 2, 1, 3) if first_diagonal == 0 else (1, 3, 0, 2)
    for e in range(spokes, spokes + 4):
        b.edges[e] = None
    e1 = b._new_edge(vs[order[0]], vs[order[1]], c)
    e2 = b._new_edge(vs[order[2]], vs[order[3]], c)
    # the center's rotation lists the spokes in reverse corner order
    for corner, e in zip(order, (e1, e1, e2, e2)):
        t = b.rotations[c][3 - corner]
        b.dart_edge[b.opposite[t]] = b.dart_edge[t] = e
    return e1, e2, c


def stepwise_saturation(g: OnePlaneGraph,
                        policy: SaturationPolicy = SaturationPolicy.DETERMINISTIC,
                        seed: int | None = None) -> list[OnePlaneGraph]:
    """Every drawing a greedy closure passes through, the saturated one last:
    each step enumerates the candidates of the whole drawing from its faces
    (``face_set_insertion_candidates``) and rebuilds and validates it after
    the insertion (first candidate, or a seeded draw from the sorted list)."""
    rng = random.Random(seed) if policy is SaturationPolicy.SEEDED else None
    path = [g]
    while cands := face_set_insertion_candidates(g):
        g = apply_insertion(g, cands[0] if rng is None else rng.choice(cands))
        path.append(g)
    return path


def resort_saturation(g: OnePlaneGraph,
                      policy: SaturationPolicy = SaturationPolicy.DETERMINISTIC,
                      seed: int | None = None) -> OnePlaneGraph:
    """Greedy closure on one ``_Closure`` that orders the whole live set at
    every step: it ranks every face of every live candidate, then takes the
    minimum under the full key, or a seeded choice from the sorted list."""
    rng = random.Random(seed) if policy is SaturationPolicy.SEEDED else None
    s = _Closure(g)
    while live := s.candidates():
        rank = {f: s.rank(f) for f in {f for c in live for f in c.faces}}

        def key(c):
            return (c.u, c.v, len(c.faces), tuple(rank[f] for f in c.faces),
                    -1 if c.cross_edge is None else c.cross_edge)
        s.insert(min(live, key=key) if rng is None else rng.choice(sorted(live, key=key)))
    return g if s.b is None else s.b.finish()


def rescan_random_seed(n: int, seed: int) -> OnePlaneGraph:
    """gen_random_seed walking every face of the builder again before each
    cone and each crossing pair."""
    if n < 4:
        raise OperationError("BAD_PARAMETER", f"need n >= 4, got {n}")
    rng = random.Random(seed)
    if rng.random() < 0.5:
        base = [[2, 1], [0, 2], [1, 0]]
        start = 3
    else:
        m = rng.randint(4, min(6, n))
        base = [[(i - 1) % m, (i + 1) % m] for i in range(m)]
        start = m
    b = DrawingBuilder.from_neighbors(base)
    for _ in range(start, n):
        b.cone(rng.choice(_all_walks(b)))
    if rng.random() < 0.6:
        for _ in range(rng.randint(1, 3)):
            quads = [w for w in _all_walks(b) if b.quad_error(w) is None]
            if not quads:
                break
            b.cross_quad(rng.choice(quads))
    return b.finish()


def _all_walks(b: DrawingBuilder):
    seen = set()
    walks = []
    for d in range(len(b.opposite)):
        if d in seen or b.opposite[d] < 0:
            continue
        w = b.face_walk_from(d)
        seen.update(w)
        walks.append(w)
    return walks


def roundtrip_triangulate_all(g: OnePlaneGraph, triangles: bool) -> OnePlaneGraph:
    """XH (``triangles`` False) or YH from a finished HH(k), copied into a
    second builder; each quadrangle's first diagonal joins the pair of
    opposite corners of smaller degree sum in ``g``."""
    b = DrawingBuilder.from_graph(g)
    for f in reference_faces(g):
        if f.is_quadrangle():
            vs = f.vertices
            deg = [g.map.degree(v) for v in vs]
            key0 = (deg[0] + deg[2], min(vs[0], vs[2]))
            key1 = (deg[1] + deg[3], min(vs[1], vs[3]))
            b.cross_quad(list(f.darts), first_diagonal=0 if key0 <= key1 else 1)
        elif triangles and f.is_triangle():
            b.cone(list(f.darts))
    return b.finish()


def roundtrip_M_triangulated(k: int) -> OnePlaneGraph:
    """gen_M_triangulated from a finished M(k), copied into a second builder."""
    if k == 1:
        return _xm1_base().finish()
    g = gen_M(k)
    b = DrawingBuilder.from_graph(g)
    for f in reference_faces(g):
        walk, quad = list(f.darts), f.vertices
        if f.boundary in (frozenset(range(4)), frozenset(range(4 * k - 4, 4 * k))):
            a = _lowest_diagonal_anchor(quad)
            b.insert_edge_one_face(walk, quad[a], quad[(a + 2) % 4])
        else:
            pos = _first_inner_corner(quad)
            b.insert_edge_one_face(walk, quad[(pos - 1) % 4], quad[(pos + 1) % 4])
    return b.finish()


def roundtrip_XM(k: int) -> OnePlaneGraph:
    """gen_XM through finished drawings: the faces of a finished M(k) are
    filled on a second builder, then each crossing diagonal is an
    insertion candidate that ``apply_insertion`` finishes."""
    if k == 1:
        g = _xm1_base().finish()
        for tri, far, crossed in (((0, 1, 2), 3, (0, 2)), ((0, 1, 3), 2, (1, 3))):
            fi = next(f.index for f in reference_faces(g) if f.boundary == frozenset(tri))
            g = k1_triangulate(g, fi)
            g = roundtrip_crossing_diagonal(g, g.map.n_vertices - 1, far, crossed)
        return g
    g = gen_M(k)
    b = DrawingBuilder.from_graph(g)
    cones = []
    for f in reference_faces(g):
        walk, quad = list(f.darts), f.vertices
        if f.boundary == frozenset(range(4)):
            a = _lowest_diagonal_anchor(quad)
            pair = (_k2_on_builder(b, walk, a), quad, a)
        elif f.boundary == frozenset(range(4 * k - 4, 4 * k)):
            b.cross_quad(walk, first_diagonal=_lowest_diagonal_anchor(quad))
        else:
            cones.append((b.cone(walk), quad))
    g = b.finish()
    (x, y), quad, a = pair
    g = roundtrip_crossing_diagonal(g, quad[a], quad[(a + 2) % 4], (x, y))
    for c, quad in cones:
        pos = _first_inner_corner(quad)
        g = roundtrip_crossing_diagonal(g, quad[(pos - 1) % 4], quad[(pos + 1) % 4],
                                        (c, quad[pos]))
    return g


def roundtrip_crossing_diagonal(g: OnePlaneGraph, u: int, v: int,
                                crossed: tuple[int, int]) -> OnePlaneGraph:
    """Edge u-v across the uncrossed edge with endpoints ``crossed``, as an
    insertion candidate from the face through the smaller endpoint."""
    e = next(i for i, r in enumerate(g.edges)
             if {r.u, r.v} == set(crossed) and r.crossing is None)
    fs = reference_faces(g)
    d = edge_darts(g)[e][0]
    f1, f2 = fs.face_of_dart[d], fs.face_of_dart[g.map.opposite[d]]
    if u not in fs[f1].boundary:
        f1, f2 = f2, f1
    if u > v:
        u, v, f1, f2 = v, u, f2, f1
    return apply_insertion(g, InsertionCandidate(u, v, (f1, f2), e))


def reference_check(kinds, rotations, opposite, edges, dart_edge) -> list[Violation]:
    """``core.check`` as a per-element loop over every table: the full list
    of violations, each naming its dart, edge or vertex."""
    violations: list[Violation] = []
    bad = violations.append

    kinds = tuple(kinds)
    rotations = tuple(tuple(r) for r in rotations)
    opposite = tuple(opposite)
    edges = tuple(edges)
    dart_edge = tuple(dart_edge)

    n_darts = len(opposite)
    if len(kinds) != len(rotations):
        bad(Violation("BAD_INVOLUTION", "vertex kind/rotation tables differ in length"))
        return violations

    # Dart partition: every dart id appears once across all rotations.
    seen = [0] * n_darts
    structurally_ok = True
    for rot in rotations:
        for d in rot:
            if not (0 <= d < n_darts):
                bad(Violation("BAD_INVOLUTION", f"dart id {d} out of range"))
                structurally_ok = False
            else:
                seen[d] += 1
    if structurally_ok and any(c != 1 for c in seen):
        dups = [d for d, c in enumerate(seen) if c != 1]
        bad(Violation("BAD_INVOLUTION",
                      f"darts must appear in exactly one rotation: {dups[:8]}"))
        structurally_ok = False

    # Fixed-point-free involution.
    if structurally_ok:
        for d, o in enumerate(opposite):
            if not (0 <= o < n_darts) or opposite[o] != d or o == d:
                bad(Violation("BAD_INVOLUTION",
                              f"opposite is not a fixed-point-free involution at dart {d}"))
                structurally_ok = False
                break

    if not structurally_ok:
        return violations

    pmap = PlanarMap(kinds, rotations, opposite)

    if not pmap.is_connected():
        bad(Violation("NOT_CONNECTED", "the map is not connected"))
        return violations

    if pmap.euler_characteristic() != 2:
        bad(Violation("POSITIVE_GENUS",
                      f"V-E+F = {pmap.euler_characteristic()}, expected 2"))
        return violations

    # Edge table against segments.
    if len(dart_edge) != n_darts:
        bad(Violation("BAD_EDGE_TABLE", "dart-to-edge table has wrong length"))
        return violations
    buckets: list[list[int]] = [[] for _ in edges]
    for d, e in enumerate(dart_edge):
        if not (0 <= e < len(edges)):
            bad(Violation("BAD_EDGE_TABLE", f"dart {d} maps to unknown edge {e}"))
            return violations
        buckets[e].append(d)

    for e, rec in enumerate(edges):
        wrong = [w for w in (rec.u, rec.v)
                 if not (0 <= w < len(kinds)) or kinds[w] is VertexKind.FAKE]
        for w in wrong:
            bad(Violation("BAD_EDGE_TABLE",
                          f"edge {e} endpoint {w} is not a true vertex"))
        if wrong:
            continue
        darts = buckets[e]
        segs = _reference_segments_of(pmap, darts, opposite)
        if segs is None:
            bad(Violation("BAD_EDGE_TABLE",
                          f"edge {e} darts are not whole segments"))
            continue
        endsets = [frozenset((pmap.dart_vertex[d], pmap.dart_vertex[opposite[d]]))
                   for d in segs]
        if rec.crossing is None:
            if len(segs) != 1 or endsets[0] != frozenset((rec.u, rec.v)):
                bad(Violation("BAD_EDGE_TABLE",
                              f"uncrossed edge {e} must be one segment {rec.u}-{rec.v}"))
        else:
            c = rec.crossing
            if not (0 <= c < len(kinds)) or kinds[c] is not VertexKind.FAKE:
                bad(Violation("BAD_EDGE_TABLE",
                              f"edge {e} crossing {c} is not a fake vertex"))
                continue
            want = {frozenset((rec.u, c)), frozenset((rec.v, c))}
            if len(segs) != 2 or set(endsets) != want:
                bad(Violation("BAD_EDGE_TABLE",
                              f"crossed edge {e} must be two segments through {c}"))

    # Fake vertices: degree 4, two edges, alternating, no shared endpoint.
    pair_seen: dict[frozenset[int], int] = {}
    for c in pmap.fake_vertices:
        rot = rotations[c]
        if len(rot) != 4:
            bad(Violation("FAKE_DEGREE_NOT_4",
                          f"fake vertex {c} has degree {len(rot)}"))
            continue
        around = [dart_edge[d] for d in rot]
        if len(set(around)) != 2 or around[0] != around[2] or around[1] != around[3]:
            bad(Violation("BAD_CROSSING",
                          f"segments at fake vertex {c} do not alternate "
                          f"between two edges: {around}"))
            continue
        e1, e2 = sorted(set(around))
        r1, r2 = edges[e1], edges[e2]
        if r1.crossing != c or r2.crossing != c:
            bad(Violation("BAD_CROSSING",
                          f"edges {e1},{e2} meet at {c} but do not record it"))
        if {r1.u, r1.v} & {r2.u, r2.v}:
            bad(Violation("ADJACENT_EDGES_CROSS",
                          f"edges {e1} and {e2} share an endpoint and cross at {c}"))
        key = frozenset((e1, e2))
        if key in pair_seen:
            bad(Violation("EDGE_MULTICROSSED",
                          f"edges {e1} and {e2} cross more than once"))
        pair_seen[key] = c

    # Simplicity of the underlying graph.
    ends_seen: set[frozenset[int]] = set()
    for e, rec in enumerate(edges):
        if rec.u == rec.v:
            bad(Violation("NOT_SIMPLE", f"edge {e} is a loop at {rec.u}"))
            continue
        key = frozenset((rec.u, rec.v))
        if key in ends_seen:
            bad(Violation("NOT_SIMPLE", f"parallel edge {e} between {rec.u},{rec.v}"))
        ends_seen.add(key)

    # The four faces around any crossing are pairwise distinct.
    for c in pmap.fake_vertices:
        rot = rotations[c]
        if len(rot) != 4:
            continue
        incident = {pmap.face_of_dart[d] for d in rot}
        if len(incident) != 4:
            bad(Violation("CROSSING_FACES_NOT_DISTINCT",
                          f"fake vertex {c} touches faces {sorted(incident)}"))

    return violations


def _reference_segments_of(pmap: PlanarMap, darts, opposite):
    """Group an edge's darts into whole segments; None if they don't pair up."""
    dset = set(darts)
    segs = []
    while dset:
        d = min(dset)
        o = opposite[d]
        if o not in dset:
            return None
        dset.discard(d)
        dset.discard(o)
        segs.append(d)
    return segs


# ---------------------------------------------------------------------------
# Ring tables and the cycle walk: the loops that ``generators._ring_table``
# and ``analyze.is_separating_cycle``'s induced-subgraph test replaced
# ---------------------------------------------------------------------------

def loop_h_table(k: int) -> list[list[int]]:
    """Rotation-ordered neighbor lists of H(k), ring by ring: ring j has
    2^(j+2) vertices, and ring-j vertex i connects to ring-(j+1) vertices
    2i and 2i+2."""
    rings, nxt = [], 0
    for j in range(k):
        rings.append(list(range(nxt, nxt + 2 ** (j + 2))))
        nxt += 2 ** (j + 2)
    table = [[] for _ in range(nxt)]
    for j, ring in enumerate(rings):
        size = len(ring)
        for i, v in enumerate(ring):
            rot = []
            if j + 1 < k:
                outer = rings[j + 1]
                rot.append(outer[(2 * i) % len(outer)])
                rot.append(outer[(2 * i + 2) % len(outer)])
            rot.append(ring[(i + 1) % size])
            if j > 0 and i % 2 == 0:
                inner = rings[j - 1]
                rot.append(inner[(i // 2) % len(inner)])
                rot.append(inner[(i // 2 - 1) % len(inner)])
            rot.append(ring[(i - 1) % size])
            table[v] = rot
    return table


def loop_m_table(k: int) -> list[list[int]]:
    """Rotation-ordered neighbor lists of the prism M(k): k quadrangles,
    vertex i of ring r joined to vertex i of rings r - 1 and r + 1."""
    table = []
    for r in range(k):
        for i in range(4):
            rot = []
            if r + 1 < k:
                rot.append(4 * (r + 1) + i)
            rot.append(4 * r + (i + 1) % 4)
            if r > 0:
                rot.append(4 * (r - 1) + i)
            rot.append(4 * r + (i - 1) % 4)
            table.append(rot)
    return table


def walk_separating_cycle(pmap: PlanarMap, subset) -> bool:
    """``is_separating_cycle`` walking the induced 2-regular graph from one
    vertex and back."""
    s = set(subset)
    if len(s) < 3:
        return False
    sg = map_graph(pmap)
    inside = {v: [w for w in sg.neighbors(v) if w in s] for v in s}
    if any(len(ns) != 2 for ns in inside.values()):
        return False
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


# ---------------------------------------------------------------------------
# The check path's tables as they were built before it read them off the
# validated map: a sort-based underlying graph, a distinct-vertex
# triangulation test and the ``edge_darts`` reading of the faces beside
# each segment
# ---------------------------------------------------------------------------

def sorted_underlying(g: OnePlaneGraph) -> SimpleGraph:
    """The abstract simple graph of the drawing, its adjacency built from
    the edge table's sorted edge pairs."""
    edges = sorted((min(r.u, r.v), max(r.u, r.v)) for r in g.edges)
    return simple_graph(g.map.true_vertices, edges)


def distinct_vertex_is_triangulation(pmap: PlanarMap) -> bool:
    """True iff every face walk is a triangle on three distinct vertices."""
    for walk in pmap.face_walks:
        if len(walk) != 3:
            return False
        if len({pmap.dart_vertex[d] for d in walk}) != 3:
            return False
    return True


def edge_dart_sides(g: OnePlaneGraph) -> dict[int, tuple[int, int]]:
    """The faces on the two sides of each uncrossed edge, read at the first
    of its ``edge_darts``."""
    fod, opposite = g.map.face_of_dart, g.map.opposite
    return {e: (fod[ds[0]], fod[opposite[ds[0]]])
            for e, (rec, ds) in enumerate(zip(g.edges, edge_darts(g)))
            if rec.crossing is None}


def edge_dart_redrawable(g: OnePlaneGraph):
    """``maximality._redrawable`` with the faces beside each segment of a
    crossed edge read off its ``edge_darts``, keyed by the tail of each
    dart (a crossing's key is overwritten, and never read)."""
    fod, dv, opposite = g.map.face_of_dart, g.map.dart_vertex, g.map.opposite
    at = [set(map(fod.__getitem__, rot)) for rot in g.map.rotations]
    for e, (rec, ds) in enumerate(zip(g.edges, edge_darts(g))):
        if rec.crossing is None:
            continue
        u, v = rec.u, rec.v
        beside = {dv[d]: (fod[d], fod[opposite[d]]) for d in ds}
        if not (at[u].isdisjoint(at[v]) and at[u].isdisjoint(beside[v])
                and at[v].isdisjoint(beside[u])):
            yield e
