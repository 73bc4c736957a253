"""Core data model: rotation-system planar maps with crossing annotations.

A drawing is stored combinatorially as its planarization: a connected
genus-0 combinatorial map whose vertices are either *true* (original) or
*fake* (degree-4 crossing vertices).  Every edge of the original graph is
either a single segment of the map or a pair of segments through one fake
vertex.  All structures are immutable after validation and safe to share.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, partial, wraps
from itertools import chain
from operator import eq, sub
from typing import NamedTuple


class VertexKind(Enum):
    TRUE = "true"
    FAKE = "fake"


class FaceClass(Enum):
    TRUE = "true"   # face of a planarization touching no fake vertex
    FAKE = "fake"   # face of a planarization touching a fake vertex
    BLUE = "blue"   # skeleton face equal to a true face
    RED = "red"     # skeleton face merged from fake faces


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class DrawingError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class Violation(NamedTuple):
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class ValidationError(DrawingError):
    """Raised by validate(); carries every violated invariant, not just one."""

    code = "VALIDATION_FAILED"

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def codes(self):
        return {v.code for v in self.violations}


class OperationError(DrawingError):
    """An operation was applied outside its precondition."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


# ---------------------------------------------------------------------------
# Planar map
# ---------------------------------------------------------------------------

# A type that caches derived tables subclasses the NamedTuple of its
# fields: the subclass gives its instances the ``__dict__`` that
# ``cached_property`` and ``once`` keep those tables in.
class _PlanarMapFields(NamedTuple):
    kinds: tuple[VertexKind, ...]
    rotations: tuple[tuple[int, ...], ...]
    opposite: tuple[int, ...]


class PlanarMap(_PlanarMapFields):
    """A connected combinatorial map on the sphere.

    ``rotations[v]`` lists the darts leaving ``v`` in cyclic (clockwise)
    order; ``opposite`` is the fixed-point-free involution pairing the two
    darts of each segment.  Faces are the orbits of
    ``d -> rotation-successor of opposite[d]``.
    """

    @property
    def n_vertices(self) -> int:
        return len(self.kinds)

    @property
    def n_darts(self) -> int:
        return len(self.opposite)

    @property
    def n_segments(self) -> int:
        return len(self.opposite) // 2

    @cached_property
    def dart_vertex(self) -> tuple[int, ...]:
        return self._derived[0]

    @cached_property
    def true_vertices(self) -> tuple[int, ...]:
        return self._derived[1]

    @cached_property
    def fake_vertices(self) -> tuple[int, ...]:
        return self._derived[2]

    @cached_property
    def face_walks(self) -> tuple[tuple[int, ...], ...]:
        """Canonical face walks: each starts at its minimum dart, faces
        ordered by that dart."""
        return self._derived[3]

    @cached_property
    def face_of_dart(self) -> tuple[int, ...]:
        return self._derived[4]

    @cached_property
    def _derived(self) -> tuple:
        """(dart_vertex, true_vertices, fake_vertices, face_walks,
        face_of_dart), from one scatter of the rotations.  Every dart,
        vertex and face id they keep is the rotations' own int object (id
        ``i`` is item ``i`` of their sorted darts), so they hold no int of
        their own.  It presumes the rotations hold each dart id once, which
        validation checks before reading any of them."""
        ids = sorted(chain.from_iterable(self.rotations))
        n, fake = self.n_vertices, VertexKind.FAKE
        vids = ids[:n] + list(range(len(ids), n))
        # nxt[d]: the rotation successor of d; the dart after d on its face
        # is nxt[opposite[d]]
        vertex, nxt = [-1] * self.n_darts, [-1] * self.n_darts
        for v, rot in zip(vids, self.rotations):
            for d, e in zip(rot, rot[1:] + rot[:1]):
                vertex[d], nxt[d] = v, e
        phi = [nxt[o] for o in self.opposite]
        face = [-1] * self.n_darts
        walks = []
        for d0 in ids:
            if face[d0] >= 0:
                continue
            f = ids[len(walks)]
            walk = []
            d = d0
            while face[d] < 0:
                face[d] = f
                walk.append(d)
                d = phi[d]
            walks.append(tuple(walk))
        return (tuple(vertex),
                tuple([v for v, k in zip(vids, self.kinds) if k is not fake]),
                tuple([v for v, k in zip(vids, self.kinds) if k is fake]),
                tuple(walks), tuple(face))

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def is_fake(self, v: int) -> bool:
        return self.kinds[v] is VertexKind.FAKE

    def is_connected(self) -> bool:
        """One breadth-first sweep from vertex 0, a frontier at a time."""
        if not self.kinds:
            return False
        head, rotations, opposite = self.dart_vertex, self.rotations, self.opposite
        seen, frontier = {0}, {0}
        while frontier:
            frontier = {head[opposite[d]] for v in frontier for d in rotations[v]} - seen
            seen |= frontier
        return len(seen) == len(self.kinds)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_segments + len(self.face_walks)


# ---------------------------------------------------------------------------
# One-plane graphs
# ---------------------------------------------------------------------------

class EdgeRec(NamedTuple):
    u: int
    v: int
    crossing: int | None = None     # fake vertex id, when the edge is crossed

    @property
    def ends(self) -> tuple[int, int]:
        return (self.u, self.v)


# edge_rec((u, v, crossing)): an EdgeRec made in C, skipping the NamedTuple's __new__
edge_rec = partial(tuple.__new__, EdgeRec)


class _OnePlaneGraphFields(NamedTuple):
    map: PlanarMap
    edges: tuple[EdgeRec, ...]
    dart_edge: tuple[int, ...]


class OnePlaneGraph(_OnePlaneGraphFields):
    """A validated 1-plane drawing: planarization plus edge table."""

    # -- basic counts -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of true vertices (the order of the underlying graph)."""
        return len(self.map.true_vertices)

    @property
    def size(self) -> int:
        """Number of edges of the underlying graph."""
        return len(self.edges)

    @property
    def crossing_count(self) -> int:
        return len(self.map.fake_vertices)

    @cached_property
    def crossing_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(fake vertex, edge a, edge b) per crossing, with a < b."""
        return tuple((c, *self.edges_at_crossing(c)) for c in self.map.fake_vertices)

    def crossing_partner(self, e: int) -> int | None:
        if not 0 <= e < len(self.edges):
            raise OperationError("UNKNOWN_EDGE", f"no edge {e}")
        c = self.edges[e].crossing
        if c is None:
            return None
        a, b = self.edges_at_crossing(c)
        return b if e == a else a

    def edges_at_crossing(self, fake: int) -> tuple[int, int]:
        """The two edges crossing at ``fake``, smaller id first: validation
        makes the four darts there alternate between them."""
        if not (0 <= fake < self.map.n_vertices) or not self.map.is_fake(fake):
            raise OperationError("UNKNOWN_VERTEX", f"no crossing at vertex {fake}")
        return tuple(sorted(self.dart_edge[d] for d in self.map.rotations[fake][:2]))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def c_of(g: OnePlaneGraph, v: int) -> int:
    """Number of crossing (crossed) edges incident with ``v``; validation
    allows no loop, so each edge at ``v`` has exactly one dart there."""
    _require_true_vertex(g, v)
    edges, de = g.edges, g.dart_edge
    return sum(edges[de[d]].crossing is not None for d in g.map.rotations[v])


def _require_true_vertex(g: OnePlaneGraph, v: int) -> None:
    if not (0 <= v < g.map.n_vertices) or g.map.is_fake(v):
        raise OperationError("UNKNOWN_VERTEX", f"no true vertex {v}")


# ---------------------------------------------------------------------------
# Underlying abstract graph
# ---------------------------------------------------------------------------

class _SimpleGraphFields(NamedTuple):
    adjacency: dict[int, frozenset[int]]


class SimpleGraph(_SimpleGraphFields):
    """A simple graph as its adjacency: each vertex id, in ascending order,
    to the frozenset of its neighbors."""

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.adjacency)

    @property
    def order(self) -> int:
        return len(self.adjacency)

    @property
    def size(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def without(self, removed) -> "SimpleGraph":
        gone = set(removed)
        return SimpleGraph({v: ws - gone for v, ws in self.adjacency.items() if v not in gone})

    def is_connected(self) -> bool:
        if not self.adjacency:
            return False
        stack = [next(iter(self.adjacency))]
        seen = set(stack)
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.order


def once(fn):
    """Compute ``fn(x)`` once per immutable ``x`` and keep it in ``x.__dict__``,
    as ``cached_property`` does; concurrent first calls may compute it twice."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memo(x):
        if key not in x.__dict__:
            x.__dict__[key] = fn(x)
        return x.__dict__[key]
    return memo


@once
def underlying(g: OnePlaneGraph) -> SimpleGraph:
    """The abstract simple graph of the drawing (true vertices only), read
    off the rotations: a dart's far end is its edge's u + v less its tail,
    and a validated drawing has no loop or parallel edge."""
    pmap, ends = g.map, [r.u + r.v for r in g.edges]
    far = list(map(sub, map(ends.__getitem__, g.dart_edge), pmap.dart_vertex))
    # from a set, not an iterator: a frozenset sized once is up to 35% smaller
    return SimpleGraph({v: frozenset(set(map(far.__getitem__, pmap.rotations[v])))
                        for v in pmap.true_vertices})


@once
def faces(g: OnePlaneGraph) -> tuple[FaceClass, ...]:
    """The class of each face of the planarization, in the order of
    ``g.map.face_walks``: FAKE iff its walk visits a fake vertex, that is,
    holds one of the darts leaving a crossing."""
    pmap = g.map
    fod = pmap.face_of_dart
    fake = {fod[d] for c in pmap.fake_vertices for d in pmap.rotations[c]}
    return tuple(FaceClass.FAKE if f in fake else FaceClass.TRUE
                 for f in range(len(pmap.face_walks)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(kinds, rotations, opposite, edges, dart_edge) -> OnePlaneGraph:
    """Check every type invariant of a candidate drawing.

    Returns the validated OnePlaneGraph, or raises ValidationError listing
    all violated invariants (not just the first) so fuzzing failures are
    fully diagnosable.  The drawing's map is the one the check ran on, so it
    keeps what the check computed: ``face_walks``, ``face_of_dart``,
    ``dart_vertex`` and the true and fake vertex tuples.  A caller keeps it
    small by handing in rotations and ``opposite`` that share one int object
    per dart, as ``parse`` and ``build._compact`` do; the walks then share
    them too.
    """
    tables = _tables(kinds, rotations, opposite, edges, dart_edge)
    pmap = PlanarMap(*tables[:3])
    violations = _check(pmap, *tables[3:])
    if violations:
        raise ValidationError(violations)
    return OnePlaneGraph(map=pmap, edges=tables[3], dart_edge=tables[4])


def check(kinds, rotations, opposite, edges, dart_edge) -> list[Violation]:
    """Non-raising validation: the full list of violations (see validate)."""
    tables = _tables(kinds, rotations, opposite, edges, dart_edge)
    return _check(PlanarMap(*tables[:3]), *tables[3:])


def _tables(kinds, rotations, opposite, edges, dart_edge):
    return (tuple(kinds), tuple(map(tuple, rotations)), tuple(opposite),
            tuple(edges), tuple(dart_edge))


def _in_range(values, n: int) -> bool:
    return not values or (min(values) >= 0 and max(values) < n)


def _check(pmap: PlanarMap, edges, dart_edge) -> list[Violation]:
    """check() on tuples, with the map built from them but not yet checked.
    Each invariant is decided by one comparison over a whole table; only
    when that fails does a per-element loop run, to name the offending dart,
    edge or vertex."""
    kinds, rotations, opposite = pmap.kinds, pmap.rotations, pmap.opposite
    violations: list[Violation] = []
    bad = violations.append

    n_darts = len(opposite)
    if len(kinds) != len(rotations):
        bad(Violation("BAD_INVOLUTION", "vertex kind/rotation tables differ in length"))
        return violations

    # Dart partition: every dart id appears once across all rotations, in
    # one comparison when darts are numbered in rotation-scan order, as in
    # every drawing ``parse`` and ``build._compact`` make.
    darts = list(range(n_darts))
    flat = list(chain.from_iterable(rotations))
    structurally_ok = flat == darts
    if not structurally_ok:
        seen = [0] * n_darts
        structurally_ok = True
        for d in flat:
            if not (0 <= d < n_darts):
                bad(Violation("BAD_INVOLUTION", f"dart id {d} out of range"))
                structurally_ok = False
            else:
                seen[d] += 1
        if structurally_ok:
            dups = [d for d, c in enumerate(seen) if c != 1]
            if dups:
                bad(Violation("BAD_INVOLUTION",
                              f"darts must appear in exactly one rotation: {dups[:8]}"))
                structurally_ok = False

    # Fixed-point-free involution.
    if structurally_ok and not (
            _in_range(opposite, n_darts)
            and [opposite[o] for o in opposite] == darts
            and not any(map(eq, opposite, darts))):
        for d, o in enumerate(opposite):
            if not (0 <= o < n_darts) or opposite[o] != d or o == d:
                bad(Violation("BAD_INVOLUTION",
                              f"opposite is not a fixed-point-free involution at dart {d}"))
                structurally_ok = False
                break

    if not structurally_ok:
        return violations

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
    if not _in_range(dart_edge, len(edges)):
        d, e = next((d, e) for d, e in enumerate(dart_edge) if not (0 <= e < len(edges)))
        bad(Violation("BAD_EDGE_TABLE", f"dart {d} maps to unknown edge {e}"))
        return violations

    tail = pmap.dart_vertex
    head = [tail[o] for o in opposite]
    us = [rec.u for rec in edges]
    vs = [rec.v for rec in edges]
    edges_ok = _edge_table_holds(pmap, dart_edge, head, us, vs,
                                 [rec.crossing for rec in edges])
    if not edges_ok:
        _edge_table_violations(pmap, edges, dart_edge, bad)

    # Fake vertices: degree 4, two edges, alternating, no shared endpoint.
    # Once the edge table holds, the two edges at a fake vertex record it,
    # cross nowhere else, and their endpoints are the four heads there.
    fake_rots = list(map(rotations.__getitem__, pmap.fake_vertices))
    de = dart_edge
    if not edges_ok or not all(
            len(r) == 4 and de[r[0]] == de[r[2]] != de[r[1]] == de[r[3]]
            and len({head[d] for d in r}) == 4 for r in fake_rots):
        _crossing_violations(pmap, edges, dart_edge, bad)

    # Simplicity of the underlying graph.  A valid edge table has no loop
    # and puts every endpoint in range(n).
    n = len(kinds)
    if not edges_ok or len({u * n + v if u < v else v * n + u
                            for u, v in zip(us, vs)}) != len(edges):
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
    fod = pmap.face_of_dart
    for c, rot in zip(pmap.fake_vertices, fake_rots):
        if len(rot) != 4:
            continue
        incident = {fod[d] for d in rot}
        if len(incident) != 4:
            bad(Violation("CROSSING_FACES_NOT_DISTINCT",
                          f"fake vertex {c} touches faces {sorted(incident)}"))

    return violations


def _edge_table_holds(pmap: PlanarMap, dart_edge, head, us, vs, crossings) -> bool:
    """Whether every edge has true endpoints and exactly its segments: one
    u-v segment when uncrossed, u-c and c-v through a fake c when crossed.
    Each dart is keyed by (edge, tail, head) as one integer; the keys the
    edge table asks for must be distinct and equal those of the darts."""
    true, fake = set(pmap.true_vertices), set(pmap.fake_vertices)
    crossed = [(e, c) for e, c in enumerate(crossings) if c is not None]
    n, n_darts = pmap.n_vertices, pmap.n_darts
    if not (true.issuperset(us) and true.issuperset(vs)
            and fake.issuperset(c for _, c in crossed)
            and 2 * len(us) + 2 * len(crossed) == n_darts):
        return False
    if tuple([dart_edge[o] for o in pmap.opposite]) != dart_edge:
        return False            # a segment joins two edges
    # the far end of the segment at u, and at v: the other endpoint, or the
    # crossing; a crossing's own darts lead to u and to v
    far_u = [v if c is None else c for v, c in zip(vs, crossings)]
    far_v = [u if c is None else c for u, c in zip(us, crossings)]
    want = {(e * n + u) * n + w for e, u, w in zip(range(len(us)), us, far_u)}
    want.update((e * n + v) * n + w for e, v, w in zip(range(len(vs)), vs, far_v))
    for e, c in crossed:
        want.update(((e * n + c) * n + us[e], (e * n + c) * n + vs[e]))
    have = {(e * n + t) * n + h for e, t, h in zip(dart_edge, pmap.dart_vertex, head)}
    return len(want) == len(have) == n_darts and want == have


def _edge_table_violations(pmap: PlanarMap, edges, dart_edge, bad) -> None:
    kinds, opposite = pmap.kinds, pmap.opposite
    buckets: list[list[int]] = [[] for _ in edges]
    for d, e in enumerate(dart_edge):
        buckets[e].append(d)
    for e, rec in enumerate(edges):
        wrong = [w for w in (rec.u, rec.v)
                 if not (0 <= w < len(kinds)) or kinds[w] is VertexKind.FAKE]
        for w in wrong:
            bad(Violation("BAD_EDGE_TABLE",
                          f"edge {e} endpoint {w} is not a true vertex"))
        if wrong:
            continue
        darts = set(buckets[e])
        if not all(opposite[d] in darts for d in darts):
            bad(Violation("BAD_EDGE_TABLE",
                          f"edge {e} darts are not whole segments"))
            continue
        segs = sorted(d for d in darts if d < opposite[d])     # one per segment
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


def _crossing_violations(pmap: PlanarMap, edges, dart_edge, bad) -> None:
    pair_seen: dict[frozenset[int], int] = {}
    for c in pmap.fake_vertices:
        rot = pmap.rotations[c]
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
