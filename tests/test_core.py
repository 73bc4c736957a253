import copy
import random
import signal
import sys
import threading
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplane.core import (
    EdgeRec,
    FaceClass,
    OperationError,
    PlanarMap,
    ValidationError,
    VertexKind,
    Violation,
    c_of,
    check,
    faces,
    underlying,
    validate,
)
from oneplane.build import DrawingBuilder, delete_edges, plane_graph
from oneplane.generators import (
    fixture_path, gen_H, gen_HH, gen_M, gen_XH, gen_XM, gen_YH, gen_random_seed,
)
from oneplane.analyze import vertex_connectivity
from oneplane.interchange import load, parse, serialize
from oneplane.maximality import (
    SaturationPolicy, apply_insertion, insertion_candidates, is_immovable, is_maximal, saturate,
)
from oneplane.transform import skeleton
from .oracles import (
    builder_is_connected,
    finish_with_ids,
    reference_check,
    reference_faces,
    scan_delete_edge,
    scatter_faces,
    scatter_vertex_tables,
)

T, F = VertexKind.TRUE, VertexKind.FAKE


def c4():
    return plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]])


def test_generated_xh1_validates():
    g = gen_XH(1)
    # re-validate the raw structure from scratch
    g2 = validate(g.map.kinds, g.map.rotations, g.map.opposite, g.edges, g.dart_edge)
    assert g2 == g


def test_fake_degree_not_4():
    # a crossing vertex with only three segments
    kinds = (T, T, T, F)
    # u=0, v=1, w=2; fake 3 with darts to 0,1,2; edges: (0,1) crossed at 3,
    # (0,2) whole plus a stray half -> several violations, FAKE_DEGREE among them
    rotations = ((0, 6), (2,), (4,), (1, 3, 5))
    opposite = (1, 0, 3, 2, 5, 4, 7, 6)
    # dart 6/7 pair 0-?? -> make it a loop-free second edge 0-1 segment
    rotations = ((0, 6), (2, 7), (4,), (1, 3, 5))
    edges = (EdgeRec(0, 1, 3), EdgeRec(0, 2, None), EdgeRec(0, 1, None))
    dart_edge = (0, 0, 0, 0, 1, 1, 2, 2)
    bad = check(kinds, rotations, opposite, edges, dart_edge)
    codes = {v.code for v in bad}
    assert "FAKE_DEGREE_NOT_4" in codes


def test_adjacent_edges_cross():
    # edges (0,1) and (0,2) crossing at fake 3: share endpoint 0
    kinds = (T, T, T, F)
    rotations = ((0, 4), (2,), (6,), (1, 5, 3, 7))
    opposite = (1, 0, 3, 2, 5, 4, 7, 6)
    edges = (EdgeRec(0, 1, 3), EdgeRec(0, 2, 3))
    dart_edge = (0, 0, 0, 0, 1, 1, 1, 1)
    bad = check(kinds, rotations, opposite, edges, dart_edge)
    assert "ADJACENT_EDGES_CROSS" in {v.code for v in bad}


def test_not_connected():
    kinds = (T, T, T, T)
    rotations = ((0,), (1,), (2,), (3,))
    opposite = (1, 0, 3, 2)
    edges = (EdgeRec(0, 1, None), EdgeRec(2, 3, None))
    dart_edge = (0, 0, 1, 1)
    bad = check(kinds, rotations, opposite, edges, dart_edge)
    assert {v.code for v in bad} == {"NOT_CONNECTED"}


def test_positive_genus():
    g = plane_graph([[2, 1], [0, 2], [1, 0]])
    b = DrawingBuilder.from_graph(g)
    b.cone(b.face_walk_from(0))   # K4
    k4 = b.finish()
    # reversing one rotation of the plane K4 forces a torus embedding
    rotations = list(k4.map.rotations)
    rotations[0] = tuple(reversed(rotations[0]))
    bad = check(k4.map.kinds, rotations, k4.map.opposite, k4.edges, k4.dart_edge)
    assert "POSITIVE_GENUS" in {v.code for v in bad}


def test_bad_involution():
    kinds = (T, T)
    rotations = ((0,), (1,))
    opposite = (0, 1)     # fixed points
    bad = check(kinds, rotations, opposite, (EdgeRec(0, 1, None),), (0, 0))
    assert "BAD_INVOLUTION" in {v.code for v in bad}


def test_not_simple_parallel_and_loop():
    kinds = (T, T)
    rotations = ((0, 2), (3, 1))
    opposite = (1, 0, 3, 2)
    edges = (EdgeRec(0, 1, None), EdgeRec(0, 1, None))
    bad = check(kinds, rotations, opposite, edges, (0, 0, 1, 1))
    assert "NOT_SIMPLE" in {v.code for v in bad}

    kinds = (T,)
    rotations = ((0, 1),)
    opposite = (1, 0)
    bad = check(kinds, rotations, opposite, (EdgeRec(0, 0, None),), (0, 0))
    assert "NOT_SIMPLE" in {v.code for v in bad}


def test_edge_multicrossed():
    # two edges threading through two shared fake vertices: reported as a
    # multi-crossed pair (alongside the edge-table damage it implies)
    kinds = (T, T, T, T, F, F)
    # e0 = 0-1 via c4,c5 ; e1 = 2-3 via c4,c5 (parallel middles)
    rotations = (
        (0,), (5,), (6,), (11,),
        (1, 7, 2, 8),      # c4: e0, e1, e0, e1
        (3, 9, 4, 10),     # c5: e0, e1, e0, e1
    )
    opposite = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10)
    edges = (EdgeRec(0, 1, 4), EdgeRec(2, 3, 4))
    dart_edge = (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    bad = check(kinds, rotations, opposite, edges, dart_edge)
    assert "EDGE_MULTICROSSED" in {v.code for v in bad}


@pytest.mark.parametrize("change,want", [
    (lambda t: {"kinds": t["kinds"] + (T,)},
     Violation("BAD_INVOLUTION", "vertex kind/rotation tables differ in length")),
    (lambda t: {"rotations": ((t["rotations"][0][0], 8),) + t["rotations"][1:]},
     Violation("BAD_INVOLUTION", "dart id 8 out of range")),
    (lambda t: {"rotations": ((t["rotations"][0][0],) * 2,) + t["rotations"][1:]},
     Violation("BAD_INVOLUTION", "darts must appear in exactly one rotation: [0, 1]")),
    (lambda t: {"dart_edge": t["dart_edge"][:-1]},
     Violation("BAD_EDGE_TABLE", "dart-to-edge table has wrong length")),
], ids=["kind-rotation-lengths", "dart-out-of-range", "dart-repeated", "dart-edge-length"])
def test_check_names_a_malformed_table(change, want):
    g = c4()          # 8 darts
    tables = {"kinds": g.map.kinds, "rotations": g.map.rotations,
              "opposite": g.map.opposite, "edges": g.edges, "dart_edge": g.dart_edge}
    tables.update(change(tables))
    assert check(**tables) == [want]


def test_validate_raises_with_all_violations():
    with pytest.raises(ValidationError) as exc:
        validate((T, T), ((0,), (1,)), (0, 1), (EdgeRec(0, 1, None),), (0, 0))
    assert exc.value.codes()


def test_faces_euler_and_classification():
    g = gen_XH(1)
    cls = faces(g)
    assert len(cls) == 32                     # forced by Euler: 18-48+F=2
    assert cls.count(FaceClass.FAKE) == 24
    assert cls.count(FaceClass.TRUE) == 8
    # 24 = 4 * cr with the four faces at each crossing pairwise distinct
    for c in g.map.fake_vertices:
        incident = {g.map.face_of_dart[d] for d in g.map.rotations[c]}
        assert len(incident) == 4

    plain = c4()
    assert faces(plain) == (FaceClass.TRUE,) * 2


def test_counts():
    xh1 = gen_XH(1)
    assert xh1.crossing_count == 6
    assert gen_HH(1).crossing_count == 0
    for v in xh1.map.true_vertices:
        assert xh1.map.degree(v) == 6
        assert c_of(xh1, v) == 2
    with pytest.raises(OperationError) as exc:
        c_of(xh1, 99)
    assert exc.value.code == "UNKNOWN_VERTEX"
    with pytest.raises(OperationError):
        c_of(xh1, xh1.map.fake_vertices[0])


@pytest.mark.parametrize("pick", [lambda g: g.map.true_vertices[0],
                                  lambda g: -1,
                                  lambda g: g.map.n_vertices],
                         ids=["true-vertex", "minus-one", "n-vertices"])
def test_edges_at_crossing_rejects_a_vertex_that_is_no_crossing(pick):
    g = gen_XH(1)
    with pytest.raises(OperationError) as exc:
        g.edges_at_crossing(pick(g))
    assert exc.value.code == "UNKNOWN_VERTEX"


def test_crossing_partner_rejects_an_unknown_edge():
    # -1 once read the partner of the last edge, and an id past the end
    # raised a bare IndexError
    g = gen_XH(1)
    assert g.size == 36
    for e in (-1, 36, 10**6):
        with pytest.raises(OperationError) as exc:
            g.crossing_partner(e)
        assert str(exc.value) == f"UNKNOWN_EDGE: no edge {e}"


@pytest.mark.parametrize("make", [lambda: gen_YH(1), lambda: gen_XM(2),
                                  lambda: load(fixture_path("t1"))],
                         ids=["yh1", "xm2", "t1"])
def test_delete_edge_agrees_with_scan_oracle(make):
    g = make()
    # each edge alone, then the default skeleton's removal set
    removals = [(e,) for e in range(g.size)]
    removals.append(skeleton(g).removed)
    for edges in removals:
        slow = DrawingBuilder.from_graph(g)
        for e in edges:
            scan_delete_edge(slow, e)
        sub = delete_edges(g, edges)
        if not builder_is_connected(slow):
            assert sub is None, edges
            continue
        want = finish_with_ids(slow)
        assert sub.graph == want[0], edges
        assert (sub.vertex_ids, sub.edge_ids, sub.dart_ids) == want[1:]


@pytest.mark.parametrize("call", [
    lambda b: delete_edges(b.finish(), (-1,)),
    lambda b: delete_edges(b.finish(), (len(b.edges),)),
    lambda b: b.insert_edge_crossing(0, 1, len(b.edges)),
], ids=["delete-minus-one", "delete-past-end", "cross-past-end"])
def test_builder_rejects_unknown_edge(call):
    b = DrawingBuilder.from_graph(gen_M(2))
    before = copy.deepcopy((b.rotations, b.edges))
    with pytest.raises(OperationError) as exc:
        call(b)
    assert exc.value.code == "UNKNOWN_EDGE"
    assert (b.rotations, b.edges) == before


def test_insertion_rejects_an_unknown_endpoint():
    # a negative endpoint once wrapped to a vertex counted from the end:
    # M(2)'s candidate 0-2 with u = -8 inserted edge 0-2
    g = gen_M(2)
    n = g.map.n_vertices
    c = insertion_candidates(g)[0]
    assert (c.u, c.v, n) == (0, 2, 8)
    with pytest.raises(OperationError) as exc:
        apply_insertion(g, c._replace(u=c.u - n))
    assert exc.value.code == "UNKNOWN_VERTEX"
    b = DrawingBuilder.from_graph(g)
    walk, e = g.map.face_walks[c.faces[0]], b.edge_between(0, 1)
    before = copy.deepcopy((b.rotations, b.edges))
    for call in [lambda: b.insert_edge_one_face(walk, c.u - n, c.v),
                 lambda: b.insert_edge_one_face(walk, c.u, c.v + n),
                 lambda: b.insert_edge_crossing(5 - n, 2, e),     # 5-2 crosses 0-1
                 lambda: b.insert_edge_crossing(5, 2 + n, e)]:
        with pytest.raises(OperationError) as exc:
            call()
        assert str(exc.value).startswith("UNKNOWN_VERTEX: no vertex ")
        assert (b.rotations, b.edges) == before


def test_insert_edge_crossing_contract():
    # M(2): edge 0-1 lies between the inner quadrangle 0-1-2-3 and the side
    # quadrangle 0-1-5-4
    b = DrawingBuilder.from_graph(gen_M(2))
    e = b.edge_between(0, 1)
    assert e is not None and b.edge_between(1, 0) == e and b.edge_between(0, 2) is None
    for u, v, code in [(0, 5, "ADJACENT_EDGES_CROSS"), (2, 1, "ADJACENT_EDGES_CROSS"),
                       (2, 3, "BAD_PARAMETER"),       # v not on the other face
                       (6, 5, "BAD_PARAMETER")]:      # u on neither face
        with pytest.raises(OperationError) as exc:
            b.insert_edge_crossing(u, v, e)
        assert exc.value.code == code, (u, v)
    new, c = b.insert_edge_crossing(5, 2, e)
    assert b.edges[new] == [5, 2, c] and b.edges[e] == [0, 1, c]
    with pytest.raises(OperationError) as exc:
        b.insert_edge_crossing(3, 4, e)
    assert exc.value.code == "BAD_PARAMETER"           # e is already crossed
    assert b.finish().crossing_count == 1


def test_edge_between_rejects_an_unknown_vertex():
    # -8 once wrapped to vertex 0 of M(2) and returned its edge 0-1
    b = DrawingBuilder.from_graph(gen_M(2))
    assert len(b.rotations) == 8 and b.edge_between(0, 1) == 0
    for u in (-8, -1, 8):
        with pytest.raises(OperationError) as exc:
            b.edge_between(u, 1)
        assert str(exc.value) == f"UNKNOWN_VERTEX: no vertex {u}"


@pytest.mark.parametrize("corners", [[-1], [0, 7]], ids=["minus-one", "past-the-end"])
def test_cone_rejects_a_corner_outside_the_walk(corners):
    # [-1] once coned to the last corner, and [0, 7] raised a bare
    # IndexError after adding the center and its first spoke
    b = DrawingBuilder.from_graph(gen_M(2))
    walk = b.face_walks()[0]
    assert len(walk) == 4
    before = copy.deepcopy((b.kinds, b.rotations, b.edges))
    with pytest.raises(OperationError) as exc:
        b.cone(walk, corners)
    assert exc.value.code == "BAD_PARAMETER"
    assert (b.kinds, b.rotations, b.edges) == before


@pytest.mark.parametrize("d", [-1, 24, 99], ids=["minus-one", "dart-count", "past-the-end"])
def test_face_walk_from_rejects_an_unknown_dart(d):
    # -1 once walked forever, never meeting dart -1 again, and an id past
    # the last dart raised a bare IndexError; the alarm stops a walk that
    # does not end
    b = DrawingBuilder.from_graph(gen_M(2))
    assert len(b.opposite) == 24

    def stop(signum, frame):
        raise TimeoutError(f"face_walk_from({d}) did not return")
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(2)
    try:
        with pytest.raises(OperationError) as exc:
            b.face_walk_from(d)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == f"UNKNOWN_DART: no dart {d}"


@pytest.mark.parametrize("neighbors", [[[0]], [[1], []]], ids=["loop", "unmatched"])
def test_from_neighbors_rejects_a_loop_and_an_unmatched_entry(neighbors):
    with pytest.raises(OperationError) as exc:
        DrawingBuilder.from_neighbors(neighbors)
    assert exc.value.code == "BAD_PARAMETER"


@pytest.mark.parametrize("neighbors", [[[1, 1], [0]], [[1, 2, 1], [0, 2], [0, 1]],
                                       [[1], [0, 0]]],
                         ids=["edge", "triangle", "second-end"])
def test_plane_graph_rejects_a_neighbor_listed_twice(neighbors):
    # the first two, where the other end lists the neighbor once, raised a
    # bare KeyError: -1 from the dart that the repeat left unpaired
    with pytest.raises(OperationError) as exc:
        plane_graph(neighbors)
    assert exc.value.code == "BAD_PARAMETER"
    if neighbors[0].count(1) == 2:
        assert str(exc.value) == "BAD_PARAMETER: vertex 0 lists neighbor 1 twice"


def test_insert_edge_one_face_rejects_a_vertex_off_the_face():
    g = gen_XH(1)
    b = DrawingBuilder.from_graph(g)
    walk = b.face_walks()[0]
    on = {b.dart_vertex[d] for d in walk}
    off = min(set(range(g.n)) - on)
    with pytest.raises(OperationError) as exc:
        b.insert_edge_one_face(walk, min(on), off)
    assert str(exc.value) == f"BAD_PARAMETER: vertices {min(on)},{off} are not both on the face"


def _quad_error_builders():
    yield DrawingBuilder.from_graph(gen_HH(1))
    yield DrawingBuilder.from_graph(gen_M(3))
    for n in range(4, 12):
        for seed in range(8):
            yield DrawingBuilder.from_graph(gen_random_seed(n, seed))
    yield DrawingBuilder.from_neighbors([[1], [0, 2], [1]])   # 4-walk 0,1,2,1
    g = gen_XH(1)
    e = next(e for e, rec in enumerate(g.edges) if rec.crossing is None)
    # a 4-walk through a crossing
    yield DrawingBuilder.from_graph(delete_edges(g, (e,)).graph)


def test_quad_error_agrees_with_cross_quad():
    codes = set()
    for b in _quad_error_builders():
        for walk in b.face_walks():
            err = b.quad_error(walk)
            try:
                copy.deepcopy(b).cross_quad(walk)
                code = None
            except OperationError as exc:
                code = exc.code
            assert code == (err and err.code), walk
            codes.add(code)
    assert codes == {None, "FACE_NOT_QUAD", "BOUNDARY_NOT_SIMPLE", "DIAGONAL_EXISTS"}


def test_facts_computed_once_are_safe_to_share_between_threads():
    def facts(g):
        return (is_maximal(g), is_immovable(g), vertex_connectivity(underlying(g)))

    want = facts(gen_XM(2))
    g = gen_XM(2)
    got = []
    workers = [threading.Thread(target=lambda: got.append(facts(g))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert got == [want] * 4
    assert facts(g) == want and underlying(g) is underlying(g)


def test_underlying_counts():
    xm1 = gen_XM(1)
    u = underlying(xm1)
    assert (u.order, u.size) == (6, 14)
    yh1 = gen_YH(1)
    u = underlying(yh1)
    assert (u.order, u.size) == (20, 60)
    h2 = gen_H(2)
    u = underlying(h2)
    assert (u.order, u.size) == (12, 20)


def test_planarization_count_identities():
    for g in (gen_XH(1), gen_YH(1), gen_XM(2), gen_XM(3)):
        cr = g.crossing_count
        assert g.map.n_vertices == g.n + cr
        assert g.map.n_segments == g.size + 2 * cr
        assert g.map.euler_characteristic() == 2


def test_faces_deterministic():
    g1 = gen_YH(2)
    g2 = gen_YH(2)
    assert g1.map.face_walks == g2.map.face_walks
    assert faces(g1) == faces(g2)


def _relabeled(g, seed):
    """g's tables with its dart ids shuffled: the same drawing, its darts
    no longer numbered in rotation-scan order."""
    pmap = g.map
    new = list(range(pmap.n_darts))
    random.Random(seed).shuffle(new)
    opposite, dart_edge = [0] * pmap.n_darts, [0] * pmap.n_darts
    for d, (o, e) in enumerate(zip(pmap.opposite, g.dart_edge)):
        opposite[new[d]], dart_edge[new[d]] = new[o], e
    return (pmap.kinds, [[new[d] for d in rot] for rot in pmap.rotations], opposite,
            g.edges, dart_edge)


MAP_SOURCES = {
    "c4": c4, "h2": lambda: gen_H(2), "xh1": lambda: gen_XH(1), "yh2": lambda: gen_YH(2),
    "xm3": lambda: gen_XM(3), "t1": lambda: load(fixture_path("t1")),
    "skeleton-xh1": lambda: skeleton(gen_XH(1)).graph,
    "random": lambda: gen_random_seed(23, 5),
    "saturated": lambda: saturate(gen_random_seed(31, 2), SaturationPolicy.SEEDED, seed=2),
}


@pytest.mark.parametrize("make", MAP_SOURCES.values(), ids=MAP_SOURCES.keys())
def test_map_tables_agree_with_scatter_oracles(make):
    # numbered in scan order and shuffled, the walks, dart owners and
    # vertex kinds equal those of the oracles; shuffled tables validate
    g = make()
    shuffled = _relabeled(g, 7)
    assert check(*shuffled) == []
    for pmap in (g.map, PlanarMap(*map(tuple, shuffled[:2]), tuple(shuffled[2])),
                 validate(*shuffled).map):
        assert (pmap.face_walks, pmap.face_of_dart) == scatter_faces(pmap)
        assert (pmap.dart_vertex, pmap.true_vertices, pmap.fake_vertices) \
            == scatter_vertex_tables(pmap)


@pytest.mark.parametrize("make", [lambda: parse(serialize(gen_YH(2))),
                                  lambda: load(fixture_path("t2")), lambda: gen_YH(2),
                                  lambda: gen_YH(3),
                                  lambda: validate(*_relabeled(gen_YH(3), 5))],
                         ids=["parsed-yh2", "parsed-t2", "generated-yh2", "generated-yh3",
                              "shuffled-yh3"])
def test_a_drawing_holds_one_int_object_per_dart(make):
    # a validated drawing keeps its face walks; they, opposite and the other
    # dart tables hold the rotations' int object of each dart.  CPython
    # shares ints up to 256 anyway, so the test needs more darts than that
    # (and YH(3), whose walks start and whose faces number past 256).  With
    # its darts shuffled out of scan order it shares them all the same.
    g = make()
    pmap = g.map
    assert pmap.n_darts > 256
    held = {d: d for d in chain.from_iterable(pmap.rotations)}
    assert all(o is held[o] for o in pmap.opposite)
    assert all(d is held[d] for walk in pmap.face_walks for d in walk)
    assert all(f is held[f] for f in pmap.face_of_dart)
    assert all(v is held[v] for v in pmap.dart_vertex)
    assert pmap.face_walks == tuple(f.darts for f in reference_faces(g))


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 14), st.integers(0, 10 ** 6))
def test_random_drawings_validate(n, seed):
    g = gen_random_seed(n, seed)
    assert g.n == n
    assert g.map.euler_characteristic() == 2
    for c in g.map.fake_vertices:
        assert g.map.degree(c) == 4


CHECK_BASES = [gen_XH(k) for k in (1, 2, 3)] + [gen_YH(k) for k in (1, 2, 3)] \
    + [gen_XM(k) for k in range(1, 7)]
MUTATIONS = ["swap", "repeat", "drop", "repair", "dart-edge", "endpoint",
             "crossing", "loop", "parallel", "adjacent-cross", "renumber"]


def _tables(g):
    return [list(g.map.kinds), [list(r) for r in g.map.rotations],
            list(g.map.opposite), list(g.edges), list(g.dart_edge)]


def _mutate(g, how, draw):
    """The tables of ``g`` with one mutation ``how``; its choices are
    ``draw(lo, hi)``, inclusive."""
    kinds, rotations, opposite, edges, dart_edge = _tables(g)
    n_darts, n, m = len(opposite), len(kinds), len(edges)
    slots = [(v, i) for v, rot in enumerate(rotations) for i in range(len(rot))]
    if how == "swap":
        (v, i), (w, j) = slots[draw(0, n_darts - 1)], slots[draw(0, n_darts - 1)]
        rotations[v][i], rotations[w][j] = rotations[w][j], rotations[v][i]
    elif how == "repeat":
        # one dart twice: in place of another, or one more in a rotation
        (v, i), (w, j) = slots[draw(0, n_darts - 1)], slots[draw(0, n_darts - 1)]
        if draw(0, 1):
            rotations[w][j] = rotations[v][i]
        else:
            rotations[w].append(rotations[v][i])
    elif how == "drop":
        v, i = slots[draw(0, n_darts - 1)]
        del rotations[v][i]
    elif how == "repair":
        a, c = draw(0, n_darts - 1), draw(0, n_darts - 1)
        b, d = opposite[a], opposite[c]
        opposite[a], opposite[c] = c, a
        if b != c:
            opposite[b], opposite[d] = d, b
    elif how == "dart-edge":
        dart_edge[draw(0, n_darts - 1)] = draw(-1, m)
    elif how in ("endpoint", "crossing"):
        e = draw(0, m - 1)
        u, v, c = edges[e].u, edges[e].v, edges[e].crossing
        w = draw(-1, n)
        if how == "crossing":
            c = None if c is not None and draw(0, 1) else w
        elif draw(0, 1):
            u = w
        else:
            v = w
        edges[e] = EdgeRec(u, v, c)
    elif how in ("loop", "parallel", "adjacent-cross"):
        b = DrawingBuilder.from_graph(g)
        d = draw(0, n_darts - 1)
        walk = b.face_walk_from(d)
        i = draw(0, len(walk) - 1)
        if how == "loop":
            # a segment inside a face from one corner back to itself
            b._chord(walk[i], walk[i])
        elif how == "parallel":
            # a second segment beside walk[i]'s; maybe each of the two
            # edges then takes one dart of the other's segment
            e = b._chord(walk[i], walk[(i + 1) % len(walk)])
            if draw(0, 1):
                p = b.dart_edge.index(e)
                a = walk[i]
                b.dart_edge[p], b.dart_edge[a] = b.dart_edge[a], e
        else:
            # an edge from the tail of dart d across d's own edge
            o = b.opposite[d]
            other = b.face_walk_from(o)
            b._cross(d, other[draw(0, len(other) - 1)], d)
        return [b.kinds, b.rotations, b.opposite,
                [EdgeRec(*rec) for rec in b.edges], b.dart_edge]
    else:
        perm = list(range(n_darts))
        for i in range(n_darts - 1, 0, -1):
            j = draw(0, i)
            perm[i], perm[j] = perm[j], perm[i]
        rotations = [[perm[d] for d in rot] for rot in rotations]
        new_opposite, new_dart_edge = [0] * n_darts, [0] * n_darts
        for d in range(n_darts):
            new_opposite[perm[d]] = perm[opposite[d]]
            new_dart_edge[perm[d]] = dart_edge[d]
        opposite, dart_edge = new_opposite, new_dart_edge
    return [kinds, rotations, opposite, edges, dart_edge]


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(MUTATIONS), st.integers(0, 2 ** 32))
def test_check_matches_reference_on_mutated_tables(how, seed):
    """check() lists the same violations as the per-element oracle, in the
    same order, for a drawing with one table mutated."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        g = rng.choice(CHECK_BASES)
    else:
        g = gen_random_seed(rng.randint(4, 30), rng.randint(0, 999))
    tables = _mutate(g, how, rng.randint)
    got = check(*tables)
    assert got == reference_check(*tables)
    if how == "renumber":
        assert got == []
        assert len(validate(*tables).map.face_walks) == len(g.map.face_walks)


def test_check_matches_reference_on_a_crossed_loop():
    # edge 0 runs from vertex 0 to the crossing 1 and back to 0: the one
    # segment it has is all its darts ask for, but it needs two
    tables = ((T, F), ((0,), (1,)), (1, 0), (EdgeRec(0, 0, 1),), (0, 0))
    assert check(*tables) == reference_check(*tables)
    assert "crossed edge 0 must be two segments through 1" in str(check(*tables))
