import pytest

from oneplane.core import FaceClass, OperationError, faces
from oneplane.build import plane_graph
from oneplane.transform import dual, skeleton
from oneplane.analyze import is_triangulation
from oneplane.interchange import parse
from oneplane.generators import gen_HH, gen_M, gen_XH, gen_XM, gen_YH


def _degrees(dm):
    # each dual edge adds one to the degree of both its ends
    deg = [0] * len(dm.colors)
    for a, b in dm.edges:
        deg[a] += 1
        deg[b] += 1
    return tuple(deg)


def test_planarization_flags():
    assert is_triangulation(gen_YH(1).map)
    assert not is_triangulation(gen_HH(1).map)
    assert is_triangulation(gen_XM(2).map)
    p = gen_YH(1)
    # V=26, E=72 forces F=48 triangles
    assert len(p.map.face_walks) == 48


def test_skeleton_counts_xh1():
    sk = skeleton(gen_XH(1))
    assert sk.graph.size == 30               # 3n-6 with n=12
    assert len(sk.colors) == 20              # 2n-4
    assert sk.colors.count(FaceClass.BLUE) == 8
    assert is_triangulation(sk.map)
    for color, members in zip(sk.colors, sk.face_members):
        if color is FaceClass.RED:
            assert len(members) >= 2
        else:
            assert len(members) == 1


def test_skeleton_of_crossing_free_drawing_is_identity():
    g = plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]])
    sk = skeleton(g)
    assert sk.graph == g
    assert all(c is FaceClass.BLUE for c in sk.colors)
    assert sk.removed == ()


def test_dual_xh1():
    sk = skeleton(gen_XH(1))
    dm = dual(sk)
    assert len(dm.colors) == 20
    assert len(dm.vertices_of_color(FaceClass.RED)) == 12
    assert len(dm.vertices_of_color(FaceClass.BLUE)) == 8
    assert set(_degrees(dm)) == {3}
    assert len(dm.edges) == 30
    assert _degrees(dm) == tuple(map(len, sk.map.face_walks))


def test_dual_yh1():
    sk = skeleton(gen_YH(1))
    dm = dual(sk)
    assert len(dm.colors) == 36
    assert len(dm.vertices_of_color(FaceClass.RED)) == 12
    assert len(dm.vertices_of_color(FaceClass.BLUE)) == 24
    assert _degrees(dm) == tuple(map(len, sk.map.face_walks))


@pytest.mark.parametrize("gen,k", [(gen_XH, 1), (gen_XH, 2), (gen_YH, 1), (gen_XM, 2)])
def test_every_red_vertex_has_a_red_neighbor(gen, k):
    dm = dual(skeleton(gen(k)))
    for v in dm.vertices_of_color(FaceClass.RED):
        assert any(dm.colors[w] is FaceClass.RED for w in dm.neighbor_sets[v])


@pytest.mark.parametrize("gen,k", [(gen_XH, 1), (gen_YH, 1), (gen_XM, 3)])
def test_strategy_independent_counts(gen, k):
    g = gen(k)
    a = skeleton(g)
    b = skeleton(g, [smaller for _, smaller, _ in g.crossing_pairs])
    for s in (a, b):
        assert s.graph.size == 3 * g.n - 6
    assert len(a.colors) == len(b.colors)
    assert a.colors.count(FaceClass.RED) == b.colors.count(FaceClass.RED)
    assert a.colors.count(FaceClass.BLUE) == b.colors.count(FaceClass.BLUE)
    # only provenance differs: the default removes the larger of each pair
    assert a.removed == tuple(sorted(larger for _, _, larger in g.crossing_pairs))
    assert not set(a.removed) & set(b.removed)


def test_explicit_strategy():
    g = gen_XH(1)
    removals = [min(a, b) for _, a, b in g.crossing_pairs]
    sk = skeleton(g, removals)
    assert sk.graph.size == 30
    pair = g.crossing_pairs[0]
    for bad in ([],                                      # no edge of any pair
                [pair[1], pair[2]] + removals[1:],       # both edges of one pair
                removals[1:],                            # no edge of one pair
                removals + [next(e for e, r in enumerate(g.edges)
                                 if r.crossing is None)]):   # an uncrossed edge
        with pytest.raises(OperationError) as exc:
            skeleton(g, bad)
        assert exc.value.code == "BAD_EXPLICIT_SELECTION"


@pytest.mark.parametrize("gen,k", [(gen_XH, 1), (gen_XM, 3)])
def test_skeleton_ignores_the_order_and_type_of_removed(gen, k):
    g = gen(k)
    mixed = [pair[1 + c % 2] for c, pair in enumerate(g.crossing_pairs)]
    want = skeleton(g, mixed)
    assert want.removed == tuple(sorted(mixed))
    for removed in (mixed[::-1], tuple(mixed), set(mixed), frozenset(mixed),
                    iter(mixed), (e for e in reversed(mixed)), dict.fromkeys(mixed)):
        sk = skeleton(g, removed)
        assert sk == want
        assert (sk.colors, sk.face_members) == (want.colors, want.face_members)


# both edges at vertex 5 are crossed, and the default skeleton, which
# removes the larger id of each pair, removes both
CUT_OFF = """1pg 1
vertices 9
v 0 true
v 1 true
v 2 true
v 3 true
v 4 true
v 5 true
v 6 fake
v 7 fake
v 8 fake
edges 9
e 0 1 2
e 1 2 3
e 2 4 1
e 3 4 2 x 7
e 4 4 3 x 6
e 5 0 2 x 8
e 6 0 5 x 6
e 7 1 5 x 7
e 8 1 3 x 8
rot 0 5.u 6.u
rot 1 8.u 2 7.u 0
rot 2 5.v 0 3.v 1
rot 3 8.v 1 4.v
rot 4 4.u 3.u 2
rot 5 7.v 6.v
rot 6 4.u 6.u 4.v 6.v
rot 7 3.v 7.u 3.u 7.v
rot 8 5.u 8.u 5.v 8.v
"""


@pytest.mark.parametrize("op", [skeleton])    # the id names the operation
def test_disconnecting_skeleton_is_an_operation_error(op):
    g = parse(CUT_OFF)
    with pytest.raises(OperationError) as exc:
        op(g)
    assert exc.value.code == "DISCONNECTED"
    assert skeleton(g, [a for _, a, _ in g.crossing_pairs]).graph.size == 6


def test_dual_degrees_match_boundary_lengths():
    # double counting: dual degree equals primal face length
    for g in (gen_XH(1), gen_M(3), gen_XM(2)):
        sk = skeleton(g)
        dm = dual(sk)
        assert _degrees(dm) == tuple(map(len, sk.map.face_walks))
        assert sum(_degrees(dm)) == 2 * len(dm.edges)


def test_red_blue_partition_of_fake_true_faces():
    g = gen_YH(2)
    sk = skeleton(g)
    cls = faces(g)
    n_true = cls.count(FaceClass.TRUE)
    n_fake = cls.count(FaceClass.FAKE)
    blue = sk.colors.count(FaceClass.BLUE)
    red = sk.colors.count(FaceClass.RED)
    assert blue == n_true
    assert 2 * red <= n_fake
    covered = set()
    for members in sk.face_members:
        covered |= members
    assert covered == set(range(len(cls)))
