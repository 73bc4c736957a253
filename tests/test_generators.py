import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplane.core import FaceClass, OperationError, VertexKind, faces
from oneplane.build import DrawingBuilder, plane_graph
from oneplane.maximality import SaturationPolicy, saturate
from oneplane.interchange import load, serialize
from oneplane.generators import (
    FAMILIES,
    _h_table,
    _m,
    expected_stats,
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
    fixture_path,
    tx_triangulate,
)

from .oracles import (
    builder_is_connected,
    cone_cross_quad,
    delete_edge,
    finish_with_ids,
    loop_h_table,
    loop_m_table,
    reference_faces,
    rescan_random_seed,
    roundtrip_M_triangulated,
    roundtrip_triangulate_all,
    roundtrip_XM,
)



@pytest.mark.parametrize("family,kmax", [("h", 5), ("hh", 5), ("xh", 5),
                                         ("yh", 5), ("m", 6), ("xm", 6)])
def test_closed_form_counts(family, kmax):
    for k in range(1, kmax + 1):
        g = generate(family, k)
        st_ = expected_stats(family, k)
        assert g.n == st_["n"]
        assert g.crossing_count == st_["crossings"]
        assert g.size == st_["size"]


def test_h1_is_c4():
    g = gen_H(1)
    assert g.n == 4 and g.size == 4 and g.crossing_count == 0
    assert all(g.map.degree(v) == 2 for v in range(4))


def test_hh_face_bipartition():
    for k in (1, 2, 3):
        g = gen_HH(k)
        fs = reference_faces(g)
        f3 = sum(1 for f in fs if f.size == 3)
        f4 = sum(1 for f in fs if f.size == 4)
        assert 3 * f3 == 4 * f4
        assert f3 == 4 * (g.n - 2) // 5
        assert f4 == 3 * (g.n - 2) // 5
        for f in fs:
            for j in fs.adjacent_faces(g.map, f.index):
                assert fs[j].size != f.size


def test_hh1_face_counts():
    fs = reference_faces(gen_HH(1))
    assert sum(1 for f in fs if f.size == 3) == 8
    assert sum(1 for f in fs if f.size == 4) == 6


def test_xh1_is_6_regular():
    g = gen_XH(1)
    assert all(g.map.degree(v) == 6 for v in g.map.true_vertices)
    assert 2 * g.size // g.n == 6


def test_generators_byte_identical():
    for family in ("xh", "yh", "xm", "hh"):
        a = serialize(generate(family, 2))
        b = serialize(generate(family, 2))
        assert a == b


def test_family_spec():
    g = generate("xh", 2)
    assert g.n == expected_stats("xh", 2)["n"]
    with pytest.raises(OperationError) as exc:
        generate("nope", 1)
    assert exc.value.code == "BAD_PARAMETER"
    with pytest.raises(OperationError) as exc:
        expected_stats("zz", 1)
    assert exc.value.code == "BAD_PARAMETER"
    with pytest.raises(OperationError):
        gen_XH(0)


def test_tx_triangulate_c4():
    g = plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]])
    out = tx_triangulate(g, 0)
    assert out.crossing_count == 1
    fs = reference_faces(out)
    fake_faces = fs.of_class(FaceClass.FAKE)
    assert len(fake_faces) == 4
    assert all(f.size == 3 for f in fake_faces)


def test_k1_triangulate_triangle_makes_wheel_piece():
    tri = plane_graph([[2, 1], [0, 2], [1, 0]])
    out = k1_triangulate(tri, 0)
    assert out.n == 4 and out.size == 6
    assert all(f.size == 3 for f in reference_faces(out))


def test_k2_triangulate_quad():
    g = plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]])
    out = k2_triangulate(g, 0)
    assert out.n == 6 and out.size == 4 + 7
    assert out.crossing_count == 0
    # the quad became six triangles
    tris = [f for f in reference_faces(out) if f.size == 3]
    assert len(tris) == 6


def test_applying_tx_to_all_hh1_quads_gives_xh1():
    g = gen_HH(1)
    quads = [f.index for f in reference_faces(g) if f.is_quadrangle()]
    assert len(quads) == 6
    # single-face op API: apply one and check the count moves as expected
    out = tx_triangulate(g, quads[0])
    assert out.crossing_count == 1 and out.size == g.size + 2


def test_face_op_errors():
    tri = plane_graph([[2, 1], [0, 2], [1, 0]])
    with pytest.raises(OperationError) as exc:
        tx_triangulate(tri, 0)
    assert exc.value.code == "FACE_NOT_QUAD"

    # quad with an existing diagonal
    g = plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]])
    g = tx_triangulate(g, 0)
    other_quad = next(f.index for f in reference_faces(g) if f.size == 4)
    with pytest.raises(OperationError) as exc:
        tx_triangulate(g, other_quad)
    assert exc.value.code == "DIAGONAL_EXISTS"

    # face whose boundary walk repeats a vertex (two triangles at a cutpoint)
    bowtie = plane_graph([[1, 2, 3, 4], [2, 0], [0, 1], [4, 0], [0, 3]])
    big = next(f.index for f in reference_faces(bowtie) if f.size > 3)
    with pytest.raises(OperationError) as exc:
        k1_triangulate(bowtie, big)
    assert exc.value.code == "BOUNDARY_NOT_SIMPLE"

    # a fake face of XH(1): simple, but one corner is a crossing
    xh = gen_XH(1)
    fake = next(i for i, w in enumerate(xh.map.face_walks)
                if any(xh.map.is_fake(xh.map.dart_vertex[d]) for d in w))
    with pytest.raises(OperationError) as exc:
        k1_triangulate(xh, fake)
    assert str(exc.value) == f"BOUNDARY_NOT_SIMPLE: face {fake} touches a crossing"

    with pytest.raises(OperationError) as exc:
        k2_triangulate(tri, 0)
    assert exc.value.code == "FACE_NOT_QUAD"


@pytest.mark.parametrize("op", [k1_triangulate, k2_triangulate, tx_triangulate])
def test_face_ops_reject_unknown_face(op):
    g = gen_HH(1)
    for i in (-1, len(g.map.face_walks)):
        with pytest.raises(OperationError) as exc:
            op(g, i)
        assert exc.value.code == "UNKNOWN_FACE", i


def test_ring_table_matches_loop_tables():
    # H's table directly; M's through the builder that _m makes of it
    for k in range(1, 9):
        assert _h_table(k) == loop_h_table(k)
        assert vars(_m(k)) == vars(DrawingBuilder.from_neighbors(loop_m_table(k)))


def test_m_family():
    m3 = gen_M(3)
    assert (m3.n, m3.size) == (12, 20)
    assert sum(1 for f in reference_faces(m3) if f.size == 4) == 10
    assert all(f.size == 4 for f in reference_faces(m3))


def test_m_triangulated_degrees():
    for k in (2, 3, 4):
        p = gen_M_triangulated(k)
        degs = sorted(p.map.degree(v) for v in range(p.n))
        assert degs == [4] * 4 + [5] * 4 + [6] * (4 * k - 8)


def test_fixture_t1():
    g = load(fixture_path("t1"))
    assert (g.n, g.crossing_count, g.size) == (24, 18, 84)


def test_fixture_t2():
    g = load(fixture_path("t2"))
    assert (g.n, g.crossing_count, g.size) == (56, 42, 204)


def test_fixture_parse_error(tmp_path):
    p = tmp_path / "broken.1pg"
    p.write_text("1pg 1\nvertices 1\nnonsense\n", encoding="utf-8")
    with pytest.raises(OperationError) as exc:
        load(p)
    assert exc.value.code == "PARSE_ERROR"


def test_fixture_validation_failure(tmp_path):
    from oneplane.core import ValidationError
    from oneplane.interchange import load, serialize
    g = gen_XH(1)
    lines = serialize(g).splitlines()
    # claim the wrong crossing vertex on one edge: parses, fails validation
    idx, line = next((i, l) for i, l in enumerate(lines)
                     if l.startswith("e ") and " x " in l)
    parts = line.split()
    parts[-1] = str(int(parts[-1]) - 1)
    lines[idx] = " ".join(parts)
    p = tmp_path / "tampered.1pg"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load(p)
    assert exc.value.code == "VALIDATION_FAILED"


def test_random_seed_determinism_and_bounds():
    a = gen_random_seed(8, 1)
    b = gen_random_seed(8, 1)
    assert a == b
    g = gen_random_seed(4, 9)
    assert g.n == 4
    with pytest.raises(OperationError) as exc:
        gen_random_seed(3, 0)
    assert exc.value.code == "BAD_PARAMETER"


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.integers(0, 10 ** 9))
def test_random_seed_always_validates(n, seed):
    g = gen_random_seed(n, seed)
    assert g.n == n
    assert g == gen_random_seed(n, seed)


def test_random_seed_matches_rescan_oracle():
    """Face walks kept across cone steps give the drawing that walking
    every face again before each step gives, byte for byte."""
    for n in [*range(4, 120, 7), 200]:
        for seed in range(6):
            assert serialize(gen_random_seed(n, seed)) == serialize(rescan_random_seed(n, seed))


def test_random_seed_walks_each_new_face_once(monkeypatch):
    """Each cone walks only the triangles it makes: about 3n face walks in
    all, against about n^2 when every face is walked again per step."""
    walks = []
    walk_from = DrawingBuilder.face_walk_from

    def counted(b, d):
        walks.append(d)
        return walk_from(b, d)
    monkeypatch.setattr(DrawingBuilder, "face_walk_from", counted)
    for seed in range(4):
        walks.clear()
        assert gen_random_seed(200, seed).n == 200
        assert len(walks) <= 3 * 200


def test_one_builder_matches_roundtrip_oracles():
    """Building each family member on one builder gives the drawing that
    the construction through finished intermediate drawings gives."""
    for k in range(1, 5):
        assert serialize(gen_XH(k)) == serialize(roundtrip_triangulate_all(gen_HH(k), False))
        assert serialize(gen_YH(k)) == serialize(roundtrip_triangulate_all(gen_HH(k), True))
    for k in range(1, 7):
        assert serialize(gen_XM(k)) == serialize(roundtrip_XM(k))
        assert serialize(gen_M_triangulated(k)) == serialize(roundtrip_M_triangulated(k))


def _crossed_quads():
    hh = [gen_HH(1), gen_HH(2)]
    out = [gen(k) for gen in (gen_XH, gen_YH) for k in range(1, 5)]
    out += [gen_XM(k) for k in range(1, 7)]
    out += [tx_triangulate(g, f.index, first) for g in hh for f in reference_faces(g)
            if f.is_quadrangle() for first in (0, 1)]
    out += [gen_random_seed(n, seed) for n in range(4, 89, 7) for seed in range(4)]
    return [serialize(g) for g in out]


def test_cross_quad_matches_cone_oracle(monkeypatch):
    """A diagonal and an edge crossing it give, byte for byte, the drawing
    that coning the quadrangle and merging the spokes in pairs gives."""
    want = _crossed_quads()
    monkeypatch.setattr(DrawingBuilder, "cross_quad", cone_cross_quad)
    assert _crossed_quads() == want


def test_each_family_member_is_finished_once(monkeypatch):
    """Every generated drawing is validated once, at the end, and no
    construction copies a finished drawing into a builder, as
    ``maximality.apply_insertion`` does."""
    calls = []
    finish, from_graph = DrawingBuilder.finish, DrawingBuilder.from_graph.__func__

    def counted_finish(self):
        calls.append("finish")
        return finish(self)

    def counted_from_graph(cls, g):
        calls.append("from_graph")
        return from_graph(cls, g)
    monkeypatch.setattr(DrawingBuilder, "finish", counted_finish)
    monkeypatch.setattr(DrawingBuilder, "from_graph", classmethod(counted_from_graph))
    for family in FAMILIES:
        for k in range(1, 4 if family in ("xh", "yh") else 7):
            calls.clear()
            generate(family, k)
            assert calls == ["finish"], (family, k)
    for k in range(1, 7):
        calls.clear()
        gen_M_triangulated(k)
        assert calls == ["finish"], k


def _simple_true_faces(b):
    return [w for w in b.face_walks()
            if len({b.dart_vertex[d] for d in w}) == len(w)
            and all(b.kinds[b.dart_vertex[d]] is VertexKind.TRUE for d in w)]


def test_builder_face_walks_match_finished_faces():
    """After deletions and cones, whose new darts take ids out of rotation
    order, the builder's face walks are the finished drawing's, in order."""
    states = 0
    for seed in range(30):
        rng = random.Random(seed)
        g = saturate(gen_random_seed(6 + seed % 9, seed), SaturationPolicy.SEEDED, seed)
        b = DrawingBuilder.from_graph(g)
        for step in range(5):
            if step % 2 == 0:
                live = [e for e, rec in enumerate(b.edges) if rec is not None]
                delete_edge(b, rng.choice(live))
            elif faces := _simple_true_faces(b):
                b.cone(rng.choice(faces))
            if not builder_is_connected(b):
                break
            h, _, _, dart_ids = finish_with_ids(b)
            new = {d: i for i, d in enumerate(dart_ids)}
            walks = [tuple(new[d] for d in w) for w in b.face_walks()]
            assert walks == list(h.map.face_walks)
            states += 1
    assert states > 100
