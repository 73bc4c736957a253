import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplane.core import OperationError, underlying, validate
from oneplane.build import DrawingBuilder, delete_edges, plane_graph
from oneplane.cli import main
from oneplane.interchange import dump, load, serialize
from oneplane import build, maximality
from oneplane.analyze import regularity_checks
from oneplane.transform import skeleton
from oneplane.maximality import (
    InsertionCandidate,
    RedrawResult,
    SaturationPolicy,
    apply_insertion,
    insertion_candidates,
    is_immovable,
    is_maximal,
    min_redraw_crossings,
    saturate,
)
from oneplane.generators import (
    gen_HH,
    gen_M,
    gen_XH,
    gen_XM,
    gen_YH,
    fixture_path,
    gen_random_seed,
    generate,
)
from .oracles import (
    brute_force_is_maximal,
    face_merge_redrawable,
    face_set_insertion_candidates,
    rebuild_first_redrawable,
    rebuild_min_redraw_crossings,
    resort_saturation,
    stepwise_saturation,
)
from .test_cli import _count_calls, write


def test_candidates_hh_quads():
    cands = insertion_candidates(gen_HH(1))
    assert cands
    one_face = [c for c in cands if c.cross_edge is None]
    assert one_face                      # quad corners are nonadjacent


def test_candidates_empty_for_maximal():
    assert insertion_candidates(gen_XH(1)) == ()
    k4 = saturate(plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]]))
    assert insertion_candidates(k4) == ()


@pytest.mark.parametrize("gen,k", [(gen_YH, 1), (gen_YH, 2),
                                   (gen_XM, 2), (gen_XM, 3), (gen_XM, 4),
                                   (gen_XH, 1), (gen_XH, 2)])
def test_is_maximal_families(gen, k):
    assert is_maximal(gen(k)).is_maximal


def test_xh1_minus_a_diagonal_is_not_maximal():
    g = gen_XH(1)
    crossed = next(e for e, r in enumerate(g.edges) if r.crossing is not None)
    h = delete_edges(g, (crossed,)).graph
    res = is_maximal(h)
    assert not res.is_maximal
    back = apply_insertion(h, res.witness)
    assert back.size == g.size
    assert is_maximal(back).is_maximal


def test_candidate_soundness():
    # applying any candidate yields a valid drawing with one more edge and
    # the advertised crossing delta
    for g in (gen_HH(1), gen_M(2), gen_random_seed(8, 3), gen_random_seed(9, 5)):
        for cand in insertion_candidates(g)[:12]:
            h = apply_insertion(g, cand)
            assert h.size == g.size + 1
            assert h.crossing_count == g.crossing_count + cand.delta
            assert underlying(h).has_edge(cand.u, cand.v)


def test_maximality_agrees_with_brute_force_oracle():
    instances = [gen_M(1), gen_M(2), gen_XM(1), gen_HH(1)]
    for seed in range(25):
        g = gen_random_seed(4 + seed % 6, seed)
        if g.n + g.crossing_count <= 10:
            instances.append(g)
            m = saturate(g, SaturationPolicy.SEEDED, seed=seed)
            if m.n + m.crossing_count <= 10:
                instances.append(m)
    checked = 0
    for g in instances:
        if g.n + g.crossing_count <= 10:
            assert is_maximal(g).is_maximal == brute_force_is_maximal(g)
            checked += 1
    assert checked >= 10


def test_saturate_c5():
    c5 = plane_graph([[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]])
    m = saturate(c5)
    assert is_maximal(m).is_maximal
    assert m.size >= -(-7 * 5 // 3) - 3
    assert m.n == 5


def test_saturate_fixed_point_and_grid():
    g = gen_XH(1)
    assert saturate(g) == g
    m = saturate(gen_M(2))                 # C4 x P2
    assert is_maximal(m).is_maximal
    assert m.size >= -(-7 * m.n // 3) - 3


def test_saturate_seeded_deterministic():
    c5 = plane_graph([[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]])
    a = saturate(c5, SaturationPolicy.SEEDED, seed=11)
    b = saturate(c5, SaturationPolicy.SEEDED, seed=11)
    assert a == b


def test_seeded_saturation_needs_a_seed():
    # a seed of None would seed from the system, so runs could not be repeated
    g = gen_random_seed(30, 4)
    for call in (lambda: saturate(g, SaturationPolicy.SEEDED),
                 lambda: saturate(g, SaturationPolicy.SEEDED, seed=None)):
        with pytest.raises(OperationError) as exc:
            call()
        assert exc.value.code == "BAD_PARAMETER"
    # DETERMINISTIC ignores a seed; seed 0 is a seed
    assert saturate(g, seed=5) == saturate(g)
    assert saturate(g, SaturationPolicy.SEEDED, 0) == saturate(g, SaturationPolicy.SEEDED, 0)


def test_min_redraw_uncrossed_edge():
    g = gen_YH(1)
    e = next(i for i, r in enumerate(g.edges) if r.crossing is None)
    res = min_redraw_crossings(g, e)
    assert res.crossings == 0
    assert res.route is not None and res.route.cross_edge is None


def test_min_redraw_crossed_diagonals():
    g = gen_XH(1)
    for e, rec in enumerate(g.edges):
        if rec.crossing is not None:
            res = min_redraw_crossings(g, e)
            assert res.crossings == 1
            # the returned route reproduces a single-crossing insertion
            h = apply_insertion(res.without, res.route)
            assert h.crossing_count == res.without.crossing_count + 1
    g2 = gen_XM(2)
    diag = max(e for e, r in enumerate(g2.edges) if r.crossing is not None)
    assert min_redraw_crossings(g2, diag).crossings == 1


@pytest.mark.parametrize("e", [-1, 36, 999])
def test_min_redraw_unknown_edge(e):
    g = gen_XH(1)
    assert g.size == 36
    with pytest.raises(OperationError) as exc:
        min_redraw_crossings(g, e)
    assert str(exc.value) == f"UNKNOWN_EDGE: no edge {e}"


def test_immovable_families():
    assert is_immovable(gen_YH(1)).is_immovable
    assert is_immovable(gen_XH(1)).is_immovable
    with pytest.raises(OperationError) as exc:
        is_immovable(gen_HH(1))
    assert exc.value.code == "NOT_MAXIMAL"


def test_fuzzer_finds_movable_drawings():
    # seed found by scanning: a saturated drawing with a crossing that can
    # be redrawn crossing-free; the witness is validated by re-inserting
    g = gen_random_seed(10, 17)
    m = saturate(g, SaturationPolicy.SEEDED, seed=17)
    res = is_immovable(m)
    assert not res.is_immovable
    e, redraw = res.witness
    assert m.edges[e].crossing is not None
    assert redraw.crossings == 0
    h = apply_insertion(redraw.without, redraw.route)
    assert h.crossing_count == m.crossing_count - 1
    assert h.size == m.size


def test_min_redraw_never_exceeds_current_crossings():
    for seed in (3, 17, 38):
        m = saturate(gen_random_seed(8, seed), SaturationPolicy.SEEDED, seed=seed)
        for e, rec in enumerate(m.edges):
            r = min_redraw_crossings(m, e)
            current = 0 if rec.crossing is None else 1
            assert r.crossings <= current


@pytest.mark.parametrize("face", [6, -4])
def test_one_face_candidate_needs_a_face_of_the_drawing(face):
    g = gen_M(2)                           # six faces
    assert len(g.map.face_walks) == 6
    with pytest.raises(OperationError) as exc:
        apply_insertion(g, InsertionCandidate(0, 2, (face,)))
    assert exc.value.code == "UNKNOWN_FACE"


def test_two_face_candidate_needs_cross_edge():
    g = gen_HH(1)
    cand = next(c for c in insertion_candidates(g) if c.cross_edge is not None)
    bare = InsertionCandidate(cand.u, cand.v, cand.faces)
    with pytest.raises(OperationError) as exc:
        apply_insertion(g, bare)
    assert exc.value.code == "BAD_PARAMETER"


@pytest.mark.parametrize("faces", [(0, 0), (4, 0), (0,), (0, 4, 1)])
def test_two_face_candidate_needs_the_faces_of_its_crossed_edge(faces):
    # the real candidate crosses edge 10 from face 0, which holds vertex 0,
    # to face 4
    g = gen_M(2)
    real = InsertionCandidate(0, 2, (0, 4), 10)
    assert real in insertion_candidates(g)
    assert apply_insertion(g, real).size == g.size + 1
    with pytest.raises(OperationError) as exc:
        apply_insertion(g, InsertionCandidate(0, 2, faces, 10))
    assert exc.value.code == "BAD_PARAMETER"


def _saturation_path(n, seed):
    """Every drawing a seeded saturation of gen_random_seed(n, seed) passes
    through, the saturated one last."""
    path = stepwise_saturation(gen_random_seed(n, seed), SaturationPolicy.SEEDED, seed)
    assert path[-1] == saturate(path[0], SaturationPolicy.SEEDED, seed=seed)
    return path


def _assert_redraw_agrees(g):
    redrawable = set(maximality._redrawable(g))
    for e, rec in enumerate(g.edges):
        want = rebuild_min_redraw_crossings(g, e)
        assert min_redraw_crossings(g, e) == want, e
        merged = face_merge_redrawable(g, e)
        assert merged == (want.crossings == 0), e
        if rec.crossing is not None:
            assert (e in redrawable) == merged, e
    assert all(g.edges[e].crossing is not None for e in redrawable)
    if is_maximal(g).is_maximal:
        res = is_immovable(g)
        assert res.witness == rebuild_first_redrawable(g)
        assert res.is_immovable == (res.witness is None)


@pytest.mark.parametrize("family, k", [("yh", 1), ("yh", 2), ("xh", 1), ("xh", 2),
                                       ("xm", 1), ("xm", 2), ("xm", 3), ("xm", 4),
                                       ("t", 1), ("t", 2)])
def test_redraw_agrees_with_rebuild_oracle_on_families(family, k):
    _assert_redraw_agrees(load(fixture_path(f"t{k}")) if family == "t" else generate(family, k))


# (10, 17) saturates to a drawing with a redrawable crossed edge
@pytest.mark.parametrize("n, seed", [(10, 17), (8, 3), (9, 38), (12, 5)])
def test_redraw_agrees_with_rebuild_oracle_along_saturations(n, seed):
    for g in _saturation_path(n, seed):
        _assert_redraw_agrees(g)


def test_redraw_of_a_bridge_agrees_with_rebuild_oracle():
    # deleting either edge of a path isolates an endpoint
    path = plane_graph([[1], [0, 2], [1]])
    _assert_redraw_agrees(path)
    assert min_redraw_crossings(path, 0) == RedrawResult(0, None, None)


def test_redraw_builds_no_face_merge(monkeypatch):
    """A redraw reads only the drawing left by the deletion; the face merge
    is built only where its classes are read, as by a skeleton's ``colors``."""
    merges = _count_calls(monkeypatch, build, "_merge_classes")
    g = generate("yh", 1)
    for e in range(len(g.edges)):
        min_redraw_crossings(g, e)
    assert not merges
    skeleton(g).colors
    assert len(merges) == 1


def test_certify_check_builds_no_face_merge(tmp_path, monkeypatch, capsys):
    """Immovability reads the faces around each vertex of the drawing
    itself; no step of the certify check merges faces, also where it
    finds a redrawable edge."""
    merges = _count_calls(monkeypatch, build, "_merge_classes")
    for family, k in (("yh", 2), ("xh", 1), ("xm", 3)):
        assert main(["check", write(tmp_path, family, k),
                     "--maximal", "--immovable", "--bounds"]) == 0
    movable = tmp_path / "movable.1pg"
    dump(saturate(gen_random_seed(10, 17), SaturationPolicy.SEEDED, seed=17), movable)
    assert main(["check", str(movable), "--maximal", "--immovable", "--bounds"]) == 1
    assert "redrawable with 0 crossings" in capsys.readouterr().out
    assert not merges
    skeleton(generate("yh", 1)).colors
    assert len(merges) == 1


def test_skeleton_merges_faces_when_its_classes_are_first_read(monkeypatch):
    """``skeleton`` builds the deletion alone; the face merge runs on the
    first read of ``colors`` or ``face_members``, once, and not at all for
    a check that reads only the skeleton's map."""
    merges = _count_calls(monkeypatch, build, "_merge_classes")
    sk = skeleton(generate("xh", 2))
    assert regularity_checks(sk.graph.map).is_56_regular
    assert not merges
    members, colors = sk.face_members, sk.colors
    assert len(merges) == 1 and len(members) == len(colors)


def _shuffle_darts(g, seed):
    """The same drawing with its dart ids permuted at random, so they no
    longer follow rotation order."""
    perm = list(range(g.map.n_darts))
    random.Random(seed).shuffle(perm)
    back = {new: old for old, new in enumerate(perm)}
    return validate(g.map.kinds,
                    [[perm[d] for d in rot] for rot in g.map.rotations],
                    [perm[g.map.opposite[back[d]]] for d in range(len(perm))],
                    g.edges,
                    [g.dart_edge[back[d]] for d in range(len(perm))])


def _assert_saturates_as_stepwise(g, seed):
    for policy in SaturationPolicy:
        want = serialize(stepwise_saturation(g, policy, seed)[-1])
        assert serialize(saturate(g, policy, seed)) == want, policy


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 40), st.integers(0, 10 ** 6), st.booleans())
def test_saturate_matches_stepwise_oracle(n, seed, shuffled):
    g = gen_random_seed(n, seed)
    _assert_saturates_as_stepwise(_shuffle_darts(g, seed) if shuffled else g, seed)


@pytest.mark.parametrize("make", [
    lambda: gen_M(2),
    lambda: gen_HH(1),
    lambda: plane_graph([[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]]),
    lambda: gen_XH(1),                      # already maximal
    lambda: _shuffle_darts(gen_HH(1), 7),
], ids=["m2", "hh1", "c5", "xh1", "hh1-shuffled"])
def test_saturate_matches_stepwise_oracle_on_fixed_inputs(make):
    _assert_saturates_as_stepwise(make(), 5)


def test_randrange_draws_the_index_choice_draws():
    # saturate draws its index with randrange over the live count, where a
    # seeded closure over the sorted live list draws with choice
    for s in range(200):
        for length in (1, 2, 3, 7, 64, 1000, 4097):
            a, b = random.Random(s), random.Random(s)
            assert ([a.randrange(length) for _ in range(3)]
                    == [b.choice(range(length)) for _ in range(3)]), (s, length)


@pytest.mark.parametrize("n, seed", [(100, 1), (100, 7), (200, 2), (300, 3),
                                     (400, 1), (400, 4)])
def test_saturate_matches_resort_oracle(n, seed):
    g = gen_random_seed(n, seed)
    for policy in SaturationPolicy:
        want = serialize(resort_saturation(g, policy, seed))
        assert serialize(saturate(g, policy, seed)) == want, policy


def test_saturation_ranks_faces_only_to_break_ties(monkeypatch):
    """A step ranks the faces of one group, the live candidates with its
    endpoints and kind, and only when that group holds more than one; the
    whole-set order ranked every face of every live candidate."""
    ranks = _count_calls(monkeypatch, maximality._Closure, "rank")
    live = []
    insert = maximality._Closure.insert

    def counted(s, cand):
        live.append(len(s.keys))
        insert(s, cand)
    monkeypatch.setattr(maximality._Closure, "insert", counted)
    saturate(gen_random_seed(400, 1), SaturationPolicy.SEEDED, 1)
    assert 0 < len(ranks) < sum(live) / 100


def test_saturate_finishes_once_and_never_rebuilds(monkeypatch):
    g = gen_random_seed(40, 3)
    finish = _count_calls(monkeypatch, DrawingBuilder, "finish")
    enumerations = _count_calls(monkeypatch, maximality, "insertion_candidates")
    rebuilds = _count_calls(monkeypatch, maximality, "apply_insertion")
    m = saturate(g, SaturationPolicy.SEEDED, 3)
    assert (len(finish), len(enumerations), len(rebuilds)) == (1, 0, 0)
    assert m.size > g.size
    assert "oneplane.maximality.is_maximal" not in m.__dict__


def test_corner_tie_break_is_first_in_rotation():
    # on a path every inner vertex has two corners on the one face; the new
    # edge 1-3 enters 1's corner before its first dart, 1->0
    g = plane_graph([[1], [0, 2], [1, 3], [2]])
    cand = next(c for c in insertion_candidates(g) if (c.u, c.v) == (1, 3))
    h = apply_insertion(g, cand)
    around = [h.map.dart_vertex[h.map.opposite[d]] for d in h.map.rotations[1]]
    assert around == [3, 0, 2]
    assert saturate(g) == stepwise_saturation(g)[-1]


def _assert_candidates_match_face_set_oracle(g):
    assert insertion_candidates(g) == face_set_insertion_candidates(g)


@pytest.mark.parametrize("family, k", [(f, k) for f in ("hh", "m") for k in (1, 2, 3)]
                         + [(f, k) for f in ("xh", "yh") for k in (1, 2)]
                         + [("xm", k) for k in (1, 2, 3, 4)])
def test_candidates_match_face_set_oracle_on_families(family, k):
    _assert_candidates_match_face_set_oracle(generate(family, k))


def test_candidates_match_face_set_oracle_on_path_and_c5():
    _assert_candidates_match_face_set_oracle(plane_graph([[1], [0, 2], [1, 3], [2]]))
    _assert_candidates_match_face_set_oracle(
        plane_graph([[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]]))


@pytest.mark.parametrize("n, seed", [(6, 1), (9, 38), (14, 5), (30, 3)])
def test_candidates_match_face_set_oracle_on_random_drawings(n, seed):
    g = gen_random_seed(n, seed)
    _assert_candidates_match_face_set_oracle(g)
    # dart ids that no longer follow rotation order number the faces too
    _assert_candidates_match_face_set_oracle(_shuffle_darts(g, seed))


@pytest.mark.parametrize("n, seed", [(10, 17), (12, 5)])
def test_candidates_match_face_set_oracle_along_saturations(n, seed):
    for policy in SaturationPolicy:
        for g in stepwise_saturation(gen_random_seed(n, seed), policy, seed):
            _assert_candidates_match_face_set_oracle(g)
