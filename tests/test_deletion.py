"""The one-pass deletion (``build.delete_edges``) and the face class table
(``core.faces``) against the builder path they replaced: a builder copy,
one deletion per edge, ``finish()``, and ``FaceMerge`` classes mapped back
by ``merge_deletion`` (``tests/oracles.py``).  Redraws, whose g - e is a
deletion too, are compared with that path in ``test_maximality.py``."""

import pytest

from oneplane.analyze import check_near_optimal
from oneplane.build import delete_edges
from oneplane.core import OperationError, faces
from oneplane.generators import fixture_path, gen_random_seed, generate
from oneplane.interchange import load, parse, serialize
from oneplane.maximality import SaturationPolicy, saturate
from oneplane.transform import skeleton

from .oracles import (
    reference_faces,
    reference_near_optimal,
    reference_skeleton,
)
from .test_transform import CUT_OFF

FAMILIES = [("hh", 1), ("m", 2), ("xh", 1), ("xh", 2), ("yh", 1), ("yh", 2),
            ("xm", 1), ("xm", 2), ("xm", 3), ("xm", 4)]
SATURATED = [(8, 3), (10, 17), (12, 5), (20, 1), (30, 7)]

# gen_random_seed(7, 94) with two crossing insertions: the face 0, 7, 2, 8
# is bounded by crossed edges alone, so H = G minus its crossed edges keeps
# no dart of it
ALL_CROSSED = """1pg 1
vertices 9
v 0 true
v 1 true
v 2 true
v 3 true
v 4 true
v 5 true
v 6 true
v 7 fake
v 8 fake
edges 16
e 0 0 1
e 1 1 2 x 8
e 2 2 3 x 7
e 3 0 3
e 4 4 0
e 5 4 1
e 6 4 2
e 7 4 3
e 8 5 1
e 9 5 2
e 10 5 4
e 11 6 2
e 12 6 3
e 13 6 4
e 14 0 6 x 7
e 15 0 5 x 8
rot 0 15.u 14.u 3 4 0
rot 1 0 5 8 1.u
rot 2 1.v 9 6 11 2.u
rot 3 2.v 12 7 3
rot 4 7 13 6 10 5 4
rot 5 10 9 15.v 8
rot 6 13 12 14.v 11
rot 7 2.v 14.u 2.u 14.v
rot 8 1.v 15.u 1.u 15.v
"""


def _drawings():
    out = {f"{f}{k}": generate(f, k) for f, k in FAMILIES}
    out.update((t, load(fixture_path(t))) for t in ("t1", "t2"))
    for n, seed in SATURATED:
        base = gen_random_seed(n, seed)
        out.update((f"{policy.value}-{n}-{seed}", saturate(base, policy, seed))
                   for policy in SaturationPolicy)
    return out


DRAWINGS = _drawings()
UNSATURATED = [gen_random_seed(n, seed) for n in range(5, 40, 3) for seed in range(4)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OperationError as exc:
        return exc.code


@pytest.mark.parametrize("name", DRAWINGS)
def test_skeleton_matches_merge_deletion(name):
    g = DRAWINGS[name]
    smaller = [a for _, a, _ in g.crossing_pairs]
    mixed = [pair[1 + c % 2] for c, pair in enumerate(g.crossing_pairs)]
    for removed in (None, smaller, mixed):
        sk = skeleton(g, removed)
        want = reference_skeleton(g, removed)
        assert serialize(sk.graph) == serialize(want.sub.graph)
        # graph, id maps, source and removed edges
        assert sk == want.sub
        assert (sk.colors, sk.face_members) == (want.colors, want.face_members)


def test_face_classes_match_face_objects():
    for g in [*DRAWINGS.values(), *UNSATURATED, parse(ALL_CROSSED)]:
        assert faces(g) == tuple(f.classification for f in reference_faces(g))


def test_near_optimal_matches_merge_deletion():
    g = parse(ALL_CROSSED)
    crossed = {e for e, rec in enumerate(g.edges) if rec.crossing is not None}
    assert any(all(g.dart_edge[d] in crossed for d in w) for w in g.map.face_walks)
    for g in [*DRAWINGS.values(), *UNSATURATED, g, parse(CUT_OFF)]:
        assert check_near_optimal(g) == reference_near_optimal(g)


def test_disconnecting_deletions_agree():
    g = parse(CUT_OFF)
    assert _outcome(skeleton, g) == _outcome(reference_skeleton, g) == "DISCONNECTED"
    larger = [b for _, _, b in g.crossing_pairs]
    assert _outcome(skeleton, g, larger[::-1]) == "DISCONNECTED"
    # removing the smaller edge of each pair keeps the drawing connected
    smaller = [a for _, a, _ in g.crossing_pairs]
    sk, want = skeleton(g, smaller), reference_skeleton(g, smaller)
    assert sk == want.sub
    assert (sk.colors, sk.face_members) == (want.colors, want.face_members)


@pytest.mark.parametrize("edges", [(-1,), (99,), (0, 0)])
def test_delete_edges_rejects_unknown_and_repeated_edges(edges):
    with pytest.raises(OperationError) as exc:
        delete_edges(generate("xm", 1), edges)
    assert exc.value.code == "UNKNOWN_EDGE"
