"""The check path's tables, read off the validated map, against the
algorithms they replaced (``tests/oracles.py``)."""

from functools import cache

from oneplane.analyze import is_triangulation
from oneplane.build import delete_edges
from oneplane.core import underlying
from oneplane.generators import fixture_path, gen_random_seed, generate
from oneplane.interchange import load
from oneplane.maximality import (
    SaturationPolicy,
    _redrawable,
    _sides,
    apply_insertion,
    insertion_candidates,
    saturate,
)
from oneplane.transform import skeleton

from .oracles import (
    distinct_vertex_is_triangulation,
    edge_dart_redrawable,
    edge_dart_sides,
    sorted_underlying,
    stepwise_saturation,
)


@cache
def _drawings():
    """YH, XH, XM, HH and M at k = 1..4, t1 and t2, random drawings at
    n = 6..60, each as drawn and saturated under SEEDED, and every step of
    the seeded saturation of (10, 17), which ends movable."""
    out = [generate(f, k) for f in ("yh", "xh", "xm", "hh", "m") for k in range(1, 5)]
    out += [load(fixture_path(t)) for t in ("t1", "t2")]
    for n in range(6, 61, 6):
        g = gen_random_seed(n, n)
        out += [g, saturate(g, SaturationPolicy.SEEDED, n)]
    out += stepwise_saturation(gen_random_seed(10, 17), SaturationPolicy.SEEDED, 17)
    return tuple(out)


def test_underlying_agrees_with_sorted_oracle():
    """The graph read off the rotations has the sorted edge pairs and the
    adjacency that the edge table gives, keyed in vertex order, and keeps
    that adjacency as its own."""
    for g in _drawings():
        sg, want = underlying(g), sorted_underlying(g)
        assert "adjacency" in sg.__dict__
        assert sg == want and sg.adjacency == want.adjacency
        assert list(sg.adjacency) == list(want.adjacency)


def test_is_triangulation_agrees_with_distinct_vertex_oracle():
    """On every drawing, on its skeleton and on it minus every third edge,
    where that stays connected: both ways, so neither side is vacuous."""
    seen = set()
    for g in _drawings():
        maps = [g.map, skeleton(g).map]
        sub = delete_edges(g, range(0, g.size, 3))
        if sub is not None:
            maps.append(sub.map)
        for pmap in maps:
            seen.add(is_triangulation(pmap))
            assert is_triangulation(pmap) == distinct_vertex_is_triangulation(pmap)
    assert seen == {True, False}


def _crossed_needlessly(g):
    """The drawings that g's first three two-face insertions whose ends
    also share a face make, one each: each inserted edge is redrawable,
    since deleting it gives g back."""
    cands = insertion_candidates(g)
    free = {(c.u, c.v) for c in cands if c.cross_edge is None}
    return [apply_insertion(g, c) for c in cands
            if c.cross_edge is not None and (c.u, c.v) in free][:3]


def test_sides_and_redrawable_agree_with_edge_dart_oracle():
    """The faces beside each uncrossed edge, read off ``opposite``, and the
    crossed edges with a crossing-free redraw, whose faces beside each half
    are read off the crossing's rotation, equal their ``edge_darts``
    readings: on the drawings, which include immovable ones, and on those
    crossed needlessly, which each have a redrawable edge."""
    movable = [h for g in _drawings() for h in _crossed_needlessly(g)]
    assert len(movable) >= 15
    for g in _drawings() + tuple(movable):
        assert _sides(g) == edge_dart_sides(g)
        redrawable = list(_redrawable(g))
        assert redrawable == list(edge_dart_redrawable(g))
        assert redrawable or all(g is not h for h in movable)
    assert not list(_redrawable(load(fixture_path("t2"))))
