import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oneplane.core import FaceClass, SimpleGraph, OperationError, underlying
from oneplane.build import delete_edges, plane_graph
from oneplane import analyze, flow, transform
from oneplane.analyze import (
    check_blue_neighbors,
    check_color_identities,
    check_crossing_cliques,
    check_crossing_share,
    check_face_adjacency,
    check_near_optimal,
    check_true_face_neighbors,
    connectivity_at_least,
    degree_profile,
    is_separating_cycle,
    is_triangulation,
    map_graph,
    min_vertex_separator,
    property_suite,
    regularity_checks,
    verify_bounds,
    vertex_connectivity,
)
from oneplane.transform import skeleton
from oneplane.maximality import SaturationPolicy, saturate
from oneplane.interchange import load
from oneplane.generators import (
    gen_HH,
    gen_M,
    gen_M_triangulated,
    gen_XH,
    gen_XM,
    gen_YH,
    gen_random_seed,
    fixture_path,
    generate,
)
from .oracles import (
    all_pairs_connectivity,
    bfs_augment,
    bfs_fan_menger,
    brute_force_connectivity,
    per_vertex_lambda3,
    rebuild_local_connectivity,
    separates,
    simple_graph,
    split_network,
    split_network_menger,
    split_residual_cut,
    walk_separating_cycle,
)
from .test_cli import _count_calls




def test_connectivity_families():
    assert vertex_connectivity(underlying(gen_YH(1))) == 3
    assert vertex_connectivity(underlying(gen_XH(1))) == 6
    assert vertex_connectivity(underlying(gen_XM(2))) == 4


def test_connectivity_basics():
    k4 = simple_graph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert vertex_connectivity(k4) == 3          # complete: n-1
    path = simple_graph((0, 1, 2), ((0, 1), (1, 2)))
    assert vertex_connectivity(path) == 1
    # the empty set separates a disconnected graph
    disconnected = simple_graph((0, 1, 2), ((0, 1),))
    assert vertex_connectivity(disconnected) == 0
    assert min_vertex_separator(disconnected) == frozenset()
    with pytest.raises(OperationError) as exc:
        vertex_connectivity(simple_graph((7,), ()))
    assert exc.value.code == "BAD_PARAMETER"


def test_connectivity_matches_brute_force_on_small_instances():
    graphs = [underlying(gen_XM(1)), underlying(gen_XH(1)),
              underlying(gen_M(2)), underlying(gen_M(3))]
    for seed in range(12):
        graphs.append(underlying(gen_random_seed(5 + seed % 8, seed)))
    for sg in graphs:
        if sg.order <= 12:
            assert vertex_connectivity(sg) == brute_force_connectivity(sg)


def test_degree_profile():
    prof = degree_profile(underlying(gen_YH(1)))
    assert sum(prof.histogram.values()) == 20
    assert sum(k * v for k, v in prof.histogram.items()) == 2 * 60
    assert prof.min_degree == 3
    assert prof.lambda1 == 0 and prof.lambda2 == 0
    # degree-3 vertices are odd and small; they all count toward lambda3
    assert prof.lambda3 == 8


def _wheel_edges(hub, rim):
    """Spokes from ``hub`` and the cycle through ``rim``."""
    return [(hub, r) for r in rim] + list(zip(rim, rim[1:] + rim[:1]))


def _graph(edges):
    return simple_graph({v for e in edges for v in e}, edges)


# odd-degree vertices above 9 with kappa < 3, which no family member or
# saturation has: a hub of degree 11 with a pendant rim vertex (kappa 1),
# the same wheel with an ear (kappa 2, G-hub 2-connected), a hub of
# degree 15 over an 11-cycle and a 4-cycle joined by one edge (kappa 2,
# G-hub has a cut vertex), and a hub of degree 11 over two hexagons that
# share vertex 6 (kappa 2, G-hub has a cut vertex that ends no bridge).
# Each call builds fresh graphs: flow.menger keeps κ per graph, so a test
# that counts κ's searches must not see one an earlier test computed.
RIM = list(range(1, 12))


def low_kappa():
    return [
        (_graph(_wheel_edges(0, RIM) + [(1, 12)]), 1),
        (_graph(_wheel_edges(0, RIM) + [(1, 12), (6, 12)]), 2),
        (_graph(_wheel_edges(0, RIM) + _wheel_edges(0, [12, 13, 14, 15]) + [(1, 12)]), 2),
        (_graph(_wheel_edges(0, RIM[:6]) + _wheel_edges(0, RIM[5:])), 2),
    ]


def test_lambda3_agrees_with_per_vertex_oracle():
    graphs = [underlying(generate(f, k)) for f, k in
              [("yh", 1), ("yh", 2), ("xh", 1), ("xh", 2),
               ("xm", 1), ("xm", 2), ("xm", 3), ("xm", 4)]]
    graphs += [underlying(saturate(gen_random_seed(n, seed), SaturationPolicy.SEEDED, seed))
               for n, seed in [(10, 17), (8, 3), (9, 38), (12, 5)]]
    graphs.append(_graph(_wheel_edges(0, RIM)))          # kappa 3, hub degree 11
    for sg in graphs:
        assert degree_profile(sg).lambda3 == per_vertex_lambda3(sg)
    for sg, kappa in low_kappa():
        assert vertex_connectivity(sg) == kappa
        assert any(sg.degree(v) > 9 and sg.degree(v) % 2 for v in sg.vertices)
        assert degree_profile(sg).lambda3 == per_vertex_lambda3(sg)
    # the hub counts only where G-hub is 2-connected
    assert [degree_profile(sg).lambda3 for sg, _ in low_kappa()] == [11, 10, 13, 11]


def test_degree_profile_tests_kappa_once(monkeypatch):
    """The saturation (20, 1) has three odd vertices of degree above 9 and
    κ = 3, so one κ test settles all three; YH(1) has none, so none runs."""
    sg = underlying(saturate(gen_random_seed(20, 1), SaturationPolicy.SEEDED, 1))
    assert sum(sg.degree(v) % 2 == 1 and sg.degree(v) > 9 for v in sg.vertices) == 3
    calls = []
    at_least = analyze.connectivity_at_least

    def counted(g, k):
        calls.append((g, k))
        return at_least(g, k)
    monkeypatch.setattr(analyze, "connectivity_at_least", counted)
    assert degree_profile(sg).lambda3 == per_vertex_lambda3(sg)
    assert calls == [(sg, 3)]
    calls.clear()
    degree_profile(underlying(gen_YH(1)))
    assert calls == []


def _numbered(sg, order):
    """The numbering by position in ``order`` and the neighbor table that
    ``flow.augment`` searches: each vertex's neighbors by ascending number,
    then the vertex itself."""
    index = {v: i for i, v in enumerate(order)}
    return index, [[*sorted(index[w] for w in sg.adjacency[v]), i]
                   for i, v in enumerate(order)]


def test_shared_network_flows_agree_with_rebuild_oracle():
    """Every non-adjacent pair in sequence on one neighbor table, each with
    fresh flow state, with and without an early stop, against a network
    rebuilt for that pair alone: a table changed by one pair would change
    a later pair's count."""
    graphs = [underlying(generate(f, k)) for f, k in
              [("xm", 1), ("xm", 2), ("xm", 3), ("xm", 4), ("yh", 1), ("xh", 1)]]
    graphs.append(underlying(load(fixture_path("t1"))))
    graphs += [underlying(saturate(gen_random_seed(n, seed), SaturationPolicy.SEEDED, seed))
               for n, seed in [(10, 17), (12, 5)]]
    graphs += [sg for sg, _ in low_kappa()]
    for sg in graphs:
        index, nbrs = _numbered(sg, list(reversed(sg.vertices)))
        table = [ns[:] for ns in nbrs]
        pairs = [(s, t) for s, t in combinations(sg.vertices, 2) if not sg.has_edge(s, t)]
        assert pairs
        for s, t in pairs:
            for cap in (sg.order, 2):
                assert (flow.augment(nbrs, {}, {}, index[s], index[t], cap)
                        == rebuild_local_connectivity(sg, s, t, cap))
        assert nbrs == table


def _kappa_graphs():
    """Families, fixtures, seeded saturations and ``low_kappa``, each as is
    and with its first 1-4 vertices or 1-4 seeded random vertices removed
    (where the rest stays connected): removals give κ below the minimum
    degree."""
    base = [underlying(generate(f, k)) for f, ks in
            [("yh", (1, 2, 3)), ("xh", (1, 2, 3)), ("xm", range(1, 7))] for k in ks]
    base += [underlying(load(fixture_path(t))) for t in ("t1", "t2")]
    base += [underlying(saturate(gen_random_seed(n, seed), SaturationPolicy.SEEDED, seed))
             for n, seed in [(10, 17), (8, 3), (12, 5), (20, 1), (30, 2), (40, 3)]]
    base += [sg for sg, _ in low_kappa()]
    rng = random.Random(7)
    for sg in base:
        yield sg
        for r in range(1, 5):
            for gone in (sg.vertices[:r], rng.sample(sg.vertices, r)):
                h = sg.without(gone)
                if h.order >= 2 and h.is_connected():
                    yield h


def test_connectivity_and_separator_agree_with_oracles():
    """κ equals the flow-to-every-pair oracle; the separator has κ
    vertices and a breadth-first search of G - S finds two components."""
    for sg in _kappa_graphs():
        kappa = vertex_connectivity(sg)
        assert kappa == all_pairs_connectivity(sg)
        if kappa == sg.order - 1:
            with pytest.raises(OperationError):
                min_vertex_separator(sg)
        else:
            cut = min_vertex_separator(sg)
            assert len(cut) == kappa and separates(sg, cut)


def test_depth_first_fans_agree_with_breadth_first_augment():
    """Under any numbering, a fan of i that starts from its edges to the
    settled vertices 1..i-1 finds as many paths as a breadth-first augment
    to the sink of the explicit network with those vertices' sink arcs
    open, up to the cap, whether or not the cap stops it early."""
    rng = random.Random(3)
    graphs = [underlying(generate(f, k)) for f, k in [("xm", 3), ("yh", 1), ("xh", 1)]]
    graphs += [sg for sg, _ in low_kappa()]
    for sg in graphs:
        for _ in range(20):
            index, nbrs = _numbered(sg, rng.sample(sg.vertices, sg.order))
            net = split_network(sg, index)
            res = net.cap0[:]
            for i in range(sg.order):
                direct = [w for w in nbrs[i][:-1] if 0 < w < i]
                for more in (1, sg.order):
                    cap = len(direct) + more
                    prv = dict.fromkeys(direct, i)
                    nxt = dict.fromkeys(direct, flow.SINK)
                    found = flow.augment(nbrs, prv, nxt, i, flow.SINK, more)
                    assert len(direct) + found == bfs_augment(net, res[:], 2 * i + 1,
                                                              net.sink, cap)
                if i:
                    res[4 * i + 2] = 1


def _flow_pairs(sg):
    """Every non-adjacent pair of a graph on at most 30 vertices; on a
    larger one, the pairs κ's own s-t flows join: a minimum-degree vertex s
    with each non-neighbour, and the non-adjacent pairs of N(s)."""
    if sg.order <= 30:
        return [(x, y) for x, y in combinations(sg.vertices, 2) if not sg.has_edge(x, y)]
    s = min(sg.vertices, key=lambda v: (sg.degree(v), v))
    nb = sorted(sg.neighbors(s))
    return ([(s, t) for t in sg.vertices if t != s and not sg.has_edge(s, t)]
            + [(x, y) for x, y in combinations(nb, 2) if not sg.has_edge(x, y)])


def test_depth_first_augment_agrees_with_breadth_first_augment():
    """A depth-first s-t flow counts the paths a breadth-first one does, at
    a cap that stops it early and at one that does not; below the cap both
    flows are maximum, so the flow state of one and the residual table of
    the other leave the same cut."""
    for sg in _kappa_graphs():
        index, nbrs = _numbered(sg, sg.vertices)
        net = split_network(sg, index)
        for x, y in _flow_pairs(sg):
            src = 2 * index[x] + 1
            for cap in (2, sg.order):
                prv, want_res = {}, net.cap0[:]
                found = flow.augment(nbrs, prv, {}, index[x], index[y], cap)
                assert found == bfs_augment(net, want_res, src, 2 * index[y], cap)
                if found < cap:
                    assert (flow.residual_cut(sg.vertices, nbrs, prv, index[x])
                            == split_residual_cut(net, src, want_res))


def _recorded_searches(monkeypatch):
    """Every ``flow.augment`` call from now on, as (nbrs, prv, nxt, src,
    dst, c, found, cap, seeded) with the state as the call left it, c
    paths placed before it (the ``prv`` entries that src feeds) and
    ``seeded`` a copy of the state (prv, nxt) it started from."""
    calls = []
    augment = flow.augment

    def recorded(nbrs, prv, nxt, src, dst, cap):
        c = sum(v == src for v in prv.values())
        seeded = (dict(prv), dict(nxt))
        found = augment(nbrs, prv, nxt, src, dst, cap)
        calls.append((nbrs, prv, nxt, src, dst, c, found, cap, seeded))
        return found
    monkeypatch.setattr(flow, "augment", recorded)
    return calls


def _seeded_fan(nbrs, t, best):
    """The state a fan of t starts from: a path t -> x to each settled
    neighbor x, then a path t -> w -> x through each unsettled neighbor w
    in ascending order, to the first settled x in ``nbrs[w]`` that no path
    ends at yet, until ``best`` paths are placed."""
    direct = [x for x in nbrs[t][:-1] if x < t]
    prv, nxt = dict.fromkeys(direct, t), dict.fromkeys(direct, flow.SINK)
    for w in nbrs[t][len(direct):-1]:
        x = next((x for x in nbrs[w] if 0 < x < t and x not in nxt), None)
        if x is not None and sum(v == t for v in prv.values()) < best:
            prv[w], nxt[w], prv[x], nxt[x] = t, x, w, flow.SINK
    return prv, nxt


def test_connectivity_work_count(monkeypatch):
    """The free paths settle every non-neighbor of YH(4) with no search at
    all (268 flows without fans, 29 searches without seeds); where κ is
    below the minimum degree the fan of the vertex that sets κ falls short
    and its s-t flow runs.  A search starts seeded, and asks for ``best``
    minus its c seeded paths: a fan of t from t's edges to its settled
    neighbors and the two-step paths t -> w -> x of ``_seeded_fan``, with
    0 < x < t; an x-y flow from a path x -> w -> y through each common
    neighbor w."""
    calls = _recorded_searches(monkeypatch)

    def searches(sg):
        calls.clear()
        kappa = vertex_connectivity(sg)
        best = min(sg.degree(v) for v in sg.vertices)
        out = []
        for nbrs, prv, nxt, src, dst, c, found, cap, (prv0, nxt0) in calls:
            assert c + cap == best
            if dst == flow.SINK:
                assert (prv0, nxt0) == _seeded_fan(nbrs, src, best)
                for w in [w for w, v in prv0.items() if v == src and nxt0[w] != flow.SINK]:
                    x = nxt0[w]
                    assert src < w and 0 < x < src and x in nbrs[w] and prv0[x] == w
                    assert nxt0[x] == flow.SINK
                out.append(("fan", c + found, c + cap))
            else:
                common = set(nbrs[src]) & set(nbrs[dst])
                assert prv0 == dict.fromkeys(common, src)
                assert nxt0 == dict.fromkeys(common, dst)
                assert c == len(common) < best
                best = min(best, c + found)
                out.append(("flow", c + found, c + cap))
        assert best == kappa
        return kappa, out

    kappa, out = searches(underlying(gen_YH(4)))
    assert kappa == 3 and out == []
    kappa, out = searches(underlying(load(fixture_path("t1"))))
    assert kappa == 7 and {kind for kind, _, _ in out} == {"fan", "flow"} and len(out) <= 20
    sg = underlying(saturate(gen_random_seed(20, 1), SaturationPolicy.SEEDED, 1))
    kappa, out = searches(sg)
    assert kappa == 3 < min(sg.degree(v) for v in sg.vertices)
    short = out.index(("fan", 3, 4))
    assert out[short + 1] == ("flow", 3, 4)


def _read_paths(nbrs, prv, nxt, src, dst):
    """The paths a flow state holds, read off it: from src through each w
    that src feeds, along ``nxt``, to dst, or for a fan to the settled
    vertex that sends its unit to the sink.  Each step is a real edge and
    each vertex after src is fed by the one before it."""
    paths = []
    for w in [w for w, v in prv.items() if v == src]:
        path = [src, w]
        while path[-1] != dst and nxt[path[-1]] != flow.SINK:
            v = nxt[path[-1]]
            assert v in nbrs[path[-1]][:-1] and (v == dst or prv[v] == path[-1])
            path.append(v)
        paths.append(path)
    return paths


def test_flow_state_reads_as_disjoint_paths(monkeypatch):
    """After every fan and s-t flow of κ's search, prv/nxt hold exactly the
    paths it counts, internally disjoint src-dst paths or fan paths to
    distinct settled vertices, and besides them only cycles, which a path
    leaves behind when it reroutes a stretch of earlier ones.  The paths
    of each flow that lowers ``best``, the last of which sets κ, run over
    edges of the graph between the two vertices of the pair."""
    calls = _recorded_searches(monkeypatch)
    for sg in _kappa_graphs():
        calls.clear()
        kappa = vertex_connectivity(sg)
        *_, cut = flow.menger(sg)
        lowered = []
        for nbrs, prv, nxt, src, dst, c, found, cap, _ in calls:
            paths = _read_paths(nbrs, prv, nxt, src, dst)
            assert len(paths) == c + found
            inner = [v for path in paths for v in path[1:]]
            if dst == flow.SINK:
                assert all(0 < path[-1] < src for path in paths)
            else:
                assert all(path[-1] == dst for path in paths)
                inner = [v for path in paths for v in path[1:-1]]
            assert len(inner) == len(set(inner)) and src not in inner
            assert prv.keys() == nxt.keys() >= set(inner) - {dst}
            cycles = prv.keys() - set(inner)
            for v in cycles:
                w = nxt[v]
                assert w in cycles and prv[w] == v and w in nbrs[v][:-1]
            if dst != flow.SINK and found < cap:
                lowered.append((nbrs, src, dst, paths))
        assert (cut is None) == (not lowered)
        if cut is None:
            continue
        order, nbrs, _, src = cut
        assert nbrs is lowered[-1][0] and src == lowered[-1][1]
        assert len(lowered[-1][3]) == kappa
        for _, src, dst, paths in lowered:
            x, y = order[src], order[dst]
            assert not sg.has_edge(x, y)
            for path in paths:
                ids = [order[i] for i in path]
                assert ids[0] == x and ids[-1] == y
                assert all(sg.has_edge(a, b) for a, b in zip(ids, ids[1:]))


@st.composite
def relabelled_connected_graphs(draw):
    """A connected graph on at most 9 vertices whose ids are neither
    contiguous nor in the order the structure was drawn in."""
    n = draw(st.integers(2, 9))
    parent = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = draw(st.sets(st.sampled_from(list(combinations(range(n), 2))), max_size=20))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    assume(max(ids) - min(ids) >= n)
    edges = {(ids[i], ids[p]) for i, p in enumerate(parent, start=1)}
    edges |= {(ids[a], ids[b]) for a, b in extra}
    return simple_graph(ids, edges)


@settings(max_examples=150, deadline=None)
@given(relabelled_connected_graphs())
def test_connectivity_matches_brute_force_on_relabelled_graphs(sg):
    assert vertex_connectivity(sg) == brute_force_connectivity(sg)


def _agrees_with_bfs_fans(sg):
    kappa, cut = bfs_fan_menger(sg)
    assert vertex_connectivity(sg) == kappa
    if cut is None:
        with pytest.raises(OperationError):
            min_vertex_separator(sg)
    else:
        assert min_vertex_separator(sg) == cut


def test_connectivity_and_separator_agree_with_bfs_fan_oracle():
    """Depth-first fans on the BFS-indexed network give the κ and the
    separator of breadth-first fans on the id-indexed one."""
    for sg in _kappa_graphs():
        _agrees_with_bfs_fans(sg)
    _agrees_with_bfs_fans(underlying(gen_XH(5)))


@settings(max_examples=150, deadline=None)
@given(relabelled_connected_graphs())
def test_connectivity_and_separator_agree_with_bfs_fan_oracle_on_relabelled_graphs(sg):
    _agrees_with_bfs_fans(sg)


def _agrees_with_split_network(sg):
    kappa, cut = split_network_menger(sg)
    assert vertex_connectivity(sg) == kappa
    if cut is None:
        with pytest.raises(OperationError):
            min_vertex_separator(sg)
    else:
        assert min_vertex_separator(sg) == cut and separates(sg, cut)
    if sg.order <= 12:
        assert kappa == all_pairs_connectivity(sg)


def test_connectivity_and_separator_agree_with_split_network_oracle():
    """The implicit network gives the κ and the separator of the explicit
    one, on the κ test graphs and on seeded saturations at n = 60..200
    with 1-5 random vertices removed."""
    for sg in _kappa_graphs():
        _agrees_with_split_network(sg)
    rng = random.Random(22)
    for n in (60, 100, 140, 200):
        sg = underlying(saturate(gen_random_seed(n, n + 1), SaturationPolicy.SEEDED, n + 1))
        _agrees_with_split_network(sg)
        for r in range(1, 6):
            h = sg.without(rng.sample(sg.vertices, r))
            if h.is_connected():
                _agrees_with_split_network(h)


@settings(max_examples=150, deadline=None)
@given(relabelled_connected_graphs())
def test_connectivity_and_separator_agree_with_split_network_oracle_on_relabelled_graphs(sg):
    _agrees_with_split_network(sg)


class _CountedWalks:
    """A map that counts how often its face walks are read."""

    def __init__(self, pmap):
        self.pmap, self.walks = pmap, 0

    @property
    def face_walks(self):
        self.walks += 1
        return self.pmap.face_walks

    @property
    def dart_vertex(self):
        return self.pmap.dart_vertex


def test_is_triangulation_walks_each_map_once(monkeypatch):
    """property_suite asks 4 times whether a planarization is triangulated:
    3 times of g's map and once of its skeleton's.  Each map is walked once."""
    asked = []
    is_tri = analyze.is_triangulation

    def counted(pmap):
        asked.append(pmap)
        return is_tri(pmap)
    monkeypatch.setattr(analyze, "is_triangulation", counted)
    g = gen_XM(2)
    assert property_suite(g) == []
    assert len(asked) == 4 and len({id(m) for m in asked}) == 2
    for pmap in {id(m): m for m in asked}.values():
        m = _CountedWalks(pmap)
        assert is_tri(m) == is_tri(m) == is_tri(pmap)
        assert m.walks == 1


def test_is_triangulation_and_separating_cycle():
    sk = skeleton(gen_XM(1))
    assert is_triangulation(sk.graph.map)
    assert not is_triangulation(gen_M(2).map)

    p = skeleton(gen_XH(1))
    sg = map_graph(p.graph.map)
    deg5 = [v for v in sg.vertices if sg.degree(v) == 5]
    assert deg5
    s = sorted(sg.neighbors(deg5[0]))
    assert is_separating_cycle(p.graph.map, s)
    assert not is_separating_cycle(p.graph.map, [0])
    assert not is_separating_cycle(p.graph.map, [0, 1])


def test_separating_cycle_agrees_with_cycle_walk():
    # every vertex subset of 3..5 vertices of the small maps, 3..4 of the
    # larger ones; both kinds of answer occur
    cases = [(skeleton(gen_XH(1)).graph.map, 5), (gen_M_triangulated(3).map, 5),
             (gen_M(2).map, 5), (skeleton(gen_YH(1)).graph.map, 4), (gen_XM(2).map, 4)]
    found = 0
    for pmap, top in cases:
        for r in range(3, top + 1):
            for s in combinations(range(pmap.n_vertices), r):
                walked = walk_separating_cycle(pmap, s)
                assert is_separating_cycle(pmap, s) == walked, s
                found += walked
    assert found == 66


def test_separating_cycle_builds_one_map_graph(monkeypatch):
    # map_graph is memoised per map, so asking twice builds it once
    pmap = skeleton(gen_XH(1)).graph.map
    built = _count_calls(monkeypatch, analyze, "SimpleGraph")
    assert is_separating_cycle(pmap, [0, 1, 2]) == is_separating_cycle(pmap, [3, 4, 5])
    assert len(built) == 1
    assert map_graph(pmap) is map_graph(pmap)


@pytest.mark.parametrize("subset", [[0, 1, 8], [-1, 0, 1], [8]])
def test_separating_cycle_rejects_an_unknown_vertex(subset):
    with pytest.raises(OperationError) as exc:
        is_separating_cycle(gen_M(2).map, subset)
    assert exc.value.code == "UNKNOWN_VERTEX"


def test_regularity_checks():
    rep = regularity_checks(skeleton(gen_XH(2)).graph.map)
    assert rep.is_56_regular
    assert rep.kappa >= 5

    rep = regularity_checks(gen_M_triangulated(3).map)
    assert (rep.omega4, rep.omega5) == (4, 4)
    assert rep.hakimi_condition
    assert rep.kappa >= rep.min_degree == 4

    k4 = saturate(plane_graph([[3, 1], [0, 2], [1, 3], [2, 0]]))
    rep = regularity_checks(k4.map)
    assert not rep.is_56_regular               # all degrees 3

    with pytest.raises(OperationError) as exc:
        regularity_checks(gen_M(2).map)
    assert exc.value.code == "NOT_TRIANGULATION"


def test_near_optimal():
    assert check_near_optimal(gen_XH(1)) == []
    assert any("holds 0 crossings" in v for v in check_near_optimal(gen_HH(1)))
    assert any("two triangles" in v for v in check_near_optimal(gen_YH(1)))


def test_face_adjacency_and_crossing_cliques():
    assert check_face_adjacency(gen_XH(1)) == []
    assert check_crossing_cliques(gen_XH(1)) == []
    assert check_crossing_cliques(gen_YH(2)) == []
    # HH(1) is plane with quadrangular faces: their diagonals are missing
    bad = check_face_adjacency(gen_HH(1))
    assert len(bad) == 12
    assert bad[0] == "face-adjacency: true vertices 0,4 share face 0 but are not adjacent"
    # XH(1) without a side of the kite around crossing 12
    g = gen_XH(1)
    assert g.crossing_pairs[0][0] == 12 and g.edges[8].ends == (0, 8)
    assert check_crossing_cliques(delete_edges(g, [8]).graph) == \
        ["crossing-cliques: crossing 12: 0,8 not adjacent"]


def test_true_face_and_blue_neighbor_bounds():
    assert check_true_face_neighbors(gen_YH(1), 3) == []
    assert check_true_face_neighbors(gen_XH(1), 5) == []
    assert check_blue_neighbors(skeleton(gen_YH(1)), 3) == []
    assert check_blue_neighbors(skeleton(gen_XH(1)), 5) == []
    # YH(1) has κ = 3: its true faces come in adjacent runs
    assert check_true_face_neighbors(gen_YH(1), 4)[0] == \
        "true-face-neighbors(k=4): true face 2 adjacent to true faces [3, 13]"
    assert check_blue_neighbors(skeleton(gen_YH(1)), 5)[0] == \
        "blue-neighbors(k=5): blue vertex 2 has blue neighbors [3, 12]"
    assert check_true_face_neighbors(gen_HH(1), 3) == \
        ["true-face-neighbors(k=3): planarization is not a triangulation"]


@pytest.mark.parametrize("k", [2, 6])
def test_neighbor_bounds_reject_k_outside_3_to_5(k):
    for run in (lambda: check_true_face_neighbors(gen_YH(1), k),
                lambda: check_blue_neighbors(skeleton(gen_YH(1)), k)):
        with pytest.raises(OperationError) as exc:
            run()
        assert exc.value.code == "BAD_PARAMETER"


def test_property_suite_on_a_non_maximal_drawing():
    for g in (gen_HH(1), gen_XM(1)):
        assert property_suite(g) == ["saturated drawing is not maximal"]


# which structural checks property_suite runs on a drawing: the neighbor
# checks on G_k for k = min(κ, 5), the crossing share on G_5 only
WIRED = ["check_face_adjacency", "check_crossing_cliques", "check_true_face_neighbors",
         "check_blue_neighbors", "check_color_identities", "check_crossing_share"]


@pytest.mark.parametrize("check", WIRED + ["check_true_face_neighbors+check_blue_neighbors"])
def test_property_suite_runs_each_check_where_it_holds(monkeypatch, check):
    """Each check, made to report one extra violation, shows it in the
    suite exactly on the drawings it runs on: all six on XH(1) (κ = 6) and
    t1 (κ = 7), all but the crossing share on YH(1) (κ = 3, immovable) and
    XM(2) (κ = 4).  Two neighbor checks made to fail together both show:
    one failing does not stop the other."""
    def failing(name):
        original = getattr(analyze, name)
        return lambda *args: original(*args) + [name]
    names = check.split("+")
    for name in names:
        monkeypatch.setattr(analyze, name, failing(name))
    for g, runs in [(gen_YH(1), check != "check_crossing_share"),
                    (gen_XM(2), check != "check_crossing_share"),
                    (gen_XH(1), True), (load(fixture_path("t1")), True)]:
        bad = property_suite(g)
        assert [bad.count(name) for name in names] == [runs] * len(names)


def test_property_suite_builds_one_dual(monkeypatch):
    """One dual per (map, color) pair the checks read: the drawing's true
    faces, and the skeleton's blue and red faces."""
    built = []
    original = transform.dual

    def counted(pmap, colors, color):
        built.append((pmap, color))
        return original(pmap, colors, color)
    monkeypatch.setattr(analyze, "dual", counted)
    g = gen_XH(1)
    assert is_triangulation(g.map)
    assert property_suite(g) == []
    sk_map = built[1][0]
    assert built == [(g.map, FaceClass.TRUE), (sk_map, FaceClass.BLUE), (sk_map, FaceClass.RED)]
    assert sk_map is not g.map and sk_map == skeleton(g).graph.map


def test_crossing_share():
    assert check_crossing_share(gen_XH(1)) == []
    # YH(1) has κ = 3: its degree-8 vertices lie on two crossed edges
    assert check_crossing_share(gen_YH(1))[0] == "crossing-share: vertex 0: deg=8, c=2"


def test_color_identities_on_families():
    for g in (gen_XH(1), gen_YH(1), gen_XM(2), gen_XM(3)):
        assert check_color_identities(skeleton(g)) == []


def test_color_identities_on_deletions_that_are_not_skeletons():
    # XH(1) has n = 12, cr = 6 and 8 true faces.  Keeping one crossing, or
    # removing both edges of one pair, breaks the identities a skeleton keeps
    g = gen_XH(1)
    keeps_one_crossing = delete_edges(g, [b for _, _, b in g.crossing_pairs[1:]])
    assert check_color_identities(keeps_one_crossing) == [
        "|V_bl|=12 != |F_tr|=8",
        "skeleton has 31 edges, expected 30",
        "skeleton has 22 faces, expected 20",
        "dual has 33 edges, expected 30",
        "cr=6 but |V_rd|=10"]
    both_of_a_pair = delete_edges(g, sorted([*skeleton(g).removed, g.crossing_pairs[0][1]]))
    assert check_color_identities(both_of_a_pair) == [
        "red vertex 0 has no red neighbor",
        "skeleton of a triangulated planarization is not a triangulation",
        "skeleton has 29 edges, expected 30",
        "skeleton has 19 faces, expected 20",
        "dual has 29 edges, expected 30",
        "cr=6 but |V_rd|=11"]


def test_verify_bounds_tight_rows():
    rep = verify_bounds(gen_YH(1))
    assert rep.all_pass and rep.kappa == 3 and rep.immovable
    k3 = next(e for e in rep.entries if e.bound_id == "cr-k3")
    assert k3.applicable and k3.lhs == k3.rhs == 6

    rep = verify_bounds(gen_XM(3))
    assert rep.all_pass and rep.kappa == 4
    k4 = next(e for e in rep.entries if e.bound_id == "cr-k4")
    assert k4.applicable and k4.lhs == k4.rhs == 10

    t1 = load(fixture_path("t1"))
    rep = verify_bounds(t1)
    assert rep.all_pass and rep.kappa == 7
    k7 = next(e for e in rep.entries if e.bound_id == "cr-k7")
    assert k7.applicable and k7.lhs == k7.rhs == 18
    e7 = next(e for e in rep.entries if e.bound_id == "size-k7")
    assert e7.lhs == e7.rhs == Fraction(15, 4) * 22 + Fraction(3, 2) == 84

    with pytest.raises(OperationError) as exc:
        verify_bounds(gen_HH(1))
    assert exc.value.code == "NOT_MAXIMAL"


def test_bound_rows_are_exact_rationals():
    # a float side would compare and print inexactly
    for g in (gen_YH(1), gen_XM(3), load(fixture_path("t1"))):
        for e in verify_bounds(g).entries:
            assert type(e.lhs) is Fraction and type(e.rhs) is Fraction, e.bound_id


def test_k4_is_in_no_g_k():
    # K4 is maximal and immovable with κ = 3, but G_3 starts at n = 5
    k4 = plane_graph([[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]])
    rep = verify_bounds(k4)
    assert (rep.n, rep.kappa, rep.immovable, rep.all_pass) == (4, 3, True, True)
    assert [e.bound_id for e in rep.entries if e.applicable] == ["cr-max", "cr-max-slack"]


# K5 - e on n=5 drawn maximally with two crossings: its planarization is
# not triangulated, so the degree-slack row (cr <= 5/3 here) does not apply
@pytest.mark.parametrize("seed", [300, 380, 1460])
def test_slack_row_needs_triangulated_planarization(seed):
    m = saturate(gen_random_seed(5, seed), SaturationPolicy.SEEDED, seed)
    assert (m.n, m.crossing_count, m.size) == (5, 2, 9)
    assert not is_triangulation(m.map)
    rep = verify_bounds(m)
    assert rep.all_pass
    slack = next(e for e in rep.entries if e.bound_id == "cr-max-slack")
    assert not slack.applicable and slack.line() == "cr-max-slack 2 <= 5/3 NOT_APPLICABLE"


def test_property_suite_reports_failing_bound_rows(monkeypatch):
    g = gen_XH(1)
    failing = analyze.BoundEntry("cr-max", True, Fraction(5), "<=", Fraction(4), False)
    skipped = analyze.BoundEntry("cr-k7", False, Fraction(6), ">=", Fraction(9), None)
    real = verify_bounds(g)
    monkeypatch.setattr(analyze, "verify_bounds", lambda _: real._replace(
        entries=real.entries + (failing, skipped)))
    assert property_suite(g) == ["cr-max 5 <= 4 FAIL"]


def test_bounds_report_lines_are_exact():
    rep = verify_bounds(gen_XH(1))
    lines = rep.lines()
    assert "cr-k56 6 >= 6 PASS" in lines
    assert "size-k56 36 >= 36 PASS" in lines


def test_degree_criteria_never_contradict_connectivity():
    # regularity_checks raises internally on contradiction; these must not
    for pm in (skeleton(gen_XH(2)).graph.map, gen_M_triangulated(2).map,
               gen_M_triangulated(4).map, skeleton(gen_XM(3)).graph.map):
        if is_triangulation(pm):
            regularity_checks(pm)


def test_connectivity_at_least_handles_tiny_graphs():
    k2 = simple_graph((0, 1), ((0, 1),))
    assert connectivity_at_least(k2, 1)
    assert not connectivity_at_least(k2, 2)
    single = simple_graph((7,), ())
    assert not connectivity_at_least(single, 1)
    # k <= 0 asks only for a vertex, which the empty graph lacks
    empty = single.without([7])
    assert connectivity_at_least(single, 0) and not connectivity_at_least(empty, 0)
    assert single.is_connected() and not empty.is_connected()


def test_connectivity_at_least_reads_disconnection_from_the_flow(monkeypatch):
    """A disconnected graph is below every positive k; the flow search that
    numbers its network says so, and no separate search runs first."""
    searches = _count_calls(monkeypatch, SimpleGraph, "is_connected")
    two_edges = simple_graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    assert not connectivity_at_least(two_edges, 1)
    assert not connectivity_at_least(two_edges.without([0]), 2)
    assert connectivity_at_least(underlying(gen_XM(2)), 4)
    assert not searches
