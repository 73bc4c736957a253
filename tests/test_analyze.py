import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oneplane.core import SimpleGraph, OperationError, underlying
from oneplane.build import plane_graph
from oneplane import analyze, transform
from oneplane.analyze import (
    CheckStatus,
    check_blue_neighbors,
    check_color_identities,
    check_crossing_cliques,
    check_crossing_share,
    check_face_adjacency,
    check_true_face_neighbors,
    connectivity_at_least,
    degree_profile,
    is_near_optimal,
    is_separating_cycle,
    is_triangulation,
    map_graph,
    min_vertex_separator,
    property_suite,
    regularity_checks,
    verify_bounds,
    vertex_connectivity,
)
from oneplane.transform import dual, skeleton
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
    brute_force_connectivity,
    per_vertex_lambda3,
    rebuild_local_connectivity,
    separates,
)




def test_connectivity_families():
    assert vertex_connectivity(underlying(gen_YH(1))) == 3
    assert vertex_connectivity(underlying(gen_XH(1))) == 6
    assert vertex_connectivity(underlying(gen_XM(2))) == 4


def test_connectivity_basics():
    k4 = SimpleGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert vertex_connectivity(k4) == 3          # complete: n-1
    path = SimpleGraph((0, 1, 2), ((0, 1), (1, 2)))
    assert vertex_connectivity(path) == 1
    disconnected = SimpleGraph((0, 1, 2), ((0, 1),))
    with pytest.raises(OperationError) as exc:
        vertex_connectivity(disconnected)
    assert exc.value.code == "DISCONNECTED"


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
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return SimpleGraph(tuple(sorted({v for e in edges for v in e})), tuple(edges))


# odd-degree vertices above 9 with kappa < 3, which no family member or
# saturation has: a hub of degree 11 with a pendant rim vertex (kappa 1),
# the same wheel with an ear (kappa 2, G-hub 2-connected), a hub of
# degree 15 over an 11-cycle and a 4-cycle joined by one edge (kappa 2,
# G-hub has a cut vertex), and a hub of degree 11 over two hexagons that
# share vertex 6 (kappa 2, G-hub has a cut vertex that ends no bridge)
RIM = list(range(1, 12))
LOW_KAPPA = [
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
    for sg, kappa in LOW_KAPPA:
        assert vertex_connectivity(sg) == kappa
        assert any(sg.degree(v) > 9 and sg.degree(v) % 2 for v in sg.vertices)
        assert degree_profile(sg).lambda3 == per_vertex_lambda3(sg)
    # the hub counts only where G-hub is 2-connected
    assert [degree_profile(sg).lambda3 for sg, _ in LOW_KAPPA] == [11, 10, 13, 11]


def test_shared_network_flows_agree_with_rebuild_oracle():
    """Every non-adjacent pair in sequence on one network, with and without
    an early stop, against a network rebuilt for that pair alone: flow left
    over from one pair would change a later pair's count."""
    graphs = [underlying(generate(f, k)) for f, k in
              [("xm", 1), ("xm", 2), ("xm", 3), ("xm", 4), ("yh", 1), ("xh", 1)]]
    graphs.append(underlying(load(fixture_path("t1"))))
    graphs += [underlying(saturate(gen_random_seed(n, seed), SaturationPolicy.SEEDED, seed))
               for n, seed in [(10, 17), (12, 5)]]
    graphs += [sg for sg, _ in LOW_KAPPA]
    for sg in graphs:
        net = analyze._split_network(sg)
        cap0 = list(net.cap0)
        pairs = [(s, t) for s, t in combinations(sg.vertices, 2) if not sg.has_edge(s, t)]
        assert pairs
        for s, t in pairs:
            src, dst = 2 * net.index[s] + 1, 2 * net.index[t]
            for cap in (sg.order, 2):
                assert (analyze._augment(net, net.cap0[:], src, dst, cap)
                        == rebuild_local_connectivity(sg, s, t, cap))
        assert net.cap0 == cap0


def _kappa_graphs():
    """Families, fixtures, seeded saturations and LOW_KAPPA, each as is
    and with its first 1-4 vertices or 1-4 seeded random vertices removed
    (where the rest stays connected): removals give κ below the minimum
    degree."""
    base = [underlying(generate(f, k)) for f, ks in
            [("yh", (1, 2, 3)), ("xh", (1, 2, 3)), ("xm", range(1, 7))] for k in ks]
    base += [underlying(load(fixture_path(t))) for t in ("t1", "t2")]
    base += [underlying(saturate(gen_random_seed(n, seed), SaturationPolicy.SEEDED, seed))
             for n, seed in [(10, 17), (8, 3), (12, 5), (20, 1), (30, 2), (40, 3)]]
    base += [sg for sg, _ in LOW_KAPPA]
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


def test_connectivity_work_count(monkeypatch):
    """Fans settle every non-neighbor of YH(4) (268 flows without them);
    where κ is below the minimum degree the fan of the vertex that sets κ
    falls short and its s-t flow runs."""
    calls = []
    augment = analyze._augment

    def counted(net, res, src, dst, cap):
        found = augment(net, res, src, dst, cap)
        calls.append((dst == net.sink, found, cap))
        return found
    monkeypatch.setattr(analyze, "_augment", counted)
    assert vertex_connectivity(underlying(gen_YH(4))) == 3
    assert 0 < len(calls) <= 30
    calls.clear()
    sg = underlying(saturate(gen_random_seed(20, 1), SaturationPolicy.SEEDED, 1))
    assert vertex_connectivity(sg) == 3 < min(sg.degree(v) for v in sg.vertices)
    assert (True, 3, 4) in calls and (False, 3, 4) in calls


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
    return SimpleGraph(tuple(sorted(ids)),
                       tuple(sorted((min(e), max(e)) for e in edges)))


@settings(max_examples=150, deadline=None)
@given(relabelled_connected_graphs())
def test_connectivity_matches_brute_force_on_relabelled_graphs(sg):
    assert vertex_connectivity(sg) == brute_force_connectivity(sg)


def test_is_triangulation_and_separating_cycle():
    sk = skeleton(gen_XM(1))
    assert is_triangulation(sk.map)
    assert not is_triangulation(gen_M(2).map)

    p = skeleton(gen_XH(1))
    sg = map_graph(p.map)
    deg5 = [v for v in sg.vertices if sg.degree(v) == 5]
    assert deg5
    s = sorted(sg.neighbors(deg5[0]))
    assert is_separating_cycle(p.map, s)
    assert not is_separating_cycle(p.map, [0])
    assert not is_separating_cycle(p.map, [0, 1])


def test_regularity_checks():
    rep = regularity_checks(skeleton(gen_XH(2)).map)
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
    assert is_near_optimal(gen_XH(1)).is_near_optimal
    rep = is_near_optimal(gen_HH(1))
    assert not rep.is_near_optimal
    assert any("holds 0 crossings" in v for v in rep.violations)
    rep = is_near_optimal(gen_YH(1))
    assert not rep.is_near_optimal
    assert any("two triangles" in v for v in rep.violations)


def test_face_adjacency_and_crossing_cliques():
    assert check_face_adjacency(gen_XH(1)).passed
    assert check_crossing_cliques(gen_XH(1)).passed
    assert check_crossing_cliques(gen_YH(2)).passed
    # not maximal -> not applicable, never a silent pass
    r = check_crossing_cliques(gen_HH(1))
    assert r.status is CheckStatus.NOT_APPLICABLE


def test_true_face_and_blue_neighbor_bounds():
    assert check_true_face_neighbors(gen_YH(1), 3).passed
    assert check_true_face_neighbors(gen_XH(1), 5).passed
    r = check_true_face_neighbors(gen_YH(1), 4)     # kappa=3 < 4
    assert r.status is CheckStatus.NOT_APPLICABLE
    r = check_true_face_neighbors(gen_XM(1), 4)     # n=6 but not maximal
    assert r.status is CheckStatus.NOT_APPLICABLE

    assert check_blue_neighbors(dual(skeleton(gen_YH(1))), 3).passed
    assert check_blue_neighbors(dual(skeleton(gen_XH(1))), 5).passed
    assert check_blue_neighbors(dual(skeleton(gen_YH(1))), 6).status is CheckStatus.NOT_APPLICABLE


def test_property_suite_builds_one_dual(monkeypatch):
    built = []
    original = transform.DualMap

    def counted(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(transform, "DualMap", counted)
    g = gen_XH(1)
    assert is_triangulation(g.map)
    assert property_suite(g) == []
    assert len(built) == 1


def test_crossing_share():
    assert check_crossing_share(gen_XH(1)).passed
    r = check_crossing_share(gen_YH(1))       # kappa = 3
    assert r.status is CheckStatus.NOT_APPLICABLE


def test_color_identities_on_families():
    for g in (gen_XH(1), gen_YH(1), gen_XM(2), gen_XM(3)):
        assert check_color_identities(g) == []


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
    monkeypatch.setattr(analyze, "verify_bounds", lambda _: dataclasses.replace(
        real, entries=real.entries + (failing, skipped)))
    assert property_suite(g) == ["cr-max 5 <= 4 FAIL"]


def test_bounds_report_lines_are_exact():
    rep = verify_bounds(gen_XH(1))
    lines = rep.lines()
    assert "cr-k56 6 >= 6 PASS" in lines
    assert "size-k56 36 >= 36 PASS" in lines


def test_degree_criteria_never_contradict_connectivity():
    # regularity_checks raises internally on contradiction; these must not
    for pm in (skeleton(gen_XH(2)).map, gen_M_triangulated(2).map,
               gen_M_triangulated(4).map, skeleton(gen_XM(3)).map):
        if is_triangulation(pm):
            regularity_checks(pm)


def test_connectivity_at_least_handles_tiny_graphs():
    k2 = SimpleGraph((0, 1), ((0, 1),))
    assert connectivity_at_least(k2, 1)
    assert not connectivity_at_least(k2, 2)
    single = SimpleGraph((7,), ())
    assert not connectivity_at_least(single, 1)
