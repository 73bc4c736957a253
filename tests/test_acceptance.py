"""Acceptance suite: one test per criterion, each printing a PASS line.

Two sub-criteria are provably unattainable and are marked strict-xfail with
companion exhaustive-proof tests (see tests below and the repository notes):
the 6-vertex triangulated-prism instance cannot be maximal, and no
one-edge-per-crossing removal of the k=3 doubled-ring family is
(5,6)-regular.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
every criterion line.
"""

from fractions import Fraction

import pytest

from oneplane.core import c_of, underlying
from oneplane.analyze import (
    property_suite,
    regularity_checks,
    check_crossing_share,
    verify_bounds,
    vertex_connectivity,
)
from oneplane.maximality import SaturationPolicy, is_immovable, is_maximal, saturate
from oneplane.transform import skeleton
from oneplane.generators import (
    expected_stats,
    fixture_path,
    gen_HH,
    gen_M,
    gen_M_triangulated,
    gen_XH,
    gen_XM,
    gen_YH,
    gen_random_seed,
)
from oneplane.interchange import load
from .oracles import brute_force_connectivity, brute_force_is_maximal




def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def _families(kmax_xh=5, kmax_xm=6):
    for k in range(1, kmax_xh + 1):
        yield ("xh", k, gen_XH(k))
        yield ("yh", k, gen_YH(k))
    for k in range(1, kmax_xm + 1):
        yield ("xm", k, gen_XM(k))


def test_criterion_1_family_counts():
    for family, k, g in _families():
        want = expected_stats(family, k)
        assert g.n == want["n"], (family, k)
        assert g.crossing_count == want["crossings"], (family, k)
        assert g.size == 3 * g.n - 6 + g.crossing_count, (family, k)
    report(1, "exact n / cr / |E| for xh,yh k=1..5 and xm k=1..6")


def test_criterion_2_tightness():
    for k in range(1, 6):
        g = gen_YH(k)
        assert Fraction(g.crossing_count) == Fraction(g.n - 2, 3)
        assert Fraction(g.size) == Fraction(10, 3) * (g.n - 2)
        g = gen_XH(k)
        assert Fraction(g.crossing_count) == Fraction(3, 5) * (g.n - 2)
        assert Fraction(g.size) == Fraction(18, 5) * (g.n - 2)
    for k in range(1, 7):
        g = gen_XM(k)
        assert Fraction(g.crossing_count) == Fraction(g.n - 2, 2)
        assert Fraction(g.size) == Fraction(7, 2) * (g.n - 2)
    report(2, "cr and |E| meet the tight k=3/4/6 rows exactly")


def test_criterion_3_connectivity():
    for k in (1, 2, 3):
        assert vertex_connectivity(underlying(gen_YH(k))) == 3, ("yh", k)
        assert vertex_connectivity(underlying(gen_XH(k))) == 6, ("xh", k)
    for k in (1, 2, 3, 4):
        assert vertex_connectivity(underlying(gen_XM(k))) == 4, ("xm", k)
    report(3, "kappa(YH)=3, kappa(XH)=6 (k<=3); kappa(XM)=4 (k<=4), via max-flow")


def test_criterion_4_maximality():
    for family, k, g in _families():
        if (family, k) == ("xm", 1):
            continue    # covered by the xfail companion below
        assert is_maximal(g).is_maximal, (family, k)
    for k in (1, 2):
        res = is_maximal(gen_HH(k))
        assert not res.is_maximal and res.witness is not None
        res = is_maximal(gen_M(k + 1))
        assert not res.is_maximal and res.witness is not None
    report(4, "family members maximal (xm k=1: see xfail); HH/M witnesses found")


@pytest.mark.xfail(strict=True, reason=(
    "no 6-vertex maximal drawing with cr=2 and 14 edges exists; proven "
    "exhaustively by test_no_maximal_six_vertex_instance_exists"))
def test_criterion_4_xm1_maximality_as_stated():
    assert is_maximal(gen_XM(1)).is_maximal


def test_no_maximal_six_vertex_instance_exists():
    """Companion proof for the xfail above.

    Any maximal drawing with n=6, cr=2 and a triangulated planarization
    decomposes as a 6-vertex plane triangulation plus two edges, each
    crossing a kept edge.  Enumerating every embedded triangulation base
    and every admissible insertion pair yields no maximal result, so the
    stated counts and maximality are jointly unsatisfiable at k=1.
    """
    from oneplane.build import DrawingBuilder, plane_graph
    from oneplane.maximality import apply_insertion, insertion_candidates
    from oneplane.core import ValidationError, OperationError
    from oneplane.generators import k1_triangulate

    def octahedron():
        return plane_graph([[1, 2, 3, 4], [0, 4, 5, 2], [0, 1, 5, 3],
                            [0, 2, 5, 4], [0, 3, 5, 1], [1, 4, 3, 2]])

    def stacked(i, j):
        b = DrawingBuilder.from_neighbors([[2, 1], [0, 2], [1, 0]])
        b.cone(b.face_walk_from(0))
        g = b.finish()
        g = k1_triangulate(g, i % len(g.map.face_walks))
        return k1_triangulate(g, j % len(g.map.face_walks))

    bases = [octahedron()] + [stacked(i, j) for i in range(4) for j in range(6)]
    tried = 0
    for base in bases:
        for c1 in insertion_candidates(base):
            if c1.cross_edge is None:
                continue
            try:
                g1 = apply_insertion(base, c1)
            except (ValidationError, OperationError):
                continue
            for c2 in insertion_candidates(g1):
                if c2.cross_edge is None:
                    continue
                try:
                    g2 = apply_insertion(g1, c2)
                except (ValidationError, OperationError):
                    continue
                if g2.size == 14 and g2.crossing_count == 2:
                    tried += 1
                    assert not is_maximal(g2).is_maximal
    assert tried > 0
    report("4*", f"exhaustive: all {tried} candidate (6,14,cr=2) drawings "
                 "are extendable, so xm k=1 maximality is unattainable")


def test_criterion_5_immovability():
    results = {}
    for name, g in (("yh1", gen_YH(1)), ("yh2", gen_YH(2)), ("xh1", gen_XH(1))):
        results[name] = is_immovable(g).is_immovable
    assert results == {"yh1": True, "yh2": True, "xh1": True}
    # YH^k immovable: certify the k=3 tight rows end-to-end
    for g in (gen_YH(1), gen_YH(2)):
        rep = verify_bounds(g)
        assert rep.kappa == 3 and rep.immovable
        k3 = next(e for e in rep.entries if e.bound_id == "cr-k3")
        assert k3.applicable and k3.passed and k3.lhs == k3.rhs
        e3 = next(e for e in rep.entries if e.bound_id == "size-k3")
        assert e3.applicable and e3.passed and e3.lhs == e3.rhs
    report(5, f"immovability computed: {results}; k=3 tight rows certified")


@pytest.mark.parametrize("name,n,cr", [("t1", 24, 18), ("t2", 56, 42)])
def test_criterion_6_fixtures(name, n, cr):
    path = fixture_path(name)
    if path is None:
        print(f"ACCEPTANCE 6: SKIPPED  fixture {name} absent")
        pytest.skip(f"fixture {name} not transcribed")
    g = load(path)
    assert (g.n, g.crossing_count) == (n, cr)
    assert vertex_connectivity(underlying(g)) == 7
    assert is_maximal(g).is_maximal
    assert Fraction(g.crossing_count) == Fraction(3 * g.n, 4)
    assert Fraction(g.size) == Fraction(15, 4) * (g.n - 2) + Fraction(3, 2)
    report(6, f"{name}: n={n} cr={cr} kappa=7 maximal, k=7 rows tight")


def _fuzz_instances():
    for seed in range(200):
        n = 5 + seed % 16
        g = gen_random_seed(n, seed)
        m = saturate(g, SaturationPolicy.SEEDED, seed=seed)
        yield seed, g, m


def test_criterion_7_property_suite():
    from oneplane.analyze import degree_profile
    bad = []
    for seed, _, m in _fuzz_instances():
        violations = property_suite(m)
        # the degree-slack crossing bound, asserted unconditionally over
        # this instance set as the criterion states it
        prof = degree_profile(underlying(m))
        slack = Fraction(2 * prof.lambda1 + 2 * prof.lambda2 + prof.lambda3, 6)
        if Fraction(m.crossing_count) > m.n - 2 - slack:
            violations.append("degree-slack crossing bound exceeded")
        if violations:
            bad.append((seed, violations))
    assert not bad, bad[:3]
    report(7, "200 saturated seeds n in [5,20]: zero violations "
              "(degree-slack bound asserted unconditionally)")


def test_criterion_8_oracle_equivalence():
    instances = [gen_XM(1), gen_M(1), gen_M(2), gen_HH(1), gen_XH(1)]
    for _, g, m in _fuzz_instances():
        instances.append(g)
        instances.append(m)
    max_checked = conn_checked = 0
    for g in instances:
        if g.n + g.crossing_count <= 10:
            assert is_maximal(g).is_maximal == brute_force_is_maximal(g)
            max_checked += 1
        if g.n <= 12:
            sg = underlying(g)
            assert vertex_connectivity(sg) == brute_force_connectivity(sg)
            conn_checked += 1
    assert max_checked >= 40 and conn_checked >= 100
    report(8, f"maximality oracle x{max_checked}, connectivity oracle "
              f"x{conn_checked}: zero disagreements")


def test_criterion_9_crossing_edge_counts():
    for k in (1, 2, 3):
        g = gen_XH(k)
        assert check_crossing_share(g) == []
    g = gen_XH(1)
    assert all(g.map.degree(v) == 6 and c_of(g, v) == 2
               for v in g.map.true_vertices)
    report(9, "ceil(d/3) <= c(v) <= floor(d/2) on XH k<=3; c=2 on 6-regular XH^1")


def test_criterion_10_regularity():
    rep = regularity_checks(skeleton(gen_XH(2)).graph.map)
    assert rep.is_56_regular and rep.kappa >= 5
    for k in (2, 3, 4):
        rep = regularity_checks(gen_M_triangulated(k).map)
        assert (7 * rep.omega4) // 3 + rep.omega5 == 13 < 14
        assert rep.hakimi_condition and rep.kappa >= 4
    report(10, "skeleton(XH^2) is (5,6)-regular; P(XM^k) meets the "
               "degree criterion 13 < 14 for k=2..4 (k=3 row: see xfail)")


@pytest.mark.xfail(strict=True, reason=(
    "no one-edge-per-crossing removal of XH^3 is (5,6)-regular; proven "
    "exhaustively by test_no_56_regular_skeleton_of_xh3_exists"))
def test_criterion_10_xh3_skeleton_as_stated():
    rep = regularity_checks(skeleton(gen_XH(3)).graph.map)
    assert rep.is_56_regular


def test_no_56_regular_skeleton_of_xh3_exists():
    """Companion proof: backtracking over all per-crossing keep choices.

    The kept diagonal of each crossing adds one to both endpoint degrees of
    the base drawing; a (5,6)-regular skeleton needs every vertex to land
    in {5,6}.  The search proves the constraint system infeasible for k=3
    (and finds witnesses for k=1,2)."""
    for k, expect in ((2, True), (3, False)):
        hh = gen_HH(k)
        base_deg = {v: hh.map.degree(v) for v in hh.map.true_vertices}
        xh = gen_XH(k)
        pairs = [(xh.edges[e1].ends, xh.edges[e2].ends)
                 for _, e1, e2 in xh.crossing_pairs]
        n = xh.n
        lo = [max(0, 5 - base_deg[v]) for v in range(n)]
        hi = [6 - base_deg[v] for v in range(n)]
        add = [0] * n
        rem = [0] * n
        for (a, b), (c, d) in pairs:
            for w in (a, b, c, d):
                rem[w] += 1

        def bt(i):
            if i == len(pairs):
                return all(lo[v] <= add[v] <= hi[v] for v in range(n))
            (a, b), (c, d) = pairs[i]
            for x, y in ((a, b), (c, d)):
                if add[x] + 1 <= hi[x] and add[y] + 1 <= hi[y]:
                    for w in (a, b, c, d):
                        rem[w] -= 1
                    add[x] += 1
                    add[y] += 1
                    if (all(add[w] + rem[w] >= lo[w] for w in (a, b, c, d))
                            and bt(i + 1)):
                        return True
                    add[x] -= 1
                    add[y] -= 1
                    for w in (a, b, c, d):
                        rem[w] += 1
            return False

        assert bt(0) is expect, k
    report("10*", "exhaustive: a (5,6)-regular skeleton exists for k=2 "
                  "and provably not for k=3")


def test_strict_xfails_fail_by_their_values():
    """The two strict xfails above pass on any exception, so their
    expressions are run here too: each returns its failing value, and an
    exception in either one fails this test."""
    res = is_maximal(gen_XM(1))
    assert res.is_maximal is False and res.witness is not None
    assert regularity_checks(skeleton(gen_XH(3)).graph.map).is_56_regular is False
    report("4*, 10*", "the xfailed expressions return False, they do not raise")
