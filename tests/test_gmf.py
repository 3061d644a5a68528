import random
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegmf import (
    BASES,
    LabeledTree,
    Partition,
    air_table,
    enumerate_free_trees,
    enumerate_partitions,
    gmf_poly_bruteforce,
    gmf_poly_matching,
    inverse_frobenius,
    power_expansion,
    proper_gts_pairs,
    verify_coeff_formula,
)
from treegmf.gmf import (
    air_rows,
    coefficients_from_profile,
    matching_profile,
    monotone_report_from_coeffs,
)
from treegmf.qpoly import QP_ZERO, QPolynomial, SlotPacking, XQPolynomial
from treegmf.symfunc import PowerExpansion, involution_class_values, involution_expansion

from oracles import (
    FractionQPolynomial,
    air_sum,
    assembled_air_rows,
    bareiss_det,
    determinant_air_sum,
    enumerated_matching_profile,
    prufer_to_edges,
    verify_air_monotone,
    verify_monotone,
)


def P(*parts):
    return Partition(parts)


def random_expansion(n, rng):
    coords = {}
    for lam in enumerate_partitions(n):
        if rng.random() < 0.6:
            coords[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return PowerExpansion(n, coords)


# ---------------------------------------------------------------------------
# evaluator examples
# ---------------------------------------------------------------------------


def test_det_of_p3_at_q1_is_char_poly():
    g = gmf_poly_matching(LabeledTree.path(3), power_expansion("s", P(1, 1, 1)))
    # at q=1: x(x-1)(x-3) = x^3 - 4x^2 + 3x
    vals = [c.evaluate(1) for c in g.poly.signed]
    assert vals == [1, 4, 3, 0]


def test_permanent_of_p2():
    g = gmf_poly_matching(LabeledTree.path(2), power_expansion("h", P(2)))
    # (x-1)^2 + q^2: constant term (r=2 signed coeff) is 1 + q^2
    assert g.poly.signed_coefficient(2) == QPolynomial([1, 0, 1])
    assert g.poly.signed_coefficient(0) == QPolynomial([1])
    b = gmf_poly_bruteforce(LabeledTree.path(2), power_expansion("h", P(2)))
    assert b.poly == g.poly


def test_p2_power_sum_example():
    g = gmf_poly_matching(LabeledTree.path(2), power_expansion("p", P(2)))
    raw = g.poly.to_raw()
    assert raw[0] == QPolynomial([0, 0, 2])  # constant 2q^2
    assert raw[1] == QP_ZERO
    assert raw[2] == QP_ZERO


def test_non_involution_shape_vanishes():
    for n in (3, 5, 6):
        gamma = power_expansion("m", Partition([3] + [1] * (n - 3)))
        for t in enumerate_free_trees(n):
            assert gmf_poly_matching(t.representative, gamma).poly.is_zero()


def test_leading_signed_coefficient_is_identity_value():
    rng = random.Random(7)
    for n in (2, 4, 5):
        gamma = random_expansion(n, rng)
        identity_value = inverse_frobenius(gamma).at(Partition([1] * n))
        for t in enumerate_free_trees(n):
            poly = gmf_poly_matching(t.representative, gamma).poly
            assert poly.signed_coefficient(0) == QPolynomial([identity_value])


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        gmf_poly_matching(LabeledTree.path(3), power_expansion("m", P(2)))
    with pytest.raises(ValueError):
        gmf_poly_bruteforce(LabeledTree.path(3), power_expansion("m", P(2)))


def test_bruteforce_guard():
    big = LabeledTree.path(10)
    gamma = power_expansion("p", Partition([10]))
    with pytest.raises(ValueError):
        gmf_poly_bruteforce(big, gamma)
    with pytest.raises(ValueError, match="raise max_brute"):
        gmf_poly_bruteforce(big, gamma, max_brute=9)


# ---------------------------------------------------------------------------
# the matching profile: tree DP against matching enumeration
# ---------------------------------------------------------------------------


def assemble_by_qpolynomials(profile, n, gamma_j):
    """sum_j Gamma(j) * w_j in QPolynomial arithmetic, u^e read as q^(2e)."""
    raw = []
    for k in range(n + 1):
        acc = QP_ZERO
        for j, g in enumerate(gamma_j):
            for e, c in enumerate(profile[j][k]):
                acc = acc + QPolynomial.monomial(c * g, 2 * e)
        raw.append(acc)
    return XQPolynomial.from_raw(n, raw)


def test_profile_equals_enumeration_oracle():
    # n = 1 has a degree-0 vertex, whose diagonal factor is x - 1 + u
    rng = random.Random(3)
    for n in range(1, 11):
        gammas = [
            involution_class_values(power_expansion("m", Partition.involution_shape(n, i)))
            for i in range(n // 2 + 1)
        ]
        gammas.append(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n // 2 + 1))
        )
        for t in enumerate_free_trees(n):
            profile = matching_profile(t.representative)
            expected = enumerated_matching_profile(t.representative)
            assert profile == expected, (n, t.code)
            for gj in gammas:
                assert coefficients_from_profile(profile, n, gj) == assemble_by_qpolynomials(
                    expected, n, gj
                ), (n, t.code, gj)
    assert matching_profile(LabeledTree(1, [])) == (((-1, 1), (1,)),)


def test_assembly_with_rational_gammas_matches_fraction_reference():
    # the six bases only give integer Gamma(j); these put denominators 3, 6
    # and 4 into the assembled coefficients
    gamma_j = (Fraction(1, 3), Fraction(-5, 6), Fraction(2), Fraction(7, 4))
    trees = [
        LabeledTree.path(6),
        LabeledTree.star(6),
        LabeledTree(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]),
    ]
    for tree in trees:
        n = tree.n
        profile = matching_profile(tree)
        poly = coefficients_from_profile(profile, n, gamma_j)
        for r in range(n + 1):
            raw = FractionQPolynomial()
            for g, rows in zip(gamma_j, profile):
                for e, c in enumerate(rows[n - r]):
                    raw = raw + FractionQPolynomial([0] * (2 * e) + [c * g])
            expected = -raw if r % 2 else raw
            assert poly.signed_coefficient(r).coeffs == expected.coeffs, (tree, r)
        assert max(c.den for c in poly.signed) > 1


def test_integer_sweep_path_builds_no_fraction(monkeypatch):
    n = 6
    lower, upper = LabeledTree.path(n), LabeledTree.star(n)
    profiles = [matching_profile(lower), matching_profile(upper)]
    gammas = [
        involution_class_values(power_expansion(basis, Partition([2, 2, 1, 1])))
        for basis in ("s", "m", "f")
    ]
    rational = (Fraction(1, 3), Fraction(-5, 6), Fraction(2), Fraction(7, 4))
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for gamma_j in gammas:
        lo, up = (coefficients_from_profile(p, n, gamma_j).signed for p in profiles)
        for mode in ("signed", "absolute"):
            report = monotone_report_from_coeffs("lo", "up", lo, up, mode)
            for e in report.per_r:
                e.difference.csv_cell()
                e.difference.to_json_obj()
    coefficients_from_profile(profiles[0], n, rational)
    assert made == []
    Fraction(1, 3)
    assert made == [(1, 3)]


def test_gmf_on_a_60_vertex_path_within_a_second():
    n = 60
    lam = Partition([2] * 10 + [1] * 40)
    t0 = time.perf_counter()
    poly = gmf_poly_matching(LabeledTree.path(n), power_expansion("p", lam)).poly
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    # only Gamma(10) = z_lam is nonzero; c_20 is z_lam times the top term of w_10
    z = 2**10 * factorial(10) * factorial(40)
    assert poly.signed_coefficient(20) == QPolynomial.monomial(z * comb(50, 10), 20)
    assert all(poly.signed_coefficient(r).is_zero() for r in range(20))


def test_profile_does_not_recurse():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    n = 50
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n // 2)
    try:
        profile = matching_profile.__wrapped__(LabeledTree.path(n))
    finally:
        sys.setrecursionlimit(limit)
    # the top power of x in w_j is u^j x^(n-2j) times the number of
    # j-matchings of the path, C(n-j, j)
    for j in range(n // 2 + 1):
        assert profile[j][n - 2 * j] == (0,) * j + (comb(n - j, j),)


# ---------------------------------------------------------------------------
# oracle equivalence and linearity
# ---------------------------------------------------------------------------


def test_matching_equals_bruteforce_all_bases_small():
    for n in range(1, 6):
        lams = enumerate_partitions(n)
        for t in enumerate_free_trees(n):
            tree = t.representative
            for basis in BASES:
                for lam in lams:
                    gamma = power_expansion(basis, lam)
                    assert (
                        gmf_poly_matching(tree, gamma).poly
                        == gmf_poly_bruteforce(tree, gamma).poly
                    ), (n, basis, lam.parts)


def test_involution_expansion_gives_the_power_sum_routes_polynomial():
    # the gmf command reads gamma through involution_expansion, whose class
    # values are the closed forms of gamma_values
    for n in range(1, 9):
        lams = enumerate_partitions(n)
        for t in enumerate_free_trees(n):
            tree = t.representative
            for basis in BASES:
                for lam in lams:
                    assert (
                        gmf_poly_matching(tree, involution_expansion(basis, lam))
                        == gmf_poly_matching(tree, power_expansion(basis, lam))
                    ), (n, t.code, basis, lam.parts)


def test_matching_equals_bruteforce_random_gammas():
    rng = random.Random(0)
    for n in range(2, 7):
        trees = enumerate_free_trees(n)
        for _ in range(30):
            gamma = random_expansion(n, rng)
            for t in trees:
                tree = t.representative
                assert (
                    gmf_poly_matching(tree, gamma).poly
                    == gmf_poly_bruteforce(tree, gamma).poly
                )


def test_linearity_in_gamma():
    rng = random.Random(1)
    for n in (3, 5):
        tree = enumerate_free_trees(n)[-1].representative
        for _ in range(20):
            g1 = random_expansion(n, rng)
            g2 = random_expansion(n, rng)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            combo = g1 * a + g2
            lhs = gmf_poly_matching(tree, combo).poly
            p1 = gmf_poly_matching(tree, g1).poly.signed
            p2 = gmf_poly_matching(tree, g2).poly.signed
            assert lhs.signed == tuple(c1 * a + c2 for c1, c2 in zip(p1, p2))


def test_alternating_profile_sum_is_the_characteristic_polynomial(monkeypatch):
    # With Gamma(j) = (-1)^j, the sign character, d_gamma(xI - L_q) is the
    # determinant, so sum_j (-1)^j w_j(x, u = q^2) = det(xI - L_q).  The
    # trees need DP slots of 1 to 9 bytes, so both the cast branch and the
    # slot-by-slot branch of SlotPacking.rows decode a profile.
    widths = set()
    rows = SlotPacking.rows

    def recording_rows(self, packed, m):
        widths.add(self.width)
        return rows(self, packed, m)

    monkeypatch.setattr(SlotPacking, "rows", recording_rows)
    for n in range(2, 41):
        rng = random.Random(n)
        prufer = LabeledTree(n, prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2))))
        for tree in (LabeledTree.path(n), LabeledTree.star(n), prufer):
            # the uncached DP, so that every tree decodes through rows
            profile = matching_profile.__wrapped__(tree)
            for x, q in ((0, 1), (3, 2), (-2, 3)):
                u = q * q
                xs = [x**k for k in range(n + 1)]
                us = [u**e for e in range(n + 1)]
                lhs = sum(
                    (-1) ** j * xk * sum(c * ue for c, ue in zip(row, us))
                    for j, w in enumerate(profile)
                    for xk, row in zip(xs, w)
                )
                matrix = [
                    [x - 1 - u * (tree.degree(v) - 1) if v == w else q * (w in tree.adj[v])
                     for w in range(n)]
                    for v in range(n)
                ]
                assert lhs == bareiss_det(matrix), (n, tree.edges(), x, q)
    assert widths & {1, 2, 4, 8} and widths - {1, 2, 4, 8}, widths


# ---------------------------------------------------------------------------
# the a[i][r] table
# ---------------------------------------------------------------------------


def test_air_examples():
    p3 = air_table(LabeledTree.path(3))
    assert p3.at(0, 1) == QPolynomial([3, 0, 1])
    p4 = air_table(LabeledTree.path(4))
    s4 = air_table(LabeledTree.star(4))
    assert p4.at(1, 2) == QPolynomial([0, 0, 3])
    assert s4.at(1, 2) == QPolynomial([0, 0, 3])


def test_air_rows_equal_the_assembled_rows_on_every_free_tree():
    for n in range(1, 12):
        for t in enumerate_free_trees(n):
            assert air_rows(t.representative) == assembled_air_rows(t.representative), (n, t.code)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=30), st.randoms(use_true_random=False))
def test_air_rows_equal_the_assembled_rows_on_random_trees(n, rng):
    tree = LabeledTree(n, prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2))))
    assert air_rows(tree) == assembled_air_rows(tree)


@pytest.mark.parametrize("tree", [
    LabeledTree.path(40),
    LabeledTree.star(40),
    LabeledTree(40, prufer_to_edges(tuple(random.Random(40).choices(range(40), k=38)))),
], ids=["path", "star", "prufer"])
def test_air_rows_equal_the_assembled_rows_on_40_vertex_trees(tree):
    # past the random trees' n <= 30: the (s - 1) u edge weight doubles the
    # DP's coefficient bound per matched edge, so its slots are widest here
    assert air_rows(tree) == assembled_air_rows(tree)


def caterpillar(n):
    """A spine of n // 2 vertices with the other vertices hung on it in turn."""
    spine = n // 2
    return LabeledTree(n, [(v, v + 1) for v in range(spine - 1)]
                       + [(v % spine, spine + v) for v in range(n - spine)])


def seeded_points(rng, count=3):
    """Integer points (x, q, tau) with |q| and tau at least 2, so that no
    power of u = q^2 or of s = 1 - tau^2 collapses onto another."""
    return [(rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(2, 9))
            for _ in range(count)]


def test_air_rows_equal_the_tau_scaled_determinant():
    # the whole a-table at a few seeded points, against a determinant that
    # shares nothing with the matching DP; a wrong entry of the table makes
    # a nonzero polynomial, which rarely vanishes at a random point
    for n in (2, 5, 9, 12, 24, 40, 60):
        rng = random.Random(n)
        trees = [LabeledTree.path(n), LabeledTree.star(n), caterpillar(n)]
        if n <= 40:  # a random 60-vertex tree's DP alone takes about 2 s
            trees += [LabeledTree(n, prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2))))
                      for _ in range(2 if n <= 24 else 1)]
        for tree in trees:
            rows = air_rows(tree)
            for x, q, tau in seeded_points(rng):
                assert air_sum(rows, n, x, q, tau) == determinant_air_sum(tree, x, q, tau), (
                    tree.edges(), x, q, tau)


def test_air_table_holds_the_assembled_rows_as_q_polynomials():
    for n in range(1, 11):
        m = n + 1
        for t in enumerate_free_trees(n):
            expected = {
                (i, r): QPolynomial([c for e in row[r * m:(r + 1) * m] for c in (e, 0)])
                for i, row in enumerate(assembled_air_rows(t.representative))
                for r in range(m)
            }
            assert air_table(t.representative).values == expected, (n, t.code)


def test_air_zero_above_diagonal():
    for n in (4, 6, 7):
        for t in enumerate_free_trees(n):
            table = air_table(t.representative)
            for (i, r), v in table.values.items():
                if 2 * i > r:
                    assert v.is_zero()


def test_air_entries_integer_coefficients():
    for n in range(1, 8):
        for t in enumerate_free_trees(n):
            for v in air_table(t.representative).values.values():
                assert all(c.denominator == 1 for c in v.coeffs)


def test_air_cone_membership_except_top_of_row_zero():
    # every entry lies in the cone except (0, n), which is det(qLap) = 1 - q^2
    det = QPolynomial([1, 0, -1])
    for n in range(1, 9):
        for t in enumerate_free_trees(n):
            table = air_table(t.representative)
            for (i, r), v in table.values.items():
                if (i, r) == (0, n):
                    assert v == det
                else:
                    assert v.is_rplus_q2(), (n, i, r, str(v))


def test_schur_top_coefficient_positivity_refined():
    # c_{s_lam, n} lies in the cone for lam != 1^n; at 1^n it is exactly 1 - q^2
    det = QPolynomial([1, 0, -1])
    for n in range(2, 8):
        column = Partition([1] * n)
        for t in enumerate_free_trees(n):
            for lam in enumerate_partitions(n):
                top = gmf_poly_matching(
                    t.representative, power_expansion("s", lam)
                ).poly.signed_coefficient(n)
                if lam == column:
                    assert top == det
                else:
                    assert top.is_rplus_q2(), (n, lam.parts)
                assert top.evaluate(1) >= 0


def test_determinant_specialization():
    # s_(1^n) at q=1: characteristic polynomial of D - A; c_n(1) = 0 and
    # c_{n-1}(1) = n (matrix-tree: one spanning tree)
    for n in range(2, 9):
        for t in enumerate_free_trees(n):
            poly = gmf_poly_matching(
                t.representative, power_expansion("s", Partition([1] * n))
            ).poly
            assert poly.signed_coefficient(n).evaluate(1) == 0
            assert poly.signed_coefficient(n - 1).evaluate(1) == n


def test_coeff_formula_examples():
    for n in (4, 5, 6):
        for t in enumerate_free_trees(n):
            tree = t.representative
            for lam in enumerate_partitions(n):
                for basis in BASES:
                    assert verify_coeff_formula(tree, power_expansion(basis, lam))


def test_f_basis_top_identity():
    # c_{f_lam, r} = (-1)^k 2^k a[k][r] at lam = 2^k,1^(n-2k)
    for n in (4, 6):
        for t in enumerate_free_trees(n):
            tree = t.representative
            table = air_table(tree)
            for k in range(n // 2 + 1):
                lam = Partition.involution_shape(n, k)
                poly = gmf_poly_matching(tree, power_expansion("f", lam)).poly
                for r in range(n + 1):
                    expect = table.at(k, r) * Fraction((-1) ** k * 2**k)
                    assert poly.signed_coefficient(r) == expect


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def test_monotone_p4_s4_examples():
    pair = proper_gts_pairs(4)[0]
    rep = verify_monotone(pair, power_expansion("m", P(2, 1, 1)), "signed")
    assert rep.ok
    assert rep.per_r[2].difference == QP_ZERO
    rep = verify_monotone(pair, power_expansion("s", P(4)), "signed")
    assert rep.ok
    rep = verify_monotone(pair, power_expansion("f", P(2, 1, 1)), "absolute")
    assert rep.ok
    # deliberate misuse: f in signed mode fails at odd k
    rep = verify_monotone(pair, power_expansion("f", P(2, 1, 1)), "signed")
    assert not rep.ok


def test_monotone_rejects_degree_mismatch():
    pair = proper_gts_pairs(4)[0]
    with pytest.raises(ValueError):
        verify_monotone(pair, power_expansion("m", P(2, 1)), "signed")


def test_monotone_sweep_small():
    for n in (4, 5, 6):
        for pair in proper_gts_pairs(n):
            for lam in enumerate_partitions(n):
                for basis in ("m", "s", "p", "h", "e"):
                    assert verify_monotone(pair, power_expansion(basis, lam), "signed").ok
                assert verify_monotone(pair, power_expansion("f", lam), "absolute").ok


def test_air_monotone_examples():
    pair = proper_gts_pairs(4)[0]
    rep = verify_air_monotone(pair)
    assert rep.ok
    # entries with 2i > r differ by zero
    for e in rep.entries:
        if 2 * e.i > e.r:
            assert e.difference == QP_ZERO
    for n in (5, 6):
        for pair in proper_gts_pairs(n):
            assert verify_air_monotone(pair).ok


def test_extremality_path_dominates_star_dominated():
    # for involution shapes, the path's coefficients dominate every tree's,
    # which dominate the star's, coefficient-wise in the cone
    for n in (5, 6, 7, 8):
        trees = enumerate_free_trees(n)
        from treegmf import ahu_canonical

        path_code = ahu_canonical(LabeledTree.path(n)).code
        star_code = ahu_canonical(LabeledTree.star(n)).code
        tabs = {}
        for t in trees:
            coeffs = {}
            for k in range(n // 2 + 1):
                lam = Partition.involution_shape(n, k)
                coeffs[k] = gmf_poly_matching(
                    t.representative, power_expansion("m", lam)
                ).poly.signed
            tabs[t.code] = coeffs
        for t in trees:
            for k in range(n // 2 + 1):
                for r in range(n + 1):
                    hi = tabs[path_code][k][r] - tabs[t.code][k][r]
                    lo = tabs[t.code][k][r] - tabs[star_code][k][r]
                    assert hi.is_rplus_q2(), (n, t.code, k, r)
                    assert lo.is_rplus_q2(), (n, t.code, k, r)


def test_report_json_shape():
    pair = proper_gts_pairs(4)[0]
    rep = verify_monotone(pair, power_expansion("m", P(2, 1, 1)), "signed",
                          basis="m", lam=P(2, 1, 1))
    obj = rep.to_json_obj()
    assert obj["pair"] == {"lower": pair.lower.code, "upper": pair.upper.code}
    assert obj["basis"] == "m"
    assert obj["lambda"] == [2, 1, 1]
    assert obj["pass"] is True
    assert [e["r"] for e in obj["perR"]] == [0, 1, 2, 3, 4]
    air = verify_air_monotone(pair).to_json_obj()
    assert air["check"] == "air-monotone"
    assert air["pass"] is True
