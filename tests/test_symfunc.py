from fractions import Fraction

import pytest

from treegmf import (
    BASES,
    Partition,
    alpha,
    enumerate_partitions,
    inverse_frobenius,
    mn_character,
    power_expansion,
    z_order,
)
from treegmf.symfunc import (
    PowerExpansion,
    alpha_table,
    alphas,
    gamma_values,
    involution_class_values,
)

from oracles import (
    elementary_product_expansion,
    f_inverse_value,
    hook_length_dimension,
    kostka_number,
    m_in_p_rows,
    m_inverse_value,
    p_in_m_rows,
)


def P(*parts):
    return Partition(parts)


def coords_of(basis, lam):
    return {p.parts: c for p, c in power_expansion(basis, lam).coords.items()}


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


def test_p_basis_is_unit_vector():
    lam = P(3, 1)
    assert coords_of("p", lam) == {(3, 1): Fraction(1)}


def test_h2_expansion():
    assert coords_of("h", P(2)) == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}


def test_m11_expansion():
    assert coords_of("m", P(1, 1)) == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}


def test_single_elementary_is_column_monomial():
    # e_n (one part) = m_(1^n)
    for n in range(1, 7):
        assert coords_of("e", P(n)) == coords_of("m", P(*[1] * n))


def test_h_and_e_are_multiplicative():
    a = power_expansion("h", P(2)) * power_expansion("h", P(1))
    assert a.coords == power_expansion("h", P(2, 1)).coords
    b = power_expansion("e", P(2)) * power_expansion("e", P(2))
    assert b.coords == power_expansion("e", P(2, 2)).coords


def test_e_equals_the_product_of_its_e_k():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            assert power_expansion("e", lam) == elementary_product_expansion(lam.parts)


def test_m_round_trip_is_identity():
    # the p-in-m and m-in-p matrices must compose to the identity exactly
    for n in range(1, 8):
        p_rows = p_in_m_rows(n)
        m_rows = m_in_p_rows(n)
        for lam_t in p_rows:
            acc = {}
            for mu_t, c in m_rows[lam_t].items():
                for nu_t, d in p_rows[mu_t].items():
                    acc[nu_t] = acc.get(nu_t, Fraction(0)) + c * d
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {lam_t: Fraction(1)}


def test_f_is_sign_scaled_m():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            sign = (-1) ** (n - len(lam))
            fm = power_expansion("f", lam)
            mm = power_expansion("m", lam)
            assert fm.coords == {p: sign * c for p, c in mm.coords.items()}


def test_p_in_m_row_resubstitutes():
    # substituting the m-expansions back into a p-in-m row recovers the unit
    n = 6
    row = p_in_m_rows(n)[(2, 2, 1, 1)]
    total = PowerExpansion.zero(n)
    for mu_t, c in row.items():
        total = total + power_expansion("m", Partition(mu_t)) * c
    assert total.coords == {P(2, 2, 1, 1): Fraction(1)}


def test_power_expansion_rejects_bad_basis():
    with pytest.raises(ValueError):
        power_expansion("x", P(2))


# ---------------------------------------------------------------------------
# inverse Frobenius
# ---------------------------------------------------------------------------


def test_inverse_frobenius_of_power_sum():
    g = inverse_frobenius(power_expansion("p", P(2, 1)))
    assert g.at(P(2, 1)) == 2
    assert g.at(P(3)) == 0
    assert g.at(P(1, 1, 1)) == 0


def test_inverse_frobenius_of_hn_is_trivial():
    for n in range(1, 8):
        g = inverse_frobenius(power_expansion("h", P(n)))
        for mu in enumerate_partitions(n):
            assert g.at(mu) == 1


def test_inverse_frobenius_of_schur_is_character():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            g = inverse_frobenius(power_expansion("s", lam))
            for mu in enumerate_partitions(n):
                assert g.at(mu) == mn_character(lam, mu)


def test_involution_values_match_dense_route():
    for n in range(2, 8):
        for basis in BASES:
            for lam in enumerate_partitions(n):
                gamma = power_expansion(basis, lam)
                dense = inverse_frobenius(gamma)
                vals = involution_class_values(gamma)
                for j in range(n // 2 + 1):
                    assert vals[j] == dense.at_involution(j)


def test_gamma_values_equal_the_power_sum_route():
    for n in range(1, 15):
        for basis in BASES:
            for lam in enumerate_partitions(n):
                expect = involution_class_values(power_expansion(basis, lam))
                assert gamma_values(basis, lam) == expect, (basis, lam)


def test_gamma_values_rejects_bad_basis():
    with pytest.raises(ValueError):
        gamma_values("x", P(2))


# ---------------------------------------------------------------------------
# brick tabloids
# ---------------------------------------------------------------------------


def test_m_inverse_closed_form_on_involution_classes():
    # (-1)^(j-k) 2^k C(j,k) at lam=2^k,1^(n-2k), mu=2^j,1^(n-2j)
    from math import comb

    for n in (6, 8, 9):
        for k in range(n // 2 + 1):
            lam = Partition.involution_shape(n, k)
            for j in range(n // 2 + 1):
                mu = Partition.involution_shape(n, j)
                expect = (-1) ** (j - k) * 2**k * comb(j, k) if k <= j else 0
                assert m_inverse_value(lam, mu) == expect


def test_m_inverse_specific_values():
    # j=3, k=2 at n=6: -12
    assert m_inverse_value(P(2, 2, 1, 1), P(2, 2, 2)) == -12
    assert m_inverse_value(P(*[1] * 6), P(*[1] * 6)) == 1
    assert m_inverse_value(P(3, 1), P(2, 2)) == 0


def test_f_inverse_closed_form_on_involution_classes():
    from math import comb

    for n in (5, 8):
        for k in range(n // 2 + 1):
            lam = Partition.involution_shape(n, k)
            for j in range(n // 2 + 1):
                mu = Partition.involution_shape(n, j)
                expect = (-1) ** j * 2**k * comb(j, k) if k <= j else 0
                assert f_inverse_value(lam, mu) == expect


def test_f_inverse_specific_values():
    assert f_inverse_value(P(2, 1, 1), P(2, 2)) == 4  # j=2, k=1
    assert f_inverse_value(P(*[1] * 5), P(2, 1, 1, 1)) == -1  # j=1, k=0
    assert f_inverse_value(P(3, 1, 1), P(2, 2, 1)) == 0


def test_brick_route_equals_power_route():
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            gm = inverse_frobenius(power_expansion("m", lam))
            gf = inverse_frobenius(power_expansion("f", lam))
            for mu in enumerate_partitions(n):
                assert m_inverse_value(lam, mu) == gm.at(mu)
                assert f_inverse_value(lam, mu) == gf.at(mu)


# ---------------------------------------------------------------------------
# the binomial transform
# ---------------------------------------------------------------------------


def test_alpha_table_values_n15():
    lam = Partition([2] * 4 + [1] * 7)
    assert alpha(power_expansion("m", lam), 4) == 16
    assert alpha(power_expansion("m", Partition([2] + [1] * 13)), 2) == 0


def test_alpha_f_example():
    for n in (6, 8):
        lam = Partition.involution_shape(n, 3)
        assert alpha(power_expansion("f", lam), 3) == -8


def test_alpha_s_at_zero_is_dimension():
    assert alpha(power_expansion("s", P(2, 1)), 0) == 2
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            assert alpha(power_expansion("s", lam), 0) == hook_length_dimension(lam.parts)


def test_kostka_oracle_counts_tableaux():
    assert kostka_number((2, 2), (2, 1, 1)) == 1
    assert kostka_number((3, 1), (2, 1, 1)) == 2
    assert kostka_number((2, 1), (3,)) == 0
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert kostka_number(lam.parts, (1,) * n) == hook_length_dimension(lam.parts)
            assert kostka_number(lam.parts, lam.parts) == 1


def test_s_alphas_are_kostka_numbers():
    # alpha_i(s_lam) = 2^i K_{lam, 2^i 1^(n-2i)} >= 0: the m-positivity by
    # which passing air checks imply s's signed checks
    assert alphas(gamma_values("s", P(2, 2))) == (2, 2, 4)
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            expect = tuple(
                2**i * kostka_number(lam.parts, Partition.involution_shape(n, i).parts)
                for i in range(n // 2 + 1)
            )
            assert alphas(gamma_values("s", lam)) == expect, lam


def test_alpha_m_support_rule_small():
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            k = lam.transpositions_if_involution_shape()
            gamma = power_expansion("m", lam)
            for i in range(n // 2 + 1):
                expect = 2**i if k == i else 0
                assert alpha(gamma, i) == expect


def test_alphas_are_ints_for_integer_class_values():
    # the sweep's plans and alpha-table's values rest on these being ints
    assert alphas((1, 2, 3)) == (1, 3, 8)
    for n in range(2, 11):
        for basis in BASES:
            for lam, vals in alpha_table(n, basis):
                gamma_j = gamma_values(basis, lam)
                assert all(type(a) is int for a in alphas(gamma_j)), (basis, lam)
                assert vals == list(alphas(gamma_j))
                # the power-sum route gives the same values as Fractions
                power = alphas(involution_class_values(power_expansion(basis, lam)))
                assert all(type(a) is Fraction for a in power) and power == tuple(vals)


def test_alpha_range_check():
    with pytest.raises(ValueError):
        alpha(power_expansion("m", P(2, 1)), 2)
    with pytest.raises(ValueError):
        alpha(power_expansion("m", P(2, 1)), -1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_power_expansion_json_shape():
    obj = power_expansion("h", P(2)).to_json_obj()
    assert obj["n"] == 2
    assert obj["coords"][0]["partition"] == [2]
    assert obj["coords"][0]["coeff"] == {"num": "1", "den": "2"}


def test_class_function_json_shape():
    g = inverse_frobenius(power_expansion("p", P(2)))
    obj = g.to_json_obj()
    assert obj == {"n": 2, "values": [{"partition": [2], "value": {"num": "2", "den": "1"}}]}
