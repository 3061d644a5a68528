from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from oracles import FractionQPolynomial
from treegmf import QP_ONE, QP_ZERO, QPolynomial, XQPolynomial

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
qpolys = st.builds(QPolynomial, st.lists(rationals, max_size=6))


def test_normalization_strips_trailing_zeros():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert QPolynomial([0, 0]).coeffs == ()
    assert QPolynomial().degree == -1
    assert QPolynomial([0, 0, 3]).degree == 2


def test_arith_examples():
    one_plus = QPolynomial([1, 0, 1])
    one_minus = QPolynomial([1, 0, -1])
    assert one_plus * one_minus == QPolynomial([1, 0, 0, 0, -1])
    p = QPolynomial([3, 1, 4])
    assert p + QP_ZERO == p
    assert QPolynomial([3, 0, 2]) - QPolynomial([1, 0, 2]) == QPolynomial([2])


def test_scalar_ops():
    p = QPolynomial([1, 2])
    assert 2 * p == QPolynomial([2, 4])
    assert p * Fraction(1, 2) == QPolynomial([Fraction(1, 2), 1])
    assert p - 1 == QPolynomial([0, 2])


def test_is_rplus_q2_examples():
    assert QPolynomial([3, 0, 2]).is_rplus_q2()
    assert not QPolynomial([0, 1]).is_rplus_q2()
    assert not QPolynomial([1, 0, -1]).is_rplus_q2()
    assert QP_ZERO.is_rplus_q2()


def test_eval_examples():
    assert QPolynomial([1, 0, 1]).evaluate(1) == 2
    assert QPolynomial([7, 3, 9]).evaluate(0) == 7
    assert QPolynomial([1, 1]).evaluate(Fraction(1, 2)) == Fraction(3, 2)


@given(qpolys, qpolys, qpolys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qpolys, rationals)
def test_evaluation_is_ring_hom(a, q0):
    b = QPolynomial([1, -2, 3])
    assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)
    assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)


cone_members = st.builds(
    lambda cs: QPolynomial([c if i % 2 == 0 else 0 for i, c in enumerate(cs)]),
    st.lists(st.fractions(min_value=0, max_value=9, max_denominator=6), max_size=7),
)


@given(cone_members, cone_members)
def test_cone_closed_under_sum_and_product(a, b):
    assert a.is_rplus_q2() and b.is_rplus_q2()
    assert (a + b).is_rplus_q2()
    assert (a * b).is_rplus_q2()


@given(qpolys)
def test_json_roundtrip(p):
    assert QPolynomial.from_json_obj(p.to_json_obj()) == p


def test_csv_cell():
    assert QPolynomial([1, Fraction(-1, 2)]).csv_cell() == "1/1;-1/2"
    assert QP_ZERO.csv_cell() == ""


def test_str():
    assert str(QP_ZERO) == "0"
    assert str(QPolynomial([1, 0, 2])) == "1 + 2*q^2"
    assert str(QPolynomial([0, -1])) == "-q"
    assert str(QPolynomial([Fraction(1, 2), 0, 0, -3])) == "1/2 - 3*q^3"


@given(st.integers(min_value=0, max_value=6), st.lists(qpolys, max_size=7))
def test_xq_sign_convention_roundtrip(n, raw):
    raw = raw[: n + 1]
    poly = XQPolynomial.from_raw(n, raw)
    back = poly.to_raw()
    padded = raw + [QP_ZERO] * (n + 1 - len(raw))
    assert back == padded
    assert XQPolynomial.from_raw(n, back) == poly


def test_xq_basics():
    poly = XQPolynomial.from_raw(2, [QPolynomial([1]), QPolynomial([-2]), QP_ONE])
    # x^2 - 2x + 1: c_0 = 1, c_1 = -(-2) = 2, c_2 = 1
    assert poly.signed_coefficient(0) == QP_ONE
    assert poly.signed_coefficient(1) == QPolynomial([2])
    assert poly.signed_coefficient(2) == QP_ONE
    assert not poly.is_zero()
    with pytest.raises(ValueError):
        XQPolynomial(1, [QP_ONE, QP_ONE, QP_ONE])


# ---------------------------------------------------------------------------
# integer numerators over one denominator, against the Fraction reference
# ---------------------------------------------------------------------------

wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# trailing zeros and, every other draw, a member of the q^2 cone
coeff_lists = st.builds(
    lambda cs, zeros, cone: (
        [abs(c) if i % 2 == 0 else 0 for i, c in enumerate(cs)] if cone else cs
    ) + [0] * zeros,
    st.lists(wide_rationals, max_size=7),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)


def assert_matches(p: QPolynomial, ref: FractionQPolynomial) -> None:
    assert p.den > 0
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1
    assert p.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == ref.degree
    assert str(p) == str(ref)
    assert p.csv_cell() == ref.csv_cell()
    assert p.to_json_obj() == ref.to_json_obj()
    assert p.is_rplus_q2() == ref.is_rplus_q2()


@given(coeff_lists, coeff_lists, wide_rationals, wide_rationals)
def test_integer_form_matches_fraction_reference(a_cs, b_cs, scalar, q0):
    a, b = QPolynomial(a_cs), QPolynomial(b_cs)
    ra, rb = FractionQPolynomial(a_cs), FractionQPolynomial(b_cs)
    assert_matches(a, ra)
    assert_matches(b, rb)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, -ra)
    assert_matches(a * scalar, ra * scalar)
    assert_matches(scalar * a, ra * scalar)
    assert_matches(a * int(scalar), ra * int(scalar))
    assert_matches(a.abs_coefficients(), ra.abs_coefficients())
    assert_matches(a.abs_coefficients() - b.abs_coefficients(),
                   ra.abs_coefficients() - rb.abs_coefficients())
    assert a.evaluate(q0) == ra.evaluate(q0)
    assert a.evaluate(int(q0)) == ra.evaluate(Fraction(int(q0)))
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


@given(st.lists(st.integers(min_value=-60, max_value=60), max_size=7),
       st.integers(min_value=-24, max_value=24).filter(bool))
def test_from_ints_is_the_canonical_form(nums, den):
    p = QPolynomial.from_ints(nums, den)
    ref = FractionQPolynomial(Fraction(c, den) for c in nums)
    assert_matches(p, ref)
    assert p == QPolynomial(Fraction(c, den) for c in nums)
    assert (p.nums, p.den) == (QPolynomial(p.coeffs).nums, QPolynomial(p.coeffs).den)


def test_integer_form_examples():
    p = QPolynomial([Fraction(1, 2), Fraction(-1, 3), 0, 0])
    assert (p.nums, p.den) == ((3, -2), 6)
    assert QPolynomial.from_ints([4, 0, 6, 0], 2) == QPolynomial([2, 0, 3])
    assert QPolynomial.from_ints([4, 0, 6], 2).den == 1
    assert QPolynomial.from_ints([1, -3], -6) == QPolynomial([Fraction(-1, 6), Fraction(1, 2)])
    assert QPolynomial.from_ints([0, 0], 7) == QP_ZERO
    assert (QP_ZERO.nums, QP_ZERO.den) == ((), 1)
    assert str(QPolynomial.from_ints([2, 0, -6], 4)) == "1/2 - 3/2*q^2"
    assert str(QPolynomial.from_ints([0, 3], 3)) == "q"
    assert QPolynomial.from_ints([2, 0, -6], 4).csv_cell() == "1/2;0/1;-3/2"
    with pytest.raises(ZeroDivisionError):
        QPolynomial.from_ints([1], 0)
