from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from treegmf import Partition, enumerate_partitions, mn_character, z_order

from oracles import hook_length_dimension, partition_count, recursive_character


def test_partition_normalizes_and_validates():
    p = Partition([1, 3, 2, 1])
    assert p.parts == (3, 2, 1, 1)
    assert p.n == 7
    assert len(p) == 4
    assert p.exponential_form() == {3: 1, 2: 1, 1: 2}
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_involution_shape():
    assert Partition.involution_shape(7, 2).parts == (2, 2, 1, 1, 1)
    assert Partition.involution_shape(4, 2).parts == (2, 2)
    assert Partition([2, 2, 1]).transpositions_if_involution_shape() == 2
    assert Partition([3, 1]).transpositions_if_involution_shape() is None
    with pytest.raises(ValueError):
        Partition.involution_shape(3, 2)


def test_exp_string():
    assert Partition([2, 1, 1]).to_exp_string() == "2,1^2"
    assert Partition([2] * 4 + [1] * 7).to_exp_string() == "2^4,1^7"
    assert Partition([5]).to_exp_string() == "5"


def test_enumeration_order_n4():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_counts_against_pentagonal_oracle():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(15)) == 176
    for n in range(1, 16):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_enumeration_no_duplicates_and_reverse_lex():
    for n in range(1, 13):
        ps = [p.parts for p in enumerate_partitions(n)]
        assert len(set(ps)) == len(ps)
        assert ps == sorted(ps, reverse=True)
        assert all(sum(p) == n for p in ps)


def test_z_order_examples():
    assert z_order(Partition([1, 1, 1])) == 6
    assert z_order(Partition([5])) == 5
    assert z_order(Partition([2, 1, 1])) == 4


def test_z_order_sums_to_factorial():
    # sum over classes of n!/z_mu = n!
    import math

    for n in range(1, 9):
        total = sum(Fraction(math.factorial(n), z_order(mu)) for mu in enumerate_partitions(n))
        assert total == math.factorial(n)


def test_mn_character_trivial_and_sign():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert mn_character(Partition([n]), mu) == 1
            sign = (-1) ** (n - len(mu))
            assert mn_character(Partition([1] * n), mu) == sign


def test_mn_character_examples():
    assert mn_character(Partition([1, 1, 1]), Partition([2, 1])) == -1
    assert mn_character(Partition([2, 1]), Partition([1, 1, 1])) == 2


def test_mn_character_degree_matches_hook_lengths():
    for n in range(1, 9):
        identity = Partition([1] * n)
        for lam in enumerate_partitions(n):
            assert mn_character(lam, identity) == hook_length_dimension(lam.parts)


def test_mn_character_equals_the_recursive_rule():
    for n in range(1, 13):
        lams = enumerate_partitions(n)
        for lam in lams:
            for mu in lams:
                assert mn_character(lam, mu) == recursive_character(lam.parts, mu.parts)


def test_mn_character_of_a_long_cycle_type():
    # 1500 strips, one per part of mu, would pass the default limit of 1000
    # frames if each took a level of recursion.  The 2-quotient of (m, m)
    # is ((m/2), (m/2)), so the value is C(m, m/2) up to sign.
    value = mn_character(Partition([1500, 1500]), Partition([2] * 1500))
    assert type(value) is int
    assert abs(value) == comb(1500, 750)


def test_mn_character_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        mn_character(Partition([2, 1]), Partition([2, 2]))


def test_character_orthogonality():
    # first orthogonality: sum over classes of chi(mu)chi'(mu)/z_mu = delta
    for n in range(1, 8):
        lams = enumerate_partitions(n)
        for a in lams:
            for b in lams:
                total = sum(
                    Fraction(mn_character(a, mu) * mn_character(b, mu), z_order(mu))
                    for mu in lams
                )
                assert total == (1 if a == b else 0)


@given(st.integers(min_value=1, max_value=20))
def test_partition_roundtrip_sorted(n):
    for p in enumerate_partitions(min(n, 10)):
        assert Partition(reversed(p.parts)) == p
