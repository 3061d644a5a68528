"""Symmetric-function expansions, class functions on cycle types, and the
involution-class binomial transform.

A generalized matrix polynomial of a tree q-Laplacian depends on gamma only
through Gamma(j), its inverse Frobenius image at the involution classes
2^j,1^(n-2j), j = 0..n/2: the permutations that survive are matchings.
`gamma_values` gives these n/2+1 integers in closed form per basis, and the
sweep and `alpha_table` read them there.

The general route is exact over Q and kept as the oracle and for whole class
functions: a symmetric function of degree n is represented by its
coordinates in the power-sum basis (PowerExpansion), and its inverse
Frobenius image is the class function with value z_mu * coord(mu) at cycle
type mu (ClassFunctionValue).

Basis tags, in the fixed order used by tables and the CLI:

  m   monomial
  e   elementary (products of e_k = sum over mu of sign(mu) p_mu / z_mu)
  h   homogeneous (products of h_k = sum over mu of p_mu / z_mu)
  p   power sum
  s   Schur (via irreducible characters)
  f   sign-scaled monomial: f_lam = (-1)^(n - len(lam)) * m_lam.  This is the
      convention under which the brick-tabloid rule carries the sign
      (-1)^(n - l(mu)) and the binomial transform is supported on the single
      shape 2^i,1^(n-2i) with value (-2)^i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Mapping, Sequence

from .partitions import (
    Partition,
    _partition_tuples,
    enumerate_partitions,
    involution_characters,
    mn_character,
    z_order,
)
from .qpoly import Rational, _frac, rational_to_json

BASES = ("m", "e", "h", "p", "s", "f")


class PowerExpansion:
    """Coordinates of a degree-n symmetric function in the power-sum basis.

    Absent keys mean coefficient zero; stored coefficients are nonzero.
    Treat instances as immutable values.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Mapping[Partition, Rational] | None = None) -> None:
        clean = {p: _frac(c) for p, c in (coords or {}).items() if c != 0}
        for p in clean:
            if p.n != n:
                raise ValueError(f"key {p!r} is not a partition of {n}")
        self.n = n
        self.coords = clean

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerExpansion):
            return NotImplemented
        return self.n == other.n and self.coords == other.coords

    def __repr__(self) -> str:
        return f"PowerExpansion(n={self.n!r}, coords={self.coords!r})"

    @classmethod
    def zero(cls, n: int) -> "PowerExpansion":
        return cls(n, {})

    @classmethod
    def unit(cls, lam: Partition) -> "PowerExpansion":
        return cls(lam.n, {lam: Fraction(1)})

    def coefficient(self, lam: Partition) -> Fraction:
        return self.coords.get(lam, Fraction(0))

    def __add__(self, other: "PowerExpansion") -> "PowerExpansion":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        out = dict(self.coords)
        for p, c in other.coords.items():
            out[p] = out.get(p, Fraction(0)) + c
        return PowerExpansion(self.n, out)

    def __neg__(self) -> "PowerExpansion":
        return PowerExpansion(self.n, {p: -c for p, c in self.coords.items()})

    def __sub__(self, other: "PowerExpansion") -> "PowerExpansion":
        return self + (-other)

    def __mul__(self, other: "PowerExpansion | Rational") -> "PowerExpansion":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return PowerExpansion(self.n, {p: c * v for p, v in self.coords.items()})
        # p_mu * p_nu = p_(mu union nu), combining parts as multisets
        out: dict[Partition, Fraction] = {}
        for pa, ca in self.coords.items():
            for pb, cb in other.coords.items():
                key = Partition(pa.parts + pb.parts)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return PowerExpansion(self.n + other.n, out)

    __rmul__ = __mul__

    def to_json_obj(self) -> dict:
        items = sorted(self.coords.items(), key=lambda kv: kv[0].parts, reverse=True)
        return {
            "n": self.n,
            "coords": [
                {"partition": list(p.parts), "coeff": rational_to_json(c)} for p, c in items
            ],
        }


class ClassFunctionValue:
    """Value of a class function at each cycle type of degree n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict[Partition, Fraction] | None = None) -> None:
        values = {} if values is None else values
        for p in values:
            if p.n != n:
                raise ValueError(f"key {p!r} is not a partition of {n}")
        self.n = n
        self.values = values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassFunctionValue):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __repr__(self) -> str:
        return f"ClassFunctionValue(n={self.n!r}, values={self.values!r})"

    def at(self, mu: Partition) -> Fraction:
        return self.values.get(mu, Fraction(0))

    def at_involution(self, j: int) -> Fraction:
        """Value at the cycle type 2^j,1^(n-2j)."""
        return self.at(Partition.involution_shape(self.n, j))

    def to_json_obj(self) -> dict:
        items = sorted(self.values.items(), key=lambda kv: kv[0].parts, reverse=True)
        return {
            "n": self.n,
            "values": [
                {"partition": list(p.parts), "value": rational_to_json(c)} for p, c in items
            ],
        }


# ---------------------------------------------------------------------------
# power-sum expansions of the six bases
# ---------------------------------------------------------------------------


def _m_times_pk(coords: dict[tuple[int, ...], Fraction], k: int) -> dict[tuple[int, ...], Fraction]:
    """Multiply a monomial-coordinate expansion by the degree-k power sum.

    Adding k to a part of value v (or adjoining a new part k, the v = 0 case)
    produces the shape with one part v+k more; the multiplicity of v+k in the
    result counts the monomial collisions.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for parts, c in coords.items():
        seen: set[int] = set()
        for idx, v in enumerate(parts):
            if v in seen:
                continue
            seen.add(v)
            grown = tuple(sorted(parts[:idx] + parts[idx + 1:] + (v + k,), reverse=True))
            mult = grown.count(v + k)
            out[grown] = out.get(grown, Fraction(0)) + c * mult
        appended = tuple(sorted(parts + (k,), reverse=True))
        out[appended] = out.get(appended, Fraction(0)) + c * appended.count(k)
    return {p: c for p, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _p_in_m_row(mu: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """Monomial coordinates of the power sum p_mu."""
    coords: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for k in mu:
        coords = _m_times_pk(coords, k)
    return coords


@lru_cache(maxsize=None)
def _m_in_p_row(lam: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """Power-sum coordinates of the monomial basis element m_lam.

    The p-in-m transition matrix is triangular in reverse-lexicographic order
    (a power sum only hits coarsenings of its index, which come first), so
    m_lam = sum of x_mu p_mu over mu up to lam, solved by one
    back-substitution pass from lam down that reads only the rows p_mu with
    x_mu != 0.
    """
    parts_list = _partition_tuples(sum(lam))
    i = parts_list.index(lam)
    index = {p: k for k, p in enumerate(parts_list[: i + 1])}
    x = [Fraction(0)] * (i + 1)
    hit = [Fraction(0)] * (i + 1)  # sum over solved k of x_k * <p_k, m_j>
    for k in range(i, -1, -1):
        rest = (1 if k == i else 0) - hit[k]
        if rest:
            row = _p_in_m_row(parts_list[k])
            x[k] = rest / row[parts_list[k]]
            for nu, val in row.items():
                j = index[nu]
                if j != k:
                    hit[j] += x[k] * val
    return {parts_list[j]: x[j] for j in range(i + 1) if x[j]}


@lru_cache(maxsize=None)
def _hk_expansion(k: int) -> PowerExpansion:
    coords = {Partition(mu): Fraction(1, z_order(Partition(mu))) for mu in _partition_tuples(k)}
    return PowerExpansion(k, coords)


@lru_cache(maxsize=None)
def _ek_expansion(k: int) -> PowerExpansion:
    coords = {}
    for mu in _partition_tuples(k):
        p = Partition(mu)
        coords[p] = Fraction((-1) ** (k - len(p)), z_order(p))
    return PowerExpansion(k, coords)


@lru_cache(maxsize=None)
def _power_expansion_cached(basis: str, parts: tuple[int, ...]) -> PowerExpansion:
    lam = Partition(parts)
    n = lam.n
    if basis == "p":
        return PowerExpansion.unit(lam)
    if basis == "h":
        acc = PowerExpansion(0, {Partition(()): Fraction(1)})
        for k in lam.parts:
            acc = acc * _hk_expansion(k)
        return acc
    if basis == "e":
        acc = PowerExpansion(0, {Partition(()): Fraction(1)})
        for k in lam.parts:
            acc = acc * _ek_expansion(k)
        return acc
    if basis == "s":
        coords = {}
        for mu in enumerate_partitions(n):
            coords[mu] = Fraction(mn_character(lam, mu), z_order(mu))
        return PowerExpansion(n, coords)
    if basis == "m":
        row = _m_in_p_row(lam.parts)
        return PowerExpansion(n, {Partition(mu): c for mu, c in row.items()})
    if basis == "f":
        sign = (-1) ** (n - len(lam))
        return _power_expansion_cached("m", parts) * sign
    raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")


def power_expansion(basis: str, lam: Partition) -> PowerExpansion:
    """Exact power-sum coordinates of the basis element indexed by lam."""
    return _power_expansion_cached(basis, lam.parts)


def inverse_frobenius(gamma: PowerExpansion) -> ClassFunctionValue:
    """Class function with value z_mu * coord(mu) at every cycle type mu."""
    values = {}
    for mu in enumerate_partitions(gamma.n):
        c = gamma.coefficient(mu)
        if c:
            values[mu] = z_order(mu) * c
    return ClassFunctionValue(gamma.n, values)


def involution_class_values(gamma: PowerExpansion) -> tuple[Fraction, ...]:
    """Values of the inverse Frobenius image at the cycle types 2^j,1^(n-2j)
    for j = 0..floor(n/2), without touching any other class."""
    n = gamma.n
    out = []
    for j in range(n // 2 + 1):
        mu = Partition.involution_shape(n, j)
        out.append(z_order(mu) * gamma.coefficient(mu))
    return tuple(out)


# ---------------------------------------------------------------------------
# Gamma at the involution classes, in closed form
# ---------------------------------------------------------------------------


def gamma_values(basis: str, lam: Partition) -> tuple[int, ...]:
    """Gamma(j) for j = 0..floor(n/2): the inverse Frobenius image of the
    basis element indexed by lam at cycle type 2^j,1^(n-2j).  Equal to
    involution_class_values(power_expansion(basis, lam)), without expanding.

    m, f: brick tabloids (Egecioglu-Remmel) with bricks of length 1 and 2,
    so zero unless lam = 2^a,1^(n-2a), and then (-1)^(j-a) C(j,a) 2^a, times
    (-1)^(n-l(lam)) = (-1)^a for f.  h: the permutation character of the
    Young subgroup S_lam, i.e. the colourings of the cycles using colour i
    lam_i times: j!(n-2j)! times [y^j] of the product over parts k of
    sum_t y^t / (t!(k-2t)!).  e: (-1)^j times h.  p: z_lam at the one j with
    lam = 2^j,1^(n-2j).  s: Murnaghan-Nakayama with 2-strips, then the
    1-strips counted by the hook-length formula.
    """
    n, half = lam.n, lam.n // 2
    a = lam.transpositions_if_involution_shape()
    if basis in ("m", "f"):
        if a is None:
            return (0,) * (half + 1)
        shift = 0 if basis == "f" else a
        return tuple((-1) ** (j + shift) * comb(j, a) << a for j in range(half + 1))
    if basis == "p":
        return tuple(z_order(lam) if j == a else 0 for j in range(half + 1))
    if basis in ("h", "e"):
        # integer factors k!/(t!(k-2t)!), truncated at y^half; the k! are
        # divided out at the end
        poly, den = [1] + [0] * half, 1
        for k in lam.parts:
            f = [factorial(k) // (factorial(t) * factorial(k - 2 * t)) for t in range(k // 2 + 1)]
            poly = [sum(c * poly[u - t] for t, c in enumerate(f[: u + 1])) for u in range(half + 1)]
            den *= factorial(k)
        sign = -1 if basis == "e" else 1
        return tuple(
            sign**j * factorial(j) * factorial(n - 2 * j) * poly[j] // den for j in range(half + 1)
        )
    if basis == "s":
        return involution_characters(lam)
    raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")


# ---------------------------------------------------------------------------
# binomial transform over involution classes
# ---------------------------------------------------------------------------


def alphas(gamma_j: Sequence[Rational]) -> tuple[Rational, ...]:
    """Binomial transform of involution-class values: alpha_i =
    sum_{j=0..i} C(i,j) * gamma_j[j] for i = 0..len(gamma_j)-1, where
    gamma_j[j] is the inverse Frobenius image at cycle type 2^j,1^(n-2j).
    Integers for the integer values of `gamma_values`, Fractions for
    Fraction values."""
    return tuple(
        sum(comb(i, j) * gamma_j[j] for j in range(i + 1)) for i in range(len(gamma_j))
    )


def alpha(gamma: PowerExpansion, i: int) -> Fraction:
    """Binomial transform sum_{j=0..i} C(i,j) * Gamma(j), where Gamma(j) is
    the inverse Frobenius image of gamma at cycle type 2^j,1^(n-2j)."""
    n = gamma.n
    if not 0 <= i <= n // 2:
        raise ValueError(f"need 0 <= i <= {n // 2}, got {i}")
    return alphas(involution_class_values(gamma))[i]


def alpha_table(n: int, basis: str) -> list[tuple[Partition, list[int]]]:
    """Rows (lam, [alpha_0 .. alpha_halfn]) for all lam of n, reverse-lex order;
    the alphas are integers."""
    return [(lam, list(alphas(gamma_values(basis, lam)))) for lam in enumerate_partitions(n)]
