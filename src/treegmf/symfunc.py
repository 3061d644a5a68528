"""Symmetric functions in the power-sum basis, gamma at the involution
classes, and the involution-class binomial transform.

A generalized matrix polynomial of a tree q-Laplacian depends on gamma only
through Gamma(j), its inverse Frobenius image at the involution classes
2^j,1^(n-2j), j = 0..n/2: the permutations that survive are matchings.
`gamma_values` gives these n/2+1 integers in closed form per basis, and the
sweep, `alpha_table` and the `gmf` command (through `involution_expansion`)
read them there; it lives in the integer kernel (`kernel`), with the
binomial transform `alphas`, and both are imported here.

A symmetric function of degree n is represented by its coordinates in the
power-sum basis (PowerExpansion).  Gamma(j) is z_mu times the coordinate at
mu = 2^j,1^(n-2j) (`involution_class_values`), so `involution_expansion`
holds only those coordinates.  The full expansion of a basis element and its
whole class function are the reference routes of `oracle`, run by
`gmf --oracle` and the tests.

Basis tags, in the fixed order used by tables and the CLI:

  m   monomial
  e   elementary
  h   homogeneous
  p   power sum
  s   Schur
  f   sign-scaled monomial: f_lam = (-1)^(n - len(lam)) * m_lam.  This is the
      convention under which the brick-tabloid rule carries the sign
      (-1)^(n - l(mu)) and the binomial transform is supported on the single
      shape 2^i,1^(n-2i) with value (-2)^i.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .kernel import alphas, gamma_values
from .partitions import Partition, enumerate_partitions, z_order
from .qpoly import Rational, _frac, rational_to_json


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


def involution_expansion(basis: str, lam: Partition) -> PowerExpansion:
    """power_expansion(basis, lam) restricted to the involution shapes
    2^j,1^(n-2j): the coordinates Gamma(j)/z_mu of `gamma_values`.  All that
    a tree's generalized matrix polynomial reads of gamma."""
    shapes = [Partition.involution_shape(lam.n, j) for j in range(lam.n // 2 + 1)]
    values = gamma_values(basis, lam)
    return PowerExpansion(lam.n, {mu: Fraction(g, z_order(mu)) for mu, g in zip(shapes, values)})


# ---------------------------------------------------------------------------
# binomial transform over involution classes
# ---------------------------------------------------------------------------


def alpha_table(n: int, basis: str) -> list[tuple[Partition, list[int]]]:
    """Rows (lam, [alpha_0 .. alpha_halfn]) for all lam of n, reverse-lex order;
    the alphas are integers."""
    return [(lam, list(alphas(gamma_values(basis, lam)))) for lam in enumerate_partitions(n)]
