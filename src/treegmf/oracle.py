"""The reference routes, exact over Q, that `gmf --oracle` and the tests
run.  A plain `gmf` request never loads this module: it reads gamma's class
values in closed form (`kernel.gamma_values`) and sums the matching
expansion (`gmf.gmf_poly_matching`).

* The power-sum expansion of a basis element (`power_expansion`): m by one
  triangular back-substitution over the p-in-m rows, h by products of the
  h_k, e as omega(h), s by Murnaghan-Nakayama characters, f = +-m.  Its
  inverse Frobenius image has value z_mu * coord(mu) at every cycle type mu
  (`inverse_frobenius`, a ClassFunctionValue).
* The permutation sum over all n! permutations, Gamma read off each
  cycle type (`gmf_poly_bruteforce`), guarded at n <= max_brute.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import BASES
from .gmf import GmfPolynomial
from .partitions import Partition, _partition_tuples, enumerate_partitions, mn_character, z_order
from .qpoly import QP_ONE, QP_ZERO, QPolynomial, XQPolynomial, rational_to_json
from .symfunc import PowerExpansion
from .trees import LabeledTree, ahu_canonical


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
    if basis == "e":  # omega(h_lam), and omega(p_mu) = (-1)^(n - l(mu)) p_mu
        h = _power_expansion_cached("h", parts).coords
        return PowerExpansion(n, {mu: c * (-1) ** (n - len(mu)) for mu, c in h.items()})
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


# ---------------------------------------------------------------------------
# the permutation sum, on raw polynomials in x with QPolynomial coefficients
# (index = power of x)
# ---------------------------------------------------------------------------


def _xmul(a: list[QPolynomial], b: list[QPolynomial]) -> list[QPolynomial]:
    out = [QP_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
    return out


def _xadd_scaled(acc: list[QPolynomial], poly: Sequence[QPolynomial], c) -> None:
    for k, a in enumerate(poly):
        if a:
            acc[k] = acc[k] + a * c


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


@lru_cache(maxsize=None)
def cycle_type_weights(tree: LabeledTree) -> dict[tuple[int, ...], tuple[QPolynomial, ...]]:
    """For each cycle type, the raw x-polynomial

        sum over permutations psi of that type of prod_i (xI - L)[i, psi(i)]

    obtained by full enumeration of all n! permutations.  Entries of xI - L:
    x - 1 - q^2 (deg - 1) on the diagonal, +q on edges, 0 elsewhere; any zero
    entry kills the permutation's product."""
    n = tree.n
    q = QPolynomial([0, 1])
    diag_raw = [
        [-QPolynomial([1, 0, tree.degree(v) - 1]), QP_ONE] for v in range(n)
    ]
    adj = [set(a) for a in tree.adj]
    weights: dict[tuple[int, ...], list[QPolynomial]] = {}
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            if perm[i] != i and perm[i] not in adj[i]:
                ok = False
                break
        if not ok:
            continue
        prod = [QP_ONE]
        for i in range(n):
            prod = _xmul(prod, diag_raw[i]) if perm[i] == i else [c * q for c in prod]
        key = _cycle_type(perm)
        if key not in weights:
            weights[key] = [QP_ZERO] * (n + 1)
        acc = weights[key]
        for k, c in enumerate(prod):
            if c:
                acc[k] = acc[k] + c
    return {k: tuple(v) for k, v in weights.items()}


def gmf_poly_bruteforce(
    tree: LabeledTree,
    gamma: PowerExpansion,
    basis: str | None = None,
    lam: Partition | None = None,
    max_brute: int = 9,
) -> GmfPolynomial:
    """Permutation-sum evaluation of d_gamma(xI - q-Laplacian).

    Guarded at n <= max_brute (default 9): the cost is factorial in n."""
    if gamma.n != tree.n:
        raise ValueError(f"degree mismatch: gamma has n={gamma.n}, tree has n={tree.n}")
    if tree.n > max_brute:
        raise ValueError(
            f"brute force at n={tree.n} exceeds the guard ({max_brute}); raise max_brute"
        )
    cls_values = inverse_frobenius(gamma)
    raw = [QP_ZERO] * (tree.n + 1)
    for ctype, poly in cycle_type_weights(tree).items():
        g = cls_values.at(Partition(ctype))
        if g:
            _xadd_scaled(raw, poly, g)
    return GmfPolynomial(
        tree=ahu_canonical(tree), basis=basis, lam=lam, poly=XQPolynomial.from_raw(tree.n, raw)
    )
