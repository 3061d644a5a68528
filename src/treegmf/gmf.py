"""Generalized matrix polynomials of tree q-Laplacians.

For a degree-n symmetric function gamma with inverse Frobenius image Gamma,
the generalized matrix function of an n x n matrix A is

    d_gamma(A) = sum over permutations psi of Gamma(psi) * prod_i A[i, psi(i)]

and the generalized matrix polynomial is d_gamma(xI - A), stored as an
XQPolynomial (signed coefficients c_0..c_n).

Two evaluators with identical contracts:

* gmf_poly_bruteforce sums over all n! permutations, reading Gamma off each
  permutation's cycle type.  Factorial cost; the test oracle.
* gmf_poly_matching exploits the tree structure of xI minus the q-Laplacian:
  off-diagonal support is the edge set, so a permutation contributes only if
  every non-fixed point moves along an edge and, trees having no cycles of
  length >= 3, the contributing permutations are exactly the matchings.
  Hence

    d_gamma(xI - L) = sum over matchings M of
        Gamma(|M|) * q^(2|M|) * prod over unmatched v of (x - 1 - q^2 (deg v - 1))

  The sum is evaluated by a bottom-up DP over the rooted tree
  (matching_profile, through the integer kernel's `kernel._matching_dp`)
  in polynomial time, in integer arithmetic in u = q^2.
  Visiting every matching, and the n! permutation sum, remain as test
  oracles.

The per-shape table a[i][r] is c_r of the monomial-basis polynomial at shape
2^i,1^(n-2i), divided by 2^i.  That function is (-1)^(j-i) C(j,i) 2^i on the
class 2^j,1^(n-2j) (brick tabloids, Egecioglu-Remmel 1991), so a[i][r] is c_r
of the coefficient of s^i in sum_j (s - 1)^j w_j: one DP with matched-edge
weight (s - 1)u in place of tu (`kernel.air_rows`, imported here), in
integers, with nothing divided.
Every entry lies in the non-negative q^2 cone except the top entry of row 0:
a[0][n] is the determinant of the q-Laplacian, which equals 1 - q^2 for every
tree.  Because that entry is tree independent, all pairwise differences along
proper shift pairs do lie in the cone; the verify_* helpers check exactly
that.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Literal, NamedTuple, Sequence

from .kernel import _matching_dp, air_rows, alphas
from .partitions import Partition
from .qpoly import QP_ONE, QP_ZERO, QPolynomial, XQPolynomial
from .symfunc import ClassFunctionValue, PowerExpansion, inverse_frobenius, involution_class_values
from .trees import CanonicalTree, LabeledTree, ahu_canonical

if TYPE_CHECKING:
    from .gts import GtsPair


class GmfPolynomial(NamedTuple):
    """A generalized matrix polynomial together with what produced it."""

    tree: CanonicalTree
    basis: str | None
    lam: Partition | None
    poly: XQPolynomial

    def signed_coefficient(self, r: int) -> QPolynomial:
        return self.poly.signed_coefficient(r)


# ---------------------------------------------------------------------------
# raw polynomials in x with QPolynomial coefficients (index = power of x)
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


# ---------------------------------------------------------------------------
# matching-expansion evaluator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def matching_profile(tree: LabeledTree) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per matching size j and power k of x, the integer coefficients in
    u = q^2 (lowest first, trailing zeros dropped) of x^k in w_j, the sum
    over matchings of size j of u^j * prod over unmatched v of
    (x - 1 - u (deg v - 1)): the matching DP with matched-edge weight t u."""
    m = tree.n + 1
    rows = _matching_dp(tree, (0, 1))
    return tuple(tuple(map(tuple, rows[k:k + m])) for k in range(0, len(rows), m))


def coefficients_from_profile(
    profile: Sequence[Sequence[Sequence[int]]], n: int, gamma_j: Sequence[Fraction]
) -> XQPolynomial:
    """Assemble the polynomial sum_j Gamma(j) * w_j from a matching profile.

    The Gamma(j) are put on one denominator, so every coefficient of x^k u^e
    is a single integer sum over that denominator; no Fraction is built."""
    den = lcm(*(g.denominator for g in gamma_j))
    terms = [
        (g.numerator * (den // g.denominator), profile[j]) for j, g in enumerate(gamma_j) if g
    ]
    raw = []
    for k in range(n + 1):
        acc = [0] * (n + 1)
        for g, rows in terms:
            for e, c in enumerate(rows[k]):
                acc[e] += g * c
        nums = [0] * (2 * n + 1)
        nums[::2] = acc  # u^e is q^(2e)
        raw.append(QPolynomial.from_ints(nums, den))
    return XQPolynomial.from_raw(n, raw)


def gmf_poly_matching(
    tree: LabeledTree,
    gamma: PowerExpansion,
    basis: str | None = None,
    lam: Partition | None = None,
) -> GmfPolynomial:
    """Matching-expansion evaluation of d_gamma(xI - q-Laplacian)."""
    if gamma.n != tree.n:
        raise ValueError(f"degree mismatch: gamma has n={gamma.n}, tree has n={tree.n}")
    gamma_j = involution_class_values(gamma)
    poly = coefficients_from_profile(matching_profile(tree), tree.n, gamma_j)
    return GmfPolynomial(tree=ahu_canonical(tree), basis=basis, lam=lam, poly=poly)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


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
    cls_values: ClassFunctionValue = inverse_frobenius(gamma)
    raw = [QP_ZERO] * (tree.n + 1)
    for ctype, poly in cycle_type_weights(tree).items():
        g = cls_values.at(Partition(ctype))
        if g:
            _xadd_scaled(raw, poly, g)
    return GmfPolynomial(
        tree=ahu_canonical(tree), basis=basis, lam=lam, poly=XQPolynomial.from_raw(tree.n, raw)
    )


# ---------------------------------------------------------------------------
# the a[i][r] table
# ---------------------------------------------------------------------------


class AirTable(NamedTuple):
    """Table of the per-shape polynomials a[i][r] of one tree.

    a[i][r] is the signed coefficient c_r of the monomial-basis polynomial at
    shape 2^i,1^(n-2i), divided by 2^i.  Entries with 2i > r are zero."""

    tree: CanonicalTree
    n: int
    values: dict[tuple[int, int], QPolynomial]

    def at(self, i: int, r: int) -> QPolynomial:
        return self.values.get((i, r), QP_ZERO)


@lru_cache(maxsize=None)
def air_table(tree: LabeledTree) -> AirTable:
    """The full a[i][r] table, 0 <= i <= n//2, 0 <= r <= n, from air_rows."""
    m = tree.n + 1
    values: dict[tuple[int, int], QPolynomial] = {}
    for i, row in enumerate(air_rows(tree)):
        for r in range(m):
            nums = [0] * (2 * m - 1)
            nums[::2] = row[r * m:(r + 1) * m]  # u^e is q^(2e)
            values[(i, r)] = QPolynomial.from_ints(nums)
    return AirTable(tree=ahu_canonical(tree), n=tree.n, values=values)


def verify_coeff_formula(tree: LabeledTree, gamma: PowerExpansion) -> bool:
    """Check c_r = sum_{i <= r//2} alpha_i(gamma) * a[i][r] for every r,
    computing the two sides independently (matching evaluator vs table)."""
    n = tree.n
    poly = gmf_poly_matching(tree, gamma).poly
    table = air_table(tree)
    alpha = alphas(involution_class_values(gamma))
    for r in range(n + 1):
        acc = QP_ZERO
        for i in range(min(r // 2, n // 2) + 1):
            if alpha[i]:
                acc = acc + table.at(i, r) * alpha[i]
        if acc != poly.signed_coefficient(r):
            return False
    return True


# ---------------------------------------------------------------------------
# monotonicity verifiers
# ---------------------------------------------------------------------------

Mode = Literal["signed", "absolute"]


class MonotonePerR(NamedTuple):
    r: int
    difference: QPolynomial
    ok: bool


class MonotoneReport(NamedTuple):
    """Per-coefficient monotonicity check along one proper shift pair."""

    lower_code: str
    upper_code: str
    basis: str | None
    lam: Partition | None
    mode: Mode
    per_r: tuple[MonotonePerR, ...]
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "pair": {"lower": self.lower_code, "upper": self.upper_code},
            "basis": self.basis,
            "lambda": list(self.lam.parts) if self.lam is not None else None,
            "mode": self.mode,
            "perR": [
                {"r": e.r, "difference": e.difference.to_json_obj(), "pass": e.ok}
                for e in self.per_r
            ],
            "pass": self.ok,
        }


def monotone_report_from_coeffs(
    lower_code: str,
    upper_code: str,
    lower_coeffs: Sequence[QPolynomial],
    upper_coeffs: Sequence[QPolynomial],
    mode: Mode,
    basis: str | None = None,
    lam: Partition | None = None,
) -> MonotoneReport:
    """Difference check on precomputed signed coefficient lists.

    signed mode: lower_r - upper_r must lie in the non-negative q^2 cone.
    absolute mode: coefficient-wise absolute values are differenced first
    (each coefficient list is, up to one global sign, already in the cone)."""
    per_r = []
    all_ok = True
    for r, (cl, cu) in enumerate(zip(lower_coeffs, upper_coeffs)):
        if mode == "absolute":
            diff = cl.abs_coefficients() - cu.abs_coefficients()
        else:
            diff = cl - cu
        ok = diff.is_rplus_q2()
        all_ok = all_ok and ok
        per_r.append(MonotonePerR(r=r, difference=diff, ok=ok))
    return MonotoneReport(
        lower_code=lower_code,
        upper_code=upper_code,
        basis=basis,
        lam=lam,
        mode=mode,
        per_r=tuple(per_r),
        ok=all_ok,
    )


def verify_monotone(
    pair: GtsPair,
    gamma: PowerExpansion,
    mode: Mode = "signed",
    basis: str | None = None,
    lam: Partition | None = None,
) -> MonotoneReport:
    """Check that every signed coefficient weakly decreases from the pair's
    lower tree to its upper tree, in the q^2 cone sense."""
    n = pair.lower.n
    if gamma.n != n:
        raise ValueError(f"degree mismatch: gamma has n={gamma.n}, pair has n={n}")
    lower_poly = gmf_poly_matching(pair.lower.representative, gamma).poly
    upper_poly = gmf_poly_matching(pair.upper.representative, gamma).poly
    return monotone_report_from_coeffs(
        pair.lower.code,
        pair.upper.code,
        lower_poly.signed,
        upper_poly.signed,
        mode,
        basis=basis,
        lam=lam,
    )


class AirEntryReport(NamedTuple):
    i: int
    r: int
    difference: QPolynomial
    ok: bool


class AirMonotoneReport(NamedTuple):
    lower_code: str
    upper_code: str
    entries: tuple[AirEntryReport, ...]
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "pair": {"lower": self.lower_code, "upper": self.upper_code},
            "check": "air-monotone",
            "entries": [
                {"i": e.i, "r": e.r, "difference": e.difference.to_json_obj(), "pass": e.ok}
                for e in self.entries
            ],
            "pass": self.ok,
        }


def air_monotone_report_from_tables(
    lower_code: str,
    upper_code: str,
    lower_values: dict[tuple[int, int], QPolynomial],
    upper_values: dict[tuple[int, int], QPolynomial],
    n: int,
) -> AirMonotoneReport:
    entries = []
    all_ok = True
    for i in range(n // 2 + 1):
        for r in range(n + 1):
            diff = lower_values[(i, r)] - upper_values[(i, r)]
            ok = diff.is_rplus_q2()
            all_ok = all_ok and ok
            entries.append(AirEntryReport(i=i, r=r, difference=diff, ok=ok))
    return AirMonotoneReport(
        lower_code=lower_code, upper_code=upper_code, entries=tuple(entries), ok=all_ok
    )


def verify_air_monotone(pair: GtsPair) -> AirMonotoneReport:
    """Check a[i][r](lower) - a[i][r](upper) in the non-negative q^2 cone for
    every table entry."""
    lower = air_table(pair.lower.representative)
    upper = air_table(pair.upper.representative)
    return air_monotone_report_from_tables(
        pair.lower.code, pair.upper.code, lower.values, upper.values, pair.lower.n
    )
