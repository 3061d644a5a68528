"""Generalized matrix polynomials of tree q-Laplacians.

For a degree-n symmetric function gamma with inverse Frobenius image Gamma,
the generalized matrix function of an n x n matrix A is

    d_gamma(A) = sum over permutations psi of Gamma(psi) * prod_i A[i, psi(i)]

and the generalized matrix polynomial is d_gamma(xI - A), stored as an
XQPolynomial (signed coefficients c_0..c_n).

The evaluator here, gmf_poly_matching, exploits the tree structure of xI
minus the q-Laplacian: off-diagonal support is the edge set, so a
permutation contributes only if every non-fixed point moves along an edge
and, trees having no cycles of length >= 3, the contributing permutations
are exactly the matchings.  Hence

    d_gamma(xI - L) = sum over matchings M of
        Gamma(|M|) * q^(2|M|) * prod over unmatched v of (x - 1 - q^2 (deg v - 1))

The sum is evaluated by a bottom-up DP over the rooted tree
(matching_profile, through the integer kernel's `kernel.dp_rows`) in
polynomial time, in integer arithmetic in u = q^2.  The n! permutation sum,
with the same contract, is `oracle.gmf_poly_bruteforce`, run by
`gmf --oracle` and the tests; visiting every matching is a test oracle.

The per-shape table a[i][r] is c_r of the monomial-basis polynomial at shape
2^i,1^(n-2i), divided by 2^i.  That function is (-1)^(j-i) C(j,i) 2^i on the
class 2^j,1^(n-2j) (brick tabloids, Egecioglu-Remmel 1991), so a[i][r] is c_r
of the coefficient of s^i in sum_j (s - 1)^j w_j: one DP with matched-edge
weight (s - 1)u in place of tu (`kernel.air_rows`, imported here), in
integers, with nothing divided.  The DP folds x^n w(-1/x), so at either
weight its slots are signed coefficients c_r in order: matching_profile and
air_rows are the same rows, one per power of the outer variable.
Every entry lies in the non-negative q^2 cone except the top entry of row 0:
a[0][n] is the determinant of the q-Laplacian, which equals 1 - q^2 for every
tree.  Because that entry is tree independent, all pairwise differences along
proper shift pairs do lie in the cone.  The sweep (`sweep.sweep_pairs`)
checks exactly that; monotone_report_from_coeffs and
air_monotone_report_from_tables check one pair on QPolynomial tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Literal, NamedTuple, Sequence

from .kernel import air_rows, alphas, dp_rows
from .partitions import Partition
from .qpoly import QP_ZERO, QPolynomial, XQPolynomial
from .symfunc import PowerExpansion, involution_class_values
from .trees import CanonicalTree, LabeledTree, ahu_canonical


class GmfPolynomial(NamedTuple):
    """A generalized matrix polynomial together with what produced it."""

    tree: CanonicalTree
    basis: str | None
    lam: Partition | None
    poly: XQPolynomial


# ---------------------------------------------------------------------------
# matching-expansion evaluator
# ---------------------------------------------------------------------------


def _q_polynomials(row: Sequence[int], m: int, den: int = 1) -> list[QPolynomial]:
    """A DP row flat over (r, e) (see `kernel.dp_rows`) as one q-polynomial
    per r, over den: u^e is q^(2e)."""
    nums = [0] * (2 * m - 1)
    out = []
    for k in range(0, m * m, m):
        nums[::2] = row[k:k + m]
        out.append(QPolynomial.from_ints(nums, den))
    return out


@lru_cache(maxsize=1)
def matching_profile(tree: LabeledTree) -> tuple[tuple[int, ...], ...]:
    """Per matching size j, the row of w_j, the sum over matchings of size j
    of u^j * prod over unmatched v of (x - 1 - u (deg v - 1)), in the layout
    of air_rows: entry r*(n+1)+e is the coefficient of u^e = q^(2e) in w_j's
    signed c_r.  The matching DP with matched-edge weight t u."""
    return tuple(map(tuple, dp_rows(tree, (0, 1))))


def coefficients_from_profile(
    profile: Sequence[Sequence[int]], n: int, gamma_j: Sequence[Fraction]
) -> XQPolynomial:
    """Assemble the polynomial sum_j Gamma(j) * w_j from a matching profile.

    The Gamma(j) are put on one denominator, so each u^e coefficient of each
    c_r is a single integer sum over that denominator; no Fraction is built."""
    den = lcm(*(g.denominator for g in gamma_j))
    gs = [g.numerator * (den // g.denominator) for g in gamma_j]
    flat = [sum(map(mul, gs, column)) for column in zip(*profile)]
    return XQPolynomial(n, _q_polynomials(flat, n + 1, den))


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


@lru_cache(maxsize=1)
def air_table(tree: LabeledTree) -> AirTable:
    """The full a[i][r] table, 0 <= i <= n//2, 0 <= r <= n, from air_rows."""
    values = {(i, r): p for i, row in enumerate(air_rows(tree))
              for r, p in enumerate(_q_polynomials(row, tree.n + 1))}
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
# per-pair monotonicity checks
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
