"""The integer kernel of the sweep: the signed-slot format, the matching DP
and its a[i][r] rows, and Gamma at the involution classes with its binomial
transform.  Everything here runs on Python ints, so `verify` loads this
module and not gmf, symfunc or qpoly, which import these names back from it.

SlotPacking is the one signed-slot format for Kronecker substitution
(Harvey, J. Symb. Comp. 2009): the matching DP multiplies polynomials
packed with its slot width, and the sweep repacks its root into the a[i][r]
rows at the sweep's width, and subtracts, cone-tests and decodes them.
"""

from __future__ import annotations

import sys
from math import comb, factorial
from typing import TYPE_CHECKING, Sequence

from . import BASES
from .partitions import involution_characters, z_order

if TYPE_CHECKING:
    from .partitions import Partition
    from .qpoly import Rational
    from .trees import LabeledTree


# memoryview.cast codes that hold a slot of 1, 2, 4 or 8 bytes
# as one signed int; slots are written little-endian
_CASTS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}
# a slot's top byte -> the byte that extends its sign
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))


class SlotPacking:
    """`count` signed integers packed into one int, slot k holding value v_k
    as v_k * 2^(k W).  W is the fewest whole bytes that fit every
    |v| <= bound with its sign: 2^(W-1) > bound.  With castable, W up to 8
    is rounded up to 1, 2, 4 or 8, so that one C-level cast decodes every
    slot; the sweep asks for it, and the matching DP, whose big-int
    products grow with W, does not.  `repack` moves the values to wider
    slots by copying byte planes; `values` casts 3-, 5-, 6- and 7-byte
    slots after widening them to the next cast size the same way;
    `nonnegative` and `absolute` act on every slot at once."""

    def __init__(self, count: int, bound: int, castable: bool = False) -> None:
        self.count, self.bound = count, bound
        need = bound.bit_length() // 8 + 1
        if castable:
            need = next((w for w in (1, 2, 4, 8) if w >= need), need)
        self.width = need  # bytes per slot
        # only the top bit of every slot set
        self.bias = int.from_bytes((bytes(self.width - 1) + b"\x80") * count, "little")
        self._cast = _CASTS.get(self.width)

    def mask(self, slots) -> int:
        """The int whose bytes are all set over exactly the given slots."""
        full, shift = (1 << 8 * self.width) - 1, 8 * self.width
        return sum(full << shift * k for k in slots)

    def _bytes(self, packed: int, zeros: int = 0) -> bytes:
        """Every slot's two's complement bytes: adding the bias shifts each
        slot into [0, 2^W) without carries, and flipping its top bit leaves
        v mod 2^W.  A nonzero slot under the mask `zeros` raises ValueError."""
        data = (packed + self.bias) ^ self.bias
        if data & zeros:
            raise ValueError("a packed slot expected to be 0 is not")
        return data.to_bytes(self.width * self.count, "little")

    def values(self, packed: int, zeros: int = 0):
        """Every slot value, as a sequence indexed by slot; a slot under the
        mask `zeros` that is not 0 raises ValueError."""
        data, w = self._bytes(packed, zeros), self.width
        if self._cast:
            return memoryview(data).cast(self._cast)
        if w > 8 or not _CASTS:
            return [int.from_bytes(data[k:k + w], "little", signed=True)
                    for k in range(0, len(data), w)]
        wide = 4 if w < 4 else 8
        return memoryview(self._resized(data, wide)).cast(_CASTS[wide]).tolist()

    def _resized(self, data: bytes, wide: int) -> bytearray:
        """Every slot's bytes at `wide` >= W bytes, one plane (the j-th byte of
        every slot) at a time: its own W, then its top byte's sign."""
        w, out = self.width, bytearray(wide * self.count)
        sign = data[w - 1::w].translate(_SIGN)
        for j in range(wide):
            out[j::wide] = data[j::w] if j < w else sign
        return out

    def repack(self, packed: int, to: SlotPacking) -> list[int]:
        """`packed`'s values in the slots of `to`, at least as wide, cut into
        ints of to.count slots.  Flipping each slot's top bit in the widened
        bytes adds 2^(8W'-1) to every slot, which to's bias takes off."""
        data, size = self._resized(self._bytes(packed), to.width), to.width * to.count
        return [(int.from_bytes(data[k:k + size], "little") ^ to.bias) - to.bias
                for k in range(0, len(data), size)]

    def absolute(self, packed: int) -> int:
        """The packed int of every slot's |v|, given |v| < 2^(8W-1).  A slot
        is negative exactly when its top bit is clear after adding the bias;
        its biased value less 2^(8W-1) is v, and subtracting 2v leaves -v."""
        biased = packed + self.bias
        neg = self.bias ^ (biased & self.bias)  # the top bit of each negative slot
        full = (neg >> (8 * self.width - 1)) * ((1 << 8 * self.width) - 1)
        return packed - 2 * ((biased & full) - neg)

    def nonnegative(self, packed: int) -> bool:
        """Every slot >= 0.  Adding the bias shifts each slot into
        [0, 2^W) without carries, and the slot's top bit is then set
        exactly when its value is >= 0."""
        return (packed + self.bias) & self.bias == self.bias


def _fold(tree: LabeledTree, diag, edge):
    """The root's total in the matching DP's pass, on any ring.  Bottom-up
    over the tree rooted at vertex 0, each vertex v keeps two polynomials
    over its subtree: prod[v], the product of its children's totals, and
    matched[v], the sum over children c of prod[c] (c's subtree with c
    uncovered, before c's diagonal factor) times the other children's
    totals.  v's total is then diag(v, prod[v]) + edge(matched[v]), v
    unmatched or matched to a child; one child at a time costs O(deg v)."""
    from .trees import rooted_order

    order, parent = rooted_order(tree.adj, 0)
    # a vertex's entries are dropped once its parent has absorbed them
    prod: dict[int, int] = {}
    matched: dict[int, int] = {}
    for v in reversed(order):
        g = prod.pop(v, 1)
        total = diag(v, g) + edge(matched.pop(v, 0))
        p = parent[v]
        if p >= 0:
            matched[p] = matched.get(p, 0) * total + prod.get(p, 1) * g
            prod[p] = prod.get(p, 1) * total
    return total


def _matching_dp(tree: LabeledTree, weight: tuple[int, int]) -> tuple[SlotPacking, int]:
    """The matching DP on the reversed polynomial, as its slots and root int.
    w(x) is the sum over matchings M of (c0 + c1 y)^|M| u^|M| * prod over
    unmatched v of (x - 1 - u (deg v - 1)), weight = (c0, c1) being the
    matched-edge weight in an outer variable y.  The root is (-1)^n x^n
    w(-1/x): `_fold` with diag(v, g) = (1 + x + (deg v - 1) x u) g and
    edge(h) = (c0 + c1 y) u x^2 h.  So slot (j*(n+1) + r)*(n+1) + e holds
    (-1)^r times the coefficient of y^j x^(n-r) u^e in w, for any n.

    Each polynomial is Kronecker-packed into one int in the signed slots of
    SlotPacking (y, x and u are powers of 2^W), so a product is one
    big-int multiplication.  The slots fit the largest root coefficient,
    which the same DP bounds when run on absolute values at y = x = u = 1."""
    n, adj = tree.n, tree.adj
    c0, c1 = weight
    bound = _fold(tree, lambda v, g: (2 + abs(len(adj[v]) - 1)) * g,
                  lambda h: (abs(c0) + abs(c1)) * h)
    m = n + 1
    slots = SlotPacking((n // 2 + 1) * m * m, bound)
    u_shift = 8 * slots.width
    x_shift = u_shift * m
    edge = 2 * x_shift + u_shift
    y_edge = edge + x_shift * m
    packed = _fold(
        tree,
        lambda v, g: g + (g << x_shift) + (len(adj[v]) - 1) * (g << x_shift + u_shift),
        lambda h: (c0 * h << edge) + (c1 * h << y_edge),
    )
    return slots, packed


def dp_rows(tree: LabeledTree, weight: tuple[int, int]) -> list[list[int]]:
    """The matching DP's rows at matched-edge weight (c0 + c1 y) u, one per
    power j = 0..n//2 of y, each flat over (r, e): entry r*(n+1)+e is the
    coefficient of y^j u^e in the signed c_r, (-1)^r times that of x^(n-r).
    The DP's slots are these rows in order, so one decode cuts them."""
    slots, packed = _matching_dp(tree, weight)
    values, k = list(slots.values(packed)), (tree.n + 1) ** 2
    return [values[i:i + k] for i in range(0, len(values), k)]


def air_root(tree: LabeledTree) -> tuple[int, int]:
    """The matching DP's root int of the a-table in order (see air_rows), and
    the bound of its SlotPacking((n//2+1)*(n+1)^2, bound)."""
    slots, packed = _matching_dp(tree, (-1, 1))
    return packed, slots.bound


def air_rows(tree: LabeledTree) -> list[list[int]]:
    """The integer rows a[i] for i = 0..n//2, each flat over (r, e): entry
    r*(n+1)+e is the coefficient of u^e = q^(2e) in a[i][r].

    a[i][r] is c_r of the coefficient of s^i in sum_j (s - 1)^j w_j: the
    `dp_rows` of matched-edge weight (s - 1) u."""
    return dp_rows(tree, (-1, 1))


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


def alphas(gamma_j: Sequence[Rational]) -> tuple[Rational, ...]:
    """Binomial transform of involution-class values: alpha_i =
    sum_{j=0..i} C(i,j) * gamma_j[j] for i = 0..len(gamma_j)-1, where
    gamma_j[j] is the inverse Frobenius image at cycle type 2^j,1^(n-2j).
    Integers for the integer values of `gamma_values`, Fractions for
    Fraction values.  The package's one binomial transform."""
    return tuple(
        sum(comb(i, j) * gamma_j[j] for j in range(i + 1)) for i in range(len(gamma_j))
    )
