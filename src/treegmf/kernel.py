"""The integer kernel of the sweep: the signed-slot format, the matching DP
and its a[i][r] rows, and Gamma at the involution classes with its binomial
transform.  Everything here runs on Python ints, so `verify` loads this
module and not gmf, symfunc or qpoly, which import these names back from it.

SlotPacking is the one signed-slot format for Kronecker substitution
(Harvey, J. Symb. Comp. 2009): the matching DP multiplies polynomials
packed with its slot width, and the sweep packs, subtracts, cone-tests and
decodes the a[i][r] rows with it.
"""

from __future__ import annotations

import sys
from array import array
from math import comb, factorial
from typing import TYPE_CHECKING, Sequence

from . import BASES
from .partitions import involution_characters, z_order

if TYPE_CHECKING:
    from .partitions import Partition
    from .qpoly import Rational
    from .trees import LabeledTree


# memoryview.cast and array codes that hold a slot of 1, 2, 4 or 8 bytes
# as one signed int; slots are written little-endian
_CASTS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


class SlotPacking:
    """`count` signed integers packed into one int, slot k holding value v_k
    as v_k * 2^(k W).  W is the fewest whole bytes that fit every
    |v| <= bound with its sign: 2^(W-1) > bound.  With castable, W up to 8
    is rounded up to 1, 2, 4 or 8, so that `rows` and `values` decode every
    slot with one C-level cast; wider packed ints make every sum and cone
    test cost more, so only a sweep that writes a report asks for it."""

    def __init__(self, count: int, bound: int, castable: bool = False) -> None:
        self.count = count
        need = bound.bit_length() // 8 + 1
        if castable:
            need = next((w for w in (1, 2, 4, 8) if w >= need), need)
        self.width = need  # bytes per slot
        self.half = 1 << (8 * self.width - 1)
        # only the top bit of every slot set
        self.bias = int.from_bytes((bytes(self.width - 1) + b"\x80") * count, "little")
        self._cast = _CASTS.get(self.width)

    def pack(self, values: list[int]) -> int:
        """The packed int of `values`; a value outside [-2^(8W-1), 2^(8W-1))
        raises OverflowError.  At 1, 2, 4 and 8 bytes one array conversion
        writes every slot's two's complement bytes D, and flipping each
        slot's top bit (D ^ bias) adds 2^(8W-1) to every slot, which the
        bias takes off again."""
        if self._cast:
            data = array(self._cast, values).tobytes()
            return (int.from_bytes(data, "little") ^ self.bias) - self.bias
        w, half = self.width, self.half
        data = b"".join((v + half).to_bytes(w, "little") for v in values)
        return int.from_bytes(data, "little") - self.bias

    def mask(self, slots) -> int:
        """The int whose bytes are all set over exactly the given slots."""
        full, shift = (1 << 8 * self.width) - 1, 8 * self.width
        return sum(full << shift * k for k in slots)

    def _bytes(self, packed: int, zeros: int = 0) -> bytes:
        """Every slot's two's complement bytes.  Adding the bias shifts each
        slot into [0, 2^W) without carries; flipping each slot's top bit
        then leaves v mod 2^W.  A slot under the mask `zeros` that is not 0
        raises ValueError."""
        data = (packed + self.bias) ^ self.bias
        if data & zeros:
            raise ValueError("a packed slot expected to be 0 is not")
        return data.to_bytes(self.width * self.count, "little")

    def _decode(self, data: bytes):
        if self._cast:
            return memoryview(data).cast(self._cast)
        w = self.width
        return [int.from_bytes(data[k:k + w], "little", signed=True)
                for k in range(0, len(data), w)]

    def values(self, packed: int, zeros: int = 0):
        """Every slot value, as a sequence indexed by slot; a slot under the
        mask `zeros` that is not 0 raises ValueError."""
        return self._decode(self._bytes(packed, zeros))

    def rows(self, packed: int, m: int) -> list[list[int]]:
        """The slot values in rows of m slots, each cut after its last
        nonzero value."""
        w = self.width
        data = self._bytes(packed)
        values = self._decode(data)
        if self._cast:
            values = values.tolist()
        # a row's trailing zero slots are its trailing zero bytes
        return [
            values[k:k + (len(data[k * w:(k + m) * w].rstrip(b"\0")) + w - 1) // w]
            for k in range(0, self.count, m)
        ]

    def nonnegative(self, packed: int) -> bool:
        """Every slot >= 0.  Adding the bias shifts each slot into
        [0, 2^W) without carries, and the slot's top bit is then set
        exactly when its value is >= 0."""
        return (packed + self.bias) & self.bias == self.bias


def _matching_dp(tree: LabeledTree, weight: tuple[int, int]) -> list[list[int]]:
    """The matching DP: per power j of y and power k of x (row j*(n+1)+k),
    the integer coefficients in u = q^2, lowest first and trailing zeros
    dropped, of x^k in the sum over matchings M of (c0 + c1 y)^|M| u^|M| *
    prod over unmatched v of (x - 1 - u (deg v - 1)), weight = (c0, c1)
    being the matched-edge weight in an outer variable y.

    Bottom-up over the tree rooted at vertex 0, each vertex v keeps two
    polynomials in (y, x, u) over its subtree: prod[v], the product of its
    children's totals, and matched[v], the sum over children c of prod[c]
    (c's subtree with c uncovered, before c's diagonal factor) times the
    other children's totals.  v's total is then (x - 1 - u (deg v - 1)) *
    prod[v] + (c0 + c1 y) u * matched[v], v unmatched or matched to a child;
    folding in one child at a time costs O(deg v) products.

    Each polynomial is Kronecker-packed into one int in the signed slots of
    SlotPacking (y, x and u are powers of 2^W), so a product is one
    big-int multiplication, and `SlotPacking.rows` decodes the root.  The
    slots fit the largest root coefficient, which the same DP bounds when
    run on absolute values at y = x = u = 1."""
    from .trees import rooted_order

    n = tree.n
    adj = tree.adj
    order, parent = rooted_order(tree.adj, 0)
    c0, c1 = weight

    def fold(diag, edge):
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

    bound = fold(lambda v, g: (2 + abs(len(adj[v]) - 1)) * g, lambda h: (abs(c0) + abs(c1)) * h)
    m = n + 1
    slots = SlotPacking((n // 2 + 1) * m * m, bound)
    u_shift = 8 * slots.width
    x_shift = u_shift * m
    yu_shift = x_shift * m + u_shift
    packed = fold(
        lambda v, g: (g << x_shift) - g - (len(adj[v]) - 1) * (g << u_shift),
        lambda h: (c0 * h << u_shift) + (c1 * h << yu_shift),
    )
    return slots.rows(packed, m)


def air_rows(tree: LabeledTree) -> list[list[int]]:
    """The integer rows a[i] for i = 0..n//2, each flat over (r, e): entry
    r*(n+1)+e is the coefficient of u^e = q^(2e) in a[i][r].

    a[i][r] is (-1)^r times the coefficient of s^i x^(n-r) in the matching
    DP with matched-edge weight (s - 1) u, sum_j (s - 1)^j w_j."""
    n, m = tree.n, tree.n + 1
    rows = _matching_dp(tree, (-1, 1))
    out = []
    for i in range(n // 2 + 1):
        flat = []
        for r in range(m):
            coeffs = rows[i * m + n - r]
            flat += [-c for c in coeffs] if r % 2 else coeffs
            flat += [0] * (m - len(coeffs))
        out.append(flat)
    return out


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
