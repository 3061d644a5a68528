"""Exact rational polynomial arithmetic in the deformation variable q.

QPolynomial is a dense univariate polynomial over Q, stored as integer
numerators over one positive common denominator: nums (lowest degree first,
trailing zeros stripped) and den > 0 with gcd(den, *nums) == 1.  The form is
canonical, so equal polynomials always have identical representations, and
integer polynomials (den == 1) run on Python ints alone.

XQPolynomial stacks n+1 QPolynomial coefficients c_0..c_n of a degree-n
polynomial in a second variable x, stored under the alternating-sign
convention: the raw coefficient of x^(n-r) equals (-1)^r * c_r.

SlotPacking is the one signed-slot format for Kronecker substitution
(Harvey, J. Symb. Comp. 2009): the matching-profile DP (gmf) multiplies
polynomials packed with its slot width, and the sweep packs, subtracts,
cone-tests and decodes the a[i][r] rows with it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int]


def _frac(v: Rational) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def rational_to_json(v: Fraction) -> dict:
    """Encode a rational as {"num", "den"} with string values (lossless)."""
    f = _frac(v)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def rational_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _reduced(c: int, den: int) -> tuple[int, int]:
    """c/den in lowest terms (den > 0)."""
    if den == 1:
        return c, 1
    g = gcd(c, den)
    return c // g, den // g


def _canonical(nums: list[int], den: int) -> "QPolynomial":
    """The polynomial nums/den (den > 0): strips trailing zeros and divides
    out the common factor."""
    while nums and not nums[-1]:
        nums.pop()
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _make(tuple(nums), den)


def _make(nums: tuple[int, ...], den: int) -> "QPolynomial":
    """Wrap an already canonical (nums, den)."""
    p = object.__new__(QPolynomial)
    p.nums = nums
    p.den = den
    return p


class QPolynomial:
    """Polynomial in q with exact rational coefficients: the integer
    numerators nums over the common denominator den."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Rational] = ()) -> None:
        cs = list(coeffs)
        den = lcm(*(c.denominator for c in cs))
        p = _canonical([c.numerator * (den // c.denominator) for c in cs], den)
        self.nums: tuple[int, ...] = p.nums
        self.den: int = p.den

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int = 1) -> "QPolynomial":
        """The polynomial with coefficients nums[k] / den, built without
        creating any Fraction."""
        if den == 0:
            raise ZeroDivisionError("QPolynomial denominator is zero")
        nums = list(nums)
        if den < 0:
            nums = [-c for c in nums]
            den = -den
        return _canonical(nums, den)

    @classmethod
    def constant(cls, c: Rational) -> "QPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c: Rational, power: int) -> "QPolynomial":
        return cls([0] * power + [c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 stands in for the zero polynomial."""
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _combine(self, other: "QPolynomial | Rational", sign: int) -> "QPolynomial":
        """self + sign * other, sign being 1 or -1."""
        if not isinstance(other, QPolynomial):
            other = QPolynomial.constant(other)
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            den = lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            a = [c * fa for c in a]
            b = [c * fb for c in b]
        out = list(map(int.__add__ if sign > 0 else int.__sub__, a, b))
        if len(a) > len(b):
            out += a[len(b):]
        elif len(b) > len(a):
            out += b[len(a):] if sign > 0 else [-c for c in b[len(a):]]
        return _canonical(out, den)

    def __add__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return _make(tuple(-c for c in self.nums), self.den)

    def __sub__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        return self._combine(other, -1)

    def __rsub__(self, other: Rational) -> "QPolynomial":
        return QPolynomial.constant(other) - self

    def __mul__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return QP_ZERO
            num = other.numerator
            return _canonical([num * c for c in self.nums], self.den * other.denominator)
        a, b = self.nums, other.nums
        if not a or not b:
            return QP_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _canonical(out, self.den * other.den)

    __rmul__ = __mul__

    def evaluate(self, q0: Rational) -> Fraction:
        """Exact evaluation at q = q0 = a/b: Horner in integers gives
        sum_k nums[k] a^k b^(d-k), d the degree, over den * b^d."""
        a, b = q0.numerator, q0.denominator
        acc, bk = 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bk
            bk *= b
        return Fraction(acc, self.den * b ** max(self.degree, 0))

    def is_rplus_q2(self) -> bool:
        """True iff the polynomial lies in the cone of polynomials in q^2
        with non-negative coefficients: every odd-power coefficient is 0 and
        every even-power coefficient is >= 0."""
        nums = self.nums
        return not any(nums[1::2]) and min(nums[::2], default=0) >= 0

    def abs_coefficients(self) -> "QPolynomial":
        """Coefficient-wise absolute value."""
        return _make(tuple(map(abs, self.nums)), self.den)

    def to_json_obj(self) -> list:
        """Coefficient array of {num, den} objects, lowest degree first."""
        den = self.den
        out = []
        for c in self.nums:
            num, d = _reduced(c, den)
            out.append({"num": str(num), "den": str(d)})
        return out

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "QPolynomial":
        return cls(rational_from_json(c) for c in obj)

    def csv_cell(self) -> str:
        """Spreadsheet-safe lossless cell: "c0;c1;..." with "num/den" entries."""
        den = self.den
        if den == 1:
            return ";".join(f"{c}/1" for c in self.nums)
        return ";".join("%d/%d" % _reduced(c, den) for c in self.nums)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for k, c in enumerate(self.nums):
            if not c:
                continue
            num, d = _reduced(abs(c), self.den)
            mag = str(num) if d == 1 else f"{num}/{d}"
            if k == 0:
                term = mag
            else:
                var = "q" if k == 1 else f"q^{k}"
                term = var if mag == "1" else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"


QP_ZERO = QPolynomial()
QP_ONE = QPolynomial((1,))
Q = QPolynomial((0, 1))


class XQPolynomial:
    """Signed coefficient stack of a degree-n polynomial in x over Q[q].

    Stores c_0..c_n where the raw coefficient of x^(n-r) is (-1)^r * c_r.
    """

    __slots__ = ("n", "signed")

    def __init__(self, n: int, signed: Iterable[QPolynomial]) -> None:
        cs = list(signed)
        if len(cs) > n + 1:
            raise ValueError(f"expected at most {n + 1} coefficients, got {len(cs)}")
        cs += [QP_ZERO] * (n + 1 - len(cs))
        self.n = n
        self.signed: tuple[QPolynomial, ...] = tuple(cs)

    @classmethod
    def from_raw(cls, n: int, raw: Sequence[QPolynomial]) -> "XQPolynomial":
        """Build from raw x-coefficients (index = power of x, length <= n+1)."""
        raw = list(raw) + [QP_ZERO] * (n + 1 - len(raw))
        signed = [-raw[n - r] if r % 2 else raw[n - r] for r in range(n + 1)]
        return cls(n, signed)

    def to_raw(self) -> list[QPolynomial]:
        """Raw x-coefficients, index = power of x."""
        return [self.signed[self.n - k] * ((-1) ** (self.n - k)) for k in range(self.n + 1)]

    def signed_coefficient(self, r: int) -> QPolynomial:
        return self.signed[r]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.signed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XQPolynomial):
            return NotImplemented
        return self.n == other.n and self.signed == other.signed

    def __hash__(self) -> int:
        return hash((self.n, self.signed))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "signedCoefficients": [c.to_json_obj() for c in self.signed]}

    def __repr__(self) -> str:
        return f"XQPolynomial(n={self.n}, signed={[str(c) for c in self.signed]})"


# memoryview.cast codes that read a slot of 1, 2, 4 or 8 bytes as one
# signed int; slots are written little-endian
_CASTS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


class SlotPacking:
    """`count` signed integers packed into one int, slot k holding value v_k
    as v_k * 2^(k W).  W is the fewest whole bytes that fit every
    |v| <= bound with its sign: 2^(W-1) > bound.  With castable, W up to 8
    is rounded up to 1, 2, 4 or 8, so that `rows` decodes every slot with
    one C-level cast; wider packed ints make every sum and cone test cost
    more, so only a sweep that writes a report asks for it."""

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
        w, half = self.width, self.half
        data = b"".join((v + half).to_bytes(w, "little") for v in values)
        return int.from_bytes(data, "little") - self.bias

    def rows(self, packed: int, m: int) -> list[list[int]]:
        """The slot values in rows of m slots, each cut after its last
        nonzero value.  Adding the bias shifts each slot into [0, 2^W)
        without carries; flipping each slot's top bit then leaves v mod 2^W,
        the slot's two's complement bytes."""
        w = self.width
        data = ((packed + self.bias) ^ self.bias).to_bytes(w * self.count, "little")
        if self._cast:
            values = memoryview(data).cast(self._cast).tolist()
        else:
            values = [int.from_bytes(data[k:k + w], "little", signed=True)
                      for k in range(0, len(data), w)]
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
