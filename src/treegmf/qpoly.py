"""Exact rational polynomial arithmetic in the deformation variable q.

QPolynomial is a dense univariate polynomial over Q: fractions.Fraction
coefficients, lowest degree first, trailing zeros stripped, so equal
polynomials always have identical representations.

XQPolynomial stacks n+1 QPolynomial coefficients c_0..c_n of a degree-n
polynomial in a second variable x, stored under the alternating-sign
convention: the raw coefficient of x^(n-r) equals (-1)^r * c_r.
"""

from __future__ import annotations

from fractions import Fraction
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


class QPolynomial:
    """Polynomial in q with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()) -> None:
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def constant(cls, c: Rational) -> "QPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c: Rational, power: int) -> "QPolynomial":
        return cls([0] * power + [c])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 stands in for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: Rational) -> "QPolynomial":
        return QPolynomial.constant(other) - self

    def __mul__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return QP_ZERO
            return QPolynomial(c * a for a in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QP_ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return QPolynomial(out)

    __rmul__ = __mul__

    def times_q_power(self, m: int) -> "QPolynomial":
        """Multiply by q^m."""
        if not self.coeffs:
            return QP_ZERO
        return QPolynomial([Fraction(0)] * m + list(self.coeffs))

    def evaluate(self, q0: Rational) -> Fraction:
        """Exact evaluation at q = q0 (Horner)."""
        q0 = _frac(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def is_rplus_q2(self) -> bool:
        """True iff the polynomial lies in the cone of polynomials in q^2
        with non-negative coefficients: every odd-power coefficient is 0 and
        every even-power coefficient is >= 0."""
        for k, c in enumerate(self.coeffs):
            if k % 2 == 1:
                if c != 0:
                    return False
            elif c < 0:
                return False
        return True

    def abs_coefficients(self) -> "QPolynomial":
        """Coefficient-wise absolute value."""
        return QPolynomial(abs(c) for c in self.coeffs)

    def to_json_obj(self) -> list:
        """Coefficient array of {num, den} objects, lowest degree first."""
        return [rational_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "QPolynomial":
        return cls(rational_from_json(c) for c in obj)

    def csv_cell(self) -> str:
        """Spreadsheet-safe lossless cell: "c0;c1;..." with "num/den" entries."""
        return ";".join(f"{c.numerator}/{c.denominator}" for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                term = var if mag == 1 else f"{mag}*{var}"
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
Q2 = QPolynomial((0, 0, 1))


def is_rplus_q2(p: QPolynomial) -> bool:
    return p.is_rplus_q2()


def eval_at_q(p: QPolynomial, q0: Rational) -> Fraction:
    return p.evaluate(q0)


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
    def zero(cls, n: int) -> "XQPolynomial":
        return cls(n, ())

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

    def __add__(self, other: "XQPolynomial") -> "XQPolynomial":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return XQPolynomial(self.n, (a + b for a, b in zip(self.signed, other.signed)))

    def scale(self, c: "QPolynomial | Rational") -> "XQPolynomial":
        return XQPolynomial(self.n, (a * c for a in self.signed))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "signedCoefficients": [c.to_json_obj() for c in self.signed]}

    def __repr__(self) -> str:
        return f"XQPolynomial(n={self.n}, signed={[str(c) for c in self.signed]})"
