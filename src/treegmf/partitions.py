"""Integer partitions and their notation, centralizer orders, and
symmetric-group characters.

Partitions are stored weakly decreasing.  The global enumeration order used
everywhere (tables, JSON output, transition matrices) is reverse
lexicographic: (n) first, (1,...,1) last.

`parse_partition_arg` (gmf --lambda) and `parse_shape_pattern` (verify
--lambda) read one notation, the inverse of `Partition.to_exp_string`: comma
tokens "V" or "V^E" with V > 0, the tokens of one value adding up, and in a
pattern also "V^k" or "V^*" for any multiplicity.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator


class Partition:
    """Weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ps = sorted((int(p) for p in parts), reverse=True)
        if ps and ps[-1] <= 0:
            raise ValueError(f"partition parts must be positive, got {ps}")
        self.parts: tuple[int, ...] = tuple(ps)

    @classmethod
    def involution_shape(cls, n: int, j: int) -> "Partition":
        """The shape with j parts equal to 2 and n-2j parts equal to 1."""
        if j < 0 or 2 * j > n:
            raise ValueError(f"need 0 <= 2j <= n, got n={n}, j={j}")
        return cls((2,) * j + (1,) * (n - 2 * j))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def exponential_form(self) -> dict[int, int]:
        """Map part value -> multiplicity."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def transpositions_if_involution_shape(self) -> int | None:
        """If the shape is 2^j,1^(n-2j), return j; otherwise None."""
        if any(p > 2 for p in self.parts):
            return None
        return self.parts.count(2)

    def to_exp_string(self) -> str:
        """Exponential notation, e.g. "2^3,1^4" (exponent omitted when 1)."""
        if not self.parts:
            return "()"
        form = self.exponential_form()  # part values in decreasing order
        return ",".join(f"{v}^{m}" if m > 1 else f"{v}" for v, m in form.items())


def _exp_counts(text: str, fixed_only: bool = False) -> tuple[dict[int, int], set[int]]:
    """Read exponential notation: comma tokens "V", "V^E" and, unless
    fixed_only, "V^k" or "V^*".  Returns each fixed value's multiplicity,
    summed over the tokens of that value, and the set of values of the
    "V^k"/"V^*" tokens.  An empty token, a value <= 0, a negative E or any
    other form raises ValueError."""
    fixed: dict[int, int] = {}
    free: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        v_s, caret, m_s = token.partition("^")
        any_m = caret and m_s in ("k", "*")
        if any_m and fixed_only:
            raise ValueError(f"a partition needs a fixed multiplicity, got {token!r}")
        try:
            v, m = int(v_s), int(m_s) if caret and not any_m else 1
            if v <= 0 or m < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad lambda token {token!r}: V must be a positive integer "
                             f"and E in V^E an integer >= 0") from None
        if any_m:
            free.add(v)
        else:
            fixed[v] = fixed.get(v, 0) + m
    return fixed, free


def parse_partition_arg(text: str, size: int | None = None) -> Partition:
    """The Partition of "2,1,1" or exponential "2^2,1^3": a shape pattern
    whose every multiplicity is fixed.  Given size, parts that sum to
    anything else raise ValueError before any part is listed."""
    counts, _ = _exp_counts(text, fixed_only=True)
    total = sum(v * m for v, m in counts.items())
    if not total:
        raise ValueError(f"empty partition {text!r}")
    if size is not None and total != size:
        raise ValueError(f"lambda sums to {total} but the tree has {size} vertices")
    return Partition([v for v, m in counts.items() for _ in range(m)])


def parse_shape_pattern(text: str | None):
    """The predicate of a `verify` shape pattern, in which "V^k" or "V^*"
    allows any multiplicity of V, zero included.  A shape matches when its
    part values are among the tokens' values and every fixed multiplicity
    is met.  "*" or omission matches everything."""
    if text is None or text.strip() == "*":
        return lambda lam: True
    fixed, free = _exp_counts(text)
    allowed = fixed.keys() | free

    def match(lam: Partition) -> bool:
        form = lam.exponential_form()
        return form.keys() <= allowed and all(form.get(v, 0) == m for v, m in fixed.items())

    return match


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [Partition(t) for t in _partition_tuples(n)]


def z_order(mu: Partition) -> int:
    """Centralizer order of the conjugacy class with cycle type mu:
    product over part values v of v^m * m! with m the multiplicity of v."""
    z = 1
    for v, m in mu.exponential_form().items():
        z *= v**m * math.factorial(m)
    return z


def _beads(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The first-column hook lengths parts[i] + l - 1 - i of a shape with l
    parts, ascending: its beta-set, one bead per row."""
    l = len(parts)
    return tuple(p + l - 1 - i for i, p in enumerate(parts))[::-1]


def _remove_strips(shapes: dict[tuple[int, ...], int], k: int) -> dict[tuple[int, ...], int]:
    """One Murnaghan-Nakayama step on a signed sum of shapes, each given by
    its beads: remove a border strip of size k in every way, i.e. move a
    bead b to an empty b - k, with sign (-1) to the beads passed over."""
    out: dict[tuple[int, ...], int] = {}
    for beads, c in shapes.items():
        taken = set(beads)
        for i, b in enumerate(beads):
            if b < k or b - k in taken:
                continue
            at = bisect_left(beads, b - k)
            smaller = beads[:at] + (b - k,) + beads[at:i] + beads[i + 1:]
            out[smaller] = out.get(smaller, 0) + (-c if (i - at) % 2 else c)
    return {beads: c for beads, c in out.items() if c}


@lru_cache(maxsize=None)
def _chi(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    shapes = {_beads(lam): 1}
    for k in mu:
        if k == 1:  # the rest of mu is 1s: count them by hook lengths
            break
        shapes = _remove_strips(shapes, k)
    return _at_identity(shapes)


@lru_cache(maxsize=None)
def _dimension(beads: tuple[int, ...]) -> int:
    """The character at the identity, i.e. the number of ways to remove the
    shape one 1-strip at a time, by the hook-length formula on its beads b_i:
    |shape|! * prod over i < k of (b_k - b_i) / prod of b_i!."""
    num = math.factorial(sum(beads) - len(beads) * (len(beads) - 1) // 2)
    for i, b in enumerate(beads):
        for c in beads[i + 1:]:
            num *= c - b
    return num // math.prod(map(math.factorial, beads))


def _at_identity(shapes: dict[tuple[int, ...], int]) -> int:
    """The signed sum of the shapes' characters at the identity."""
    return sum(c * _dimension(beads) for beads, c in shapes.items())


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character indexed by lam, evaluated at any
    permutation of cycle type mu.  Computed by border-strip removal, one
    part of mu at a time over the signed shapes left so far."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: |lam|={lam.n}, |mu|={mu.n}")
    return _chi(lam.parts, mu.parts)


def involution_characters(lam: Partition) -> tuple[int, ...]:
    """The character indexed by lam at the cycle types 2^j,1^(n-2j) for
    j = 0..floor(n/2): Murnaghan-Nakayama with j 2-strips, then the 1-strip
    removals of each shape left, counted by the hook-length formula."""
    shapes = {_beads(lam.parts): 1}
    values = [_at_identity(shapes)]
    for _ in range(lam.n // 2):
        shapes = _remove_strips(shapes, 2)
        values.append(_at_identity(shapes))
    return tuple(values)
