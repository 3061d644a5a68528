"""Independent oracles used by the test suite.

Everything here is deliberately implemented from first principles, separate
from the package code paths it checks: partition counting via the pentagonal
recurrence, character degrees via hook lengths, free-tree counts via Prüfer
dedup and via the rooted-tree divisor recurrence with Otter's correction,
path matching counts via the transfer recurrence, every matching of a tree
by extending the matchings found so far one edge at a time, the matching
profile of a tree by visiting every matching, q-polynomial arithmetic on
tuples of Fraction coefficients, canonical codes and tree sketches from one
pass for the centroids and one rooted pass per centroid, free-tree
enumeration with each parent found by scanning the level sequence, the
generalized tree shift on the tree's edge list, the proper-shift pairs found
by testing every ordered vertex pair of every tree, the monotonicity sweep
run one (pair, basis, shape) check at a time on per-tree q-polynomial tables
(and one pair's checks by verify_monotone and verify_air_monotone), tree
files written from a tree's edge list, the a[i][r] rows assembled from the
monomial-basis polynomials and divided by 2^i, the poset and verify json
reports written by json.dumps, integer determinants by fraction-free
(Bareiss) elimination, the a[i][r] table's generating sum as the determinant
of a tau-scaled matrix, the q-Laplacian entry by entry, the m- and f-class
values at every cycle type by signed weighted brick-tabloid counts, the full
monomial/power-sum transition rows, the elementary basis as products of the
e_k, and characters by border-strip recursion over the parts of mu.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from typing import NamedTuple


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def hook_length_dimension(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape, n! over the hook products."""
    n = sum(parts)
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    dim = factorial(n)
    for i, row in enumerate(parts):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            dim //= hook
    return dim


def kostka_number(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Semistandard tableaux of shape lam and content mu, counted by placing
    the entries 1, 2, ... in turn: entry j fills a horizontal strip of mu[j]
    cells inside lam, no two in one column.  Shapes are row lengths padded
    to len(lam)."""
    rows = len(lam)

    def strips(shape, k, r):
        # rows r.. of the grown shape with k cells left to place; row r stays
        # inside lam and, for one strip, no longer than row r-1 was before it
        if r == rows:
            if not k:
                yield ()
            return
        cap = min(lam[r], shape[r - 1] if r else lam[0], shape[r] + k)
        for new in range(shape[r], cap + 1):
            for rest in strips(shape, k - (new - shape[r]), r + 1):
                yield (new, *rest)

    shapes = Counter({(0,) * rows: 1})
    for k in mu:
        grown: Counter = Counter()
        for shape, count in shapes.items():
            for nxt in strips(shape, k, 0):
                grown[nxt] += count
        shapes = grown
    return shapes[tuple(lam)]


@lru_cache(maxsize=None)
def _brick_weight_sum(bricks: tuple[tuple[int, int], ...], rows: tuple[int, ...]) -> int:
    """Total weight over fillings of the given rows from the given brick
    multiset (encoded as sorted (value, count) pairs).  A brick tabloid
    fills each row with bricks lying inside it; its weight is the product
    over rows of the length of the row's last brick."""
    if not rows:
        return 1 if not bricks else 0
    target = rows[0]
    rest = rows[1:]
    total = 0

    def compose(remaining: int, avail: dict[int, int], last: int) -> None:
        nonlocal total
        if remaining == 0:
            key = tuple(sorted((v, c) for v, c in avail.items() if c > 0))
            total += last * _brick_weight_sum(key, rest)
            return
        for v in sorted(v for v, cnt in avail.items() if cnt > 0 and v <= remaining):
            avail[v] -= 1
            compose(remaining - v, avail, v)
            avail[v] += 1

    compose(target, dict(bricks), 0)
    return total


def _brick_weight(lam, mu) -> int:
    key = tuple(sorted(Counter(lam.parts).items()))
    return _brick_weight_sum(key, mu.parts)


def m_inverse_value(lam, mu) -> int:
    """Monomial class-function value at cycle type mu via the signed weighted
    brick-tabloid count: (-1)^(l(lam)-l(mu)) times the total weight."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: |lam|={lam.n}, |mu|={mu.n}")
    return (-1) ** (len(lam) - len(mu)) * _brick_weight(lam, mu)


def f_inverse_value(lam, mu) -> int:
    """Sign-scaled-monomial class-function value at cycle type mu:
    (-1)^(n-l(mu)) times the total brick-tabloid weight."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: |lam|={lam.n}, |mu|={mu.n}")
    return (-1) ** (lam.n - len(mu)) * _brick_weight(lam, mu)


def p_in_m_rows(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """Monomial coordinates of every degree-n power-sum basis element."""
    from treegmf.partitions import _partition_tuples
    from treegmf.oracle import _p_in_m_row

    return {mu: _p_in_m_row(mu) for mu in _partition_tuples(n)}


def m_in_p_rows(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """Power-sum coordinates of every degree-n monomial basis element."""
    from treegmf.partitions import _partition_tuples
    from treegmf.oracle import _m_in_p_row

    return {lam: _m_in_p_row(lam) for lam in _partition_tuples(n)}


@lru_cache(maxsize=None)
def elementary_product_expansion(parts: tuple[int, ...]):
    """The power-sum expansion of e_lam as the product of its e_k, each
    e_k = sum over mu of k of (-1)^(k - l(mu)) p_mu / z_mu."""
    from treegmf import Partition, z_order
    from treegmf.partitions import _partition_tuples
    from treegmf.symfunc import PowerExpansion

    acc = PowerExpansion(0, {Partition(()): Fraction(1)})
    for k in parts:
        mus = [Partition(mu) for mu in _partition_tuples(k)]
        acc = acc * PowerExpansion(k, {mu: Fraction((-1) ** (k - len(mu)), z_order(mu)) for mu in mus})
    return acc


def recursive_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by Murnaghan-Nakayama, one recursion level per part of
    mu: remove a border strip of size mu[0] in every way, found on the
    first-column hook lengths of lam, and recurse on the rest of mu."""
    if not mu:
        return 1
    k, l = mu[0], len(lam)
    beta = [lam[i] + (l - 1 - i) for i in range(l)]
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for b2 in beta if nb < b2 < b)
        newbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        smaller = tuple(p for i, x in enumerate(newbeta) if (p := x - (l - 1 - i)) > 0)
        total += (-1) ** height * recursive_character(smaller, mu[1:])
    return total


def prufer_to_edges(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over {0..n-1} into a labeled tree edge list."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for u in range(n):
            if degree[u] == 1:
                edges.append((u, v))
                degree[u] -= 1
                degree[v] -= 1
                break
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return edges


def all_labeled_trees_via_prufer(n: int):
    """Yield the edge lists of all n^(n-2) labeled trees."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_to_edges(seq)


def tree_to_json_obj(tree) -> dict:
    """The {"n", "edges"} JSON object of a LabeledTree, 1-indexed, as
    treegmf.parse_tree reads it."""
    return {"n": tree.n, "edges": [[u + 1, v + 1] for u, v in tree.edges()]}


def tree_to_edge_text(tree) -> str:
    """The edge-list text of a LabeledTree ("n", then "u v" per edge,
    1-indexed), as treegmf.parse_tree reads it."""
    lines = [str(tree.n)] + [f"{u + 1} {v + 1}" for u, v in tree.edges()]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def rooted_tree_count(n: int) -> int:
    """Number of rooted unlabeled trees, by the divisor-sum recurrence."""
    if n <= 1:
        return n
    total = 0
    for j in range(1, n):
        s = sum(d * rooted_tree_count(d) for d in range(1, j + 1) if j % d == 0)
        total += s * rooted_tree_count(n - j)
    return total // (n - 1)


def free_tree_count(n: int) -> int:
    """Number of free unlabeled trees, by Otter's formula from rooted counts."""
    if n <= 1:
        return n
    r = rooted_tree_count
    pair_sum = sum(r(i) * r(n - i) for i in range(1, n))
    t = Fraction(r(n)) - Fraction(pair_sum, 2)
    if n % 2 == 0:
        t += Fraction(r(n // 2), 2)
    assert t.denominator == 1
    return int(t)


def path_matching_count(n: int) -> int:
    """Matchings of the n-vertex path, by the transfer recurrence."""
    a, b = 1, 1  # counts for 0 and 1 vertices
    for _ in range(n - 1):
        a, b = b, a + b
    return b


class Matching(NamedTuple):
    """Set of pairwise vertex-disjoint edges of a host tree."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        return {v for e in self.edges for v in e}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def matchings(tree) -> list[Matching]:
    """All matchings of the tree, including the empty one, sorted by size
    then edge list: each edge in turn joins every matching found before it
    that leaves both its ends free."""
    found = [(frozenset(), frozenset())]  # (edges, the vertices they cover)
    for u, v in tree.edges():
        found += [(m | {(u, v)}, ends | {u, v})
                  for m, ends in found if u not in ends and v not in ends]
    return sorted((Matching(m) for m, _ in found), key=lambda m: (m.size, m.sorted_edges()))


def enumerated_matching_profile(tree) -> tuple[tuple[int, ...], ...]:
    """The matching profile in the layout of treegmf.gmf.matching_profile
    (per matching size j, one row flat over (r, e): entry r*(n+1)+e is the
    coefficient of u^e = q^(2e) in the signed c_r, (-1)^r times that of
    x^(n-r)), summed one matching at a time: each matching of size j adds
    u^j * prod over unmatched v of (x - 1 - u (deg v - 1))."""
    n = tree.n
    acc = [[0] * (n + 1) ** 2 for _ in range(n // 2 + 1)]
    for m in matchings(tree):
        covered = m.vertices()
        poly = {(0, m.size): 1}  # (power of x, power of u) -> coefficient
        for v in range(n):
            if v in covered:
                continue
            grown: dict[tuple[int, int], int] = {}
            for (k, e), c in poly.items():
                for key, f in (((k + 1, e), 1), ((k, e), -1), ((k, e + 1), 1 - tree.degree(v))):
                    grown[key] = grown.get(key, 0) + c * f
            poly = grown
        for (k, e), c in poly.items():
            acc[m.size][(n - k) * (n + 1) + e] += (-1) ** (n - k) * c
    return tuple(map(tuple, acc))


def bareiss_det(matrix: list[list[int]]) -> int:
    """The determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so no Fraction is needed."""
    a = [list(row) for row in matrix]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            aik, row_i = a[i][k], a[i]
            a[i] = row_i[:k + 1] + [
                (row_i[j] * akk - aik * row_k[j]) // prev for j in range(k + 1, n)
            ]
        prev = akk
    return sign * a[-1][-1]


def determinant_air_sum(tree, x: int, q: int, tau: int) -> int:
    """sum_i s^i sum_r (-1)^r a[i][r](q^2) x^(n-r) with s = 1 - tau^2, the
    generating sum of a LabeledTree's a[i][r] table at one integer point, as
    one determinant: the matrix with diagonal x - 1 - q^2 (deg v - 1) and
    q * tau on each edge.  Its matching expansion weighs each matched edge
    by -(q tau)^2 = (s - 1) q^2, the a-table's matched-edge weight; no
    matching is visited and nothing is packed."""
    u = q * q
    return bareiss_det([
        [x - 1 - u * (tree.degree(v) - 1) if v == w else q * tau * (w in tree.adj[v])
         for w in range(tree.n)]
        for v in range(tree.n)
    ])


def air_sum(rows, n: int, x: int, q: int, tau: int) -> int:
    """The same generating sum read off a-table rows in the layout of
    treegmf.kernel.air_rows (row i flat over (r, e), entry r*(n+1)+e the
    coefficient of u^e = q^(2e) in a[i][r])."""
    m, u, s = n + 1, q * q, 1 - tau * tau
    return sum(
        s**i * (-1) ** r * x ** (n - r)
        * sum(c * u**e for e, c in enumerate(row[r * m:(r + 1) * m]))
        for i, row in enumerate(rows) for r in range(m)
    )


def packed_slots(values, width: int) -> int:
    """The signed-slot int of values at `width` bytes a slot, by the format's
    definition: slot k holds v_k as v_k * 2^(8 W k), with no bias."""
    return sum(v << 8 * width * k for k, v in enumerate(values))


def q_laplacian_entry(tree, i: int, j: int):
    """Entry (i, j) of I + q^2 (D - I) - q A, a treegmf QPolynomial."""
    from treegmf import QP_ZERO, QPolynomial

    if not (0 <= i < tree.n and 0 <= j < tree.n):
        raise ValueError(f"vertex out of range: ({i},{j})")
    if i == j:
        return QPolynomial([1, 0, tree.degree(i) - 1])
    if j in tree.adj[i]:
        return QPolynomial([0, -1])
    return QP_ZERO


def q_laplacian(tree) -> list:
    return [[q_laplacian_entry(tree, i, j) for j in range(tree.n)] for i in range(tree.n)]


def assembled_air_rows(tree) -> list[list[int]]:
    """The a[i][r] rows in the layout of treegmf.gmf.air_rows, the long way:
    row i is c_r of the monomial-basis polynomial at shape 2^i,1^(n-2i),
    assembled from the matching profile at that function's involution-class
    values (brick-tabloid counts), then divided by 2^i, each quotient
    asserted to be an integer."""
    from treegmf import Partition
    from treegmf.gmf import coefficients_from_profile, matching_profile

    n = tree.n
    profile = matching_profile(tree)
    rows = []
    for i in range(n // 2 + 1):
        lam = Partition.involution_shape(n, i)
        gamma_j = [
            Fraction(m_inverse_value(lam, Partition.involution_shape(n, j)))
            for j in range(n // 2 + 1)
        ]
        row = []
        for c in coefficients_from_profile(profile, n, gamma_j).signed:
            den = c.den << i
            evens = c.nums[::2]
            assert not any(c.nums[1::2]) and not any(v % den for v in evens), (tree, i, c)
            row += [v // den for v in evens] + [0] * (n + 1 - len(evens))
        rows.append(row)
    return rows


def _rooted_level_sequences(n: int):
    """All canonical level sequences of rooted trees on n vertices, generated
    by the successor rule on level sequences (root level 1)."""
    if n == 1:
        yield [1]
        return
    levels = list(range(1, n + 1))
    while True:
        yield levels[:]
        p = max((i for i in range(n) if levels[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        out = levels[:p]
        block = levels[q:p]
        while len(out) < n:
            out.extend(block[: n - len(out)])
        levels = out


def scanned_tree_from_levels(levels: list[int]):
    """The tree of a rooted level sequence, each vertex's parent found by
    scanning back for the last vertex one level up."""
    from treegmf import LabeledTree

    n = len(levels)
    edges = []
    for i in range(1, n):
        parent = max(j for j in range(i) if levels[j] == levels[i] - 1)
        edges.append((parent, i))
    return LabeledTree(n, edges)


def subtree_codes(tree, root: int) -> list[str]:
    """Rooted code of every vertex's subtree, the LabeledTree hung from root,
    built children first without recursion."""
    from treegmf.trees import rooted_order

    order, parent = rooted_order(tree.adj, root)
    codes = [""] * tree.n
    for v in reversed(order):
        p = parent[v]
        codes[v] = "(" + "".join(sorted([codes[c] for c in tree.adj[v] if c != p])) + ")"
    return codes


def centroids(tree) -> list[int]:
    """The one or two vertices of a LabeledTree minimizing the largest
    component left after their removal: those whose components have at most
    n/2 vertices each."""
    from treegmf.trees import rooted_order

    n = tree.n
    order, parent = rooted_order(tree.adj, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return [v for v in range(n)
            if 2 * max([n - size[v]] + [size[w] for w in tree.adj[v] if w != parent[v]]) <= n]


def rooted_code(tree, root: int) -> str:
    """Canonical code of the LabeledTree rooted at root, children's codes
    sorted and wrapped in parentheses (equal codes <=> rooted isomorphism),
    read off subtree_codes."""
    return subtree_codes(tree, root)[root]


def two_pass_canonical_code(tree) -> str:
    """The canonical code of a LabeledTree as the smaller rooted code over its
    centroids: one pass finds the centroids, and each gets its own rooted
    code pass."""
    return min(rooted_code(tree, c) for c in centroids(tree))


def two_pass_sketch(tree) -> str:
    """treegmf.ascii_sketch drawn on the LabeledTree itself: rooted at the
    centroid with the smaller code (the smaller index on a tie), from one
    centroids pass and one subtree_codes pass per centroid, each vertex's
    children in code order, the last drawn "`-o" and the others "|-o"."""
    codes = {c: subtree_codes(tree, c) for c in centroids(tree)}
    root = min(codes, key=lambda c: (codes[c][c], c))
    code = codes[root]
    lines: list[str] = []
    stack = [(root, -1, "o", "")]  # vertex, parent, its line, its children's prefix
    while stack:
        v, parent, line, prefix = stack.pop()
        lines.append(line)
        kids = sorted((c for c in tree.adj[v] if c != parent), key=code.__getitem__)
        for k in range(len(kids) - 1, -1, -1):
            last = k == len(kids) - 1
            stack.append((kids[k], v, prefix + ("`-o" if last else "|-o"),
                          prefix + ("  " if last else "| ")))
    return "\n".join(lines)


def scanned_free_trees(n: int) -> list:
    """treegmf.enumerate_free_trees(n) with trees built by
    scanned_tree_from_levels and coded by two_pass_canonical_code: the first
    rooted level sequence met for each class gives its representative,
    sorted by canonical code."""
    from treegmf import CanonicalTree

    found = {}
    for levels in _rooted_level_sequences(n):
        tree = scanned_tree_from_levels(levels)
        code = two_pass_canonical_code(tree)
        found.setdefault(code, CanonicalTree(code=code, n=n, representative=tree))
    return [found[c] for c in sorted(found)]


def edge_shift(tree, x: int, y: int):
    """The shift (x, y) of a LabeledTree on its edge list: each edge from y
    to a vertex off the x-y path is moved to x, and the result goes through
    the checked LabeledTree constructor.  Raises ValueError if an interior
    path vertex has degree != 2."""
    from treegmf import LabeledTree, tree_path

    path = tree_path(tree, x, y)
    for v in path[1:-1]:
        if tree.degree(v) != 2:
            raise ValueError(f"interior path vertex {v} has degree {tree.degree(v)}")
    on_path = set(path)
    edges = []
    for u, v in tree.edges():
        if u == y and v not in on_path:
            edges.append((x, v))
        elif v == y and u not in on_path:
            edges.append((x, u))
        else:
            edges.append((u, v))
    return LabeledTree(tree.n, edges)


def scanned_proper_pairs(n: int) -> list[tuple]:
    """Every (lower code, upper code, witness x, witness y, witness path) of
    the proper-shift relation on n vertices, found by testing all ordered
    vertex pairs (x, y) of each representative with shift_is_proper and
    keeping the first witness in (x, y) order, sorted by the two codes."""
    from treegmf import enumerate_free_trees, gts_shift, shift_is_proper, tree_path

    pairs = {}
    for lower in enumerate_free_trees(n):
        rep = lower.representative
        for x in range(n):
            for y in range(n):
                if x == y or not shift_is_proper(rep, x, y):
                    continue
                upper = two_pass_canonical_code(gts_shift(rep, x, y))
                if upper != lower.code:
                    pairs.setdefault((lower.code, upper), (x, y, tree_path(rep, x, y)))
    return [key + pairs[key] for key in sorted(pairs)]


def coded_proper_pairs(n: int) -> list[tuple]:
    """(lower code, upper code, witness x, witness y, witness path) of every
    proper-shift pair on n vertices, found the long way: each proper shift
    of each representative, in (x, y) order, is written out with
    `gts._shifted` and coded whole by `canonical_code`, and the first
    witness per pair is kept, sorted by the two codes."""
    from treegmf import enumerate_free_trees
    from treegmf.gts import _shifted, proper_shifts
    from treegmf.trees import canonical_code

    pairs = {}
    for lower in enumerate_free_trees(n):
        rep = lower.representative
        for x, y, path in proper_shifts(rep):
            code = canonical_code(n, _shifted(rep.adj, x, y, path[-2]))
            if code != lower.code:
                pairs.setdefault((lower.code, code), (x, y, path))
    return [key + pairs[key] for key in sorted(pairs)]


def pairs_to_json_obj(n: int, pairs) -> dict:
    """The poset json report as an object, for json.dumps(obj, indent=2)."""
    return {
        "n": n,
        "pairs": [
            {
                "lower": p.lower.code,
                "upper": p.upper.code,
                "witness": {
                    "x": p.witness_x + 1,
                    "y": p.witness_y + 1,
                    "path": [v + 1 for v in p.witness_path],
                    "tree": {
                        "n": n,
                        "edges": [[u + 1, v + 1] for u, v in p.lower.representative.edges()],
                    },
                },
            }
            for p in pairs
        ],
    }


class FractionQPolynomial:
    """Reference q-polynomial: a tuple of Fraction coefficients, lowest degree
    first, trailing zeros stripped, every operation done coefficient by
    coefficient in Fraction arithmetic.  Same interface and output strings
    as treegmf.QPolynomial, which stores integers over one denominator."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionQPolynomial) and self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionQPolynomial(out)

    def __neg__(self):
        return FractionQPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionQPolynomial(other * a for a in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FractionQPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionQPolynomial(out)

    def evaluate(self, q0) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def is_rplus_q2(self) -> bool:
        return all(c == 0 if k % 2 else c >= 0 for k, c in enumerate(self.coeffs))

    def abs_coefficients(self):
        return FractionQPolynomial(abs(c) for c in self.coeffs)

    def to_json_obj(self) -> list:
        return [{"num": str(c.numerator), "den": str(c.denominator)} for c in self.coeffs]

    def csv_cell(self) -> str:
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


def alpha(gamma, i: int):
    """Binomial transform sum_{j=0..i} C(i,j) * Gamma(j) of a PowerExpansion,
    Gamma(j) its inverse Frobenius image at cycle type 2^j,1^(n-2j)."""
    from treegmf.symfunc import alphas, involution_class_values

    n = gamma.n
    if not 0 <= i <= n // 2:
        raise ValueError(f"need 0 <= i <= {n // 2}, got {i}")
    return alphas(involution_class_values(gamma))[i]


def verify_monotone(pair, gamma, mode="signed", basis=None, lam=None):
    """One (pair, gamma) check of the sweep on QPolynomials: every signed
    coefficient of gmf_poly_matching weakly decreases from the pair's lower
    tree to its upper tree in the q^2 cone (absolute mode: their
    coefficient-wise absolute values)."""
    from treegmf import gmf_poly_matching
    from treegmf.gmf import monotone_report_from_coeffs

    n = pair.lower.n
    if gamma.n != n:
        raise ValueError(f"degree mismatch: gamma has n={gamma.n}, pair has n={n}")
    lower_poly = gmf_poly_matching(pair.lower.representative, gamma).poly
    upper_poly = gmf_poly_matching(pair.upper.representative, gamma).poly
    return monotone_report_from_coeffs(
        pair.lower.code, pair.upper.code, lower_poly.signed, upper_poly.signed, mode,
        basis=basis, lam=lam,
    )


def verify_air_monotone(pair):
    """The air check of one pair on QPolynomials: a[i][r](lower) -
    a[i][r](upper) in the non-negative q^2 cone for every table entry."""
    from treegmf import air_table
    from treegmf.gmf import air_monotone_report_from_tables

    lower = air_table(pair.lower.representative)
    upper = air_table(pair.upper.representative)
    return air_monotone_report_from_tables(
        pair.lower.code, pair.upper.code, lower.values, upper.values, pair.lower.n
    )


def _tree_tables(payload):
    """Per-tree tables from one matching profile: the signed coefficient list
    of every distinct gamma vector, and the a[i][r] table, whose row i is
    the vector at index air_slots[i] divided by 2^i."""
    from treegmf.gmf import coefficients_from_profile, matching_profile

    tree, gammas, air_slots = payload
    n = tree.n
    profile = matching_profile(tree)
    signed = [coefficients_from_profile(profile, n, gamma_j).signed for gamma_j in gammas]
    air_values = {}
    for i, slot in enumerate(air_slots):
        scale = Fraction(1, 2**i)
        for r, c in enumerate(signed[slot]):
            air_values[(i, r)] = c * scale
    return signed, air_values


def tabled_sweep(cfg, trees, pairs, collect_reports=False):
    """The monotonicity sweep of treegmf.sweep.sweep_pairs, one
    monotone_report_from_coeffs per (pair, basis, shape) and one
    air_monotone_report_from_tables per pair, on per-tree tables of
    QPolynomials.  Returns (summary, monotone_reports, air_reports, ok); the
    report lists are filled only when collect_reports is set, and failure
    lines carry no shift witness."""
    from treegmf import Partition, enumerate_partitions, involution_class_values, power_expansion
    from treegmf.gmf import air_monotone_report_from_tables, monotone_report_from_coeffs
    from treegmf.sweep import parse_shape_pattern

    n = cfg.n
    match = parse_shape_pattern(cfg.lambda_filter)
    lambdas = [lam for lam in enumerate_partitions(n) if match(lam)]
    gamma_index = {}

    def slot(basis, lam):
        gamma_j = involution_class_values(power_expansion(basis, lam))
        return gamma_index.setdefault(gamma_j, len(gamma_index))

    slots = {(basis, lam.parts): slot(basis, lam) for basis in cfg.bases for lam in lambdas}
    air_slots = [slot("m", Partition.involution_shape(n, i)) for i in range(n // 2 + 1)]
    gammas = tuple(gamma_index)
    tables = {t.code: _tree_tables((t.representative, gammas, air_slots)) for t in trees}

    monotone_reports = []
    air_reports = []
    failures = []
    monotone_total = monotone_failed = 0
    air_total = air_failed = 0
    for pair in pairs:
        lo, up = pair.lower.code, pair.upper.code
        for basis in cfg.bases:
            mode = cfg.effective_mode(basis)
            for lam in lambdas:
                k = slots[(basis, lam.parts)]
                report = monotone_report_from_coeffs(
                    lo, up, tables[lo][0][k], tables[up][0][k], mode, basis=basis, lam=lam,
                )
                monotone_total += 1
                if not report.ok:
                    monotone_failed += 1
                    bad_r = [e.r for e in report.per_r if not e.ok]
                    failures.append(
                        f"monotone lower={lo} upper={up} basis={basis} "
                        f"lambda={lam.to_exp_string()} mode={mode} r={bad_r}"
                    )
                if collect_reports:
                    monotone_reports.append(report)
        report = air_monotone_report_from_tables(lo, up, tables[lo][1], tables[up][1], n)
        air_total += 1
        if not report.ok:
            air_failed += 1
            bad = [(e.i, e.r) for e in report.entries if not e.ok]
            failures.append(f"air lower={lo} upper={up} entries={bad}")
        if collect_reports:
            air_reports.append(report)

    summary = {
        "n": n,
        "bases": list(cfg.bases),
        "lambda": cfg.lambda_filter or "*",
        "mode": cfg.mode,
        "jobs": cfg.jobs,
        "trees": len(trees),
        "pairs": len(pairs),
        "lambdas": len(lambdas),
        "monotoneChecks": monotone_total,
        "monotoneFailures": monotone_failed,
        "airChecks": air_total,
        "airFailures": air_failed,
        "failures": failures,
    }
    ok = monotone_failed == 0 and air_failed == 0
    return summary, monotone_reports, air_reports, ok


def tabled_report_text(cfg, summary, monotone_reports, air_reports) -> str:
    """The verify report written from tabled_sweep's report objects with
    json.dumps and csv.writer."""
    import csv
    import io
    import json

    if cfg.fmt == "json":
        obj = {
            "config": {
                "n": cfg.n,
                "bases": list(cfg.bases),
                "lambda": cfg.lambda_filter or "*",
                "mode": cfg.mode,
            },
            "summary": {k: v for k, v in summary.items() if k not in ("failures", "jobs")},
            "monotone": [r.to_json_obj() for r in monotone_reports],
            "air": [r.to_json_obj() for r in air_reports],
        }
        return json.dumps(obj, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "lower", "upper", "basis", "lambda", "mode", "i", "r",
                     "difference", "pass"])
    for rep in monotone_reports:
        lam_s = ",".join(map(str, rep.lam.parts)) if rep.lam else ""
        for e in rep.per_r:
            writer.writerow(["monotone", rep.lower_code, rep.upper_code, rep.basis,
                             lam_s, rep.mode, "", e.r, e.difference.csv_cell(),
                             "pass" if e.ok else "FAIL"])
    for rep in air_reports:
        for e in rep.entries:
            writer.writerow(["air", rep.lower_code, rep.upper_code, "", "", "",
                             e.i, e.r, e.difference.csv_cell(),
                             "pass" if e.ok else "FAIL"])
    return buf.getvalue()
