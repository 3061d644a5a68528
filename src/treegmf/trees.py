"""Labeled trees, canonical forms for unlabeled trees, exhaustive free-tree
enumeration, matchings, and q-Laplacian entries.

Vertices are 0-indexed internally; every external format (edge-list text,
JSON, CLI output) uses 1..n.

The q-Laplacian of a graph is I + q^2 (D - I) - q A: diagonal entries
1 + q^2 (deg - 1), entries -q on edges, 0 elsewhere.  At q = 1 it reduces to
the combinatorial Laplacian D - A.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .qpoly import QPolynomial, QP_ZERO


class LabeledTree:
    """Tree on vertex set {0..n-1}, validated at construction."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        edges = [tuple(sorted(e)) for e in edges]
        if n < 1:
            raise ValueError("need at least one vertex")
        if len(edges) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        self._link(n, edges)
        # connectivity: n-1 distinct edges + connected <=> tree
        stack, visited = [0], {0}
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        if len(visited) != n:
            raise ValueError("edge set is not connected")

    def _link(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        """Set n and the sorted adjacency lists of the edges."""
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in nbrs)

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabeledTree":
        """The tree on edges already known to form a tree on 0..n-1, such as
        edges built from a valid tree: the checks of __init__ are skipped."""
        tree = object.__new__(cls)
        tree._link(n, edges)
        return tree

    @classmethod
    def path(cls, n: int) -> "LabeledTree":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int) -> "LabeledTree":
        return cls(n, [(0, i) for i in range(1, n)])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def relabel(self, perm: list[int]) -> "LabeledTree":
        """Relabel vertices: vertex v becomes perm[v]."""
        return LabeledTree(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"LabeledTree(n={self.n}, edges={self.edges()!r})"


@dataclass(frozen=True)
class CanonicalTree:
    """Isomorphism class of a tree: canonical code plus one representative."""

    code: str
    n: int
    representative: LabeledTree = field(compare=False)


def rooted_order(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of the tree with adjacency lists adj hung from
    root (every vertex after its parent) and the parent of each vertex (-1
    for the root)."""
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        p = parent[v]
        for w in adj[v]:
            if w != p:
                parent[w] = v
                order.append(w)
    return order, parent


def _subtree_codes(tree: LabeledTree, root: int) -> list[str]:
    """Rooted code of every vertex's subtree, the tree hung from root,
    built children first without recursion."""
    order, parent = rooted_order(tree.adj, root)
    codes = [""] * tree.n
    for v in reversed(order):
        p = parent[v]
        codes[v] = "(" + "".join(sorted([codes[c] for c in tree.adj[v] if c != p])) + ")"
    return codes


def rooted_code(tree: LabeledTree, root: int) -> str:
    """Canonical code of the tree rooted at root: children codes sorted and
    wrapped in parentheses.  Equal codes <=> rooted isomorphism."""
    return _subtree_codes(tree, root)[root]


def centroids(tree: LabeledTree) -> list[int]:
    """The one or two vertices minimizing the largest component left after
    their removal."""
    n = tree.n
    if n == 1:
        return [0]
    order, parent = rooted_order(tree.adj, 0)
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best = n + 1
    out: list[int] = []
    for v in range(n):
        heaviest = n - size[v]
        for w in tree.adj[v]:
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if heaviest < best:
            best = heaviest
            out = [v]
        elif heaviest == best:
            out.append(v)
    return sorted(out)


def canonical_code(n: int, adj: Sequence[Sequence[int]]) -> str:
    """Canonical code of the unlabeled tree with adjacency lists adj on
    0..n-1 (in any order): the smaller rooted code over its one or two
    centroids, as `ahu_canonical` returns it.

    One breadth-first pass from vertex 0 gives the subtree sizes; the walk
    down the heavy children (those with more than n/2 vertices) ends at a
    centroid c, and a second centroid c2 is the neighbor whose side has
    exactly n/2 vertices.  One code pass rooted at c gives c's code and
    every subtree code; c2's code is its children's codes plus c's side
    without c2, the code of c's other children wrapped once more."""
    order, parent = rooted_order(adj, 0)
    size = [1] * n
    for v in reversed(order):
        if v:
            size[parent[v]] += size[v]
    c, c2 = 0, -1
    moved = True
    while moved:
        moved = False
        for w in adj[c]:
            if w != parent[c] and 2 * size[w] >= n:
                if 2 * size[w] == n:
                    c2 = w
                else:
                    c, moved = w, True
                break
    # the code pass, hung from c
    order, parent = rooted_order(adj, c)
    codes = ["()"] * n  # every leaf's
    for v in reversed(order):
        nbrs = adj[v]
        if len(nbrs) > 1 or v == c:
            p = parent[v]
            codes[v] = "(" + "".join(sorted([codes[w] for w in nbrs if w != p])) + ")"
    if c2 < 0:
        return codes[c]
    side = "(" + "".join(sorted([codes[w] for w in adj[c] if w != c2])) + ")"
    kids = [codes[w] for w in adj[c2] if w != c]
    kids.append(side)
    return min(codes[c], "(" + "".join(sorted(kids)) + ")")


def ahu_canonical(tree: LabeledTree) -> CanonicalTree:
    """Canonical form of the underlying unlabeled tree: the lexicographically
    smallest rooted code over the (at most two) centroids."""
    return CanonicalTree(code=canonical_code(tree.n, tree.adj), n=tree.n, representative=tree)


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
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


def _level_adjacency(levels: list[int]) -> list[list[int]]:
    """Adjacency lists of the tree of a level sequence: each vertex's parent
    is the last vertex before it one level up, read from the last index seen
    per level."""
    n = len(levels)
    adj: list[list[int]] = [[] for _ in range(n)]
    last = [0] * (n + 1)
    for i in range(1, n):
        level = levels[i]
        p = last[level - 1]
        adj[p].append(i)
        adj[i].append(p)
        last[level] = i
    return adj


@lru_cache(maxsize=None)
def _free_trees_cached(n: int) -> tuple[CanonicalTree, ...]:
    found: dict[str, CanonicalTree] = {}
    for levels in _rooted_level_sequences(n):
        adj = _level_adjacency(levels)
        code = canonical_code(n, adj)
        if code not in found:
            edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
            found[code] = CanonicalTree(code, n, LabeledTree._trusted(n, edges))
    return tuple(found[c] for c in sorted(found))


def enumerate_free_trees(n: int) -> list[CanonicalTree]:
    """Every isomorphism class of trees on n vertices exactly once, in
    canonical-code order.  Exhausts all rooted level sequences and dedupes by
    centroid canonical code."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return list(_free_trees_cached(n))


@dataclass(frozen=True)
class Matching:
    """Set of pairwise vertex-disjoint edges of a host tree."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        return {v for e in self.edges for v in e}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def matchings(tree: LabeledTree) -> list[Matching]:
    """All matchings of the tree, including the empty one, sorted by size
    then edge list."""
    edges = tree.edges()
    out: list[Matching] = []
    used: set[int] = set()
    chosen: list[tuple[int, int]] = []

    def rec(idx: int) -> None:
        if idx == len(edges):
            out.append(Matching(frozenset(chosen)))
            return
        rec(idx + 1)
        u, v = edges[idx]
        if u not in used and v not in used:
            used.update((u, v))
            chosen.append((u, v))
            rec(idx + 1)
            chosen.pop()
            used.difference_update((u, v))

    rec(0)
    out.sort(key=lambda m: (m.size, m.sorted_edges()))
    return out


def matching_counts(tree: LabeledTree) -> dict[int, int]:
    """Number of matchings per size, the empty matching included, without
    visiting them (`matchings` is the enumerating oracle).  Bottom-up over
    the tree hung from vertex 0, each vertex keeps the generating polynomials
    (coefficient k: matchings of size k) of its subtree's matchings with the
    vertex free and with it matched to a child."""
    order, parent = rooted_order(tree.adj, 0)
    edge = QPolynomial.from_ints([0, 1])
    free = [QPolynomial.from_ints([1])] * tree.n
    matched = [QP_ZERO] * tree.n
    for v in reversed(order[1:]):
        p = parent[v]
        below = free[v] + matched[v]
        # the edge p-v joins a matching with p free and one with v free
        matched[p] = matched[p] * below + edge * free[p] * free[v]
        free[p] = free[p] * below
    return dict(enumerate((free[0] + matched[0]).nums))


def q_laplacian_entry(tree: LabeledTree, i: int, j: int) -> QPolynomial:
    """Entry (i, j) of I + q^2 (D - I) - q A."""
    if not (0 <= i < tree.n and 0 <= j < tree.n):
        raise ValueError(f"vertex out of range: ({i},{j})")
    if i == j:
        return QPolynomial([1, 0, tree.degree(i) - 1])
    if j in tree.adj[i]:
        return QPolynomial([0, -1])
    return QP_ZERO


def q_laplacian(tree: LabeledTree) -> list[list[QPolynomial]]:
    return [[q_laplacian_entry(tree, i, j) for j in range(tree.n)] for i in range(tree.n)]


# ---------------------------------------------------------------------------
# external formats (1-indexed)
# ---------------------------------------------------------------------------


def tree_from_edge_text(text: str) -> LabeledTree:
    """Parse "n" on the first line then n-1 lines "u v" (1-indexed)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty tree description")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u) - 1, int(v) - 1))
    return LabeledTree(n, edges)


def tree_from_json_obj(obj: dict) -> LabeledTree:
    """The tree of {"n": N, "edges": [[u, v], ...]} (1-indexed).  A missing
    key, edges that are not a list, an edge that is not a pair, or an n or a
    vertex that is not a JSON integer (a float, a boolean, a string) raises
    ValueError."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('a JSON tree needs the keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not isinstance(edges, list):
        raise ValueError(f'JSON tree "edges" must be a list of [u, v] pairs, got {edges!r}')
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"JSON tree edge {e!r} is not a pair [u, v]")
    if any(type(v) is not int for v in [n, *(v for e in edges for v in e)]):
        raise ValueError(f"JSON tree vertices and n must be integers: {obj!r}")
    return LabeledTree(n, [(u - 1, v - 1) for u, v in edges])


def parse_tree(text: str) -> LabeledTree:
    """Accept either the edge-list text format or {"n", "edges"} JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return tree_from_json_obj(json.loads(text))
    return tree_from_edge_text(text)


def tree_to_json_obj(tree: LabeledTree) -> dict:
    return {"n": tree.n, "edges": [[u + 1, v + 1] for u, v in tree.edges()]}


def tree_to_edge_text(tree: LabeledTree) -> str:
    lines = [str(tree.n)] + [f"{u + 1} {v + 1}" for u, v in tree.edges()]
    return "\n".join(lines) + "\n"


def ascii_sketch(tree: LabeledTree) -> str:
    """Small text drawing of the unlabeled tree, rooted at a centroid."""
    codes = {c: _subtree_codes(tree, c) for c in centroids(tree)}
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
