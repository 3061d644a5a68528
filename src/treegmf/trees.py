"""Labeled trees, rooted side codes and the canonical forms read off them,
free-tree enumeration (one centre-rooted level sequence per tree, after
Wright, Richmond, Odlyzko and McKay), text sketches drawn from a code,
matching counts by size, and the tree file parsers.

Vertices are 0-indexed internally; every external format (edge-list text,
JSON, CLI output) uses 1..n.

The q-Laplacian of a graph is I + q^2 (D - I) - q A: diagonal entries
1 + q^2 (deg - 1), entries -q on edges, 0 elsewhere.  At q = 1 it reduces to
the combinatorial Laplacian D - A.  The library reads it off a tree's
degrees and edges and never forms the matrix; the tests' oracles do
(`oracles.q_laplacian`), as they enumerate matchings (`oracles.matchings`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence


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
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in nbrs)
        # connectivity: n-1 distinct edges + connected <=> tree
        stack, visited = [0], {0}
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        if len(visited) != n:
            raise ValueError("edge set is not connected")

    @classmethod
    def _trusted(cls, adj: Sequence[Iterable[int]]) -> "LabeledTree":
        """The tree with the neighbour lists adj (each sorted here), already
        known to form a tree on 0..len(adj)-1, such as an enumerated or
        shifted tree's: the checks of __init__ are skipped."""
        tree = object.__new__(cls)
        tree.n = len(adj)
        tree.adj = tuple(tuple(sorted(a)) for a in adj)
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
        return tuple(map(len, self.adj))

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


class CanonicalTree:
    """Isomorphism class of a tree: canonical code plus one representative.
    Equality and hash use the code and n only, never the representative."""

    __slots__ = ("code", "n", "representative")

    def __init__(self, code: str, n: int, representative: LabeledTree) -> None:
        self.code = code
        self.n = n
        self.representative = representative

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalTree):
            return NotImplemented
        return self.code == other.code and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.code, self.n))

    def __repr__(self) -> str:
        return (f"CanonicalTree(code={self.code!r}, n={self.n!r}, "
                f"representative={self.representative!r})")


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


def side_codes(adj: Sequence[Sequence[int]]) -> list[list[str]]:
    """sides[v][k], for every vertex v: the rooted code of adj[v][k]'s subtree
    in the tree hung from v; the rooted code at v is its sides sorted and
    wrapped.  A down pass codes the subtrees hung from vertex 0, and an up
    pass each parent's side beyond a child: the parent's sorted sides without
    the child's, wrapped, and shared by a run of children with equal codes."""
    order, parent = rooted_order(adj, 0)
    down, up, sides = ["()"] * len(adj), [""] * len(adj), [[]] * len(adj)
    for v in reversed(order[1:]):
        if len(adj[v]) > 1:
            p = parent[v]
            down[v] = "(" + "".join(sorted([down[w] for w in adj[v] if w != p])) + ")"
    for v in order:
        a, p = adj[v], parent[v]
        if len(a) == 1 and p >= 0:  # a leaf: one side
            sides[v] = [up[v]]
            continue
        sides[v] = [up[v] if w == p else down[w] for w in a]
        codes, last = sorted(sides[v]), None
        for w in a:
            if w != p:
                if down[w] != last:  # else the same code as the child before
                    last = down[w]
                    i = codes.index(last)
                    wrapped = "(" + "".join(codes[:i] + codes[i + 1:]) + ")"
                up[w] = wrapped
    return sides


def _centroid_code(n: int, sides: list[list[str]]) -> str:
    """The smaller rooted code over the centroids, the vertices none of
    whose sides has more than n/2 vertices (a code is 2 characters a
    vertex)."""
    return min("(" + "".join(sorted(s)) + ")" for s in sides if max(map(len, s), default=0) <= n)


def canonical_code(n: int, adj: Sequence[Sequence[int]]) -> str:
    """Canonical code of the unlabeled tree with adjacency lists adj on
    0..n-1 (in any order): the smaller rooted code over its one or two
    centroids, read off one `side_codes` pass."""
    return _centroid_code(n, side_codes(adj))


def ahu_canonical(tree: LabeledTree) -> CanonicalTree:
    """The tree's isomorphism class: its `canonical_code` and the tree."""
    return CanonicalTree(code=canonical_code(tree.n, tree.adj), n=tree.n, representative=tree)


def _free_level_sequences(n: int) -> Iterator[list[int]]:
    """One canonical level sequence (root level 0) per free tree on n vertices,
    hung from a centre: rooted trees in Beyer-Hedetniemi order, jumping past
    those whose first root subtree beats the rest by (height, size, levels)."""
    if n < 3:
        yield list(range(n))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = (levels + [1]).index(1, 2)  # the root's second child, or n
        left, rest = [v - 1 for v in levels[1:m]], [0] + levels[m:]
        jump = (max(left), len(left), left) > (max(rest), len(rest), rest)
        if not jump:
            yield levels
        p = m - 1 if jump else max(i for i, v in enumerate(levels) if v != 1)
        if not p:
            return
        # the successor at p: from p on, repeat the block from p's parent q
        q = p - 1 - levels[p - 1::-1].index(levels[p] - 1)
        out = (levels[:q] + levels[q:p] * n)[:n]
        if jump and levels[p] > 2:  # raise the rest to the first subtree's height
            h = max(out[1:(out + [1]).index(1, 2)]) - 1
            out[n - h - 1:] = range(1, h + 2)
        levels = out


def _level_adjacency(levels: list[int]) -> list[list[int]]:
    """Adjacency lists of the tree of a level sequence: each vertex's parent
    is the last vertex before it one level up, read from the last index seen
    per level.  Each list is sorted, so a vertex's parent comes first."""
    n = len(levels)
    adj: list[list[int]] = [[] for _ in range(n)]
    last = [0] * (n + 1)
    for i in range(1, n):
        p = last[levels[i] - 1]
        adj[p].append(i)
        adj[i].append(p)
        last[levels[i]] = i
    return adj


def _code_levels(code: str) -> list[int]:
    """The level sequence (root 1) of a rooted code: each "(" is a vertex."""
    depth = accumulate(1 if c == "(" else -1 for c in code)
    return [d for d, c in zip(depth, code) if c == "("]


def _code_sketch(code: str) -> str:
    """The drawing of a rooted code: a line per vertex in code order, "`-o"
    for a last child and "|-o" for another.  A vertex is the last child when
    no later vertex at its level comes before a shallower one; levels rise
    by one at most, so the backward pass clears only the level below."""
    levels = _code_levels(code)
    last, seen = [False] * len(levels), [False] * (len(levels) + 2)
    for i in range(len(levels) - 1, 0, -1):
        d = levels[i]
        last[i], seen[d], seen[d + 1] = not seen[d], True, False
    lines, prefix = ["o"], [""] * (len(levels) + 1)
    for d, end in zip(levels[1:], last[1:]):
        lines.append(prefix[d - 1] + ("`-o" if end else "|-o"))
        prefix[d] = prefix[d - 1] + ("  " if end else "| ")
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _free_trees_cached(n: int) -> tuple[CanonicalTree, ...]:
    """One `side_codes` pass per centre-hung tree gives its class code and
    its representative, the rooting with the smallest code.  A rooted code
    opens with eccentricity + 1 "(", so that root is a diameter end, a leaf,
    whose code is its one side wrapped; the smallest, read back as levels
    (root 1), is the representative's level sequence."""
    found = []
    for levels in _free_level_sequences(n):
        sides = side_codes(_level_adjacency(levels))
        best = "(" + min((s[0] for s in sides if len(s) == 1), default="") + ")"
        adj = _level_adjacency(_code_levels(best))
        found.append(CanonicalTree(_centroid_code(n, sides), n, LabeledTree._trusted(adj)))
    return tuple(sorted(found, key=lambda t: t.code))


def enumerate_free_trees(n: int) -> list[CanonicalTree]:
    """Every isomorphism class of trees on n vertices exactly once, in
    canonical-code order: one per `_free_level_sequences` tree, coded and
    represented from one `side_codes` pass."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return list(_free_trees_cached(n))


def matching_counts(tree: LabeledTree) -> dict[int, int]:
    """Number of matchings per size, the empty matching included, without
    visiting them (the tests' `oracles.matchings` enumerates them): the
    matching DP's pass (`kernel._fold`) with every diagonal 1 and
    matched-edge weight y, packed with slot k holding the matchings of size
    k.  A slot fits 2^(n-1), the number of sets of edges."""
    from .kernel import SlotPacking, _fold

    slots = SlotPacking(tree.n // 2 + 1, 1 << tree.n - 1)
    packed = _fold(tree, lambda v, g: g, lambda h: h << 8 * slots.width)
    return dict(enumerate(slots.rows(packed, slots.count)[0]))


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
        import json

        return tree_from_json_obj(json.loads(text))
    return tree_from_edge_text(text)


def ascii_sketch(tree: LabeledTree) -> str:
    """Text drawing of the unlabeled tree: its canonical code's `_code_sketch`."""
    return _code_sketch(canonical_code(tree.n, tree.adj))
