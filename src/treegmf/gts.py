"""The generalized tree shift and the proper-shift relation on isomorphism
classes of trees.

A shift is admissible for an ordered vertex pair (x, y) when every interior
vertex of the unique x-y path has degree exactly 2.  Applying it moves every
neighbor of y that is off the path over to x.  The shift is *proper* when
both x and y have at least one off-path neighbor; then y becomes a leaf, x
gets degree >= 3 and no other degree changes, so a proper shift adds
exactly one leaf.  The relation it generates on isomorphism classes is
acyclic, with the path as the unique source and the star as the unique sink
(Csikvari, "On a poset of trees", Combinatorica 2010).

An endpoint has exactly one neighbor on the path, so (x, y) is proper exactly
when deg x >= 2, deg y >= 2 and every interior path vertex has degree 2.
`proper_shifts` therefore finds the proper shifts of a tree by walking its
maximal degree-2 chains: from each vertex x of degree >= 2, through each
neighbor, forward while the current vertex has degree 2; every vertex of
degree >= 2 met on the way is a partner y, and the walk already holds the
x-y path.  Shifts (x, y) and (y, x) give isomorphic trees, the same path
with the off-path subtrees of both endpoints hung at opposite ends, so only
x < y is kept.  The pair generator walks the classes from most leaves to
fewest and finds each shift's upper class, among those with one leaf more,
by its rooted (Aho-Hopcroft-Ullman) code at x: the off-path subtree codes
of x and y and the bare path left behind, sorted and wrapped once.  One
rerooting pass per class gives those codes, so no shifted tree is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from typing import Iterator, NamedTuple

# ahu_canonical has no caller here: perfbench/tracer.py counts calls to it
# under this module's name and reports a missing name as an absent target.
from .trees import (  # noqa: F401
    CanonicalTree,
    LabeledTree,
    ahu_canonical,
    ascii_sketch,
    enumerate_free_trees,
    rooted_order,
)


def tree_path(tree: LabeledTree, x: int, y: int) -> tuple[int, ...]:
    """The unique path from x to y, inclusive."""
    if not (0 <= x < tree.n and 0 <= y < tree.n):
        raise ValueError(f"path endpoint out of range: ({x},{y})")
    if x == y:
        raise ValueError("path endpoints must be distinct")
    parent = rooted_order(tree.adj, y)[1]
    path = [x]
    while path[-1] != y:
        path.append(parent[path[-1]])
    return tuple(path)


def gts_shift(tree: LabeledTree, x: int, y: int) -> LabeledTree:
    """Move every off-path neighbor of y to x along the x-y path.

    Raises ValueError if an interior path vertex has degree != 2.
    """
    path = tree_path(tree, x, y)
    for v in path[1:-1]:
        if (d := tree.degree(v)) != 2:
            raise ValueError(f"interior path vertex {v} has degree {d}, shift needs 2")
    return LabeledTree._trusted(_shifted(tree.adj, x, y, path[-2]))


def _shifted(adj: tuple[tuple[int, ...], ...], x: int, y: int, stay: int) -> list[tuple[int, ...]]:
    """The adjacency `gts_shift` builds for (x, y) when the path reaches y
    from stay: y keeps only stay, and its other neighbors hang from x, in a
    shallow copy of adj where only x's, y's and the moved tuples are new."""
    moved = tuple([w for w in adj[y] if w != stay])
    out = list(adj)
    out[x] = adj[x] + moved
    out[y] = (stay,)
    for w in moved:
        a = adj[w]
        i = a.index(y)
        out[w] = a[:i] + (x,) + a[i + 1:]
    return out


def shift_is_proper(tree: LabeledTree, x: int, y: int) -> bool:
    """Admissible, and both endpoints keep at least one off-path neighbor."""
    path = tree_path(tree, x, y)
    if any(tree.degree(v) != 2 for v in path[1:-1]):
        return False
    on_path = set(path)
    x_off = any(w not in on_path for w in tree.adj[x])
    y_off = any(w not in on_path for w in tree.adj[y])
    return x_off and y_off


def proper_shifts(tree: LabeledTree) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every proper shift (x, y) with x < y, with its x-y path, sorted by
    (x, y); found by walking the maximal degree-2 chains from each vertex of
    degree >= 2."""
    adj = tree.adj
    out = []
    for x in range(tree.n):
        if len(adj[x]) < 2:
            continue
        for w in adj[x]:
            prev, path = x, [x, w]
            while True:
                v = path[-1]
                deg = len(adj[v])
                if deg >= 2 and v > x:
                    out.append((x, v, tuple(path)))
                if deg != 2:
                    break
                a, b = adj[v]
                path.append(b if a == prev else a)
                prev = v
    out.sort()
    return out


class GtsPair(NamedTuple):
    """Ordered pair of isomorphism classes related by one proper shift.

    Both are enumerated classes, with their representatives.  The witness
    is the (x, y) pair and path on the lower tree's canonical
    representative; applying the shift there yields a tree isomorphic to the
    upper class's representative.
    """

    lower: CanonicalTree
    upper: CanonicalTree
    witness_x: int
    witness_y: int
    witness_path: tuple[int, ...]

    def witness_tree(self) -> LabeledTree:
        return self.lower.representative


def _near_codes(adj: tuple[tuple[int, ...], ...]) -> tuple[list[list[str]], list[str]]:
    """near[v][k], for vertex 0 and each v of degree >= 2: the rooted code of
    the side of the edge v-adj[v][k] away from v; and the tree's rooted codes
    at its vertices of degree >= 3.  A pass up from the leaves codes the
    subtrees hung from vertex 0, and a pass down each parent's side beyond a
    child: the parent's sorted codes without the child's."""
    order, parent = rooted_order(adj, 0)
    down, up, near, rooted = ["()"] * len(adj), [""] * len(adj), [[]] * len(adj), []
    for v in reversed(order[1:]):
        if len(adj[v]) > 1:
            down[v] = "(" + "".join(sorted([down[w] for w in adj[v] if w != parent[v]])) + ")"
    for v in order:
        a, p = adj[v], parent[v]
        if len(a) > 1 or p < 0:
            near[v] = [up[v] if w == p else down[w] for w in a]
            codes = sorted(near[v])
            if len(a) > 2:
                rooted.append("(" + "".join(codes) + ")")
            for w in a:
                if w != p and len(adj[w]) > 1:
                    i = codes.index(down[w])
                    up[w] = "(" + "".join(codes[:i] + codes[i + 1:]) + ")"
    return near, rooted


def _upper_classes(n: int) -> Iterator[tuple[CanonicalTree, int, int, tuple, CanonicalTree]]:
    """(lower, x, y, path, upper) for each proper shift (x, y) of each class's
    representative, the classes from most leaves to fewest and each one's
    shifts in (x, y) order.  upper is the class whose rooted code at x is
    the shifted tree's, looked up among the classes with one leaf more than
    lower only, so a shift that lands anywhere else raises KeyError."""
    chains = ["(" * k + ")" * k for k in range(n)]
    above, index, leaves = {}, {}, n  # rooted code -> class, at leaves + 1 and leaves
    for lower in sorted(enumerate_free_trees(n), key=lambda t: -t.representative.degrees().count(1)):
        rep = lower.representative
        if (count := rep.degrees().count(1)) < leaves:
            above, index, leaves = index, {}, count
        near, rooted = _near_codes(rep.adj)
        for x, y, path in proper_shifts(rep):
            i, j = rep.adj[x].index(path[1]), rep.adj[y].index(path[-2])
            kids = near[x][:i] + near[x][i + 1:] + near[y][:j] + near[y][j + 1:]
            kids.append(chains[len(path) - 1])
            yield lower, x, y, path, above["(" + "".join(sorted(kids)) + ")"]
        index.update(dict.fromkeys(rooted, lower))


@lru_cache(maxsize=None)
def _proper_pairs_cached(n: int) -> tuple[GtsPair, ...]:
    pairs: dict[tuple[str, str], GtsPair] = {}
    for lower, x, y, path, upper in _upper_classes(n):
        if (lower.code, upper.code) not in pairs:
            pairs[lower.code, upper.code] = GtsPair(lower, upper, x, y, path)
    return tuple(pairs[k] for k in sorted(pairs))


def proper_gts_pairs(n: int) -> list[GtsPair]:
    """All ordered pairs (lower, upper) of distinct isomorphism classes such
    that some proper shift on a representative of lower yields upper.  One
    witness per pair, the first in (x, y) lexicographic order on the
    canonical representative."""
    if not 2 <= n:
        raise ValueError(f"n must be >= 2, got {n}")
    return list(_proper_pairs_cached(n))


# json.dumps(indent=2) layout of one pair of the poset report: up to its
# edge list, one edge, and what closes the pair after the edges
_JSON_PAIR = """    {
      "lower": "%s",
      "upper": "%s",
      "witness": {
        "x": %d,
        "y": %d,
        "path": [
%s
        ],
        "tree": {
          "n": %d,
          "edges": [
"""
_JSON_EDGE = "            [\n              %d,\n              %d\n            ]"
_JSON_PAIR_END = """
          ]
        }
      }
    }"""


def pairs_to_json_text(n: int, pairs: list[GtsPair]) -> Iterator[str]:
    """The poset JSON report, in pieces of 1024 pairs: the bytes
    json.dumps(obj, indent=2) + "\n" writes for {"n", "pairs": [{"lower",
    "upper", "witness": {"x", "y", "path", "tree": {"n", "edges"}}}]},
    1-based, written directly with one format per pair; a lower tree's edge
    list is formatted once for its run of pairs.  Codes hold only
    parentheses, so nothing is escaped."""
    lower, edges = None, ""
    parts = ['{\n  "n": %d,\n  "pairs": [' % n]
    sep = "\n"
    for k, p in enumerate(pairs, 1):
        if p.lower.code != lower:
            lower = p.lower.code
            edges = ",\n".join(_JSON_EDGE % (u + 1, v + 1) for u, v in p.lower.representative.edges())
        path = ",\n".join("          %d" % (v + 1) for v in p.witness_path)
        head = _JSON_PAIR % (lower, p.upper.code, p.witness_x + 1, p.witness_y + 1, path, n)
        parts += (sep, head, edges, _JSON_PAIR_END)
        sep = ",\n"
        if k % 1024 == 0:
            yield "".join(parts)
            parts = []
    parts.append("\n  ]\n}\n" if pairs else "]\n}\n")
    yield "".join(parts)


def poset_to_dot(n: int, pairs: list[GtsPair]) -> Iterator[str]:
    """DOT digraph of the proper-shift relation, in pieces of 1024 lines like
    `pairs_to_json_text`; node labels carry the canonical code and a small
    sketch."""
    nodes = (
        '  "%s" [label="%s\\l%s\\l"];\n'
        % (t.code, t.code, ascii_sketch(t.representative).replace("\n", "\\l"))
        for t in enumerate_free_trees(n)
    )
    edges = ('  "%s" -> "%s";\n' % (p.lower.code, p.upper.code) for p in pairs)
    lines = chain(nodes, edges)
    yield f"digraph shift_poset_{n} {{\n  rankdir=BT;\n  node [shape=box, fontname=monospace];\n"
    while piece := "".join(islice(lines, 1024)):
        yield piece
    yield "}\n"
