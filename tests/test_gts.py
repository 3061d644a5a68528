import pytest
from hypothesis import given, settings, strategies as st

from treegmf import (
    LabeledTree,
    ahu_canonical,
    enumerate_free_trees,
    gts_shift,
    proper_gts_pairs,
    shift_is_proper,
    tree_path,
)

import json

from treegmf.gts import _shifted, _upper_classes, pairs_to_json_text, proper_shifts
from treegmf.trees import canonical_code

from oracles import (
    coded_proper_pairs,
    edge_shift,
    pairs_to_json_obj,
    prufer_to_edges,
    scanned_proper_pairs,
    two_pass_canonical_code,
)


def test_tree_path():
    p4 = LabeledTree.path(4)
    assert tree_path(p4, 0, 3) == (0, 1, 2, 3)
    assert tree_path(p4, 3, 0) == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        tree_path(p4, 2, 2)


def test_tree_path_rejects_out_of_range_endpoint():
    p4 = LabeledTree.path(4)
    for x, y in ((0, 9), (9, 0), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            tree_path(p4, x, y)


def test_shift_p4_to_star():
    p4 = LabeledTree.path(4)
    shifted = gts_shift(p4, 1, 2)
    assert sorted(shifted.edges()) == [(0, 1), (1, 2), (1, 3)]
    assert ahu_canonical(shifted).code == ahu_canonical(LabeledTree.star(4)).code


def test_improper_shift_is_isomorphic():
    # y = leaf end: nothing moves
    p4 = LabeledTree.path(4)
    shifted = gts_shift(p4, 1, 3)
    assert ahu_canonical(shifted).code == ahu_canonical(p4).code
    # every admissible shift on a star has a leaf endpoint, so never proper
    s5 = LabeledTree.star(5)
    for x in range(5):
        for y in range(5):
            if x == y:
                continue
            path = tree_path(s5, x, y)
            if all(s5.degree(v) == 2 for v in path[1:-1]):
                assert not shift_is_proper(s5, x, y)
                out = gts_shift(s5, x, y)
                assert ahu_canonical(out).code == ahu_canonical(s5).code


def test_shift_rejects_branch_interior():
    # path 0-1-2-3 with extra leaves on 1: interior vertex of degree >= 3
    t = LabeledTree(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    with pytest.raises(ValueError):
        gts_shift(t, 0, 2)


def test_shift_preserves_treeness_and_vertex_count():
    for n in range(3, 8):
        for ct in enumerate_free_trees(n):
            tree = ct.representative
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    path = tree_path(tree, x, y)
                    if all(tree.degree(v) == 2 for v in path[1:-1]):
                        out = gts_shift(tree, x, y)  # constructor validates
                        assert out.n == n


def test_proper_pairs_n3_n4():
    assert proper_gts_pairs(3) == []
    pairs = proper_gts_pairs(4)
    assert len(pairs) == 1
    p4 = ahu_canonical(LabeledTree.path(4)).code
    s4 = ahu_canonical(LabeledTree.star(4)).code
    assert (pairs[0].lower.code, pairs[0].upper.code) == (p4, s4)


def test_proper_pairs_witness_replays():
    for n in range(4, 9):
        for pair in proper_gts_pairs(n):
            rep = pair.witness_tree()
            assert shift_is_proper(rep, pair.witness_x, pair.witness_y)
            assert tree_path(rep, pair.witness_x, pair.witness_y) == pair.witness_path
            out = gts_shift(rep, pair.witness_x, pair.witness_y)
            assert ahu_canonical(out).code == pair.upper.code
            assert pair.lower.code != pair.upper.code


def test_n5_extremes():
    p5 = ahu_canonical(LabeledTree.path(5)).code
    s5 = ahu_canonical(LabeledTree.star(5)).code
    pairs = proper_gts_pairs(5)
    assert pairs
    for pair in pairs:
        assert pair.lower.code != s5
        assert pair.upper.code != p5


def _digraph(n):
    nodes = [t.code for t in enumerate_free_trees(n)]
    edges = [(p.lower.code, p.upper.code) for p in proper_gts_pairs(n)]
    return nodes, edges


def test_proper_shift_digraph_is_acyclic():
    for n in range(2, 11):
        nodes, edges = _digraph(n)
        # Kahn topological sort must consume every node
        indeg = {v: 0 for v in nodes}
        out = {v: [] for v in nodes}
        for a, b in edges:
            indeg[b] += 1
            out[a].append(b)
        queue = [v for v in nodes if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        assert seen == len(nodes)


def test_path_unique_source_star_unique_sink():
    for n in range(4, 11):
        nodes, edges = _digraph(n)
        p_code = ahu_canonical(LabeledTree.path(n)).code
        s_code = ahu_canonical(LabeledTree.star(n)).code
        has_in = {b for _, b in edges}
        has_out = {a for a, _ in edges}
        sources = [v for v in nodes if v not in has_in]
        sinks = [v for v in nodes if v not in has_out]
        assert sources == [p_code]
        assert sinks == [s_code]


def test_reachability_path_to_star_through_everything():
    for n in range(4, 10):
        nodes, edges = _digraph(n)
        p_code = ahu_canonical(LabeledTree.path(n)).code
        s_code = ahu_canonical(LabeledTree.star(n)).code
        fwd = {v: set() for v in nodes}
        back = {v: set() for v in nodes}
        for a, b in edges:
            fwd[a].add(b)
            back[b].add(a)

        def closure(start, adj):
            seen = {start}
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return seen

        from_path = closure(p_code, fwd)
        to_star = closure(s_code, back)
        assert from_path == set(nodes)
        assert to_star == set(nodes)


def test_proper_pairs_increase_leaf_count():
    for n in range(4, 9):
        for pair in proper_gts_pairs(n):
            lower_leaves = sum(1 for d in pair.lower.representative.degrees() if d == 1)
            upper_leaves = sum(1 for d in pair.upper.representative.degrees() if d == 1)
            assert upper_leaves == lower_leaves + 1


@settings(max_examples=40)
@given(st.integers(min_value=4, max_value=8), st.randoms(use_true_random=False))
def test_random_proper_shift_lands_in_pair_set(n, rng):
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    tree = LabeledTree(n, prufer_to_edges(seq))
    lower = ahu_canonical(tree).code
    pair_set = {(p.lower.code, p.upper.code) for p in proper_gts_pairs(n)}
    for x in range(n):
        for y in range(n):
            if x != y and shift_is_proper(tree, x, y):
                upper = ahu_canonical(gts_shift(tree, x, y)).code
                if upper != lower:
                    assert (lower, upper) in pair_set


def test_proper_pairs_match_ordered_scan_oracle():
    for n in range(2, 12):
        got = [
            (p.lower.code, p.upper.code, p.witness_x, p.witness_y, p.witness_path)
            for p in proper_gts_pairs(n)
        ]
        assert got == scanned_proper_pairs(n)


def test_proper_pairs_equal_the_shift_and_code_oracle():
    for n in range(2, 14):
        got = [
            (p.lower.code, p.upper.code, p.witness_x, p.witness_y, p.witness_path)
            for p in proper_gts_pairs(n)
        ]
        assert got == coded_proper_pairs(n), n


def test_each_upper_class_lookup_equals_the_shifted_trees_code():
    for n in range(2, 12):
        looked_up = {}
        for lower, x, y, path, upper in _upper_classes(n):
            shifted = _shifted(lower.representative.adj, x, y, path[-2])
            assert upper.code == canonical_code(n, shifted), (lower.code, x, y)
            looked_up.setdefault(lower.code, []).append((x, y, path))
        for ct in enumerate_free_trees(n):
            assert looked_up.get(ct.code, []) == proper_shifts(ct.representative)


def test_every_proper_shift_adds_exactly_one_leaf():
    # the pair generator looks each upper class up among the classes with
    # one leaf more than the lower one
    def leaves(adj):
        return sum(len(a) == 1 for a in adj)

    for n in range(2, 13):
        for ct in enumerate_free_trees(n):
            adj = ct.representative.adj
            for x, y, path in proper_shifts(ct.representative):
                assert leaves(_shifted(adj, x, y, path[-2])) == leaves(adj) + 1, (ct.code, x, y)


@settings(max_examples=60)
@given(st.integers(min_value=4, max_value=14), st.randoms(use_true_random=False))
def test_chain_walk_finds_every_proper_shift_once(n, rng):
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    tree = LabeledTree(n, prufer_to_edges(seq))
    found = proper_shifts(tree)
    want = [(x, y) for x in range(n) for y in range(x + 1, n) if shift_is_proper(tree, x, y)]
    assert [(x, y) for x, y, _ in found] == want
    for x, y, path in found:
        assert path == tree_path(tree, x, y)
        forward = ahu_canonical(gts_shift(tree, x, y)).code
        assert forward == ahu_canonical(gts_shift(tree, y, x)).code


def test_shifted_trees_equal_their_checked_construction():
    # gts_shift builds its result without validation
    for n in range(3, 11):
        for ct in enumerate_free_trees(n):
            tree = ct.representative
            for x in range(n):
                for y in range(n):
                    if x != y and all(tree.degree(v) == 2 for v in tree_path(tree, x, y)[1:-1]):
                        shifted = gts_shift(tree, x, y)
                        assert LabeledTree(n, shifted.edges()) == shifted


def test_shift_equals_the_edge_list_shift():
    # the pair generator and gts_shift share one shift; this one is separate
    for n in range(3, 11):
        for ct in enumerate_free_trees(n):
            tree = ct.representative
            for x in range(n):
                for y in range(n):
                    if x != y and all(tree.degree(v) == 2 for v in tree_path(tree, x, y)[1:-1]):
                        assert gts_shift(tree, x, y) == edge_shift(tree, x, y)


def test_canonical_code_of_every_shifted_tree_equals_the_two_pass_code():
    for n in range(3, 11):
        for ct in enumerate_free_trees(n):
            tree = ct.representative
            for x in range(n):
                for y in range(n):
                    if x != y and all(tree.degree(v) == 2 for v in tree_path(tree, x, y)[1:-1]):
                        shifted = gts_shift(tree, x, y)
                        assert canonical_code(n, shifted.adj) == two_pass_canonical_code(shifted)


def test_pair_classes_are_the_enumerated_classes():
    for n in range(4, 10):
        classes = {id(t) for t in enumerate_free_trees(n)}
        for pair in proper_gts_pairs(n):
            assert id(pair.lower) in classes and id(pair.upper) in classes


def test_poset_json_text_equals_json_dumps():
    for n in range(2, 13):
        pairs = proper_gts_pairs(n)
        want = json.dumps(pairs_to_json_obj(n, pairs), indent=2) + "\n"
        assert "".join(pairs_to_json_text(n, pairs)) == want
    assert "".join(pairs_to_json_text(2, proper_gts_pairs(2))) == '{\n  "n": 2,\n  "pairs": []\n}\n'
