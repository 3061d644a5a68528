import pytest
from hypothesis import given, settings, strategies as st

from treegmf import (
    LabeledTree,
    ahu_canonical,
    ascii_sketch,
    centroids,
    enumerate_free_trees,
    matchings,
    parse_tree,
    q_laplacian,
    q_laplacian_entry,
    rooted_code,
    tree_to_edge_text,
    tree_to_json_obj,
)
from treegmf.qpoly import QPolynomial
from treegmf.trees import (
    _rooted_level_sequences,
    canonical_code,
    tree_from_edge_text,
    tree_from_json_obj,
)

from oracles import (
    all_labeled_trees_via_prufer,
    free_tree_count,
    path_matching_count,
    prufer_to_edges,
    scanned_free_trees,
    scanned_tree_from_levels,
    two_pass_canonical_code,
)


def test_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree(3, [(0, 1)])  # too few edges
    with pytest.raises(ValueError):
        LabeledTree(3, [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ValueError):
        LabeledTree(3, [(0, 0), (1, 2)])  # loop
    with pytest.raises(ValueError):
        LabeledTree(4, [(0, 1), (2, 3), (0, 1)])  # disconnected w/ dup
    t = LabeledTree.path(4)
    assert t.edges() == [(0, 1), (1, 2), (2, 3)]
    assert t.degrees() == (1, 2, 2, 1)


def test_ahu_relabel_invariance_examples():
    p3a = LabeledTree(3, [(0, 1), (1, 2)])
    p3b = LabeledTree(3, [(1, 0), (0, 2)])  # relabeled 1-0-2 path
    assert ahu_canonical(p3a).code == ahu_canonical(p3b).code
    p4 = LabeledTree.path(4)
    s4 = LabeledTree.star(4)
    assert ahu_canonical(p4).code != ahu_canonical(s4).code
    single = LabeledTree(1, [])
    assert ahu_canonical(single).code == "()"


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
def test_ahu_invariant_under_random_relabeling(n, rng):
    seq = tuple(rng.randrange(n) for _ in range(max(0, n - 2)))
    t = LabeledTree(n, prufer_to_edges(seq)) if n > 2 else LabeledTree.path(n)
    perm = list(range(n))
    rng.shuffle(perm)
    assert ahu_canonical(t).code == ahu_canonical(t.relabel(perm)).code


def test_centroids():
    assert centroids(LabeledTree.path(4)) == [1, 2]
    assert centroids(LabeledTree.path(5)) == [2]
    assert centroids(LabeledTree.star(7)) == [0]
    assert centroids(LabeledTree(1, [])) == [0]


def test_rooted_level_sequence_counts():
    # rooted unlabeled trees: 1, 1, 2, 4, 9, 20, 48, 115, 286, 719
    expected = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    for n, count in enumerate(expected, start=1):
        assert sum(1 for _ in _rooted_level_sequences(n)) == count


def test_free_tree_counts_frozen_and_vs_recurrence_oracle():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for n, count in enumerate(expected, start=1):
        assert len(enumerate_free_trees(n)) == count
        assert free_tree_count(n) == count


def test_free_trees_vs_prufer_dedup_oracle():
    for n in range(1, 8):
        oracle_codes = {
            ahu_canonical(LabeledTree(n, edges)).code
            for edges in all_labeled_trees_via_prufer(n)
        }
        codes = {t.code for t in enumerate_free_trees(n)}
        assert codes == oracle_codes


def test_free_trees_deterministic_and_distinct():
    ts = enumerate_free_trees(8)
    codes = [t.code for t in ts]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    for t in ts:
        assert ahu_canonical(t.representative).code == t.code


def test_free_tree_representatives_match_scanned_levels_oracle():
    # the representative labelling is printed in every poset and verify report
    for n in range(1, 13):
        got = enumerate_free_trees(n)
        want = scanned_free_trees(n)
        assert [t.code for t in got] == [t.code for t in want]
        assert [t.representative for t in got] == [t.representative for t in want]


def test_matchings_examples():
    p3 = LabeledTree.path(3)
    assert [m.sorted_edges() for m in matchings(p3)] == [[], [(0, 1)], [(1, 2)]]
    for n in range(2, 9):
        star = LabeledTree.star(n)
        ms = matchings(star)
        assert len(ms) == 1 + (n - 1)
        assert max(m.size for m in ms) == 1
    single = LabeledTree(1, [])
    assert [m.sorted_edges() for m in matchings(single)] == [[]]


def test_matchings_are_valid_and_distinct():
    t = LabeledTree(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
    seen = set()
    edge_set = set(t.edges())
    for m in matchings(t):
        key = tuple(m.sorted_edges())
        assert key not in seen
        seen.add(key)
        verts = [v for e in m.sorted_edges() for v in e]
        assert len(verts) == len(set(verts))
        assert all(e in edge_set for e in m.sorted_edges())


def test_path_matchings_are_fibonacci():
    from treegmf import matching_counts

    for n in range(1, 13):
        counts = matching_counts(LabeledTree.path(n))
        assert len(matchings(LabeledTree.path(n))) == path_matching_count(n)
        assert sum(counts.values()) == path_matching_count(n)
        assert counts[0] == 1
        if n >= 2:
            assert counts[1] == n - 1  # one matching per edge


def test_matching_counts_equal_the_enumeration_on_every_tree_up_to_10():
    from treegmf import matching_counts

    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            expected = {}
            for m in matchings(t.representative):
                expected[m.size] = expected.get(m.size, 0) + 1
            assert matching_counts(t.representative) == expected, t.code


def test_matching_counts_of_a_1500_vertex_path_are_binomials():
    # the path has C(n-k, k) matchings of size k; a count that recursed once
    # per vertex or edge would end in a RecursionError here
    from math import comb

    from treegmf import matching_counts

    n = 1500
    assert matching_counts(LabeledTree.path(n)) == {k: comb(n - k, k) for k in range(n // 2 + 1)}


def test_q_laplacian_entries():
    p2 = LabeledTree.path(2)
    assert q_laplacian_entry(p2, 0, 0) == QPolynomial([1])
    assert q_laplacian_entry(p2, 0, 1) == QPolynomial([0, -1])
    s4 = LabeledTree.star(4)
    assert q_laplacian_entry(s4, 0, 0) == QPolynomial([1, 0, 2])
    assert q_laplacian_entry(s4, 1, 2) == QPolynomial()
    with pytest.raises(ValueError):
        q_laplacian_entry(p2, 0, 5)


def test_q_laplacian_at_one_is_combinatorial_laplacian():
    for n in range(1, 8):
        for t in enumerate_free_trees(n):
            tree = t.representative
            mat = q_laplacian(tree)
            for i in range(n):
                row_sum = sum(mat[i][j].evaluate(1) for j in range(n))
                assert row_sum == 0
                for j in range(n):
                    v = mat[i][j].evaluate(1)
                    if i == j:
                        assert v == tree.degree(i)
                    elif j in tree.adj[i]:
                        assert v == -1
                    else:
                        assert v == 0


def test_tree_io_roundtrip():
    t = LabeledTree(4, [(0, 1), (1, 2), (1, 3)])
    text = tree_to_edge_text(t)
    assert text.splitlines()[0] == "4"
    assert tree_from_edge_text(text) == t
    import json

    obj = tree_to_json_obj(t)
    assert parse_tree(json.dumps(obj)) == t
    assert parse_tree(text) == t


def test_ascii_sketch_shape():
    sketch = ascii_sketch(LabeledTree.star(4))
    assert sketch.splitlines()[0] == "o"
    assert sketch.count("o") == 4


def recursive_rooted_code(tree, root):
    """The rooted code written as the recursion its definition states."""

    def code(v, parent):
        return "(" + "".join(sorted(code(c, v) for c in tree.adj[v] if c != parent)) + ")"

    return code(root, -1)


def test_rooted_code_matches_its_recursive_definition():
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            for root in range(n):
                assert rooted_code(t.representative, root) == recursive_rooted_code(
                    t.representative, root
                )


def test_canonical_code_of_a_long_path():
    tree = LabeledTree.path(3000)
    code = ahu_canonical(tree).code
    # rooted at a middle vertex: the two halves, longer first
    assert code == "(" + "(" * 1500 + ")" * 1500 + "(" * 1499 + ")" * 1499 + ")"
    assert canonical_code(tree.n, tree.adj) == code


def test_canonical_code_of_a_large_star():
    # the widest tree on 3000 vertices, beside the deepest one above:
    # 2999 equal child codes under one root
    tree = LabeledTree.star(3000)
    assert ahu_canonical(tree).code == "(" + "()" * 2999 + ")"
    assert canonical_code(tree.n, tree.adj) == "(" + "()" * 2999 + ")"


def test_enumerated_trees_equal_their_checked_construction():
    # enumerated representatives are built without validation
    for n in range(1, 11):
        for ct in enumerate_free_trees(n):
            rep = ct.representative
            assert LabeledTree(n, rep.edges()) == rep


@pytest.mark.parametrize("text", [
    "3\n1 2\n1 2\n",  # duplicate edge
    "4\n1 2\n2 3\n3 1\n",  # cycle, vertex 4 unreached
    "3\n1 2\n2 4\n",  # endpoint out of range
    "3\n1 1\n2 3\n",  # self-loop
    '{"n": 3, "edges": [[1, 2]]}',  # too few edges
])
def test_malformed_parsed_trees_are_rejected(text):
    with pytest.raises(ValueError):
        parse_tree(text)


def test_relabel_validates_the_permutation():
    with pytest.raises(ValueError):
        LabeledTree.path(3).relabel([0, 0, 1])


def test_canonical_code_equals_the_two_pass_code_on_every_free_tree():
    # every rooted level sequence: each free tree on n <= 12 vertices, most
    # of them in several labellings
    for n in range(1, 13):
        for levels in _rooted_level_sequences(n):
            tree = scanned_tree_from_levels(levels)
            assert canonical_code(n, tree.adj) == two_pass_canonical_code(tree)


def _random_tree(k, rng, offset=0):
    if k == 1:
        return []
    if k == 2:
        return [(offset, offset + 1)]
    seq = tuple(rng.randrange(k) for _ in range(k - 2))
    return [(u + offset, v + offset) for u, v in prufer_to_edges(seq)]


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=40), st.booleans(), st.randoms(use_true_random=False))
def test_canonical_code_equals_the_two_pass_code_on_random_trees(n, bicentral, rng):
    if bicentral:
        # two halves of k vertices joined by one edge: centroids at both ends
        k = (n + 1) // 2
        edges = _random_tree(k, rng) + _random_tree(k, rng, k)
        edges.append((rng.randrange(k), k + rng.randrange(k)))
        n = 2 * k
    else:
        edges = _random_tree(n, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    tree = LabeledTree(n, [(perm[u], perm[v]) for u, v in edges])
    if bicentral:
        assert len(centroids(tree)) == 2
    adj = [list(a) for a in tree.adj]
    for nbrs in adj:
        rng.shuffle(nbrs)  # any neighbor order
    assert canonical_code(n, adj) == two_pass_canonical_code(tree)
    assert ahu_canonical(tree).code == canonical_code(n, adj)


@pytest.mark.parametrize("obj", [
    {"edges": [[1, 2]]},  # no n
    {"n": 2},  # no edges
    {"n": 2, "edges": 5},  # edges not a list
    {"n": 2, "edges": [5]},  # an edge not a pair
    {"n": 2, "edges": [[1, 2, 3]]},
    {"n": None, "edges": [[1, 2]]},  # not integers
    {"n": 2, "edges": [[1, [2]]]},
    {"n": 2.9, "edges": [[1, 2.7]]},  # floats are not truncated
    {"n": 2.0, "edges": [[1, 2]]},
    {"n": 2, "edges": [[1, 2.0]]},
    {"n": 2, "edges": [[True, 2]]},  # nor booleans read as 1
    {"n": True, "edges": []},
])
def test_malformed_json_tree_objects_raise_value_error(obj):
    with pytest.raises(ValueError):
        tree_from_json_obj(obj)
