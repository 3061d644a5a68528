import importlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import treegmf
from treegmf import (
    CanonicalTree,
    GmfPolynomial,
    LabeledTree,
    Partition,
    PowerExpansion,
    ahu_canonical,
    gmf_poly_matching,
    power_expansion,
    proper_gts_pairs,
)


# ---------------------------------------------------------------------------
# lazy public names
# ---------------------------------------------------------------------------


def test_every_public_name_is_its_home_modules_object():
    for name in treegmf.__all__:
        home = importlib.import_module(f"treegmf.{treegmf._HOME[name]}")
        assert getattr(treegmf, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from treegmf import *", ns)
    for name in treegmf.__all__:
        assert ns[name] is getattr(treegmf, name), name


def test_dir_lists_every_public_name_before_first_use():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import treegmf; print(set(treegmf.__all__) <= set(dir(treegmf)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_unknown_attributes_raise_attribute_error():
    import treegmf.cli

    for module in (treegmf, treegmf.cli):
        with pytest.raises(AttributeError):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


def test_package_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, treegmf; print(sorted(m for m in sys.modules if m.startswith('treegmf.')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# value classes
# ---------------------------------------------------------------------------


def test_canonical_tree_equality_and_hash_ignore_the_representative():
    path = LabeledTree.path(4)
    relabeled = path.relabel([2, 0, 3, 1])
    a, b = ahu_canonical(path), ahu_canonical(relabeled)
    assert a.representative != b.representative
    assert a == b and hash(a) == hash(b)
    assert a == CanonicalTree(a.code, 4, LabeledTree.star(4))
    assert a != CanonicalTree(a.code, 5, path)
    assert a != ahu_canonical(LabeledTree.star(4))
    assert len({a, b}) == 1


def test_value_classes_survive_a_pickle_round_trip():
    tree = ahu_canonical(LabeledTree.path(5))
    pair = proper_gts_pairs(5)[0]
    lam = Partition([2, 2, 1])
    poly = gmf_poly_matching(LabeledTree.path(5), power_expansion("m", lam), basis="m", lam=lam)
    assert isinstance(poly, GmfPolynomial)
    for value in (tree, pair, poly):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value
    back = pickle.loads(pickle.dumps(tree))
    assert back.code == tree.code and back.n == tree.n
    assert back.representative == tree.representative
    back = pickle.loads(pickle.dumps(pair))
    assert back.witness_tree() == pair.witness_tree()
    assert back.witness_path == pair.witness_path
    back = pickle.loads(pickle.dumps(poly))
    assert [back.signed_coefficient(r) for r in range(6)] == list(poly.poly.signed)


def test_power_expansion_drops_zero_coordinates_and_checks_the_degree():
    lam, mu = Partition([2, 1]), Partition([1, 1, 1])
    gamma = PowerExpansion(3, {lam: 0, mu: 2})
    assert gamma.coords == {mu: Fraction(2)}
    assert isinstance(gamma.coords[mu], Fraction)
    assert gamma == PowerExpansion(3, {mu: Fraction(2)})
    assert PowerExpansion(3) == PowerExpansion.zero(3)
    assert (gamma - gamma).coords == {}
    with pytest.raises(ValueError):
        PowerExpansion(4, {lam: 1})
    with pytest.raises(ValueError):
        PowerExpansion(2, {lam: 0, mu: 1})
