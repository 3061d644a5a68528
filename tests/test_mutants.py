"""Mutation tests for the slot codec, its absolute value and its repack, the
matching DP's fold, the sweep's slot width, the implied-plan and zero-vector
tests and the report writer.  Each mutant is a
text edit to the source of treegmf.kernel or treegmf.sweep, executed as a
module under a temporary name, so nothing is written under src/.  Its
oracle must accept the package's module and reject the mutant; a mutant
whose text no longer occurs in the source fails too, so a rewrite of the
code has to carry its mutants along."""

import importlib
import importlib.util
import io
from math import comb
from unittest import mock

import pytest

from treegmf import LabeledTree, enumerate_free_trees, kernel, proper_gts_pairs, sweep
from treegmf.gts import GtsPair

from oracles import (air_sum, assembled_air_rows, determinant_air_sum, packed_slots,
                     tabled_sweep)


def load_mutant(module: str, old: str, new: str):
    """treegmf.<module> with its one occurrence of old replaced by new."""
    origin = importlib.util.find_spec(f"treegmf.{module}").origin
    with open(origin, encoding="utf-8") as fh:
        source = fh.read()
    assert source.count(old) == 1, (module, old)
    # a name inside the package, so that the source's relative imports
    # resolve; it is not put in sys.modules
    spec = importlib.util.spec_from_loader(f"treegmf._mutant_{module}", loader=None)
    mutant = importlib.util.module_from_spec(spec)
    exec(compile(source.replace(old, new), origin, "exec"), mutant.__dict__)
    return mutant


def reversed_pairs(n: int) -> list[GtsPair]:
    """Every proper pair at n with lower and upper swapped, so that the air
    check and many monotone checks fail."""
    return [GtsPair(lower=p.upper, upper=p.lower, witness_x=p.witness_x,
                    witness_y=p.witness_y, witness_path=p.witness_path)
            for p in proper_gts_pairs(n)]


def slot_codec_holds(kernel_module) -> bool:
    """The slot codec against its definition, packed = sum v_k 2^(8Wk):
    values and nonnegative at every width, and repack to every width up to
    9 bytes, a negative value in the last slot.  A codec that raises on such
    an int fails too."""
    widths = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    for width in widths:
        half = 1 << (8 * width - 1)
        values = [half - 1, 0, -half, 1, -1]
        for castable in (False, True):
            slots = kernel_module.SlotPacking(len(values), half - 1, castable)
            packed = packed_slots(values, slots.width)
            try:
                if list(slots.values(packed)) != values or slots.nonnegative(packed):
                    return False
                for wide in widths[slots.width - 1:]:
                    to = kernel_module.SlotPacking(len(values), (1 << (8 * wide - 1)) - 1)
                    if slots.repack(packed, to) != [packed_slots(values, wide)]:
                        return False
            except OverflowError:
                return False
    return True


def absolute_holds(kernel_module) -> bool:
    """SlotPacking.absolute against its definition, the packed int of every
    |v|, at every width with values up to 2^(8W-1) - 1 of either sign."""
    for width in (1, 2, 3, 4, 5, 6, 7, 8, 9):
        top = (1 << (8 * width - 1)) - 1
        values = [top, -1, 0, -top, 1, 5, -5]
        for castable in (False, True):
            slots = kernel_module.SlotPacking(len(values), top, castable)
            expected = sum(abs(v) << (8 * slots.width * k) for k, v in enumerate(values))
            if slots.absolute(packed_slots(values, slots.width)) != expected:
                return False
    return True


def absolute_sweep_equals_the_per_check_oracle(kernel_module) -> bool:
    """Every basis in absolute mode on the reversed pairs at n=6, the sweep
    packing its slots with kernel_module's SlotPacking, against the
    per-check oracle: the |c_r| rows are made by SlotPacking.absolute."""
    n = 6
    pairs = reversed_pairs(n)
    cfg = sweep.SweepConfig(n=n, mode="absolute")
    trees = enumerate_free_trees(n)
    with mock.patch.object(sweep, "SlotPacking", kernel_module.SlotPacking):
        result = sweep.sweep_pairs(cfg, trees, pairs)
    summary, _, _, _ = tabled_sweep(cfg, trees, pairs)
    return [f[:f.rindex(" x=")] for f in result.summary["failures"]] == summary["failures"]


def rows_equal_the_determinant(kernel_module) -> bool:
    """kernel.air_rows against the tau-scaled determinant at three points, on
    trees whose matching DP packs 3-byte slots (n=10, 11) and 6-byte slots
    (the 24-vertex path)."""
    trees = [t.representative for t in enumerate_free_trees(10)[::10]]
    trees += [LabeledTree.path(11), LabeledTree.path(24)]
    return all(
        air_sum(kernel_module.air_rows(t), t.n, x, q, tau) == determinant_air_sum(t, x, q, tau)
        for t in trees for x, q, tau in ((3, 2, 5), (-7, -3, 2), (5, 4, 3))
    )


def sweep_rows_equal_air_rows(kernel_module) -> bool:
    """The a[i] rows of every tree at n = 6 and 9, as the sweep repacks each
    matching DP root with kernel_module's SlotPacking, against the package's
    air_rows packed by the format's definition at the sweep's width."""
    for n in (6, 9):
        trees = enumerate_free_trees(n)
        with mock.patch.object(sweep, "SlotPacking", kernel_module.SlotPacking):
            result = sweep.sweep_pairs(sweep.SweepConfig(n=n), trees, [])
        width = result.slots.width
        for t in trees:
            expected = [packed_slots(row, width) for row in kernel.air_rows(t.representative)]
            if result.rows[t.code][:n // 2 + 1] != expected:
                return False
    return True


def roots_at_their_bound_are_checked_exactly(sweep_module) -> bool:
    """The air check on a-tables whose one nonzero slot holds +B or -B, B
    their matching DP bound (kernel.air_root replaced), on every proper
    pair at n=6: a pair fails exactly when its lower tree holds -B and its
    upper tree +B.  The m vector at shape 1^n has the alphas e_0, so the
    sweep's weight is 1, and only the width's factor 2 makes the 2B of a
    difference fit: at B = 2^15 - 1, 4-byte slots where B alone fits 2."""
    n, bound = 6, (1 << 15) - 1
    trees, pairs = enumerate_free_trees(n), proper_gts_pairs(n)
    sign = {t.code: (-1) ** k for k, t in enumerate(trees)}
    # slot (i, r, e) = (0, 2, 1), in the DP's 2-byte slots
    roots = {id(t.representative): (sign[t.code] * bound << 16 * (2 * (n + 1) + 1), bound)
             for t in trees}
    expected = sum(sign[p.lower.code] < sign[p.upper.code] for p in pairs)
    cfg = sweep_module.SweepConfig(n=n, bases=("m",), lambda_filter="1^*")
    with mock.patch.object(kernel, "air_root", lambda tree: roots[id(tree)]):
        result = sweep_module.sweep_pairs(cfg, trees, pairs)
    return expected > 0 and result.summary["airFailures"] == expected


def f_signed_sweep_equals_the_per_check_oracle(sweep_module) -> bool:
    """f's signed vectors, whose alphas (-2)^i e_i are negative at odd i,
    on every proper pair at n=6: the air check passes and implies none of
    them, and the per-check oracle fails some."""
    n = 6
    cfg = sweep_module.SweepConfig(n=n, bases=("f",), mode="signed")
    trees, pairs = enumerate_free_trees(n), proper_gts_pairs(n)
    result = sweep_module.sweep_pairs(cfg, trees, pairs)
    summary, _, _, _ = tabled_sweep(cfg, trees, pairs)
    return [f[:f.rindex(" x=")] for f in result.summary["failures"]] == summary["failures"]


def f_auto_sweep_equals_the_per_check_oracle(sweep_module) -> bool:
    """f in auto mode, so in absolute mode, at every shape on every proper
    pair at n=6, against the per-check oracle: the one-term vectors
    (-2)^i e_i get |c_r| rows, and the zero vector of the other shapes gets
    none.  Checked signed, the odd i would fail some pairs."""
    n = 6
    cfg = sweep_module.SweepConfig(n=n, bases=("f",))
    trees, pairs = enumerate_free_trees(n), proper_gts_pairs(n)
    result = sweep_module.sweep_pairs(cfg, trees, pairs)
    summary, _, _, _ = tabled_sweep(cfg, trees, pairs)
    return [f[:f.rindex(" x=")] for f in result.summary["failures"]] == summary["failures"]


def minus_one_alpha_sweep_equals_the_a_table(sweep_module) -> bool:
    """A gamma vector whose alphas are e_1 - e_2, so min(alpha) = -1, which
    no basis gives: the sweep's failures on every proper pair at n=5 equal
    those of the long-way a-table (tests/oracles.assembled_air_rows)."""
    n, alpha = 5, (0, 1, -1)
    # the inverse binomial transform: kernel.alphas(gamma) == alpha
    gamma = tuple(sum((-1) ** (j - k) * comb(j, k) * alpha[k] for k in range(j + 1))
                  for j in range(len(alpha)))
    rows = {t.code: assembled_air_rows(t.representative) for t in enumerate_free_trees(n)}
    pairs = proper_gts_pairs(n)
    expected = sum(
        min(sum(a * (x - y) for a, x, y in zip(alpha, lo, up))
            for lo, up in zip(zip(*rows[p.lower.code]), zip(*rows[p.upper.code]))) < 0
        for p in pairs
    )
    cfg = sweep_module.SweepConfig(n=n, bases=("m",), mode="signed", lambda_filter="5")
    with mock.patch.object(kernel, "gamma_values", lambda basis, lam: gamma):
        result = sweep_module.sweep_pairs(cfg, enumerate_free_trees(n), pairs)
    return expected > 0 and result.summary["monotoneFailures"] == expected


def planted(sweep_module, fmt: str, i: int, r: int, e: int, value: int):
    """The m sweep at n=6, reported in fmt, with value added at slot (r, e)
    of the a[i] row of the first pair's lower tree."""
    n, m = 6, 7
    cfg = sweep_module.SweepConfig(n=n, bases=("m",), fmt=fmt, out="report")
    trees, pairs = enumerate_free_trees(n), proper_gts_pairs(n)
    result = sweep_module.sweep_pairs(cfg, trees, pairs)
    code = pairs[0].lower.code
    lower = list(result.rows[code])
    lower[i] += value << (8 * result.slots.width * (r * m + e))
    return cfg, result._replace(rows={**result.rows, code: lower})


def outside_slots_stop_the_report(sweep_module) -> bool:
    """A nonzero slot outside a[2]'s triangle 2 <= e <= r - 2, in a block
    that passes (+1) and in one that fails (-1), stops the report."""
    for value in (1, -1):
        for fmt in ("csv", "json"):
            cfg, result = planted(sweep_module, fmt, 2, 5, 1, value)
            try:
                sweep_module.write_report(io.StringIO(), cfg, result)
            except ValueError:
                continue
            return False
    return True


def csv_flags_follow_the_differences(sweep_module) -> bool:
    """Each csv row reads FAIL exactly when its difference has a negative
    coefficient: on every reversed pair at n=6, and with -1 planted at
    slot (3, 0) of Delta_0.  a[0][r][0] is the same for every tree, so row
    r = 3 fails there alone and the rows around it pass."""
    n = 6
    pairs = reversed_pairs(n)
    cfg = sweep_module.SweepConfig(n=n, bases=("m",), fmt="csv", out="report")
    reports = [(cfg, sweep_module.sweep_pairs(cfg, enumerate_free_trees(n), pairs)),
               planted(sweep_module, "csv", 0, 3, 0, -1)]
    for cfg, result in reports:
        buf = io.StringIO()
        sweep_module.write_report(buf, cfg, result)
        for line in buf.getvalue().splitlines()[1:]:
            difference, flag = line.rsplit(",", 2)[1:]
            if (flag == "FAIL") != ("-" in difference):
                return False
    return True


# (module, text, mutant text, oracle)
MUTANTS = {
    "bias without the last slot's top bit": (
        "kernel", '* count, "little")', '* count, "little") ^ 1 << 8 * self.width * count - 1',
        slot_codec_holds),
    "absolute without the 2 of 2v": (
        "kernel", "return packed - 2 * (", "return packed - (", absolute_holds),
    "absolute's negative slots read as the nonnegative ones": (
        "kernel", "neg = self.bias ^ (biased & self.bias)", "neg = biased & self.bias",
        absolute_sweep_equals_the_per_check_oracle),
    "widened sign bytes left at 0": (
        "kernel", "sign = data[w - 1::w].translate(_SIGN)", "sign = bytes(len(data) // w)",
        rows_equal_the_determinant),
    "matched edge shifted by one x instead of x^2": (
        "kernel", "edge = 2 * x_shift + u_shift", "edge = x_shift + u_shift",
        rows_equal_the_determinant),
    "unmatched diagonal's deg v - 1 read as deg v": (
        "kernel", "(len(adj[v]) - 1) * (g <<", "len(adj[v]) * (g <<", rows_equal_the_determinant),
    "matched edge without its u": (
        "kernel", "edge = 2 * x_shift + u_shift", "edge = 2 * x_shift", rows_equal_the_determinant),
    "unmatched diagonal's degree term without its u": (
        "kernel", "(g << x_shift + u_shift)", "(g << x_shift)", rows_equal_the_determinant),
    "unmatched diagonal's -1 with its sign flipped": (
        "kernel", "g + (g << x_shift) +", "g - (g << x_shift) +", rows_equal_the_determinant),
    "matching DP's slots one byte short": (
        "kernel", "m * m, bound)", "m * m, bound >> 8)", rows_equal_the_determinant),
    "row split one slot off": (
        "kernel", "to.width * to.count", "to.width * (to.count + 1)", sweep_rows_equal_air_rows),
    "sweep width without its factor 2": (
        "sweep", "2 * weight * max(", "weight * max(", roots_at_their_bound_are_checked_exactly),
    "implied-plan test min(alpha) < 0 weakened to < -1": (
        "sweep", "min(alpha) < 0", "min(alpha) < -1", minus_one_alpha_sweep_equals_the_a_table),
    "every plan marked implied": (
        "sweep", "if absolute or min(alpha) < 0:", "if False:",
        f_signed_sweep_equals_the_per_check_oracle),
    "zero-vector test any(alpha) read as all(alpha)": (
        "sweep", "any(alpha)", "all(alpha)", f_auto_sweep_equals_the_per_check_oracle),
    "outside-triangle AND dropped": (
        "sweep", "values = slots.values(s, outside)", "values = slots.values(s)",
        outside_slots_stop_the_report),
    "a failing row's flag read one slot on": (
        "sweep", "values[k:k + m]", "values[k + 1:k + m + 1]", csv_flags_follow_the_differences),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_the_oracle_accepts_the_package_and_rejects_the_mutant(name):
    module, old, new, oracle = MUTANTS[name]
    assert oracle(importlib.import_module(f"treegmf.{module}"))
    assert not oracle(load_mutant(module, old, new))
