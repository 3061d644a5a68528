import hashlib
import io
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegmf import (
    Partition,
    enumerate_free_trees,
    involution_class_values,
    power_expansion,
    proper_gts_pairs,
)
from treegmf.cli import main
from treegmf.gts import GtsPair
from treegmf.symfunc import alphas
from treegmf.sweep import SlotPacking, SweepConfig, sweep_pairs, write_report

from oracles import tabled_report_text, tabled_sweep


def reversed_pairs(n):
    return [
        GtsPair(lower=p.upper, upper=p.lower, witness_x=p.witness_x,
                witness_y=p.witness_y, witness_path=p.witness_path)
        for p in proper_gts_pairs(n)
    ]


def without_witness(line):
    """A failure line without its trailing shift witness "x=.. y=.. path=[..]"."""
    return line[:line.rindex(" x=")]


def report_text(cfg, result):
    buf = io.StringIO()
    write_report(buf, cfg, result)
    return buf.getvalue()


def assert_matches_oracle(cfg, pairs, reports=True):
    """The engine's summary and failure lines, and (when reports is set) its
    streamed json and csv reports, every difference and pass flag in them,
    equal those of the per-check oracle."""
    trees = enumerate_free_trees(cfg.n)
    result = sweep_pairs(cfg, trees, pairs)
    summary, monotone, air, ok = tabled_sweep(cfg, trees, pairs, collect_reports=reports)
    assert result.ok == ok
    assert {k: v for k, v in result.summary.items() if k != "failures"} == {
        k: v for k, v in summary.items() if k != "failures"
    }
    assert [without_witness(f) for f in result.summary["failures"]] == summary["failures"]
    if reports:
        for fmt in ("json", "csv"):
            fmt_cfg = replace(cfg, fmt=fmt)
            assert report_text(fmt_cfg, result) == tabled_report_text(fmt_cfg, summary, monotone, air)
    return result


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_engine_agrees_with_the_per_check_oracle_on_every_pair(mode):
    for n in range(2, 10):
        cfg = SweepConfig(n=n, mode=mode)
        assert_matches_oracle(cfg, proper_gts_pairs(n), reports=n <= 8)


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_reversed_pairs_fail_exactly_the_checks_the_oracle_fails(mode):
    for n in range(4, 9):
        result = assert_matches_oracle(SweepConfig(n=n, mode=mode), reversed_pairs(n))
        assert result.summary["monotoneFailures"] > 0
        assert result.summary["airFailures"] == len(reversed_pairs(n))


def test_failure_lines_carry_the_shift_witness():
    n = 6
    pair = reversed_pairs(n)[3]
    result = sweep_pairs(SweepConfig(n=n), enumerate_free_trees(n), [pair])
    witness = (f" x={pair.witness_x + 1} y={pair.witness_y + 1} "
               f"path={[v + 1 for v in pair.witness_path]}")
    assert not result.ok and result.summary["failures"]
    assert all(line.endswith(witness) for line in result.summary["failures"])
    assert result.summary["failures"][-1].startswith(
        f"air lower={pair.lower.code} upper={pair.upper.code} entries=[")


def test_cli_failure_line_carries_the_witness(capsys):
    assert main(["verify", "--n", "4", "--bases", "f", "--mode", "signed"]) == 1
    out = capsys.readouterr().out
    pair = proper_gts_pairs(4)[0]
    fails = [ln for ln in out.splitlines() if ln.startswith("  FAIL ")]
    assert fails
    assert all(ln.endswith(f"x={pair.witness_x + 1} y={pair.witness_y + 1} "
                           f"path={[v + 1 for v in pair.witness_path]}") for ln in fails)


def test_passing_run_prints_the_summary_alone(capsys):
    assert main(["verify", "--n", "6"]) == 0
    assert capsys.readouterr().out == (
        "verify n=6 bases=m,e,h,p,s,f lambda=* mode=auto jobs=1\n"
        "trees=6 pairs=7 lambdas=11\n"
        "monotone checks: 462, failures: 0\n"
        "air checks: 7, failures: 0\n"
        "RESULT: PASS\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_text_equals_the_oracle_writer(fmt):
    cases = [SweepConfig(n=n, fmt=fmt) for n in range(2, 8)]
    cases.append(SweepConfig(n=5, fmt=fmt, bases=("f", "s"), mode="signed"))
    cases.append(SweepConfig(n=7, fmt=fmt, bases=("m",), lambda_filter="2^k,1^*"))
    for cfg in cases:
        trees, pairs = enumerate_free_trees(cfg.n), proper_gts_pairs(cfg.n)
        summary, monotone, air, _ = tabled_sweep(cfg, trees, pairs, collect_reports=True)
        expected = tabled_report_text(cfg, summary, monotone, air)
        # with cfg.out set the slots are rounded to a cast width
        for out in (None, "report"):
            out_cfg = replace(cfg, out=out)
            assert report_text(out_cfg, sweep_pairs(out_cfg, trees, pairs)) == expected


def test_only_a_sweep_with_a_report_rounds_its_slot_width():
    # n=7 over every basis needs 3-byte slots
    trees, pairs = enumerate_free_trees(7), proper_gts_pairs(7)
    assert sweep_pairs(SweepConfig(n=7), trees, pairs).slots.width == 3
    assert sweep_pairs(SweepConfig(n=7, out="r.csv"), trees, pairs).slots.width == 4


def test_each_tree_has_one_row_list_and_every_plan_is_integer_terms():
    # auto mode: f's vectors are checked in absolute mode, the rest signed
    n, half = 8, 5
    result = sweep_pairs(SweepConfig(n=n), enumerate_free_trees(n), proper_gts_pairs(n))
    modes = {k: mode for _, _, mode, k in result.checks}
    absolute = [k for k in sorted(modes) if modes[k] == "absolute"]
    assert absolute and len(absolute) < len(modes)
    assert all(len(rows) == half + len(absolute) for rows in result.rows.values())
    for k, plan in enumerate(result.plans):
        assert all(type(row) is int and type(a) is int and a for row, a in plan)
        if modes[k] == "absolute":
            assert plan == [(half + absolute.index(k), 1)]
        else:
            assert all(row < half for row, _ in plan)


def test_m_basis_alphas_at_involution_shapes_are_scaled_unit_vectors():
    # the engine's a[i] rows rest on alpha(m at 2^i,1^(n-2i)) = 2^i e_i
    for n in range(2, 11):
        for i in range(n // 2 + 1):
            gamma_j = involution_class_values(power_expansion("m", Partition.involution_shape(n, i)))
            assert alphas(gamma_j) == tuple(2**i if k == i else 0 for k in range(n // 2 + 1))


def unpack_by_slices(slots, packed):
    """Every slot value, read by slicing the biased bytes slot by slot."""
    w, half = slots.width, slots.half
    data = (packed + slots.bias).to_bytes(w * slots.count, "little")
    return [int.from_bytes(data[k:k + w], "little") - half for k in range(0, len(data), w)]


def cut(row):
    """row up to its last nonzero value."""
    while row and not row[-1]:
        row = row[:-1]
    return row


# every slot width a sweep can choose: 1, 2, 4 and 8 bytes are decoded by
# one memoryview cast, the others slot by slot
SLOT_WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16]
CAST_WIDTHS = (1, 2, 4, 8)


@st.composite
def slot_values(draw):
    width = draw(st.sampled_from(SLOT_WIDTHS))
    castable = width in CAST_WIDTHS and draw(st.booleans())
    half = 1 << (8 * width - 1)
    edge = st.sampled_from([0, -1, 1, half - 1, -(half - 1), -half])
    values = draw(st.lists(st.one_of(edge, st.integers(-half, half - 1)), min_size=1, max_size=24))
    return width, castable, values


@settings(max_examples=300, deadline=None)
@given(slot_values())
def test_packed_slot_mask_at_slot_boundaries(case):
    width, castable, values = case
    slots = SlotPacking(len(values), (1 << (8 * width - 1)) - 1, castable)
    assert slots.width == width
    packed = slots.pack(values)
    assert packed == sum(v << (8 * width * k) for k, v in enumerate(values))
    assert unpack_by_slices(slots, packed) == values
    assert slots.rows(packed, len(values)) == [cut(values)]
    assert slots.rows(packed, 1) == [cut([v]) for v in values]
    assert slots.nonnegative(packed) == all(v >= 0 for v in values)


@pytest.mark.parametrize("width, castable", [(w, False) for w in SLOT_WIDTHS]
                         + [(w, True) for w in CAST_WIDTHS])
def test_slot_rows_equal_the_sliced_decode_at_the_slot_edges(width, castable):
    half = 1 << (8 * width - 1)
    values = [0, 1, -1, half - 1, -(half - 1), -half, 0, 5, 0, 0, 0, 0]
    slots = SlotPacking(len(values), half - 1, castable)
    assert slots.width == width
    packed = slots.pack(values)
    assert unpack_by_slices(slots, packed) == values
    for m in (1, 2, 3, 4, 6, 12):
        expected = [cut(values[k:k + m]) for k in range(0, len(values), m)]
        assert slots.rows(packed, m) == expected


@pytest.mark.parametrize("need, width", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (7, 8), (9, 9)])
def test_castable_slot_width_is_rounded_up_to_a_cast_size(need, width):
    # a bound of 8*need - 1 bits needs `need` bytes with the sign bit
    bound = (1 << (8 * need - 1)) - 1
    assert SlotPacking(3, bound, castable=True).width == width
    assert SlotPacking(3, bound).width == need


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_json_report_equals_the_json_dumps_writer(mode):
    # plain n <= 8 runs, both modes and both formats, are compared by
    # test_engine_agrees_with_the_per_check_oracle_on_every_pair
    cases = [
        (SweepConfig(n=5, bases=("f", "s"), mode="signed"), proper_gts_pairs(5)),  # FAIL rows
        (SweepConfig(n=6, mode=mode), reversed_pairs(6)),  # FAIL rows, air ones too
        (SweepConfig(n=7, mode=mode, bases=("m",), lambda_filter="2^k,1^*"), proper_gts_pairs(7)),
        (SweepConfig(n=4, mode=mode, lambda_filter="3^2"), proper_gts_pairs(4)),  # no shapes
    ]
    for cfg, pairs in cases:
        trees = enumerate_free_trees(cfg.n)
        summary, monotone, air, _ = tabled_sweep(cfg, trees, pairs, collect_reports=True)
        result = sweep_pairs(cfg, trees, pairs)
        assert report_text(cfg, result) == tabled_report_text(cfg, summary, monotone, air)


class DigestSink:
    """A text stream that keeps only the sha256 and the size of its utf-8 bytes."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)


def test_json_report_is_written_in_a_quarter_of_its_size():
    cfg = SweepConfig(n=7, out="r.json")
    trees, pairs = enumerate_free_trees(7), proper_gts_pairs(7)
    result = sweep_pairs(cfg, trees, pairs)
    sink = DigestSink()
    tracemalloc.start()
    try:
        write_report(sink, cfg, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    summary, monotone, air, _ = tabled_sweep(cfg, trees, pairs, collect_reports=True)
    expected = tabled_report_text(cfg, summary, monotone, air).encode()
    assert sink.size == len(expected) > 5_000_000
    assert sink.sha.hexdigest() == hashlib.sha256(expected).hexdigest()
    assert peak < sink.size / 4, (peak, sink.size)
