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
from treegmf.sweep import SlotPacking, SweepConfig, sweep_pairs, sweep_report_text

from oracles import dumped_sweep_report_text, tabled_report_text, tabled_sweep


def reversed_pairs(n):
    return [
        GtsPair(lower=p.upper, upper=p.lower, witness_x=p.witness_x,
                witness_y=p.witness_y, witness_path=p.witness_path)
        for p in proper_gts_pairs(n)
    ]


def without_witness(line):
    """A failure line without its trailing shift witness "x=.. y=.. path=[..]"."""
    return line[:line.rindex(" x=")]


def assert_matches_oracle(cfg, pairs, collect_reports=True):
    trees = enumerate_free_trees(cfg.n)
    result = sweep_pairs(cfg, trees, pairs, collect_reports=collect_reports)
    summary, monotone, air, ok = tabled_sweep(cfg, trees, pairs, collect_reports)
    assert result.ok == ok
    assert {k: v for k, v in result.summary.items() if k != "failures"} == {
        k: v for k, v in summary.items() if k != "failures"
    }
    assert [without_witness(f) for f in result.summary["failures"]] == summary["failures"]
    if not collect_reports:
        return result
    assert len(result.pairs) == len(pairs)
    reports = iter(monotone)
    for (lo, up, blocks, air_block), air_report in zip(result.pairs, air):
        for basis, lam, mode, k in result.checks:
            report = next(reports)
            assert (lo, up, basis, lam, mode) == (
                report.lower_code, report.upper_code, report.basis, report.lam, report.mode)
            assert blocks[k] == tuple((e.difference, e.ok) for e in report.per_r)
            assert all(ok for _, ok in blocks[k]) == report.ok
        assert air_block == tuple((e.difference, e.ok) for e in air_report.entries)
    assert next(reports, None) is None
    return result


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_engine_agrees_with_the_per_check_oracle_on_every_pair(mode):
    for n in range(2, 10):
        cfg = SweepConfig(n=n, mode=mode)
        assert_matches_oracle(cfg, proper_gts_pairs(n), collect_reports=n <= 8)


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
        result = sweep_pairs(cfg, trees, pairs, collect_reports=True)
        assert sweep_report_text(cfg, result) == tabled_report_text(cfg, summary, monotone, air)


def test_m_basis_alphas_at_involution_shapes_are_scaled_unit_vectors():
    # the engine's a[i] rows rest on alpha(m at 2^i,1^(n-2i)) = 2^i e_i
    for n in range(2, 11):
        for i in range(n // 2 + 1):
            gamma_j = involution_class_values(power_expansion("m", Partition.involution_shape(n, i)))
            assert alphas(gamma_j) == tuple(2**i if k == i else 0 for k in range(n // 2 + 1))


@st.composite
def slot_values(draw):
    width = draw(st.integers(1, 3))
    half = 1 << (8 * width - 1)
    edge = st.sampled_from([0, -1, 1, half - 1, -(half - 1), -half])
    values = draw(st.lists(st.one_of(edge, st.integers(-half, half - 1)), min_size=1, max_size=24))
    return width, values


@settings(max_examples=300, deadline=None)
@given(slot_values())
def test_packed_slot_mask_at_slot_boundaries(case):
    width, values = case
    slots = SlotPacking(len(values), (1 << (8 * width - 1)) - 1)
    assert slots.width == width
    packed = slots.pack(values)
    assert packed == sum(v << (8 * width * k) for k, v in enumerate(values))
    assert slots.unpack(packed) == values
    assert slots.nonnegative(packed) == all(v >= 0 for v in values)


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_json_report_equals_the_json_dumps_writer(mode):
    cases = [(SweepConfig(n=n, mode=mode), proper_gts_pairs(n)) for n in range(2, 9)]
    cases += [
        (SweepConfig(n=5, bases=("f", "s"), mode="signed"), proper_gts_pairs(5)),  # FAIL rows
        (SweepConfig(n=6, mode=mode), reversed_pairs(6)),  # FAIL rows, air ones too
        (SweepConfig(n=7, mode=mode, bases=("m",), lambda_filter="2^k,1^*"), proper_gts_pairs(7)),
        (SweepConfig(n=4, mode=mode, lambda_filter="3^2"), proper_gts_pairs(4)),  # no shapes
    ]
    for cfg, pairs in cases:
        result = sweep_pairs(cfg, enumerate_free_trees(cfg.n), pairs, collect_reports=True)
        assert sweep_report_text(cfg, result) == dumped_sweep_report_text(cfg, result)
