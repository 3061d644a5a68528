import hashlib
import io
import tracemalloc

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
from treegmf import gmf
from treegmf.cli import main
from treegmf.gts import GtsPair
from treegmf.symfunc import alphas
from treegmf.sweep import SlotPacking, SweepConfig, _csv_row, sweep_pairs, write_report

from oracles import air_sum, determinant_air_sum, tabled_report_text, tabled_sweep


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
            fmt_cfg = cfg.replace(fmt=fmt)
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


@pytest.mark.parametrize("reverse", [False, True])
def test_a_vector_with_a_negative_alpha_is_never_skipped(reverse):
    # f in signed mode: A = (-2)^i e_i, negative at every odd i, so a passing
    # air check implies none of these checks and every one is computed
    for n in range(4, 9):
        pairs = reversed_pairs(n) if reverse else proper_gts_pairs(n)
        cfg = SweepConfig(n=n, bases=("f",), mode="signed")
        result = assert_matches_oracle(cfg, pairs, reports=n <= 6)
        assert result.summary["monotoneFailures"] > 0
        assert result.summary["airFailures"] == (len(pairs) if reverse else 0)


def test_each_vector_has_its_lowest_alpha_index():
    n, half = 8, 5
    result = sweep_pairs(SweepConfig(n=n), enumerate_free_trees(n), proper_gts_pairs(n))
    assert len(result.lows) == len(result.plans)
    for basis, lam, _, k in result.checks:
        alpha = alphas(involution_class_values(power_expansion(basis, lam)))
        assert result.lows[k] == next((i for i, a in enumerate(alpha) if a), half)
        if basis == "m" and lam.transpositions_if_involution_shape() is not None:
            assert result.lows[k] == lam.transpositions_if_involution_shape()


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
            out_cfg = cfg.replace(out=out)
            assert report_text(out_cfg, sweep_pairs(out_cfg, trees, pairs)) == expected


def test_only_a_sweep_with_a_report_rounds_its_slot_width():
    # n=7 over every basis needs 3-byte slots
    trees, pairs = enumerate_free_trees(7), proper_gts_pairs(7)
    assert sweep_pairs(SweepConfig(n=7), trees, pairs).slots.width == 3
    assert sweep_pairs(SweepConfig(n=7, out="r.csv"), trees, pairs).slots.width == 4


def test_a_serial_sweep_caches_no_matching_profile():
    # the a-rows come straight from the matching DP, not from a per-tree
    # profile that stays cached for the rest of the process
    gmf.matching_profile.cache_clear()
    sweep_pairs(SweepConfig(n=9), enumerate_free_trees(9), proper_gts_pairs(9))
    assert gmf.matching_profile.cache_info().currsize == 0


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


def test_the_packed_rows_of_every_tree_equal_the_tau_scaled_determinant():
    # the a[i] rows as the sweep packs them, every basis's vectors sizing
    # the slots, at slot widths rounded for a report and not
    for n in range(2, 11):
        m, half = n + 1, n // 2 + 1
        trees = enumerate_free_trees(n)
        for out in (None, "report.json"):
            result = sweep_pairs(SweepConfig(n=n, out=out), trees, proper_gts_pairs(n))
            for t in trees:
                rows = [[c for row in result.slots.rows(packed, m) for c in row + [0] * (m - len(row))]
                        for packed in result.rows[t.code][:half]]
                for x, q, tau in ((3, 2, 5), (-7, -3, 2), (5, 4, 3)):
                    assert air_sum(rows, n, x, q, tau) == determinant_air_sum(
                        t.representative, x, q, tau), (n, t.code, out, x, q, tau)


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


# sha256 of the csv and json reports of every free tree's sweep, in the
# writer's row-by-row form (n, bases, mode): (csv, json); bases None is all
# six, and signed mode checks f's vectors with their negative alphas, so
# those runs fail and print FAIL rows
REPORT_DIGESTS = {
    (3, None, "auto"): ("c6131097938f1602457e22941bb59124664e4af0d710cc1d9af704e7e28c9ee0",
        "8a3f457d5f065cf9a223c73217e164fd66042cfde6b9413051ea63e197cc2f25"),
    (3, None, "signed"): ("c6131097938f1602457e22941bb59124664e4af0d710cc1d9af704e7e28c9ee0",
        "619803e2bf80117011fe9db96b2bba7b13356453086410c7809307c2bc4404a8"),
    (3, None, "absolute"): ("c6131097938f1602457e22941bb59124664e4af0d710cc1d9af704e7e28c9ee0",
        "6ecce3083f81ccb5ac3045ed4da47b7b8cc971c1b0156a4437b159d03b27d351"),
    (4, None, "auto"): ("e5a8bbda99f5f3a859104bc2a2d803a8855fe384cd29ce132d96f58d58bec169",
        "7d3c51759d1e33299126a050243b4b9fef84ab30a9ec4963928c9656884791d0"),
    (4, None, "signed"): ("d38c25374a075254addd2225d75fd9931c86aae3a5777820d4493448ff415890",
        "1604c47ef85b40f61f351dd3aeef72bd3b4292a5e851f12cfcc61feb9962666e"),
    (4, None, "absolute"): ("0a8b014147f15579be4b3a3ea81532c3e82dee9313e90b53ed600b2f4c9b9a2f",
        "ded947905b3f26f3bd1c0b2b34ae16509d26121a7f786d9e1dc17b1c690b096a"),
    (5, None, "auto"): ("4e397d530507d6bd19fded3e6651d221c5bf083f3a8c3262b050d3981de07a98",
        "0399e59a4ddf35556a7def79770845a3035f5a0c50ab4c06f5821de8c8d6a649"),
    (5, None, "signed"): ("e075f8d524bd23db931833e912e01b8d4ec6582790c99b93a87dc0da23b0f3ed",
        "581a1ae63a322340ecbe12975be2932cf447b946a25709cd45a7377033b345e0"),
    (5, None, "absolute"): ("30223f93cac051a2fececdd590c4b28558507569494d95948c0424366498022a",
        "62b9e11cdc3496de2ad8d021753e6998827008fd42821be194ef2eb54cb153f5"),
    (6, None, "auto"): ("bc26ce00b1df9085351ed25e61f7e228b6ebfe73a44c7b4c8efc2683477d7c35",
        "29cbde5e01b9ce335579049d892eaf180009c3fafd2ce43ceb33f86db4417781"),
    (6, None, "signed"): ("993e2ad36e3557f7f0fcb3407a9b935e01cd242a0292e0c6e61a89f75d60918f",
        "a85da78a30c397f6ec3fe3583f0d915bc4c3d92144348a4d4048b7978ec0a4cc"),
    (6, None, "absolute"): ("533125c9d6d53821f9f8d4f1fefccea87c00d8daa192935400eb2a69b9fbc627",
        "e9604d20b6b9c53999b2fab89a64171d76f9d219f35297931ac208a58d43be58"),
    (7, None, "auto"): ("dd9f37eecb0f2b0c6c6ac10438f52c15502acdcaf8e9398d1c8cfdda943b6d66",
        "7f81487fe193730cbcc3dbdb08a3a73b07d79e60d1771275e47d98e92b07cc69"),
    (7, None, "signed"): ("99792c7dca47c24dca14f54171bcbb4b4d85a2ed4034711dac8016902e0ca1c6",
        "4db1e8b3788ca1839ecd237dbcd54e75a8e93d956f1729cd5cf786142392a0ab"),
    (7, None, "absolute"): ("963d29052ef3c8ae028ad22bd94838d18a44709cffda2edd2109ae7dff43e1a9",
        "39ba87aab0af814210e745516a770a295b294d2194354154f0239386a84bc0f3"),
    (8, None, "auto"): ("1e38d6b79cf731aebf58f8a209d1a763ba6edcfe32bb75ec110b46281a04ea0e",
        "dfefe138955f574260159bd4e3ca51ada06a285330801b0ad239849a274091e7"),
    (8, None, "signed"): ("199d339cf943dd6a34ee85a8c498ba04824d6471518b7cbbb9aff3b8567f8c2e",
        "91eb73483b7dbedeb370b5474b4b3df56f99a8ff6f40806386f4cf56e83627ae"),
    (8, None, "absolute"): ("7137bc2cc0e0ab1658fd3db7839d8ae796699c6a6eeed49dc614a1327aedc459",
        "7203c536c263939c5655fc62d0aa3bbb4936a25a451a487bd44d49e464f7d102"),
    (9, None, "auto"): ("110bae10f489e8d6880cea08e8ac647db2ad6ddf194a3b48bd28d6d44df976b5",
        "2e2a1d94662162eb3a98c2a7c3787e78712d4edc969b319972411294d8df2d9b"),
    (9, None, "signed"): ("334336815d9925da9db643612c26d8fe3cfbfc4678af47c04fbe4b1f3c2f9d9a",
        "3cdf1219508f6433f672f6de89fc61a4d21264aaa1f3c940b0f277ffa4e875b6"),
    (9, None, "absolute"): ("bf232fbd6c4fc5229090a7eaed6af0d798c2795d5c48db2a9a26a9a04cb7cefd",
        "b9ea5bd5c48623086b149ae8d33004d18ba1542980dcfb10dbef74a7e77770e7"),
    (6, ('f',), "signed"): ("fe81bdf8a7f6ad2f1b8ddf4632a9efd506ca5295c6c6ed39cfa42c2697c220fd",
        "e284b2eb4e427fb1a8b52ecdd65915a1413d9ca7291ee671b211aa335ce788f0"),
    (9, ('f',), "signed"): ("7015ed77762987fcca95ac91332053e7debf8fc0148b421cf94dce0496317425",
        "39c5045f9d72633a52c02e0a9028ec6d06954787fd39d326cdc9c0edb1a08ff9"),
}


@pytest.mark.parametrize("n, bases, mode", sorted(REPORT_DIGESTS, key=repr))
def test_report_bytes_are_those_of_the_row_by_row_writer(n, bases, mode):
    # every low index i0 = 0..n/2, and the zero vector's n/2+1, has its
    # template in these runs
    cfg = SweepConfig(n=n, mode=mode, out="report", **({"bases": bases} if bases else {}))
    result = sweep_pairs(cfg, enumerate_free_trees(n), proper_gts_pairs(n))
    for fmt, digest in zip(("csv", "json"), REPORT_DIGESTS[n, bases, mode]):
        sink = DigestSink()
        write_report(sink, cfg.replace(fmt=fmt), result)
        assert sink.sha.hexdigest() == digest, fmt


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("r, e", [(5, 1), (4, 3), (3, 2)])
def test_a_nonzero_slot_outside_a_blocks_triangle_stops_the_report(fmt, r, e):
    # a[2][r] lies in 2 <= e <= r - 2; +1 in the lower tree's row keeps
    # Delta_2 in the cone, so its block takes the one-pass path
    n, m = 6, 7
    cfg = SweepConfig(n=n, bases=("m",), fmt=fmt, out="report")
    trees, pairs = enumerate_free_trees(n), proper_gts_pairs(n)
    result = sweep_pairs(cfg, trees, pairs)
    write_report(DigestSink(), cfg, result)
    code = pairs[0].lower.code
    lower = list(result.rows[code])
    lower[2] += 1 << (8 * result.slots.width * (r * m + e))
    planted = result._replace(rows={**result.rows, code: lower})
    with pytest.raises(ValueError, match="expected to be 0"):
        write_report(DigestSink(), cfg, planted)


@pytest.mark.parametrize("width", SLOT_WIDTHS)
def test_pack_round_trips_the_widest_values_and_rejects_one_more(width):
    top = (1 << (8 * width - 1)) - 1
    for castable in (False, True) if width in CAST_WIDTHS else (False,):
        slots = SlotPacking(5, top, castable)
        assert slots.width == width
        values = [top, -top, 0, -1, 1]
        packed = slots.pack(values)
        assert packed == sum(v << (8 * width * k) for k, v in enumerate(values))
        assert list(slots.values(packed)) == values
        for bad in (top + 1, -top - 2):
            with pytest.raises(OverflowError):
                slots.pack([0, bad])


def test_csv_rows_quote_every_field_kind_as_csv_writer_does():
    import csv

    cfg = SweepConfig(n=6)
    result = sweep_pairs(cfg, enumerate_free_trees(6), proper_gts_pairs(6))
    rows = [("check", "lower", "upper", "basis", "lambda", "mode", "i", "r", "difference", "pass")]
    rows += [(basis, ",".join(map(str, lam.parts)), mode) for basis, lam, mode, _ in result.checks]
    rows += [("monotone", p.lower.code, p.upper.code, "", "12", "3/1;0/1;-4/1") for p in result.pairs]
    assert any("," in row[1] for row in rows) and any("," not in row[1] for row in rows)
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(row)
        assert _csv_row(*row) == buf.getvalue()
