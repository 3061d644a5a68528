import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from treegmf import BASES, LabeledTree, ahu_canonical
from treegmf.cli import _write_or_print, main, parse_partition_arg
from treegmf import sweep
from treegmf.sweep import FLOOR, parse_shape_pattern, pool_size
from treegmf.partitions import Partition

from oracles import prufer_to_edges, tree_to_edge_text, tree_to_json_obj


def run_cli(*argv):
    return main(list(argv))


def run_cli_capture(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_parse_partition_arg():
    assert parse_partition_arg("2,1,1").parts == (2, 1, 1)
    assert parse_partition_arg("2^2,1^3").parts == (2, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        parse_partition_arg("")


def test_parse_shape_pattern():
    pat = parse_shape_pattern("2^k,1^*")
    assert pat(Partition([2, 2, 1]))
    assert pat(Partition([1, 1, 1]))
    assert pat(Partition([2, 2]))
    assert not pat(Partition([3, 1, 1]))
    exact = parse_shape_pattern("3,2,1")
    assert exact(Partition([3, 2, 1]))
    assert not exact(Partition([3, 3]))
    assert parse_shape_pattern("*")(Partition([9, 1]))
    assert parse_shape_pattern(None)(Partition([4]))
    two = parse_shape_pattern("2^2,1^*")
    assert two(Partition([2, 2, 1, 1]))
    assert not two(Partition([2, 1, 1, 1]))


# ---------------------------------------------------------------------------
# trees / poset
# ---------------------------------------------------------------------------


def test_cmd_trees(capsys):
    code, out = run_cli_capture(capsys, "trees", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "2 tree(s) on 4 vertices"
    code, out = run_cli_capture(capsys, "trees", "--n", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 tree(s) on 1 vertices"
    code, out = run_cli_capture(capsys, "trees", "--n", "10")
    assert out.splitlines()[0] == "106 tree(s) on 10 vertices"


def test_cmd_poset_json_and_dot(capsys, tmp_path):
    code, out = run_cli_capture(capsys, "poset", "--n", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4
    assert len(obj["pairs"]) == 1
    pair = obj["pairs"][0]
    assert pair["lower"] != pair["upper"]
    assert pair["witness"]["path"][0] == pair["witness"]["x"]

    dot_path = tmp_path / "poset.dot"
    code = run_cli("poset", "--n", "5", "--dot", "--out", str(dot_path))
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph")
    assert "->" in text
    code, out = run_cli_capture(capsys, "poset", "--n", "3", "--format", "json")
    assert json.loads(out)["pairs"] == []


# ---------------------------------------------------------------------------
# alpha-table
# ---------------------------------------------------------------------------


def test_alpha_table_text_n6_m(capsys):
    code, out = run_cli_capture(capsys, "alpha-table", "--n", "6", "--basis", "m")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha table: n=6 basis=m"
    # the 1^6 row carries 1 at i=0 and zeros after
    row = next(ln for ln in lines if ln.startswith("1^6"))
    assert row.split()[1:] == ["1", "0", "0", "0"]
    row = next(ln for ln in lines if ln.startswith("2^3"))
    assert row.split()[1:] == ["0", "0", "0", "8"]


def test_alpha_table_f_signed_diagonal(capsys):
    code, out = run_cli_capture(capsys, "alpha-table", "--n", "6", "--basis", "f")
    row = next(ln for ln in out.splitlines() if ln.startswith("2^2,1^2"))
    assert row.split()[1:] == ["0", "0", "4", "0"]
    row = next(ln for ln in out.splitlines() if ln.startswith("2,1^4"))
    assert row.split()[1:] == ["0", "-2", "0", "0"]


def test_alpha_table_s_dimensions_positive(capsys):
    code, out = run_cli_capture(capsys, "alpha-table", "--n", "6", "--basis", "s", "--format", "csv")
    assert code == 0
    import csv
    import io

    rows = list(csv.reader(io.StringIO(out)))[1:]
    from oracles import hook_length_dimension

    for row in rows:
        lam = parse_partition_arg(row[0])
        assert int(row[1]) == hook_length_dimension(lam.parts) > 0


def test_alpha_table_json(capsys):
    code, out = run_cli_capture(capsys, "alpha-table", "--n", "4", "--basis", "m", "--format", "json")
    obj = json.loads(out)
    assert obj["basis"] == "m"
    values = {tuple(r["lambda"]): r["values"] for r in obj["rows"]}
    assert values[(2, 1, 1)][1] == {"num": "2", "den": "1"}
    assert values[(4,)] == [{"num": "0", "den": "1"}] * 3


# ---------------------------------------------------------------------------
# gmf / air-table
# ---------------------------------------------------------------------------


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(tree_to_edge_text(LabeledTree.path(3)))
    return str(path)


def test_cmd_gmf_text_with_oracle(capsys, p3_file):
    code, out = run_cli_capture(
        capsys, "gmf", "--tree", p3_file, "--basis", "s", "--lambda", "1,1,1", "--oracle"
    )
    assert code == 0
    assert "r=1: 3 + q^2" in out
    assert "oracle: permutation sum agrees" in out


def test_cmd_gmf_zero_for_non_involution_shape(capsys, tmp_path):
    path = tmp_path / "t5.json"
    path.write_text(json.dumps(tree_to_json_obj(LabeledTree.star(5))))
    code, out = run_cli_capture(
        capsys, "gmf", "--tree", str(path), "--basis", "m", "--lambda", "3,1,1"
    )
    assert code == 0
    for r in range(6):
        assert f"r={r}: 0" in out


def test_cmd_gmf_csv_and_json(capsys, p3_file):
    code, out = run_cli_capture(
        capsys, "gmf", "--tree", p3_file, "--basis", "h", "--lambda", "3", "--format", "csv"
    )
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "tree,basis,lambda,r,coefficient"
    assert len(rows) == 4
    code, out = run_cli_capture(
        capsys, "gmf", "--tree", p3_file, "--basis", "h", "--lambda", "3", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["basis"] == "h"


def test_cmd_gmf_errors(capsys, p3_file, tmp_path):
    assert run_cli("gmf", "--tree", p3_file, "--basis", "m", "--lambda", "2,1,1") == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1 2\n")
    assert run_cli("gmf", "--tree", str(bad), "--basis", "m", "--lambda", "2,1") == 2
    capsys.readouterr()


def test_negative_multiplicity_is_rejected(capsys, p3_file):
    assert run_cli("gmf", "--tree", p3_file, "--basis", "m", "--lambda", "2^-1,3^1") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli("verify", "--n", "5", "--lambda", "2^-1") == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ValueError):
        parse_partition_arg("3^1,2^-1")
    with pytest.raises(ValueError):
        parse_shape_pattern("2^-1,1^*")
    assert parse_partition_arg("3^1,2^0").parts == (3,)
    assert parse_shape_pattern("2^0,1^*")(Partition([1, 1]))


def test_gmf_free_multiplicity_names_the_token(capsys, p3_file):
    assert run_cli("gmf", "--tree", p3_file, "--lambda", "2^*") == 2
    assert capsys.readouterr().err == "error: a partition needs a fixed multiplicity, got '2^*'\n"
    with pytest.raises(ValueError, match="fixed multiplicity, got '1\\^k'"):
        parse_partition_arg("2,1^k")


def test_lambda_size_is_checked_before_its_parts_are_listed(p3_file):
    # 2^1000000000 would be a list of 8 GB: the sum is read from the runs
    import resource

    limit = 512 * 2**20

    def gmf(lam):
        return subprocess.run(
            [sys.executable, "-m", "treegmf", "gmf", "--tree", p3_file, "--lambda", lam],
            capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    proc = gmf("2^1000000000")
    assert proc.returncode == 2
    assert proc.stderr == "error: lambda sums to 2000000000 but the tree has 3 vertices\n"
    proc = gmf("2^1,1^1")
    assert proc.returncode == 0, proc.stderr
    assert "basis=s lambda=2,1" in proc.stdout
    assert parse_partition_arg("2^2,1^3", 7).parts == (2, 2, 1, 1, 1)
    with pytest.raises(ValueError, match="sums to 7 but the tree has 6"):
        parse_partition_arg("2^2,1^3", 6)
    with pytest.raises(ValueError, match="positive"):
        parse_partition_arg("-1^1000000000,1000000003", 3)


@pytest.mark.parametrize("command", [
    ["gmf", "--basis", "m", "--lambda", "2"],
    ["air-table"],
])
@pytest.mark.parametrize("text", [
    '{"edges": [[1, 2]]}',
    '{"n": 2, "edges": 5}',
    '{"n": 2, "edges": [[1, 2, 3]]}',
    '{"n": 2.9, "edges": [[1, 2.7]]}',
    '{"n": 2, "edges": [[true, 2]]}',
])
def test_malformed_json_tree_file_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli(*command, "--tree", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cmd_gmf_oracle_guard(tmp_path, capsys):
    path = tmp_path / "p10.txt"
    path.write_text(tree_to_edge_text(LabeledTree.path(10)))
    code = run_cli("gmf", "--tree", str(path), "--basis", "p", "--lambda", "10", "--oracle")
    assert code == 2
    capsys.readouterr()


def test_cmd_air_table(capsys, p3_file):
    code, out = run_cli_capture(capsys, "air-table", "--tree", p3_file)
    assert code == 0
    assert "i=0 r=1: 3 + q^2" in out
    code, out = run_cli_capture(capsys, "air-table", "--tree", p3_file, "--format", "csv")
    header, *rows = out.strip().splitlines()
    assert header == "tree,i,r,value"
    assert len(rows) == 2 * 4  # i in {0,1}, r in 0..3


# a caterpillar on 7 vertices: the spine 1-2-3-4-5 with leaves 6 at 2 and 7 at 4
T7_TEXT = "7\n1 2\n2 3\n3 4\n4 5\n2 6\n4 7\n"

# sha256 of stdout for each table command view; a change to any of these
# outputs is a change of the CLI's bytes
TABLE_DIGESTS = {
    "gmf --basis s --lambda 3,2,2 --format text":
        "0420d202fccea1174defd50f9bd814d2a85e393f17b2a045576e65e5bda7450b",
    "gmf --basis s --lambda 3,2,2 --format csv":
        "a3348e9317836b9b5f81013d433fb450cef4c205a993f87fbc1ae4919e0186e4",
    "gmf --basis s --lambda 3,2,2 --format json":
        "c748d0dc2c8a7bda2a694fe6f7eb0ffdd8701f9c8178d2544ef9a4fdc5a3c018",
    "gmf --basis s --lambda 3,2,2 --oracle":
        "7f38b1cd42b562c8150c41ed6593b5dfc035b457f998f1802f87e8a7c89744e7",
    "gmf --basis m --lambda 2^2,1^3 --format text":
        "65074e5411708aa95630502ca116c740aa7294809dffc7cd4039a2d90d3b7822",
    "gmf --basis m --lambda 2^2,1^3 --format csv":
        "d9105432c766ac8db99fc7c1ea4bcdf357adf45f0c62a5a1f1add4225791fde4",
    "gmf --basis m --lambda 2^2,1^3 --format json":
        "563058d98da9792c177ebd877ef8e722364df8f537442a63fadb7b1745922b8b",
    "gmf --basis m --lambda 2^2,1^3 --oracle":
        "f9f691c003a43b658c5a039b17916d0d4dd0c872a165bacae1b1aba0341e38e5",
    "air-table --format text":
        "d3db1a7cc299908993c59154a7e538b997405ae9a94144e92635350a7d95221d",
    "air-table --format csv":
        "4e1d92186fb40244b5684c6e08b3e80921fe2f5bb03ee39a0bc09074dbbedbb1",
    "air-table --format json":
        "43f17b47a90c751383747c345b0e1c86b9e152f8a73ccafc4f3efa35db14b0b7",
    "alpha-table --n 9 --basis s --format text":
        "d4013f48cd4be0c8fd4e7a9d362accfe859a2ed20a034f2f16e4df31b36f0d39",
    "alpha-table --n 9 --basis s --format csv":
        "d3d37eb6aa478fba4787da6f9c713dfafe26ac5bc9005ae53dcda9f36c42635a",
    "alpha-table --n 9 --basis s --format json":
        "5202033b59c24b26ce8d86aa28cb2ce8d1fe39b0dd09e8ad2ca9526a76fef7c9",
    "alpha-table --n 9 --basis e --format text":
        "483661aaaa9c0338253f174880b98705397fa9794690f425a3d52dc6bb73ce0f",
    "alpha-table --n 9 --basis e --format csv":
        "82ba2dcd4aaf80d6bcf2797e9f0e2b17cf7e32573e33d5cc068ae78efad355dd",
    "alpha-table --n 9 --basis e --format json":
        "7d3c9c11938cac65432f712e49d95449b56efb0cd92fecb36b81b1c0387c1ec7",
}


@pytest.fixture
def t7_file(tmp_path):
    path = tmp_path / "t7.txt"
    path.write_text(T7_TEXT)
    return str(path)


@pytest.mark.parametrize("command", TABLE_DIGESTS)
def test_table_command_output_digests(capsys, t7_file, command):
    argv = command.split()
    if argv[0] != "alpha-table":
        argv += ["--tree", t7_file]
    code, out = run_cli_capture(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[command]


# what each table command computes; the format is checked before any of it
TABLE_COMPUTATIONS = {
    "gmf": ("power_expansion", "involution_expansion", "gmf_poly_matching",
            "gmf_poly_bruteforce"),
    "air-table": ("air_table",),
    "alpha-table": ("alpha_table",),
}


def _refuse(*args, **kwargs):
    raise AssertionError("computed before --format was checked")


@pytest.mark.parametrize("command", [
    ["gmf", "--basis", "s", "--lambda", "3,2,2"],
    ["air-table"],
    ["alpha-table", "--n", "9"],
])
def test_table_commands_reject_an_unknown_config_format(
    tmp_path, capsys, monkeypatch, t7_file, command
):
    import treegmf.cli

    for name in TABLE_COMPUTATIONS[command[0]]:
        monkeypatch.setattr(treegmf.cli, name, _refuse)
    cfg = tmp_path / "xml.cfg"
    cfg.write_text("format=xml\noracle=1\n" if command[0] == "gmf" else "format=xml\n")
    if command[0] != "alpha-table":
        command = command + ["--tree", t7_file]
    assert run_cli(*command, "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: format must be text, csv or json, got xml\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_cmd_verify_passes_n5(capsys):
    code, out = run_cli_capture(capsys, "verify", "--n", "5")
    assert code == 0
    assert "RESULT: PASS" in out


def test_cmd_verify_f_signed_misuse_fails(capsys):
    code, out = run_cli_capture(
        capsys, "verify", "--n", "4", "--bases", "f", "--mode", "signed"
    )
    assert code == 1
    assert "RESULT: FAIL" in out
    assert "basis=f" in out
    # --basis is an accepted alias
    code, out = run_cli_capture(
        capsys, "verify", "--n", "4", "--basis", "f", "--mode", "absolute"
    )
    assert code == 0


def test_cmd_verify_lambda_filter(capsys):
    code, out = run_cli_capture(capsys, "verify", "--n", "5", "--lambda", "2^k,1^*")
    assert code == 0
    assert "lambdas=3" in out  # 1^5, 2 1^3, 2^2 1


@pytest.mark.parametrize("pattern", ["2,2^2", "2^2,2", "2^3"])
def test_verify_lambda_tokens_of_one_value_add_up(capsys, pattern):
    code, out = run_cli_capture(capsys, "verify", "--n", "6", "--lambda", pattern)
    assert code == 0
    assert "lambdas=1" in out
    assert parse_shape_pattern(pattern)(Partition([2, 2, 2]))
    assert not parse_shape_pattern(pattern)(Partition([2, 2, 1, 1]))


@pytest.mark.parametrize("pattern", ["0", "-1^*"])
def test_verify_rejects_non_positive_lambda_values(capsys, pattern):
    assert run_cli("verify", "--n", "5", f"--lambda={pattern}") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and pattern in captured.err
    assert "RESULT" not in captured.out
    with pytest.raises(ValueError):
        sweep.SweepConfig(n=5, lambda_filter=pattern)


def test_cmd_verify_report_deterministic_across_jobs(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("verify", "--n", "5", "--out", str(out1), "--jobs", "1") == 0
    assert run_cli("verify", "--n", "5", "--out", str(out2), "--jobs", "2") == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["summary"]["pairs"] == 2
    assert all(rep["pass"] for rep in obj["monotone"])
    assert all(rep["pass"] for rep in obj["air"])


# sha256 of the verify --n 6 reports, recorded before QPolynomial moved from
# Fraction tuples to integer numerators over one denominator
GOLDEN_N6 = {
    "json": "29cbde5e01b9ce335579049d892eaf180009c3fafd2ce43ceb33f86db4417781",
    "csv": "bc26ce00b1df9085351ed25e61f7e228b6ebfe73a44c7b4c8efc2683477d7c35",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cmd_verify_n6_report_digests(tmp_path, capsys, fmt, jobs):
    out = tmp_path / f"n6.{fmt}"
    assert run_cli("verify", "--n", "6", "--format", fmt, "--jobs", jobs, "--out", str(out)) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_N6[fmt]


# (processors this process may run on, pools started by verify --jobs 2)
@pytest.mark.parametrize("affinity, pools", [({0}, []), ({0, 1}, [2])])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_forced_pool_writes_the_serial_report(tmp_path, capsys, monkeypatch, fmt,
                                                affinity, pools):
    # n=6 has 6 trees, below FLOOR, so a pool starts only with FLOOR lowered,
    # and then only on as many processors as the affinity mask holds
    import concurrent.futures

    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    serial = tmp_path / f"serial.{fmt}"
    assert run_cli("verify", "--n", "6", "--format", fmt, "--jobs", "1", "--out", str(serial)) == 0
    serial_out = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(sweep, "FLOOR", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    pooled = tmp_path / f"pooled.{fmt}"
    assert run_cli("verify", "--n", "6", "--format", fmt, "--jobs", "2", "--out", str(pooled)) == 0
    pooled_out = capsys.readouterr().out
    assert started == pools
    assert pooled.read_bytes() == serial.read_bytes()
    assert hashlib.sha256(pooled.read_bytes()).hexdigest() == GOLDEN_N6[fmt]
    assert pooled_out.split("\n", 1)[1] == serial_out.split("\n", 1)[1]
    assert "jobs=2" in pooled_out.split("\n", 1)[0]


@pytest.mark.parametrize("pattern", ["2^x", "abc", ","])
def test_cmd_verify_bad_lambda_pattern(capsys, pattern):
    assert run_cli("verify", "--n", "4", "--lambda", pattern) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    with pytest.raises(ValueError):
        parse_shape_pattern(pattern)


# modules that a gmf request never runs: loading one costs every launch its
# import, and its compilation when bytecode is not written
NOT_ON_THE_GMF_PATH = ("dataclasses", "treegmf.gts", "treegmf.sweep", "csv",
                       "concurrent.futures")


def _loaded_in_a_fresh_interpreter(code: str, *argv: str,
                                   watch: tuple[str, ...] = NOT_ON_THE_GMF_PATH) -> set[str]:
    """Which of the watched modules are in sys.modules after code runs in a
    new interpreter (argv are its sys.argv[1:])."""
    probe = (f"{code}\nimport sys\n"
             f"print(' '.join(m for m in {watch!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_leaves_the_process_pool_unloaded():
    assert "concurrent.futures" not in _loaded_in_a_fresh_interpreter("import treegmf.cli")


def test_cli_import_leaves_the_sweep_engine_unloaded():
    # gmf and the other subcommands start without compiling treegmf.sweep
    assert "treegmf.sweep" not in _loaded_in_a_fresh_interpreter("import treegmf.cli")


# the symmetric-function modules, which only gamma-reading commands run
SYMMETRIC_FUNCTION_MODULES = ("treegmf.partitions", "treegmf.qpoly", "treegmf.symfunc",
                              "fractions", "decimal")


@pytest.mark.parametrize("argv", [[], ["trees", "--n", "9"], ["poset", "--n", "9"]])
def test_parser_trees_and_poset_leave_the_symmetric_function_modules_unloaded(argv):
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "parser = treegmf.cli.build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert not sys.argv[1:] or treegmf.cli.main(sys.argv[1:]) == 0")
    assert _loaded_in_a_fresh_interpreter(
        code, *argv, watch=SYMMETRIC_FUNCTION_MODULES) == set()


def test_cli_import_and_parser_leave_every_other_commands_modules_unloaded():
    code = "import treegmf.cli\ntreegmf.cli.build_parser()"
    assert _loaded_in_a_fresh_interpreter(code) == set()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gmf_request_leaves_every_other_commands_modules_unloaded(t7_file, fmt):
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert treegmf.cli.main(sys.argv[1:]) == 0")
    argv = ["gmf", "--tree", t7_file, "--basis", "m", "--lambda", "2^2,1^3",
            "--format", fmt, "--oracle"]
    assert _loaded_in_a_fresh_interpreter(code, *argv) == set()


@pytest.mark.parametrize("oracle", [False, True])
def test_gmf_loads_the_reference_routes_only_for_the_oracle(t7_file, oracle):
    # the json view is written in json.dumps's layout without the json module
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert treegmf.cli.main(sys.argv[1:]) == 0")
    argv = ["gmf", "--tree", t7_file, "--basis", "s", "--lambda", "3,2,2", "--format", "json"]
    loaded = _loaded_in_a_fresh_interpreter(
        code, *argv, *(["--oracle"] if oracle else []), watch=("json", "treegmf.oracle"))
    assert loaded == ({"treegmf.oracle"} if oracle else set())


def test_gmf_json_view_is_json_dumps_layout(capsys, t7_file):
    from treegmf import enumerate_partitions

    for basis in BASES:
        for lam in enumerate_partitions(7):
            shape = ",".join(map(str, lam.parts))
            code, out = run_cli_capture(capsys, "gmf", "--tree", t7_file, "--basis", basis,
                                        "--lambda", shape, "--format", "json")
            obj = json.loads(out)
            assert code == 0 and out == json.dumps(obj, indent=2) + "\n"
            assert obj["basis"] == basis and obj["lambda"] == list(lam.parts)
            assert len(obj["poly"]["signedCoefficients"]) == 8


def test_verify_below_the_pool_floor_loads_neither_the_pool_nor_dataclasses():
    # 11 trees at n=7: the sweep runs in this process whatever --jobs asks
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert treegmf.cli.main(sys.argv[1:]) == 0")
    watch = ("dataclasses", "concurrent.futures")
    assert _loaded_in_a_fresh_interpreter(
        code, "verify", "--n", "7", "--jobs", "2", watch=watch) == set()


def test_verify_runs_on_the_integer_kernel_alone():
    # neither the evaluators nor the power-sum route, and no csv without a
    # csv report; the kernel's names are the same objects at their old homes
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert treegmf.cli.main(sys.argv[1:]) == 0")
    watch = ("treegmf.gmf", "treegmf.symfunc", "treegmf.qpoly", "fractions", "decimal", "csv")
    assert _loaded_in_a_fresh_interpreter(
        code, "verify", "--n", "7", "--jobs", "2", watch=watch) == set()
    from treegmf import gmf, kernel, qpoly, sweep, symfunc

    assert qpoly.SlotPacking is sweep.SlotPacking is kernel.SlotPacking
    assert gmf.dp_rows is kernel.dp_rows
    assert gmf.air_rows is kernel.air_rows
    assert symfunc.gamma_values is kernel.gamma_values
    assert symfunc.alphas is gmf.alphas is sweep.alphas is kernel.alphas


@pytest.mark.parametrize("argv", [
    ["trees", "--n", "9"],
    ["poset", "--n", "9"],
    ["verify", "--n", "7", "--jobs", "2"],
    ["verify", "--n", "5", "--format", "csv", "--out", "{tmp}/report.csv"],
])
def test_launches_that_write_no_json_load_neither_json_nor_csv(argv, tmp_path):
    # poset writes its json layout directly, and the verify csv report quotes
    # its cells itself
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    treegmf.cli.main(sys.argv[1:])")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert _loaded_in_a_fresh_interpreter(code, *argv, watch=("json", "csv")) == set()


@pytest.mark.parametrize("argv, loaded", [
    (["trees", "--n", "4"], {"treegmf.trees"}),
    (["poset", "--n", "5"], {"treegmf.trees", "treegmf.gts"}),
    (["alpha-table", "--n", "6", "--format", "csv"], set()),
])
def test_table_commands_load_only_the_library_modules_they_run(argv, loaded):
    code = ("import contextlib, io, sys, treegmf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert treegmf.cli.main(sys.argv[1:]) == 0")
    watch = ("treegmf.gmf", "treegmf.trees", "treegmf.gts", "treegmf.sweep")
    assert _loaded_in_a_fresh_interpreter(code, *argv, watch=watch) == loaded


def test_poset_loads_the_poset_front_end_and_keeps_a_bound_wrapper(capsys, monkeypatch):
    import treegmf.cli

    assert "treegmf.gts" in _loaded_in_a_fresh_interpreter(
        "import treegmf.cli\ntreegmf.cli.main(['poset', '--n', '5'])")
    calls = []
    pairs = treegmf.cli.proper_gts_pairs

    def wrapper(n):
        calls.append(n)
        return pairs(n)

    monkeypatch.setattr(treegmf.cli, "proper_gts_pairs", wrapper)
    assert run_cli("poset", "--n", "5") == 0
    assert calls == [5]
    assert json.loads(capsys.readouterr().out)["n"] == 5


def test_pool_size_clamps_jobs_to_processors_and_trees():
    # one worker per FLOOR trees, so no pool below 2 * FLOOR
    assert pool_size(2, 2, FLOOR - 1) == 1
    assert pool_size(2, 2, FLOOR) == 1
    assert pool_size(2, 2, 2 * FLOOR - 1) == 1
    assert pool_size(2, 2, 2 * FLOOR) == 2
    assert pool_size(10**9, 2, 10**9) == 2
    assert pool_size(10**9, 10**6, 47 * FLOOR) == 47
    assert pool_size(10**9, 10**6, 47 * FLOOR + FLOOR - 1) == 47
    assert pool_size(2**63, None, 10**6 * FLOOR) == 1
    assert pool_size(3, 8, 11 * FLOOR) == 3
    assert pool_size(1, 64, 100 * FLOOR) == 1
    assert pool_size(4, 4, 0) == 1


def test_cmd_verify_csv_report(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert run_cli("verify", "--n", "4", "--format", "csv", "--out", str(out)) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,lower,upper,basis,lambda,mode,i,r,difference,pass"
    assert all(ln.endswith(",pass") for ln in lines[1:])


def test_cmd_verify_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# sweep config\nn=4\nbases=f\nmode=signed\n")
    code, out = run_cli_capture(capsys, "verify", "--config", str(cfg))
    assert code == 1  # f signed fails
    code, out = run_cli_capture(capsys, "verify", "--config", str(cfg), "--mode", "absolute")
    assert code == 0  # flag overrides config


def test_cmd_verify_config_reads_basis_as_bases(tmp_path, capsys):
    # --basis is an alias of --bases, so a config file may name either key,
    # but not both
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n=5\nbasis=m\n")
    code, out = run_cli_capture(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert out == run_cli_capture(capsys, "verify", "--n", "5", "--basis", "m")[1]
    assert out.startswith("verify n=5 bases=m ")
    cfg.write_text("n=5\nbasis=m\nbases=e\n")
    assert run_cli("verify", "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: an option is given under two of its names\n"
    assert captured.out == ""


def test_cmd_verify_bad_config(capsys):
    assert run_cli("verify", "--n", "1") == 2
    assert run_cli("verify", "--n", "4", "--bases", "zz") == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["trees"],
    ["poset"],
    ["alpha-table"],
    ["gmf", "--basis", "m", "--lambda", "2,1"],
    ["air-table"],
    ["verify"],
])
def test_bad_or_missing_config_file_exits_2(tmp_path, capsys, command, p3_file):
    if command[0] in ("gmf", "air-table"):
        command = command + ["--tree", p3_file]
        bad_value = "max-brute=abc" if command[0] == "gmf" else None
    else:
        bad_value = "n=abc"
    configs = {"missing": tmp_path / "absent.cfg", "no_equals": tmp_path / "no_equals.cfg"}
    configs["no_equals"].write_text("n=4\njust words\n")
    if bad_value is not None:
        configs["bad_value"] = tmp_path / "bad_value.cfg"
        configs["bad_value"].write_text(bad_value + "\n")
    for name, path in configs.items():
        assert run_cli(*command, "--config", str(path)) == 2, name
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err, name
        assert captured.out == "", name


def test_config_boolean_takes_only_boolean_words(tmp_path, capsys, p3_file):
    cfg = tmp_path / "gmf.cfg"
    gmf = ["gmf", "--tree", p3_file, "--basis", "s", "--lambda", "1,1,1", "--config", str(cfg)]
    cfg.write_text("oracle=ture\n")
    assert run_cli(*gmf) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(cfg) in captured.err
    assert "oracle" in captured.err and "'ture'" in captured.err
    assert captured.out == ""
    for word, checked in [("1", True), ("Yes", True), ("on", True), ("TRUE", True),
                          ("0", False), ("no", False), ("off", False), ("false", False)]:
        cfg.write_text(f"oracle={word}\n")
        code, out = run_cli_capture(capsys, *gmf)
        assert code == 0, word
        assert ("oracle: permutation sum agrees" in out) == checked, word


@pytest.mark.parametrize("command, text", [
    (["verify"], "n=4\nlamda=2^k,1^*\n"),
    (["trees"], "n=4\nformat=json\n"),
    (["gmf", "--basis", "s", "--lambda", "1,1,1"], "n=3\n"),
    (["air-table"], "basis=m\n"),
    (["alpha-table", "--n", "4"], "config=other.cfg\n"),
])
def test_config_key_without_a_flag_is_rejected(tmp_path, capsys, p3_file, command, text):
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text(text)
    if command[0] in ("gmf", "air-table"):
        command = command + ["--tree", p3_file]
    assert run_cli(*command, "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    key = text.splitlines()[-1].split("=")[0]
    assert captured.err == f"error: {cfg}: unknown key {key!r} for {command[0]}\n"
    assert captured.out == ""


def test_air_table_on_a_24_vertex_random_tree_within_a_second(tmp_path, capsys):
    rng = random.Random(24)
    n = 24
    edges = prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2)))
    path = tmp_path / "t24.txt"
    path.write_text(tree_to_edge_text(LabeledTree(n, edges)))
    t0 = time.perf_counter()
    code, out = run_cli_capture(capsys, "air-table", "--tree", str(path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0, elapsed
    assert len(out.splitlines()) == 1 + (n // 2 + 1) * (n + 1)


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TREEGMF_OUT_DIR", str(tmp_path))
    assert run_cli("verify", "--n", "4", "--out", "sub/report.json") == 0
    capsys.readouterr()
    assert (tmp_path / "sub" / "report.json").exists()


def _unwritable_out_paths(tmp_path):
    """A directory, and a path whose parent cannot be made (a regular file
    stands where its directory would be)."""
    (tmp_path / "plain").write_text("")
    return [str(tmp_path), str(tmp_path / "plain" / "sub" / "r.txt")]


def test_trees_out_path_that_cannot_be_opened_exits_2(tmp_path, capsys):
    for out in _unwritable_out_paths(tmp_path):
        assert run_cli("trees", "--n", "4", "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out ")
        assert "Traceback" not in captured.err


def test_verify_out_path_that_cannot_be_opened_exits_2_before_the_sweep(
        tmp_path, capsys, monkeypatch):
    import treegmf.cli

    def no_sweep(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(treegmf.cli, "run_sweep", no_sweep)
    for out in _unwritable_out_paths(tmp_path):
        assert run_cli("verify", "--n", "5", "--format", "csv", "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


def test_failed_report_write_keeps_the_earlier_file_and_leaves_no_temporary(
        tmp_path, capsys, monkeypatch):
    from treegmf.sweep import SlotPacking

    out = tmp_path / "r.csv"
    out.write_text("earlier report\n")
    values = SlotPacking.values
    calls = []

    # the report decodes every passing block through SlotPacking.values
    def failing_values(self, packed, zeros=0):
        calls.append(packed)
        if len(calls) == 200:
            # some pairs are already written to the temporary file
            (tmp,) = [p for p in tmp_path.iterdir() if p != out]
            assert tmp.stat().st_size > 0
            raise RuntimeError("injected")
        return values(self, packed, zeros)

    monkeypatch.setattr(SlotPacking, "values", failing_values)
    with pytest.raises(RuntimeError, match="injected"):
        main(["verify", "--n", "7", "--format", "csv", "--out", str(out)])
    assert out.read_text() == "earlier report\n"
    assert list(tmp_path.iterdir()) == [out]
    monkeypatch.undo()
    # a failing run still replaces the file with its whole report
    assert run_cli("verify", "--n", "4", "--bases", "f", "--mode", "signed",
                   "--format", "csv", "--out", str(out)) == 1
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("check,") and lines[-1].startswith("air,")
    assert any(line.endswith(",FAIL") for line in lines)
    assert list(tmp_path.iterdir()) == [out]


def test_out_paths_that_are_not_our_own_regular_files_are_written_in_place(tmp_path, capsys):
    import stat
    import threading

    # a symlink keeps its link, and the report reaches its target
    target = tmp_path / "target.txt"
    target.write_text("earlier\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run_cli("trees", "--n", "5", "--out", str(link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("3 tree(s) on 5 vertices\n")

    # a FIFO stays a FIFO, and its reader gets the whole report
    fifo = tmp_path / "r.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = run_cli("verify", "--n", "5", "--format", "csv", "--out", str(fifo))
    finally:
        reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got[0].startswith(b"check,") and got[0].endswith(b",pass\r\n")

    # a file with a second link is rewritten in place, so both names see it
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("earlier\n")
    os.link(first, second)
    assert run_cli("trees", "--n", "4", "--out", str(first)) == 0
    assert second.read_text() == first.read_text() != "earlier\n"

    # a replaced regular file keeps its mode
    plain = tmp_path / "plain.txt"
    plain.write_text("earlier\n")
    plain.chmod(0o640)
    assert run_cli("trees", "--n", "4", "--out", str(plain)) == 0
    assert stat.S_IMODE(plain.stat().st_mode) == 0o640
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "first.txt", "link.txt", "plain.txt", "r.fifo", "second.txt", "target.txt"]


@pytest.mark.parametrize("earlier", [None, "earlier\n"])
def test_out_temporary_name_already_taken_exits_2_and_writes_nothing(tmp_path, capsys, earlier):
    # a symlink planted at the temporary name is neither followed nor moved
    victim = tmp_path / "victim.txt"
    victim.write_text("victim\n")
    out = tmp_path / "out.txt"
    if earlier is not None:
        out.write_text(earlier)
    tmp = tmp_path / f"out.txt.{os.getpid()}.tmp"
    tmp.symlink_to(victim)
    assert run_cli("trees", "--n", "3", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {out}: ")
    assert victim.read_text() == "victim\n"
    assert tmp.is_symlink() and os.readlink(tmp) == str(victim)
    assert (out.read_text() if out.exists() else None) == earlier


def test_gmf_unknown_config_basis_exits_2(tmp_path, capsys, p3_file):
    cfg = tmp_path / "gmf.cfg"
    cfg.write_text("basis=x\n")
    assert run_cli("gmf", "--tree", p3_file, "--lambda", "1,1,1", "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'x'" in captured.err


def test_gmf_oracle_size_guard_exits_2_before_the_expansion(capsys, monkeypatch, t7_file):
    import treegmf.cli

    def no_expansion(*args, **kwargs):
        raise AssertionError("the matching expansion ran")

    monkeypatch.setattr(treegmf.cli, "gmf_poly_matching", no_expansion)
    assert run_cli("gmf", "--tree", t7_file, "--lambda", "7", "--oracle", "--max-brute", "6") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --oracle needs n <= 6 (raise with --max-brute)\n"


def test_gmf_runs_the_power_sum_route_only_for_the_oracle(capsys, monkeypatch, t7_file):
    import treegmf.cli

    expand = treegmf.cli.power_expansion

    def no_expansion(*args, **kwargs):
        raise AssertionError("gamma was expanded in power sums")

    monkeypatch.setattr(treegmf.cli, "power_expansion", no_expansion)
    for basis in BASES:
        for fmt in ("text", "csv", "json"):
            argv = ("gmf", "--tree", t7_file, "--basis", basis, "--lambda", "2^2,1^3",
                    "--format", fmt)
            assert run_cli(*argv) == 0
    capsys.readouterr()
    calls = []

    def spy(basis, lam):
        calls.append((basis, lam.parts))
        return expand(basis, lam)

    monkeypatch.setattr(treegmf.cli, "power_expansion", spy)
    for basis in BASES:
        code, out = run_cli_capture(
            capsys, "gmf", "--tree", t7_file, "--basis", basis, "--lambda", "2^2,1^3", "--oracle"
        )
        assert code == 0
        assert out.endswith("oracle: permutation sum agrees\n")
    assert calls == [(basis, (2, 2, 1, 1, 1)) for basis in BASES]


def test_gmf_m_on_a_24_vertex_path_is_fast(tmp_path, capsys):
    # a full power-sum expansion of m_{2^6,1^12} inverts a 1575-row triangular
    # system, about 24 s; the closed-form class values take milliseconds
    path = tmp_path / "p24.txt"
    path.write_text(tree_to_edge_text(LabeledTree.path(24)))
    start = time.perf_counter()
    code, out = run_cli_capture(
        capsys, "gmf", "--tree", str(path), "--basis", "m", "--lambda", "2^6,1^12"
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f141aa48aa5e4c6def412ca4b42c77a7961613f6cb5f9dc6424fdde44011b42a"
    )
    assert elapsed < 2, elapsed


def test_report_longer_than_one_write_slice_is_written_whole(tmp_path, capsys):
    text = "".join(f"line {i}\n" for i in range(30_000))  # about 300 KB
    _write_or_print(text, str(tmp_path / "big.txt"))
    assert (tmp_path / "big.txt").read_text() == text
    _write_or_print(text, None)
    assert capsys.readouterr().out == text


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treegmf", "trees", "--n", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2 tree(s) on 4 vertices"


def test_stdout_determinism(capsys):
    _, out1 = run_cli_capture(capsys, "poset", "--n", "6", "--format", "json")
    _, out2 = run_cli_capture(capsys, "poset", "--n", "6", "--format", "json")
    assert out1 == out2
    _, out1 = run_cli_capture(capsys, "alpha-table", "--n", "7", "--basis", "e")
    _, out2 = run_cli_capture(capsys, "alpha-table", "--n", "7", "--basis", "e")
    assert out1 == out2
