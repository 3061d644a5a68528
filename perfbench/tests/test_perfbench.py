"""Tests of the benchmark's own logic: percentile rule, self-time arithmetic,
input generation, output checks and the tracer."""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "tests"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracles import free_tree_count, path_matching_count  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------


def test_tail_is_largest_sample_with_ten_above_it():
    samples = random.Random(1).sample(range(1000), 40)
    pct, value = run.tail([float(s) for s in samples])
    assert pct == 75.0
    assert sum(s > value for s in samples) == 10


def test_tail_of_sixty_samples_is_p83():
    pct, value = run.tail([float(i) for i in range(60)])
    assert pct == pytest.approx(100 * 50 / 60)
    assert value == 49.0


def test_tail_falls_back_to_median_below_twenty_samples():
    assert run.tail([1.0, 2.0, 9.0]) == (50.0, 2.0)
    assert run.tail([float(i) for i in range(19)]) == (50.0, 9.0)
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)


# ---------------------------------------------------------------------------
# probe-scaled op times over repeated rounds
# ---------------------------------------------------------------------------


def _nominal(n):
    return [run.PROBE_NOMINAL_S] * n


def test_op_time_is_the_median_of_its_repetitions_scaled_by_its_probes():
    nominal = run.PROBE_NOMINAL_S
    rounds = [
        run.Round(latencies=[3.0, 1.0], probes=_nominal(3)),
        # a processor at half speed: probes and ops take twice as long
        run.Round(latencies=[4.0, 8.0], probes=[2 * nominal] * 3),
        # the speed halves during the second op: its probes average 1.5 nominal
        run.Round(latencies=[9.0, 3.0], probes=[2 * nominal, 2 * nominal, nominal]),
    ]
    assert run.op_times(rounds) == pytest.approx([3.0, 2.0])
    assert run.op_times(rounds, scaled=False) == [4.0, 3.0]


def test_end_to_end_metrics_come_from_the_op_times():
    rounds = [
        run.Round(latencies=[float(i + 1) for i in range(40)], probes=_nominal(41),
                  maxrss_mb=10.0, setup=[0.2, 0.8], setup_probes=_nominal(2)),
        run.Round(latencies=[float(i) for i in range(40)], probes=_nominal(41),
                  maxrss_mb=12.0, setup=[0.6], setup_probes=[2 * run.PROBE_NOMINAL_S]),
    ]
    metrics, pct = run.end_to_end(rounds)
    assert metrics["wall_s"] == pytest.approx(sum(i + 0.5 for i in range(40)))
    assert metrics["request_p50_s"] == pytest.approx(20.0)
    assert pct == 75.0 and metrics["request_tail_s"] == pytest.approx(29.5)
    assert metrics["peak_rss_mb"] == 12.0 and metrics["setup_s"] == pytest.approx(0.3)


def test_serial_workloads_run_on_one_processor():
    cpus = os.sched_getaffinity(0)
    one = run.pinned_cpus(1)
    assert len(one) == 1 and one <= cpus
    assert run.pinned_cpus(2) == cpus


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 0, 3.0, 6.0],  # overlaps a: together they cover [1, 6]
        ["c", 1, 2.0, 3.0],  # grandchild: counts against a, not root
    ]
    assert tracer.self_times(spans) == [("root", 5.0), ("a", 2.0), ("b", 3.0), ("c", 1.0)]


def test_covered_length_clips_to_the_parent():
    assert tracer.covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
    assert tracer.covered_length([], 0.0, 10.0) == 0.0


def test_layer_metrics_sum_self_time_across_processes():
    main = {"pid": 1, "absent": [], "spans": [["cli.sweep", -1, 0.0, 5.0],
                                             ["cli.pool", 0, 1.0, 4.0]],
            "counts": {"gmf.monotone": 3, "gmf.cone_failures": 1}, "gammas": [["0", "0"], ["1", "2"]],
            "sizes": {"trees.enumerate": [11]}, "profile_terms": 0}
    worker = {"pid": 2, "absent": ["treegmf.gts.gts_shift"],
              "spans": [["gmf.profile", -1, 1.0, 2.5], ["gmf.profile", -1, 2.5, 3.0],
                        ["trace.flush", -1, 3.0, 3.5]],
              "counts": {}, "gammas": [["0", "0"]], "sizes": {}, "profile_terms": 7}
    layers, absent = tracer.layer_metrics([main, worker])
    assert layers["cli.sweep_s"] == 2.0
    # the pool keeps only the time in which no worker span (flush included) runs
    assert layers["cli.pool_s"] == 0.5
    assert layers["gmf.profile_s"] == 2.0
    assert layers["gmf.monotone_checks"] == 3 and layers["gmf.cone_failures"] == 1
    assert (layers["symfunc.gammas"], layers["symfunc.gamma_distinct"],
            layers["symfunc.gamma_zero"]) == (3, 2, 2)
    assert layers["trees.count"] == 11 and layers["gmf.profile_terms"] == 7
    assert absent == ["treegmf.gts.gts_shift"]


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def _without_digest(pool):
    return [[{k: v for k, v in e.items() if k != "digest"} for e in cell] for cell in pool]


def test_pool_regenerates_identically():
    assert _without_digest(workloads.load_pool()) == workloads.generate_pool()


def test_rounds_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.round(7) == w.round(7)
    gmf = workloads.WORKLOADS["gmf-mix"]
    assert gmf.round(7) != gmf.round(8)


def test_gmf_requests_are_trees_with_recorded_digests():
    ops = workloads.WORKLOADS["gmf-mix"].round(3)
    assert len(ops) == sum(c for _, c in workloads.GMF_N_COUNTS)
    for op in ops:
        (name, text), = op.files
        n, *edges = text.splitlines()
        n = int(n)
        assert len(edges) == n - 1
        parent = list(range(n + 1))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for e in edges:
            u, v = map(int, e.split())
            assert find(u) != find(v)
            parent[find(u)] = find(v)
        assert len(op.digest) == 64


def test_expected_tree_counts_agree_with_the_oracle():
    sweeps = json.loads(workloads.EXPECTED_PATH.read_text())["sweeps"]
    for name, n in (("verify-n7", 7), ("verify-air-n9-j2", 9)):
        assert f"trees={free_tree_count(n)}" in sweeps[name]["lines"][0]
        assert "RESULT: PASS" in sweeps[name]["lines"]


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# ---------------------------------------------------------------------------
# output checks and the tracer, on the real CLI
# ---------------------------------------------------------------------------


def _clean_op(tmp_path, env):
    argv = ("verify", "--n", "5", "--format", "csv", "--out", "r.csv")
    run.execute([sys.executable, "-m", "treegmf", *argv], tmp_path, env, tmp_path / "o.txt")
    digest = workloads.sha256((tmp_path / "r.csv").read_bytes())
    return workloads.Op(argv, digest, "r.csv", ("RESULT: PASS",))


def test_corrupted_report_byte_fails_the_op_and_the_run_goes_on(tmp_path, monkeypatch):
    env = run.child_env(tmp_path)
    op = _clean_op(tmp_path, env)
    assert run.run_round([op], tmp_path, env).errors == []

    real_execute = run.execute
    calls = []

    def corrupting_execute(*args):
        res = real_execute(*args)
        calls.append(1)
        if len(calls) == 1:
            report = tmp_path / "r.csv"
            data = bytearray(report.read_bytes())
            data[len(data) // 2] ^= 1
            report.write_bytes(bytes(data))
        return res

    monkeypatch.setattr(run, "execute", corrupting_execute)
    rnd = run.run_round([op, op], tmp_path, env)
    assert len(rnd.latencies) == 2
    assert len(rnd.errors) == 1 and "sha256" in rnd.errors[0]


def test_reports_stay_in_the_working_directory_under_treegmf_out_dir(tmp_path, monkeypatch):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    work = tmp_path / "work"
    work.mkdir()
    op = _clean_op(work, run.child_env(work))
    monkeypatch.setenv("TREEGMF_OUT_DIR", str(elsewhere))
    assert run.run_round([op], work, run.child_env(work)).errors == []
    assert list(elsewhere.iterdir()) == []


def test_nonzero_exit_fails_the_op(tmp_path):
    env = run.child_env(tmp_path)
    op = workloads.Op(("verify", "--n", "1"), "0" * 64)
    rnd = run.run_round([op], tmp_path, env)
    assert len(rnd.errors) == 1 and "exit code 2" in rnd.errors[0]


def test_tracer_records_layers_of_a_gmf_request(tmp_path):
    env = run.child_env(tmp_path)
    n = 6
    op = workloads.gmf_op({"n": n, "basis": "s", "lambda": [n], "edges": [[v - 1, v] for v in range(1, n)]},
                          "path.txt")
    spans = tmp_path / "spans"
    spans.mkdir()
    rnd = run.run_round([op], tmp_path, env, spans_prefix=str(spans / "op"))
    assert "sha256" in rnd.errors[0]  # no digest was given; the request itself ran
    layers, absent = tracer.layer_metrics(tracer.load_records(sorted(spans.iterdir())))
    assert absent == []
    assert layers["gmf.profile_terms"] == path_matching_count(n)
    assert layers["symfunc.gammas"] == 1 and layers["gmf.assembly_calls"] == 1
    assert layers["trees.canonical_calls"] == 1
    assert layers["gmf.profile_s"] > 0 and layers["cli.report_s"] > 0
