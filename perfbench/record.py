"""Record the outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are taken as correct.  It
writes perfbench/data/expected.json (per sweep: the sha256 of its report and
the stdout lines that must appear) and perfbench/data/gmf_pool.json (the gmf
request pool with the sha256 of each request's stdout), then replays the
default seed and a held-out seed through the benchmark's own checks.  The
treegmf reports are meant to stay byte-identical, so this is not rerun by a
change that only makes the program faster.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
import workloads
from workloads import EXPECTED_PATH, POOL_PATH, WORKLOADS, GmfMix, Op, Sweep, gmf_op, sha256

DEFAULT_SEED = 0
HELD_OUT_SEED = 20191206
SUMMARY_PREFIXES = ("trees=", "monotone checks:", "air checks:", "RESULT:")


def _run_op(op, workdir, env) -> tuple[int, bytes, bytes | None]:
    for name, text in op.files:
        (workdir / name).write_text(text, encoding="utf-8")
    stdout_path = workdir / "stdout.txt"
    res = run.execute([sys.executable, "-m", "treegmf", *op.argv], workdir, env, stdout_path)
    report = (workdir / op.out).read_bytes() if op.out else None
    return res.returncode, stdout_path.read_bytes(), report


def record_sweep(sweep: Sweep, workdir) -> dict:
    op = Op(sweep.argv(DEFAULT_SEED), "", sweep.out)
    code, stdout, report = _run_op(op, workdir, run.child_env(workdir))
    if code != 0:
        raise SystemExit(f"{sweep.name}: exit code {code}")
    lines = [ln for ln in stdout.decode().splitlines() if ln.startswith(SUMMARY_PREFIXES)]
    return {"digest": sha256(report), "lines": lines}


def record_pool(workdir) -> list[list[dict]]:
    pool = workloads.generate_pool()
    entries = [e for cell in pool for e in cell]

    def digest(job):
        i, entry = job
        sub = workdir / f"pool{i}"
        sub.mkdir()
        code, stdout, _ = _run_op(gmf_op(entry, "tree.txt"), sub, run.child_env(sub))
        if code != 0:
            raise SystemExit(f"pool entry {entry}: exit code {code}")
        return sha256(stdout)

    with ThreadPoolExecutor(max_workers=2) as ex:
        for entry, d in zip(entries, ex.map(digest, enumerate(entries))):
            entry["digest"] = d
    return pool


def replay(seed: int) -> None:
    for name in WORKLOADS:
        result = run.run_workload(name, seed, seconds=0.0, trace=False)
        if not result["correct"]:
            raise SystemExit(f"{name} fails its checks at seed {seed}")


def main() -> int:
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        expected = {"sweeps": {}}
        EXPECTED_PATH.parent.mkdir(exist_ok=True)
        for w in WORKLOADS.values():
            if isinstance(w, Sweep):
                expected["sweeps"][w.name] = record_sweep(w, workdir)
                print(w.name, expected["sweeps"][w.name], flush=True)
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1)
            fh.write("\n")
        if any(isinstance(w, GmfMix) for w in WORKLOADS.values()):
            pool = record_pool(workdir)
            with open(POOL_PATH, "w", encoding="utf-8") as fh:
                json.dump(pool, fh, separators=(",", ":"))
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    replay(DEFAULT_SEED)
    replay(HELD_OUT_SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
