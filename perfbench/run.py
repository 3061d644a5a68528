"""Benchmark of the treegmf command-line program.

Run from the root of a checkout (it uses the package under src/):

    python3 perfbench/run.py --workload verify-n7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload in turn

One closed-loop client starts each CLI invocation (op) as a fresh
`python3 -m treegmf` process once the previous one has exited (on one
processor, unless the workload runs a process pool), and checks
every output (exit code, expected stdout lines, sha256 of the report or of
stdout).  An op that exits non-zero, times out or fails a check counts as
failed; the run goes on.  Ops are grouped into rounds (see workloads.py);
rounds repeat while another one fits in --seconds, and there are at least
MIN_ROUNDS.

Times are given at a fixed processor speed.  On a shared machine the
speed of each processor changes by up to a factor of two for seconds to
minutes at a time, so raw wall times of 30 s runs spread by 10-20% from run
to run whatever statistic is taken.  The runner therefore times a fixed
pure-Python loop (the probe, PROBE_NOMINAL_S at the reference speed) on the
processors the workload uses before the first op, after every op and before
every set-up launch, and scales each wall time by PROBE_NOMINAL_S / probe
time (for an op, the mean of the probes just before and after it).  This
halves the spread.  The probe is the benchmark's own code, so a change to
treegmf moves only the op times.  Unscaled figures are printed as text.

Every round repeats the same ops; an op's time is the median of its scaled
repetitions.  End-to-end metrics (--trace 0):

  wall_s          one round: the sum of its ops' times
  request_p50_s   median of the ops' times
  request_tail_s  the largest op time with at least ten above it (p75 of
                  gmf-mix's 40 requests); with fewer than 20 ops the
                  median (a sweep round is one op, so on sweeps both
                  request metrics repeat wall_s)
  peak_rss_mb     largest resident set of any process in the run (the CLI
                  and its pool workers, from wait4)
  setup_s         median of the scaled times of fresh interpreters doing
                  start-up + `import treegmf` + `build_parser()`, launched
                  before every SETUP_EVERY-th op so that they sample the
                  whole run (at least SETUP_LAUNCHES); nothing is warmed,
                  because CLI users pay this on every call

--trace 1 runs untraced rounds for half of --seconds, then one round under
perfbench/tracer.py, then (for a pool workload) one untraced round at
--jobs 1, and reports the per-layer metrics in PER_LAYER.  The failed
ratio, the cone failures and the absent trace targets read 0 when all is
well, so they are printed as text but are not metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The exit
code is 1 if any op failed, 2 if the checkout has no treegmf sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Op, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_LAUNCHES = 10
SETUP_EVERY = 8
SETUP_CODE = "import treegmf.cli as cli; cli.build_parser()"
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
MIN_ROUNDS = 2
PROBE_LOOPS = 30_000
PROBE_NOMINAL_S = 0.012

END_TO_END = {
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **{name: "s" for name in tracer.LAYER_SECONDS},
    "trees.canonical_calls": "count",
    "trees.count": "count",
    "gts.shift_tests": "count",
    "gts.pairs": "count",
    "gts.pair_yield": "ratio",
    "gmf.profile_terms": "count",
    "symfunc.gammas": "count",
    "symfunc.gamma_distinct": "count",
    "symfunc.gamma_zero": "count",
    "gmf.assembly_calls": "count",
    "gmf.monotone_checks": "count",
    "gmf.air_checks": "count",
    "cli.report_bytes": "bytes",
    "proc.cpu_s": "s",
    "proc.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    wall: float
    returncode: int
    maxrss_mb: float
    cpu_s: float
    timed_out: bool


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    maxrss_mb: float = 0.0
    cpu_s: float = 0.0
    out_bytes: int = 0
    probes: list[float] = field(default_factory=list)  # before the first op and after each
    setup: list[float] = field(default_factory=list)  # set-up launch walls
    setup_probes: list[float] = field(default_factory=list)  # before each launch

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list[float]:
        return [scale(lat, (before + after) / 2)
                for lat, before, after in zip(self.latencies, self.probes, self.probes[1:])]

    @property
    def setup_scaled(self) -> list[float]:
        return [scale(wall, p) for wall, p in zip(self.setup, self.setup_probes)]


def scale(wall: float, probe_s: float) -> float:
    """A wall time at the speed at which the probe takes PROBE_NOMINAL_S."""
    return wall * PROBE_NOMINAL_S / probe_s


def probe_loop() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(PROBE_LOOPS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return len(table)


def probe() -> float:
    """Seconds the probe loop takes on each processor this process may use
    (and so the workload's processes), averaged over those processors."""
    cpus = os.sched_getaffinity(0)
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        probe_loop()
        times.append(time.perf_counter() - t0)
    os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def child_env(tmp: Path) -> dict[str, str]:
    """The caller's environment, less TREEGMF_OUT_DIR, which would move the
    reports away from the working directory where the checks read them."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    env.pop("TREEGMF_OUT_DIR", None)
    return env


def execute(cmd: list[str], cwd: Path, env: dict[str, str], stdout_path: Path) -> Result:
    """Run one process to completion and time it.  The process leads its own
    session so a timeout kills its pool workers too; wait4 reports the
    largest resident set and the CPU time of it and of the children it
    waited for."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  usage.ru_utime + usage.ru_stime, killed.is_set())


def launch_setup(rnd: Round, workdir: Path, env: dict[str, str]) -> None:
    rnd.setup_probes.append(probe())
    res = execute([sys.executable, "-c", SETUP_CODE], workdir, env, workdir / "setup.txt")
    rnd.setup.append(res.wall)
    if res.returncode != 0:
        rnd.errors.append(f"set-up launch: exit code {res.returncode}")


def run_round(ops: list[Op], workdir: Path, env: dict[str, str],
              spans_prefix: str | None = None, setup: bool = False) -> Round:
    """Run ops one after another, each followed by a probe and then the
    check of its output; with setup, a set-up launch precedes every
    SETUP_EVERY-th op."""
    rnd = Round()
    for name, text in (f for op in ops for f in op.files):
        (workdir / name).write_text(text, encoding="utf-8")
    rnd.probes.append(probe())
    for i, op in enumerate(ops):
        if setup and i % SETUP_EVERY == 0:
            launch_setup(rnd, workdir, env)
        if spans_prefix is None:
            cmd = [sys.executable, "-m", "treegmf", *op.argv]
        else:
            cmd = [sys.executable, str(TRACER), f"{spans_prefix}{i:03d}", "--", *op.argv]
        stdout_path = workdir / "stdout.txt"
        res = execute(cmd, workdir, env, stdout_path)
        rnd.probes.append(probe())
        stdout = stdout_path.read_bytes()
        report_path = workdir / op.out if op.out else None
        report = report_path.read_bytes() if report_path and report_path.exists() else None
        error = "timed out" if res.timed_out else check(op, res.returncode, stdout, report)
        if error:
            stderr_tail = stdout_path.with_suffix(".err").read_text("utf-8", "replace")[-300:]
            rnd.errors.append(f"{' '.join(op.argv)}: {error} {stderr_tail.strip()}")
        rnd.latencies.append(res.wall)
        rnd.maxrss_mb = max(rnd.maxrss_mb, res.maxrss_mb)
        rnd.cpu_s += res.cpu_s
        rnd.out_bytes += len(stdout) + (len(report) if report else 0)
        if report_path and report_path.exists():
            report_path.unlink()
    return rnd


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the largest sample with at least TAIL_BEYOND
    samples above it, or the median when that would fall below it."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(samples)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def run_rounds(ops: list[Op], workdir: Path, env: dict[str, str], seconds: float) -> list[Round]:
    """At least MIN_ROUNDS rounds, then more while the next one, as long as
    the median so far, still fits; then set-up launches up to
    SETUP_LAUNCHES."""
    rounds: list[Round] = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(ops, workdir, env, setup=True))
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - t0 + typical > seconds:
            break
    while sum(len(r.setup) for r in rounds) < SETUP_LAUNCHES:
        launch_setup(rounds[-1], workdir, env)
    return rounds


def op_times(rounds: list[Round], scaled: bool = True) -> list[float]:
    """Each op's median latency over the rounds, scaled or not."""
    return [statistics.median(lat)
            for lat in zip(*(r.scaled if scaled else r.latencies for r in rounds))]


def end_to_end(rounds: list[Round]) -> tuple[dict[str, float], float]:
    ops = op_times(rounds)
    tail_pct, tail_value = tail(ops)
    metrics = {
        "wall_s": sum(ops),
        "request_p50_s": statistics.median(ops),
        "request_tail_s": tail_value,
        "peak_rss_mb": max(r.maxrss_mb for r in rounds),
        "setup_s": statistics.median(t for r in rounds for t in r.setup_scaled),
    }
    return metrics, tail_pct


def per_layer(workload, seed: int, rounds: list[Round], workdir: Path,
              env: dict[str, str]) -> tuple[dict[str, float], list[Round], list[str]]:
    """One traced round (and, for a pool workload, one serial round) after
    the untraced ones; returns the metrics, the extra rounds and the absent
    trace targets."""
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    traced = run_round(workload.round(seed), workdir, env, spans_prefix=str(spans_dir / "op"))
    layers, absent = tracer.layer_metrics(tracer.load_records(sorted(spans_dir.iterdir())))
    wall = sum(op_times(rounds))
    extra = [traced]
    efficiency = 1.0
    if workload.jobs > 1:
        serial = run_round(workload.serial_round(seed), workdir, env)
        extra.append(serial)
        efficiency = sum(serial.scaled) / (workload.jobs * wall)
    layers.update({
        "cli.report_bytes": traced.out_bytes,
        "proc.cpu_s": statistics.median(r.cpu_s for r in rounds),
        "proc.parallel_efficiency": efficiency,
        "trace.overhead_s": sum(traced.scaled) - wall,
    })
    return layers, extra, absent


def pinned_cpus(jobs: int) -> set[int]:
    """The processors a workload's processes may run on: for a serial
    workload, one, so that an op is not moved between processors whose
    speed differs; otherwise all that this process may use."""
    cpus = os.sched_getaffinity(0)
    return cpus if jobs > 1 else {min(cpus)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, pinned_cpus(workload.jobs))  # children inherit it
    try:
        env = child_env(workdir)
        ops = workload.round(seed)
        rounds = run_rounds(ops, workdir, env, seconds / 2 if trace else seconds)
        metrics, tail_pct = end_to_end(rounds)
        extra: list[Round] = []
        if trace:
            metrics, extra, absent = per_layer(workload, seed, rounds, workdir, env)
        all_rounds = rounds + extra
        errors = [e for r in all_rounds for e in r.errors]
        attempted = sum(len(r.latencies) + len(r.setup) for r in all_rounds)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}: seed {seed}, {len(rounds)} untraced round(s) of {len(ops)} op(s)"
          f"{', plus traced rounds' if trace else ''}")
    print(f"  round walls (s): {' '.join(f'{r.wall:.3f}' for r in rounds)}")
    print(f"  unscaled: wall_s {sum(op_times(rounds, scaled=False)):.4f} s, setup_s "
          f"{statistics.median(t for r in rounds for t in r.setup):.4f} s; probe median "
          f"{statistics.median(p for r in rounds for p in r.probes) * 1e3:.2f} ms "
          f"(nominal {PROBE_NOMINAL_S * 1e3:.0f} ms)")
    for err in errors[:20]:
        print(f"  FAILED {err}")
    print(f"  failed_ratio = {len(errors)}/{attempted} launches (ops and set-up)")
    if not trace:
        print(f"  request_tail_s is p{tail_pct:.1f} of the times of {len(ops)} op(s); "
              f"setup_s is the median of {sum(len(r.setup) for r in rounds)} launches")
    else:
        print(f"  gmf.cone_failures = {metrics['gmf.cone_failures']}; "
              f"absent trace targets: {', '.join(absent) if absent else 'none'}")
    units = PER_LAYER if trace else END_TO_END
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treegmf" / "cli.py").is_file():
        print(f"error: no treegmf sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
