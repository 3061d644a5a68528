"""Workloads of the treegmf benchmark and the checks on their outputs.

A workload yields rounds.  A round is a fixed list of CLI invocations (ops)
made from the seed; the runner times each op in a fresh process and then
checks it.  Every op's output is compared with a sha256 digest recorded at
the seed commit (perfbench/data), so a run on any seed checks every byte.

Workloads, and the layers each one loads (the others barely touch them):

* verify-n7: `verify --n 7`, all six bases, every shape, `--jobs 1`, csv
  report.  11 trees.  Coefficient assembly, the cone check and report
  writing do most of the work.
* verify-air-n9-j2: `verify --n 9 --bases m --lambda 2^k,1^* --jobs 2`,
  csv report.  47 trees, few gammas.  Matching enumeration in the per-tree
  workers does most of the work; the only workload that runs the process
  pool.
* poset-n12: `poset --n 12`, json.  551 trees, 3233 pairs.  Free-tree
  enumeration and proper-pair generation; never enters gmf.
* gmf-mix: 40 single-tree `gmf` requests per round, n from 9 to 13 (more
  small trees than large ones), random recursive trees, caterpillars whose
  spine holds a third to two thirds of the vertices, and paths, every basis,
  lambda uniform over the partitions of n.  Matching
  enumeration dominates on paths; the m-in-p inversion in symfunc dominates
  the m and f requests, because every process starts cold.

The sweeps are small enough that a run repeats them many times, and
gmf-mix's requests are cheap enough that every one is repeated at least
twice.  The sweeps are fixed problems: their seed only reorders list arguments that
the CLI puts in canonical order, so their digests hold for every seed.  The
gmf requests are drawn by the seed from a pool generated once from
POOL_SEED, whose digests are recorded; the seed also relabels every tree's
vertices and reorders its edges, which must not change the output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "data" / "expected.json"
POOL_PATH = HERE / "data" / "gmf_pool.json"

BASES = ("m", "e", "h", "p", "s", "f")
SHAPES = ("rrt", "caterpillar", "path")
# (n, requests per round): 40 requests, so request_tail_s is p75.
GMF_N_COUNTS = ((9, 12), (10, 12), (11, 8), (12, 5), (13, 3))
POOL_PER_CELL = 10
POOL_SEED = "treegmf-gmf-pool-2"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must be."""

    argv: tuple[str, ...]
    digest: str  # sha256 of the report file, or of stdout when out is None
    out: str | None = None  # report path, relative to the working directory
    lines: tuple[str, ...] = ()  # lines stdout must contain
    files: tuple[tuple[str, str], ...] = ()  # input files (name, text) to write first


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int

    def round(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def serial_round(self, seed: int) -> list[Op]:
        """The same problem at --jobs 1, for parallel efficiency."""
        return [
            replace(op, argv=_with_jobs(op.argv, 1)) for op in self.round(seed)
        ]


def _with_jobs(argv: tuple[str, ...], jobs: int) -> tuple[str, ...]:
    out = list(argv)
    out[out.index("--jobs") + 1] = str(jobs)
    return tuple(out)


def _expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep(Workload):
    command: str = "verify"
    n: int = 0
    bases: tuple[str, ...] = ()
    lambda_tokens: tuple[str, ...] = ()
    out: str = "report.csv"

    def argv(self, seed: int) -> tuple[str, ...]:
        rng = random.Random(seed)
        argv = [self.command, "--n", str(self.n)]
        if self.bases:
            argv += ["--bases", ",".join(rng.sample(self.bases, len(self.bases)))]
        if self.lambda_tokens:
            argv += ["--lambda", ",".join(rng.sample(self.lambda_tokens, len(self.lambda_tokens)))]
        if self.command == "verify":
            argv += ["--jobs", str(self.jobs), "--format", "csv"]
        return tuple(argv + ["--out", self.out])

    def round(self, seed: int) -> list[Op]:
        exp = _expected()["sweeps"][self.name]
        return [Op(self.argv(seed), exp["digest"], self.out, tuple(exp["lines"]))]


# ---------------------------------------------------------------------------
# gmf requests
# ---------------------------------------------------------------------------


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, parts weakly decreasing."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def make_tree(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges (0-based) of a random tree of the given shape on n vertices."""
    if shape == "path":
        return [(v - 1, v) for v in range(1, n)]
    if shape == "rrt":  # random recursive tree: vertex v joins a uniform earlier vertex
        return [(rng.randrange(v), v) for v in range(1, n)]
    if shape == "caterpillar":  # a spine of n/3..2n/3 vertices, the rest hang off it
        spine = rng.randint(n // 3 + 1, 2 * n // 3)
        return [(v - 1, v) for v in range(1, spine)] + [
            (rng.randrange(spine), v) for v in range(spine, n)
        ]
    raise ValueError(f"unknown shape {shape!r}")


def gmf_cells() -> list[tuple[int, str, str]]:
    """The fixed (n, shape, basis) design of one round.  Shapes rotate
    against bases so that no basis is tied to one shape."""
    cells = []
    for n, count in GMF_N_COUNTS:
        for _ in range(count):
            i = len(cells)
            cells.append((n, SHAPES[(i + i // 6) % 3], BASES[i % 6]))
    return cells


def generate_pool() -> list[list[dict]]:
    """POOL_PER_CELL requests (tree and lambda) per cell, from POOL_SEED."""
    pool = []
    for i, (n, shape, basis) in enumerate(gmf_cells()):
        entries = []
        for k in range(POOL_PER_CELL):
            rng = random.Random(f"{POOL_SEED}:{i}:{k}")
            edges = make_tree(shape, n, rng)
            lam = rng.choice(partitions(n))
            entries.append({"n": n, "shape": shape, "basis": basis,
                            "lambda": list(lam), "edges": [list(e) for e in edges]})
        pool.append(entries)
    return pool


def load_pool() -> list[list[dict]]:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def tree_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in edges)


def lambda_arg(parts, exponential: bool) -> str:
    if not exponential:
        return ",".join(map(str, parts))
    values = sorted(set(parts), reverse=True)
    return ",".join(f"{v}^{parts.count(v)}" for v in values)


def gmf_op(entry: dict, name: str, rng: random.Random | None = None) -> Op:
    """The request for one pool entry.  With rng, the tree's vertices are
    relabeled, its edges reordered and the lambda spelling chosen at random."""
    n, edges = entry["n"], [tuple(e) for e in entry["edges"]]
    exponential = False
    if rng is not None:
        perm = rng.sample(range(n), n)
        edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
                 for u, v in edges]
        rng.shuffle(edges)
        exponential = rng.random() < 0.5
    argv = ("gmf", "--tree", name, "--basis", entry["basis"],
            "--lambda", lambda_arg(entry["lambda"], exponential), "--format", "json")
    return Op(argv, entry.get("digest", ""), files=((name, tree_text(n, edges)),))


@dataclass(frozen=True)
class GmfMix(Workload):
    def round(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        pool = load_pool()
        ops = [gmf_op(cell[rng.randrange(len(cell))], f"tree{i:02d}.txt", rng)
               for i, cell in enumerate(pool)]
        rng.shuffle(ops)
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("verify-n7", jobs=1, n=7, bases=BASES),
        Sweep("verify-air-n9-j2", jobs=2, n=9, bases=("m",), lambda_tokens=("2^k", "1^*")),
        Sweep("poset-n12", jobs=1, command="poset", n=12, out="poset.json"),
        GmfMix("gmf-mix", jobs=1),
    )
}


def check(op: Op, returncode: int, stdout: bytes, report: bytes | None) -> str | None:
    """None when the op's output is right, else what is wrong with it."""
    if returncode != 0:
        return f"exit code {returncode}"
    text = stdout.decode("utf-8", "replace").splitlines()
    for line in op.lines:
        if line not in text:
            return f"stdout lacks {line!r}"
    data = stdout if op.out is None else report
    if data is None:
        return f"no report at {op.out}"
    if sha256(data) != op.digest:
        return "sha256 differs from the recorded digest"
    return None
