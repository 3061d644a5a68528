"""The monotonicity sweep over every proper shift pair of n-vertex trees.

For every pair (lower, upper) of `proper_gts_pairs(n)`, every basis and every
selected shape lam, the sweep checks that each signed coefficient c_r of
d_gamma(xI - L) weakly decreases from lower to upper in the non-negative q^2
cone (for the f basis, in auto mode, after taking coefficient-wise absolute
values), and that every entry of the a[i][r] table does.

The checks run in a[i][r] coordinates.  With alpha_i(gamma) the binomial
transform of gamma's involution-class values,

    c_r(gamma) = sum_i alpha_i(gamma) * a[i][r],

where a[i][r] is c_r of the monomial-basis polynomial at shape 2^i,1^(n-2i)
divided by 2^i; by the brick-tabloid rule one matching DP with matched-edge
weight (s - 1)u gives all of them as integer polynomials in u = q^2, with
nothing divided (`kernel.air_rows`).  So
along a pair the signed difference of any check is sum_i alpha_i * Delta_i
with Delta_i = a[i][.](lower) - a[i][.](upper), and every check of a pair is
a combination of at most n/2+1 difference rows.

* Each (basis, lam) gets its gamma vector, the integers Gamma(0..n/2), from
  `kernel.gamma_values` in closed form, with no power-sum expansion; equal
  (vector, mode) keys are checked once.
* Per tree, a worker takes the integer rows a[i][r][e] (coefficient of u^e)
  from `kernel.air_rows` and appends, for each absolute-mode gamma vector with
  integer alphas A, the row |c_r| = |sum_i A_i a[i][r]|: one row list per
  tree.  A process pool does this only at FLOOR trees per worker or more,
  in a few chunks each; with fewer, starting it costs more than it saves.
* Each row is Kronecker-packed over (r, e) into one int with signed slots
  in `kernel.SlotPacking`, the one slot format of the package (the
  matching DP packs and decodes through it too).  Packing is
  linear, so a pair's packed Delta_i is one subtraction of the two trees'
  packed rows.  One slot width serves the whole sweep, sized from its
  largest |a| (|Delta| is at most twice that) times its largest
  sum_i |A_i|, plus the sign bit; when cfg.out asks for a report, it is
  rounded up to 1, 2, 4 or 8 bytes for the writer's decode.
* Every (gamma vector, mode) has one plan, a list of (row index, integer
  coefficient): the nonzero (i, A_i) in signed mode, its one |c_r| row with
  coefficient 1 in absolute mode.  Per pair, the packed rows are differenced
  once, and per vector s = sum of coefficient * difference row over its
  plan, with one cone test on every slot at once: adding the bias that sets
  only each slot's top bit leaves every slot's top bit set exactly when
  every slot is >= 0.
* Every (pair, basis, lam) check is counted and gets its own failure line;
  checks that share a gamma vector share its result, and none is skipped
  because another implies it.
* A report (`write_report`) walks the pairs a second time after the
  checks, recomputes each pair's sums from the packed rows and decodes each
  (pair, vector) block once, by one C-level cast of its slots (slot by
  slot at other widths), straight to the text of its cells; every (basis,
  lam) that shares the vector reuses it.  Each pair's text is written
  before the next pair's is made, so memory holds one pair, and no
  q-polynomial is built.  The json report is written directly in
  json.dumps's indent-2 layout, not through the encoder.
"""

from __future__ import annotations

import io
import json
import os
from typing import NamedTuple

from . import BASES, kernel
from .gts import GtsPair, proper_gts_pairs
from .kernel import SlotPacking, alphas
from .partitions import Partition, enumerate_partitions
from .trees import CanonicalTree, enumerate_free_trees


def parse_shape_pattern(text: str | None):
    """Shape patterns for --lambda: a comma list of tokens "V", "V^E",
    "V^k" or "V^*" (the last two meaning any multiplicity, zero included).
    A shape matches when its part values are among the tokens' values and
    every fixed multiplicity is met.  "*" or omission matches everything."""
    if text is None or text.strip() == "*":
        return lambda lam: True
    fixed: dict[int, int] = {}
    free: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        v_s, caret, m_s = token.partition("^")
        try:
            v = int(v_s)
            if m_s in ("k", "*"):
                free.add(v)
            elif caret:
                fixed[v] = int(m_s)
                if fixed[v] < 0:
                    raise ValueError
            else:
                fixed[v] = fixed.get(v, 0) + 1
        except ValueError:
            raise ValueError(f"bad shape pattern {text!r}: token {token!r}") from None
    allowed = set(fixed) | free

    def match(lam: Partition) -> bool:
        form = lam.exponential_form()
        if any(v not in allowed for v in form):
            return False
        return all(form.get(v, 0) == m for v, m in fixed.items())

    return match


class SweepConfig:
    """Configuration of one verification sweep, checked when it is made.
    mode is signed, absolute or auto (absolute for f, signed otherwise)."""

    __slots__ = ("n", "bases", "lambda_filter", "mode", "out", "fmt", "jobs")

    def __init__(self, n: int, bases: tuple[str, ...] = BASES, lambda_filter: str | None = None,
                 mode: str = "auto", out: str | None = None, fmt: str = "json",
                 jobs: int = 1) -> None:
        if n < 2:
            raise ValueError("sweep needs n >= 2")
        if not bases:
            raise ValueError("sweep needs at least one basis")
        bad = [b for b in bases if b not in BASES]
        if bad:
            raise ValueError(f"unknown bases {bad}")
        if mode not in ("signed", "absolute", "auto"):
            raise ValueError(f"mode must be signed, absolute or auto, got {mode}")
        if fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {fmt}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        parse_shape_pattern(lambda_filter)
        self.n, self.bases, self.lambda_filter, self.mode = n, bases, lambda_filter, mode
        self.out, self.fmt, self.jobs = out, fmt, jobs

    def replace(self, **changes) -> SweepConfig:
        """A copy with the given fields changed, checked again."""
        return SweepConfig(**{**{k: getattr(self, k) for k in self.__slots__}, **changes})

    def effective_mode(self, basis: str) -> str:
        if self.mode == "auto":
            return "absolute" if basis == "f" else "signed"
        return self.mode


# fewest trees per pool worker, from the crossover in BENCH_pool.json
FLOOR = 256


def pool_size(jobs: int, cpus: int | None, tasks: int) -> int:
    """Worker processes for a sweep (1: no pool): the requested jobs, but no
    more than the processors this process may run on (cpus, may be None) or
    one per FLOOR tasks, so that each worker's share pays for its start."""
    return max(1, min(jobs, cpus or 1, tasks // FLOOR))


def tree_rows(payload) -> list[list[int]]:
    """Per-tree worker.  Returns the integer rows a[i] of `kernel.air_rows` for
    i = 0..n/2, each flat over (r, e) with entry r*(n+1)+e the coefficient
    of u^e = q^(2e) in a[i][r], followed for each integer alpha vector A by
    the row |sum_i A_i a[i]|."""
    tree, abs_alphas = payload
    # looked up on the module at call time, so that a future wrapper on
    # kernel.air_rows (ROADMAP item 3) would see pool workers' calls too
    rows = kernel.air_rows(tree)
    abs_rows = []
    for coeffs in abs_alphas:
        acc = [0] * len(rows[0])
        for a, row in zip(coeffs, rows):
            if a:
                acc = [x + a * y for x, y in zip(acc, row)]
        abs_rows.append([abs(x) for x in acc])
    return rows + abs_rows


class SweepResult(NamedTuple):
    """Outcome of a sweep.  checks lists every (basis, lam, mode, vector)
    in report order, vector indexing the sums of `_differences`.  The rest
    is what `write_report` recomputes each pair's differences from: codes
    holds per pair its (lower, upper) codes, rows per tree code its packed
    rows (the a[i] rows, then the |c_r| rows), and plans per vector its
    plan."""

    summary: dict
    ok: bool
    checks: tuple[tuple[str, Partition, str, int], ...]
    codes: tuple[tuple[str, str], ...]
    slots: SlotPacking
    rows: dict[str, list[int]]
    plans: tuple[list[tuple[int, int]], ...]


def _witness(pair: GtsPair) -> str:
    path = [v + 1 for v in pair.witness_path]
    return f"x={pair.witness_x + 1} y={pair.witness_y + 1} path={path}"


def _differences(rows: dict, plans, lo: str, up: str) -> tuple[list[int], list[int]]:
    """The packed difference of every row of the pair (lo, up), the first
    n/2+1 being Delta_i, and per vector its packed sum over its plan."""
    deltas = [a - b for a, b in zip(rows[lo], rows[up])]
    sums = [sum(a * deltas[k] for k, a in plan) for plan in plans]
    return deltas, sums


def sweep_pairs(cfg: SweepConfig, trees: list[CanonicalTree], pairs: list[GtsPair]) -> SweepResult:
    """Check every pair of `pairs` (their trees among `trees`) for every
    basis and shape of cfg, and the a[i][r] table along it."""
    n = cfg.n
    m, half = n + 1, n // 2 + 1
    match = parse_shape_pattern(cfg.lambda_filter)
    lambdas = [lam for lam in enumerate_partitions(n) if match(lam)]
    vector_index: dict[tuple, int] = {}
    checks = []
    for basis in cfg.bases:
        mode = cfg.effective_mode(basis)
        for lam in lambdas:
            # on the module at call time, as kernel.air_rows is
            key = (kernel.gamma_values(basis, lam), mode)
            checks.append((basis, lam, mode, vector_index.setdefault(key, len(vector_index))))
    # per vector its plan: the nonzero (i, A_i) of its integer alphas
    # (signed), or its |c_r| row, placed after the a[i] rows (absolute)
    plans, abs_alphas, weight = [], [], 1
    for gamma_j, mode in vector_index:
        alpha = alphas(gamma_j)
        weight = max(weight, sum(map(abs, alpha)))
        if mode == "absolute":
            plans.append([(half + len(abs_alphas), 1)])
            abs_alphas.append(alpha)
        else:
            plans.append([(i, a) for i, a in enumerate(alpha) if a])
    payloads = [(t.representative, abs_alphas) for t in trees]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = pool_size(cfg.jobs, cpus, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a few chunks per worker: one task per tree costs a round trip each
        chunk = max(1, len(payloads) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(tree_rows, payloads, chunksize=chunk))
    else:
        results = [tree_rows(p) for p in payloads]

    # |Delta| <= 2 max|a|, and |c_r| <= weight * max|a|
    amax = max(abs(v) for rows in results for row in rows[:half] for v in row)
    slots = SlotPacking(m * m, 2 * amax * weight, castable=cfg.out is not None)
    packed = {t.code: [slots.pack(row) for row in rows] for t, rows in zip(trees, results)}

    def bad_rs(s: int) -> list[int]:
        return [r for r, row in enumerate(slots.rows(s, m)) if min(row, default=0) < 0]

    failures: list[str] = []
    monotone_failed = air_failed = 0
    for pair in pairs:
        lo, up = pair.lower.code, pair.upper.code
        deltas, sums = _differences(packed, plans, lo, up)
        oks = [slots.nonnegative(s) for s in sums]
        if not all(oks):
            bad = {k: bad_rs(s) for k, s in enumerate(sums) if not oks[k]}
            for basis, lam, mode, k in checks:
                if not oks[k]:
                    monotone_failed += 1
                    failures.append(
                        f"monotone lower={lo} upper={up} basis={basis} "
                        f"lambda={lam.to_exp_string()} mode={mode} r={bad[k]} {_witness(pair)}"
                    )
        air = deltas[:half]
        if not all(map(slots.nonnegative, air)):
            air_failed += 1
            bad_entries = [(i, r) for i, d in enumerate(air) for r in bad_rs(d)]
            failures.append(f"air lower={lo} upper={up} entries={bad_entries} {_witness(pair)}")

    summary = {
        "n": n,
        "bases": list(cfg.bases),
        "lambda": cfg.lambda_filter or "*",
        "mode": cfg.mode,
        "jobs": cfg.jobs,
        "trees": len(trees),
        "pairs": len(pairs),
        "lambdas": len(lambdas),
        "monotoneChecks": len(checks) * len(pairs),
        "monotoneFailures": monotone_failed,
        "airChecks": len(pairs),
        "airFailures": air_failed,
        "failures": failures,
    }
    ok = monotone_failed == 0 and air_failed == 0
    codes = tuple((p.lower.code, p.upper.code) for p in pairs)
    return SweepResult(summary, ok, tuple(checks), codes, slots, packed, tuple(plans))


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run the full monotonicity sweep over every free tree and proper shift
    pair on cfg.n vertices."""
    return sweep_pairs(cfg, enumerate_free_trees(cfg.n), proper_gts_pairs(cfg.n))


# json.dumps(indent=2) layout of the verify report's repeated parts: a
# check or air object at depth 2 of the report, a perR or air entry at
# depth 4, a difference coefficient at depth 6
_JSON_COEFF = '            {\n              "num": "%d",\n              "den": "%d"\n            }'
_JSON_PER_R = (
    '        {\n          "r": %d,\n          "difference": %s,\n          "pass": %s\n        }'
)
_JSON_AIR_ENTRY = (
    '        {\n          "i": %d,\n          "r": %d,\n          "difference": %s,\n'
    '          "pass": %s\n        }'
)
_JSON_PAIR = '    {\n      "pair": {\n        "lower": "%s",\n        "upper": "%s"\n      },\n'
_JSON_PASS = ',\n      "pass": %s\n    }'
_JSON_BOOL = {True: "true", False: "false"}
_CSV_PASS = {True: "pass", False: "FAIL"}
# A difference's rows hold the coefficients of u^e = q^(2e); between two of
# them the q-polynomial has the coefficient 0 of an odd power of q.
_CSV_SEP = ";0/1;"
_JSON_SEP = ",\n" + _JSON_COEFF % (0, 1) + ",\n"


def _json_list(items: list[str], pad: str) -> str:
    """A list of already formatted items, its closing bracket indented by pad."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


class _Cells(dict):
    """c -> form % (c, 1), formatted once per c."""

    def __init__(self, form: str) -> None:
        super().__init__()
        self.form = form

    def __missing__(self, c: int) -> str:
        text = self[c] = self.form % (c, 1)
        return text


def write_report(fh, cfg: SweepConfig, result: SweepResult) -> None:
    """Write the json or csv report of a sweep to the text stream fh, one
    pair at a time.  Each pair's differences are recomputed from the packed
    rows, each (pair, vector) block is decoded and formatted once for every
    (basis, lam) that shares the vector, and the pair's text is written
    before the next pair's is made, so the report is never held whole.  Both
    formats list every air row after every monotone row, so the air rows
    come from a second walk over the pairs."""
    m, half = cfg.n + 1, cfg.n // 2 + 1
    slots = result.slots
    form, sep = (_JSON_COEFF, _JSON_SEP) if cfg.fmt == "json" else ("%d/%d", _CSV_SEP)
    cell = _Cells(form).__getitem__

    def decoded(s: int) -> list[tuple[str, bool]]:
        """Per row of the packed difference s: its coefficients' texts
        joined ("" for a zero row), and whether it is >= 0."""
        ok = slots.nonnegative(s)
        return [
            (sep.join(map(cell, row)), ok or min(row, default=0) >= 0)
            for row in slots.rows(s, m)
        ]

    def monotone_blocks(lo: str, up: str) -> list[list[tuple[str, bool]]]:
        _, sums = _differences(result.rows, result.plans, lo, up)
        return [decoded(s) for s in sums]

    def air_block(lo: str, up: str) -> list[tuple[str, bool]]:
        """The rows of every Delta_i, entry k being (i, r) = divmod(k, m)."""
        lo_rows, up_rows = result.rows[lo][:half], result.rows[up][:half]
        return [row for a, b in zip(lo_rows, up_rows) for row in decoded(a - b)]

    write = _write_json if cfg.fmt == "json" else _write_csv
    write(fh, cfg, result, monotone_blocks, air_block)


def _json_array(text: str) -> str:
    return "[\n" + text + "\n          ]" if text else "[]"


def _write_json(fh, cfg, result, monotone_blocks, air_block) -> None:
    """The json report: the bytes json.dumps(obj, indent=2) + "\\n" writes for
    {"config", "summary", "monotone": [check objects], "air": [air objects]}.
    Only the config and summary go through json.dumps; the rest holds codes
    (parentheses only), basis and mode names, and numbers, so nothing needs
    escaping."""
    head = json.dumps({
        "config": {
            "n": cfg.n,
            "bases": list(cfg.bases),
            "lambda": cfg.lambda_filter or "*",
            "mode": cfg.mode,
        },
        "summary": {k: v for k, v in result.summary.items() if k not in ("failures", "jobs")},
    }, indent=2)
    # per check: its basis, lambda and mode lines, up to the perR value
    heads = [
        '      "basis": "%s",\n      "lambda": %s,\n      "mode": "%s",\n      "perR": '
        % (basis, _json_list(["        %d" % p for p in lam.parts], " " * 6), mode)
        for basis, lam, mode, _ in result.checks
    ]
    # head[:-2] drops the closing "\n}" of the config and summary object
    fh.write(head[:-2] + ',\n  "monotone": [')
    sep = "\n"
    for lo, up in result.codes:
        pair = _JSON_PAIR % (lo, up)
        # per vector: its perR list and the check's closing pass line
        tails = [
            _json_list([_JSON_PER_R % (r, _json_array(text), _JSON_BOOL[ok])
                        for r, (text, ok) in enumerate(blk)], " " * 6)
            + _JSON_PASS % _JSON_BOOL[all(ok for _, ok in blk)]
            for blk in monotone_blocks(lo, up)
        ]
        parts = []
        for head_c, (_, _, _, k) in zip(heads, result.checks):
            parts += (sep, pair, head_c, tails[k])
            sep = ",\n"
        fh.write("".join(parts))
    fh.write(("\n  ]" if sep != "\n" else "]") + ',\n  "air": ' + ("[" if result.codes else "[]"))
    m = cfg.n + 1
    sep = "\n"
    for lo, up in result.codes:
        blk = air_block(lo, up)
        entries = [
            _JSON_AIR_ENTRY % (k // m, k % m, _json_array(text), _JSON_BOOL[ok])
            for k, (text, ok) in enumerate(blk)
        ]
        fh.write(
            sep + _JSON_PAIR % (lo, up) + '      "check": "air-monotone",\n      "entries": '
            + _json_list(entries, " " * 6) + _JSON_PASS % _JSON_BOOL[all(ok for _, ok in blk)]
        )
        sep = ",\n"
    fh.write(("\n  ]" if result.codes else "") + "\n}\n")


def _write_csv(fh, cfg, result, monotone_blocks, air_block) -> None:
    import csv

    def csv_cells(*fields) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(fields)
        return buf.getvalue()

    heads = [
        csv_cells(basis, ",".join(map(str, lam.parts)), mode)
        for basis, lam, mode, _ in result.checks
    ]
    fh.write(csv_cells("check", "lower", "upper", "basis", "lambda", "mode", "i", "r",
                       "difference", "pass") + "\r\n")
    for lo, up in result.codes:
        # row = prefix (check, pair, basis, lambda, mode, empty i) + tail (r on)
        tails = [
            [f"{r},{text},{_CSV_PASS[ok]}\r\n" for r, (text, ok) in enumerate(blk)]
            for blk in monotone_blocks(lo, up)
        ]
        pair = csv_cells(lo, up)
        parts = []
        for head, (_, _, _, k) in zip(heads, result.checks):
            prefix = f"monotone,{pair},{head},,"
            parts.append(prefix + prefix.join(tails[k]))
        fh.write("".join(parts))
    m = cfg.n + 1
    for lo, up in result.codes:
        prefix = f"air,{csv_cells(lo, up)},,,,"
        fh.write("".join(
            f"{prefix}{k // m},{k % m},{text},{_CSV_PASS[ok]}\r\n"
            for k, (text, ok) in enumerate(air_block(lo, up))
        ))
