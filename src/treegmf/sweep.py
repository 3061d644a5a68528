"""The monotonicity sweep over every proper shift pair of n-vertex trees.

For every pair (lower, upper) of `proper_gts_pairs(n)`, every basis and every
shape lam that the --lambda pattern selects (read by
`partitions.parse_shape_pattern`, in gmf's notation), the sweep checks that
each signed coefficient c_r of d_gamma(xI - L) weakly decreases from lower
to upper in the non-negative q^2 cone (for the f basis, in auto mode, after
taking coefficient-wise absolute values), and that every entry of the
a[i][r] table does.

The checks run in a[i][r] coordinates.  With alpha_i(gamma) the binomial
transform of gamma's involution-class values,

    c_r(gamma) = sum_i alpha_i(gamma) * a[i][r],

where a[i][r] is c_r of the monomial-basis polynomial at shape 2^i,1^(n-2i)
divided by 2^i; by the brick-tabloid rule one matching DP with matched-edge
weight (s - 1)u gives all of them as integer polynomials in u = q^2, with
nothing divided (`kernel.air_root`).  So
along a pair the signed difference of any check is sum_i alpha_i * Delta_i
with Delta_i = a[i][.](lower) - a[i][.](upper), and every check of a pair is
a combination of at most n/2+1 difference rows.

* Each (basis, lam) gets its gamma vector, the integers Gamma(0..n/2), from
  `kernel.gamma_values` in closed form, with no power-sum expansion; equal
  (vector, mode) keys are checked once.
* Per tree, `kernel.air_root` gives the matching DP's root int, the
  a-table a[i][r][e] (coefficient of u^e) in slots of its own width, and
  its bound.  A process pool maps it over the trees only at FLOOR trees per
  worker or more, in a few chunks each; with fewer, its start costs more.
* `SlotPacking.repack` copies each root's bytes plane by plane into n/2+1
  row ints over (r, e) at the sweep's width, decoding nothing to lists.
  Packing is linear, so a pair's packed Delta_i is one subtraction of the
  two trees' packed rows.  One slot width serves the whole sweep, sized
  from the largest DP bound (|a| is at most it, |Delta| twice it) times
  the largest sum_i |A_i|, plus the sign bit, rounded up to 1, 2, 4 or 8
  bytes so that one cast decodes a block; so it is never narrower than a
  DP's width, and the repack only widens.
* Each absolute-mode vector with integer alphas A, not all 0, adds to a
  tree's packed rows |c_r| = |sum_i A_i a[i][r]|, the packed sum of its
  a[i] rows made absolute in every slot at once (`SlotPacking.absolute`).
* Every (gamma vector, mode) has one plan, a list of (row index, integer
  coefficient): the nonzero (i, A_i) in signed mode, its one |c_r| row with
  coefficient 1 in absolute mode.  A vector whose alphas are all 0, in
  either mode (m, p and f at every shape not 2^i,1^(n-2i)), has the empty
  plan: its checks pass, and it is never summed.  Per pair, the packed
  rows are differenced once, and per vector s = sum of coefficient *
  difference row over its plan, with one cone test on every slot at once:
  adding the bias that sets only each slot's top bit leaves every slot's
  top bit set exactly when every slot is >= 0.
* A signed plan whose integer A_i are all >= 0 is implied by the air
  check, since a nonnegative combination of rows in the cone stays in it;
  the sweep marks these plans at its start, from each vector's exact A.
  Per pair the n/2+1 air masks run first.  When they all pass, only the
  plans not implied are summed and tested (absolute ones, and signed ones
  with a negative A_i); when one fails, every plan is.
* Every (pair, basis, lam) check is counted and gets its own failure line;
  checks that share a gamma vector share its result, and a check that the
  air check implies is counted as passed.
* A report (`write_report`) walks the pairs a second time after the
  checks, recomputes each pair's sums from the packed rows and formats
  each (pair, vector) block once; every (basis, lam) that shares the
  vector reuses its text.  A block lies in the a-table's triangle
  i0 <= e <= r - i0 of its lowest support index i0, so every block is
  written from one template per i0 by one cast, one itemgetter, one % and
  a fixed number of str.replace passes, after one AND checks that every
  slot outside the triangle is 0; a block that fails its cone test also
  flags each row.  Each pair's text is written before the next pair's is
  made, so memory holds one pair, and no q-polynomial is built.  The json
  report is written directly in json.dumps's indent-2 layout, not through
  the encoder, and the csv report quotes its cells itself.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import NamedTuple

from . import BASES, kernel
from .gts import GtsPair, proper_gts_pairs
from .kernel import SlotPacking, alphas
from .partitions import Partition, enumerate_partitions, parse_shape_pattern
from .trees import CanonicalTree, enumerate_free_trees


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


# fewest trees per pool worker: 2 pay from n=14 on 2 cores (BENCH_repack.json)
FLOOR = 1024


def pool_size(jobs: int, cpus: int | None, tasks: int) -> int:
    """Worker processes for a sweep (1: no pool): the requested jobs, but no
    more than the processors this process may run on (cpus, may be None) or
    one per FLOOR tasks, so that each worker's share pays for its start."""
    return max(1, min(jobs, cpus or 1, tasks // FLOOR))


class SweepResult(NamedTuple):
    """Outcome of a sweep.  checks lists every (basis, lam, mode, vector)
    in report order, vector indexing plans and lows.  The rest
    is what `write_report` recomputes each pair's differences from: the
    caller's pairs, rows per tree code its packed rows (the a[i] rows, then
    the |c_r| rows), plans per vector its plan, and lows per vector the
    smallest i with A_i != 0 (n/2+1 for the zero vector)."""

    summary: dict
    ok: bool
    checks: tuple[tuple[str, Partition, str, int], ...]
    pairs: list[GtsPair]
    slots: SlotPacking
    rows: dict[str, list[int]]
    plans: tuple[list[tuple[int, int]], ...]
    lows: tuple[int, ...]


def _witness(pair: GtsPair) -> str:
    path = [v + 1 for v in pair.witness_path]
    return f"x={pair.witness_x + 1} y={pair.witness_y + 1} path={path}"


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
            # on the module at call time, as kernel.air_root is
            key = (kernel.gamma_values(basis, lam), mode)
            checks.append((basis, lam, mode, vector_index.setdefault(key, len(vector_index))))
    # per vector its plan: the nonzero (i, A_i) of its integer alphas
    # (signed), or its |c_r| row, placed after the a[i] rows (absolute); the
    # open plans are those the air check does not imply.  An absolute vector
    # whose alphas are all 0 has |c_r| = 0, in the cone: no row, empty plan
    plans, lows, open_plans, abs_alphas, weight = [], [], [], [], 1
    for gamma_j, mode in vector_index:
        alpha = alphas(gamma_j)
        weight = max(weight, sum(map(abs, alpha)))
        lows.append(next((i for i, a in enumerate(alpha) if a), half))
        absolute = mode == "absolute" and any(alpha)
        if absolute:
            plans.append([(half + len(abs_alphas), 1)])
            abs_alphas.append(alpha)
        else:
            plans.append([(i, a) for i, a in enumerate(alpha) if a])
        if absolute or min(alpha) < 0:
            open_plans.append((len(plans) - 1, plans[-1]))
    all_plans = [(k, plan) for k, plan in enumerate(plans) if plan]
    reps = [t.representative for t in trees]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = pool_size(cfg.jobs, cpus, len(reps))
    # kernel.air_root is looked up on the module at call time (and by name
    # in pool workers), so that a wrapper on it (ROADMAP item 3) sees every call
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a few chunks per worker: one task per tree costs a round trip each
        chunk = max(1, len(reps) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(kernel.air_root, reps, chunksize=chunk))
    else:
        results = [kernel.air_root(t) for t in reps]

    # |a| <= its DP's bound, so |Delta| <= 2 bound and |c_r| <= weight bound
    slots = SlotPacking(m * m, 2 * weight * max(b for _, b in results), castable=True)
    packed = {}
    results.reverse()  # popped in tree order, so no root outlives its rows
    for t in trees:
        root, b = results.pop()
        a_rows = SlotPacking(half * m * m, b).repack(root, slots)
        packed[t.code] = a_rows + [slots.absolute(sum(a * p for a, p in zip(alpha, a_rows) if a))
                                   for alpha in abs_alphas]

    def bad_rs(s: int) -> list[int]:
        values = slots.values(s)
        return [r for r in range(m) if min(values[r * m:(r + 1) * m]) < 0]

    failures: list[str] = []
    monotone_failed = air_failed = 0
    nonnegative = slots.nonnegative
    for pair in pairs:
        lo, up = pair.lower.code, pair.upper.code
        deltas = [a - b for a, b in zip(packed[lo], packed[up])]
        air = deltas[:half]
        air_ok = all(map(nonnegative, air))
        # the sums of the plans the air check does not decide, and of every
        # plan when it fails
        bad = {}
        for k, plan in open_plans if air_ok else all_plans:
            s = sum(a * deltas[j] for j, a in plan)
            if not nonnegative(s):
                bad[k] = bad_rs(s)
        if bad:
            for basis, lam, mode, k in checks:
                if k in bad:
                    monotone_failed += 1
                    failures.append(
                        f"monotone lower={lo} upper={up} basis={basis} "
                        f"lambda={lam.to_exp_string()} mode={mode} r={bad[k]} {_witness(pair)}"
                    )
        if not air_ok:
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
    return SweepResult(summary, ok, tuple(checks), pairs, slots, packed, tuple(plans), tuple(lows))


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
_JSON_END = "\n          ]"  # closes a difference's coefficient list
_CSV_PASS = {True: "pass", False: "FAIL"}
# A difference's rows hold the coefficients of u^e = q^(2e); between two of
# them the q-polynomial has the coefficient 0 of an odd power of q.
_CSV_SEP = ";0/1;"
_JSON_SEP = ",\n" + _JSON_COEFF % (0, 1) + ",\n"


def _json_array(text: str) -> str:
    return "[\n" + text + _JSON_END if text else "[]"


def _json_list(items: list[str], pad: str) -> str:
    """A list of already formatted items, its closing bracket indented by pad."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


# the two kinds of block: a (pair, vector) sum, its rows labelled r, and a
# Delta_i, its rows labelled (i, r)
_MONOTONE, _AIR = 0, 1


def write_report(fh, cfg: SweepConfig, result: SweepResult) -> None:
    """Write the json or csv report of a sweep to the text stream fh, one
    pair at a time.  Each pair's differences are recomputed from the packed
    rows, each (pair, vector) block is decoded and formatted once for every
    (basis, lam) that shares the vector, and the pair's text is written
    before the next pair's is made, so the report is never held whole.  Both
    formats list every air row after every monotone row, so the air rows
    come from a second walk over the pairs.

    A block is a sum of A_i Delta_i over i >= i0 (i0 = i for the air block
    Delta_i, the vector's low index otherwise), so its slots lie in the
    triangle i0 <= e <= r - i0 of a[i0], and every block is formatted in
    one pass.  One cast decodes its slots and one AND checks that every slot
    outside the triangle is 0 (ValueError if not).  One itemgetter picks the
    triangle's slots, and one % writes them into a short form: per row "<",
    its numbers joined by ";" up to e = r - i0, and ">", rows apart by
    "\0".  str.replace passes cut each row after its last nonzero number,
    2^j trailing zeros at a time, largest j first, and then a row whose one
    number is 0; four more write "<>", "<", ">" and ";" as the format's
    text, and a second % puts the rows into the block's text template.  A
    block that passes its cone test takes the template whose rows all read
    pass; one that fails takes the template with a "%s" for each row's
    flag, which passes when the row's slots, 0 outside the triangle, are
    all >= 0."""
    n = cfg.n
    m, half = n + 1, n // 2 + 1
    slots = result.slots
    if cfg.fmt == "json":
        form, sep, flags, join, wrap = _JSON_COEFF, _JSON_SEP, _JSON_BOOL, ",\n", _json_array
        row_forms = {_MONOTONE: _JSON_PER_R, _AIR: _JSON_AIR_ENTRY}
    else:
        form, sep, flags, join, wrap = "%d/%d", _CSV_SEP, _CSV_PASS, "", str
        row_forms = {_MONOTONE: "%d,%s,%s\r\n", _AIR: "%d,%d,%s,%s\r\n"}

    # the text before and after the number of one cell, and of a row's cells
    head, tail = (form.replace("%d", "\0", 1) % 1).split("\0")
    opening, closing = wrap(head + "\0" + tail).split("\0")
    passes = [(";0" * (1 << j) + ">", ">") for j in reversed(range(n.bit_length()))]
    passes += [("<0>", "<>"), ("<>", wrap("")), ("<", opening), (">", closing),
              (";", tail + sep + head)]

    def template(kind: int, i0: int) -> tuple:
        """The short form of a block with "%d" for each slot of the triangle
        of i0; the block's text with "%s" for each row's difference, once
        with every row's pass flag set and once with "%s" for each flag;
        the mask of every slot outside the triangle; and the getter of the
        triangle's slots in text order."""
        short = "\0".join(
            "<" + (";".join(["0"] * i0 + ["%d"] * (r - 2 * i0 + 1)) if r >= 2 * i0 else "") + ">"
            for r in range(m)
        )
        lead = (i0,) if kind == _AIR else ()
        flagged = join.join(row_forms[kind] % (*lead, r, "%s", "%s") for r in range(m))
        picks = [r * m + e for r in range(m) for e in range(i0, r - i0 + 1)]
        outside = slots.mask(sorted(set(range(m * m)).difference(picks)))
        return (short, flagged % (("%s", flags[True]) * m), flagged, outside,
                itemgetter(*picks) if picks else lambda values: ())

    # i0 = n/2+1 for the zero vector, whose triangle is empty
    templates = {(kind, i0): template(kind, i0) for kind in (_MONOTONE, _AIR)
                 for i0 in range(half + 1)}

    def block(s: int, kind: int, i0: int) -> tuple[str, bool]:
        short, text, flagged, outside, getter = templates[kind, i0]
        values = slots.values(s, outside)
        short %= getter(values)
        for old, new in passes:
            short = short.replace(old, new)
        rows = short.split("\0")
        if slots.nonnegative(s):
            return text % tuple(rows), True
        marks = [flags[min(values[k:k + m]) >= 0] for k in range(0, m * m, m)]
        return flagged % tuple(x for row_mark in zip(rows, marks) for x in row_mark), False

    plans, lows = result.plans, result.lows

    def monotone_blocks(p: GtsPair) -> list[tuple[str, bool]]:
        deltas = [a - b for a, b in zip(result.rows[p.lower.code], result.rows[p.upper.code])]
        return [block(sum(a * deltas[j] for j, a in plan), _MONOTONE, low)
                for plan, low in zip(plans, lows)]

    def air_blocks(p: GtsPair) -> list[tuple[str, bool]]:
        """The block of every Delta_i, in order of i."""
        lo_rows, up_rows = result.rows[p.lower.code][:half], result.rows[p.upper.code][:half]
        return [block(a - b, _AIR, i) for i, (a, b) in enumerate(zip(lo_rows, up_rows))]

    write = _write_json if cfg.fmt == "json" else _write_csv
    write(fh, cfg, result, monotone_blocks, air_blocks)


def _write_json(fh, cfg, result, monotone_blocks, air_blocks) -> None:
    """The json report: the bytes json.dumps(obj, indent=2) + "\\n" writes for
    {"config", "summary", "monotone": [check objects], "air": [air objects]}.
    Only the config and summary go through json.dumps; the rest holds codes
    (parentheses only), basis and mode names, and numbers, so nothing needs
    escaping."""
    import json

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
    for p in result.pairs:
        pair = _JSON_PAIR % (p.lower.code, p.upper.code)
        # per vector: its perR list and the check's closing pass line
        tails = ["[\n" + text + "\n      ]" + _JSON_PASS % _JSON_BOOL[ok]
                 for text, ok in monotone_blocks(p)]
        parts = []
        for head_c, (_, _, _, k) in zip(heads, result.checks):
            parts += (sep, pair, head_c, tails[k])
            sep = ",\n"
        fh.write("".join(parts))
    fh.write(("\n  ]" if sep != "\n" else "]") + ',\n  "air": ' + ("[" if result.pairs else "[]"))
    sep = "\n"
    for p in result.pairs:
        blocks = air_blocks(p)
        fh.write(
            sep + _JSON_PAIR % (p.lower.code, p.upper.code) + '      "check": "air-monotone",\n'
            + '      "entries": [\n' + ",\n".join(text for text, _ in blocks) + "\n      ]"
            + _JSON_PASS % _JSON_BOOL[all(ok for _, ok in blocks)]
        )
        sep = ",\n"
    fh.write(("\n  ]" if result.pairs else "") + "\n}\n")


def _csv_row(*fields: str) -> str:
    """fields as one csv row, without its line end, in csv.writer's quoting:
    a field holding a comma is quoted.  Only a lambda of two or more parts
    does; names, codes (parentheses only) and numbers hold no comma, quote
    or line break."""
    return ",".join(f'"{f}"' if "," in f else f for f in fields)


def _write_csv(fh, cfg, result, monotone_blocks, air_blocks) -> None:
    """The csv report: the rows csv.writer writes, each ending in \\r\\n.  A
    block's text holds one row per line, from its r (its i for the air) on;
    each line gets the check's leading fields by one replace."""
    heads = [
        _csv_row(basis, ",".join(map(str, lam.parts)), mode)
        for basis, lam, mode, _ in result.checks
    ]
    fh.write(_csv_row("check", "lower", "upper", "basis", "lambda", "mode", "i", "r",
                      "difference", "pass") + "\r\n")
    n, lines = cfg.n, (cfg.n // 2 + 1) * (cfg.n + 1)
    for p in result.pairs:
        blocks = monotone_blocks(p)
        pair = _csv_row(p.lower.code, p.upper.code)
        parts = []
        for head, (_, _, _, k) in zip(heads, result.checks):
            prefix = f"monotone,{pair},{head},,"
            parts += (prefix, blocks[k][0].replace("\n", "\n" + prefix, n))
        fh.write("".join(parts))
    for p in result.pairs:
        prefix = f"air,{_csv_row(p.lower.code, p.upper.code)},,,,"
        text = "".join(text for text, _ in air_blocks(p))
        fh.write(prefix + text.replace("\n", "\n" + prefix, lines - 1))
