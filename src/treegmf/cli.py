"""Command-line front end.

Subcommands:

  trees        list all unlabeled trees on n vertices
  poset        export the proper-shift digraph (DOT or JSON)
  alpha-table  binomial-transform table of a basis, all shapes of n
  gmf          generalized matrix polynomial of one tree (optionally checked
               against the permutation-sum oracle)
  air-table    the a[i][r] polynomial table of one tree
  verify       full monotonicity sweep over all proper shift pairs

Every subcommand accepts --config FILE with KEY=VALUE lines mirroring the
long flag names; explicit flags override the file.  When TREEGMF_OUT_DIR is
set, relative --out paths are resolved inside it.  Output is byte
deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from typing import Iterable

from . import BASES

OUT_DIR_ENV = "TREEGMF_OUT_DIR"

# Library name -> its home module.  A name is bound here at first use, so a
# launch loads only the modules its subcommand runs.  No command calls the
# "traced" names: perfbench/tracer.py wraps them on this module and reports
# a missing one as an absent trace target.
_HOME = {
    "enumerate_free_trees": "trees",
    "parse_tree": "trees",
    "parse_partition_arg": "partitions",
    "rational_to_json": "qpoly",
    "proper_gts_pairs": "gts",
    "pairs_to_json_text": "gts",
    "poset_to_dot": "gts",
    "power_expansion": "oracle",
    "alpha_table": "symfunc",
    "involution_expansion": "symfunc",
    "involution_class_values": "symfunc",  # traced
    "air_table": "gmf",
    "gmf_poly_matching": "gmf",
    "gmf_poly_bruteforce": "oracle",
    "matching_profile": "gmf",  # traced
    "coefficients_from_profile": "gmf",  # traced
    "monotone_report_from_coeffs": "gmf",  # traced
    "air_monotone_report_from_tables": "gmf",  # traced
    "SweepConfig": "sweep",
    "run_sweep": "sweep",
    "write_report": "sweep",
}


def _bound(name: str):
    """name from its home module, bound on this module unless a value (a
    tracer's wrapper, say) is bound here already.  Unlike
    importlib.import_module, __import__ shows in -X importtime."""
    module = __import__(_HOME[name], globals(), level=1, fromlist=(name,))
    return globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name in _HOME:
        return _bound(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """Bad input: an option, a config file, a tree file or an --out path.
    main prints it as an error line and exits 2."""


def load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class _Options:
    """Flag > config-file > default resolution for one subcommand.  A config
    key must be the long name of one of the subcommand's flags."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.path = getattr(args, "config", None)
        self.config = load_config(self.path) if self.path else {}
        flags = {dest.replace("_", "-") for dest in vars(args)} - {"command", "func", "config"}
        for key in self.config:
            if key not in flags:
                raise UsageError(f"{self.path}: unknown key {key!r} for {args.command}")

    def get(self, key: str, default=None, conv=None):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None and key in self.config:
            raw = self.config[key]
            try:
                value = _BOOLS[raw.lower()] if conv is bool else (conv or str)(raw)
            except (KeyError, ValueError):
                raise UsageError(f"{self.path}: bad value for {key}: {raw!r}") from None
        if value is None:
            value = default
        return value


@contextmanager
def _report_file(out: str):
    """A text stream for the --out path (relative paths resolve under
    $TREEGMF_OUT_DIR when it is set).  A new path, or a regular file of ours
    with one link in a writable directory, is written to a new temporary file
    that replaces it (mode kept) only after the last byte, so a failed write
    leaves it whole; a symlink, device, FIFO or other file is written in place.
    A path that cannot be opened (a directory, a parent that cannot be made,
    a temporary name already taken) raises UsageError before any write."""
    base = os.environ.get(OUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    folder = os.path.dirname(path) or "."
    try:
        os.makedirs(folder, exist_ok=True)
        st = os.lstat(path) if os.path.lexists(path) else None
        atomic = not st or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                            and st.st_uid == os.geteuid() and os.access(folder, os.W_OK))
        tmp = f"{path}.{os.getpid()}.tmp" if atomic else path
        fh = open(tmp, "x" if atomic else "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            if atomic and st:
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            yield fh
        if atomic:
            os.replace(tmp, path)
    finally:
        if atomic and os.path.exists(tmp):
            os.remove(tmp)


def _write_or_print(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each of its pieces in turn, in 64 KiB slices, so that
    encoding never copies a large report whole."""
    with nullcontext(sys.stdout) if out is None else _report_file(out) as fh:
        for piece in (text,) if isinstance(text, str) else text:
            for start in range(0, len(piece), 1 << 16):
                fh.write(piece[start:start + (1 << 16)])


def _table_format(opts: _Options) -> str:
    """The --format of a table command (default text), read before any
    computation.  argparse checks the flag, so a bad value comes from
    --config."""
    fmt = opts.get("format", "text")
    if fmt not in ("text", "csv", "json"):
        raise UsageError(f"format must be text, csv or json, got {fmt}")
    return fmt


def _emit(opts: _Options, fmt: str, **views) -> int:
    """Write the fmt view of a table command.  views maps text, csv and json
    to functions that build the text lines, the csv rows and the json
    object (or its text, already in json.dumps's indent-2 layout); only the
    chosen one is called."""
    view = views[fmt]()
    if fmt == "text":
        text = "\n".join(view) + "\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf).writerows(view)
        text = buf.getvalue()
    elif isinstance(view, str):
        text = view
    else:
        import json

        text = json.dumps(view, indent=2) + "\n"
    _write_or_print(text, opts.get("out"))
    return 0


def _parse_bases(text: str) -> tuple[str, ...]:
    bases = tuple(b.strip() for b in text.split(",") if b.strip())
    bad = [b for b in bases if b not in BASES]
    if bad:
        raise ValueError(f"unknown bases {bad}; choose from {','.join(BASES)}")
    # fixed canonical order regardless of how the user listed them
    return tuple(b for b in BASES if b in bases)


# ---------------------------------------------------------------------------
# trees / poset
# ---------------------------------------------------------------------------


def cmd_trees(args: argparse.Namespace) -> int:
    opts = _Options(args)
    n = opts.get("n", conv=int)
    if n is None or n < 1:
        raise UsageError("--n must be a positive integer")
    trees = _bound("enumerate_free_trees")(n)
    lines = [f"{len(trees)} tree(s) on {n} vertices"]
    for idx, t in enumerate(trees, 1):
        degs = ",".join(str(d) for d in sorted(t.representative.degrees(), reverse=True))
        edges = " ".join(f"{u + 1}-{v + 1}" for u, v in t.representative.edges())
        lines.append(f"[{idx}] code={t.code} degrees=({degs}) edges: {edges}")
    _write_or_print("\n".join(lines) + "\n", opts.get("out"))
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    opts = _Options(args)
    n = opts.get("n", conv=int)
    if n is None or n < 2:
        raise UsageError("--n must be >= 2")
    fmt = "dot" if opts.get("dot", conv=bool) else opts.get("format", "json")
    if fmt not in ("dot", "json"):
        raise UsageError(f"poset format must be dot or json, got {fmt}")
    pairs = _bound("proper_gts_pairs")(n)
    write = _bound("poset_to_dot" if fmt == "dot" else "pairs_to_json_text")
    _write_or_print(write(n, pairs), opts.get("out"))
    return 0


# ---------------------------------------------------------------------------
# alpha-table
# ---------------------------------------------------------------------------


def cmd_alpha_table(args: argparse.Namespace) -> int:
    opts = _Options(args)
    n = opts.get("n", conv=int)
    basis = opts.get("basis", "m")
    if n is None or n < 2:
        raise UsageError("--n must be >= 2")
    if basis not in BASES:
        raise UsageError(f"basis must be one of {','.join(BASES)}")
    fmt = _table_format(opts)
    rows, to_json = _bound("alpha_table")(n, basis), _bound("rational_to_json")
    heads = [f"i={i}" for i in range(n // 2 + 1)]

    def text() -> list[str]:
        label_w = max(len(lam.to_exp_string()) for lam, _ in rows) + 2
        cells = [[str(v) for v in vals] for _, vals in rows]
        col_w = max(4, max((len(c) for row in cells for c in row), default=4)) + 1
        lines = [f"alpha table: n={n} basis={basis}",
                 "lambda".ljust(label_w) + "".join(h.rjust(col_w) for h in heads)]
        for (lam, _), row in zip(rows, cells):
            lines.append(lam.to_exp_string().ljust(label_w) + "".join(c.rjust(col_w) for c in row))
        return lines

    return _emit(
        opts,
        fmt,
        text=text,
        csv=lambda: [["lambda", *heads]] + [[lam.to_exp_string(), *vals] for lam, vals in rows],
        json=lambda: {"n": n, "basis": basis, "rows": [
            {"lambda": list(lam.parts), "values": [to_json(v) for v in vals]}
            for lam, vals in rows
        ]},
    )


# ---------------------------------------------------------------------------
# gmf / air-table
# ---------------------------------------------------------------------------


def _load_tree(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return _bound("parse_tree")(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(exc) from None


# json.dumps(indent=2) layout of one coefficient of a gmf polynomial
_JSON_RATIONAL = '        {\n          "num": "%s",\n          "den": "%s"\n        }'


def _gmf_json_text(code: str, basis: str, parts: tuple[int, ...], poly) -> str:
    """The bytes json.dumps(obj, indent=2) + "\n" writes for gmf's json view
    {"tree", "n", "basis", "lambda", "poly": poly.to_json_obj()}, written
    directly.  The code holds only parentheses, the basis is a basis tag and
    the "num" and "den" strings are integers, so nothing is escaped."""
    coeffs = []
    for c in poly.signed:
        items = [_JSON_RATIONAL % (d["num"], d["den"]) for d in c.to_json_obj()]
        coeffs.append("[\n" + ",\n".join(items) + "\n      ]" if items else "[]")
    return (
        '{\n  "tree": "%s",\n  "n": %d,\n  "basis": "%s",\n  "lambda": [\n%s\n  ],\n'
        '  "poly": {\n    "n": %d,\n    "signedCoefficients": [\n      %s\n    ]\n  }\n}\n'
        % (code, poly.n, basis, ",\n".join("    %d" % p for p in parts), poly.n,
           ",\n      ".join(coeffs))
    )


def cmd_gmf(args: argparse.Namespace) -> int:
    opts = _Options(args)
    tree_path = opts.get("tree")
    basis = opts.get("basis", "s")
    lam_text = opts.get("lambda")
    max_brute = opts.get("max-brute", 9, conv=int)
    if tree_path is None or lam_text is None:
        raise UsageError("gmf needs --tree FILE and --lambda PARTS")
    fmt = _table_format(opts)
    tree = _load_tree(tree_path)
    oracle = opts.get("oracle", conv=bool)
    if oracle and tree.n > max_brute:
        raise UsageError(f"--oracle needs n <= {max_brute} (raise with --max-brute)")
    try:
        lam = _bound("parse_partition_arg")(lam_text, tree.n)
        gamma = _bound("involution_expansion")(basis, lam)
    except ValueError as exc:
        raise UsageError(exc) from None
    result = _bound("gmf_poly_matching")(tree, gamma, basis=basis, lam=lam)
    if oracle:
        # over the power-sum route, so gamma's closed form is checked too
        full = _bound("power_expansion")(basis, lam)
        permutation_sum = _bound("gmf_poly_bruteforce")(tree, full, max_brute=max_brute)
        if permutation_sum.poly != result.poly:
            print("ORACLE MISMATCH: permutation sum disagrees with matching expansion",
                  file=sys.stderr)
            return 1
    code, poly, rs = result.tree.code, result.poly, range(tree.n + 1)
    shape = ",".join(map(str, lam.parts))
    return _emit(
        opts,
        fmt,
        text=lambda: [
            f"tree: n={tree.n} code={code}",
            f"basis={basis} lambda={lam.to_exp_string()}",
            "signed coefficients c_r (raw coefficient of x^(n-r) is (-1)^r c_r):",
            *(f"  r={r}: {poly.signed_coefficient(r)}" for r in rs),
            *(["oracle: permutation sum agrees"] if oracle else []),
        ],
        csv=lambda: [["tree", "basis", "lambda", "r", "coefficient"]]
        + [[code, basis, shape, r, poly.signed_coefficient(r).csv_cell()] for r in rs],
        json=lambda: _gmf_json_text(code, basis, lam.parts, poly),
    )


def cmd_air_table(args: argparse.Namespace) -> int:
    opts = _Options(args)
    tree_path = opts.get("tree")
    if tree_path is None:
        raise UsageError("air-table needs --tree FILE")
    fmt = _table_format(opts)
    tree = _load_tree(tree_path)
    table = _bound("air_table")(tree)
    n, code = tree.n, table.tree.code
    cells = [(i, r) for i in range(n // 2 + 1) for r in range(n + 1)]
    return _emit(
        opts,
        fmt,
        text=lambda: [f"a[i][r] table: n={n} code={code}"]
        + [f"  i={i} r={r}: {table.at(i, r)}" for i, r in cells],
        csv=lambda: [["tree", "i", "r", "value"]]
        + [[code, i, r, table.at(i, r).csv_cell()] for i, r in cells],
        json=lambda: {"tree": code, "n": n, "values": [
            {"i": i, "r": r, "value": table.at(i, r).to_json_obj()} for i, r in cells
        ]},
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _Options(args)
    try:
        cfg = _bound("SweepConfig")(
            n=opts.get("n", conv=int) or 0,
            bases=_parse_bases(opts.get("bases", ",".join(BASES))),
            lambda_filter=opts.get("lambda"),
            mode=opts.get("mode", "auto"),
            out=opts.get("out"),
            fmt=opts.get("format", "json"),
            jobs=opts.get("jobs", 1, conv=int),
        )
    except ValueError as exc:
        raise UsageError(exc) from None
    # the report file is opened first, so an --out that cannot be written
    # fails before the sweep starts
    with nullcontext() if cfg.out is None else _report_file(cfg.out) as fh:
        result = _bound("run_sweep")(cfg)
        if fh is not None:
            _bound("write_report")(fh, cfg, result)
    summary, ok = result.summary, result.ok
    print(
        f"verify n={cfg.n} bases={','.join(cfg.bases)} lambda={summary['lambda']} "
        f"mode={cfg.mode} jobs={cfg.jobs}"
    )
    print(f"trees={summary['trees']} pairs={summary['pairs']} lambdas={summary['lambdas']}")
    print(f"monotone checks: {summary['monotoneChecks']}, failures: {summary['monotoneFailures']}")
    print(f"air checks: {summary['airChecks']}, failures: {summary['airFailures']}")
    for line in summary["failures"][:20]:
        print(f"  FAIL {line}")
    if len(summary["failures"]) > 20:
        print(f"  ... and {len(summary['failures']) - 20} more")
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegmf",
        description="Exact generalized matrix polynomials of tree q-Laplacians "
        "and monotonicity verification over the proper-shift poset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="KEY=VALUE config file; flags override")
        p.add_argument("--out", help=f"output path (relative paths resolve under ${OUT_DIR_ENV})")

    p = sub.add_parser("trees", help="list all unlabeled trees on n vertices")
    p.add_argument("--n", type=int)
    add_common(p)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("poset", help="export the proper-shift digraph")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["dot", "json"])
    p.add_argument("--dot", action="store_true", default=None, help="shorthand for --format dot")
    add_common(p)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("alpha-table", help="binomial-transform table for one basis")
    p.add_argument("--n", type=int)
    p.add_argument("--basis", choices=list(BASES))
    p.add_argument("--format", choices=["text", "csv", "json"])
    add_common(p)
    p.set_defaults(func=cmd_alpha_table)

    p = sub.add_parser("gmf", help="generalized matrix polynomial of one tree")
    p.add_argument("--tree", help="tree file (edge-list text or JSON)")
    p.add_argument("--basis", choices=list(BASES))
    p.add_argument("--lambda", dest="lambda", help='partition, e.g. "2,1,1" or "2^2,1^3"')
    p.add_argument("--oracle", action="store_true", default=None,
                   help="also run the permutation-sum oracle and compare")
    p.add_argument("--max-brute", type=int, help="size guard for the oracle (default 9)")
    p.add_argument("--format", choices=["text", "csv", "json"])
    add_common(p)
    p.set_defaults(func=cmd_gmf)

    p = sub.add_parser("air-table", help="a[i][r] polynomial table of one tree")
    p.add_argument("--tree", help="tree file (edge-list text or JSON)")
    p.add_argument("--format", choices=["text", "csv", "json"])
    add_common(p)
    p.set_defaults(func=cmd_air_table)

    p = sub.add_parser("verify", help="monotonicity sweep over all proper shift pairs")
    p.add_argument("--n", type=int)
    p.add_argument("--bases", "--basis", dest="bases",
                   help=f"comma list from {{{','.join(BASES)}}} (default all)")
    p.add_argument("--lambda", dest="lambda", help='shape pattern, e.g. "2^k,1^*" (default all)')
    p.add_argument("--mode", choices=["signed", "absolute", "auto"])
    p.add_argument("--format", choices=["json", "csv"])
    p.add_argument("--jobs", type=int,
                   help="most parallel workers for the per-tree tables; a pool starts only "
                        "with 1024 trees per worker or more (n >= 14 on 2 workers), as a "
                        "smaller one costs more to start than it saves")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
