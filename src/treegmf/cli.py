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
import csv
import io
import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction

# coefficients_from_profile, involution_class_values, matching_profile and
# the two *_report_from_* checks have no caller here: perfbench/tracer.py
# resolves them by name on this module and reports a missing name as an
# absent trace target.
from .gmf import (  # noqa: F401
    air_monotone_report_from_tables,
    air_table,
    coefficients_from_profile,
    gmf_poly_bruteforce,
    gmf_poly_matching,
    matching_profile,
    monotone_report_from_coeffs,
)
from .gts import pairs_to_json_text, poset_to_dot, proper_gts_pairs
from .partitions import Partition
from .qpoly import rational_to_json
from .symfunc import BASES, involution_class_values, power_expansion  # noqa: F401
from .trees import LabeledTree, enumerate_free_trees, parse_tree

OUT_DIR_ENV = "TREEGMF_OUT_DIR"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A missing or malformed config file, or a config value of the wrong type."""


class OutPathError(ValueError):
    """An --out path that cannot be opened for writing."""


def load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _as_bool(v: str) -> bool:
    return v.lower() in ("1", "true", "yes", "on")


class _Options:
    """Flag > config-file > default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.path = getattr(args, "config", None)
        self.config = load_config(self.path) if self.path else {}

    def get(self, key: str, default=None, conv=None):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None and key in self.config:
            raw = self.config[key]
            try:
                value = (conv or str)(raw) if conv is not bool else _as_bool(raw)
            except ValueError:
                raise ConfigError(f"{self.path}: bad value for {key}: {raw!r}") from None
        if value is None:
            value = default
        return value


@contextmanager
def _report_file(out: str):
    """A text stream for the --out path (relative paths resolve under
    $TREEGMF_OUT_DIR when it is set).  A new path, or a regular file of ours
    with one link in a writable directory, is written to a temporary file
    that replaces it (mode kept) only after the last byte, so a failed write
    leaves it whole; a symlink, device, FIFO or other file is written in place.
    A path that cannot be opened (a directory, a parent that cannot be made)
    raises OutPathError before anything is yielded."""
    base = os.environ.get(OUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    folder = os.path.dirname(path) or "."
    try:
        os.makedirs(folder, exist_ok=True)
        st = os.lstat(path) if os.path.lexists(path) else None
        atomic = not st or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                            and st.st_uid == os.geteuid() and os.access(folder, os.W_OK))
        tmp = f"{path}.{os.getpid()}.tmp" if atomic else path
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OutPathError(f"cannot write --out {path}: {exc.strerror or exc}") from None
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


def _write_or_print(text: str, out: str | None) -> None:
    """Write text in 64 KiB slices, so that encoding never copies a large
    report whole."""
    with nullcontext(sys.stdout) if out is None else _report_file(out) as fh:
        for start in range(0, len(text), 1 << 16):
            fh.write(text[start:start + (1 << 16)])


def parse_partition_arg(text: str) -> Partition:
    """Accept "2,1,1" or exponential "2^2,1^3"."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            v, m = token.split("^", 1)
            count = int(m)
            if count < 0:
                raise ValueError(f"negative multiplicity in {token!r}")
            parts.extend([int(v)] * count)
        else:
            parts.append(int(token))
    if not parts:
        raise ValueError(f"empty partition {text!r}")
    return Partition(parts)


def _frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _parse_bases(text: str) -> tuple[str, ...]:
    bases = tuple(b.strip() for b in text.split(",") if b.strip())
    bad = [b for b in bases if b not in BASES]
    if bad:
        raise ValueError(f"unknown bases {bad}; choose from {','.join(BASES)}")
    # fixed canonical order regardless of how the user listed them
    return tuple(b for b in BASES if b in bases)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# trees / poset
# ---------------------------------------------------------------------------


def cmd_trees(args: argparse.Namespace) -> int:
    opts = _Options(args)
    n = opts.get("n", conv=int)
    if n is None or n < 1:
        print("error: --n must be a positive integer", file=sys.stderr)
        return 2
    trees = enumerate_free_trees(n)
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
        print("error: --n must be >= 2", file=sys.stderr)
        return 2
    fmt = "dot" if opts.get("dot", conv=bool) else opts.get("format", "json")
    pairs = proper_gts_pairs(n)
    if fmt == "dot":
        text = poset_to_dot(n, pairs)
    elif fmt == "json":
        text = pairs_to_json_text(n, pairs)
    else:
        print(f"error: poset format must be dot or json, got {fmt}", file=sys.stderr)
        return 2
    _write_or_print(text, opts.get("out"))
    return 0


# ---------------------------------------------------------------------------
# alpha-table
# ---------------------------------------------------------------------------


def cmd_alpha_table(args: argparse.Namespace) -> int:
    opts = _Options(args)
    n = opts.get("n", conv=int)
    basis = opts.get("basis", "m")
    fmt = opts.get("format", "text")
    if n is None or n < 2:
        print("error: --n must be >= 2", file=sys.stderr)
        return 2
    if basis not in BASES:
        print(f"error: basis must be one of {','.join(BASES)}", file=sys.stderr)
        return 2
    from .symfunc import alpha_table

    rows = alpha_table(n, basis)
    half = n // 2
    if fmt == "text":
        label_w = max(len(lam.to_exp_string()) for lam, _ in rows) + 2
        cells = [[_frac_str(v) for v in vals] for _, vals in rows]
        col_w = max(4, max((len(c) for row in cells for c in row), default=4)) + 1
        header = "lambda".ljust(label_w) + "".join(f"i={i}".rjust(col_w) for i in range(half + 1))
        lines = [f"alpha table: n={n} basis={basis}", header]
        for (lam, _), row in zip(rows, cells):
            lines.append(lam.to_exp_string().ljust(label_w) + "".join(c.rjust(col_w) for c in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["lambda"] + [f"i={i}" for i in range(half + 1)])
        for lam, vals in rows:
            writer.writerow([lam.to_exp_string()] + [_frac_str(v) for v in vals])
        text = buf.getvalue()
    elif fmt == "json":
        text = _json_dump({"n": n, "basis": basis, "rows": [
            {"lambda": list(lam.parts), "values": [rational_to_json(v) for v in vals]}
            for lam, vals in rows]})
    else:
        print(f"error: format must be text, csv or json, got {fmt}", file=sys.stderr)
        return 2
    _write_or_print(text, opts.get("out"))
    return 0


# ---------------------------------------------------------------------------
# gmf / air-table
# ---------------------------------------------------------------------------


def _load_tree(path: str) -> LabeledTree:
    with open(path, encoding="utf-8") as fh:
        return parse_tree(fh.read())


def cmd_gmf(args: argparse.Namespace) -> int:
    opts = _Options(args)
    tree_path = opts.get("tree")
    basis = opts.get("basis", "s")
    lam_text = opts.get("lambda")
    max_brute = opts.get("max-brute", 9, conv=int)
    if tree_path is None or lam_text is None:
        print("error: gmf needs --tree FILE and --lambda PARTS", file=sys.stderr)
        return 2
    try:
        tree = _load_tree(tree_path)
        lam = parse_partition_arg(lam_text)
        if basis not in BASES:
            raise ValueError(f"basis must be one of {','.join(BASES)}")
        if lam.n != tree.n:
            raise ValueError(f"lambda sums to {lam.n} but the tree has {tree.n} vertices")
        gamma = power_expansion(basis, lam)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = gmf_poly_matching(tree, gamma, basis=basis, lam=lam)
    if opts.get("oracle", conv=bool):
        if tree.n > max_brute:
            print(
                f"error: --oracle needs n <= {max_brute} (raise with --max-brute)",
                file=sys.stderr,
            )
            return 2
        oracle = gmf_poly_bruteforce(tree, gamma, max_brute=max_brute)
        if oracle.poly != result.poly:
            print("ORACLE MISMATCH: permutation sum disagrees with matching expansion",
                  file=sys.stderr)
            return 1
    fmt = opts.get("format", "text")
    code = result.tree.code
    if fmt == "text":
        lines = [
            f"tree: n={tree.n} code={code}",
            f"basis={basis} lambda={lam.to_exp_string()}",
            "signed coefficients c_r (raw coefficient of x^(n-r) is (-1)^r c_r):",
        ]
        for r in range(tree.n + 1):
            lines.append(f"  r={r}: {result.poly.signed_coefficient(r)}")
        if opts.get("oracle", conv=bool):
            lines.append("oracle: permutation sum agrees")
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        obj = {
            "tree": code,
            "n": tree.n,
            "basis": basis,
            "lambda": list(lam.parts),
            "poly": result.poly.to_json_obj(),
        }
        text = _json_dump(obj)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["tree", "basis", "lambda", "r", "coefficient"])
        for r in range(tree.n + 1):
            writer.writerow(
                [code, basis, ",".join(map(str, lam.parts)), r,
                 result.poly.signed_coefficient(r).csv_cell()]
            )
        text = buf.getvalue()
    else:
        print(f"error: format must be text, csv or json, got {fmt}", file=sys.stderr)
        return 2
    _write_or_print(text, opts.get("out"))
    return 0


def cmd_air_table(args: argparse.Namespace) -> int:
    opts = _Options(args)
    tree_path = opts.get("tree")
    if tree_path is None:
        print("error: air-table needs --tree FILE", file=sys.stderr)
        return 2
    try:
        tree = _load_tree(tree_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = air_table(tree)
    fmt = opts.get("format", "text")
    n = tree.n
    if fmt == "text":
        lines = [f"a[i][r] table: n={n} code={table.tree.code}"]
        for i in range(n // 2 + 1):
            for r in range(n + 1):
                lines.append(f"  i={i} r={r}: {table.at(i, r)}")
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["tree", "i", "r", "value"])
        for i in range(n // 2 + 1):
            for r in range(n + 1):
                writer.writerow([table.tree.code, i, r, table.at(i, r).csv_cell()])
        text = buf.getvalue()
    elif fmt == "json":
        obj = {
            "tree": table.tree.code,
            "n": n,
            "values": [
                {"i": i, "r": r, "value": table.at(i, r).to_json_obj()}
                for i in range(n // 2 + 1)
                for r in range(n + 1)
            ],
        }
        text = _json_dump(obj)
    else:
        print(f"error: format must be text, csv or json, got {fmt}", file=sys.stderr)
        return 2
    _write_or_print(text, opts.get("out"))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_sweep(cfg):
    """treegmf.sweep.run_sweep.  The sweep module is imported on first use,
    so the other subcommands start without loading it."""
    from .sweep import run_sweep as sweep

    return sweep(cfg)


def cmd_verify(args: argparse.Namespace) -> int:
    from .sweep import SweepConfig, write_report

    opts = _Options(args)
    try:
        cfg = SweepConfig(
            n=opts.get("n", conv=int) or 0,
            bases=_parse_bases(opts.get("bases", ",".join(BASES))),
            lambda_filter=opts.get("lambda"),
            mode=opts.get("mode", "auto"),
            out=opts.get("out"),
            fmt=opts.get("format", "json"),
            jobs=opts.get("jobs", 1, conv=int),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the report file is opened first, so an --out that cannot be written
    # fails before the sweep starts
    with nullcontext() if cfg.out is None else _report_file(cfg.out) as fh:
        result = run_sweep(cfg)
        if fh is not None:
            write_report(fh, cfg, result)
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
    p.add_argument("--jobs", type=int, help="parallel workers for per-tree tables")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OutPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
