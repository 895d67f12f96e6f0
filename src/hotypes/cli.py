"""Command-line front end: analyze, check, signalling, oracle verify.

Exit codes: 0 for pass/admissible, 1 for an inadmissible verdict or a
combinatorial/numeric disagreement, 2 for usage and parse errors, for a
standard output closed before the report is written and for running out
of memory.  JSON reports have stable field names and row order; only
timing varies run to run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .admissibility import (
    ContractionSpec,
    check_composition,
    check_contraction,
    check_equivalence,
    check_inclusion,
)
from .oracle import verify
from .signalling import crosscheck, signalling_matrix
from .strings import build_D, word_count
from .type_core import (
    TypeExpr,
    TypeSyntaxError,
    io_partition,
    parse_type,
    relabel_unique,
    render_type,
)

DIMS_ENV_VAR = "HOTYPES_DIMS"


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def load_dims_file(path: str) -> dict[str, int]:
    """Read `Name = dimension` lines; '#' starts a comment."""
    table: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                name, sep, value = line.partition("=")
                if not sep:
                    raise CliError(f"{path}:{lineno}: expected 'Name = dimension'")
                try:
                    table[name.strip()] = int(value.strip())
                except ValueError:
                    raise CliError(f"{path}:{lineno}: bad dimension {value.strip()!r}") from None
    except OSError as exc:
        raise CliError(f"cannot read dims file: {exc}") from exc
    return table


def _parse(text: str, dims: dict[str, int]) -> tuple[TypeExpr, dict[str, str]]:
    return relabel_unique(parse_type(text, dims))


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _label_names(labels) -> list[str]:
    return [a.name for a in labels]


def _check_digits(what: str, n: int) -> None:
    """Refuse, before any output, an integer too long for Python to print."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and n >= 10**limit:
        digits = int(n.bit_length() * math.log10(2))  # n's digits, or one less
        raise CliError(f"{what} has {digits + (n >= 10**digits)} digits, over Python's limit of {limit} for printing")


def cmd_analyze(args, dims: dict[str, int]) -> int:
    start = time.perf_counter()
    x, renamed = _parse(args.type, dims)
    analysis = io_partition(x)
    count = word_count(x)
    _check_digits("|D|", count)
    _check_digits("the denominator of lambda", analysis.lam.denominator)
    # an empty D_x is listed from its count alone, with no word set built
    words = [] if count == 0 else build_D(x).render() if count <= 64 else None
    report = {
        "command": "analyze",
        "input_types": [args.type],
        "type": render_type(x, sugar=True),
        "elementary": [{"name": a.name, "dimension": a.dimension} for a in analysis.elementary],
        "inputs": _label_names(analysis.inputs_ordered()),
        "outputs": _label_names(analysis.outputs_ordered()),
        "lambda": str(analysis.lam),
        "word_count": count,
        "words": words,
        "renamed": renamed,
        "timing_ms": (time.perf_counter() - start) * 1000,
    }
    lines = [
        f"type:    {report['type']}",
        "systems: " + " ".join(f"{a.name}({a.dimension})" for a in analysis.elementary),
        "inputs:  {" + ", ".join(report["inputs"]) + "}",
        "outputs: {" + ", ".join(report["outputs"]) + "}",
        f"lambda:  {report['lambda']}",
        f"|D|:     {report['word_count']}",
    ]
    if renamed:
        lines.insert(1, "renamed: " + ", ".join(f"{new}<-{old}" for new, old in sorted(renamed.items())))
    if report["words"] is not None:
        lines.append("D:       " + " ".join(report["words"]))
    _emit(report, args.json, lines)
    return 0


def _verdict_lines(verdict) -> list[str]:
    lines = [f"verdict: {'admissible' if verdict.admissible else 'inadmissible'} ({verdict.reason.value})"]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness.render()}")
    if verdict.result_in is not None:
        lines.append(
            "result:  {" + ", ".join(_label_names(verdict.result_in)) + "} -> {"
            + ", ".join(_label_names(verdict.result_out)) + "}"
        )
    return lines


def cmd_check(args, dims: dict[str, int]) -> int:
    start = time.perf_counter()
    if args.relation == "contraction":
        x, _ = _parse(args.type, dims)
        spec = ContractionSpec.from_text(args.pairs, x)
        verdict = check_contraction(x, spec)
        input_types = [args.type]
    else:
        x, _ = _parse(args.type, dims)
        y, _ = _parse(args.other, dims)
        if args.relation == "inclusion":
            verdict = check_inclusion(x, y)
        elif args.relation == "equivalence":
            verdict = check_equivalence(x, y)
        else:
            verdict = check_composition(x, y)
        input_types = [args.type, args.other]
    report = {
        "command": f"check {args.relation}",
        "input_types": input_types,
        "verdict": verdict.to_json(),
        "timing_ms": (time.perf_counter() - start) * 1000,
    }
    _emit(report, args.json, _verdict_lines(verdict))
    return 0 if verdict.admissible else 1


def cmd_signalling(args, dims: dict[str, int]) -> int:
    start = time.perf_counter()
    x, _ = _parse(args.type, dims)
    rows = signalling_matrix(x)
    agreed = crosscheck(x) if args.crosscheck else None
    report = {
        "command": "signalling",
        "input_types": [args.type],
        "rows": [row.to_json() for row in rows],
        "crosscheck": agreed,
        "timing_ms": (time.perf_counter() - start) * 1000,
    }
    # the text lines copy each rendered subterm, so only text output builds them
    _emit(report, args.json, [] if args.json else _signalling_lines(report["rows"], agreed))
    if agreed is False:
        return 1
    return 0


def _signalling_lines(rows: list[dict], agreed: bool | None) -> list[str]:
    """The text form of the JSON rows, which hold each enclosing subterm
    rendered once."""
    lines = []
    if rows:
        width = max(len(row["from"]) for row in rows)
        for row in rows:
            mark = {"no-signalling": "-/->", "full-signalling": "==>"}[row["relation"]]
            lines.append(
                f"{row['from']:>{width}} {mark:>4} {row['to']:<4} "
                f"{row['relation']:<16} via {row['enclosing']}"
            )
    else:
        lines.append("no input/output pairs")
    if agreed is not None:
        lines.append(f"crosscheck: {'agree' if agreed else 'DISAGREE'}")
    return lines


def cmd_oracle_verify(args, dims: dict[str, int]) -> int:
    start = time.perf_counter()
    x, _ = _parse(args.type, dims)
    pairs = ContractionSpec.from_text(args.pairs, x).pairs if args.pairs else None
    result = verify(x, pairs, trials=args.trials, seed=args.seed, tol=args.tol)
    report = {
        "command": "oracle verify",
        "input_types": [args.type],
        "seed": args.seed,
        "tol": args.tol,
        **result.to_json(),
        "timing_ms": (time.perf_counter() - start) * 1000,
    }
    lines = [
        f"lambda check: {'ok' if result.lambda_ok else 'FAIL'}",
        f"basis dimension check: {'ok' if result.basis_ok else 'FAIL'} ({result.basis_size} elements)",
    ]
    for entry in result.pairs:
        if "error" in entry:
            lines.append(f"pair {entry['pair']}: FAIL ({entry['error']})")
        elif entry["admissible"]:
            lines.append(
                f"pair {entry['pair']}: admissible, {entry['trials'] - entry['channel_failures']}"
                f"/{entry['trials']} channel checks pass, worst residual "
                f"{entry['worst_channel_residual']:.3g}"
            )
        elif "violation_margin" in entry:
            lines.append(
                f"pair {entry['pair']}: inadmissible, violation margin "
                f"{entry['violation_margin']:.3g}"
            )
        else:
            lines.append(f"pair {entry['pair']}: inadmissible ({entry['reason']})")
    lines.append(f"failures: {result.failures}")
    _emit(report, args.json, lines)
    return 0 if result.failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotypes",
        description="Type calculus for higher-order quantum maps with a numerical oracle.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--dims",
        metavar="FILE",
        default=None,
        help=f"system dimension table (Name = d per line); default ${DIMS_ENV_VAR}",
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps a leaf
    # parse from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--dims", metavar="FILE", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="systems, io partition, lambda, and word set"
    )
    p_analyze.add_argument("type")
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="decision procedures")
    check_sub = p_check.add_subparsers(dest="relation", required=True)
    for relation in ("inclusion", "equivalence", "composition"):
        p_rel = check_sub.add_parser(relation, parents=[common])
        p_rel.add_argument("type")
        p_rel.add_argument("other")
        p_rel.set_defaults(func=cmd_check)
    p_contr = check_sub.add_parser("contraction", parents=[common])
    p_contr.add_argument("type")
    p_contr.add_argument("--pairs", required=True, help="contraction pairs, e.g. A:B,C:D")
    p_contr.set_defaults(func=cmd_check)

    p_sig = sub.add_parser("signalling", parents=[common], help="pairwise signalling matrix")
    p_sig.add_argument("type")
    p_sig.add_argument("--crosscheck", action="store_true", help="re-derive rows via critical sets")
    p_sig.set_defaults(func=cmd_signalling)

    p_oracle = sub.add_parser("oracle", help="numerical cross-validation")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_verify = oracle_sub.add_parser("verify", parents=[common])
    p_verify.add_argument("type")
    p_verify.add_argument("--pairs", default=None, help="pairs to test; default all in/out pairs")
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_oracle_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process: parsing leaves
    it unchanged, so later calls of ``main`` reuse it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    dims_path = args.dims or os.environ.get(DIMS_ENV_VAR)
    try:
        dims = load_dims_file(dims_path) if dims_path else {}
        code = args.func(args, dims)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: later flushes, including the one at
        # interpreter exit, go to the null device instead of raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    except TypeSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.caret_diagram(), file=sys.stderr)
        return 2
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: type nests too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {_command_name(args)}", file=sys.stderr)
        return 2


def _command_name(args) -> str:
    """The command as typed, e.g. ``check inclusion`` or ``oracle verify``."""
    sub = getattr(args, "relation", None) or getattr(args, "oracle_command", None)
    return f"{args.command} {sub}" if sub else args.command


if __name__ == "__main__":
    sys.exit(main())
