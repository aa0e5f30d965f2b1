"""Command-line surface.  Every subcommand is a thin adapter over a library
call; output is byte-deterministic for a fixed command line.

Exit codes: 0 success (or verification passed / braid trivial), 1 verification
failed (a theorem check, or a search hit whose re-verification failed) or
braid nontrivial, 2 usage or parse error, 3 inconclusive (a word problem
overran the handle-reduction step cap).

For pk / mn / search / defect, --n is the codomain strand count; the word
argument lives on n+1 strands.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import kernel, maps, reps, words

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one-line diagnostic, exit 2
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="mnmap", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, word: bool = True,
            flags: tuple[str, ...] = ()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if word:
            p.add_argument("word", help="word in the token grammar, e.g. 's1 s2^-1'")
        for flag in flags:
            if flag == "--flavor":
                p.add_argument("--flavor", default=words.CLASSICAL,
                               choices=(words.CLASSICAL, words.CYLINDRICAL,
                                        words.VCB))
            else:
                p.add_argument(flag, type=int, required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")
        return p

    add("reduce", "free-reduce a word", flags=("--n", "--flavor"))
    add("perm", "underlying strand permutation", flags=("--n", "--flavor"))
    add("pk", "project a pure word on n+1 strands to a cylindrical word",
        flags=("--n", "--k"))
    add("fd", "stabilize a cylindrical word into the virtual group",
        flags=("--n", "--d"))
    add("rho", "matrix of a word under the representation",
        flags=("--n", "--flavor"))
    add("burau", "unreduced Burau matrix of a classical word", flags=("--n",))
    add("mn", "matrix of a pure word on n+1 strands under the composite map",
        flags=("--n", "--k", "--d"))
    trivial = add("trivial", "decide the word problem (exit 1 if "
                  "nontrivial)", flags=("--n",))
    trivial.add_argument("--max-steps", type=int,
                         default=reps.DEFAULT_STEP_CAP,
                         help="handle-reduction step cap; exit 3 if a handle "
                         "is left after that many steps (default %(default)s)")
    add("verify-thm1", "push the lifted Burau-kernel witness through the "
        "composite map", word=False, flags=("--d",))
    add("verify-thm2", "composite image of sigma_k^-2m on 2m+1 strands",
        word=False, flags=("--m", "--k"))
    add("search", "exhaustive kernel search over supported generators",
        word=False, flags=("--n", "--k", "--d", "--max-len"))
    add("defect", "letter-wise image of the canceling pair "
        "sigma_i sigma_i^-1", word=False, flags=("--i", "--k", "--n", "--d"))
    return parser


def _emit_word(w: words.Word, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"flavor": w.flavor.group, "n": w.n,
                           "word": str(w)})
    return str(w)


def _emit_matrix(matrix, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(matrix.to_json_obj())
    return str(matrix)


def _run(args: argparse.Namespace) -> tuple[int, str]:
    fmt = args.format
    if args.command == "reduce":
        w = words.parse_word(args.word, words.Flavor(args.flavor, args.n))
        return 0, _emit_word(w.free_reduce(), fmt)
    if args.command == "perm":
        w = words.parse_word(args.word, words.Flavor(args.flavor, args.n))
        perm = w.permutation()
        if fmt == "json":
            return 0, json.dumps({"images": list(perm.images)})
        return 0, str(perm)
    if args.command == "pk":
        w = words.parse_word(args.word, words.classical(args.n + 1))
        return 0, _emit_word(maps.project_pk(w, args.k), fmt)
    if args.command == "fd":
        w = words.parse_word(args.word, words.cylindrical(args.n))
        return 0, _emit_word(maps.stabilize_fd(w, args.d), fmt)
    if args.command == "rho":
        w = words.parse_word(args.word, words.Flavor(args.flavor, args.n))
        return 0, _emit_matrix(reps.rho_word(w), fmt)
    if args.command == "burau":
        w = words.parse_word(args.word, words.classical(args.n))
        return 0, _emit_matrix(reps.burau(w), fmt)
    if args.command == "mn":
        w = words.parse_word(args.word, words.classical(args.n + 1))
        return 0, _emit_matrix(maps.mn_map(w, args.k, args.d), fmt)
    if args.command == "trivial":
        w = words.parse_word(args.word, words.classical(args.n))
        trivial = reps.is_trivial_braid(w, max_steps=args.max_steps)
        out = json.dumps(trivial) if fmt == "json" else str(trivial).lower()
        return (0 if trivial else 1), out
    if args.command == "verify-thm1":
        report = kernel.verify_theorem1(args.d)
        return _emit_report(report, fmt)
    if args.command == "verify-thm2":
        report = kernel.verify_theorem2(args.m, args.k)
        return _emit_report(report, fmt)
    if args.command == "search":
        results = kernel.search_kernel(args.n, args.k, args.d, args.max_len)
        code = 0 if all(r.verified for r in results) else 1
        if fmt == "json":
            return code, json.dumps([{"word": str(r.word),
                                      "verified": r.verified,
                                      "freely_trivial": r.freely_trivial}
                                     for r in results])
        return code, "\n".join(str(r.word) for r in results)
    if args.command == "defect":
        matrix = maps.cancellation_defect(args.i, args.k, args.n, args.d)
        return 0, _emit_matrix(matrix, fmt)
    raise UsageError(f"unknown subcommand {args.command!r}")


def _emit_report(report: kernel.VerificationReport, fmt: str) -> tuple[int, str]:
    code = 0 if report.passed else 1
    fields = report.to_json_obj()
    if fmt == "json":
        return code, json.dumps(fields)
    return code, "\n".join(
        f"{key}: {value if isinstance(value, str) else json.dumps(value)}"
        for key, value in fields.items())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, output = _run(args)
    except (UsageError, ValueError) as err:  # word, purity, support errors
        print(f"error: {err}", file=sys.stderr)
        return 2
    except reps.ReductionCapError as err:
        print(f"error: inconclusive: {err}", file=sys.stderr)
        return 3
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
