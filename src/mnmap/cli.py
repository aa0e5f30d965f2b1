"""Command-line surface.  Every subcommand is a thin adapter over a library
call; output is byte-deterministic for a fixed command line.

Exit codes: 0 success (or verification passed / braid trivial), 1 verification
failed (a theorem check, or a search hit whose re-verification failed) or
braid nontrivial, 2 usage or parse error, 3 inconclusive (a word problem
overran the handle-reduction step cap).

For pk / mn / search / defect, --n is the codomain strand count; the word
argument lives on n+1 strands.
"""
# The docstring above is also the description that `mnmap --help` prints.
# A well-formed command line is read straight from the subcommand table
# (_fast_args); help, usage errors, abbreviated options and --opt=value go
# through argparse (_build_parser), which prints the same help and errors
# either way.
from __future__ import annotations

import sys
from types import SimpleNamespace

from . import kernel, maps, reps, words


class UsageError(Exception):
    pass


# Each subcommand: name, help, and its arguments in the order they are added
# (the order of its usage line and --help).  An argument not in _ARGUMENTS is
# a required int.
_COMMANDS = (
    ("reduce", "free-reduce a word", ("word", "--n", "--flavor", "--format")),
    ("perm", "underlying strand permutation",
     ("word", "--n", "--flavor", "--format")),
    ("pk", "project a pure word on n+1 strands to a cylindrical word",
     ("word", "--n", "--k", "--format")),
    ("fd", "stabilize a cylindrical word into the virtual group",
     ("word", "--n", "--d", "--format")),
    ("rho", "matrix of a word under the representation",
     ("word", "--n", "--flavor", "--format")),
    ("burau", "unreduced Burau matrix of a classical word",
     ("word", "--n", "--format")),
    ("mn", "matrix of a pure word on n+1 strands under the composite map",
     ("word", "--n", "--k", "--d", "--format")),
    ("trivial", "decide the word problem (exit 1 if nontrivial)",
     ("word", "--n", "--format", "--max-steps")),
    ("verify-thm1", "push the lifted Burau-kernel witness through the "
     "composite map", ("--d", "--format")),
    ("verify-thm2", "composite image of sigma_k^-2m on 2m+1 strands",
     ("--m", "--k", "--format")),
    ("search", "exhaustive kernel search over supported generators",
     ("--n", "--k", "--d", "--max-len", "--format")),
    ("defect", "letter-wise image of the canceling pair sigma_i sigma_i^-1",
     ("--i", "--k", "--n", "--d", "--format")),
)

_ARGUMENTS = {
    "word": {"help": "word in the token grammar, e.g. 's1 s2^-1'"},
    "--flavor": {"default": words.CLASSICAL,
                 "choices": (words.CLASSICAL, words.CYLINDRICAL, words.VCB)},
    "--format": {"choices": ["text", "json"], "default": "text"},
    "--max-steps": {"type": int, "default": reps.DEFAULT_STEP_CAP,
                    "help": "handle-reduction step cap; exit 3 if a handle "
                    "is left after that many steps (default %(default)s)"},
}
_REQUIRED_INT = {"type": int, "required": True}

# The description that the --help of search and verify-thm2 shows.
_WORD_MAP_NOTE = (
    "The projection table is letter-wise and not multiplicative at "
    "sigma_{k-1}, sigma_k, so search hits and the theorem 2 witness are in "
    "the kernel of the word map, not of a homomorphism on PB_{n+1}.")


def _build_parser(command: str | None = None):
    """The argparse parser, for the command lines that `_fast_args` leaves
    to it: help, usage errors and the shapes it does not read.  It has a
    subparser for `command` alone when that names a subcommand and for every
    subcommand otherwise.  A subcommand's usage, --help and errors come from
    its own subparser either way.  argparse is imported here, since its
    import and the build cost a well-formed command line a few
    milliseconds."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # one-line diagnostic, exit 2
            raise UsageError(message)

    parser = _Parser(prog="mnmap", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    named = [spec for spec in _COMMANDS if spec[0] == command]
    for name, help_text, arguments in named or _COMMANDS:
        p = sub.add_parser(name, help=help_text,
                           description=_WORD_MAP_NOTE if name in (
                               "search", "verify-thm2") else None)
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS.get(argument, _REQUIRED_INT))
    return parser


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for `argv`, when `argv` is a subcommand
    name followed by its exact option names, each once with a value that
    does not start with "-", and at most one word, which does not start with
    "-" either; every required argument present, every int and choice valid.
    None for any other command line."""
    spec = next((spec for spec in _COMMANDS if argv and spec[0] == argv[0]),
                None)
    if spec is None:
        return None
    arguments = spec[2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            value = next(tokens, "-")
            if (token not in arguments or token in given
                    or value.startswith("-")):
                return None
            given[token] = value
        elif "word" in arguments and "word" not in given:
            given["word"] = token
        else:
            return None
    args = {"command": spec[0]}
    for argument in arguments:
        options = _ARGUMENTS.get(argument, _REQUIRED_INT)
        if argument not in given:
            if "default" not in options:  # the word, or a required int
                return None
            value = options["default"]
        else:
            value = given[argument]
            if "type" in options:
                try:
                    value = options["type"](value)
                except ValueError:
                    return None
            if value not in options.get("choices", (value,)):
                return None
        args[argument.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**args)


def _dumps(obj) -> str:
    import json  # only output that needs it pays for the import
    return json.dumps(obj)


def _emit_word(w: words.Word, fmt: str) -> str:
    if fmt == "json":
        return _dumps({"flavor": w.flavor.group, "n": w.n, "word": str(w)})
    return str(w)


def _emit_matrix(matrix, fmt: str) -> str:
    if fmt == "json":
        return _dumps(matrix.to_json_obj())
    return str(matrix)


def _run(args: SimpleNamespace) -> tuple[int, str]:
    fmt = args.format
    if args.command == "reduce":
        w = words.parse_word(args.word, words.Flavor(args.flavor, args.n))
        return 0, _emit_word(w.free_reduce(), fmt)
    if args.command == "perm":
        w = words.parse_word(args.word, words.Flavor(args.flavor, args.n))
        perm = w.permutation()
        if fmt == "json":
            return 0, _dumps({"images": list(perm.images)})
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
        out = _dumps(trivial) if fmt == "json" else str(trivial).lower()
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
            return code, _dumps([{"word": str(r.word),
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
        return code, _dumps(fields)
    return code, "\n".join(
        f"{key}: {value if isinstance(value, str) else _dumps(value)}"
        for key, value in fields.items())


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default), print its output and
    return its exit code.  `_fast_args` reads a well-formed line; any other
    goes to argparse, which prints help and exits, or raises UsageError."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _fast_args(argv)
        if args is None:
            args = _build_parser(argv[0] if argv else None).parse_args(argv)
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
