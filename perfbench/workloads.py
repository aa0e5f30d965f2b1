"""The four workloads: seeded inputs, the program calls each one makes, and
an independent check on every output.

Each workload is a fixed list of operations (one pass).  The benchmark runs
passes back to back in one process, one operation at a time (a closed loop
with a single client), so per-pass figures repeat run to run.  The order of
operations is fixed: reordering changes the allocator and cache state each
operation starts from, which moved op_tail_ms and op_p50_ms by 10-15%
between seeds.

* search  - a grid of ``search_kernel`` calls.  Enumeration in ``kernel`` and
  ``words`` and thousands of tiny ``mn_map`` evaluations dominate; ``det`` is
  never called.  The seed changes nothing here: the searched space is a
  function of the cell parameters.
* matrix  - long seeded pure words through ``burau``, ``mn_map`` (k at the
  distinguished letters and away from them, d in 1..3) and ``det`` at
  dimension 4..6.  Big exact polynomials make ``laurent`` and ``rho_word``
  dominate.  The cofactor determinant is exponential in the dimension, so the
  det inputs stop at dimension 6 and leave out the d = 3 two-variable 5x5
  case: an 8x8 Burau det takes about 242 s.
* verify  - the two theorem verifications and hundreds of seeded word
  problems, decided by handle reduction and cross-checked by the Artin
  action under its budget.  The oracles in ``reps`` dominate.
* cli     - ``python -m mnmap.cli`` in a fresh process per command, all
  twelve subcommands in both output formats.  Interpreter start-up, import
  and argparse/JSON emission dominate.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import gen

WORKLOADS = ("search", "matrix", "verify", "cli")

# --------------------------------------------------------------------------
# search

# (n, k, d, max_len, workers).  The first three are the cells the search
# rewrite must speed up; (4,5,1,5) is enumeration-bound (22,408 freely
# reduced words, 256 pure, 9 hits).  (3,2,1,6) runs with and without the
# thread pool, which must return identical results.  The small cells sweep
# every distinguished strand k for n = 2..4.
SEARCH_CELLS = [
    (3, 2, 1, 8, 0),
    (4, 3, 2, 6, 0),
    (4, 5, 1, 5, 0),
    (3, 2, 1, 6, 0),
    (3, 2, 1, 6, 2),
] + [(n, k, 1 + 2 * (k % 2), 4, 0) for n in (2, 3, 4)
     for k in range(1, n + 2)]

# Hit count and digest of the ordered hit list of every cell, recorded from
# the initial implementation.  The digest pins the search order too.
SEARCH_PINS = {
    (3, 2, 1, 8): (234, '171dc231f4f93b3a'),
    (4, 3, 2, 6): (70, '4ed19b8f845e2614'),
    (4, 5, 1, 5): (9, 'f2fe9280a0e3c3ce'),
    (3, 2, 1, 6): (50, 'f790613be0312b81'),
    (2, 1, 3, 4): (2, '09a2286b7dc0efeb'),
    (2, 2, 1, 4): (12, '0f5fa3d71262b0cf'),
    (2, 3, 3, 4): (8, '4bcfeef97f435f31'),
    (3, 1, 3, 4): (0, 'e3b0c44298fc1c14'),
    (3, 2, 1, 4): (8, '24836fb5a1b43760'),
    (3, 3, 3, 4): (8, '62cd2d2fce50e286'),
    (3, 4, 1, 4): (0, 'e3b0c44298fc1c14'),
    (4, 1, 3, 4): (1, '925f1e73a8f54107'),
    (4, 2, 1, 4): (10, '8718d097f3114257'),
    (4, 3, 3, 4): (10, '2f520844b9d8cc7b'),
    (4, 4, 1, 4): (10, '72c389d154ec020f'),
    (4, 5, 3, 4): (9, 'f2fe9280a0e3c3ce'),
}


def alphabet_size(n: int, k: int) -> int:
    """Generators sigma_i on n+1 strands that the projection's case table
    supports for distinguished strand k, with both signs."""
    return 2 * sum(1 for i in range(1, n + 1)
                   if i in (k - 1, k) or 1 <= k - i - 1 <= n - 1)


def space_words(n: int, k: int, max_len: int) -> int:
    """Freely reduced words of length 1..max_len: |A| (|A|-1)^(L-1)."""
    a = alphabet_size(n, k)
    return sum(a * (a - 1) ** (length - 1) for length in range(1, max_len + 1))


def hits_digest(results) -> str:
    text = "\n".join(f"{r.word}|{r.verified}|{r.freely_trivial}"
                     for r in results)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# matrix

# (copies, strands N, length, generators g, mn_map (k, d) calls,
#  determinant targets).  A word over sigma_1..sigma_g admits every k >= g;
# k in {g, g+1} meets the distinguished letters k-1, k, and k >= g+2 stays
# away from them (a pure relabelling, no cyclic shift, so d changes nothing).
# Determinants are of mn_map images, at dimension N-1 (4..6).
#
# The words come from a fixed catalog.  The seed shifts each word's indices
# (sigma_i -> sigma_{i+s}, with k -> k+s), which changes the input but
# provably not the work: the shifted word has a translated Burau matrix and
# the same mn_map image.  Per-word cost varies 15-30% between random words
# of one shape, so drawing fresh words per seed would make the seed, not the
# program, set the figures.
MATRIX_CONJ_LEN = 3
MATRIX_SLOTS = [
    (1, 8, 400, 6, [(7, 1)], []),
    (10, 7, 200, 5, [(6, 2)], []),
    (4, 6, 120, 4, [(5, 3), (4, 1)], []),
    (3, 8, 160, 4, [(7, 2), (6, 3)], []),
    (4, 6, 64, 4, [(5, 1)], [(5, 1)]),
    (4, 5, 64, 3, [(3, 1), (4, 2)], [(3, 1), (4, 2)]),
    (3, 7, 64, 3, [(6, 1)], [(6, 1)]),
    (3, 5, 48, 2, [(4, 3)], [(4, 3)]),
]


# Word problems (strands, generators used, ...): trivial words u u^-1
# rewritten by braid relations (half = |u|, moves), and random words with
# nonzero exponent sum.  The four 200-letter words make the Artin action
# overrun its budget (inconclusive).  Catalog and shifts as for matrix:
# handle reduction and the Artin action do the same steps on a shifted word.
VERIFY_TRIVIAL = [(5, 3, 8, 6, 40), (6, 4, 12, 10, 40), (7, 5, 16, 12, 40),
                  (8, 6, 20, 16, 30)]
VERIFY_NONTRIVIAL = [(5, 3, 20, 40), (6, 4, 30, 40), (7, 5, 40, 30),
                     (6, 4, 200, 4)]


def pk_fd_letters(pairs: list[gen.Pair], k: int, d: int, n: int
                  ) -> list[tuple[str, int, int]]:
    """Reference for stabilize_fd(project_pk(w, k), d) on n codomain
    strands, transcribed from the case table of the paper."""
    delta = [("s", i, 1) for i in range(1, n)]
    delta_inv = [("s", i, -1) for i in range(n - 1, 0, -1)]
    period = [("t", i, 1) for i in range(1, n)] + [("z", 0, 1)]
    zimg = [("z", 0, 1)] + period * (d - 1)
    zimg_inv = [(kind, i, -e) for kind, i, e in reversed(zimg)]
    out: list[tuple[str, int, int]] = []
    for i, e in pairs:
        if i == k - 1:
            out += zimg_inv if e == 1 else delta
        elif i == k:
            out += delta_inv if e == 1 else zimg
        else:
            out.append(("s", k - i - 1, e))
    return out


# A second, independent evaluation of word matrices: the generator images
# from the reps module docstring applied as column operations over Z/P at
# the point (t, s) = (T0, S0).  A matrix that agrees there and at t = s = 1
# is right with overwhelming probability (Schwartz-Zippel).
P = 2 ** 61 - 1
T0, S0 = 3, 5


def evaluate_word(letters, n: int) -> list[list[int]]:
    """The matrix of a word at (T0, S0) modulo P, row-major."""
    t_inv, s_inv = pow(T0, -1, P), pow(S0, -1, P)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for kind, i, e in letters:
        if kind == "z":
            cols = [cols[-1]] + cols[:-1] if e == 1 else cols[1:] + [cols[0]]
            continue
        a, b = cols[i - 1], cols[i]
        if kind == "t":
            cols[i - 1] = [x * s_inv % P for x in b]
            cols[i] = [x * S0 % P for x in a]
        elif e == 1:  # [[1-t, t], [1, 0]]
            cols[i - 1] = [(x * (1 - T0) + y) % P for x, y in zip(a, b)]
            cols[i] = [x * T0 % P for x in a]
        else:  # [[0, 1], [t^-1, 1-t^-1]]
            cols[i - 1] = [y * t_inv % P for y in b]
            cols[i] = [(x + y * (1 - t_inv)) % P for x, y in zip(a, b)]
    return [list(row) for row in zip(*cols)]


def evaluate_matrix(matrix) -> list[list[int]]:
    """A program's polynomial matrix at (T0, S0) modulo P."""
    return [[sum(c * pow(T0, a, P) * pow(S0, b, P) for a, b, c in p.terms())
             % P for p in row] for row in matrix.rows]


def permutation_matrix(letters, n: int) -> tuple[tuple[int, ...], ...]:
    images = gen.permutation(letters, n)
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        rows[i - 1][j] = 1
    return tuple(tuple(r) for r in rows)


def det_expected(letters, n: int) -> tuple[tuple[int, int, int], ...]:
    """The determinant law as the terms of a monomial:
    det rho(w) = (-t)^(sigma exponent sum) (-1)^(#tau) ((-1)^(n-1))^(#zeta)
    for a word on n strands."""
    e = sum(sign for kind, _, sign in letters if kind == "s")
    flips = e + sum(1 if kind == "t" else n - 1
                    for kind, _, _ in letters if kind != "s")
    return ((e, 0, -1 if flips % 2 else 1),)


# --------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs for one workload; the same seed gives the same
    bytes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return {"cells": [list(c) for c in SEARCH_CELLS]}
    if workload == "matrix":
        catalog = random.Random("matrix:catalog")
        slots = []
        for copies, n, length, g, mn, dets in MATRIX_SLOTS:
            top = max([g + 1] + [k for k, _ in mn])
            for _ in range(copies):
                word = gen.pure_conjugates(catalog, g, length, MATRIX_CONJ_LEN)
                s = rng.randint(0, n - top)
                slots.append({"n": n, "word": gen.render(gen.shift(word, s)),
                              "mn": [[k + s, d] for k, d in mn],
                              "det": [[k + s, d] for k, d in dets]})
        return {"slots": slots}
    if workload == "verify":
        catalog = random.Random("verify:catalog")
        problems = []
        for n, g, half, moves, count in VERIFY_TRIVIAL:
            for _ in range(count):
                word = gen.trivial_word(catalog, g + 1, half, moves)
                problems.append({"n": n, "trivial": True, "word": gen.render(
                    gen.shift(word, rng.randint(0, n - 1 - g)))})
        for n, g, length, count in VERIFY_NONTRIVIAL:
            for _ in range(count):
                word = gen.nontrivial_word(catalog, g + 1, length)
                problems.append({"n": n, "trivial": False, "word": gen.render(
                    gen.shift(word, rng.randint(0, n - 1 - g)))})
        return {"thm1": [1, 2, 3, 4, 5],
                "thm2": [[m, k] for m in range(1, 6)
                         for k in range(1, 2 * m + 1)],
                "problems": problems}
    if workload == "cli":
        return {"commands": _cli_commands(rng)}
    raise ValueError(f"unknown workload {workload!r}")


def _cli_commands(rng: random.Random) -> list[dict]:
    n = rng.randint(4, 6)
    pure = gen.render(gen.pure_conjugates(rng, n, 24, 2))  # on n+1 strands
    d = rng.randint(1, 3)
    m = rng.randint(1, 3)
    defect_n = rng.randint(2, 5)
    base = [
        (["reduce", "--n", str(n), "--flavor", "vcb",
          gen.render_mixed(gen.mixed_word(rng, n, 40, "stz"))], 0),
        (["perm", "--n", str(n), "--flavor", "cylindrical",
          gen.render_mixed(gen.mixed_word(rng, n, 40, "sz"))], 0),
        (["pk", "--n", str(n), "--k", str(n + 1), pure], 0),
        (["fd", "--n", str(n), "--d", str(d),
          gen.render_mixed(gen.mixed_word(rng, n, 30, "sz"))], 0),
        (["rho", "--n", str(n), "--flavor", "vcb",
          gen.render_mixed(gen.mixed_word(rng, n, 40, "stz"))], 0),
        (["burau", "--n", str(n),
          gen.render(gen.nontrivial_word(rng, n, 60))], 0),
        (["mn", "--n", str(n), "--k", str(n + 1), "--d", str(d), pure], 0),
        (["trivial", "--n", str(n),
          gen.render(gen.trivial_word(rng, n, 12, 10))], 0),
        (["verify-thm1", "--d", str(d)], 0),
        (["verify-thm2", "--m", str(m), "--k", str(rng.randint(1, 2 * m))],
         0),
        (["search", "--n", "2", "--k", str(rng.randint(2, 3)), "--d",
          str(d), "--max-len", "5"], 0),
        (["defect", "--i", str(rng.randint(1, defect_n)), "--k",
          str(defect_n + 1), "--n", str(defect_n), "--d", str(d)], 0),
    ]
    commands = []
    for fmt in ("text", "json"):
        for argv, code in base:
            if argv[0] == "trivial" and fmt == "json":
                # the nontrivial side of the word problem: exit status 1
                argv = ["trivial", "--n", str(n),
                        gen.render(gen.nontrivial_word(rng, n, 30))]
                code = 1
            commands.append({"argv": argv + ["--format", fmt], "code": code})
    return commands


# --------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One program call.  `call` is timed; `check` is not, and returns True
    when the output obeys the workload's law.  Exceptions listed in
    `inconclusive` mark the operation inconclusive rather than failed.
    `companion`, if set, is an untimed extra call made in traced passes.
    `spawn` marks an operation that is a whole process, `threads` one that
    runs in a thread pool."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    inconclusive: tuple = ()
    companion: Callable[[], object] | None = None
    space_words: int = 0
    spawn: bool = False
    threads: bool = False


def build_ops(workload: str, inputs: dict, mods: SimpleNamespace,
              src: str) -> list[Op]:
    """Bind the inputs to program calls.  Calls look functions up on their
    modules at call time, so the traced run's wrappers see them."""
    return {"search": _search_ops, "matrix": _matrix_ops,
            "verify": _verify_ops, "cli": _cli_ops}[workload](inputs, mods,
                                                              src)


def _search_ops(inputs, mods, src):
    ops = []
    for n, k, d, max_len, workers in inputs["cells"]:
        pin = SEARCH_PINS[(n, k, d, max_len)]

        def check(results, pin=pin):
            return ((len(results), hits_digest(results)) == pin
                    and all(r.verified for r in results))

        ops.append(Op(
            "search",
            lambda n=n, k=k, d=d, L=max_len, w=workers:
                mods.kernel.search_kernel(n, k, d, L, workers=w),
            check, space_words=space_words(n, k, max_len),
            threads=workers > 0))
    return ops


def _matrix_check(letters, n: int):
    """Check an output matrix against the word's permutation at t = s = 1
    and against evaluate_word at (T0, S0)."""
    perm = permutation_matrix(letters, n)
    value = evaluate_word(letters, n)
    return lambda m: (m.specialize(1, 1) == perm
                      and evaluate_matrix(m) == value)


def _matrix_ops(inputs, mods, src):
    ops = []
    for slot in inputs["slots"]:
        n = slot["n"]
        pairs = gen.parse(slot["word"])
        word = mods.words.parse_word(slot["word"], mods.words.classical(n))
        ops.append(Op(
            "burau", lambda word=word: mods.reps.burau(word),
            _matrix_check([("s", i, e) for i, e in pairs], n)))
        for k, d in slot["mn"]:
            letters = pk_fd_letters(pairs, k, d, n - 1)
            ops.append(Op(
                "mn_map",
                lambda word=word, k=k, d=d: mods.maps.mn_map(word, k, d),
                _matrix_check(letters, n - 1)))
            if [k, d] in slot["det"]:
                expected = det_expected(letters, n - 1)
                ops.append(Op("det",
                              lambda m=mods.maps.mn_map(word, k, d): m.det(),
                              lambda p, expected=expected:
                                  p.terms() == expected))
    return ops


def _is_identity_matrix(matrix) -> bool:
    return all(entry.terms() == (((0, 0, 1),) if i == j else ())
               for i, row in enumerate(matrix.rows)
               for j, entry in enumerate(row))


def _report_ok(report) -> bool:
    return (report.passed and report.image_is_identity
            and report.witness_nontrivial and _is_identity_matrix(report.image))


def _verify_ops(inputs, mods, src):
    ops = [Op("verify_theorem1",
              lambda d=d: mods.kernel.verify_theorem1(d), _report_ok)
           for d in inputs["thm1"]]
    ops += [Op("verify_theorem2",
               lambda m=m, k=k: mods.kernel.verify_theorem2(m, k), _report_ok)
            for m, k in inputs["thm2"]]
    for problem in inputs["problems"]:
        word = mods.words.parse_word(problem["word"],
                                     mods.words.classical(problem["n"]))
        trivial = problem["trivial"]
        ops.append(Op(
            "is_trivial_braid",
            lambda word=word: mods.reps.is_trivial_braid(word),
            lambda verdict, trivial=trivial: verdict is trivial))
        ops.append(Op(
            "artin_apply",
            lambda word=word: mods.reps.artin_apply(word),
            lambda aut, trivial=trivial: aut.is_identity() is trivial,
            inconclusive=(mods.reps.ArtinBudgetError,)))
    return ops


def run_cli_inprocess(mods, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(list(argv))
    return code, out.getvalue().encode()


def _cli_ops(inputs, mods, src):
    ops = []
    for command in inputs["commands"]:
        argv, code = command["argv"], command["code"]
        # The expected stdout is the in-process run's; its exit status must
        # match the one known from how the input was built.
        got, stdout = run_cli_inprocess(mods, argv)
        expected = (code, hashlib.sha256(stdout).hexdigest()) \
            if got == code else None

        def call(argv=argv):
            proc = subprocess.run(
                [sys.executable, "-E", "-s", "-m", "mnmap.cli", *argv],
                cwd=src, capture_output=True, timeout=120)
            return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()

        ops.append(Op("cli", call,
                      lambda result, expected=expected: result == expected,
                      companion=lambda argv=argv: run_cli_inprocess(mods,
                                                                    argv),
                      spawn=True))
    return ops
