"""Tests of the benchmark itself: input generators, output checks, tracing
and the command's contract.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import gen
import harness
import run
import tracing
import workloads

MODS = harness.load_package()
MODS.kernel.bigelow_alpha()  # cached, as after the harness's set-up
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workloads.make_inputs(workload, 7))
    assert json.dumps(workloads.make_inputs(workload, 7)) == first
    other = json.dumps(workloads.make_inputs(workload, 8))
    # the search grid is fixed; every other workload draws from the seed
    assert (other == first) == (workload == "search")


def test_generated_pure_words_are_pure():
    words = [(slot["n"], slot["word"])
             for slot in workloads.make_inputs("matrix", 3)["slots"]]
    for command in workloads.make_inputs("cli", 3)["commands"]:
        if command["argv"][0] in ("pk", "mn"):
            words.append((int(command["argv"][2]) + 1, command["argv"][-3]))
    for n, text in words:
        word = MODS.words.parse_word(text, MODS.words.classical(n))
        assert word.is_pure()


def test_trivial_words_are_not_freely_trivial():
    problems = workloads.make_inputs("verify", 3)["problems"]
    assert {p["trivial"] for p in problems} == {True, False}
    for p in problems:
        word = MODS.words.parse_word(p["word"], MODS.words.classical(p["n"]))
        assert len(word.free_reduce()) > 0
        if not p["trivial"]:  # certified by the exponent sum
            assert sum(e for _, e in gen.parse(p["word"])) != 0


def test_constructed_trivial_words_are_trivial():
    problems = workloads.make_inputs("verify", 4)["problems"]
    for p in [p for p in problems if p["trivial"]][:30]:
        word = MODS.words.parse_word(p["word"], MODS.words.classical(p["n"]))
        assert MODS.reps.is_trivial_braid(word)


def test_reference_pipeline_matches_program():
    for slot in workloads.make_inputs("matrix", 5)["slots"][:12]:
        n = slot["n"]
        word = MODS.words.parse_word(slot["word"], MODS.words.classical(n))
        for k, d in slot["mn"]:
            image = MODS.maps.stabilize_fd(MODS.maps.project_pk(word, k), d)
            expected = workloads.pk_fd_letters(gen.parse(slot["word"]), k, d,
                                               n - 1)
            assert [(l.kind, l.index, l.sign) for l in image] == expected
            assert gen.permutation(expected, n - 1) == list(
                image.permutation().images)


def test_shift_changes_the_word_but_not_the_image():
    pairs = gen.pure_conjugates(random.Random(1), 4, 48, 3)
    classical = MODS.words.classical(6)
    word = MODS.words.parse_word(gen.render(pairs), classical)
    shifted = MODS.words.parse_word(gen.render(gen.shift(pairs, 1)),
                                    classical)
    assert word != shifted
    assert MODS.maps.mn_map(word, 5, 2) == MODS.maps.mn_map(shifted, 6, 2)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 5)])
def test_space_words_formula_counts_freely_reduced_words(n, k):
    a = workloads.alphabet_size(n, k)
    count = sum(
        1 for length in range(1, 5) for w in product(range(a), repeat=length)
        # letters 2j and 2j+1 are mutually inverse
        if all(w[i] ^ 1 != w[i + 1] for i in range(length - 1)))
    assert count == workloads.space_words(n, k, 4)


def _small_ops():
    """A few operations of every in-process workload, fast enough for a
    test."""
    search = workloads.build_ops(
        "search", {"cells": [[3, 2, 1, 4, 0], [3, 2, 1, 4, 2]]}, MODS, "")
    slots = [s for s in workloads.make_inputs("matrix", 2)["slots"]
             if len(s["word"].split()) <= 64][:4]
    matrix = workloads.build_ops("matrix", {"slots": slots}, MODS, "")
    verify_inputs = workloads.make_inputs("verify", 2)
    verify_inputs.update(thm1=[2], thm2=[[2, 3]],
                         problems=verify_inputs["problems"][:20])
    verify = workloads.build_ops("verify", verify_inputs, MODS, "")
    return search + matrix + verify


def _traced_pass(ops) -> dict:
    tracer = tracing.Tracer(MODS)
    tracer.install()
    try:
        record = harness.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert record["failed"] == 0
    return tracing.layer_metrics(*tracer.collect())


def test_traced_counts_repeat_exactly():
    ops = _small_ops()
    first, second = _traced_pass(ops), _traced_pass(ops)
    for name in ("kernel.search.candidates", "kernel.search.hits",
                 "maps.mn_map.calls", "laurent.mul.calls",
                 "reps.rho_word.letters", "laurent.det.calls",
                 "reps.handle_reduce.calls", "words.is_pure.calls"):
        assert first[name] == second[name] > 0, name
    # search_kernel(3,2,1,4) re-runs mn_map once per hit
    assert first["kernel.search.reverify_ratio"] > 1


def test_tracing_leaves_the_package_as_it_was():
    before = (MODS.maps.mn_map, MODS.laurent.LaurentPoly.__mul__,
              MODS.words.Word.is_pure)
    tracer = tracing.Tracer(MODS)
    tracer.install()
    assert MODS.maps.mn_map is not before[0]
    tracer.uninstall()
    assert (MODS.maps.mn_map, MODS.laurent.LaurentPoly.__mul__,
            MODS.words.Word.is_pure) == before


def test_checks_reject_wrong_outputs():
    search = workloads.build_ops(
        "search", {"cells": [[3, 2, 1, 4, 0]]}, MODS, "")[0]
    results = search.call()
    assert search.check(results)
    assert not search.check(results[:-1])
    assert not search.check(results[::-1])

    slots = workloads.make_inputs("matrix", 1)["slots"]
    slot = next(s for s in slots if s["det"])
    ops = workloads.build_ops("matrix", {"slots": [slot]}, MODS, "")
    det = next(op for op in ops if op.kind == "det")
    value = det.call()
    assert det.check(value)
    assert not det.check(value * MODS.laurent.T)
    assert not det.check(-value)
    burau = next(op for op in ops if op.kind == "burau")
    matrix = burau.call()
    assert burau.check(matrix)
    assert not burau.check(MODS.laurent.PolyMatrix.identity(slot["n"]))
    assert not burau.check(matrix.transpose())


def test_every_workload_leaves_a_tail_percentile():
    for workload in ("search", "matrix", "verify"):
        ops = workloads.build_ops(
            workload, workloads.make_inputs(workload, 1), MODS, "")
        assert len(ops) > run.TAIL_BEYOND
    assert len(workloads.make_inputs("cli", 1)["commands"]) > run.TAIL_BEYOND


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
