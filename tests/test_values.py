"""Value semantics of the package's seven value types: immutable, equal and
hashed by value, validated on construction, with fixed repr text."""
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import mnmap
from mnmap.kernel import (
    SearchResult,
    VerificationReport,
    search_kernel,
    verify_theorem2,
)
from mnmap.reps import FreeAut, artin_apply
from mnmap.words import (
    Flavor,
    Letter,
    Permutation,
    Word,
    WordError,
    classical,
    parse_word,
    sigma,
    tau,
    vcb,
)


def first_hit():
    return search_kernel(n=3, k=2, d=1, max_len=4)[0]


# Each type: a function building one value (twice, for a distinct equal
# copy), one of its fields, and its repr.
VALUES = {
    "Letter": (lambda: Letter("s", 1, 1), "sign", "Letter('s1')"),
    "Flavor": (lambda: classical(3), "n", "classical(3)"),
    "Permutation": (lambda: Permutation((2, 1)), "images",
                    "Permutation(images=(2, 1))"),
    "Word": (lambda: parse_word("s1 s2^-1 z", vcb(3)), "letters",
             "Word(vcb(3), 's1 s2^-1 z')"),
    "FreeAut": (lambda: FreeAut.identity(3), "images",
                "FreeAut(n=3, images=(((1, 1),), ((2, 1),), ((3, 1),)))"),
    "SearchResult": (first_hit, "verified",
                     "SearchResult(word=Word(classical(4), "
                     "'s1 s1 s2^-1 s2^-1'), verified=True, "
                     "freely_trivial=False)"),
    "VerificationReport": (lambda: verify_theorem2(1, 1), "witness",
                           "VerificationReport(witness=Word(classical(3), "
                           "'s1^-1 s1^-1'), params={'m': 1, 'k': 1, 'd': 1}, "
                           "image=PolyMatrix(2x2), image_is_identity=True, "
                           "witness_nontrivial=True)"),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueSemantics:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        make, field, _ = VALUES[name]
        value = make()
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == before

    def test_equal_by_value(self, name):
        make, _, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        if name == "VerificationReport":  # holds a dict and a PolyMatrix
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_repr(self, name):
        make, _, text = VALUES[name]
        assert repr(make()) == text

    def test_copy_and_pickle_round_trip(self, name):
        make, _, text = VALUES[name]
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and repr(twin) == text
            assert twin == value


def test_unequal_values():
    assert sigma(1) != sigma(1, -1)
    assert classical(3) != vcb(3)
    assert Permutation((2, 1)) != Permutation((1, 2))
    assert Word(classical(3), ()) != Word(vcb(3), ())
    assert Word(classical(3), (sigma(1),)) != Word(classical(3), ())
    assert FreeAut.identity(2) != FreeAut.identity(3)
    hits = search_kernel(n=3, k=2, d=1, max_len=4)
    assert hits[0] != hits[1]


def test_tuple_backed_types_equal_plain_tuples_but_word_is_not_one():
    assert sigma(2, -1) == ("s", 2, -1)
    assert classical(3) == ("classical", 3)
    w = parse_word("s1 s2", classical(3))
    assert not isinstance(w, tuple)
    assert w != (w.flavor, w.letters)
    assert list(w) == [sigma(1), sigma(2)] and len(w) == 2


@pytest.mark.parametrize("make, error, message", [
    (lambda: Letter("x", 1, 1), WordError, "unknown letter kind 'x'"),
    (lambda: Letter("s", 1, 0), WordError,
     "letter sign must be +1 or -1, got 0"),
    (lambda: Letter("z", 2, 1), WordError,
     "the cyclic shift carries no index"),
    (lambda: Letter("s", 0, 1), WordError,
     "strand index must be >= 1, got 0"),
    (lambda: Flavor("braid", 3), WordError, "unknown flavor 'braid'"),
    (lambda: Flavor("classical", 0), WordError,
     "strand count must be >= 1, got 0"),
    (lambda: Permutation((1, 1)), ValueError,
     "not a bijection of 1..2: (1, 1)"),
    (lambda: Word(classical(3), (tau(1),)), WordError,
     "letter t1 not admitted in classical(3)"),
    (lambda: Word(classical(3), (sigma(3),)), WordError,
     "index of s3 out of range for 3 strands"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


def test_keyword_construction():
    assert Letter(kind="s", index=1, sign=-1) == sigma(1, -1)
    assert Flavor(group="vcb", n=3) == vcb(3)
    assert Permutation(images=(1,)).is_identity()
    w = Word(flavor=classical(2))
    assert w.letters == () and str(w) == ""
    result = SearchResult(word=w, verified=True, freely_trivial=False)
    assert result.word is w and result == (w, True, False)
    aut = artin_apply(parse_word("s1 s1^-1", classical(2)))
    assert aut == FreeAut(n=2, images=(((1, 1),), ((2, 1),)))
    report = verify_theorem2(1, 1)
    assert VerificationReport(*report) == report and report.passed


def test_cli_import_loads_no_dataclasses_or_inspect():
    """In a fresh interpreter, importing the CLI pulls in none of these
    modules: each costs milliseconds on every command-line start, json is
    imported only by the output that needs it and argparse only by the
    command lines that the subcommand table does not read."""
    src = Path(mnmap.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import mnmap.cli; "
            "print(sorted({'argparse', 'dataclasses', 'inspect', 'json'} "
            "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv, out, loads_json", [
    (["reduce", "--n", "3", "s1"], "s1\n", False),
    (["reduce", "--n", "3", "--format", "json", "s1"],
     '{"flavor": "classical", "n": 3, "word": "s1"}\n', True),
    # the text report formats its non-string values as JSON
    (["verify-thm2", "--m", "1", "--k", "1"],
     'witness: s1^-1 s1^-1\nparams: {"m": 1, "k": 1, "d": 1}\n'
     "image_is_identity: true\nwitness_nontrivial: true\npassed: true\n",
     True),
])
def test_cli_imports_json_only_for_output_that_needs_it(argv, out,
                                                       loads_json):
    src = Path(mnmap.__file__).resolve().parents[1]
    code = (f"import sys; from mnmap.cli import main; code = main({argv!r}); "
            "print(code, 'json' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == (out, f"0 {loads_json}\n")



@pytest.mark.parametrize("argv, out, loads_argparse", [
    (["reduce", "--n", "3", "s1 s2 s2^-1"], "s1\n", False),
    (["mn", "--n", "2", "--k", "1", "--d", "1", "--format", "json",
      "s1^-2"], '{"n": 2, "entries": [[[[0, 0, "1"]], []], '
     '[[], [[0, 0, "1"]]]]}\n', False),
    (["verify-thm2", "--m", "1", "--k", "1"],
     'witness: s1^-1 s1^-1\nparams: {"m": 1, "k": 1, "d": 1}\n'
     "image_is_identity: true\nwitness_nontrivial: true\npassed: true\n",
     False),
    # help, a usage error (no stdout), and shapes the table does not read
    (["--help"], "usage: mnmap", True),
    (["reduce", "--help"], "usage: mnmap reduce", True),
    (["reduce", "--n", "x", "s1"], "", True),
    (["reduce", "--n=3", "s1 s2 s2^-1"], "s1\n", True),
    (["trivial", "--n", "3", "--max", "1", "s1"], "false\n", True),
])
def test_cli_imports_argparse_only_for_lines_the_table_does_not_read(
        argv, out, loads_argparse):
    """A well-formed command line leaves argparse, and the gettext and
    locale imports it brings, unloaded; the other lines load argparse and
    print what it prints: help, or one error line for a usage error."""
    src = Path(mnmap.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); from mnmap.cli import "
            f"main\ntry: main({argv!r})\nexcept SystemExit: pass\n"
            "print(sorted({'argparse', 'gettext', 'locale'} "
            "& (set(sys.modules) - before)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    *written, loaded = proc.stderr.splitlines()
    assert ("argparse" in loaded) is loads_argparse, proc.stderr
    if not loads_argparse:
        assert loaded == "[]"
    if out.startswith("usage:"):
        assert proc.stdout.startswith(out) and written == []
    else:
        assert proc.stdout == out
        assert len(written) == (out == "") and all(
            line.startswith("error: ") for line in written)
