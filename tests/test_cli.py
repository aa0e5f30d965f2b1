import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_pure_word, random_word
from mnmap import cli, kernel, maps, reps, words
from mnmap.cli import UsageError, _COMMANDS, _build_parser, _fast_args, main
from mnmap.laurent import MAX_DIMENSION, PolyMatrix
from mnmap.maps import mn_map
from mnmap.reps import rho_word
from mnmap.words import MAX_WORD_LETTERS, classical, parse_word, vcb


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_mn_identity(self, capsys):
        code, out, _ = run(capsys, "mn", "--n", "2", "--k", "1", "--d", "1",
                           "s1^-2")
        assert code == 0
        assert out == "[1, 0]\n[0, 1]\n"

    def test_burau_identity(self, capsys):
        code, out, _ = run(capsys, "burau", "--n", "5", "s1 s1^-1")
        assert code == 0
        assert out.splitlines() == [
            "[1, 0, 0, 0, 0]",
            "[0, 1, 0, 0, 0]",
            "[0, 0, 1, 0, 0]",
            "[0, 0, 0, 1, 0]",
            "[0, 0, 0, 0, 1]",
        ]

    def test_burau_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "burau", "--n", "3", "--format", "json",
                           "s1 s2")
        assert code == 0
        matrix = PolyMatrix.from_json_obj(json.loads(out))
        assert matrix == rho_word(parse_word("s1 s2", classical(3)))

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--n", "3", "s1 s2 s2^-1")
        assert code == 0 and out == "s1\n"

    def test_perm(self, capsys):
        code, out, _ = run(capsys, "perm", "--n", "3", "--flavor",
                           "cylindrical", "z")
        assert code == 0 and out == "1->3 2->1 3->2\n"
        code, out, _ = run(capsys, "perm", "--n", "3", "--flavor",
                           "cylindrical", "--format", "json", "z")
        assert json.loads(out) == {"images": [3, 1, 2]}

    def test_pk(self, capsys):
        code, out, _ = run(capsys, "pk", "--n", "5", "--k", "6", "s5 s5^-1")
        assert code == 0 and out == "z^-1 s1 s2 s3 s4\n"

    def test_fd(self, capsys):
        code, out, _ = run(capsys, "fd", "--n", "3", "--d", "2", "z")
        assert code == 0 and out == "z t1 t2 z\n"

    def test_rho_vcb(self, capsys):
        code, out, _ = run(capsys, "rho", "--n", "2", "--flavor", "vcb", "t1")
        assert code == 0 and out == "[0, s]\n[s^-1, 0]\n"

    @pytest.mark.parametrize("command", ["reduce", "perm", "rho"])
    @pytest.mark.parametrize("flavor", ["classical", "cylindrical", "vcb"])
    def test_each_flavor(self, capsys, command, flavor):
        code, out, err = run(capsys, command, "--n", "4", "--flavor", flavor,
                             "s1 s2^-1")
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command", ["reduce", "perm", "rho"])
    def test_unknown_flavor(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "3", "--flavor",
                             "virtual", "s1")
        assert code == 2 and out == "" and "--flavor" in err

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "trivial", "--n", "3", "s1 s1^-1")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "trivial", "--n", "3", "s1")
        assert code == 1 and out == "false\n"

    def test_verify_thm1_json(self, capsys):
        code, out, _ = run(capsys, "verify-thm1", "--d", "2", "--format",
                           "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["params"] == {"k": 6, "d": 2}

    def test_verify_thm2_text(self, capsys):
        code, out, _ = run(capsys, "verify-thm2", "--m", "1", "--k", "1")
        assert code == 0
        assert "passed: true" in out

    def test_verify_thm2_text_in_full(self, capsys):
        code, out, _ = run(capsys, "verify-thm2", "--m", "1", "--k", "1")
        assert code == 0
        assert out == ("witness: s1^-1 s1^-1\n"
                       'params: {"m": 1, "k": 1, "d": 1}\n'
                       "image_is_identity: true\n"
                       "witness_nontrivial: true\n"
                       "passed: true\n")

    def test_search(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2", "--k", "1", "--d",
                           "1", "--max-len", "4")
        assert code == 0
        assert out.splitlines()[0] == "s1^-1 s1^-1"

    def test_search_json(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2", "--k", "1", "--d",
                           "1", "--max-len", "2", "--format", "json")
        results = json.loads(out)
        assert results == [{"word": "s1^-1 s1^-1", "verified": True,
                            "freely_trivial": False}]

    def test_defect(self, capsys):
        code, out, _ = run(capsys, "defect", "--i", "1", "--k", "1", "--n",
                           "2", "--d", "1")
        assert code == 0
        expected = str(mn_map(parse_word("s1 s1^-1", classical(3)), 1, 1))
        assert out == expected + "\n"

    def test_byte_determinism(self, capsys):
        first = run(capsys, "mn", "--n", "5", "--k", "6", "--d", "2",
                    "s1^2 s2^2")
        second = run(capsys, "mn", "--n", "5", "--k", "6", "--d", "2",
                     "s1^2 s2^2")
        assert first == second


class TestLongWordPins:
    """sha256 of the stdout of long-word commands, in text and json, pinned
    before rho_word's walk kept each column as one dict: the matrices stay
    byte-identical across changes to the walk."""

    BURAU = random_word(random.Random(8400), classical(8), 400)
    MN = random_pure_word(random.Random(6503), classical(6), 40)
    RHO = random_word(random.Random(5300), vcb(5), 300)
    PINS = {
        ("burau", "text"): "9143b95a5608f34d1e77b0dcbe839ceb"
                           "20f493478e6e42960882584999a1d6b1",
        ("burau", "json"): "9000222a9a5193dd80fa3e0fc5057f15"
                           "b0b9babd010af286cf028485555e82ce",
        ("mn", "text"): "227984e8f64566839563c599c0d0480a"
                        "1e1c0ab4cc9239ed4c735737f3eb7635",
        ("mn", "json"): "a739f7a202a90cfec6884f41435751f2"
                        "ee8d635bd4dbd781214940459bb77b02",
        ("rho", "text"): "ba43057a980ccba7a34445604005c331"
                         "81ae07f155a1d06ec111791dd0de6156",
        ("rho", "json"): "a7d80986d8920adf1749e7b10eacc004"
                         "2294015c5a55444f4db22cc833a5140f",
    }

    def test_words(self):
        assert (len(self.BURAU), len(self.MN), len(self.RHO)) == (400, 96,
                                                                  300)
        # k = 5 on 6 strands: sigma_4 and sigma_5 are the distinguished
        # letters, and d = 3 winds each of their zeta images
        assert {letter.index for letter in self.MN} == {1, 2, 3, 4, 5}
        assert {letter.kind for letter in self.RHO} == {"s", "t", "z"}

    @pytest.mark.parametrize("command, fmt", sorted(PINS))
    def test_stdout_digest(self, capsys, command, fmt):
        argv = {"burau": ["burau", "--n", "8", str(self.BURAU)],
                "mn": ["mn", "--n", "5", "--k", "5", "--d", "3",
                       str(self.MN)],
                "rho": ["rho", "--n", "5", "--flavor", "vcb",
                        str(self.RHO)]}[command]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.PINS[command, fmt]


class TestWordCommandPins:
    """sha256 of the stdout of pk, fd and reduce on the pipeline's long
    words, in text and json, pinned before rho_word walked freely reduced
    words: the word commands print their words as they were, pk and fd
    unreduced."""

    MN = TestLongWordPins.MN
    PK = maps.project_pk(MN, 5)
    FD = maps.stabilize_fd(PK, 3)
    PINS = {
        ("pk", "text"): "4ed33bd8d332172d1381bfb4ff2c0d8b"
                        "c1840c2a78b74a59bfcef4cecf2c6334",
        ("pk", "json"): "f475cf6dc3987c40bddf3bfd71ca3e62"
                        "0ea7fec3ee5d23dd53030ef3b04490c6",
        ("fd", "text"): "38a27e693ab6fdd5b7239ab6660e8ad2"
                        "34c313918fa7b0217aa2a7814390ff5c",
        ("fd", "json"): "5e8fea01ab357396d9b69f6041d55a87"
                        "2ed5a12c8e01e4a68bf934511e447f18",
        ("reduce", "text"): "20ebaddce3208ac14b494e81fd7d0393"
                            "70061ca22c9ab83cdcee9300007f04eb",
        ("reduce", "json"): "f872c8b84ccc5c33c556968bbd4dc7b5"
                            "96b2d02cc613d28a2cae026dced3d357",
    }

    def test_words(self):
        # the projection and the winding leave pairs for reduce to cancel
        assert (len(self.PK), len(self.FD), len(self.FD.free_reduce())) \
            == (153, 343, 311)

    @pytest.mark.parametrize("command, fmt", sorted(PINS))
    def test_stdout_digest(self, capsys, command, fmt):
        argv = {"pk": ["pk", "--n", "5", "--k", "5", str(self.MN)],
                "fd": ["fd", "--n", "5", "--d", "3", str(self.PK)],
                "reduce": ["reduce", "--n", "5", "--flavor", "vcb",
                           str(self.FD)]}[command]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.PINS[command, fmt]


def subparsers(parser):
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


class TestParserSurface:
    """The argparse parser is built only for the command lines that
    _fast_args leaves to it.  One whose first argument names a subcommand
    builds that subparser alone; every other command line builds them all.
    Compared in process with the full build, since argparse's wording
    differs between Python versions."""

    NAMES = [name for name, _, _ in _COMMANDS]

    @pytest.mark.parametrize("name", NAMES)
    def test_one_subparser_matches_the_full_build(self, name):
        alone = subparsers(_build_parser(name))
        full = subparsers(_build_parser())[name]
        assert list(alone) == [name]
        assert alone[name].format_help() == full.format_help()
        assert alone[name].format_usage() == full.format_usage()

    @pytest.mark.parametrize("argv", [[], ["bogus"],
                                      ["--n", "3", "reduce", "s1"]])
    def test_no_subcommand_named_gets_the_full_parser_error(self, capsys,
                                                            argv):
        with pytest.raises(UsageError) as raised:
            _build_parser().parse_args(argv)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {raised.value}\n")
        if argv:  # an invalid choice lists every subcommand
            assert all(name in err for name in self.NAMES)

    @pytest.mark.parametrize("argv", [["--help"], ["reduce", "--help"]])
    def test_help_is_the_full_parsers(self, capsys, argv):
        full = _build_parser()
        expected = (subparsers(full)[argv[0]] if len(argv) == 2
                    else full).format_help()
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize("name", ["search", "verify-thm2"])
    def test_kernel_commands_say_what_kernel(self, capsys, name):
        # the letter-wise projection table is no homomorphism on PB_{n+1}
        with pytest.raises(SystemExit):
            main([name, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert ("not multiplicative at sigma_{k-1}, sigma_k" in out
                and "kernel of the word map, not of a homomorphism on "
                "PB_{n+1}" in out)

    def test_reads_sys_argv_like_the_console_script(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(sys, "argv", ["mnmap", "reduce", "--n", "3",
                                          "s1 s2 s2^-1"])
        assert main() == 0
        assert capsys.readouterr() == ("s1\n", "")


# Values for a well-formed line: small ints keep every command fast.
_VALUES = {"word": ["s1", "s1 s2^-1", "s1^-2 s2^2", "z t1", "1 -2 1", ""],
           "--flavor": list(cli._ARGUMENTS["--flavor"]["choices"]),
           "--format": ["text", "json"], "--max-steps": ["0", "5"]}
# Tokens that a mutation inserts or puts in place of another.
_POOL = ["-1", "", " 5", "+4", "\u0663", "007", "--n=3", "--ma", "-h", "--",
         "-1 2", "s2", "--n", "--format", "json", "x"]


@st.composite
def _command_lines(draw):
    """A well-formed line of any subcommand, options shuffled and optional
    ones sometimes dropped, then up to three mutations: a token dropped,
    inserted, duplicated or replaced, or an option given twice."""
    name, _, arguments = draw(st.sampled_from(_COMMANDS))
    pairs = [[argument, draw(st.sampled_from(_VALUES.get(argument,
                                                         ["1", "2", "3"])))]
             for argument in arguments if argument != "word"
             and (argument not in cli._ARGUMENTS or draw(st.booleans()))]
    pairs = draw(st.permutations(pairs))
    if "word" in arguments:
        pairs.insert(draw(st.integers(0, len(pairs))),
                     [draw(st.sampled_from(_VALUES["word"]))])
    argv = [name] + [token for pair in pairs for token in pair]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "insert", "duplicate", "replace",
                                     "repeat"]))
        at = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(_POOL))
        if kind == "drop":
            del argv[at]
        elif kind == "insert":
            argv.insert(at, token)
        elif kind == "duplicate":
            argv.insert(at, argv[at])
        elif kind == "replace":
            argv[at] = token
        else:
            options = [i for i, t in enumerate(argv[:-1]) if t.startswith("--")]
            if options:
                i = draw(st.sampled_from(options))
                argv += argv[i:i + 2]
        if not argv:
            break
    return argv


def _parsed(argv):
    """What argparse makes of argv: a dict, or the type of what it raised."""
    try:
        return vars(_build_parser(argv[0] if argv else None).parse_args(argv))
    except (UsageError, SystemExit) as err:
        return type(err)


def _main_result(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


class TestFastArgs:
    """_fast_args reads well-formed lines without argparse and must build
    exactly argparse's namespace; on anything else it returns None and
    argparse parses the line, so main's output never depends on which of
    them read it."""

    @settings(max_examples=400)
    @given(_command_lines())
    def test_matches_argparse(self, argv):
        fast = _fast_args(argv)
        if fast is not None:
            assert vars(fast) == _parsed(argv)
        with mock.patch.object(cli, "_fast_args", lambda argv: None):
            slow = _main_result(argv)
        assert _main_result(argv) == slow

    @pytest.mark.parametrize("optional", [True, False])
    @pytest.mark.parametrize("name, arguments",
                             [(name, arguments)
                              for name, _, arguments in _COMMANDS])
    def test_reads_every_subcommand(self, name, arguments, optional):
        argv = [name]
        for argument in arguments:
            value = _VALUES.get(argument, ["2"])[-1]
            if argument == "word":
                argv.append(value)
            elif optional or argument not in cli._ARGUMENTS:
                argv += [argument, value]
        fast = _fast_args(argv)
        assert fast is not None and vars(fast) == _parsed(argv)

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["reduce", "--help"], ["bogus", "s1"],
        ["--n", "3", "reduce", "s1"],
        ["reduce", "--n=3", "s1"],                     # --opt=value
        ["trivial", "--n", "3", "--max", "1", "s1"],   # abbreviation
        ["reduce", "--n", "3", "--", "s1"],
        ["reduce", "--n", "3", "--n", "3", "s1"],      # repeated option
        ["search", "--n", "2", "--k", "1", "--d", "1", "--max-len", "-3"],
        ["reduce", "--n", "3", "-1 2"],                # dash-led word
        ["reduce", "--n", "3", "s1", "s2"],            # a second word
        ["verify-thm1", "--d", "1", "s1"],             # no word taken
        ["reduce", "--n", "x", "s1"],                  # bad int
        ["reduce", "--n", "", "s1"],
        ["reduce", "--n", "3", "--flavor", "virtual", "s1"],  # bad choice
        ["reduce", "--n", "3"],                        # word missing
        ["search", "--n", "2", "--k", "1", "--d", "1"],  # option missing
        ["reduce", "--n", "3", "s1", "--format"],      # value missing
        ["burau", "--n", "3", "--k", "1", "s1"],       # not its option
    ])
    def test_leaves_every_other_line_to_argparse(self, argv):
        assert _fast_args(argv) is None


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 2 and "error:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "burau", "s1")
        assert code == 2 and "--n" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run(capsys, "burau", "--n", "3", "--k", "1", "s1")
        assert code == 2 and "error:" in err

    def test_bad_token(self, capsys):
        code, _, err = run(capsys, "burau", "--n", "3", "q1")
        assert code == 2 and "q1" in err

    def test_flavor_violation(self, capsys):
        code, _, err = run(capsys, "burau", "--n", "3", "z")
        assert code == 2 and "error:" in err

    def test_purity_error(self, capsys):
        code, _, err = run(capsys, "pk", "--n", "5", "--k", "6", "s1")
        assert code == 2 and "pure" in err

    def test_bad_d(self, capsys):
        code, _, err = run(capsys, "fd", "--n", "3", "--d", "0", "z")
        assert code == 2 and "positive" in err

    def test_verify_thm2_bad_k(self, capsys):
        code, _, err = run(capsys, "verify-thm2", "--m", "1", "--k", "9")
        assert code == 2 and "error:" in err

    def test_search_bad_k(self, capsys):
        code, out, err = run(capsys, "search", "--n", "3", "--k", "0", "--d",
                             "1", "--max-len", "4")
        assert code == 2 and out == "" and "k must be in 1..4" in err

    def test_search_bad_d(self, capsys):
        code, out, err = run(capsys, "search", "--n", "2", "--k", "1", "--d",
                             "0", "--max-len", "1")
        assert code == 2 and out == "" and "positive" in err

    def test_search_huge_n(self, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the search built something before the n "
                                 "check")

        monkeypatch.setattr(maps, "pk_supports", built)
        code, out, err = run(capsys, "search", "--n", "100000", "--k", "1",
                             "--d", "1", "--max-len", "2")
        assert code == 2 and out == "" and "n must be in 1..32" in err

    @pytest.mark.parametrize("argv", [
        ("rho", "--n", str(MAX_DIMENSION + 1), "s1"),
        ("mn", "--n", str(MAX_DIMENSION + 1), "--k", "1", "--d", "1",
         "s2^2"),
        ("verify-thm2", "--m", str(MAX_DIMENSION // 2 + 1), "--k", "1"),
        ("defect", "--i", "1", "--k", "1", "--n", str(MAX_DIMENSION + 1),
         "--d", "1"),
    ])
    def test_dimension_over_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"cap of {MAX_DIMENSION}" in err

    def test_search_half_table_over_cap(self, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the search built something before the "
                                 "half-table check")

        monkeypatch.setattr(reps, "rho_columns_mod", built)
        code, out, err = run(capsys, "search", "--n", "6", "--k", "7", "--d",
                             "1", "--max-len", "12")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "(SEARCH_MAX_HALF_RESIDUES)" in err

    def test_search_negative_max_len(self, capsys):
        code, out, err = run(capsys, "search", "--n", "2", "--k", "1", "--d",
                             "1", "--max-len", "-3")
        assert code == 2 and out == "" and "max_len must be in 1..12" in err

    @pytest.mark.parametrize("argv", [
        ("fd", "--n", "3", "--d", str(MAX_WORD_LETTERS), "z"),
        ("trivial", "--n", "3", f"s1^{MAX_WORD_LETTERS + 1}"),
    ])
    def test_oversized_word(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_permutation_strands_over_cap(self, capsys):
        # refused before the n images are laid out
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "perm", "--n",
                                 str(MAX_WORD_LETTERS + 1), "s1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"cap of {MAX_WORD_LETTERS}" in err
        assert peak < 1_000_000

    def test_projection_over_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 3)
        code, out, err = run(capsys, "pk", "--n", "3", "--k", "1", "s1 s1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith("4 letters, over the cap of 3 "
                            "(MAX_WORD_LETTERS)\n")

    def test_oversized_number(self, capsys):
        code, out, err = run(capsys, "burau", "--n", "3", "s1^" + "9" * 5000)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "number too large" in err and "5003 characters" in err

    def test_defect_bad_k(self, capsys):
        code, _, err = run(capsys, "defect", "--i", "1", "--k", "50", "--n",
                           "3", "--d", "1")
        assert code == 2 and "k must be in 1..4" in err


class TestInconclusive:
    @pytest.mark.parametrize("error", [reps.ReductionCapError])
    def test_cap_overrun_exits_3(self, capsys, monkeypatch, error):
        def overrun(*args, **kwargs):
            raise error("cap exceeded")

        monkeypatch.setattr(reps, "is_trivial_braid", overrun)
        code, out, err = run(capsys, "trivial", "--n", "3", "s1 s1^-1")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_step_cap_overrun_exits_3(self, capsys):
        code, out, err = run(capsys, "trivial", "--n", "3", "--max-steps",
                             "0", "s1 s2 s1^-1 s2^-1")
        assert code == 3 and out == ""
        assert err.startswith("error: inconclusive:")
        assert err.count("\n") == 1 and "step cap of 0" in err

    def test_step_cap_large_enough(self, capsys):
        code, out, _ = run(capsys, "trivial", "--n", "3", "--max-steps", "1",
                           "s1 s2 s1 s2^-1 s1^-1 s2^-1")
        assert (code, out) == (0, "true\n")

    def test_negative_step_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "trivial", "--n", "3", "--max-steps",
                             "-1", "s1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestVerificationFailure:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_search_hit_failing_reverification_exits_1(self, capsys,
                                                        monkeypatch, fmt):
        monkeypatch.setattr(kernel, "_halves_agree",
                            lambda forward, backward: False)
        code, out, _ = run(capsys, "search", "--n", "2", "--k", "1", "--d",
                           "1", "--max-len", "2", "--format", fmt)
        assert code == 1
        assert "s1^-1 s1^-1" in out
        if fmt == "json":
            assert [r["verified"] for r in json.loads(out)] == [False]
