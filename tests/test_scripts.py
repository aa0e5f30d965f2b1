"""The scripts under scripts/: byte-deterministic stdout and exit codes."""
import importlib.util
import re
from pathlib import Path

import pytest

from mnmap import kernel

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SMALL_SEARCH = ["--max-n", "3", "--max-d", "2", "--max-len", "4"]


def load_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


RUNS = {
    "search_short_kernels": lambda main: main(SMALL_SEARCH),
    "verify_theorems": lambda main: main(),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_is_identical_across_runs(capsys, name):
    main = load_main(name)
    runs = []
    for _ in range(2):
        code = RUNS[name](main)
        captured = capsys.readouterr()
        runs.append((code, captured.out))
        # the timings go to stderr, never to stdout
        assert re.search(r"\d\.\d+s$", captured.err, re.MULTILINE)
        assert not re.search(r"\d\.\d+s\b", captured.out)
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_search_script_fails_on_a_hit_that_fails_re_verification(
        capsys, monkeypatch):
    main = load_main("search_short_kernels")
    assert main(SMALL_SEARCH) == 0
    honest = capsys.readouterr().out
    assert "NOT VERIFIED" not in honest

    monkeypatch.setattr(kernel, "_halves_agree",
                        lambda forward, backward: False)
    assert main(SMALL_SEARCH) == 1
    failed = capsys.readouterr().out
    hit_lines = [line for line in honest.splitlines() if line.startswith("  ")]
    assert hit_lines
    assert [line for line in failed.splitlines() if line.startswith("  ")] == [
        line + "  NOT VERIFIED" for line in hit_lines]
