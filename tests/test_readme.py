"""The README runs and states the package as it is: the library and CLI
quickstarts and the exit-code table."""

import csv
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coresponse
from coresponse import cli
from coresponse.errors import (CoresponseError, NumericError, ParseError,
                               ValidationError)

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(coresponse.__file__).resolve().parent.parent)


def quickstart_code() -> str:
    """The Python blocks of the "Quickstart (library)" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart (library)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    return "\n".join(blocks)


def test_library_quickstart_runs():
    done = subprocess.run([sys.executable, "-c", quickstart_code()],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[0 1 2 3 4 5]"


#: wall-time budget of the CLI quickstart block, which takes about 8 s
CLI_QUICKSTART_BUDGET_S = 120


def cli_quickstart_script() -> str:
    """The first ``sh`` block of the "Quickstart (CLI)" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart (CLI)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, flags=re.S)[0]


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def test_cli_quickstart_runs_as_written(tmp_path):
    # a `coresponse` command on PATH that runs this checkout's CLI
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "coresponse"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m coresponse.cli "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "run"
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": SRC,
           "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    start = time.perf_counter()
    done = subprocess.run(["sh", "-e", "-c", cli_quickstart_script()],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=2 * CLI_QUICKSTART_BUDGET_S)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < CLI_QUICKSTART_BUDGET_S

    # the results the block's comments quote
    assert (work / "sweep" / "chosen_k.txt").read_text() == "7\n"
    top = read_csv(work / "found" / "top_group.csv")[1:]
    assert [(taxon, round(float(i), 4)) for _, taxon, i in top[:6]] == [
        (f"T{j:03d}", 0.9989) for j in range(1, 7)]
    assert all(float(i) == 0.0 for _, _, i in top[6:])
    (a, b, t, p, significant), = read_csv(work / "eval" / "ttest.csv")[1:]
    assert ((a, b), round(float(t), 2), float(f"{float(p):.2g}"),
            significant) == (("baseline", "convolved"), -7.79, 2.5e-07, "yes")
    assert (work / "where" / "analysis_summary.csv").exists()


def exit_code_table() -> dict:
    """The README's "Exit codes" table as {code: meaning}."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    return {int(code): meaning for code, meaning in
            re.findall(r"^\| (\d+) \| (.+?) \|$", section, flags=re.M)}


@pytest.mark.parametrize("error, meaning", [
    (ParseError, "unreadable/malformed input file"),
    (ValidationError, "invalid values or configuration"),
    (NumericError, "numerical failure"),
    # the base class falls back to the validation code
    (CoresponseError, "invalid values or configuration"),
])
def test_exit_code_table_is_the_error_classes(monkeypatch, capsys, tmp_path,
                                               error, meaning):
    table = exit_code_table()
    assert sorted(table) == [0, 2, 3, 4, 5]
    assert table[error.exit_code].startswith(meaning)

    def fail(args, out, delimiter):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert cli.main(["synth", "--out", str(tmp_path)]) == error.exit_code
    assert capsys.readouterr().err == "error: boom\n"
