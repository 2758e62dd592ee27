"""The README runs and states the package as it is: the library quickstart
and the exit-code table."""

import os
import re
import subprocess
import sys
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
