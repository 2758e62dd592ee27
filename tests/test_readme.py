"""The README's library quickstart runs against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

import coresponse

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
