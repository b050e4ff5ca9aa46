"""The README's walkthrough, run as written.

Every `$ ...` line of the README's `sh` blocks runs through a shell from
the repository root, with `dycknf` standing for `python -m dycknf.cli`, and
its stdout must be the lines shown under it, where a `...` line stands for
any run of lines.  The Python API block runs too.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _examples(readme):
    """(command, expected stdout lines) for each `$` line of the sh blocks."""
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            while shown and not shown[-1].strip():
                shown.pop()
            out.append((command, shown))
    return out


EXAMPLES = _examples(README)


def _pattern(shown):
    return "".join(r"(?:[^\n]*\n)*" if line == "..." else re.escape(line) + "\n"
                   for line in shown)


def test_walkthrough_is_found():
    assert len(EXAMPLES) == 9
    assert all("dycknf " in command for command, _ in EXAMPLES)


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[c for c, _ in EXAMPLES])
def test_walkthrough_command(command, shown):
    cli = f"{shlex.quote(sys.executable)} -m dycknf.cli"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(re.sub(r"\bdycknf(?= )", cli, command), shell=True,
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=60)
    assert re.fullmatch(_pattern(shown), run.stdout), run.stdout


def test_python_api_block():
    block, = re.findall(r"^## Python API.*?^```python\n(.*?)^```", README,
                        re.M | re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["ok"] and names["report"].ok
