"""The README's code runs as written, so an API change cannot leave it stale."""

import re
import shlex
from pathlib import Path

import pytest

from qimpute.cli import _build_parser, _resolve_config

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), {})
    # The last line printed is the joint's total, which the README gives as 1.0.
    assert float(capsys.readouterr().out.split()[-1]) == pytest.approx(1.0, abs=1e-12)


def test_command_line_examples_parse():
    # Each example is parsed and resolved as the CLI would, without running
    # it, so a renamed or removed flag fails here.
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for block in re.findall(r"^```\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
             for line in block.splitlines() if line.startswith("qimpute ")]
    assert lines
    for line in lines:
        args = _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        _resolve_config(args)
