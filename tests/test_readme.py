"""The README's code runs as written, so an API change cannot leave it stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), {})
    # The last line printed is the joint's total, which the README gives as 1.0.
    assert float(capsys.readouterr().out.split()[-1]) == pytest.approx(1.0, abs=1e-12)
