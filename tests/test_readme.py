"""The README's examples run as written."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_a_finite_mean(capsys):
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))
