"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """The source of each ```python block of the README, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_quick_tour_runs_and_prints_the_exact_ate(capsys):
    blocks = python_blocks()
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["0.4334932126696832"]
