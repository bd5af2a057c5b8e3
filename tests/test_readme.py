"""README's Quick start runs as written and prints what its comments promise."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_the_promised_values():
    code = _quick_start()
    promised = re.findall(r"^print\(.*\)\s*#\s*(.*)$", code, re.M)
    assert promised[0].startswith("NoDisintegration")
    assert promised[1:] == ["True True 0.0", "0.0875778..."]

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("NoDisintegration(")
    assert lines[1] == "True True 0.0"
    assert lines[2].startswith("0.0875778")
