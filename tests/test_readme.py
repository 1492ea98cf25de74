"""The README's library quick-start prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> list[str]:
    """The lines of the quick-start's python block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    return block.group(1).splitlines()


def test_solve_lines_print_the_commented_status_and_iterations() -> None:
    lines = _quickstart()
    # the block up to the print of the solve, without the Monte Carlo run
    end = next(k for k, line in enumerate(lines)
               if line.startswith("print(report.status, report.iterations)"))
    code, comment = lines[end].split("#", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines[:end] + [code]), {})
    assert out.getvalue().splitlines()[-1] == comment.strip()
