"""The code-line count of tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import math


class Box:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        text = """a string that
is code"""
        return math.pi  # a trailing comment
'''


def test_counts_code_but_not_blanks_comments_or_docstrings() -> None:
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(SOURCE) == 6


def test_counts_every_module_of_a_directory(tmp_path, capsys) -> None:
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     6  a.py", "     1  b.py", "     7  total"]
