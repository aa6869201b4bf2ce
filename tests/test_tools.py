"""The line counter of ``tools/count_lines.py``, on a small fixture."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    def f(self, x):
        """A method docstring,
        over two lines."""

        y = (x +
             1)
        """A string that is no docstring."""
        return y


TEXT = """a string
over two lines"""
'''


def test_counts_code_lines_without_docstrings_or_comments():
    # code lines: import, class, def, the two lines of y, the bare string,
    # return, and the two lines of TEXT
    assert count_lines.code_lines(FIXTURE) == 9
    assert count_lines.code_lines("") == 0


def test_prints_a_row_per_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    count_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    lines = len(FIXTURE.splitlines())
    assert rows == [["a.py", "9", str(lines)], ["b.py", "1", "2"],
                    ["total", "10", str(lines + 2)]]
