import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # import, class, def, the two lines of `text` and the two of `return`
    assert code_lines.code_lines(SOURCE) == 7


def test_docstring_lines_are_the_opening_strings_only():
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10, 13, 14}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "2"], ["total", "3"]]
