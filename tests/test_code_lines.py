"""tools/code_lines.py counts what the project's simplicity claims count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line
    s = """a string
over two lines"""
    return s


class C:
    """A class docstring."""

    y = math.pi
'''


def test_snippet_counts_code_lines_only():
    # import, def, both lines of the string, return, class, y: docstrings,
    # comment lines and blank lines do not count
    assert code_lines.code_lines(SNIPPET) == 7


def test_report_per_file_and_total(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SNIPPET)
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["7", "7", "14"]
    assert out[-1].split()[1] == "total"
