"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""
# a comment

total = (
    1 + 2
)
'''


def test_counts_one_statement_over_three_lines():
    assert code_lines.code_lines(FIXTURE) == 3


def test_leaves_out_class_and_function_docstrings_only():
    source = 'class A:\n    """Doc."""\n\n    def f(self):\n        """Doc."""\n        return """not\na docstring"""\n'
    # class, def and the three-line return; the two docstrings are left out
    assert code_lines.code_lines(source) == 4


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     3  a.py", "     1  b.py", "     4  total"]
