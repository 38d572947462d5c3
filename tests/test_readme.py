"""The README's library quick tour runs, and every trailing comment on it that
reads as a Python value is the value of the expression on its line.  Each line
of its CLI block runs through cli.main, exits 0 and prints."""

import ast
import re
import shlex
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from jahangir.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    return re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)


def test_quick_tour_comments_hold():
    source = quick_tour()
    lines = source.splitlines()
    namespace = {"Fraction": Fraction}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        line = lines[stmt.end_lineno - 1]
        try:  # a comment in prose, such as "census vs generic ...", is no value
            expected = eval(line.partition("#")[2], dict(namespace))
        except (SyntaxError, NameError):
            continue
        assert value == expected, line
        checked.append(expected)
    assert checked == [(32, 80, 64, 16), 192, (16, 20, 8, 1), Fraction(96, 25)]


def test_cli_examples_run():
    block = re.search(r"^```\n(jahangir .*?)^```", README.read_text(), re.M | re.S).group(1)
    lines = block.splitlines()
    for line in lines:
        argv = shlex.split(line.partition("#")[0])
        out = StringIO()
        with redirect_stdout(out):
            code = main(argv[1:])
        assert (argv[0], code) == ("jahangir", 0), line
        assert out.getvalue(), line
    assert len(lines) == 12
