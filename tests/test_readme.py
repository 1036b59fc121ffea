"""The README's Python quick start runs and shows what its comments say."""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    text = README.read_text()
    section = text.split("## Quick start (Python)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_quick_start_matches_its_comments():
    code = _quick_start()
    lines = code.splitlines()
    tree = ast.parse(code)
    namespace = {}
    shown = []  # (value, comment) of every bare expression, in order
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            shown.append((value, lines[stmt.end_lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
            if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "dec":
                assert lines[stmt.lineno - 1].partition("#")[2].strip() == (
                    "20-term commuting-class certificate"
                )
                assert namespace["dec"].n_terms == 20
                assert namespace["dec"].scheme == "commuting_class"

    (pairs, pairs_note), (ppt, ppt_note), (verdict, verdict_note) = shown
    assert pairs_note == "((0.0333..., 6), (0.08, 10))"
    assert [m for _, m in pairs] == [6, 10]
    assert [v for v, _ in pairs] == [pytest.approx(1 / 30, abs=1e-15), pytest.approx(0.08, abs=1e-15)]
    assert (ppt, ppt_note) == (True, "True")
    assert verdict_note == "(True, ~1e-16)"
    assert verdict[0] is True
    assert 0 <= verdict[1] < 1e-14
