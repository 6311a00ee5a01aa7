"""The README's Python API block runs as written, so a name the package
no longer has fails here, and each value a comment in it states as a
Python literal is the value its line returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    section = README.read_text().split("\n## Python API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated_value(comment):
    try:
        return True, ast.literal_eval(comment.strip())
    except (SyntaxError, ValueError):
        return False, None


def test_python_api_block_runs_as_written():
    namespace = {}
    checked = 0
    for line in python_api_block().splitlines():
        code, _, comment = line.partition("#")
        stated, value = stated_value(comment)
        if stated:
            assert eval(code, namespace) == value, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 3
