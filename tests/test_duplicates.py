"""No two module-level functions in the package are the same function under two names."""

import ast
from pathlib import Path

from topicpages import errors

SRC = Path(errors.__file__).parent


def _shape(fn):
    """The parameters and body of a function definition, its docstring left out."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return ast.dump(fn.args), tuple(map(ast.dump, body))


def _duplicates(sources):
    """Each pair of "module.function" names in *sources* ({module: text}) whose
    functions have one shape."""
    seen = {}
    pairs = []
    for module, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}.{node.name}"
                first = seen.setdefault(_shape(node), name)
                if first != name:
                    pairs.append((first, name))
    return pairs


def test_no_function_body_is_written_twice():
    sources = {path.stem: path.read_text("utf-8") for path in SRC.glob("*.py")}
    assert sources
    assert _duplicates(sources) == []


def test_a_copy_under_another_name_and_docstring_is_found():
    one = 'def read(path):\n    """One."""\n    return frozenset(lines(path, str.lower))\n'
    other = 'def load(path):\n    """Two."""\n    return frozenset(lines(path, str.lower))\n'
    differs = "def load(path):\n    return frozenset(lines(path, str.upper))\n"
    assert _duplicates({"a": one, "b": other}) == [("a.read", "b.load")]
    assert _duplicates({"a": one, "b": differs}) == []
