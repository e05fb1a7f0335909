"""Every subclass of PipelineError is one that some caller in the package acts on."""

import ast
import inspect
from pathlib import Path

from topicpages import errors

SRC = Path(errors.__file__).parent


def _classes(node):
    """The class names that an except clause's or an isinstance call's class argument gives."""
    if isinstance(node, ast.Tuple):
        return {name for element in node.elts for name in _classes(element)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _acted_on():
    """The class names that an except clause or an isinstance call in the package names."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names |= _classes(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                names |= _classes(node.args[1])
    return names


def test_every_error_subclass_is_caught_somewhere():
    subclasses = {name for name, obj in vars(errors).items()
                  if inspect.isclass(obj) and issubclass(obj, errors.PipelineError)
                  and obj is not errors.PipelineError}
    assert subclasses
    assert subclasses - _acted_on() == set()
