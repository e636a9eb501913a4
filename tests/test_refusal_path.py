"""The CLI has one refusal path: every refusal is a ``TrisymError`` and only ``main`` reports it.

The check reads ``src/trisym/cli.py`` with ``ast``. It rejects an exception
class defined in ``cli``, an ``except`` clause outside ``main`` that would
catch a ``TrisymError`` (``NotApplicable`` in ``_cmd_solve`` is the one
allowed, since "not applicable" is a successful answer there), and a
``raise`` of anything but ``TrisymError`` or ``IntegrityError`` other than a
bare re-raise. ``main`` itself must hold exactly two handlers: ``IntegrityError``
(exit 3), then ``TrisymError`` (exit 1).
"""

import ast
import builtins
from pathlib import Path

from trisym import errors

CLI = Path(__file__).resolve().parents[1] / "src" / "trisym" / "cli.py"
RAISABLE = {"TrisymError", "IntegrityError"}
ALLOWED_CATCHES = {("_cmd_solve", "NotApplicable")}


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ast.unparse(node)


def _caught(handler: ast.ExceptHandler) -> list[str]:
    """The exception names an ``except`` clause lists; ``BaseException`` for a bare ``except:``."""
    if handler.type is None:
        return ["BaseException"]
    elts = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [_name(e) for e in elts]


def _catches_refusals(name: str) -> bool:
    """Whether ``except name`` would catch some ``TrisymError``: a subclass or a base of it."""
    cls = getattr(errors, name, None) or getattr(builtins, name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        return True  # an unknown name could be anything
    return issubclass(cls, errors.TrisymError) or issubclass(errors.TrisymError, cls)


def _functions(tree: ast.Module):
    """(name, node) of every function in ``tree``, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def _own_nodes(fn):
    """The nodes of ``fn``'s body, without those of functions defined inside it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack += [c for c in ast.iter_child_nodes(node) if not isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))]


def second_refusal_paths(source: str) -> list[str]:
    """Each exception class, stray refusal handler and foreign ``raise`` in ``source``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [_name(b) for b in node.bases]
            if any(b.endswith(("Error", "Exception")) for b in bases):
                found.append(f"line {node.lineno}: exception class {node.name}")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) not in RAISABLE:
                found.append(f"line {node.lineno}: raise {_name(exc)}")
    for fn_name, fn in _functions(tree):
        if fn_name == "main":
            continue
        for node in _own_nodes(fn):
            if isinstance(node, ast.ExceptHandler):
                for name in _caught(node):
                    if _catches_refusals(name) and (fn_name, name) not in ALLOWED_CATCHES:
                        found.append(f"line {node.lineno}: {fn_name} catches {name}")
    return sorted(found, key=lambda f: int(f.split()[1].rstrip(":")))


def main_handlers(source: str) -> list[list[str]]:
    """The exception names of each ``except`` clause of ``main``, in order."""
    fn = next(node for name, node in _functions(ast.parse(source)) if name == "main")
    handlers = sorted((n for n in _own_nodes(fn) if isinstance(n, ast.ExceptHandler)), key=lambda n: n.lineno)
    return [_caught(n) for n in handlers]


def test_cli_has_one_refusal_path():
    assert second_refusal_paths(CLI.read_text()) == []


def test_main_reports_integrity_then_refusal():
    assert main_handlers(CLI.read_text()) == [["IntegrityError"], ["TrisymError"]]


def test_each_second_path_is_caught():
    source = (
        "class _UsageError(Exception):\n    pass\n\n"
        "class Plain:\n    pass\n\n"
        "def _resolve(args):\n"
        "    try:\n        find(args)\n    except TrisymError as exc:\n        raise _UsageError(str(exc))\n"
        "    try:\n        read(args)\n    except (KeyError, InvalidMarking):\n        raise\n"
        "    try:\n        parse(args)\n    except Exception:\n        raise ValueError('bad')\n"
        "    try:\n        pass\n    except:\n        raise TrisymError('ok')\n"
        "def _cmd_solve(args):\n"
        "    try:\n        solve(args)\n    except NotApplicable:\n        return 0\n"
        "def _cmd_dims(args):\n"
        "    try:\n        solve(args)\n    except NotApplicable:\n        raise IntegrityError('x')\n"
        "def main(argv):\n"
        "    try:\n        run(argv)\n    except TrisymError:\n        return 1\n"
    )
    assert second_refusal_paths(source) == [
        "line 1: exception class _UsageError",
        "line 10: _resolve catches TrisymError",
        "line 11: raise _UsageError",
        "line 14: _resolve catches InvalidMarking",
        "line 18: _resolve catches Exception",
        "line 19: raise ValueError",
        "line 22: _resolve catches BaseException",
        "line 32: _cmd_dims catches NotApplicable",
    ]
