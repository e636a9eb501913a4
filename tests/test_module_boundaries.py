"""No trisym module uses another trisym module's private names, no private function or
module-level name is dead, only ``polysolve`` sets an interval's ``certified``, and
``einstein.py`` and ``polysolve.py`` stay within their line gates.

A private name starts with one underscore (dunders such as ``__version__``
are not private). The check reads the source with ``ast``: it rejects
``from .x import _name`` (or ``from trisym.x import _name``) and
``x._name`` where ``x`` is a trisym module bound by an import, across
modules; a module may use its own private names. A private function or
method must be referenced somewhere under ``src/trisym`` outside its own
body, unless a decorator call such as ``@_family(...)`` registers it, and a
private name bound by a module-level assignment must be read outside that
assignment.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trisym"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imported_module(node: ast.ImportFrom):
    """The trisym module a ``from ... import`` reads from; "" for the package itself, None outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module is not None and node.module.split(".")[0] == "trisym":
        return node.module.partition(".")[2]
    return None


def private_uses(source: str, own: str) -> list[str]:
    """Each use, in ``source`` of module ``own``, of another trisym module's private name."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the trisym module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node)
            if module is None:
                continue
            for alias in node.names:
                if module == "" and alias.name in MODULES:  # from . import x
                    aliases[alias.asname or alias.name] = alias.name
                elif module != own and _is_private(alias.name):
                    found.append(f"line {node.lineno}: from {module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "trisym" and len(parts) == 2 and alias.asname:  # import trisym.x as y
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _is_private(node.attr)):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            module = aliases[value.id]
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "trisym"
            and value.attr in MODULES
        ):
            module = value.attr  # trisym.x._name after import trisym.x
        else:
            continue
        if module != own:
            found.append(f"line {node.lineno}: {module}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_across_modules(module):
    assert private_uses((SRC / f"{module}.py").read_text(), module) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .polysolve import Polynomial, _horner_sign\n",
        "from trisym.polysolve import _variations\n",
        "from . import polysolve\nsign = polysolve._horner_sign\n",
        "from . import polysolve as ps\nps._variations([])\n",
        "import trisym.polysolve\ntrisym.polysolve._horner_sign\n",
        "import trisym.polysolve as ps\nps._horner_sign\n",
    ],
)
def test_each_form_is_caught(source):
    assert len(private_uses(source, "einstein")) == 1


def test_own_and_public_names_pass():
    source = "from .polysolve import Polynomial\nfrom . import polysolve\npolysolve.refine_root\n_x = 1\n"
    assert private_uses(source, "einstein") == []
    assert private_uses("from .polysolve import _horner_sign\n", "polysolve") == []


def _private_definitions(tree: ast.Module):
    """Each private function or method of ``tree``, and each private name a module-level assignment binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(node.name):
            if not any(isinstance(d, ast.Call) for d in node.decorator_list):  # registered by a decorator call
                yield node.name, node
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and _is_private(name.id):
                    yield name.id, node


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Each private function, method or module-level name in ``sources`` (module -> source) that nothing else reads."""
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        defs += [(module, name, node) for name, node in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, node.lineno))
    return [
        f"{module}.{name} (line {node.lineno})"
        for module, name, node in defs
        if not any(
            ref == name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, ref, line in refs
        )
    ]


def test_no_dead_private_functions():
    assert unreferenced_private_names({m: (SRC / f"{m}.py").read_text() for m in MODULES}) == []


def test_dead_private_function_is_caught():
    source = (
        "def _used():\n    return 1\n\n"
        "def _dead():\n    return _dead()\n\n"  # only its own body calls it
        "class C:\n    def _method(self):\n        return _used()\n\n"
        "@_register('x')\ndef _registered():\n    pass\n"
    )
    assert unreferenced_private_names({"m": source}) == ["m._dead (line 4)", "m._method (line 8)"]


def test_dead_private_name_is_caught():
    source = (
        "_USED = 1\n"
        "_DEAD = 2\n"
        "_SELF = (_SELF, 3)\n"  # only its own assignment reads it
        "_TYPED: int = 4\n"
        "_PAIR, _LEFT = _USED, 5\n"
        "__version__ = '1'\n"
        "def f():\n    _local = 6\n    return _PAIR + _local\n"
    )
    assert unreferenced_private_names({"m": source}) == [
        "m._DEAD (line 2)", "m._SELF (line 3)", "m._TYPED (line 4)", "m._LEFT (line 5)"
    ]
    # a table read from another module is live
    assert unreferenced_private_names({"m": "_TABLE = {}\n", "n": "from .m import _TABLE\n_TABLE[1]\n"}) == []


def certificate_stores(source: str) -> list[str]:
    """Each place in ``source`` that sets a ``certified`` attribute: an attribute store, or a call of
    ``object.__setattr__`` or ``setattr`` with the name ``"certified"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "certified" and not isinstance(node.ctx, ast.Load):
            found.append(f"line {node.lineno}: .certified store")
        elif isinstance(node, ast.Call) and any(isinstance(v, ast.Constant) and v.value == "certified" for v in node.args):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "__setattr__") or (
                isinstance(func, ast.Name) and func.id == "setattr"
            ):
                found.append(f"line {node.lineno}: {ast.unparse(func)}(..., 'certified', ...)")
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "polysolve"])
def test_only_polysolve_sets_certificates(module):
    # a box's certificate is issued where its isolation is proved, in polysolve's kernels
    assert certificate_stores((SRC / f"{module}.py").read_text()) == []


def test_each_certificate_store_is_caught():
    source = (
        "object.__setattr__(iv, 'certified', True)\n"
        "setattr(iv, 'certified', True)\n"
        "iv.certified = True\n"
        "iv.certified |= True\n"
        "del iv.certified\n"
        "ok = iv.certified\n"
        "object.__setattr__(iv, 'a', 1)\n"
        "print('certified')\n"
    )
    assert [f.split(":")[0] for f in certificate_stores(source)] == [f"line {n}" for n in (1, 2, 3, 4, 5)]


# the solver modules' size gates: the same behaviour and speed from no more code
EINSTEIN_MAX_LINES = 640
POLYSOLVE_MAX_LINES = 648


def test_einstein_within_its_line_gate():
    assert len((SRC / "einstein.py").read_text().splitlines()) <= EINSTEIN_MAX_LINES


def test_polysolve_within_its_line_gate():
    assert len((SRC / "polysolve.py").read_text().splitlines()) <= POLYSOLVE_MAX_LINES
