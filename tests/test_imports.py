"""Every module-level import of the package is read by its module, and
every private module-level name is read somewhere in the package.

A deletion that leaves an import or a helper behind fails here.  Names a
module lists in `__all__` count as read; `__init__.py` only re-exports,
so its imports are not checked.
"""

import ast
import pathlib

import pytest

import serieswitness

PACKAGE = pathlib.Path(serieswitness.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that it never reads."""
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read | exported]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unread_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d\n"
        "from .e import f\n"
        "__all__ = ['f']\n"
        "x = np.zeros(d)\n"
    )
    assert unread_imports(source) == ["os", "os", "b"]


def private_definitions(source: str) -> list[str]:
    """The private names (`_name`, not `__name__`) a module binds at its top
    level with def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    """The names a module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    unread = [f"{module}:{name}" for module, source in sources.items()
              for name in private_definitions(source) if name not in read]
    assert unread == []


def test_an_unread_private_name_is_found():
    source = (
        "_KEPT = 1\n"
        "_LEFT: int = 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _KEPT\n"
        "class _Gone:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert [n for n in private_definitions(source) if n not in read_names(source)] == [
        "_LEFT", "_Gone"]
