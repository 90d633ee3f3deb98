"""Every module-level import of the package is read by its module.

A deletion that leaves an import behind fails here.  Names a module
lists in `__all__` count as read; `__init__.py` only re-exports, so it
is not checked.
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
