"""Every module of the package uses each name it imports, and the package
reads every private name it defines.

A deletion leaves imports and private helpers behind that nothing reads;
these tests name them. The package's top-level `__init__` is exempt from
the import check: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geodid"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def unused_imports(source):
    """Names an import binds in `source` that no expression and no `__all__` entry reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used and name != "*")


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unread_private_names(sources):
    """`(module, name)` of each private name (`_name`, not a dunder) that a function,
    class or assignment defines at module or class level in `sources`, a dict of
    module to source, and that no expression in any of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                else:
                    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined += [(module, name) for name in names if name.startswith("_") and not is_dunder(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_modules_are_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\n\nprint(np, c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


def test_package_reads_every_private_name_it_defines():
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in PACKAGE.rglob("*.py")}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "_X = 1\n_Y: int = 2\n\ndef _f():\n    return _X\n\nclass C:\n    def _g(self):\n        pass\n",
        "b.py": "def __dunder__():\n    pass\n\ndef _h():\n    _local = 1\n\nprint(C()._g, _f, __dunder__)\n",
    }
    assert unread_private_names(sources) == [("a.py", "_Y"), ("b.py", "_h")]
