"""Every public name lderiv declares resolves, so that removing a function
cannot leave a stale entry behind that breaks `from lderiv.<module> import *`
or the package's own imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import lderiv


def test_declared_public_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(lderiv.__path__):
        module = importlib.import_module(f"lderiv.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    # the names lderiv/__init__.py imports, each the module's own object
    tree = ast.parse(Path(lderiv.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"lderiv.{node.module}")
            for alias in node.names:
                if getattr(module, alias.name, None) is not getattr(lderiv, alias.asname
                                                                     or alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert not missing
