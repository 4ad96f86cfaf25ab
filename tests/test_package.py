import ast
import importlib
import pkgutil
from pathlib import Path

import grassket


def test_public_names_resolve():
    modules = [importlib.import_module(f"grassket.{info.name}")
               for info in pkgutil.iter_modules(grassket.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale

    # every name the package re-exports resolves and is public where it is defined
    tree = ast.parse(Path(grassket.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"grassket.{node.module}")
            for alias in node.names:
                assert hasattr(grassket, alias.name), alias.name
                assert alias.name in getattr(module, "__all__", [alias.name]), alias.name
