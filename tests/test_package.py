import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_sketch_runs_without_scipy():
    script = (
        "import sys\n"
        "import grassket\n"
        "op = grassket.make_planted_operator(60, [3.0, 2.0, 1.0], None, 0.0, seed=0)\n"
        "grassket.seigh(op, grassket.draw_measurements(60, 13, 6, seed=1))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(grassket.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
