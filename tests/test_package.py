import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import grassket

# Library definitions that no CLI path reaches, each with its planned caller
# from ROADMAP item 5; a module stands for all of its definitions.  A new
# unreached definition fails test_only_listed_definitions_are_unreached
# until it is listed here.
UNREACHED = {
    "sketch.load_sketched_eigh": "item 6: curve reads a saved decomposition",
    "sketch._json_number": "item 6, through load_sketched_eigh",
    "operators.CountingOperator": "item 4: applied-column counts in the run record",
    "sketch.residual_probe_norms": "item 7: curvature the top-k eigenspace holds",
    "masks.mask_eigenspace_overlap": "the README library example and perfbench",
    "masks.topk_magnitude_mask": "the README library example and perfbench",
}


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


def test_perfbench_patch_points_resolve():
    # perfbench/spans.py patches grassket names by string; read its FUNCTIONS
    # (name, module, attribute, amount) and METHODS (name, module.Class,
    # method, amount) with ast so that scipy, which it imports, is not needed
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not spans.exists():
        pytest.skip("perfbench/ is not in this checkout")
    lists = {node.targets[0].id: node.value.elts
             for node in ast.parse(spans.read_text(encoding="utf-8")).body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("FUNCTIONS", "METHODS")}
    points = [(entry.elts[1].value, entry.elts[2].value) for entry in lists["FUNCTIONS"]]
    points += [(f"grassket.{entry.elts[1].value.id}", f"{entry.elts[1].attr}.{entry.elts[2].value}")
               for entry in lists["METHODS"]]
    assert lists["FUNCTIONS"] and lists["METHODS"]
    missing = []
    for module, path in points:
        target = importlib.import_module(module)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if target is None:
            missing.append(f"{module}.{path}")
    assert not missing


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "vs chance" in capsys.readouterr().out


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


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = re.search(r"^\[project\]$(.*?)^\[", pyproject.read_text(encoding="utf-8"),
                        re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [grassket.__version__]


def test_only_listed_definitions_are_unreached_from_the_cli():
    # name reachability over top-level functions, classes and constants:
    # a definition is reached when a reached one, or any code of cli, names it
    references, roots = {}, set()
    for path in sorted(Path(grassket.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else
                     [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)])
            named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            references.update({(path.stem, name): named for name in names
                               if not name.startswith("__")})
            if path.stem == "cli":
                roots |= named
    reached, frontier = set(), roots
    while frontier:
        new = {key for key in references if key[1] in frontier} - reached
        reached |= new
        frontier = set().union(set(), *(references[key] for key in new))
    unreached = set(references) - reached
    modules = {module for module, _ in references}
    whole = {module for module in modules
             if {key for key in references if key[0] == module} <= unreached}
    listed = whole | {f"{module}.{name}" for module, name in unreached if module not in whole}
    assert listed == set(UNREACHED)
