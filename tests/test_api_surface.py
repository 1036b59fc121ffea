"""The exported surface of the package: no name that nothing calls.

Every module-level definition in src/werner must be reachable from the
fourteen names that `import werner` exports, from the CLI's `main`, from the
functions that pyproject.toml's console scripts call, or from the package's
`__getattr__`, which Python calls to resolve those names, through the names
each reached definition uses. A helper only the tests call, or only another
unreached helper calls, does not belong in the package.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import werner

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "werner"

PUBLIC = {
    "WernerError",
    "WernerParams",
    "build_partition",
    "decompose_auto",
    "hermitian_eigenvalues",
    "ppt_check",
    "refine_to_pure",
    "separability_report",
    "spectrum_closed_form",
    "spectrum_via_transform",
    "validate_partition",
    "verify_decomposition",
    "werner_dense",
    "werner_spinor",
}


def _script_targets():
    """The function names that pyproject.toml's [project.scripts] entries
    call: the scripts are their callers."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"[\w.]+:(\w+)"', section)


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _uses(node):
    """Names loaded and attributes read anywhere inside node."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _definitions(tree):
    """(name, node) for each name a module binds at its top level by def,
    class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, node


def test_every_module_level_name_is_reachable_from_the_public_names():
    # by name: a definition is reached once a reached definition uses its name
    sites = {}
    for module, tree in _trees().items():
        for name, node in _definitions(tree):
            sites.setdefault(name, []).append((module, node))
    # cli.main, the console scripts' targets, the fourteen names and the
    # lazy lookup behind them
    scripts = _script_targets()
    assert scripts
    reached, todo = set(), ["main", *scripts, "__getattr__", *PUBLIC]
    while todo:
        name = todo.pop()
        if name in reached or name not in sites:
            continue
        reached.add(name)
        for _, node in sites[name]:
            todo.extend(_uses(node))
    unreached = [
        f"{module}.{name}"
        for name, where in sites.items()
        for module, _ in where
        if name not in reached and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreached == []


def test_the_package_exports_exactly_the_public_names():
    assert len(werner.__all__) == len(set(werner.__all__)) == 14
    assert set(werner.__all__) == PUBLIC
    # the README's "Public API" section names each of them
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Public API", 1)[1].split("\n## ", 1)[0]
    assert PUBLIC <= set(re.findall(r"`(\w+)`", section))


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_is_the_object_its_home_module_defines(name):
    obj = getattr(werner, name)  # resolved on first access
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("werner.")
    assert vars(home)[name] is obj
    assert name in dir(werner)
