"""The exported surface of the package: no name that nothing calls.

Each module's __all__ may list a name only if some code in src/werner uses
it outside its own definition, or if it is one of the fourteen names that
`import werner` exports. A helper only the tests call does not belong in
the package.
"""
import ast
import re
from pathlib import Path

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


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(tree, skip=None):
    """Names loaded and attributes read in tree, outside the definition skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definition(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def test_every_exported_name_has_a_caller_in_the_package():
    trees = _trees()
    uncalled = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name in _exported(tree):
            if name in PUBLIC:
                continue
            home = _definition(tree, name)
            used = set().union(*(_uses(t, home if t is tree else None) for t in trees.values()))
            if name not in used:
                uncalled.append(f"{module}.{name}")
    assert uncalled == []


def test_the_package_exports_exactly_the_public_names():
    assert len(werner.__all__) == len(set(werner.__all__)) == 14
    assert set(werner.__all__) == PUBLIC
    # the README's "Public API" section names each of them
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Public API", 1)[1].split("\n## ", 1)[0]
    assert PUBLIC <= set(re.findall(r"`(\w+)`", section))
