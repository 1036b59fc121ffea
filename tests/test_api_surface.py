"""The exported surface of the package: no name that nothing calls.

Every module-level definition in src/werner must be reachable from the
fourteen names that `import werner` exports, from the CLI's `main`, from the
functions that pyproject.toml's console scripts call, or from the package's
`__getattr__`, which Python calls to resolve those names, through the names
each reached definition uses. A helper only the tests call, or only another
unreached helper calls, does not belong in the package.

The same holds for parameters. Outside the public names and the entry
points, a parameter with a default must be passed by some call in the
package; one that only the tests set is a setting the program never sets.
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
    """The (module, function) that pyproject.toml's [project.scripts]
    entries call: the scripts are their callers."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"werner\.(\w+):(\w+)"', section)


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bindings(nodes):
    """The names that code binds in its own scope, each to the (module, name)
    it imports from the package, or to None: a local variable, a parameter,
    an outside import. Nested scopes bind only their own names here."""
    out, todo = {}, list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = None
            continue
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out[node.id] = None
        elif isinstance(node, ast.arg):
            out[node.arg] = None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out[node.name] = None
        elif isinstance(node, ast.Import):
            out.update((alias.asname or alias.name.split(".")[0], None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            home = node.module if node.level == 1 else None
            out.update((alias.asname or alias.name, home and (home, alias.name))
                       for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return out


class _References(ast.NodeVisitor):
    """The (module, name) of each package definition that the names loaded
    in some code refer to, each resolved in the scopes that enclose it."""

    def __init__(self, table):
        self.scopes, self.found = [(False, table)], set()

    def _enter(self, node, outer, inner):
        for child in outer:
            self.visit(child)
        is_class = isinstance(node, ast.ClassDef)
        self.scopes.append((is_class, _bindings(inner if is_class else [node.args, *inner])))
        for child in inner:
            self.visit(child)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        outer = [*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults)]
        outer += [a.annotation for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg] if a and a.annotation]
        self._enter(node, outer + ([node.returns] if node.returns else []), node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._enter(node, [*node.args.defaults, *filter(None, node.args.kw_defaults)], [node.body])

    def visit_ClassDef(self, node):
        self._enter(node, [*node.decorator_list, *node.bases, *node.keywords], node.body)

    def _comprehension(self, node):
        first, *rest = node.generators
        parts = [*first.ifs, *(g for c in rest for g in (c.target, c.iter, *c.ifs))]
        parts += [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        self.visit(first.iter)  # evaluated in the enclosing scope
        self.scopes.append((False, _bindings([g.target for g in node.generators])))
        for part in parts:
            self.visit(part)
        self.scopes.pop()

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            # a class body's names are not seen from the functions inside it
            visible = [names for k, (is_class, names) in enumerate(self.scopes)
                       if not is_class or k == len(self.scopes) - 1]
            for names in reversed(visible):
                if node.id in names:
                    if names[node.id] is not None:
                        self.found.add(names[node.id])
                    break


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
    # by qualified name: a definition is reached once a reached definition
    # loads a name that resolves to it, through the scopes around the load
    # and the package imports, re-exports followed
    trees = _trees()
    sites, tables = {}, {}
    for module, tree in trees.items():
        tables[module] = _bindings(tree.body)
        for name, node in _definitions(tree):
            sites.setdefault((module, name), []).append(node)
            tables[module][name] = (module, name)

    def resolve(site):
        while site is not None and site not in sites:
            site = tables.get(site[0], {}).get(site[1])
        return site

    # cli.main, the console scripts' targets, the lazy lookup behind the
    # fourteen names, and the fourteen names in their home modules
    scripts = _script_targets()
    assert scripts
    todo = [("cli", "main"), *scripts, ("__init__", "__getattr__"),
            *((werner._HOME[name], name) for name in PUBLIC)]
    reached = set()
    while todo:
        site = resolve(todo.pop())
        if site is None or site in reached:
            continue
        reached.add(site)
        for node in sites[site]:
            refs = _References(tables[site[0]])
            refs.visit(node)
            todo.extend(refs.found)
    unreached = [
        f"{module}.{name}"
        for module, name in sites
        if (module, name) not in reached and not (name.startswith("__") and name.endswith("__"))
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


def _defaulted(fn, shift):
    """(name, index among the positions a call fills, or None) of each
    parameter of fn that has a default; shift drops self or cls."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, k - shift) for k, a in enumerate(positional) if k >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _passes(call, name, index):
    """Whether the call passes the parameter: by keyword, by position, or
    through * or **."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def _functions(tree):
    """(the name its calls use, the def, the positions a call does not fill)
    of each def: a method's calls skip self or cls, and a class's __init__
    is called by the class name."""
    methods = {
        f: node.name if f.name == "__init__" else f.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for f in node.body if isinstance(f, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield (methods[node], node, 1) if node in methods else (node.name, node, 0)


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # a default that no call in the package overrides is a setting nothing
    # sets. A call is matched to a def by the name it calls, so the defs of
    # one name share their calls. The public names, main and run are called
    # from outside the package, so their callers are not here to see
    calls, functions = {}, []
    for tree in _trees().values():
        functions += _functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unset = [
        f"{callee}({name}=)"
        for callee, fn, shift in functions
        if callee not in PUBLIC | {"main", "run"}
        for name, index in _defaulted(fn, shift)
        if not any(_passes(call, name, index) for call in calls.get(callee, []))
    ]
    assert unset == []
