"""The package keeps only code that the program or an acceptance criterion
reaches: every `DiscreteGeometry` field is read by the code that consumes
the geometry pass, every field of every dataclass is read from the
package, from `bench/` or from `tests/test_acceptance.py`, every
top-level function and class is used from another place in the package,
from `bench/`, or from `tests/test_acceptance.py`, every module-level
constant is read from one of those places, and every name a module
imports is used in that module.
Test-only references live in `tests/*_reference.py`.

The checks scan the source with `ast`, so a name counts as used when it
appears as a name or an attribute; `bench/tracing.py` names the functions
it patches as strings, so string constants under `bench/` count too. A
constant or a dataclass field counts as read only where its name or
attribute is loaded."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pseudoplateau"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(node, strings=False):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_geometry_field_is_read_outside_the_pass():
    plateau = _parse(PACKAGE / "plateau.py")
    cls = next(n for n in plateau.body
               if isinstance(n, ast.ClassDef) and n.name == "DiscreteGeometry")
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    assert fields
    skip = {id(n) for top in plateau.body
            if isinstance(top, ast.FunctionDef) and top.name == "_geometry_pass"
            for n in ast.walk(top)}
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(_parse(path)):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and id(n) not in skip):
                read.add(n.attr)
    unread = [f for f in fields if f not in read]
    assert not unread, f"DiscreteGeometry fields no code reads: {unread}"


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    defined = []   # (module.class, field)
    read = set()
    sources = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    for path in sources:
        tree = _parse(path)
        if path.parent == PACKAGE:
            defined += [(f"{path.stem}.{cls.name}", n.target.id) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                        for n in cls.body if isinstance(n, ast.AnnAssign)]
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    assert defined
    unread = [f"{cls}.{name}" for cls, name in defined if name not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_every_top_level_definition_is_reached():
    defined = []   # (module, name)
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, top.name))
                # a definition's own body does not count as a use of it
                used |= _used_names(top) - {top.name}
            elif not isinstance(top, (ast.Import, ast.ImportFrom)):
                used |= _used_names(top)
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= _used_names(_parse(path), strings=True)
    used |= _used_names(_parse(ROOT / "tests" / "test_acceptance.py"))
    unreached = [f"{module}.{name}" for module, name in defined if name not in used]
    assert not unreached, f"top-level definitions only tests reach: {unreached}"


def test_every_module_level_constant_is_read():
    defined = []   # (module, name)
    read = set()
    sources = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    for path in sources:
        tree = _parse(path)
        if path.parent == PACKAGE:
            for top in tree.body:
                if isinstance(top, (ast.Assign, ast.AnnAssign)):
                    targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                    defined += [(path.stem, t.id) for t in targets
                                if isinstance(t, ast.Name) and not t.id.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    assert defined
    unread = [f"{module}.{name}" for module, name in defined if name not in read]
    assert not unread, f"module-level constants nothing reads: {unread}"


def test_every_import_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.Import)
                   or isinstance(n, ast.ImportFrom) and n.module != "__future__"]
        bound = [alias.asname or alias.name.split(".")[0] for n in imports for alias in n.names]
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in bound if name not in loaded]
    assert not unused, f"imported names their module never uses: {unused}"
