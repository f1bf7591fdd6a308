"""No name in the package that nothing reads or sets.

A name that nothing reads is still code that a reader has to check.  This
test walks every module of the package other than ``__init__.py`` and
refuses five kinds of dead name:

- an imported name that its module never loads;
- a module-level ``def``, ``class`` or assigned name that its module never
  loads, and that no module of the package and no demo imports from it or
  reads as ``module.name``.  ``agorank/__init__.py`` imports what it exports,
  so an exported name counts as read;
- a method of a module-level class, dunders aside, whose name no module of
  the package and no demo reads as an attribute, on any object (``x.name``),
  unless ``KEPT_METHODS`` names it.  The test cannot tell which class an
  object has, so a method counts as read wherever its name is;
- a field of a module-level class (a name annotated in its body, as a
  dataclass field is, or a ``self.name`` that its methods assign) that no
  module of the package and no demo reads as ``x.name`` or names in a
  string constant, unless ``KEPT_FIELDS`` names it.  Writing a field, by
  ``=`` or ``+=``, is no read.  A string counts because the field tables
  read fields by name;
- a parameter with a default, of a module-level function or of a method of
  a module-level class, that no call in the package or a demo passes, by
  position or by keyword, to any callable of the function's name (the
  class's name for ``__init__``), unless ``KEPT_PARAMETERS`` names it.  A
  string constant equal to the parameter's name counts too, because
  ``_decode`` builds records with ``**kwargs``.

A name read only in a quoted annotation counts as loaded, because modules
import such names under ``TYPE_CHECKING``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agorank"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
# methods that only tests read, each kept for a reason of its own
KEPT_METHODS = {
    # the scalar draw that FORMATS.md states; ``uniforms`` must equal it
    "dataio.PortableRng.uniform",
    # the per-item reference that ``metrics._feasible`` computes in columns
    "model.Constraint.satisfied_by",
    # a public view of a catalog as items
    "model.Catalog.items_sorted",
}
# fields that only tests read, each kept for a reason of its own
KEPT_FIELDS = {
    # the exception's documented payload: the 1-based line of the bad record
    "errors.MalformedRecord.line",
}
# parameters that only tests pass, each kept for a reason of its own
KEPT_PARAMETERS = {
    # tests and embedding callers drive the CLI through it
    "cli.main.argv",
}


def _with_annotations(tree: ast.AST) -> list[ast.AST]:
    """``tree`` and the parse of each quoted annotation in it."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return [tree] + [
        ast.parse(node.value, mode="eval")
        for annotation in annotations
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def loaded_names(tree: ast.AST) -> set[str]:
    """Every bare name that ``tree`` loads, quoted annotations included."""
    return {
        node.id
        for part in _with_annotations(tree)
        for node in ast.walk(part)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def reads_from(tree: ast.AST, module: str) -> set[str]:
    """The names that ``tree`` imports from package module ``module`` or reads as ``module.name``."""
    names = set()
    for part in _with_annotations(tree):
        for node in ast.walk(part):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == module)
                or (node.level == 0 and node.module == f"agorank.{module}")
            ):
                names |= {a.name for a in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == module
            ):
                names.add(node.attr)
    return names


def imported_names(tree: ast.AST) -> list[str]:
    """The name each import in ``tree`` binds; ``from __future__`` binds none."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    return bound


def defined_names(tree: ast.Module) -> list[str]:
    """The names bound at module level by ``def``, ``class`` and assignment, dunders aside."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
    return [name for name in bound if not _dunder(name)]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def method_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) for each method of each module-level class, dunders aside."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name)
    ]


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    loaded = loaded_names(tree)
    return [name for name in imported_names(tree) if name not in loaded]


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each dead module-level name in ``modules`` (name -> source)."""
    reader_trees = [ast.parse(source) for source in readers]
    dead = []
    for module, source in modules.items():
        tree = ast.parse(source)
        read = loaded_names(tree).union(*(reads_from(r, module) for r in reader_trees))
        dead += [f"{module}.{name}" for name in defined_names(tree) if name not in read]
    return dead


def unread_methods(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.method`` of each method in ``modules`` (name -> source)
    whose name no reader reads as an attribute."""
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    return [
        f"{module}.{cls}.{name}"
        for module, source in modules.items()
        for cls, name in method_names(ast.parse(source))
        if name not in read
    ]


def class_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) for each module-level class: each name annotated in its
    body, as a dataclass field is, and each ``self.name`` its methods assign."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        names += [
            n.attr
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in ast.walk(item)
            if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
        ]
        found += [(node.name, name) for name in dict.fromkeys(names)]
    return found


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.field`` of each field in ``modules`` (name -> source)
    that no reader loads as an attribute (``x.field``) or names in a string
    constant, as the field tables and ``getattr`` do.  Assigning a field,
    ``+=`` included, is no read."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [
        f"{module}.{cls}.{name}"
        for module, source in modules.items()
        for cls, name in class_fields(ast.parse(source))
        if name not in read
    ]


def _functions(tree: ast.Module) -> Iterator[tuple[ast.FunctionDef, str, str, int]]:
    """(def, qualified name, the name a call uses, arguments a call leaves
    out) for each module-level function and each method of a module-level
    class.  A call leaves out ``self`` or ``cls``, and reaches ``C.__init__``
    as ``C(...)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name, node.name, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name if item.name == "__init__" else item.name
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list
                )
                yield item, f"{node.name}.{item.name}", name, 0 if static else 1


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, str]]:
    """(qualified name, the name a call uses, position, parameter) for each
    parameter with a default of each function that ``_functions`` yields.
    The position is the index of the call's positional argument that reaches
    the parameter, None if the parameter is keyword-only."""
    found = []
    for fn, qualname, name, skip in _functions(tree):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [
            (qualname, name, i - skip, a.arg)
            for i, a in enumerate(positional)
            if i >= first
        ]
        found += [
            (qualname, name, None, a.arg)
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def unset_parameters(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.function.parameter`` of each parameter with a default in
    ``modules`` (name -> source) that no call in the readers passes, by
    position or by keyword, to any callable of its function's name, and that
    no reader names in a string constant, as ``**kwargs`` built from the
    field tables do.  A ``*args`` argument reaches every later position."""
    # callable name -> (most positional arguments of a call, keywords passed)
    passed: dict[str, tuple[float, set[str]]] = {}
    strings = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            count = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            most, keywords = passed.get(name, (0, set()))
            passed[name] = (max(most, count), keywords | {k.arg for k in node.keywords})
    unset = []
    for module, source in modules.items():
        for qualname, name, position, param in defaulted_parameters(ast.parse(source)):
            most, keywords = passed.get(name, (0, set()))
            reached = position is not None and position < most
            if not (reached or param in keywords or param in strings):
                unset.append(f"{module}.{qualname}.{param}")
    return unset


def _source(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_every_import_is_read():
    assert {p.name for p in MODULES} >= {"adapter.py", "dataio.py", "metrics.py"}
    dead = [f"{p.stem}.{name}" for p in MODULES for name in unread_imports(_source(p))]
    assert dead == []


def test_every_module_level_name_is_read_or_exported():
    assert any(p.parent.name == "demos" for p in READERS)
    modules = {p.stem: _source(p) for p in MODULES}
    assert unread_definitions(modules, [_source(p) for p in READERS]) == []


def test_every_method_is_read_or_kept():
    modules = {p.stem: _source(p) for p in MODULES}
    unread = unread_methods(modules, [_source(p) for p in READERS])
    assert sorted(set(unread) - KEPT_METHODS) == []
    # an entry that something reads now, or that is gone, is stale
    assert sorted(KEPT_METHODS - set(unread)) == []


def test_every_field_is_read_or_kept():
    modules = {p.stem: _source(p) for p in MODULES}
    unread = unread_fields(modules, [_source(p) for p in READERS])
    assert sorted(set(unread) - KEPT_FIELDS) == []
    # an entry that something reads now, or that is gone, is stale
    assert sorted(KEPT_FIELDS - set(unread)) == []


def test_every_defaulted_parameter_is_passed_or_kept():
    modules = {p.stem: _source(p) for p in MODULES}
    unset = unset_parameters(modules, [_source(p) for p in READERS])
    assert sorted(set(unset) - KEPT_PARAMETERS) == []
    # an entry that something passes now, or that is gone, is stale
    assert sorted(KEPT_PARAMETERS - set(unset)) == []


def test_detector_flags_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import json as js",
            "from typing import TYPE_CHECKING, Sequence",
            "from .errors import Unused, Used",
            "if TYPE_CHECKING:",
            "    from .agents import AgentSpec",
            "LIMIT = 3",
            "_A, (_B, _C) = 1, (2, 3)",
            "def f(spec: 'AgentSpec', n: Sequence[int]) -> None:",
            "    raise Used(os.sep, _B)",
            "def g(): pass",
            "def h(): pass",
            "class Kept: pass",
        ]
    )
    assert unread_imports(source) == ["js", "Unused"]
    readers = [
        "from .m import g\nfrom agorank import m\nother.LIMIT\ndef k(x: 'm.Kept'): pass",
        "from agorank.m import h",
    ]
    assert unread_definitions({"m": source}, readers) == ["m.LIMIT", "m._A", "m._C", "m.f"]

    source = "\n".join(
        [
            "class C:",
            "    def __init__(self): self.kept()",
            "    def kept(self): pass",
            "    @property",
            "    def view(self): pass",
            "    @classmethod",
            "    def build(cls): pass",
            "    def dead(self): pass",
            "def f():",
            "    class Inner:",
            "        def local(self): pass",
        ]
    )
    readers = [source, "from .m import C\nC.build()\nprint(object().view)"]
    assert unread_methods({"m": source}, readers) == ["m.C.dead"]

    source = "\n".join(
        [
            "@dataclass",
            "class D:",
            "    read: int",
            "    named: int",
            "    dead: int = 0",
            "    LIMIT = 3",
            "class C:",
            "    def __init__(self):",
            "        self.read = self.set_only = self.bumped = 0",
            "        self.bumped += 1",
            "    def f(self):",
            "        local = 1",
            "        return self.read",
            "def f():",
            "    class Inner:",
            "        local: int",
        ]
    )
    readers = [source, "getattr(d, 'named')"]
    assert unread_fields({"m": source}, readers) == ["m.D.dead", "m.C.set_only", "m.C.bumped"]

    source = "\n".join(
        [
            "def f(a, by_position=1, by_keyword=2, by_string=3, *, kw_only=4, dead=5): pass",
            "def g(a=1, b=2): pass",
            "class C:",
            "    def __init__(self, passed=1, dead=2): pass",
            "    def m(self, a=1, dead=2): pass",
            "    @staticmethod",
            "    def s(a=1, dead=2): pass",
            "def outer():",
            "    def nested(local=1): pass",
        ]
    )
    readers = [
        source,
        "f(0, 1, by_keyword=2, kw_only=4)\n_decode(**{'by_string': 3})",
        "g(*args)\nC(1)\nc.m(1)\nC.s(1)",
    ]
    assert unset_parameters({"m": source}, readers) == [
        "m.f.dead", "m.C.__init__.dead", "m.C.m.dead", "m.C.s.dead"
    ]
