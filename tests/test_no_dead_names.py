"""No name in the package that nothing reads.

A name that nothing reads is still code that a reader has to check.  This
test walks every module of the package other than ``__init__.py`` and
refuses three kinds of dead name:

- an imported name that its module never loads;
- a module-level ``def``, ``class`` or assigned name that its module never
  loads, and that no module of the package and no demo imports from it or
  reads as ``module.name``.  ``agorank/__init__.py`` imports what it exports,
  so an exported name counts as read;
- a method of a module-level class, dunders aside, whose name no module of
  the package and no demo reads as an attribute, on any object (``x.name``),
  unless ``KEPT_METHODS`` names it.  The test cannot tell which class an
  object has, so a method counts as read wherever its name is.

A name read only in a quoted annotation counts as loaded, because modules
import such names under ``TYPE_CHECKING``.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
