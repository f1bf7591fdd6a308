"""No name in the package that nothing reads.

A name that nothing reads is still code that a reader has to check.  This
test walks every module of the package other than ``__init__.py`` and
refuses two kinds of dead name:

- an imported name that its module never loads;
- a module-level ``def``, ``class`` or assigned name that its module never
  loads, and that no module of the package and no demo imports from it or
  reads as ``module.name``.  ``agorank/__init__.py`` imports what it exports,
  so an exported name counts as read.

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
    return [name for name in bound if not (name.startswith("__") and name.endswith("__"))]


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
