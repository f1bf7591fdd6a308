"""No ``Item`` views on the per-query path or at the file boundary.

A ``Catalog`` keeps its items only as columns: ``catalog[item_id]`` and
``catalog.items_sorted()`` build a fresh ``Item`` from a row on every call.
Code that runs per query, and the catalog hash and export in ``dataio``, read
the columns by position instead (``catalog.positions``, ``catalog.columns``).
This test walks those modules and refuses a subscript of anything named
``catalog`` and any ``items_sorted()`` call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import agorank

PACKAGE = Path(agorank.__file__).parent
WALKED = (
    "adapter.py", "agents.py", "aggregation.py", "dataio.py", "metrics.py", "orchestrator.py"
)


def item_view_sites(source: str, name: str) -> list[str]:
    """``name:line`` of each ``<...catalog>[...]`` and ``.items_sorted()`` in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            value = node.value
            held = value.id if isinstance(value, ast.Name) else getattr(value, "attr", "")
            if held.lower().endswith("catalog"):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "items_sorted"
        ):
            lines.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(lines)]


def test_no_item_views_per_query():
    sources = [PACKAGE / name for name in WALKED]
    sites = [s for p in sources for s in item_view_sites(p.read_text(encoding="utf-8"), p.name)]
    assert sites == []


def test_detector_flags_each_form():
    source = "\n".join(
        [
            "a = catalog[item_id].popularity",
            "b = scenario.catalog[i]",
            "c = CATALOG['x']",
            "d = catalog.items_sorted()",
            "e = [it.id for it in self.catalog.items_sorted()]",
            "ok = catalog.columns.popularity[order] + catalog.ids[0] + catalogs[0]",
        ]
    )
    assert item_view_sites(source, "m.py") == [f"m.py:{n}" for n in range(1, 6)]
