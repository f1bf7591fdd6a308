"""No float power on the package's byte paths.

A float ``x ** y``, ``pow``, ``math.pow`` and ``np.power`` go to the C
library's ``pow``, which IEEE 754 recommends but does not require to be
correctly rounded; glibc's is one ulp off on some squares.  A product such as
``x * x`` is correctly rounded on every platform, so saved floats stay the same
bytes everywhere.  This test walks every module of the package and refuses
each of them, except a power whose base is an int literal (``2**24``,
``10**n``), which Python computes exactly on integers.
"""

from __future__ import annotations

import ast
from pathlib import Path

import agorank

SOURCES = sorted(Path(agorank.__file__).parent.glob("*.py"))
POW_CALLS = {("math", "pow"), ("np", "power"), ("numpy", "power")}


def float_pow_sites(source: str, name: str) -> list[str]:
    """``name:line`` of each power in ``source`` that may reach libm ``pow``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            base = node.left if isinstance(node, ast.BinOp) else node.target
            if isinstance(base, ast.Constant) and type(base.value) is int:
                continue
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "pow") or (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in POW_CALLS
            ):
                lines.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(lines)]


def test_no_float_pow_in_package():
    assert {p.name for p in SOURCES} >= {"dataio.py", "metrics.py", "aggregation.py"}
    sites = [s for p in SOURCES for s in float_pow_sites(p.read_text(encoding="utf-8"), p.name)]
    assert sites == []


def test_detector_flags_each_form():
    source = "\n".join(
        [
            "a = x ** 2",
            "b = 2.0 ** n",
            "c = pow(x, 2)",
            "d = math.pow(x, 2)",
            "e = np.power(x, 2)",
            "f = (-2) ** n",
            "x **= 2",
            "ok = 2**24 + 10 ** n",
        ]
    )
    assert float_pow_sites(source, "m.py") == [f"m.py:{n}" for n in range(1, 8)]
