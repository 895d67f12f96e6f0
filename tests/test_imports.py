"""The exact core stays free of numerics: the type, word-set, decision and
signalling modules import neither numpy nor the dense oracle."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hotypes

PACKAGE = Path(hotypes.__file__).parent
CORE = ("type_core", "strings", "admissibility", "signalling")
FORBIDDEN = ("numpy", "hotypes.oracle")


def imported_modules(module: str) -> set[str]:
    """Every module a source file imports, relative imports resolved."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "hotypes" + (f".{base}" if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", CORE)
def test_core_module_imports_no_numerics(module):
    for name in imported_modules(module):
        for forbidden in FORBIDDEN:
            assert name != forbidden and not name.startswith(forbidden + "."), (module, name)


def test_the_guard_sees_the_oracle_imports():
    assert {"numpy", "hotypes.strings"} <= imported_modules("oracle")
