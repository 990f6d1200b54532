"""Package structure: modules reach each other only through public names."""

from __future__ import annotations

import ast
from pathlib import Path

import smilewings

PACKAGE_DIR = Path(smilewings.__file__).parent


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("smilewings")
        if sibling:
            found += [f"{path.name}:{node.lineno} imports {alias.name} from "
                      f"{'.' * node.level}{node.module or ''}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    offenders = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert offenders == []
