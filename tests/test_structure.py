"""Package structure: modules reach each other only through public names."""

from __future__ import annotations

import ast
import importlib
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


def _attribute_writes_to_imports(path: Path) -> list[str]:
    """Assignments (and deletions) through an attribute or item of a name
    the module imported, e.g. ``levy_stable.parameterization = "S1"``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}

    def flat(target: ast.expr) -> list[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            return [t for elt in target.elts for t in flat(elt)]
        if isinstance(target, ast.Starred):
            return flat(target.value)
        return [target]

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in (t for top in targets for t in flat(top)):
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if root is not target and isinstance(root, ast.Name) \
                    and root.id in imported:
                found.append(f"{path.name}:{node.lineno} writes "
                             f"{ast.unparse(target)}")
    return found


def test_no_writes_to_imported_objects():
    # Module state of numpy, scipy or a sibling module is shared with every
    # other user of it; the package must not change it behind their back.
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    offenders = [hit for path in modules
                 for hit in _attribute_writes_to_imports(path)]
    assert offenders == []


def test_export_lists_resolve():
    # A deleted name left in an __all__ breaks ``from smilewings import *``
    # and nothing else, so nothing else would catch it.
    exported = list(smilewings.__all__)
    assert len(exported) == len(set(exported))
    modules = [smilewings] + [
        importlib.import_module(f"smilewings.{path.stem}")
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name}, never used"
            for name, line in bound.items() if name not in used]


def test_no_unused_module_imports():
    # The package's own __init__ imports only to re-export.
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.stem != "__init__"]
    offenders = [hit for path in modules for hit in _unused_imports(path)]
    assert offenders == []
