"""Every name ``import cvlab`` exports has a reader in code: the package
outside its own definition and ``__init__.py``, or a script.  A name
that only documentation mentions is surface to delete, not to keep."""

import ast
import types
from pathlib import Path

import cvlab

ROOT = Path(__file__).resolve().parent.parent


def exported_names():
    return sorted(
        name
        for name, value in vars(cvlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def code_readers():
    """Each name loaded in ``src/cvlab`` (but ``__init__.py``) and
    ``scripts/``, with the top-level definitions that load it."""
    paths = [p for p in (ROOT / "src" / "cvlab").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "scripts").glob("*.py")
    readers = {}
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    return readers


def test_every_export_has_a_reader():
    readers = code_readers()
    unread = [name for name in exported_names() if not readers.get(name, set()) - {name}]
    assert unread == []
