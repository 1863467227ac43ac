"""The package namespace: ``__all__`` against the names ``__init__`` imports."""

import ast
from pathlib import Path

import scgm


def test_all_names_resolve_and_every_public_import_is_listed():
    for name in scgm.__all__:
        assert hasattr(scgm, name), name
    tree = ast.parse(Path(scgm.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(scgm.__all__) - {"__version__"}
    assert len(scgm.__all__) == len(set(scgm.__all__))
