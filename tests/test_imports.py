"""Every name a `getme` module imports is used in it: an `ast` check that
needs no linter."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in Path(__file__).parents[1].glob("src/getme/*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names `source` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os, numpy.linalg as la\nfrom x import (a,"
                          " b)\nimport json.decoder\nla.norm(a)\n") == [
        "b", "json", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
