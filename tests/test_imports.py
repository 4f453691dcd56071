"""Every name a library module imports is used in that module.

``olie/__init__.py`` is exempt: its imports are the package's public
names.  A name counts as used when it appears as a name anywhere in the
module's tree, function bodies and annotations included.
"""

import ast
from pathlib import Path

import pytest

import olie

MODULES = sorted(p for p in Path(olie.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from math import gcd, lcm\nimport os\n\ndef f(a: 'x'):\n    return gcd(a, 2)\n"
    assert unused_imports(source) == [(1, "lcm"), (2, "os")]
