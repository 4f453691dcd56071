"""AST checks on the library modules.

Every name a library module imports is used in that module.
``olie/__init__.py`` is exempt: its imports are the package's public
names.  A name counts as used when it appears as a name anywhere in the
module's tree, function bodies and annotations included.

No module calls ``basis_bracket``: systems and operators read the signed
pair table in ints.  ``identities`` and ``derivations`` use no ``%``:
the GF(p) reduction of their int values is left to ``linalg``.  No
module but ``fields`` calls the per-scalar ``add``, ``sub``, ``mul``,
``neg`` or ``is_zero`` of a field: scalars are computed with operators
and reduced by ``linalg``.  No module but ``linalg`` reads the private
pair table ``SkewProduct._rows``: the others go through
``signed_table()``, so field-specific int work stays behind ``linalg``,
and inside ``linalg`` no code outside ``class SkewProduct`` reads it:
products, images and commute tests go through its methods.
No module but ``linalg`` calls ``rref``: the solvers read the kept rows
of an ``Echelon`` directly, not a dense reduced copy of them.  No code
outside ``class Echelon`` reads its kept rows ``_kept``, whose form (a
packed int or a sparse dict) depends on the field: results are read
off through the methods of ``Echelon``.  No code outside ``class
AnticommAlgebra`` reads its kept invariants ``_cache``: they are shared
objects, read through the methods that compute them, so no module can
reach one to change it.

Every private module-level function and class of the library is
referred to by library code outside its own definition: a helper that
a deletion left without callers is deleted with it.
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


def calls_to(source, name):
    """Line numbers of the calls of ``name``, as a function or a method."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == name or getattr(node.func, "id", None) == name)
    ]


def modulo_uses(source):
    """Line numbers of the ``%`` operators, plain and augmented."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_basis_bracket_calls(path):
    assert calls_to(path.read_text(encoding="utf-8"), "basis_bracket") == []


@pytest.mark.parametrize("name", ["identities.py", "derivations.py"])
def test_no_modulo_in_identities_and_derivations(name):
    path = Path(olie.__file__).parent / name
    assert modulo_uses(path.read_text(encoding="utf-8")) == []


def test_the_checks_see_calls_and_modulo():
    source = "def f(alg, p, v):\n    v %= p\n    return alg.basis_bracket(0, 1), basis_bracket(1, 0), v % p\n"
    assert calls_to(source, "basis_bracket") == [3, 3]
    assert modulo_uses(source) == [2, 3]


SCALAR_OPS = {"add", "sub", "mul", "neg", "is_zero"}


def field_scalar_calls(source):
    """Line numbers of the calls of a per-scalar field op on a receiver
    named ``field`` or ending in ``.field``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in SCALAR_OPS:
            receiver = node.func.value
            if "field" in (getattr(receiver, "id", None), getattr(receiver, "attr", None)):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "fields.py"], ids=lambda p: p.name
)
def test_no_per_scalar_field_calls(path):
    assert field_scalar_calls(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_per_scalar_field_calls():
    source = (
        "def f(self, field, alg, span, a):\n"
        "    span.add(a)\n"
        "    x = field.add(a, a), field.inv(a), field.mul\n"
        "    return alg.field.neg(a), self.field.is_zero(a), field.coerce(a)\n"
    )
    assert field_scalar_calls(source) == [3, 4, 4]


def private_table_reads(source):
    """Line numbers of the reads of an attribute named ``_rows``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_rows"
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_reads_the_pair_table(path):
    assert private_table_reads(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_pair_table_reads():
    source = (
        "def f(alg, skew, _rows):\n"
        "    table = alg._product._rows\n"
        "    return skew._rows[0], alg._product.signed_table(), _rows\n"
    )
    assert private_table_reads(source) == [2, 3]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_calls_rref(path):
    assert calls_to(path.read_text(encoding="utf-8"), "rref") == []


def test_the_check_sees_rref_calls():
    source = (
        "def f(field, rows, rref_rows):\n"
        "    _, rank, _ = rref(field, rows)\n"
        "    return linalg.rref(field, rows_rref), rank, rref_rows\n"
    )
    assert calls_to(source, "rref") == [2, 3]


def reads_outside_class(source, attr, owner):
    """Line numbers of the reads of an attribute named ``attr`` outside
    the body of a class named ``owner``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == owner
        for node in ast.walk(cls)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr and id(node) not in inside
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_echelon_reads_its_kept_rows(path):
    assert reads_outside_class(path.read_text(encoding="utf-8"), "_kept", "Echelon") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_algebra_reads_its_kept_invariants(path):
    source = path.read_text(encoding="utf-8")
    assert reads_outside_class(source, "_cache", "AnticommAlgebra") == []


def test_the_check_sees_kept_invariant_reads():
    source = (
        "class AnticommAlgebra:\n"
        "    def center(self):\n"
        "        return self._cache['center']\n"
        "\n"
        "def widen(alg):\n"
        "    alg._cache['center'].rows.append(())\n"
        "\n"
        "class OmegaAlgebra(AnticommAlgebra):\n"
        "    def center(self):\n"
        "        return self._cache.get('center')\n"
    )
    assert reads_outside_class(source, "_cache", "AnticommAlgebra") == [6, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_product_reads_its_pair_table(path):
    assert reads_outside_class(path.read_text(encoding="utf-8"), "_rows", "SkewProduct") == []


def test_the_check_sees_pair_table_reads_outside_the_product():
    source = (
        "class SkewProduct:\n"
        "    def image(self, i, j):\n"
        "        return self._rows[i][j]\n"
        "\n"
        "class Echelon:\n"
        "    def spin(self, skew):\n"
        "        table = skew._rows\n"
        "\n"
        "def images(skew, _rows):\n"
        "    return skew._rows[0], skew.signed_table(), _rows\n"
    )
    assert reads_outside_class(source, "_rows", "SkewProduct") == [7, 10]


def test_the_check_sees_kept_row_reads():
    source = (
        "class Echelon:\n"
        "    def rank(self):\n"
        "        return len(self._kept)\n"
        "\n"
        "def solve(ech, _kept):\n"
        "    kept = ech._kept\n"
        "    return kept, _kept, ech.kernel(3)\n"
        "\n"
        "class Other:\n"
        "    def f(self, ech):\n"
        "        return ech._kept.get(0)\n"
    )
    assert reads_outside_class(source, "_kept", "Echelon") == [6, 11]


def unreferenced_private_names(sources):
    """``(module, line, name)`` of each private module-level function and
    class in ``sources`` (module name -> text) that no code of any of
    them refers to, by name or attribute, outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [
        (id(node), node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(ref == name and key not in own for key, ref in refs):
                out.append((module, node.lineno, name))
    return out


def test_every_private_helper_is_used():
    package = Path(olie.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_the_check_sees_an_unused_helper():
    sources = {
        "a.py": (
            "def _used(x):\n"
            "    return x\n"
            "\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "\n"
            "class _Left:\n"
            "    pass\n"
            "\n"
            "def public():\n"
            "    return _used(1)\n"
        ),
        "b.py": "from a import _Left\n\ndef __getattr__(name):\n    return a._imported\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", 4, "_recursive"), ("a.py", 7, "_Left")]
