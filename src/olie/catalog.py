"""Named instances, constructive families, random generators and file I/O.

Two catalog entries, ``omega.sl2e`` and ``omega.sl2f``, are kept as
counterexample fixtures: they extend the special linear algebra by a map
that is *not* a derivation in the required sense, so they fail
validation (the residual sits on the first basis triple meeting the new
vector).  They are flagged ``valid=False`` and excluded from sweeps that
quantify over certified instances, but remain available: their tables
still exhibit dw != 0 and break the four-variable consequences, which is
what the identity suite needs them for.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

from .algebra import AnticommAlgebra, OmegaAlgebra
from .derivations import al_derivation_space
from .errors import (
    EigenvectorConditionFailed,
    ParseError,
    SchemaError,
    UnknownName,
    quoted,
)
from .extensions import _extension, extend_codim1
from .fields import field_from_json, scalar_from_json
from .linalg import (
    identity_matrix, mat_add, mat_mul, mat_scale, mat_sub, vec_add, vec_mat, vec_scale, zeros
)


@dataclass
class CatalogEntry:
    name: str
    description: str
    valid: bool
    builder: object


def _omega_s4(field):
    return OmegaAlgebra(
        field,
        4,
        bracket={
            (0, 1): {1: 1},
            (0, 2): {2: 1},
            (1, 2): {0: 1},
            (0, 3): {2: -1, 3: 2},
            (1, 3): {0: 1},
        },
        omega={(1, 2): 2, (1, 3): 2},
    )


def _omega_n3(field):
    return OmegaAlgebra(
        field,
        3,
        bracket={(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
        omega={(1, 2): 2},
    )


def _lie_sl2(field):
    # basis e, f, h with [e,h] = -e, [f,h] = f, [e,f] = h
    return OmegaAlgebra(
        field, 3, bracket={(0, 2): {0: -1}, (1, 2): {1: 1}, (0, 1): {2: 1}}
    )


def _lie_aff1(field):
    # basis x, y with [x,y] = x
    return OmegaAlgebra(field, 2, bracket={(0, 1): {0: 1}})


def _lie_aff1y(field):
    # the other convention: [x,y] = y
    return OmegaAlgebra(field, 2, bracket={(0, 1): {1: 1}})


def _sl2_extension_table(field, image_index, alpha_index, alpha_value):
    """dim-4 table extending sl2 by a map h -> e_image with the stated
    covector; not certified (see the module docstring)."""
    bracket = {(0, 2): {0: -1}, (1, 2): {1: 1}, (0, 1): {2: 1}}
    bracket[(2, 3)] = {image_index: 1}
    omega = {(alpha_index, 3): alpha_value}
    return AnticommAlgebra(field, 4, bracket, omega)


def _omega_sl2e(field):
    return _sl2_extension_table(field, 0, 1, -1)


def _omega_sl2f(field):
    return _sl2_extension_table(field, 1, 0, 1)


def _family_iiia_small(field):
    return family_iiia(field, 2, [[1, 0], [0, 2]], 1, [[0, 0], [1, 0]])


_ENTRIES = {
    "omega.s4": CatalogEntry(
        "omega.s4",
        "4-dim algebra with radical of codimension 2; extension of omega.n3",
        True,
        _omega_s4,
    ),
    "omega.n3": CatalogEntry(
        "omega.n3",
        "3-dim simple non-Lie algebra with a unique nonzero form entry",
        True,
        _omega_n3,
    ),
    "lie.sl2": CatalogEntry(
        "lie.sl2",
        "special linear algebra in the basis {e,f,h | [e,h]=-e, [f,h]=f, [e,f]=h}",
        True,
        _lie_sl2,
    ),
    "lie.aff1": CatalogEntry(
        "lie.aff1", "2-dim nonabelian Lie algebra, [x,y] = x", True, _lie_aff1
    ),
    "lie.aff1y": CatalogEntry(
        "lie.aff1y", "2-dim nonabelian Lie algebra, [x,y] = y", True, _lie_aff1y
    ),
    "omega.sl2e": CatalogEntry(
        "omega.sl2e",
        "sl2 extension table by h -> e (alpha on f); fails validation, "
        "kept as the counterexample fixture for the identity suite",
        False,
        _omega_sl2e,
    ),
    "omega.sl2f": CatalogEntry(
        "omega.sl2f",
        "sl2 extension table by h -> f (alpha on e); fails validation, "
        "kept as a counterexample fixture",
        False,
        _omega_sl2f,
    ),
    "family.iiia": CatalogEntry(
        "family.iiia",
        "smallest member of the abelian-plus-semisimple-action family: "
        "abelian part of dim 2, diag(1,2) action, eigenvalue-1 twist",
        True,
        _family_iiia_small,
    ),
}


def catalog_names():
    return sorted(_ENTRIES)


def catalog_entry(name) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownName(
            f"unknown catalog name {name!r}; known: {', '.join(catalog_names())}"
        ) from None


def builtin_algebra(name, field=None):
    from .fields import QQ

    entry = catalog_entry(name)
    return entry.builder(field if field is not None else QQ)


# -- constructive family ---------------------------------------------------


def family_iiia(field, n, adx, sigma, fmat):
    """Extension of the Lie algebra A + Kx (A abelian of dim n, the extra
    element acting on A by ``adx``) by the map D = F + id on A, D(x) = 0.

    Requires [F, ad x] = sigma F with sigma != 0 and F != 0.  The
    covectors are alpha(A) = 0, alpha(x) = -sigma and lam(A) = 0,
    lam(x) = sigma, the unique signs for which the construction carries
    the defining law; the result is never a Lie algebra.
    """
    sigma = field.coerce(sigma)
    adx = [[field.coerce(x) for x in row] for row in adx]
    fmat = [[field.coerce(x) for x in row] for row in fmat]
    if not sigma:
        raise EigenvectorConditionFailed("sigma must be nonzero")
    if not any(map(any, fmat)):
        raise EigenvectorConditionFailed("F must be nonzero")
    # [F, ad x](a) = F(ad x(a)) - ad x(F(a)); row convention composes
    # left-to-right, so the matrix is adx @ F - F @ adx
    comm = mat_sub(field, mat_mul(field, adx, fmat), mat_mul(field, fmat, adx))
    if comm != mat_scale(field, sigma, fmat):
        raise EigenvectorConditionFailed(
            "F is not an eigenvector of the action's commutator with eigenvalue sigma"
        )
    base_bracket = {}
    for i in range(n):
        entry = {k: c for k, c in enumerate(adx[i]) if c}
        if entry:
            base_bracket[(i, n)] = entry
    base = OmegaAlgebra(field, n + 1, base_bracket)
    dmat = [row + [field.zero()] for row in mat_add(field, fmat, identity_matrix(field, n))]
    dmat.append(zeros(field, n + 1))
    alpha = zeros(field, n + 1)
    alpha[n] = -sigma
    lam = zeros(field, n + 1)
    lam[n] = sigma
    return extend_codim1(base, lam, dmat, alpha)


# -- random generators ------------------------------------------------------


def _rng(field, seed, label):
    return random.Random(f"{label}/{field.tag}/{seed}")


def _random_scalar(field, rng):
    if field.char == 0:
        return field.coerce(rng.randint(-2, 2))
    return rng.randrange(field.char)


def random_dim3(field, seed):
    """Random dim-3 instance: random structure constants, with the form
    solved for (unique in dimension 3, and checked against the law by
    ``omega_space``, so the result is trusted); deterministic per
    (field, seed)."""
    rng = _rng(field, seed, "dim3")
    bracket = {}
    for i, j in combinations(range(3), 2):
        entry = {}
        for k in range(3):
            c = _random_scalar(field, rng)
            if c:
                entry[k] = c
        if entry:
            bracket[(i, j)] = entry
    skeleton = AnticommAlgebra(field, 3, bracket)
    sol = skeleton.omega_space()
    assert sol is not None, "dimension-3 form system is always solvable"
    w = sol.particular
    omega = {}
    for i, j in combinations(range(3), 2):
        c = w[i * 3 + j]
        if c:
            omega[(i, j)] = c
    return OmegaAlgebra._trusted(field, 3, bracket, omega)


@dataclass
class Stuck:
    reason: str
    dim_reached: int

    def __bool__(self):
        return False


def random_extension_chain(field, seed, target_dim):
    """Grow from a random dim-3 instance by random codimension-1
    extensions; returns the algebra or Stuck when no multiplicative form
    exists or only the zero derivation is available."""
    rng = _rng(field, seed, f"chain{target_dim}")
    alg = random_dim3(field, seed)
    while alg.dim < target_dim:
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            return Stuck("not multiplicative", alg.dim)
        lam = list(lam_set.particular)
        for k in lam_set.kernel.rows:
            c = _random_scalar(field, rng)
            if c:
                lam = vec_add(field, lam, vec_scale(field, c, list(k)))
        basis = al_derivation_space(alg, lam)
        if not basis:
            return Stuck("only the zero derivation", alg.dim)
        for _ in range(8):
            coeffs = [_random_scalar(field, rng) for _ in basis]
            matrix = [
                vec_mat(field, coeffs, [der.matrix[i] for der in basis])
                for i in range(alg.dim)
            ]
            alpha = vec_mat(field, coeffs, [der.alpha for der in basis])
            if any(map(any, matrix)) or any(alpha):
                break
        else:
            return Stuck("only the zero derivation", alg.dim)
        # lam solves the multiplicativity system and (D, alpha) is a point
        # of the derivation space for it, so extend_codim1's checks hold
        alg = _extension(alg, lam, matrix, alpha)
    return alg


# -- JSON files --------------------------------------------------------------

# the largest dimension a file may declare: a table holds dim^2 pair
# slots and certification walks C(dim, 3) basis triples
MAX_DIM = 64


def _parse_pair_key(key, dim):
    parts = key.split(",")
    if len(parts) != 2:
        raise SchemaError(f"bad pair key {quoted(key)}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError(f"bad pair key {quoted(key)}") from None
    if not 1 <= i < j <= dim:
        raise SchemaError(f"pair key {quoted(key)} must satisfy 1 <= i < j <= dim")
    return i - 1, j - 1


def from_json_dict(obj):
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    unknown = set(obj) - {"field", "dim", "bracket", "omega"}
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}")
    if "field" not in obj or "dim" not in obj:
        raise SchemaError("missing required keys 'field' and 'dim'")
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise SchemaError("'dim' must be a nonnegative integer")
    if dim > MAX_DIM:
        raise SchemaError(f"'dim' {dim} exceeds the limit of {MAX_DIM}")
    for name in ("bracket", "omega"):
        if not isinstance(obj.get(name, {}), dict):
            raise SchemaError(f"'{name}' must be an object")
    # each distinct scalar text of the file is parsed once
    parsed = {}

    def scalar(value, where, key):
        if isinstance(value, str):
            x = parsed.get(value)
            if x is None:
                x = parsed[value] = field.parse(value)
            return x
        return scalar_from_json(field, value, f"{where} {quoted(key)}")

    bracket = {}
    for key, row in obj.get("bracket", {}).items():
        pair = _parse_pair_key(key, dim)
        if not isinstance(row, dict):
            raise SchemaError(f"bracket entry {quoted(key)} must be an object")
        entry = {}
        for kk, value in row.items():
            try:
                k = int(kk)
            except ValueError:
                raise SchemaError(f"bad coefficient index {quoted(kk)}") from None
            if not 1 <= k <= dim:
                raise SchemaError(f"coefficient index {quoted(kk)} out of range")
            entry[k - 1] = scalar(value, "bracket", key)
        bracket[pair] = entry
    omega = {}
    for key, value in obj.get("omega", {}).items():
        omega[_parse_pair_key(key, dim)] = scalar(value, "omega", key)
    return AnticommAlgebra(field, dim, bracket, omega)


def dumps(alg: AnticommAlgebra) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline at
    the end; loading it back reproduces the algebra bit-exactly."""
    return json.dumps(alg.to_json_dict(), indent=2) + "\n"


def loads(text: str) -> AnticommAlgebra:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, position=exc.colno) from None
    except ValueError as exc:  # a number past the interpreter's digit limit
        raise ParseError(f"bad JSON number: {exc}") from None
    return from_json_dict(obj)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key given twice at any level."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load(path) -> AnticommAlgebra:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def save(alg: AnticommAlgebra, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(alg))


def reduce_mod_p(alg: AnticommAlgebra, p):
    """The same tables with scalars reduced into GF(p)."""
    from .fields import GF

    return alg.with_field(GF(p))
