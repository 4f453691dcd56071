"""Two-form derivations: endomorphisms D with covectors (alpha, lambda)
satisfying, on every pair of elements,

    D([x,y]) - [D(x),y] + [D(y),x]
        = lam(y) D(x) - lam(x) D(y) + alpha(y) x - alpha(x) y.

For a fixed lambda this is a homogeneous linear system in the n^2 matrix
entries d_ij (row convention, D(e_i) = sum_j d_ij e_j) and the n values
alpha_i; `al_derivation_space` returns its canonical solution basis.
These are exactly the data that let a codimension-1 extension carry the
defining law (see :mod:`olie.extensions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import AlmostAbelianResult, AnticommAlgebra
from .errors import DimensionMismatch, NotALieAlgebra, PreconditionFailed, SchemaError
from .fields import scalar_from_json
from .linalg import (
    Subspace, _pairs_echelon, bottom_up, check_system_size, from_scaled, kernel_basis, mat_mul,
    mat_sub, to_scaled, vec_dot, vec_sub, zeros,
)


@dataclass
class AlphaLambdaDerivation:
    """Matrix D (rows are images of basis vectors) with covectors."""

    matrix: list
    alpha: list
    lam: list

    def is_zero_map(self, field):
        return not any(map(any, self.matrix))

    def to_json_dict(self, field):
        return {
            "D": [[field.format(x) for x in row] for row in self.matrix],
            "alpha": [field.format(x) for x in self.alpha],
            "lambda": [field.format(x) for x in self.lam],
        }

    @classmethod
    def from_json_dict(cls, field, obj, dim):
        """The data of a derivation file, its scalars read as in algebra
        files; a malformed file is a schema error, a well-formed one of
        the wrong size a dimension mismatch."""
        if not isinstance(obj, dict):
            raise SchemaError("top level of a derivation file must be an object")
        unknown = set(obj) - {"D", "alpha", "lambda"}
        if unknown:
            raise SchemaError(f"unknown keys {sorted(unknown)}")
        rows = obj.get("D")
        alpha = obj.get("alpha", ["0"] * dim)
        lam = obj.get("lambda", ["0"] * dim)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise SchemaError("'D' must be a list of rows, each a list")
        if not isinstance(alpha, list) or not isinstance(lam, list):
            raise SchemaError("'alpha' and 'lambda' must be lists")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise DimensionMismatch("derivation matrix shape does not match dim")
        if len(alpha) != dim or len(lam) != dim:
            raise DimensionMismatch("covector length does not match dim")
        return cls(
            [[scalar_from_json(field, x, "D") for x in row] for row in rows],
            [scalar_from_json(field, x, "alpha") for x in alpha],
            [scalar_from_json(field, x, "lambda") for x in lam],
        )


def _system_rows(alg: AnticommAlgebra, lam):
    """Int rows of the homogeneous system in the n^2 + n unknowns
    (d_00 .. d_{n-1,n-1} row-major, then alpha_0 .. alpha_{n-1}): the
    equation of each pair i < j and coordinate l, times ``D * dl``, as a
    ``{column: int}`` dict, the rows by descending leading column
    (:func:`linalg.bottom_up`).

    The structure constants are read off the signed pair table over its
    denominator ``D``, and lambda is the scaled vector ``ints/dl``, so
    every coefficient is an int (over GF(p) a residue up to sign).  The
    system has C(n, 2) n rows of n^2 + n columns; past
    ``linalg.SYSTEM_CAP`` cells it is refused before any row is built."""
    field, n = alg.field, alg.dim
    check_system_size("derivation", n * (n - 1) // 2 * n, n * n + n)
    if len(lam) != n:
        raise DimensionMismatch("lambda length does not match the algebra")
    table, den = alg._product.signed_table()
    lam, dl = to_scaled(field, lam)
    unit, nn = den * dl, n * n
    rows = []
    for i, j in combinations(range(n), 2):
        block = [{} for _ in range(n)]
        # D([e_i,e_j]) contributes C_ij^k d_kl, the first entry of each row
        for k, c in table[i][j]:
            c *= dl
            for l, row in enumerate(block):
                row[k * n + l] = c
        # -[D(e_i), e_j] contributes -C_kj^l d_ik, +[D(e_j), e_i] +C_ki^l d_jk
        for k in range(n):
            col = i * n + k
            for l, c in table[k][j]:
                row = block[l]
                row[col] = row.get(col, 0) - c * dl
            col = j * n + k
            for l, c in table[k][i]:
                row = block[l]
                row[col] = row.get(col, 0) + c * dl
        lj, li = lam[j] * den, lam[i] * den
        for l, row in enumerate(block):
            if lj:
                row[i * n + l] = row.get(i * n + l, 0) - lj
            if li:
                row[j * n + l] = row.get(j * n + l, 0) + li
        block[i][nn + j] = -unit
        block[j][nn + i] = unit
        rows.extend(block)
    return bottom_up(rows)


def al_derivation_space(alg: AnticommAlgebra, lam):
    """Canonical basis of the (D, alpha) solution space for a fixed
    lambda (the size limit of :func:`_system_rows` applies)."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    sols = _pairs_echelon(field, _system_rows(alg, lam), n * n + n).kernel(n * n + n)
    out = []
    for v in sols:
        matrix = [v[i * n : (i + 1) * n] for i in range(n)]
        out.append(AlphaLambdaDerivation(matrix, v[n * n :], list(lam)))
    return out


def check_al_derivation(alg: AnticommAlgebra, der: AlphaLambdaDerivation):
    """Exact test of the defining relation on all basis pairs: the rows
    that :func:`al_derivation_space` solves, evaluated on the scaled
    (D, alpha) vector, each row sum zero in the field."""
    field = alg.field
    return _holds_al_derivation(
        alg,
        [[field.coerce(x) for x in row] for row in der.matrix],
        [field.coerce(x) for x in der.alpha],
        [field.coerce(x) for x in der.lam],
    )


def _holds_al_derivation(alg: AnticommAlgebra, matrix, alpha, lam):
    """:func:`check_al_derivation` on canonical scalars, coerced by the
    caller."""
    field, n = alg.field, alg.dim
    if len(matrix) != n or any(len(row) != n for row in matrix) or len(alpha) != n:
        raise DimensionMismatch("derivation data does not match the algebra")
    unknowns, _ = to_scaled(field, [x for row in matrix for x in row] + alpha)
    sums = [sum(c * unknowns[k] for k, c in row.items()) for row in _system_rows(alg, lam)]
    return not any(from_scaled(field, sums, 1))


def alpha0_bracket(alg: AnticommAlgebra, d1: AlphaLambdaDerivation, d2: AlphaLambdaDerivation):
    """Commutator of two derivations with vanishing lambda.

    The result is again such a derivation, with covector
    alpha1 o D2 - alpha2 o D1.
    """
    field, n = alg.field, alg.dim
    for d in (d1, d2):
        if any(d.lam):
            raise PreconditionFailed("both inputs must have lambda = 0")
        if not check_al_derivation(alg, d):
            raise PreconditionFailed("input does not satisfy the derivation relation")
    # [D1,D2](x) = D1(D2(x)) - D2(D1(x)); row convention composes left-to-right
    matrix = mat_sub(
        field, mat_mul(field, d2.matrix, d1.matrix), mat_mul(field, d1.matrix, d2.matrix)
    )
    # (alpha o D)(e_i) = sum_j d_ij alpha_j
    alpha = vec_sub(
        field,
        [vec_dot(field, row, d1.alpha) for row in d2.matrix],
        [vec_dot(field, row, d2.alpha) for row in d1.matrix],
    )
    out = AlphaLambdaDerivation(matrix, alpha, zeros(field, n))
    assert check_al_derivation(alg, out)
    return out


@dataclass
class KerAlphaReport:
    kind: str  # "alpha_zero" | "small_dim" | "ker_alpha_subalgebra"
    ker_alpha: Subspace | None = None
    structure: AlmostAbelianResult | None = None


def ker_alpha_analysis(alg: AnticommAlgebra, der: AlphaLambdaDerivation):
    """For a Lie algebra of dimension > 3 with alpha != 0, certify that
    the kernel of alpha is a codimension-1 subalgebra and report its
    abelian / almost-abelian shape."""
    field, n = alg.field, alg.dim
    if not alg.is_lie():
        raise NotALieAlgebra("the input algebra is not a Lie algebra")
    if not any(der.alpha):
        return KerAlphaReport("alpha_zero")
    if n <= 3:
        return KerAlphaReport("small_dim")
    ker = Subspace(field, n, kernel_basis(field, [der.alpha], n))
    if ker.dim != n - 1 or not alg.is_subalgebra(ker):
        raise PreconditionFailed(
            "kernel of alpha is not a codimension-1 subalgebra; "
            "the input is not a derivation of this Lie algebra"
        )
    structure = alg.restrict(ker).almost_abelian_decomposition()
    return KerAlphaReport("ker_alpha_subalgebra", ker_alpha=ker, structure=structure)
