"""Constructions that grow algebras.

Codimension-1 extensions append a vector v with

    [x, v] = D(x) + lam(x) v,      w(x, v) = alpha(x),

which carries the defining law exactly when lam is multiplicative for
the base and (D, alpha, lam) satisfies the derivation relation.  The
module also provides 1-dimensional modules and semidirect products,
Chevalley-Eilenberg-style cohomology for the 1-dimensional module given
by a multiplicative form, abelian extensions from 2-cocycles, the
first-order deformation solver for Lie algebras, and the two-form
associativity law together with its minus algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .algebra import AnticommAlgebra, OmegaAlgebra
from .derivations import _holds_al_derivation
from .errors import (
    DimensionMismatch,
    NotACocycle,
    NotADerivation,
    NotALieAlgebra,
    NotARepresentation,
    NotMultiplicative,
    NotOmegaAssociative,
    ShapeMismatch,
)
from .linalg import (
    _echelon,
    _pairs_echelon,
    basis_vector,
    bottom_up,
    check_system_size,
    from_scaled,
    mat_mul,
    mat_sub,
    solve_affine,
    to_scaled,
    vec_mat,
    vec_sub,
)


def is_multiplicative_for(alg: AnticommAlgebra, lam):
    """Does w(e_i, e_j) = lam([e_i, e_j]) hold on all basis pairs?

    Both sides are read as ints off the pair tables of the bracket (over
    ``D``) and of the form (over ``wden``), with lam the scaled vector
    ``ints/dl``; raises unless lam has one entry per basis vector."""
    field, n = alg.field, alg.dim
    if len(lam) != n:
        raise DimensionMismatch("lambda length does not match the algebra")
    table, den = alg._product.signed_table()
    lam, dl = to_scaled(field, lam)
    residuals = []
    for i, j in combinations(range(n), 2):
        (w,), wden = alg._form.image(i, j)
        residuals.append(wden * sum(c * lam[k] for k, c in table[i][j]) - den * dl * w)
    return not any(from_scaled(field, residuals, 1))


def extend_codim1(alg: AnticommAlgebra, lam, matrix, alpha):
    """Extension of dimension n+1 by derivation data; the new basis
    vector is appended last.  Raises when lam is not multiplicative or
    (D, alpha) is not a derivation for it.

    On the triples through the new vector the law is exactly these two
    conditions, so the extension of an :class:`OmegaAlgebra` is trusted;
    that of a plain table is certified, since the law may fail on the
    base."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    alpha = [field.coerce(x) for x in alpha]
    matrix = [[field.coerce(x) for x in row] for row in matrix]
    if len(lam) != n or len(alpha) != n or len(matrix) != n:
        raise DimensionMismatch("extension data does not match the base dimension")
    if not is_multiplicative_for(alg, lam):
        raise NotMultiplicative("lambda does not reproduce the form on brackets")
    if not _holds_al_derivation(alg, matrix, alpha, lam):
        raise NotADerivation("(D, alpha) fails the derivation relation for this lambda")
    return _extension(alg, lam, matrix, alpha)


def _extension(alg: AnticommAlgebra, lam, matrix, alpha):
    """The extension by canonical data already known to be multiplicative
    and a derivation: trusted over an :class:`OmegaAlgebra`, certified
    over a plain table (see :func:`extend_codim1`)."""
    field, n = alg.field, alg.dim
    bracket = {pair: dict(row) for pair, row in alg._bracket.items()}
    omega = dict(alg._omega)
    for i in range(n):
        entry = {k: c for k, c in enumerate(matrix[i]) if c}
        if lam[i]:
            entry[n] = lam[i]
        if entry:
            bracket[(i, n)] = entry
        if alpha[i]:
            omega[(i, n)] = alpha[i]
    if isinstance(alg, OmegaAlgebra):
        return OmegaAlgebra._trusted(field, n + 1, bracket, omega)
    return OmegaAlgebra(field, n + 1, bracket, omega)


# -- modules and semidirect products ------------------------------------


def adjoint_maps(alg: AnticommAlgebra):
    """Left-multiplication matrices phi(e_i): m -> [e_i, m] on the algebra
    itself; these satisfy the module law exactly in the Lie case.  Row
    a of phi(e_i) is [e_i, e_a], one ``right_images`` pass per i."""
    field, n = alg.field, alg.dim
    return [alg._product.right_images(basis_vector(field, n, i)) for i in range(n)]


def check_representation(alg: AnticommAlgebra, maps):
    """Test phi([x,y]) = phi(x)phi(y) - phi(y)phi(x) + w(x,y) on basis pairs.

    ``maps`` is one m x m matrix per basis vector, acting on row vectors.
    The left side sums the maps over the pair-table entry of [e_i, e_j],
    so it is ``D`` times phi([e_i, e_j]), and is compared with ``D``
    times the right side.
    """
    field, n = alg.field, alg.dim
    if len(maps) != n:
        raise ShapeMismatch("need one matrix per basis vector")
    m = len(maps[0]) if maps else 0
    for phi in maps:
        if len(phi) != m or any(len(row) != m for row in phi):
            raise ShapeMismatch("module matrices must be square and equally sized")
    table, den = alg._product.signed_table()
    for i, j in combinations(range(n), 2):
        # operator composition phi(x) o phi(y) has row-matrix phi_y @ phi_x
        comm = mat_sub(field, mat_mul(field, maps[j], maps[i]), mat_mul(field, maps[i], maps[j]))
        w = alg.omega_entry(i, j)
        for a in range(m):
            comm[a][a] += w
        diff = [
            sum(c * maps[k][a][b] for k, c in table[i][j]) - den * comm[a][b]
            for a in range(m)
            for b in range(m)
        ]
        if any(to_scaled(field, diff)[0]):
            return False
    return True


def semidirect(alg: OmegaAlgebra, maps):
    """Semidirect product with a module: [x, m] = phi(x) m, [M, M] = 0,
    and the form extended by zero on the module.

    On a certified base the result is trusted.  The residual of the law
    is trilinear and alternating, so basis triples decide it.  On three
    vectors of L it is the residual in L, zero.  On x, y in L and m in
    M it is phi([x,y])m - phi(x)phi(y)m + phi(y)phi(x)m - w(x,y)m, zero
    by the module law that ``check_representation`` tests on every
    basis pair.  A triple with two or three vectors of M has every term
    zero: each double bracket passes through [M, M] = 0, and the form is
    zero on every pair meeting M.  A plain base is certified with the
    result.
    """
    field, n = alg.field, alg.dim
    if not check_representation(alg, maps):
        raise NotARepresentation("the matrices do not define a module")
    m = len(maps[0]) if maps and maps[0] else 0
    bracket = {pair: dict(row) for pair, row in alg._bracket.items()}
    omega = dict(alg._omega)
    for i in range(n):
        for a in range(m):
            # [e_i, m_a] = phi(e_i) m_a = row a of phi(e_i)
            entry = {}
            for b in range(m):
                c = field.coerce(maps[i][a][b])
                if c:
                    entry[n + b] = c
            if entry:
                bracket[(i, n + a)] = entry
    if isinstance(alg, OmegaAlgebra):
        return OmegaAlgebra._trusted(field, n + m, bracket, omega)
    return OmegaAlgebra(field, n + m, bracket, omega)


def one_dim_module(alg: AnticommAlgebra, lam):
    """Matrices of the 1-dimensional module given by a linear form."""
    return [[[alg.field.coerce(x)]] for x in lam]


# -- cohomology of the 1-dimensional module -----------------------------


@dataclass
class Cochain:
    """Alternating k-linear scalar map stored on increasing index tuples."""

    field: object
    dim: int
    degree: int
    data: dict

    @classmethod
    def zero(cls, field, dim, degree):
        return cls(field, dim, degree, {})

    @classmethod
    def from_values(cls, field, dim, degree, values):
        data = {}
        for key, val in values.items():
            key = tuple(key)
            if list(key) != sorted(set(key)):
                raise DimensionMismatch("cochain keys must be strictly increasing")
            val = field.coerce(val)
            if val:
                data[key] = val
        return cls(field, dim, degree, data)


def cochain_differential(alg: AnticommAlgebra, lam, cochain):
    """Differential of a cochain for the 1-dimensional module action
    x . m = lam(x) m, by the classical alternating-sum formula.

    Degree-0 cochains are passed as plain scalars.  Raises when lam is
    not multiplicative for the algebra.

    On a non-Lie base only the composite from 1-cochains to 3-cochains
    squares to zero (exactly what second cohomology needs): already on
    scalars, d(d(c))(x, y) = -w(x, y) c, and degree-2 counterexamples
    exist in dimension 4.  Over a Lie base every square vanishes.
    """
    field, n = alg.field, alg.dim
    if isinstance(cochain, Cochain):
        k = cochain.degree
        if k > 3:
            raise DimensionMismatch("differentials are provided for inputs of degree <= 3")
        zero = field.zero()
        coeffs = [cochain.data.get(key, zero) for key in _cochain_keys(n, k)]
    else:
        k, coeffs = 0, [field.coerce(cochain)]
    rows, scale = _differential_matrix(alg, lam, k)
    ints, den = to_scaled(field, coeffs)
    keys = _cochain_keys(n, k + 1)
    image = [0] * len(keys)
    for c, row in zip(ints, rows):
        if c:
            for t, x in row.items():
                image[t] += c * x
    values = from_scaled(field, image, den * scale)
    return Cochain(field, n, k + 1, {key: v for key, v in zip(keys, values) if v})


def _cochain_keys(n, k):
    return list(combinations(range(n), k))


def _differential_matrix(alg, lam, k):
    """Int matrix of the degree-k differential C^k -> C^(k+1), row
    convention, and the factor it is scaled by: the matrix is ``rows /
    (D * dl)``, with ``D`` the denominator of the signed pair table and
    lam the scaled vector ``ints/dl``.  Row ``s``, of the ``s``-th
    k-cochain key, is a ``{column: int}`` dict; :func:`h2_dimension`
    eliminates the rows by descending leading column
    (:func:`linalg.bottom_up`), :func:`cochain_differential` reads them
    by key.

    Column ``idx`` collects, for each position a, (-1)^a lam(e_idx[a])
    at the key without position a, and for each pair a < b of positions
    each coefficient C^m of [e_idx[a], e_idx[b]] with m outside the rest
    of ``idx``, at the key sorted({m} + rest), with sign (-1)^(a+b)
    times the sign of the sort.  Raises when lam is not multiplicative.
    The matrix has C(n, k) x C(n, k + 1) cells; past
    ``linalg.SYSTEM_CAP`` it is refused before any row is built.
    """
    field, n = alg.field, alg.dim
    check_system_size(f"degree-{k} differential", comb(n, k), comb(n, k + 1))
    lam = [field.coerce(x) for x in lam]
    if not is_multiplicative_for(alg, lam):
        raise NotMultiplicative("lambda does not reproduce the form on brackets")
    table, den = alg._product.signed_table()
    lam, dl = to_scaled(field, lam)
    src = {key: t for t, key in enumerate(_cochain_keys(n, k))}
    dst = _cochain_keys(n, k + 1)
    rows = [{} for _ in src]
    for col, idx in enumerate(dst):
        for a in range(k + 1):
            term = lam[idx[a]] * den
            if term:
                row = rows[src[idx[:a] + idx[a + 1 :]]]
                row[col] = row.get(col, 0) + (-term if a % 2 else term)
        for a, b in combinations(range(k + 1), 2):
            rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
            for m, c in table[idx[a]][idx[b]]:
                if m in rest:
                    continue
                below = sum(r < m for r in rest)
                c *= dl
                if (a + b + below) % 2:
                    c = -c
                row = rows[src[rest[:below] + (m,) + rest[below:]]]
                row[col] = row.get(col, 0) + c
    return rows, den * dl


def h2_dimension(alg: AnticommAlgebra, lam):
    """dim ker(d on 2-cochains) - dim im(d on 1-cochains)."""
    field, n = alg.field, alg.dim
    d1, _ = _differential_matrix(alg, lam, 1)
    d2, _ = _differential_matrix(alg, lam, 2)
    n2 = comb(n, 2)
    rank1 = _pairs_echelon(field, bottom_up(d1), n2).rank
    rank2 = _pairs_echelon(field, bottom_up(d2), comb(n, 3)).rank
    return (n2 - rank2) - rank1


def extension_from_cocycle(alg: OmegaAlgebra, lam, cocycle: Cochain):
    """Abelian extension by a 2-cocycle: [x,y]' = [x,y] + c(x,y) m and
    [x, m] = lam(x) m, the form extended by zero on the new line."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    if not is_multiplicative_for(alg, lam):
        raise NotMultiplicative("lambda does not reproduce the form on brackets")
    if cocycle.degree != 2 or cocycle.dim != n:
        raise DimensionMismatch("need a 2-cochain on the base algebra")
    if cochain_differential(alg, lam, cocycle).data:
        raise NotACocycle("the differential of the cochain is nonzero")
    bracket = {pair: dict(row) for pair, row in alg._bracket.items()}
    for (i, j), c in cocycle.data.items():
        bracket.setdefault((i, j), {})[n] = c
    for i in range(n):
        if lam[i]:
            bracket[(i, n)] = {n: lam[i]}
    omega = dict(alg._omega)
    return OmegaAlgebra(field, n + 1, bracket, omega)


# -- first-order deformations -------------------------------------------


@dataclass
class DeformationSolution:
    """First-order direction: anticommutative bilinear phi1 (structure-
    constant shaped dict) and skew form omega1 (dict on pairs)."""

    phi1: dict
    omega1: dict


@dataclass
class DeformationSpace:
    basis: list
    omega1_projection_dim: int

    @property
    def has_nontrivial_omega1(self):
        return self.omega1_projection_dim > 0


def infinitesimal_deformations(alg: AnticommAlgebra):
    """Solve the first-order deformation equation of a Lie algebra:

        phi1([x,y],z) + phi1([z,x],y) + phi1([y,z],x)
        + [phi1(x,y),z] + [phi1(z,x),y] + [phi1(y,z),x]
        = w1(x,y)z + w1(z,x)y + w1(y,z)x

    in the unknowns phi1 (anticommutative bilinear into the algebra) and
    w1 (skew scalar form).  Returns the canonical solution basis and the
    dimension of its projection onto the w1 coordinates.  The system has
    C(n, 3) n rows of C(n, 2) (n + 1) columns; past ``linalg.SYSTEM_CAP``
    cells it is refused before any row is built.
    """
    field, n = alg.field, alg.dim
    if not alg.is_lie():
        raise NotALieAlgebra("deformation directions are solved over Lie algebras")
    pairs = list(combinations(range(n), 2))
    pos = {pair: t for t, pair in enumerate(pairs)}
    nphi = len(pairs) * n
    nun = nphi + len(pairs)
    check_system_size("deformation", comb(n, 3) * n, nun)
    sols = _pairs_echelon(field, _deformation_rows(alg, pos), nun).kernel(nun)
    basis = []
    omega_block = []
    for v in sols:
        phi1 = {}
        for (i, j), t in pos.items():
            entry = {k: v[t * n + k] for k in range(n) if v[t * n + k]}
            if entry:
                phi1[(i, j)] = entry
        omega1 = {pair: v[nphi + t] for pair, t in pos.items() if v[nphi + t]}
        basis.append(DeformationSolution(phi1, omega1))
        omega_block.append(v[nphi:])
    return DeformationSpace(basis, _echelon(field, omega_block, len(pairs)).rank)


def _deformation_rows(alg: AnticommAlgebra, pos):
    """Int rows of the first-order deformation system, times ``D``: the
    equation of each basis triple x < y < z and coordinate l, as a
    ``{column: int}`` dict, the rows by descending leading column
    (:func:`linalg.bottom_up`).  Unknown ``pos[i, j] * n + k`` is
    phi1(e_i, e_j)_k and ``n * len(pos) + pos[i, j]`` is w1(e_i, e_j),
    for i < j; the structure constants are read off the signed pair
    table over its denominator ``D``."""
    n = alg.dim
    table, den = alg._product.signed_table()
    nphi = len(pos) * n

    def slot(i, j):
        # the pair unknown of (i, j) and the sign antisymmetry gives it
        return (pos[i, j], 1) if i < j else (pos[j, i], -1)

    rows = []
    for x, y, z in combinations(range(n), 3):
        block = [{} for _ in range(n)]
        for a, b, c in ((x, y, z), (z, x, y), (y, z, x)):
            # phi1([e_a, e_b], e_c)_l = sum_k C_ab^k phi1(e_k, e_c)_l
            for k, cv in table[a][b]:
                if k != c:
                    t, sign = slot(k, c)
                    cv *= sign
                    for l, row in enumerate(block):
                        col = t * n + l
                        row[col] = row.get(col, 0) + cv
            # [phi1(e_a, e_b), e_c]_l = sum_k phi1(e_a, e_b)_k C_kc^l
            t, sign = slot(a, b)
            for k in range(n):
                col = t * n + k
                for l, cv in table[k][c]:
                    row = block[l]
                    row[col] = row.get(col, 0) + sign * cv
            # - w1(e_a, e_b) delta_{c l}
            row, col = block[c], nphi + t
            row[col] = row.get(col, 0) - sign * den
        rows.extend(block)
    return bottom_up(rows)


# -- the two-form associativity law --------------------------------------


def omega_assoc_space(field, dim, product):
    """Affine set of bilinear form pairs (w1, w2) with

        (xy)z - x(yz) = w1(x,y) z - w2(y,z) x

    on all basis triples, or None when no pair exists.  ``product`` is a
    dense table: product[i][j] is the vector e_i e_j.  Unknown order:
    w1 row-major then w2 row-major.
    """
    n = dim
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = vec_mat(
                    field,
                    product[i][j],
                    [product[t][k] for t in range(n)],
                )
                right = vec_mat(
                    field,
                    product[j][k],
                    [product[i][t] for t in range(n)],
                )
                assoc = vec_sub(field, left, right)
                for l in range(n):
                    row = [0] * (2 * n * n)
                    if k == l:
                        row[i * n + j] = 1
                    if i == l:
                        row[n * n + j * n + k] -= 1
                    rows.append(row)
                    rhs.append(assoc[l])
    return solve_affine(field, rows, rhs)


def minus_algebra(field, dim, product, w1_flat, w2_flat):
    """Minus algebra [x,y] = xy - yx of a product satisfying the two-form
    associativity law, with the induced skew form

        w(x,y) = (w1 - w2)(x,y) - (w1 - w2)(y,x).
    """
    n = dim
    if len(w1_flat) != n * n or len(w2_flat) != n * n:
        raise DimensionMismatch("each form needs dim^2 entries, row-major")
    sol = omega_assoc_space(field, dim, product)
    if sol is None or not sol.contains(list(w1_flat) + list(w2_flat)):
        raise NotOmegaAssociative(
            "(w1, w2) does not satisfy the associativity law for this product"
        )
    bracket = {}
    omega = {}
    for i, j in combinations(range(n), 2):
        comm = vec_sub(field, product[i][j], product[j][i])
        entry = {k: c for k, c in enumerate(comm) if c}
        if entry:
            bracket[(i, j)] = entry
        omega[(i, j)] = (
            w1_flat[i * n + j] - w2_flat[i * n + j] - w1_flat[j * n + i] + w2_flat[j * n + i]
        )
    return OmegaAlgebra(field, n, bracket, omega)
