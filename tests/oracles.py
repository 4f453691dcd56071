"""Independent brute-force oracles for the test suite.

Everything here is deliberately written without olie.linalg: integer
fraction-free elimination over the rationals and plain modular
elimination over prime fields, plus direct residual-based assembly of
the linear systems the library builds by index formulas.  Oracle ranks
and dimensions are frozen against these routines.  The exceptions are
the dense four-variable law check and the pair of eager ideal searches
at the end: the reference of the first is the law written out on
dense vectors, that of the others is the order of the search, not its
building blocks.  The Fitting and abelian-witness references near the
end, the derivation-check and eigenspace references after them, and
the references of the systems and operators that now read the signed
pair table (multiplicative forms, the almost-abelian system, the
multiplicativity and module checks, the adjoint map) near the end are the
library's earlier bodies, built on its own subspaces, kernels and dense
matrix helpers: what they pin is the result of the earlier method.  The
dense helpers at the very end are the earlier bodies of those helpers,
one field-method call per scalar.  The identity compiler and program
runner after them are the library's earlier pair, which shared
subterms only up to syntax: what they pin is the value of a term.  The
radical-core reference after the eager searches is the plain fixed
point, built from the reference bracket and elimination.  The
scan reference after them is the CLI's earlier per-chain scan, which ran
both ideal searches on a fresh, certified copy of each chain.  At the
very end are the identity compiler that collected like terms but did
not group products by bilinearity, which pins both the value of a
program and its count of product nodes, the character-at-a-time
tokenizer, which pins the tokens of any text, the earlier scalar
parser, which read the text twice, and the library's earlier dense int
builders of the derivation, deformation and differential
systems, which pin each sparse row entry by entry.  Last come the
library's earlier classifier and abelian part of a subalgebra, which
searched every candidate hyperplane and checked each one: what they
pin is the whole verdict.  At the very end are the multilinear terms of
``engel``, ``abg``, ``bin`` and ``bin-consequence`` as the library wrote
them out by hand beside their direct forms, before it derived them: what
they pin is the value of each of these built-ins.
"""

import weakref
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from math import lcm

from olie.errors import IdentityTypeError
from olie.identities import (
    BRACKET,
    INT,
    OMEGA,
    SCALE,
    SUM,
    VAR,
    Program,
    b,
    minus,
    plus,
    s,
    term_type,
    var,
    w,
)


def _to_int_rows(rows):
    out = []
    for row in rows:
        denom = 1
        for x in row:
            f = Fraction(x)
            denom = denom * f.denominator // _gcd(denom, f.denominator)
        out.append([int(Fraction(x) * denom) for x in row])
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def rank_q(rows):
    """Rank over the rationals by fraction-free (Bareiss-style) elimination."""
    m = [r[:] for r in _to_int_rows(rows) if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            for j in range(col + 1, ncols):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == len(m):
            break
    return rank


def rank_gf(rows, p):
    m = [[x % p for x in r] for r in rows]
    m = [r for r in m if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [(a - c * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def rref_reference(field, rows):
    """Field-generic Gauss-Jordan, one field-method call per scalar: the
    reference the fast ``olie.linalg.rref`` kernels are checked against.
    Returns (rref_rows, rank, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], 0, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not field.is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                mi, mr = m[i], m[r]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(mi, mr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, r, pivots


def rref_gf_dense(p, rows):
    """Gauss-Jordan over GF(p) on int rows, modular arithmetic inline: the
    dense kernel ``olie.linalg.rref`` used over GF(p) before the sparse
    ``Echelon``, kept as the reference that holds the sparse kernel
    byte-equal to it.  Returns (rref_rows, rank, pivot_columns)."""
    m = [[x % p for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        prow = m[i]
        m[i] = m[r]
        if prow[c] != 1:
            inv = pow(prow[c], p - 2, p)
            prow = [x * inv % p for x in prow]
        m[r] = prow
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, r, pivots


def reduce_reference(field, rows, v):
    """``v`` reduced by the rows of an RREF basis, one field-method call
    per scalar."""
    v = list(v)
    for row in rows:
        piv = next(i for i, x in enumerate(row) if not field.is_zero(x))
        c = v[piv]
        if not field.is_zero(c):
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
    return v


# the signed basis-bracket table of each live algebra, by id; an entry
# leaves with its algebra (algebras compare by value, so they are not
# hashable keys)
_TABLES = {}


def _signed_table(alg):
    """The dense n x n x n table of basis brackets, both signs, built
    once per algebra."""
    table = _TABLES.get(id(alg))
    if table is None:
        field, n = alg.field, alg.dim
        table = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for (i, j), image in alg._bracket.items():
            for k, c in image.items():
                table[i][j][k] = c
                table[j][i][k] = field.neg(c)
        _TABLES[id(alg)] = table
        weakref.finalize(alg, _TABLES.pop, id(alg), None)
    return table


def bracket_reference(alg, x, y):
    """The dense triple loop over a signed table of basis brackets, one
    field-method call per scalar: the reference the sparse bracket
    kernels are checked against."""
    field, n = alg.field, alg.dim
    table = _signed_table(alg)
    out = [field.zero()] * n
    for i in range(n):
        if field.is_zero(x[i]):
            continue
        for j in range(n):
            if field.is_zero(y[j]) or i == j:
                continue
            c = field.mul(x[i], y[j])
            for k in range(n):
                if not field.is_zero(table[i][j][k]):
                    out[k] = field.add(out[k], field.mul(c, table[i][j][k]))
    return out


def ideal_closure_reference(alg, generators):
    """RREF rows of the ideal closure of the generators: bracket every row
    of the span with every basis vector and re-eliminate, round after
    round until the rank stops growing, with the reference bracket and
    elimination."""
    field, n = alg.field, alg.dim
    e = [[field.one() if t == i else field.zero() for t in range(n)] for i in range(n)]

    def span(vectors):
        red, rank, _ = rref_reference(field, vectors)
        return red[:rank]

    rows = span(list(generators))
    while True:
        images = [bracket_reference(alg, r, ei) for r in rows for ei in e]
        bigger = span(rows + images)
        if len(bigger) == len(rows):
            return bigger
        rows = bigger


def is_ideal_reference(alg, rows):
    """Whether the span of ``rows`` holds the reference bracket of each
    row with each basis vector, decided by oracle ranks."""
    field = alg.field
    rows = [list(r) for r in rows]
    images = [bracket_reference(alg, r, ei) for r in rows for ei in _basis(field, alg.dim)]
    return matrix_rank(field, rows + images) == matrix_rank(field, rows)


def omega_reference(alg, x, y):
    """The form on two vectors, summed over the stored pairs i < j."""
    field = alg.field
    s = field.zero()
    for (i, j), c in alg._omega.items():
        cross = field.sub(field.mul(x[i], y[j]), field.mul(x[j], y[i]))
        s = field.add(s, field.mul(c, cross))
    return s


def _basis(field, n):
    return [[field.one() if t == i else field.zero() for t in range(n)] for i in range(n)]


def jacobian_reference(alg, x, y, z):
    """[[x,y],z] + [[z,x],y] + [[y,z],x] from six reference brackets."""
    parts = [
        bracket_reference(alg, bracket_reference(alg, u, v), t)
        for u, v, t in ((x, y, z), (z, x, y), (y, z, x))
    ]
    return [sum_scalars(alg.field, col) for col in zip(*parts)]


def jacobi_residual_reference(alg, x, y, z):
    """The defining residual J(x,y,z) - w(x,y)z - w(z,x)y - w(y,z)x from
    six reference brackets and three reference forms, as
    ``AnticommAlgebra.jacobi_residual`` computed it before it ran the
    ``jacobi-residual`` identity program."""
    field = alg.field
    jac = jacobian_reference(alg, x, y, z)
    wxy, wzx, wyz = (omega_reference(alg, u, v) for u, v in ((x, y), (z, x), (y, z)))
    return [
        field.sub(jl, sum_scalars(field, [field.mul(wxy, zl), field.mul(wzx, yl), field.mul(wyz, xl)]))
        for jl, xl, yl, zl in zip(jac, x, y, z)
    ]


def d_omega_reference(alg, x, y, z):
    """w([x,y],z) + w([z,x],y) + w([y,z],x) from reference brackets and
    forms, as ``AnticommAlgebra.d_omega`` computed it before it ran the
    ``four-consequence`` identity program."""
    terms = ((x, y, z), (z, x, y), (y, z, x))
    return sum_scalars(
        alg.field, [omega_reference(alg, bracket_reference(alg, u, v), t) for u, v, t in terms]
    )


def first_violation_reference(alg):
    """``(triple, residual)`` for the first increasing basis triple on which
    the law fails, or None: the six-bracket law loop on the reference
    bracket and form."""
    field, n = alg.field, alg.dim
    e = _basis(field, n)
    for i, j, k in combinations(range(n), 3):
        res = jacobi_residual_reference(alg, e[i], e[j], e[k])
        if not all(field.is_zero(v) for v in res):
            return (i, j, k), res
    return None


def is_lie_reference(alg):
    field, n = alg.field, alg.dim
    e = _basis(field, n)
    return all(
        field.is_zero(v)
        for i, j, k in combinations(range(n), 3)
        for v in jacobian_reference(alg, e[i], e[j], e[k])
    )


def omega_space_reference(alg):
    """``(particular, kernel rows)`` of the forms, in row-major coordinates
    w[i][j], satisfying the law on all n^3 index triples (repetitions
    included): n^4 equations in n^2 unknowns solved by
    ``rref_reference``.  The particular point is zero at the free
    columns and the kernel rows are the canonical RREF basis; None when
    the system is inconsistent."""
    field, n = alg.field, alg.dim
    ncols = n * n
    e = _basis(field, n)
    aug = []
    for i, j, k in product(range(n), repeat=3):
        jac = jacobian_reference(alg, e[i], e[j], e[k])
        for l in range(n):
            # w(ei,ej) ek[l] + w(ek,ei) ej[l] + w(ej,ek) ei[l]
            row = [field.zero()] * ncols + [jac[l]]
            for col, hit in ((i * n + j, k == l), (k * n + i, j == l), (j * n + k, i == l)):
                if hit:
                    row[col] = field.add(row[col], field.one())
            aug.append(row)
    red, _, pivots = rref_reference(field, aug)
    if ncols in pivots:
        return None
    particular = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        particular[c] = red[r][ncols]
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, c in enumerate(pivots):
            v[c] = field.neg(red[r][free])
        kernel.append(v)
    red, rank, _ = rref_reference(field, kernel)
    return particular, red[:rank]


def _cochain_value(field, data, idx):
    """A cochain stored on increasing keys, on basis indices in any order."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return field.zero()
    sign = field.one()
    # insertion sort tracking the permutation sign
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = field.neg(sign)
            b -= 1
    return field.mul(sign, data.get(tuple(idx), field.zero()))


def _cochain_eval(field, n, data, vectors):
    """Multilinear alternating evaluation, recursing over the nonzero
    coordinates of each argument."""
    total = field.zero()

    def rec(pos, idxs, coeff):
        nonlocal total
        if pos == len(vectors):
            total = field.add(total, field.mul(coeff, _cochain_value(field, data, idxs)))
            return
        for i in range(n):
            c = vectors[pos][i]
            if not field.is_zero(c):
                rec(pos + 1, idxs + [i], field.mul(coeff, c))

    rec(0, [], field.one())
    return total


def cochain_differential_reference(alg, lam, data, k):
    """The differential of the degree-k cochain with values ``data`` on
    increasing keys (``{(): c}`` in degree 0), as a dict on the nonzero
    (k+1)-keys: the alternating-sum formula evaluated key by key, the
    bracket terms through the multilinear evaluation."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    e = _basis(field, n)
    out = {}
    for idx in combinations(range(n), k + 1):
        total = field.zero()
        for a in range(k + 1):
            term = field.mul(lam[idx[a]], _cochain_value(field, data, idx[:a] + idx[a + 1 :]))
            total = field.add(total, term if a % 2 == 0 else field.neg(term))
        for a, b in combinations(range(k + 1), 2):
            rest = [e[t] for p, t in enumerate(idx) if p not in (a, b)]
            val = _cochain_eval(field, n, data, [bracket_reference(alg, e[idx[a]], e[idx[b]])] + rest)
            total = field.add(total, field.neg(val) if (a + b) % 2 else val)
        if not field.is_zero(total):
            out[idx] = total
    return out


def differential_matrix_reference(alg, lam, k):
    """Rows of the degree-k differential, one per basis k-cochain."""
    field, n = alg.field, alg.dim
    dst = list(combinations(range(n), k + 1))
    rows = []
    for key in combinations(range(n), k):
        dc = cochain_differential_reference(alg, lam, {key: field.one()}, k)
        rows.append([dc.get(t, field.zero()) for t in dst])
    return rows


def eval_reference(alg, term, env):
    """Tree-walking evaluation of an identity term, with ``env`` mapping
    variable numbers to vectors and every bracket and form value taken
    from the references above."""
    field = alg.field
    tag = term[0]
    if tag == "var":
        return env[term[1]]
    if tag == "int":
        return field.coerce(term[1])
    if tag == "b":
        return bracket_reference(
            alg, eval_reference(alg, term[1], env), eval_reference(alg, term[2], env)
        )
    if tag == "w":
        return omega_reference(
            alg, eval_reference(alg, term[1], env), eval_reference(alg, term[2], env)
        )
    if tag == "s":
        c = eval_reference(alg, term[1], env)
        return [field.mul(c, x) for x in eval_reference(alg, term[2], env)]
    if tag == "+":
        parts = [eval_reference(alg, t, env) for t in term[1]]
        if isinstance(parts[0], list):
            out = [field.zero()] * alg.dim
            for part in parts:
                out = [field.add(a, x) for a, x in zip(out, part)]
            return out
        return sum_scalars(field, parts)
    raise ValueError(f"unknown node {tag!r}")


def matrix_rank(field, rows):
    if getattr(field, "char", 0):
        return rank_gf(rows, field.char)
    return rank_q(rows)


def nullity(field, rows, ncols):
    return ncols - matrix_rank(field, rows)


def derivation_space_dim(alg, lam):
    """Dimension of the (D, alpha) solution space, assembled by probing:
    column t of the system is the stacked residual of the defining
    relation when unknown t is set to one and the rest to zero."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    nun = n * n + n

    def residuals(matrix, alpha):
        out = []
        for i, j in combinations(range(n), 2):
            e_i = [field.one() if t == i else field.zero() for t in range(n)]
            e_j = [field.one() if t == j else field.zero() for t in range(n)]
            dij = [
                sum_scalars(field, [field.mul(c, matrix[k][l]) for k, c in enumerate(alg.basis_bracket(i, j))])
                for l in range(n)
            ]
            lhs = dij
            t1 = alg.bracket(matrix[i], e_j)
            t2 = alg.bracket(matrix[j], e_i)
            lhs = [field.add(field.sub(a, b), c) for a, b, c in zip(lhs, t1, t2)]
            rhs = [
                field.sub(field.mul(lam[j], a), field.mul(lam[i], b))
                for a, b in zip(matrix[i], matrix[j])
            ]
            rhs[i] = field.add(rhs[i], alpha[j])
            rhs[j] = field.sub(rhs[j], alpha[i])
            out.extend(field.sub(a, b) for a, b in zip(lhs, rhs))
        return out

    columns = []
    for t in range(nun):
        matrix = [[field.zero()] * n for _ in range(n)]
        alpha = [field.zero()] * n
        if t < n * n:
            matrix[t // n][t % n] = field.one()
        else:
            alpha[t - n * n] = field.one()
        columns.append(residuals(matrix, alpha))
    rows = [[col[r] for col in columns] for r in range(len(columns[0]))]
    return nun - matrix_rank(field, rows)


def system_rows_reference(alg, lam):
    """The (alpha, lambda)-derivation system as dense field rows, one
    field-method call per coefficient: the index-formula assembly the
    library's int rows are checked against.  Unknowns d_00 ..
    d_{n-1,n-1} row-major, then alpha_0 .. alpha_{n-1}."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    nun = n * n + n
    rows = []
    c3 = [[alg.basis_bracket(i, j) for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        cij = c3[i][j]
        for l in range(n):
            row = [field.zero()] * nun
            for k in range(n):
                # D([e_i,e_j]) contributes C_ij^k d_kl
                if not field.is_zero(cij[k]):
                    row[k * n + l] = field.add(row[k * n + l], cij[k])
                # -[D(e_i), e_j] contributes -C_kj^l d_ik
                ckj = c3[k][j][l]
                if not field.is_zero(ckj):
                    row[i * n + k] = field.sub(row[i * n + k], ckj)
                # +[D(e_j), e_i] contributes +C_ki^l d_jk
                cki = c3[k][i][l]
                if not field.is_zero(cki):
                    row[j * n + k] = field.add(row[j * n + k], cki)
            row[i * n + l] = field.sub(row[i * n + l], lam[j])
            row[j * n + l] = field.add(row[j * n + l], lam[i])
            if i == l:
                row[n * n + j] = field.sub(row[n * n + j], field.one())
            if j == l:
                row[n * n + i] = field.add(row[n * n + i], field.one())
            rows.append(row)
    return rows


def deformation_rows_reference(alg):
    """The first-order deformation system as dense field rows, with
    closures over the field's scalars: the index-formula assembly the
    library's int rows are checked against.  Unknowns phi1(e_i, e_j)_k
    at ``t * n + k`` for the t-th pair i < j, then w1 on the pairs."""
    field, n = alg.field, alg.dim
    pairs = list(combinations(range(n), 2))
    pos = {pair: t for t, pair in enumerate(pairs)}
    nphi = len(pairs) * n
    nun = nphi + len(pairs)

    def phi_coeff(row, i, j, k, c):
        # coefficient of phi1(e_i, e_j)_k, with antisymmetry folded in
        if i == j or field.is_zero(c):
            return
        if i < j:
            row[pos[(i, j)] * n + k] = field.add(row[pos[(i, j)] * n + k], c)
        else:
            row[pos[(j, i)] * n + k] = field.sub(row[pos[(j, i)] * n + k], c)

    def omega_coeff(row, i, j, c):
        if i == j or field.is_zero(c):
            return
        if i < j:
            row[nphi + pos[(i, j)]] = field.add(row[nphi + pos[(i, j)]], c)
        else:
            row[nphi + pos[(j, i)]] = field.sub(row[nphi + pos[(j, i)]], c)

    table = [[alg.basis_bracket(k, c) for c in range(n)] for k in range(n)]
    rows = []
    for x, y, z in combinations(range(n), 3):
        for l in range(n):
            row = [field.zero()] * nun
            for (a, b, c) in ((x, y, z), (z, x, y), (y, z, x)):
                # phi1([e_a, e_b], e_c)_l
                br = table[a][b]
                for k in range(n):
                    phi_coeff(row, k, c, l, br[k])
                # [phi1(e_a, e_b), e_c]_l = sum_k phi1(a,b)_k [e_k, e_c]_l
                for k in range(n):
                    phi_coeff(row, a, b, k, table[k][c][l])
                # - w1(e_a, e_b) delta_{c l}
                if c == l:
                    omega_coeff(row, a, b, field.neg(field.one()))
            rows.append(row)
    return rows


def multiplication_algebra_dim(alg):
    """Dimension of the associative algebra spanned by all nonempty words
    in the right multiplications R_j : x -> [x, e_j], read straight off
    the structure constants (row i of R_j is [e_i, e_j]).  Words grow one
    generator at a time on the right; a product is kept only if it raises
    the rank of the words kept so far."""
    field, n = alg.field, alg.dim

    def mul(a, b):
        return [
            [sum_scalars(field, [field.mul(a[i][k], b[k][j]) for k in range(n)]) for j in range(n)]
            for i in range(n)
        ]

    gens = [[alg.basis_bracket(i, j) for i in range(n)] for j in range(n)]
    kept = []

    def keep(mat):
        flat = [x for row in mat for x in row]
        if matrix_rank(field, kept + [flat]) > len(kept):
            kept.append(flat)
            return True
        return False

    frontier = [g for g in gens if keep(g)]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                word = mul(m, g)
                if keep(word):
                    fresh.append(word)
        frontier = fresh
    return len(kept)


def sum_scalars(field, values):
    total = field.zero()
    for v in values:
        total = field.add(total, v)
    return total


def h2_oracle(alg, lam):
    """Second cohomology dimension assembled directly from the formulas
    d f(x,y) = lam(x) f(y) - lam(y) f(x) - f([x,y])  and
    d c(x,y,z) = lam(x) c(y,z) - lam(y) c(x,z) + lam(z) c(x,y)
                 - c([x,y],z) + c([x,z],y) - c([y,z],x),
    evaluated entry by entry on basis tuples."""
    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))

    def pair_value(table, u, v):
        # table maps increasing pairs; extend skew to arbitrary order
        if u == v:
            return field.zero()
        if u < v:
            return table.get((u, v), field.zero())
        return field.neg(table.get((v, u), field.zero()))

    def pair_eval(table, vec, k):
        total = field.zero()
        for t in range(n):
            c = vec[t]
            if not field.is_zero(c):
                total = field.add(total, field.mul(c, pair_value(table, t, k)))
        return total

    d1 = []
    for t in range(n):
        f = [field.one() if k == t else field.zero() for k in range(n)]
        row = []
        for i, j in pairs:
            val = field.sub(field.mul(lam[i], f[j]), field.mul(lam[j], f[i]))
            br = alg.basis_bracket(i, j)
            val = field.sub(val, sum_scalars(field, [field.mul(c, f[k]) for k, c in enumerate(br)]))
            row.append(val)
        d1.append(row)
    d2 = []
    for key in pairs:
        table = {key: field.one()}
        row = []
        for i, j, k in triples:
            val = field.mul(lam[i], pair_value(table, j, k))
            val = field.sub(val, field.mul(lam[j], pair_value(table, i, k)))
            val = field.add(val, field.mul(lam[k], pair_value(table, i, j)))
            val = field.sub(val, pair_eval(table, alg.basis_bracket(i, j), k))
            val = field.add(val, pair_eval(table, alg.basis_bracket(i, k), j))
            val = field.sub(val, pair_eval(table, alg.basis_bracket(j, k), i))
            row.append(val)
        d2.append(row)
    rank1 = matrix_rank(field, d1)
    rank2 = matrix_rank(field, d2)
    return (len(pairs) - rank2) - rank1


def deformation_dims_oracle(alg):
    """(solution dimension, form-projection dimension) for the first-order
    deformation system, assembled by probing unit unknowns through the
    algebra's own bracket."""
    field, n = alg.field, alg.dim
    pairs = list(combinations(range(n), 2))
    nphi = len(pairs) * n
    nun = nphi + len(pairs)
    e = [[field.one() if t == i else field.zero() for t in range(n)] for i in range(n)]

    def residual(phi_table, w_table):
        def phi(u, v):
            out = [field.zero()] * n
            for a in range(n):
                ca = u[a]
                if field.is_zero(ca):
                    continue
                for bidx in range(n):
                    cb = v[bidx]
                    if field.is_zero(cb) or a == bidx:
                        continue
                    if a < bidx:
                        entry, sign = phi_table.get((a, bidx)), field.mul(ca, cb)
                    else:
                        entry, sign = phi_table.get((bidx, a)), field.neg(field.mul(ca, cb))
                    if entry:
                        for k, c in entry.items():
                            out[k] = field.add(out[k], field.mul(sign, c))
            return out

        def wform(u, v):
            total = field.zero()
            for (a, bidx), c in w_table.items():
                total = field.add(
                    total,
                    field.mul(c, field.sub(field.mul(u[a], v[bidx]), field.mul(u[bidx], v[a]))),
                )
            return total

        out = []
        for x, y, z in combinations(range(n), 3):
            acc = [field.zero()] * n
            for (a, b, c) in ((x, y, z), (z, x, y), (y, z, x)):
                term = phi(alg.bracket(e[a], e[b]), e[c])
                term2 = alg.bracket(phi(e[a], e[b]), e[c])
                wv = wform(e[a], e[b])
                for l in range(n):
                    acc[l] = field.add(acc[l], field.add(term[l], term2[l]))
                    if l == c:
                        acc[l] = field.sub(acc[l], wv)
            out.extend(acc)
        return out

    columns = []
    for t in range(nun):
        phi_table = {}
        w_table = {}
        if t < nphi:
            pair = pairs[t // n]
            phi_table[pair] = {t % n: field.one()}
        else:
            w_table[pairs[t - nphi]] = field.one()
        columns.append(residual(phi_table, w_table))
    rows = [[col[r] for col in columns] for r in range(len(columns[0]))]
    total_dim = nun - matrix_rank(field, rows)
    return total_dim


def four_var_reference(alg):
    """The four-variable consequence on increasing 4-tuples, on dense
    vectors: the body ``AnticommAlgebra.check_four_var`` had before it
    ran the ``two-basic`` identity program, with dw read off
    :func:`d_omega_reference`, so that no identity program checks
    another.

    w(z,t)[x,y] + w(t,y)[x,z] + w(y,z)[x,t] + w(x,t)[y,z]
    + w(z,x)[y,t] + w(x,y)[z,t]
    = dw(t,z,y)x + dw(z,t,x)y + dw(y,x,t)z + dw(x,y,z)t.
    """
    from olie.linalg import identity_matrix, vec_is_zero, vec_mat, vec_sub

    field, n = alg.field, alg.dim
    w, dw, e = alg.omega_entry, partial(d_omega_reference, alg), identity_matrix(field, n)
    for a, b, c, d in combinations(range(n), 4):
        x, y, z, t = e[a], e[b], e[c], e[d]
        lhs = vec_mat(
            field,
            [w(c, d), w(d, b), w(b, c), w(a, d), w(c, a), w(a, b)],
            [alg.basis_bracket(u, v) for u, v in combinations((a, b, c, d), 2)],
        )
        dws = [dw(t, z, y), dw(z, t, x), dw(y, x, t), dw(x, y, z)]
        rhs = vec_mat(field, dws, [x, y, z, t])
        if not vec_is_zero(field, vec_sub(field, lhs, rhs)):
            return False
    return True


# -- the eager ideal searches --------------------------------------------
#
# The order of the searches is the reference here, so these two keep the
# eager form the library had before its searches became lazy: every
# candidate built up front, M(L) computed before any candidate is spun,
# and every candidate put through the full ideal test.  Their building
# blocks (closures, subspaces, kernels) are the library's own, each held
# to an oracle of its own above.


def simplicity_reference(alg, enum_cap=10**6):
    """The simplicity verdict with M(L) computed first, then the fixed
    candidate lines spun, then every projective line."""
    from olie.algebra import SimplicityVerdict
    from olie.linalg import Subspace, basis_vector, projective_points, vec_add, vec_sub

    field, n = alg.field, alg.dim
    if n == 0:
        return SimplicityVerdict("not_simple", Subspace.zero(field, 0))
    if alg.commutant().is_zero():
        witness = Subspace(field, n, [basis_vector(field, n, 0)])
        if n == 1:
            witness = Subspace.zero(field, n)
        return SimplicityVerdict("not_simple", witness, "abelian")
    if alg.multiplication_algebra_dim() == n * n:
        return SimplicityVerdict("simple", certificate="full multiplication algebra")
    candidates = [basis_vector(field, n, i) for i in range(n)]
    for i, j in combinations(range(n), 2):
        ei, ej = basis_vector(field, n, i), basis_vector(field, n, j)
        candidates.append(vec_add(field, ei, ej))
        candidates.append(vec_sub(field, ei, ej))
    ker_rows = [list(r) for r in alg.omega_kernel().rows]
    candidates.extend(ker_rows)
    for a, b in combinations(range(len(ker_rows)), 2):
        candidates.append(vec_add(field, ker_rows[a], ker_rows[b]))
        candidates.append(vec_sub(field, ker_rows[a], ker_rows[b]))
    exhaustive = field.char and field.char**n <= enum_cap
    seen = set()

    def try_vec(v):
        key = tuple(field.format(x) for x in v)
        if key in seen:
            return None
        seen.add(key)
        spun = alg.ideal_closure([v])
        return spun if 0 < spun.dim < n else None

    for v in candidates:
        if all(field.is_zero(x) for x in v):
            continue
        found = try_vec(v)
        if found is not None:
            return SimplicityVerdict("not_simple", found, "spun ideal")
    if exhaustive:
        for v in projective_points(field.char, n):
            found = try_vec(v)
            if found is not None:
                return SimplicityVerdict("not_simple", found, "spun ideal")
        return SimplicityVerdict("simple", certificate="exhaustive spinning")
    return SimplicityVerdict("unknown")


def find_abelian_ideal_reference(alg, enum_cap=10**6):
    """The first nonzero abelian ideal in candidate order, every candidate
    built before any is tested and each tested with the full ideal and
    abelian checks; L itself when n = 1; None otherwise."""
    from olie.algebra import OmegaAlgebra
    from olie.linalg import Subspace, basis_vector, kernel_basis, projective_points, vec_mat

    field, n = alg.field, alg.dim
    if n == 1:
        return Subspace.full(field, 1)

    def check(sub):
        return sub.dim > 0 and alg.is_ideal(sub) and alg.is_abelian_subspace(sub)

    candidates = [alg.center()]
    ker = alg.omega_kernel()
    candidates.append(ker)
    part = alg._abelian_part(ker)
    if part is not None:
        candidates.append(part)
    lam_set = alg.multiplicative_lambda()
    if lam_set is not None:
        for lam in lam_set.points():
            if any(not field.is_zero(x) for x in lam):
                candidates.append(Subspace(field, n, kernel_basis(field, [lam], n)))
    for i in range(n):
        candidates.append(alg.ideal_closure([basis_vector(field, n, i)]))
    com = alg.commutant()
    candidates.append(com)
    candidates.append(com.intersect(ker))
    for sub in candidates:
        if sub.dim < n and check(sub):
            return sub
    if not (field.char and field.char**n <= enum_cap):
        return None
    if isinstance(alg, OmegaAlgebra) or alg._first_violation() is None:
        for coeffs in projective_points(field.char, ker.dim):
            spun = alg.ideal_closure([vec_mat(field, coeffs, ker.rows)])
            if spun.dim < n and check(spun):
                return spun
        reps = com.quotient_reps()
        q = len(reps)
        for covector in projective_points(field.char, q):
            extra = [vec_mat(field, combo, reps) for combo in kernel_basis(field, [covector], q)]
            sub = Subspace(field, n, list(com.rows) + extra)
            if sub.dim == n - 1 and check(sub):
                return sub
        return None
    for v in projective_points(field.char, n):
        sub = Subspace(field, n, [v])
        if check(sub):
            return sub
        spun = alg.ideal_closure([v])
        if spun.dim < n and check(spun):
            return spun
    return None


def radical_core_reference(alg):
    """The RREF rows of the largest ideal inside the radical of the form,
    by the plain fixed point N_{t+1} = {v in N_t : [v, e_j] in N_t for
    every j} from N_0 = the radical, with the reference bracket and
    elimination: each round solves for the coefficients on the rows of
    N_t whose brackets reduce to zero modulo N_t."""
    field, n = alg.field, alg.dim
    e = _basis(field, n)
    gram = [[omega_reference(alg, x, y) for y in e] for x in e]
    red, rank, _ = rref_reference(field, kernel_reference(field, gram, n))
    rows = red[:rank]
    while rows:
        residues = [
            [reduce_reference(field, rows, bracket_reference(alg, r, ej)) for ej in e]
            for r in rows
        ]
        d = len(rows)
        equations = [[residues[s][j][k] for s in range(d)] for j in range(n) for k in range(n)]
        coeffs = kernel_reference(field, equations, d)
        red, rank, _ = rref_reference(field, [vec_mat_reference(field, c, rows) for c in coeffs])
        if rank == d:
            break
        rows = red[:rank]
    return rows


def fitting_decomposition_reference(alg, sub):
    """The Fitting pair (L0, L1) as ``structure.fitting_decomposition``
    computed it before it squared int matrices: the operator restricted
    to L0 through coordinates and raised to the k-th power, k = dim L0,
    by k dense field-method matrix products; the adjoints compared by
    two dense products per pair."""
    from olie.errors import NotAbelianSubalgebra, PreconditionFailed
    from olie.linalg import Subspace, kernel_basis, mat_mul, transpose, vec_mat

    field, n = alg.field, alg.dim
    if not alg.is_abelian_subspace(sub):
        raise NotAbelianSubalgebra("the subspace is not an abelian subalgebra")
    ads = [alg.ad(list(r)) for r in sub.rows]
    for a, b in combinations(range(len(ads)), 2):
        if mat_mul(field, ads[a], ads[b]) != mat_mul(field, ads[b], ads[a]):
            raise PreconditionFailed(
                "adjoint maps of the subalgebra do not commute; "
                "the decomposition would not be canonical"
            )
    null = Subspace.full(field, n)
    one_vectors = []
    for h in sub.rows:
        if null.is_zero():
            break
        matrix = alg.ad(list(h))
        t = [null.coords(vec_mat(field, list(r), matrix)) for r in null.rows]
        k = null.dim
        tk = [[field.one() if i == j else field.zero() for j in range(k)] for i in range(k)]
        for _ in range(k):
            tk = mat_mul(field, tk, t)
        ker = kernel_basis(field, transpose(tk), k)
        one_vectors.extend(null.lift(tk))
        null = Subspace(field, n, null.lift(ker))
    return null, Subspace(field, n, one_vectors)


def abelian_witness_reference(alg, extra=()):
    """The abelian witness as ``structure._abelian_witness`` chose it
    before it read the pair table: every candidate grown by brackets of
    vectors, the radical and its abelian part computed here, each
    candidate tested for being abelian, the first of largest dimension
    kept, and over a small prime field the projective lines grown in
    order until one reaches codimension 3."""
    from olie.linalg import ENUM_CAP, Subspace, basis_vector, projective_points

    field, n = alg.field, alg.dim
    e = [basis_vector(field, n, i) for i in range(n)]

    def grown(start):
        members = [start]
        for ej in e:
            if all(not any(alg.bracket(m, ej)) for m in members):
                members.append(ej)
        return Subspace(field, n, members)

    ker = alg.omega_kernel()
    candidates = [grown(ei) for ei in e]
    candidates += [ker, alg._abelian_part(ker), *extra, alg.center()]
    best = None

    def consider(sub):
        nonlocal best
        if sub is None or sub.dim == 0 or not alg.is_abelian_subspace(sub):
            return
        if best is None or sub.dim > best.dim:
            best = sub

    for cand in candidates:
        consider(cand)
    if (best is None or best.codim > 3) and field.char and field.char**n <= ENUM_CAP:
        for v in projective_points(field.char, n):
            consider(grown(v))
            if best is not None and best.codim <= 3:
                break
    return best


def rational_roots_reference(coeffs):
    """The rational-root search ``structure._rational_roots`` ran before
    it tested candidates by integer values: every divisor pair and sign,
    each by ``Fraction`` Horner.  Returns the roots with multiplicity, in
    the order found, and whether a factor was left without a root."""

    def divisors(m):
        m = abs(m)
        if m == 0:
            return [1]
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                out.append(m // d)
            d += 1
        return sorted(set(out))

    poly = list(coeffs)  # ascending
    roots = []
    while len(poly) > 1:
        if poly[0] == 0:
            roots.append(Fraction(0))
            poly = poly[1:]
            continue
        denom = 1
        for c in poly:
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        ints = [int(c * denom) for c in poly]
        lead, const = ints[-1], ints[0]
        if abs(const) > 10**15 or abs(lead) > 10**15:
            return roots, True
        found = None
        for p in divisors(const):
            for q in divisors(lead):
                for sign in (1, -1):
                    cand = Fraction(sign * p, q)
                    val = Fraction(0)
                    for c in reversed(poly):
                        val = val * cand + c
                    if val == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return roots, True
        roots.append(found)
        # synthetic division by (x - found), descending order
        desc = poly[::-1]
        quot = [desc[0]]
        for c in desc[1:-1]:
            quot.append(c + found * quot[-1])
        poly = quot[::-1]
    return roots, False


def check_al_derivation_reference(alg, der):
    """The derivation relation on every basis pair as a dense residual,
    as ``derivations.check_al_derivation`` computed it before it
    evaluated the rows of the solver's system: D([e_i,e_j]) by
    ``vec_mat``, the other terms by brackets and field-method calls.
    The shapes are the caller's to check."""
    from olie.linalg import basis_vector, vec_is_zero, vec_mat, vec_sub

    field, n = alg.field, alg.dim
    d, alpha, lam = der.matrix, der.alpha, der.lam
    e = [basis_vector(field, n, i) for i in range(n)]
    for i, j in combinations(range(n), 2):
        di, dj = d[i], d[j]
        lhs = vec_mat(field, alg.basis_bracket(i, j), d)
        lhs = vec_sub(field, lhs, alg.bracket(di, e[j]))
        lhs = [field.add(a, b) for a, b in zip(lhs, alg.bracket(dj, e[i]))]
        rhs = [
            field.sub(field.mul(lam[j], a), field.mul(lam[i], b))
            for a, b in zip(di, dj)
        ]
        rhs[i] = field.add(rhs[i], alpha[j])
        rhs[j] = field.sub(rhs[j], alpha[i])
        if not vec_is_zero(field, vec_sub(field, lhs, rhs)):
            return False
    return True


def eigenspaces_reference(field, matrix):
    """``structure._eigenspaces`` as it was before it skipped candidates
    with a zero kernel and reached the power by squaring: for every
    candidate, the kernel of the n-th power of the shifted matrix, taken
    by n dense field-method products (``_mat_power``).  The candidates
    are every element of a prime field up to 4096 (None above) or the
    roots of :func:`rational_roots_reference`, and no pairs come back
    when it leaves a factor over, as it does at its coefficient cap."""
    from olie.linalg import identity_matrix, kernel_basis, mat_mul, transpose
    from olie.structure import _char_poly_q

    def mat_power(m, k):
        out = identity_matrix(field, len(m))
        for _ in range(k):
            out = mat_mul(field, out, m)
        return out

    n = len(matrix)
    if field.char == 0:
        roots, leftover = rational_roots_reference(_char_poly_q(field, matrix))
        if leftover:
            return []
        candidates = sorted(set(roots))
    elif field.char <= 4096:
        candidates = range(field.char)
    else:
        return None
    out = []
    for lam in candidates:
        shifted = [
            [field.sub(matrix[i][j], lam if i == j else field.zero()) for j in range(n)]
            for i in range(n)
        ]
        ker = kernel_basis(field, transpose(mat_power(shifted, n)), n)
        if ker:
            out.append((lam, ker))
    return out


def multiplicative_lambda_reference(alg):
    """``AnticommAlgebra.multiplicative_lambda`` as it was before it read
    the signed pair table: the dense basis brackets as rows, the form
    entries as the right side."""
    from olie.linalg import AffineSolution, Subspace, solve_affine, zeros

    field, n = alg.field, alg.dim
    rows, rhs = [], []
    for i, j in combinations(range(n), 2):
        rows.append(alg.basis_bracket(i, j))
        rhs.append(alg.omega_entry(i, j))
    if not rows:
        return AffineSolution(zeros(field, n), Subspace.full(field, n))
    return solve_affine(field, rows, rhs)


def almost_abelian_decomposition_reference(alg):
    """``AnticommAlgebra.almost_abelian_decomposition`` as it was before
    it read the signed pair table: rows of field-method ones against the
    dense basis brackets."""
    from olie.algebra import AlmostAbelianResult
    from olie.linalg import (
        AffineSolution,
        Subspace,
        basis_vector,
        kernel_basis,
        solve_affine,
        vec_is_zero,
        vec_scale,
        zeros,
    )

    field, n = alg.field, alg.dim
    rows, rhs = [], []
    for i, j in combinations(range(n), 2):
        b = alg.basis_bracket(i, j)
        for l in range(n):
            row = zeros(field, n)
            if l == i:
                row[j] = field.add(row[j], field.one())
            if l == j:
                row[i] = field.sub(row[i], field.one())
            rows.append(row)
            rhs.append(b[l])
    if rows:
        sol = solve_affine(field, rows, rhs)
    else:
        sol = AffineSolution(zeros(field, n), Subspace.zero(field, n))
    if sol is None:
        return AlmostAbelianResult("neither")
    lam = sol.particular
    if vec_is_zero(field, lam):
        return AlmostAbelianResult("abelian", lam=lam)
    pivot = next(i for i, c in enumerate(lam) if not field.is_zero(c))
    x = vec_scale(field, field.inv(lam[pivot]), basis_vector(field, n, pivot))
    part = Subspace(field, n, kernel_basis(field, [lam], n))
    return AlmostAbelianResult("almost_abelian", lam=lam, abelian_part=part, x=x)


def is_multiplicative_for_reference(alg, lam):
    """``extensions.is_multiplicative_for`` as it was before it read the
    pair tables: lam on each dense basis bracket by field-method calls,
    against the form entry.  The length of lam is the caller's to check."""
    field, n = alg.field, alg.dim
    for i, j in combinations(range(n), 2):
        val = field.zero()
        for k, c in enumerate(alg.basis_bracket(i, j)):
            val = field.add(val, field.mul(c, lam[k]))
        if not field.is_zero(field.sub(val, alg.omega_entry(i, j))):
            return False
    return True


def ad_reference(alg, h):
    """``AnticommAlgebra.ad`` as it was before it ran one
    ``right_images`` pass: n brackets [e_i, h] of basis vectors."""
    return [alg.bracket(e, h) for e in _basis(alg.field, alg.dim)]


def check_representation_reference(alg, maps):
    """``extensions.check_representation`` as it was before it summed the
    maps over the pair table: phi([e_i, e_j]) from the dense basis
    bracket by field-method calls.  The shapes are the caller's to
    check."""
    from olie.linalg import mat_mul, mat_sub, zeros

    field, n = alg.field, alg.dim
    m = len(maps[0]) if maps else 0
    for i, j in combinations(range(n), 2):
        lhs = [zeros(field, m) for _ in range(m)]
        for k, c in enumerate(alg.basis_bracket(i, j)):
            if field.is_zero(c):
                continue
            for a in range(m):
                for b in range(m):
                    lhs[a][b] = field.add(lhs[a][b], field.mul(c, maps[k][a][b]))
        comm = mat_sub(
            field,
            mat_mul(field, maps[j], maps[i]),
            mat_mul(field, maps[i], maps[j]),
        )
        w = alg.omega_entry(i, j)
        for a in range(m):
            for b in range(m):
                rhs = comm[a][b]
                if a == b:
                    rhs = field.add(rhs, w)
                if not field.is_zero(field.sub(lhs[a][b], rhs)):
                    return False
    return True


# -- the dense helpers, one field-method call per scalar -----------------------
# The bodies the dense helpers of ``olie.linalg`` had before they computed
# with operators and reduced each result entry once: the vector and
# matrix arithmetic, the kernel read off ``rref_reference``, and the
# intersection and lift of RREF bases.


def vec_add_reference(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub_reference(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale_reference(field, c, v):
    return [field.mul(c, x) for x in v]


def vec_dot_reference(field, u, v):
    s = field.zero()
    for a, b in zip(u, v):
        s = field.add(s, field.mul(a, b))
    return s


def vec_mat_reference(field, v, m):
    ncols = len(m[0]) if m else 0
    out = [field.zero()] * ncols
    for i, c in enumerate(v):
        if field.is_zero(c):
            continue
        for j in range(ncols):
            out[j] = field.add(out[j], field.mul(c, m[i][j]))
    return out


def mat_mul_reference(field, a, b):
    return [vec_mat_reference(field, row, b) for row in a]


def mat_add_reference(field, a, b):
    return [vec_add_reference(field, ra, rb) for ra, rb in zip(a, b)]


def mat_sub_reference(field, a, b):
    return [vec_sub_reference(field, ra, rb) for ra, rb in zip(a, b)]


def mat_scale_reference(field, c, a):
    return [vec_scale_reference(field, c, row) for row in a]


def kernel_reference(field, rows, ncols):
    """Basis of {v : rows @ v = 0}, one vector per free column of
    ``rref_reference``, in column order."""
    red, _, pivots = rref_reference(field, rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            c = red[r][fc]
            if not field.is_zero(c):
                v[pc] = field.neg(c)
        basis.append(v)
    return basis


def lift_reference(field, ambient, rows, coords):
    """The vectors of K^ambient with the given coordinates in ``rows``:
    zero vectors when there are no rows."""
    return [vec_mat_reference(field, c, rows) if rows else [field.zero()] * ambient for c in coords]


def intersect_reference(field, ambient, a, b):
    """The canonical rows of the intersection of the row spaces of the
    RREF bases ``a`` and ``b``, by the coefficient-matching kernel."""
    if not a or not b:
        return []
    stacked = [
        [u[coord] for u in a] + [field.neg(v[coord]) for v in b] for coord in range(ambient)
    ]
    combos = kernel_reference(field, stacked, len(a) + len(b))
    vectors = lift_reference(field, ambient, a, [c[: len(a)] for c in combos])
    red, rank, _ = rref_reference(field, vectors)
    return red[:rank]


def compile_term_reference(term):
    """Compile a term into a :class:`Program`; equal subterms share a node."""
    nodes, index = [], {}

    def visit(t):
        tag = t[0]
        if tag in (VAR, INT):
            key = t
        elif tag == SUM:
            key = (SUM, tuple(visit(u) for u in t[1]))
        elif tag in (BRACKET, OMEGA, SCALE):
            key = (tag, visit(t[1]), visit(t[2]))
        else:
            raise IdentityTypeError(f"unknown node {tag!r}")
        at = index.get(key)
        if at is None:
            at = index[key] = len(nodes)
            nodes.append(key)
        return at

    visit(term)
    num_vars = max((k for tag, k, *_ in nodes if tag == VAR), default=0)
    return Program(tuple(nodes), num_vars)


def run_reference(alg, program, args):
    """The root value of a program with ``x_k`` bound to the scaled vector
    ``args[k - 1]``, as a scaled vector or scalar: ints over one
    denominator, 1 over GF(p).  Sums and scalings are not reduced mod p;
    the bracket, the form and :func:`~olie.linalg.from_scaled` are."""
    vals = []
    for node in program.nodes:
        tag = node[0]
        if tag == BRACKET:
            value = alg.bracket_scaled(vals[node[1]], vals[node[2]])
        elif tag == SCALE:
            (c, dc), (v, dv) = vals[node[1]], vals[node[2]]
            value = [c * x for x in v], dc * dv
        elif tag == SUM:
            parts = [vals[i] for i in node[1]]
            den = lcm(*[d for _, d in parts])
            if isinstance(parts[0][0], list):
                parts = [v if d == den else [den // d * x for x in v] for v, d in parts]
                value = [sum(col) for col in zip(*parts)], den
            else:
                value = sum(c * (den // d) for c, d in parts), den
        elif tag == VAR:
            value = args[node[1] - 1]
        elif tag == INT:
            value = node[1], 1
        else:
            value = alg.omega_scaled(vals[node[1]], vals[node[2]])
        vals.append(value)
    return vals[-1]


def scan_structure_one_reference(field_tag, seed, dim):
    """One chain of ``olie scan-structure``, as the CLI scanned it before
    the search for an abelian ideal also decided non-simplicity: both
    searches run, on a certified copy of the chain with no kept
    invariants."""
    from olie import catalog
    from olie.algebra import OmegaAlgebra
    from olie.fields import field_from_tag
    from olie.structure import classify

    field = field_from_tag(field_tag)
    result = catalog.random_extension_chain(field, seed, dim)
    if isinstance(result, catalog.Stuck):
        return {"seed": seed, "stuck": result.reason}
    alg = OmegaAlgebra(field, result.dim, result._bracket, result._omega)
    out = {"seed": seed, "stuck": None, "dim": alg.dim, "lie": alg.is_lie()}
    verdict = classify(alg)
    out["case"] = verdict.case
    if out["lie"]:
        return out
    out["verdict_ok"] = verdict.case in (
        "codim_one_lie_subalgebra",
        "kernel_codim_two",
    )
    witness_ok = False
    if verdict.abelian_small_codim is not None:
        sub = verdict.abelian_small_codim
        witness_ok = sub.codim <= 3 and alg.is_abelian_subspace(sub)
    out["witness_ok"] = witness_ok
    if alg.dim >= 5:
        out["not_simple_ok"] = alg.simplicity().kind != "simple"
        out["abelian_ideal_ok"] = alg.find_abelian_ideal() is not None
    return out


def compile_term_collected_reference(term):
    """Compile a term into a :class:`Program` as the library did before
    it grouped products by bilinearity: one node per subterm modulo
    anticommutativity, like terms of a sum collected, no sharing of
    operands between the products of a sum."""
    nodes, index = [], {}

    def node(key):
        at = index.get(key)
        if at is None:
            at = index[key] = len(nodes)
            nodes.append(key)
        return at

    def parts(t):
        tag = t[0]
        if tag == SUM:
            out = {}
            for u in t[1]:
                for i, c in parts(u).items():
                    out[i] = out.get(i, 0) + c
            return {i: c for i, c in out.items() if c}
        if tag == VAR:
            return {node(t): 1}
        if tag == INT:
            return {node((INT, 1)): t[1]} if t[1] else {}
        if tag not in (BRACKET, OMEGA, SCALE):
            raise IdentityTypeError(f"unknown node {tag!r}")
        left, right = parts(t[1]), parts(t[2])
        if tag == SCALE and left.keys() <= {index.get((INT, 1))}:
            k = sum(left.values())
            return {i: k * c for i, c in right.items()} if k else {}
        (c, i), (d, j) = single(left), single(right)
        if not c or not d or i == j:
            return {}
        if i > j and tag != SCALE:
            i, j, c = j, i, -c
        return {node((tag, i, j)): c * d}

    def single(combination):
        collected = sorted(combination.items())
        if not collected:
            return 0, None
        if len(collected) == 1:
            (i, c), = collected
            return c, i
        return 1, node((SUM, tuple((c, i) for i, c in collected)))

    def operands(key):
        if key[0] == SUM:
            return [i for _, i in key[1]]
        return () if key[0] in (VAR, INT) else key[1:]

    c, root = single(parts(term))
    num_vars = max((k for tag, k, *_ in nodes if tag == VAR), default=0)
    if c != 1:
        zero = (INT, 0) if term_type(term) == "scalar" else (SUM, ())
        nodes.append((SUM, ((c, root),)) if c else zero)
        root = len(nodes) - 1
    live = [False] * root + [True]
    for at in range(root, -1, -1):
        if live[at]:
            for i in operands(nodes[at]):
                live[i] = True
    kept, new = [], {}
    for at in range(root + 1):
        if live[at]:
            key = nodes[at]
            if key[0] == SUM:
                key = (SUM, tuple((c, new[i]) for c, i in key[1]))
            elif key[0] not in (VAR, INT):
                key = (key[0], new[key[1]], new[key[2]])
            new[at] = len(kept)
            kept.append(key)
    return Program(tuple(kept), num_vars)


def tokenize_reference(text):
    """The identity tokenizer's earlier body, one character at a time:
    parentheses, and maximal runs of other non-space characters, each
    with its start position."""
    out = []
    pos = 0
    for ch in text:
        if ch == "(" or ch == ")":
            out.append((ch, pos))
        elif ch.isspace():
            pass
        else:
            if out and out[-1][0] not in "()" and out[-1][1] + len(out[-1][0]) == pos:
                out[-1] = (out[-1][0] + ch, out[-1][1])
            else:
                out.append((ch, pos))
        pos += 1
    return out


def system_rows_dense(alg, lam):
    """The derivation system as dense int rows times ``D * dl``, in the
    order of the pairs i < j and the coordinate l: the library's earlier
    ``derivations._system_rows``."""
    from olie.linalg import to_scaled

    field, n = alg.field, alg.dim
    table, den = alg._product.signed_table()
    lam, dl = to_scaled(field, lam)
    unit, nn = den * dl, n * n
    rows = []
    for i, j in combinations(range(n), 2):
        block = [[0] * (nn + n) for _ in range(n)]
        for k, c in table[i][j]:
            c *= dl
            for l, row in enumerate(block):
                row[k * n + l] += c
        for k in range(n):
            for l, c in table[k][j]:
                block[l][i * n + k] -= c * dl
            for l, c in table[k][i]:
                block[l][j * n + k] += c * dl
        lj, li = lam[j] * den, lam[i] * den
        for l, row in enumerate(block):
            row[i * n + l] -= lj
            row[j * n + l] += li
        block[i][nn + j] -= unit
        block[j][nn + i] += unit
        rows.extend(block)
    return rows


def deformation_rows_dense(alg, pos):
    """The first-order deformation system as dense int rows times ``D``,
    in the order of the triples x < y < z and the coordinate l: the
    library's earlier ``extensions._deformation_rows``."""
    n = alg.dim
    table, den = alg._product.signed_table()
    nphi = len(pos) * n
    nun = nphi + len(pos)

    def slot(i, j):
        return (pos[i, j], 1) if i < j else (pos[j, i], -1)

    rows = []
    for x, y, z in combinations(range(n), 3):
        block = [[0] * nun for _ in range(n)]
        for a, b, c in ((x, y, z), (z, x, y), (y, z, x)):
            for k, cv in table[a][b]:
                if k != c:
                    t, sign = slot(k, c)
                    cv *= sign
                    for l, row in enumerate(block):
                        row[t * n + l] += cv
            t, sign = slot(a, b)
            for k in range(n):
                for l, cv in table[k][c]:
                    block[l][t * n + k] += sign * cv
            block[c][nphi + t] -= sign * den
        rows.extend(block)
    return rows


def differential_matrix_dense(alg, lam, k):
    """The degree-k differential as dense int rows, one per k-cochain
    key, and its scale ``D * dl``: the library's earlier
    ``extensions._differential_matrix``, for a multiplicative lam."""
    from olie.linalg import to_scaled

    field, n = alg.field, alg.dim
    lam = [field.coerce(x) for x in lam]
    table, den = alg._product.signed_table()
    lam, dl = to_scaled(field, lam)
    src = {key: t for t, key in enumerate(combinations(range(n), k))}
    dst = list(combinations(range(n), k + 1))
    rows = [[0] * len(dst) for _ in src]
    for col, idx in enumerate(dst):
        for a in range(k + 1):
            term = lam[idx[a]] * den
            rows[src[idx[:a] + idx[a + 1 :]]][col] += -term if a % 2 else term
        for a, b in combinations(range(k + 1), 2):
            rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
            for m, c in table[idx[a]][idx[b]]:
                if m in rest:
                    continue
                below = sum(r < m for r in rest)
                c *= dl
                if (a + b + below) % 2:
                    c = -c
                rows[src[rest[:below] + (m,) + rest[below:]]][col] += c
    return rows, den * dl


def parse_scalar_reference(field, text):
    """The earlier ``field.parse``: the grammar by its regex, then the
    value by ``Fraction(text)`` over Q, by ``int`` on each side of the
    slash over GF(p); None where it raised ``ParseError``."""
    import re

    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        return None
    try:
        if not field.char:
            return Fraction(text)
        num, _, den = text.partition("/")
        den = int(den or 1) % field.char
        return int(num) * pow(den, field.char - 2, field.char) % field.char if den else None
    except (ValueError, ZeroDivisionError):
        return None


def abelian_part_reference(alg, sub):
    """``AnticommAlgebra._abelian_part`` as it was before it read the
    form off the canonical rows: the subalgebra test, the induced
    algebra, and the dense almost-abelian solve on it."""
    from olie.linalg import Subspace

    if not alg.is_subalgebra(sub):
        return None
    dec = almost_abelian_decomposition_reference(alg._induced(sub.basis(), sub.coords))
    if dec.kind != "almost_abelian":
        return None
    return Subspace(alg.field, alg.dim, sub.lift(dec.abelian_part.rows))


def _hyperplanes_over_subspace_reference(alg, core):
    """The hyperplanes containing ``core`` when it has codimension 2 (none
    otherwise): the rank-2 pencil when ``core`` is a subalgebra; else
    the p + 1 lines of the quotient over a small prime field, or, over
    the rationals, ``core`` plus each basis vector and commutant row."""
    from olie.linalg import (
        ENUM_CAP,
        Subspace,
        basis_vector,
        projective_points,
        vec_add,
        vec_mat,
        vec_scale,
    )
    from olie.structure import _rank2_line_parameters

    field, n = alg.field, alg.dim
    reps = core.quotient_reps()
    if len(reps) != 2:
        return
    if alg.is_subalgebra(core):
        r1, r2 = reps
        for t in _rank2_line_parameters(alg, core):
            vec = r2 if t is None else vec_add(field, r1, vec_scale(field, t, r2))
            yield Subspace(field, n, list(core.rows) + [vec])
        return
    if field.char and field.char + 1 <= ENUM_CAP:
        for coeffs in projective_points(field.char, 2):
            yield Subspace(field, n, list(core.rows) + [vec_mat(field, coeffs, reps)])
    else:
        seeds = [basis_vector(field, n, i) for i in range(n)]
        seeds.extend(list(r) for r in alg.commutant().rows)
        for s in seeds:
            cand = Subspace(field, n, list(core.rows) + [s])
            if cand.dim == core.dim + 1:
                yield cand


def classify_reference(alg):
    """``structure.classify`` as it was before the law decided it: the
    nilpotent action by ``fitting_decomposition``, then every candidate
    hyperplane over the radical (:func:`_hyperplanes_over_subspace_reference`)
    tested to be a subalgebra that restricts to a Lie algebra, then,
    over the rationals, the kernels of the alpha covectors of the
    derivation solutions; the abelian parts by
    :func:`abelian_part_reference`."""
    from olie.derivations import al_derivation_space
    from olie.errors import PreconditionFailed
    from olie.linalg import Subspace, kernel_basis
    from olie.structure import ClassificationVerdict, _abelian_witness, fitting_decomposition

    field, n = alg.field, alg.dim
    ker = alg.omega_kernel()
    part = abelian_part_reference(alg, ker)

    def verdict(case, extra=(), **labels):
        witness = _abelian_witness(alg, extra)
        return ClassificationVerdict(case, abelian_small_codim=witness, **labels)

    if alg.is_lie():
        return verdict("lie_algebra")
    if n == 3:
        return verdict("dim_three")
    if part is not None and n - ker.dim == 2:
        try:
            nilpotent = fitting_decomposition(alg, part)[0].is_full()
        except PreconditionFailed:
            nilpotent = False
        if nilpotent:
            return verdict("kernel_codim_two", kernel_type="almost_abelian", nilpotent_action=True)

    def lie_hyperplane(cand):
        return (
            cand.dim == n - 1
            and alg.is_subalgebra(cand)
            and alg._induced(cand.basis(), cand.coords).is_lie()
        )

    witness = next(filter(lie_hyperplane, _hyperplanes_over_subspace_reference(alg, ker)), None)
    if witness is None and field.char == 0:
        lam_set = alg.multiplicative_lambda()
        alphas = (
            der.alpha
            for lam in (() if lam_set is None else lam_set.points())
            for der in al_derivation_space(alg, lam)
            if any(der.alpha)
        )
        kernels = (Subspace(field, n, kernel_basis(field, [a], n)) for a in alphas)
        witness = next(filter(lie_hyperplane, kernels), None)
    if witness is not None:
        return verdict(
            "codim_one_lie_subalgebra",
            [witness, abelian_part_reference(alg, witness)],
            witness=witness,
        )
    return verdict("inconclusive")


def _jacobian_term_reference(x, y, z):
    return plus(b(b(x, y), z), b(b(z, x), y), b(b(y, z), x))


def linearized_reference(name, alpha=1, beta=1, gamma=1):
    """The multilinear term of the built-in ``name`` (``engel``, ``abg``,
    ``bin`` or ``bin-consequence``) as it was written out by hand; only
    ``abg`` reads ``alpha``, ``beta`` and ``gamma``."""
    terms = []
    if name == "engel":
        for sigma in permutations((2, 3, 4)):
            terms.append(b(b(b(var(1), var(sigma[0])), var(sigma[1])), var(sigma[2])))
    elif name == "abg":
        for xa, xb in ((1, 2), (2, 1)):
            xx, xx2, yy, zz = var(xa), var(xb), var(3), var(4)
            terms.append(s(alpha, b(b(xx, yy), b(xx2, zz))))
            terms.append(s(beta, minus(b(b(b(xx, yy), xx2), zz), b(b(b(xx, zz), xx2), yy))))
            terms.append(s(gamma, minus(b(b(b(xx, yy), zz), xx2), b(b(b(xx, zz), yy), xx2))))
            terms.append(s(beta + gamma, b(b(b(yy, zz), xx), xx2)))
    elif name == "bin":
        for xa, xb in ((1, 2), (2, 1)):
            for ya, yb in ((3, 4), (4, 3)):
                terms.append(_jacobian_term_reference(var(xa), var(ya), b(var(xb), var(yb))))
    elif name == "bin-consequence":
        for xa, xb in ((1, 2), (2, 1)):
            for ya, yb in ((3, 4), (4, 3)):
                xx, xx2 = var(xa), var(xb)
                yy, yy2 = var(ya), var(yb)
                terms.append(
                    minus(
                        s(w(xx, yy), b(xx2, yy2)),
                        minus(
                            s(w(b(xx, yy), yy2), xx2),
                            s(w(b(xx, yy), xx2), yy2),
                        ),
                    )
                )
    else:
        raise ValueError(f"no hand-written term for {name!r}")
    return plus(*terms)
