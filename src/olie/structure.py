"""Decompositions and the classification machinery.

The classifier sorts a certified algebra into the structural cases: Lie,
dimension three, a codimension-1 Lie subalgebra, or a codimension-2
radical that is almost abelian with its abelian part acting nilpotently.
It also attaches, when it can, an abelian subalgebra of codimension at
most 3.  The codimension-1 search is exact over every field: by the
law, a Lie hyperplane holds the radical of the form, which then has
codimension 2, and the subalgebras over it are the roots of one
quadratic pencil (see :func:`classify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import mul

from .algebra import AnticommAlgebra, OmegaAlgebra
from .derivations import al_derivation_space
from .errors import (
    NotAbelianSubalgebra,
    NotASubalgebra,
    PreconditionFailed,
)
from .linalg import (
    ENUM_CAP,
    Subspace,
    _canon,
    basis_vector,
    kernel_basis,
    mat_mul,
    span_points,
    to_scaled,
    transpose,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_mat,
    vec_scale,
    vec_sub,
)

# -- commuting-family decompositions -------------------------------------


def _check_abelian_subalgebra(alg, sub):
    if not alg.is_abelian_subspace(sub):
        raise NotAbelianSubalgebra("the subspace is not an abelian subalgebra")


def _check_radical_part(alg, sub):
    _check_abelian_subalgebra(alg, sub)
    if not alg.omega_kernel().contains_subspace(sub):
        raise PreconditionFailed("the subalgebra must sit inside the form's radical")
    if sub.dim <= 1:
        raise PreconditionFailed("need an abelian subalgebra of dimension > 1")


def _check_commuting_adjoints(alg, sub):
    # row i of ad a . ad b is [[e_i, a], b]
    rows = [list(r) for r in sub.rows]
    ads = [alg.ad(r) for r in rows]
    for a, b in combinations(range(len(rows)), 2):
        for i in range(alg.dim):
            if alg.bracket(ads[a][i], rows[b]) != alg.bracket(ads[b][i], rows[a]):
                raise PreconditionFailed(
                    "adjoint maps of the subalgebra do not commute; "
                    "the decomposition would not be canonical"
                )


def _restrict_operator(field, matrix, block: Subspace):
    """Matrix of a row-convention operator restricted to an invariant block."""
    if block.is_full():
        # the canonical basis of the whole space is the identity
        return matrix
    rows = []
    for r in block.rows:
        image = vec_mat(field, list(r), matrix)
        coords = block.coords(image)
        if coords is None:
            raise PreconditionFailed("subspace is not invariant under the operator")
        rows.append(coords)
    return rows


def _stable_power(field, t, k):
    """An int matrix with the kernel and row space of T^k: T over one
    common denominator (residues over GF(p)), squared until the exponent
    reaches k or the matrix vanishes.  For a k x k matrix T, ker T^e and
    im T^e are those of T^k for every e >= k."""
    size = len(t)
    ints, _ = to_scaled(field, [x for row in t for x in row])
    m = [ints[i * size : (i + 1) * size] for i in range(size)]
    e = 1
    while e < k and any(map(any, m)):
        cols = list(zip(*m))
        m = [_canon(field, [sum(map(mul, row, col)) for col in cols]) for row in m]
        e *= 2
    return m


def fitting_decomposition(alg: AnticommAlgebra, sub: Subspace):
    """Fitting pair (L0, L1) for the commuting family of adjoints of an
    abelian subalgebra: L0 is the common generalized nullspace, L1 the
    complementary invariant part."""
    field, n = alg.field, alg.dim
    _check_abelian_subalgebra(alg, sub)
    _check_commuting_adjoints(alg, sub)
    null = Subspace.full(field, n)
    one_vectors = []
    for h in sub.rows:
        if null.is_zero():
            break
        k = null.dim
        tk = _stable_power(field, _restrict_operator(field, alg.ad(list(h)), null), k)
        if not any(map(any, tk)):
            # nilpotent on L0: L0 is unchanged and L1 gains nothing
            continue
        ker = kernel_basis(field, transpose(tk), k)
        one_vectors.extend(null.lift(tk))
        null = Subspace(field, n, null.lift(ker))
    return null, Subspace(field, n, one_vectors)


@dataclass
class RootDecomposition:
    split: bool | None  # None: undecided, the eigenvalue search could not decide
    roots: list  # list of (eigenvalue tuple aligned with the subalgebra basis, Subspace)
    fitting_null: Subspace = None
    fitting_one: Subspace = None

    def root_space(self, values):
        for vals, space in self.roots:
            if vals == tuple(values):
                return space
        return None


def _char_poly_q(field, matrix):
    """Characteristic polynomial coefficients (ascending) over the
    rationals, by the trace recursion."""
    n = len(matrix)
    coeffs = [field.zero()] * (n + 1)
    coeffs[n] = field.one()
    m = None
    c = field.one()
    for k in range(1, n + 1):
        if m is None:
            m = [row[:] for row in matrix]
        else:
            shifted = [
                [x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)
            ]
            m = mat_mul(field, matrix, shifted)
        trace = sum((m[i][i] for i in range(n)), field.zero())
        c = field.div(-trace, k)
        coeffs[n - k] = c
    return coeffs


def _rational_roots(field, coeffs):
    """Rational roots with multiplicity, and a leftover flag: False when
    the polynomial splits into linear factors over the rationals, True
    when a factor has no rational root, None when a coefficient passed
    the 10^15 cap of the divisor search (undecided)."""
    from fractions import Fraction

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

    def scaled_value(ints, p, q):
        # q^n f(p/q) = sum a_i p^i q^(n-i), by Horner from the top
        val, qk = ints[-1], q
        for c in reversed(ints[:-1]):
            val = val * p + c * qk
            qk *= q
        return val

    poly = list(coeffs)  # ascending
    roots = []
    while len(poly) > 1:
        if poly[0] == 0:
            roots.append(Fraction(0))
            poly = poly[1:]
            continue
        denom = 1
        for c in poly:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in poly]
        lead, const = ints[-1], ints[0]
        if abs(const) > 10**15 or abs(lead) > 10**15:
            return roots, None
        # a pair with a common factor repeats a reduced candidate met
        # earlier in the loop
        qs = divisors(lead)
        found = next(
            (
                Fraction(sp, q)
                for p in divisors(const)
                for q in qs
                if gcd(p, q) == 1
                for sp in (p, -p)
                if scaled_value(ints, sp, q) == 0
            ),
            None,
        )
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


def _eigenspaces(field, matrix):
    """(eigenvalue, generalized eigenspace basis) pairs, the candidates
    being every element of a small prime field or the rational roots of
    the characteristic polynomial; None when the candidates are not
    known to include every eigenvalue (a prime field above 4096, or
    rational coefficients past the root search's cap), and no pairs when
    they are known to miss one.  A candidate with a zero kernel is no
    eigenvalue, so only eigenvalues pay for the power by squaring."""
    n = len(matrix)
    if field.char == 0:
        roots, leftover = _rational_roots(field, _char_poly_q(field, matrix))
        if leftover is None:
            return None
        if leftover:
            return []
        candidates = sorted(set(roots))
    elif field.char <= 4096:
        candidates = range(field.char)
    else:
        return None
    out = []
    for lam in candidates:
        # unreduced over GF(p): the kernel and the power reduce their input
        shifted = [
            [x - lam if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
        if kernel_basis(field, transpose(shifted), n):
            power = _stable_power(field, shifted, n)
            out.append((lam, kernel_basis(field, transpose(power), n)))
    return out


def root_decomposition(alg: AnticommAlgebra, sub: Subspace):
    """Simultaneous generalized eigenspace decomposition for the adjoint
    family of an abelian subalgebra.  When some characteristic
    polynomial does not split, returns split=False with Fitting data
    only; split=None when the eigenvalue search cannot decide (a prime
    field above 4096, or rational coefficients past its cap)."""
    field, n = alg.field, alg.dim
    null, one = fitting_decomposition(alg, sub)
    blocks = [(Subspace.full(field, n), ())]
    for h in sub.rows:
        matrix = alg.ad(list(h))
        fresh = []
        for block, values in blocks:
            t = _restrict_operator(field, matrix, block)
            eig = _eigenspaces(field, t)
            if eig is None or sum(len(ker) for _, ker in eig) != block.dim:
                return RootDecomposition(None if eig is None else False, [], null, one)
            for lam, ker in eig:
                space = Subspace(field, n, block.lift(ker))
                fresh.append((space, values + (lam,)))
        blocks = fresh
    roots = sorted(
        ((vals, space) for space, vals in blocks),
        key=lambda pair: tuple(str(v) for v in pair[0]),
    )
    return RootDecomposition(True, roots, null, one)


@dataclass
class RootPropertiesReport:
    ok: bool
    orthogonality_violations: list
    bracket_violations: list


def check_root_properties(alg: AnticommAlgebra, sub: Subspace):
    """Exact verification on a split decomposition: root spaces with
    root sum nonzero pair to zero under the form, and brackets of root
    spaces land in the root space of the sum."""
    field, n = alg.field, alg.dim
    _check_radical_part(alg, sub)
    dec = root_decomposition(alg, sub)
    if dec.split is None:
        raise PreconditionFailed("splitting is undecided: the eigenvalue search cannot decide it")
    if not dec.split:
        raise PreconditionFailed("the decomposition does not split over this field")
    ortho, brackets = [], []
    for (va, sa), (vb, sb) in combinations(dec.roots, 2):
        if any(vec_add(field, va, vb)):
            for ra in sa.rows:
                for rb in sb.rows:
                    if alg.omega(list(ra), list(rb)):
                        ortho.append((va, vb))
    for (va, sa) in dec.roots:
        for (vb, sb) in dec.roots:
            sums = tuple(vec_add(field, va, vb))
            target = dec.root_space(sums)
            for ra in sa.rows:
                for rb in sb.rows:
                    image = alg.bracket(list(ra), list(rb))
                    if vec_is_zero(field, image):
                        continue
                    if target is None or not target.contains(image):
                        brackets.append((va, vb))
    return RootPropertiesReport(not ortho and not brackets, ortho, brackets)


def binomial_identity_check(alg: AnticommAlgebra, sub: Subspace, n_max: int):
    """Exact check of the two shifted-power identities

      sum_i C(n,i) w((ad h + a)^(n-i) x, (ad h + b)^i y) = (a+b)^n w(x,y)
      sum_i C(n,i) [(ad h + a)^(n-i) x, (ad h + b)^i y]
          = (ad h + a + b)^n [x,y] - n (a+b)^(n-1) w(x,y) h

    for basis x, y, every basis h of the subalgebra, 1 <= n <= n_max and
    sampled shifts a, b in {0, 1, -1, 2}.
    """
    from math import comb

    field, dim = alg.field, alg.dim
    _check_radical_part(alg, sub)
    shifts = [field.coerce(v) for v in (0, 1, -1, 2)]
    e = [basis_vector(field, dim, i) for i in range(dim)]
    for h in sub.rows:
        ad_h = alg.ad(list(h))

        def shifted_powers(shift, vec):
            out = [list(vec)]
            for _ in range(n_max):
                prev = out[-1]
                out.append(
                    vec_add(field, vec_mat(field, prev, ad_h), vec_scale(field, shift, prev))
                )
            return out

        for a in shifts:
            for b in shifts:
                ab = a + b
                ab_pows = _canon(field, [ab**k for k in range(n_max + 1)])
                for xi in range(dim):
                    powers_x = shifted_powers(a, e[xi])
                    for yi in range(dim):
                        powers_y = shifted_powers(b, e[yi])
                        wxy = alg.omega(e[xi], e[yi])
                        powers_br = shifted_powers(ab, alg.bracket(e[xi], e[yi]))
                        for npow in range(1, n_max + 1):
                            coeffs = [comb(npow, i) for i in range(npow + 1)]
                            pairs = [(powers_x[npow - i], powers_y[i]) for i in range(npow + 1)]
                            total = vec_dot(
                                field, coeffs, [alg.omega(u, v) for u, v in pairs]
                            )
                            vec_total = vec_mat(
                                field, coeffs, [alg.bracket(u, v) for u, v in pairs]
                            )
                            if any(_canon(field, [total - ab_pows[npow] * wxy])):
                                return False
                            correction = npow * ab_pows[npow - 1] * wxy
                            rhs = vec_sub(field, powers_br[npow], vec_scale(field, correction, h))
                            if vec_total != rhs:
                                return False
    return True


def filtration(alg: AnticommAlgebra, start: Subspace):
    """Descending chain L_{i+1} = {x in L_i : [x, L] <= L_i}, returned
    while strictly descending (the stable term appears once)."""
    field, n = alg.field, alg.dim
    if not alg.is_subalgebra(start):
        raise NotASubalgebra("the starting term must be a subalgebra")
    chain = [start]
    right_images = alg._product.right_images
    while True:
        cur = chain[-1]
        # x in cur with [x, e_j] in cur for all j: kernel of the reduced
        # adjoint maps in cur's coordinates
        images = [[cur.reduce(w) for w in right_images(r)] for r in cur.rows]
        conditions = []
        for j in range(n):
            for col in range(n):
                conditions.append([row[j][col] for row in images])
        coords = kernel_basis(field, conditions, len(images))
        nxt = Subspace(field, n, cur.lift(coords))
        if nxt.dim == cur.dim:
            break
        chain.append(nxt)
        if nxt.is_zero():
            break
    return chain


# -- classification -------------------------------------------------------


@dataclass
class ClassificationVerdict:
    case: str  # lie_algebra | dim_three | codim_one_lie_subalgebra |
    #            kernel_codim_two | inconclusive
    witness: Subspace | None = None
    kernel_type: str | None = None  # abelian | almost_abelian
    nilpotent_action: bool | None = None
    abelian_small_codim: Subspace | None = None

    def to_json_dict(self, field):
        def sub_json(s):
            return None if s is None else [[field.format(x) for x in r] for r in s.rows]

        return {
            "case": self.case,
            "witness": sub_json(self.witness),
            "kernel_type": self.kernel_type,
            "nilpotent_action": self.nilpotent_action,
            "abelian_small_codim": sub_json(self.abelian_small_codim),
        }


def _abelian_witness(alg: AnticommAlgebra, extra=()):
    """Best abelian subalgebra of small codimension among candidates: the
    grown spans, the radical of the form, its abelian part, ``extra`` and
    the center.  Over a small prime field (p^n at most ``ENUM_CAP``), while
    the best is of codimension > 3, spans grown from projective points
    follow, in order.  The span grown from v holds v and basis vectors
    e_j with [v, e_j] = 0, so it beats a best of dimension f only if v
    commutes with at least f basis vectors: only those points are grown
    (:func:`_centralizer_points`)."""
    field, n = alg.field, alg.dim
    e = [basis_vector(field, n, i) for i in range(n)]
    table, _ = alg._product.signed_table()
    best = None

    def floor():
        return 0 if best is None else best.dim

    def consider(sub):
        nonlocal best
        if sub is not None and sub.dim > floor() and alg.is_abelian_subspace(sub):
            best = sub

    def grown(start, clash):
        # start, then each basis vector commuting with all taken so far;
        # clash[j] is truthy iff [start, e_j] != 0, and a pair table
        # entry is empty iff its bracket is zero.  The span has dimension
        # len(taken), plus 1 when start has support outside taken; it is
        # built only when that beats the best so far
        taken = []
        for j in range(n):
            if not clash[j] and not any(table[m][j] for m in taken):
                taken.append(j)
        if len(taken) + any(c for j, c in enumerate(start) if j not in taken) > floor():
            consider(Subspace(field, n, [start] + [e[j] for j in taken]))

    for i, ei in enumerate(e):
        grown(ei, table[i])
    for cand in (alg.omega_kernel(), alg._radical_part(), *extra, alg.center()):
        consider(cand)
    if (best is None or best.codim > 3) and field.char and field.char**n <= ENUM_CAP:
        # last resort over a small prime field: largest abelian subalgebra
        # among spans of projective vectors, grown greedily
        images = alg._product.right_images
        for v in _centralizer_points(alg, floor()):
            grown(v, [any(w) for w in images(v)])
            if best is not None and best.codim <= 3:
                break
    return best


def _centralizer_points(alg: AnticommAlgebra, f):
    """The projective points v of GF(p)^n with [v, e_j] = 0 for at least
    ``f`` of the basis vectors e_j, in the order of ``projective_points``:
    the union over the f-sets S of the kernels of the right
    multiplications R_j, j in S, each a span of points."""
    field, n = alg.field, alg.dim
    # R_j : v -> [v, e_j] as n equations in v
    equations = [transpose(alg.ad(basis_vector(field, n, j))) for j in range(n)]
    kernels = {
        Subspace(field, n, kernel_basis(field, [r for j in s for r in equations[j]], n))
        for s in combinations(range(n), f)
    }
    points = {tuple(v) for sub in kernels for v in span_points(sub)}
    return [list(v) for v in sorted(points, key=lambda v: (v.index(1), v))]


def _rank2_line_parameters(alg, core: Subspace):
    """Exact parameters t for which core + K(r1 + t r2) is a subalgebra,
    when the quotient by ``core`` is 2-dimensional and core is a
    subalgebra.  The closure condition per basis row of core is a
    polynomial of degree at most 2 in t; the first nonzero one is solved
    exactly and its roots are kept where every condition vanishes, so
    the search is complete over either field.  The value t = None
    encodes the line through r2."""
    field = alg.field
    r1, r2 = core.quotient_reps()
    polys = []
    for k in core.rows:
        a = core.quotient_coords(alg.bracket(list(k), r1))
        b = core.quotient_coords(alg.bracket(list(k), r2))
        # cross((a + t b), (1, t)) = b0 t^2 + (a0 - b1) t - a1
        polys.append(_canon(field, [-a[1], a[0] - b[1], b[0]]))
    nontrivial = [p for p in polys if any(p)]
    if not nontrivial:
        return [field.zero(), None]
    params = [
        t
        for t in _quadratic_roots(field, nontrivial[0])
        if all(_poly_eval_is_zero(field, p, t) for p in nontrivial)
    ]
    # the line through r2 alone: the t^2 coefficients, first quotient
    # coordinates of [k, r2], all vanish
    if not any(p[2] for p in nontrivial):
        params.append(None)
    return params


def _quadratic_roots(field, coeffs):
    """The distinct roots in the field, ascending, of the nonzero
    polynomial c0 + c1 t + c2 t^2 given as [c0, c1, c2]; a quadratic is
    solved by its discriminant (the characteristic is not 2)."""
    c0, c1, c2 = coeffs
    if c2:
        # sqrt and div take unreduced values and return canonical ones
        root = field.sqrt(c1 * c1 - 4 * c2 * c0)
        if root is None:
            return []
        roots = {field.div(r - c1, 2 * c2) for r in (root, -root)}
    elif c1:
        roots = {field.div(-c0, c1)}
    else:
        roots = set()
    return sorted(roots)


def _poly_eval_is_zero(field, coeffs, t):
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return not any(_canon(field, [value]))


def classify(alg: AnticommAlgebra):
    """Structural verdict (see the module docstring) for an algebra that
    satisfies the law, on which every step rests: a table that is not
    an :class:`OmegaAlgebra` is certified here, and a violation raises
    :class:`PreconditionFailed`.  For a non-Lie algebra (w != 0), n >= 4:

    - (A) A Lie hyperplane H has w|H = 0, by the law on three
      independent vectors of H.  So it holds the radical (else w = 0),
      and w has rank 2: at any other rank the verdict is "inconclusive".
    - (C) A radical of codimension 2 is a subalgebra: ``two-basic`` on
      x, y in it and z, t with w(z,t) = 1 makes the z- and
      t-coordinates of [x,y] their own negatives, so 0.  So the roots of
      :func:`_rank2_line_parameters` are exactly the hyperplanes over it
      that are subalgebras.
    - (B) Each of those is isotropic, so the law makes it Lie: the first,
      in that function's order, is the witness, with no check.
    - (D) On a, b in the radical's abelian part the law gives
      [[x,a],b] = [[x,b],a]: the adjoints commute, so the action is
      nilpotent exactly when each ad h, h a basis row, is.
    """
    field, n = alg.field, alg.dim
    if not isinstance(alg, OmegaAlgebra):
        alg._certify()

    def verdict(case, extra=(), **labels):
        witness = _abelian_witness(alg, extra)
        return ClassificationVerdict(case, abelian_small_codim=witness, **labels)

    if alg.is_lie():
        return verdict("lie_algebra")
    if n == 3:
        return verdict("dim_three")
    ker = alg.omega_kernel()
    if n - ker.dim != 2:
        return verdict("inconclusive")
    part = alg._radical_part()
    if part is not None and all(
        not any(map(any, _stable_power(field, alg.ad(list(h)), n))) for h in part.rows
    ):
        return verdict("kernel_codim_two", kernel_type="almost_abelian", nilpotent_action=True)
    params = _rank2_line_parameters(alg, ker)
    if not params:
        return verdict("inconclusive")
    r1, r2 = ker.quotient_reps()
    t = params[0]  # t = 0 when every t gives a subalgebra
    line = r2 if t is None else vec_add(field, r1, vec_scale(field, t, r2))
    witness = Subspace(field, n, list(ker.rows) + [line])
    extra = [witness, alg._abelian_part(witness)]
    return verdict("codim_one_lie_subalgebra", extra, witness=witness)


def alpha_vanishing_scan(alg: AnticommAlgebra):
    """For a 3-dimensional non-Lie algebra: does every derivation-space
    basis solution, for every sampled multiplicative form, have alpha
    vanishing on the radical of the form?"""
    field, n = alg.field, alg.dim
    if n != 3:
        raise PreconditionFailed("the scan is defined for dimension 3")
    if alg.is_lie():
        raise PreconditionFailed("the scan is defined for non-Lie algebras")
    lam_set = alg.multiplicative_lambda()
    if lam_set is None:
        return True
    ker_rows = [list(r) for r in alg.omega_kernel().rows]
    for lam in lam_set.points():
        for der in al_derivation_space(alg, lam):
            if any(vec_dot(field, k, der.alpha) for k in ker_rows):
                return False
    return True
