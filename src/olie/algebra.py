"""Anticommutative algebras with a skew form, and their basic structure theory.

An :class:`AnticommAlgebra` is given by structure constants on pairs of
basis indices ``i < j`` together with a skew bilinear form stored on the
same pairs.  The defining residual of the two-form Jacobi law is

    [[x,y],z] + [[z,x],y] + [[y,z],x] - w(x,y)z - w(z,x)y - w(y,z)x,

and an :class:`OmegaAlgebra` is an algebra certified to have zero
residual on every basis triple (sufficient, since both sides are
trilinear and alternating; this reduction is unit-tested against full
triple enumeration).  Every law-derived check reads the Jacobian of
each increasing basis triple i < j < k off the sparse table
(``SkewProduct.basis_jacobian``).  Its e_k coordinate must be
w(e_i, e_j), so from dimension 3 on the form is read off the bracket
and is unique when it exists; on repeated arguments the law forces
skewness in characteristic 0 and p >= 5.

Certification runs in :meth:`AnticommAlgebra.validate` and in the
public :class:`OmegaAlgebra` constructor.  Five constructions are
trusted instead of certified again:

- a subalgebra (``restrict``): the law holds on all of the algebra, so
  on every triple of the subalgebra;
- the quotient by an ideal inside the radical of the form
  (``quotient``): bracket and form descend, and the residual of three
  classes is the class of the residual of representatives, zero;
- a codimension-1 extension (``extensions.extend_codim1``): on the new
  triples the law is exactly the multiplicativity of lambda and the
  derivation relation, which it checks (the paper's criterion);
- a semidirect product with a module (``extensions.semidirect``): on
  the new triples the law is the module law, which it checks;
- a random dimension-3 instance (``catalog.random_dim3``): its form
  comes from :meth:`AnticommAlgebra.omega_space`, which checked the law.

The adjoint map of ``h`` is the right multiplication ``x -> [x, h]``;
its matrix follows the row convention of :mod:`olie.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import combinations

from .errors import (
    DimensionMismatch,
    KernelConditionFailed,
    NotAnIdeal,
    NotASubalgebra,
    PreconditionFailed,
    ZeroVector,
)
from .fields import same_field
from .linalg import (
    ENUM_CAP,
    AffineSolution,
    Echelon,
    SkewProduct,
    Subspace,
    _canon,
    basis_vector,
    from_scaled,
    identity_matrix,
    kernel_basis,
    projective_points,
    solve_affine,
    span_points,
    to_scaled,
    transpose,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_matrix,
    zeros,
)


def _check_pair(i, j, dim):
    if not (0 <= i < j < dim):
        raise DimensionMismatch(f"pair ({i},{j}) must satisfy 0 <= i < j < dim")


@dataclass
class Violation:
    """First basis triple on which the defining residual is nonzero."""

    triple: tuple
    residual: list

    def __bool__(self):
        return False


@dataclass
class SimplicityVerdict:
    kind: str  # "simple" | "not_simple" | "unknown"
    witness: Subspace | None = None
    certificate: str = ""

    @property
    def is_simple(self):
        return self.kind == "simple"


@dataclass
class AlmostAbelianResult:
    kind: str  # "abelian" | "almost_abelian" | "neither"
    lam: list | None = None
    abelian_part: Subspace | None = None
    x: list | None = None


class AnticommAlgebra:
    """Finite-dimensional anticommutative algebra with a skew form.

    The derived invariants (the Gram matrix, the radical of the form and
    its abelian part, the center, the commutant) are computed once per
    object, on first use; callers must not mutate what they return.
    Every construction builds a new object, which starts with none.
    """

    def __init__(self, field, dim, bracket=None, omega=None):
        table, form = {}, {}
        for (i, j), coeffs in (bracket or {}).items():
            _check_pair(i, j, dim)
            row = {}
            for k, c in coeffs.items():
                if not 0 <= k < dim:
                    raise DimensionMismatch(f"bracket target index {k} out of range")
                c = field.coerce(c)
                if c:
                    row[k] = c
            if row:
                table[(i, j)] = row
        for (i, j), c in (omega or {}).items():
            _check_pair(i, j, dim)
            c = field.coerce(c)
            if c:
                form[(i, j)] = c
        self._set_tables(field, dim, table, form)

    def _set_tables(self, field, dim, bracket, omega):
        """Adopt tables of nonzero canonical scalars on pairs i < j."""
        self.field = field
        self.dim = dim
        self._bracket = bracket
        self._omega = omega
        self._product = SkewProduct(field, dim, dim, bracket)
        self._cache = {}

    @staticmethod
    def _once(method):
        """A method of no arguments whose value is kept in ``_cache``."""
        name = method.__name__

        @wraps(method)
        def once(self):
            if name not in self._cache:
                self._cache[name] = method(self)
            return self._cache[name]

        return once

    # -- tables ---------------------------------------------------------

    @_once
    def gram(self):
        """Matrix of the form on the basis."""
        field, n = self.field, self.dim
        g = zero_matrix(field, n, n)
        for (i, j), c in self._omega.items():
            g[i][j] = c
            g[j][i] = -c
        return [_canon(field, row) for row in g]

    @cached_property
    def _form(self):
        """The form as a :class:`SkewProduct` into the line, built on
        first use: most algebras a chain grows through never read it."""
        pairs = {pair: {0: c} for pair, c in self._omega.items()}
        return SkewProduct(self.field, self.dim, 1, pairs)

    def basis_bracket(self, i, j):
        return from_scaled(self.field, *self._product.image(i, j))

    def omega_entry(self, i, j):
        return self.gram()[i][j]

    # -- bilinear extensions -------------------------------------------

    def bracket(self, x, y):
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("vector length does not match the algebra")
        return self._product(x, y)

    def omega(self, x, y):
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("vector length does not match the algebra")
        return self._form(x, y)[0]

    def bracket_scaled(self, x, y):
        """The bracket of two scaled vectors (see ``linalg.to_scaled``),
        as a scaled vector; lengths are the caller's to check."""
        return self._product.scaled(x, y)

    def omega_scaled(self, x, y):
        """The form on two scaled vectors, as a scaled scalar
        ``(int, den)``; lengths are the caller's to check."""
        (v,), den = self._form.scaled(x, y)
        return v, den

    def jacobian(self, x, y, z):
        """[[x,y],z] + [[z,x],y] + [[y,z],x], run as a compiled identity
        program."""
        from .identities import JACOBIAN, evaluate_on_vectors  # identities imports this module

        return evaluate_on_vectors(self, JACOBIAN, [x, y, z])

    def jacobi_residual(self, x, y, z):
        """The defining residual, run as the built-in ``jacobi-residual``."""
        from .identities import builtin, evaluate_on_vectors

        return evaluate_on_vectors(self, builtin("jacobi-residual"), [x, y, z])

    def d_omega(self, x, y, z):
        """The alternating scalar w([x,y],z) + w([z,x],y) + w([y,z],x), run
        as the built-in ``four-consequence``."""
        from .identities import builtin, evaluate_on_vectors

        return evaluate_on_vectors(self, builtin("four-consequence"), [x, y, z])

    def ad(self, h):
        """Matrix (row convention) of the right multiplication x -> [x, h]:
        row i is [e_i, h] = [-h, e_i], so one ``right_images`` pass."""
        if len(h) != self.dim:
            raise DimensionMismatch("vector length does not match the algebra")
        return self._product.right_images([-a for a in h])

    # -- validity -------------------------------------------------------

    def _violation(self, w):
        """The first increasing basis triple on which the law fails for the
        form ``w(i, j)`` on basis indices, as a :class:`Violation`, or
        None.

        The residual stays in ints over ``den * wden``, den that of the
        Jacobian and wden that of the form; ``Fraction``s are built only
        for a violating residual.  Over GF(p) both denominators are 1 and
        each changed entry is the difference of two residues, so it is
        zero exactly when the residue is."""
        field, n = self.field, self.dim
        jacobian = self._product.basis_jacobian
        form, wden = to_scaled(field, [w(i, j) for i in range(n) for j in range(n)])
        for i, j, k in combinations(range(n), 3):
            res, den = jacobian(i, j, k)
            if wden != 1:
                res = [v * wden for v in res]
            res[k] -= form[i * n + j] * den
            res[j] -= form[k * n + i] * den
            res[i] -= form[j * n + k] * den
            if any(res):
                return Violation((i, j, k), from_scaled(field, res, den * wden))
        return None

    def _first_violation(self):
        return self._violation(self.omega_entry)

    def validate(self):
        """Certify the defining law on all increasing basis triples.

        Returns an :class:`OmegaAlgebra` on success, else the first
        :class:`Violation` in lexicographic triple order.
        """
        violation = self._first_violation()
        if violation is not None:
            return violation
        return OmegaAlgebra._trusted(self.field, self.dim, self._bracket, self._omega)

    def is_valid(self):
        return self._first_violation() is None

    def _certify(self):
        """Raise :class:`PreconditionFailed` unless the law holds."""
        check = self._first_violation()
        if check is not None:
            raise PreconditionFailed(
                f"the defining law fails on basis triple {check.triple}: "
                f"residual {[self.field.format(x) for x in check.residual]}"
            )

    def is_lie(self):
        jacobian = self._product.basis_jacobian
        return all(not any(jacobian(*ijk)[0]) for ijk in combinations(range(self.dim), 3))

    def is_abelian(self):
        return not self._bracket

    def check_four_var(self):
        """Exact test of the four-variable consequence on increasing 4-tuples:

        w(z,t)[x,y] + w(t,y)[x,z] + w(y,z)[x,t] + w(x,t)[y,z]
        + w(z,x)[y,t] + w(x,y)[z,t]
        = dw(t,z,y)x + dw(z,t,x)y + dw(y,x,t)z + dw(x,y,z)t,

        run as the built-in identity program ``two-basic``.
        """
        from .identities import builtin, holds  # identities imports this module

        return holds(self, builtin("two-basic"))

    # -- form invariants -------------------------------------------------

    @_once
    def omega_kernel(self):
        """Radical of the form: {x : w(x, L) = 0}."""
        return Subspace(
            self.field, self.dim, kernel_basis(self.field, self.gram(), self.dim)
        )

    def omega_rank(self):
        return self.dim - self.omega_kernel().dim

    def omega_space(self):
        """All bilinear forms making the bracket satisfy the defining law,
        as an affine set in row-major coordinates w[i][j], or None.

        On repeated arguments the law forces skewness (characteristic 0
        or p >= 5), and below dimension 3 every skew form works.  From
        dimension 3 on, the e_k coordinate of the law on e_i, e_j, e_k
        is w(e_i, e_j) = J(e_i, e_j, e_k)_k, so the form is read off the
        first triple holding each pair and is the unique solution when
        it passes the law.
        """
        field, n = self.field, self.dim
        if n < 3:
            units = []
            for i, j in combinations(range(n), 2):
                u = [0] * (n * n)
                u[i * n + j], u[j * n + i] = 1, -1
                units.append(u)
            return AffineSolution(zeros(field, n * n), Subspace(field, n * n, units))
        w, jacobian = {}, self._product.basis_jacobian
        for i, j, k in combinations(range(n), 3):
            jac = from_scaled(field, *jacobian(i, j, k))
            w.setdefault((i, j), jac[k])
            w.setdefault((i, k), -jac[j])
            w.setdefault((j, k), jac[i])
            if len(w) == n * (n - 1) // 2:
                break
        particular = zeros(field, n * n)
        for (i, j), c in w.items():
            particular[i * n + j], particular[j * n + i] = c, -c
        particular = _canon(field, particular)
        if self._violation(lambda i, j: particular[i * n + j]) is not None:
            return None
        return AffineSolution(particular, Subspace.zero(field, n * n))

    # -- spans and ideals --------------------------------------------------

    @_once
    def commutant(self):
        image = self._product.image
        vectors = [image(i, j)[0] for i, j in combinations(range(self.dim), 2)]
        return Subspace(self.field, self.dim, vectors)

    @_once
    def center(self):
        """{x : [x, L] = 0}; always an abelian ideal when nonzero."""
        field, n = self.field, self.dim
        rows = []
        for j in range(n):
            adj = self.ad(basis_vector(field, n, j))
            for col in range(n):
                rows.append([adj[i][col] for i in range(n)])
        return Subspace(field, n, kernel_basis(field, rows, n))

    def ideal_closure(self, generators):
        """Smallest subspace containing the generators and closed under
        bracketing with every basis vector: an :class:`Echelon` of the
        generators grown by its spin kernel (:meth:`Echelon.spin`), which
        spins each kept row once through the signed pair table, in ints,
        and stops at full rank.

        A result of dimension < n has had every kept row spun, so it is
        an ideal by construction; the searches test only whether it is
        abelian."""
        return self._spin(generators).subspace(self.dim)

    def _spin(self, generators, commute=False):
        """The :class:`Echelon` of the spun closure of the generators, or
        None when ``commute`` is on and the closure is not abelian (the
        cut-off of :meth:`Echelon.spin`)."""
        n = self.dim
        span = Echelon(self.field)
        for v in generators:
            if len(v) != n:
                raise DimensionMismatch("vector length does not match the algebra")
            span.add(v)
        return span if span.spin(self._product, commute) else None

    def _proper_closures(self, vectors, seen, commute=False):
        """The spun closures of dimension 0 < d < n, each an ideal (see
        :meth:`ideal_closure`); with ``commute`` on, only the abelian
        ones, each spin giving up at its first non-commuting pair.
        ``seen`` is one search's set of spun vectors (as tuples of
        canonical scalars) and closures: each distinct nonzero vector is
        spun once and each distinct closure yielded once, across every
        call that shares it."""
        n = self.dim
        for v in vectors:
            key = tuple(v)
            if key in seen or not any(key):
                continue
            seen.add(key)
            span = self._spin([v], commute)
            if span is None or not 0 < span.rank < n:
                continue
            spun = span.subspace(n)
            if spun not in seen:
                seen.add(spun)
                yield spun

    def is_ideal(self, sub: Subspace):
        self._check_ambient(sub)
        images = self._product.right_images
        return all(sub.contains(w) for row in sub.rows for w in images(row))

    def _check_ambient(self, sub):
        same_field(self.field, sub.field)
        if sub.ambient != self.dim:
            raise DimensionMismatch("subspace ambient does not match the algebra")

    def is_subalgebra(self, sub: Subspace):
        self._check_ambient(sub)
        rows = [list(r) for r in sub.rows]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                if not sub.contains(self.bracket(rows[a], rows[b])):
                    return False
        return True

    def is_abelian_subspace(self, sub: Subspace):
        """Do the basis rows of ``sub`` bracket to zero pairwise?  Then
        [sub, sub] = 0, so ``sub`` is also a subalgebra.  Decided by the
        int commute test of :meth:`SkewProduct.commutes_pairwise`."""
        self._check_ambient(sub)
        return self._product.commutes_pairwise(sub.rows)

    def restrict(self, sub: Subspace):
        """Subalgebra on the canonical basis of ``sub``."""
        if not self.is_subalgebra(sub):
            raise NotASubalgebra("the subspace is not closed under the bracket")
        return self._induced(sub.basis(), sub.coords)

    def quotient(self, ideal: Subspace):
        """Quotient by an ideal contained in the radical of the form."""
        if not self.is_ideal(ideal):
            raise NotAnIdeal("the subspace is not an ideal")
        if not self.omega_kernel().contains_subspace(ideal):
            raise KernelConditionFailed(
                "the form does not vanish on the ideal's pairings; "
                "it does not descend to the quotient"
            )
        return self._induced(ideal.quotient_reps(), ideal.quotient_coords)

    def _induced(self, reps, coords):
        """The algebra on the basis ``reps`` whose bracket has the
        coordinates ``coords`` of the ambient bracket and whose form is
        the ambient form: a subalgebra or a quotient, trusted when
        ``self`` is certified (see the module docstring)."""
        field, m = self.field, len(reps)
        bracket = {}
        omega = {}
        for a, b in combinations(range(m), 2):
            image = coords(self.bracket(reps[a], reps[b]))
            entry = {k: c for k, c in enumerate(image) if c}
            if entry:
                bracket[(a, b)] = entry
            w = self.omega(reps[a], reps[b])
            if w:
                omega[(a, b)] = w
        if isinstance(self, OmegaAlgebra):
            return OmegaAlgebra._trusted(field, m, bracket, omega)
        return AnticommAlgebra(field, m, bracket, omega)

    def _abelian_part(self, sub: Subspace):
        """The abelian part of the almost-abelian decomposition of the
        subalgebra ``sub``, in ambient coordinates; None when ``sub`` is
        not a subalgebra or not almost abelian."""
        dec = self._almost_abelian(sub.rows)
        if dec.kind != "almost_abelian":
            return None
        return Subspace(self.field, self.dim, sub.lift(dec.abelian_part.rows))

    @_once
    def _radical_part(self):
        """:meth:`_abelian_part` of the radical of the form."""
        return self._abelian_part(self.omega_kernel())

    def _radical_core(self):
        """The core of the radical of the form, the largest ideal inside
        it, or None when it is zero: the common kernel of the Gram rows
        spun under the coadjoint product (:meth:`SkewProduct.coadjoint`).
        The spun covectors are the ``v -> w(e_i, [..[v, e_j1].., e_jt])``,
        so their kernel is the ``v`` whose every image under a word in the
        right multiplications lies in the radical."""
        n = self.dim
        span = Echelon(self.field)
        for row in self.gram():
            span.add(row)
        span.spin(self._product.coadjoint())
        if span.rank == n:
            return None
        return Subspace(self.field, n, span.kernel(n))

    # -- multiplicativity and related solves ------------------------------

    def multiplicative_lambda(self):
        """Affine set of linear forms with w(x,y) = form([x,y]) on basis
        pairs, or None when the system is inconsistent.  Each equation is
        the int pair-table row of [e_i, e_j], D times the bracket, against
        D w(e_i, e_j)."""
        field, n = self.field, self.dim
        rows, rhs = [], []
        for i, j in combinations(range(n), 2):
            image, den = self._product.image(i, j)
            rows.append(image)
            rhs.append(den * self.omega_entry(i, j))
        if not rows:
            return AffineSolution(zeros(field, n), Subspace.full(field, n))
        return solve_affine(field, rows, rhs)

    def normalizer_line(self, h):
        """{x : [x, h] in Kh} as a subspace."""
        field, n = self.field, self.dim
        if vec_is_zero(field, h):
            raise ZeroVector("h must be nonzero")
        line = Subspace(field, n, [h])
        rows = [line.reduce(r) for r in self.ad(h)]
        # x -> [x,h] mod Kh is x @ rows; kernel in the row convention
        return Subspace(field, n, kernel_basis(field, transpose(rows), n))

    def is_quasi_ideal(self, sub: Subspace):
        """True iff [sub, A] <= sub + A for every subspace A; equivalently
        the induced map of each right multiplication from ``sub`` on the
        quotient is a scalar multiple of the identity."""
        if not self.is_subalgebra(sub):
            return False
        reps = sub.quotient_reps()
        if not reps:
            return True
        for b in sub.rows:
            induced = [
                sub.quotient_coords(self.bracket(list(b), rep)) for rep in reps
            ]
            scalar = induced[0][0]
            for a, row in enumerate(induced):
                for c, val in enumerate(row):
                    if val != (scalar if a == c else 0):
                        return False
        return True

    def almost_abelian_decomposition(self):
        """Find a linear form f with [e_i, e_j] = f(e_j) e_i - f(e_i) e_j.

        f = 0 means abelian; a nonzero f exhibits the algebra as an
        abelian part (the kernel of f) plus one element acting on it as
        the identity; no f returns kind "neither".
        """
        return self._almost_abelian(identity_matrix(self.field, self.dim))

    def _almost_abelian(self, rows):
        """:meth:`almost_abelian_decomposition` of the span of ``rows``,
        the canonical rows u_a of a subspace, in coordinates on them: f
        with [u_a, u_b] = f(u_b) u_a - f(u_a) u_b, so the span is also a
        subalgebra.  The rows have pivot 1 and vanish at each other's
        pivots, so the right side has f(u_b) at the pivot of u_a and
        -f(u_a) at that of u_b: f is read off [u_0, u_1] and the
        [u_0, u_b], then every pair is checked."""
        field, m = self.field, len(rows)
        lam = zeros(field, m)
        if m > 1:  # else there is no pair, and f = 0
            pivots = [next(i for i, c in enumerate(u) if c) for u in rows]
            w = {(a, b): self.bracket(rows[a], rows[b]) for a, b in combinations(range(m), 2)}
            lam = _canon(field, [-w[0, 1][pivots[1]]] + [w[0, b][pivots[0]] for b in range(1, m)])
            for (a, b), image in w.items():
                u, v = rows[a], rows[b]
                if image != _canon(field, [lam[b] * x - lam[a] * y for x, y in zip(u, v)]):
                    return AlmostAbelianResult("neither")
        if vec_is_zero(field, lam):
            return AlmostAbelianResult("abelian", lam=lam)
        pivot = next(i for i, c in enumerate(lam) if c)
        e = identity_matrix(field, m)
        x = vec_scale(field, field.inv(lam[pivot]), e[pivot])
        # the kernel of f: the e_j - f(e_j) x, j != pivot
        part = [vec_sub(field, e[j], vec_scale(field, lam[j], x)) for j in range(m) if j != pivot]
        return AlmostAbelianResult("almost_abelian", lam, Subspace(field, m, part), x)

    # -- simplicity --------------------------------------------------------

    def multiplication_algebra_dim(self):
        """Dimension of the span of all words in the right multiplications
        R_j : x -> [x, e_j].

        Words are grown on the right only: the span of the kept words
        contains every R_j and is closed under right multiplication by
        each of them, so it holds every word.  Row i of m R_j is
        [m_i, e_j], so one ``right_images`` call per row of a word
        gives all n of its successors.
        """
        field, n = self.field, self.dim
        full = n * n
        span = Echelon(field)
        images = self._product.right_images

        def successors(word):
            # words are flat n x n matrices, row-major
            rows = [images(word[i * n : i * n + n]) for i in range(n)]
            return [[x for r in rows for x in r[j]] for j in range(n)]

        identity = [x for row in identity_matrix(field, n) for x in row]
        frontier = [g for g in successors(identity) if span.add(g)]
        while frontier:
            fresh = []
            for word in frontier:
                for succ in successors(word):
                    if span.add(succ):
                        if span.rank == full:
                            return full
                        fresh.append(succ)
            frontier = fresh
        return span.rank

    def simplicity(self):
        """Three-valued simplicity verdict.

        The search runs in three steps, each only when the one before
        found nothing.  First a fixed list of candidate lines is spun
        (basis vectors, their sums and differences, and the same on the
        radical of the form); a closure is an ideal by construction
        (see :meth:`ideal_closure`), so a proper nonzero one gives
        "not_simple" with the first witness in candidate order.  Then
        the multiplication algebra M(L) is computed: when it is all of
        End(L) (with a nonzero product) no proper nonzero subspace is
        invariant, over any extension field either, so no candidate
        could have hit, and the verdict is "simple".  Last, over a small
        prime field (p^n at most ``linalg.ENUM_CAP``), every projective
        line is spun, which proves "simple" or finds a witness; over the
        rationals, or past the cap, the verdict is "unknown".
        """
        field, n = self.field, self.dim
        if n == 0:
            return SimplicityVerdict("not_simple", Subspace.zero(field, 0))
        if self.commutant().is_zero():
            witness = Subspace(field, n, [basis_vector(field, n, 0)])
            if n == 1:
                witness = Subspace.zero(field, n)
            return SimplicityVerdict("not_simple", witness, "abelian")

        candidates = [basis_vector(field, n, i) for i in range(n)]
        for i, j in combinations(range(n), 2):
            ei, ej = basis_vector(field, n, i), basis_vector(field, n, j)
            candidates.append(vec_add(field, ei, ej))
            candidates.append(vec_sub(field, ei, ej))
        # line ideals of codimension > 1 live inside the radical
        ker_rows = [list(r) for r in self.omega_kernel().rows]
        candidates.extend(ker_rows)
        for a, b in combinations(range(len(ker_rows)), 2):
            candidates.append(vec_add(field, ker_rows[a], ker_rows[b]))
            candidates.append(vec_sub(field, ker_rows[a], ker_rows[b]))
        seen = set()
        found = next(self._proper_closures(candidates, seen), None)
        if found is not None:
            return SimplicityVerdict("not_simple", found, "spun ideal")
        if self.multiplication_algebra_dim() == n * n:
            return SimplicityVerdict("simple", certificate="full multiplication algebra")
        if field.char and field.char**n <= ENUM_CAP:
            lines = projective_points(field.char, n)
            found = next(self._proper_closures(lines, seen), None)
            if found is not None:
                return SimplicityVerdict("not_simple", found, "spun ideal")
            return SimplicityVerdict("simple", certificate="exhaustive spinning")
        return SimplicityVerdict("unknown")

    def find_abelian_ideal(self):
        """A nonzero abelian ideal, or None.

        Candidates are built and tested one at a time, and the first
        that passes is returned: the center, the radical of the form and
        its abelian part, the kernels of multiplicative forms, the spun
        closures of the basis lines, the commutant, and the commutant
        inside the radical.  A spun closure below dimension n is an
        ideal by construction (see :meth:`ideal_closure`), and so is a
        subspace holding the commutant, so only their abelian test
        runs.  Every closure is spun with the cut-off of
        :meth:`Echelon.spin`: the spin gives up at the first kept row
        that fails to commute with an earlier one, so a non-abelian
        closure is never completed, and an abelian one is the answer.
        These spins run in the search, not through the public
        :meth:`ideal_closure`.  Over a small prime field (p^n at most
        ``linalg.ENUM_CAP``) the search is then made complete for a
        certified algebra.  An ideal of codimension 1 contains the
        commutant, as the quotient is a line; so once the commutant has
        been tested, no abelian ideal of codimension 1 is left.  One of
        codimension >= 2 lies inside the radical of the form, so inside
        its core N, the largest ideal there (:meth:`_radical_core`, by
        linear algebra over any field), and it contains the spun closure
        of each of its lines.  So the search returns None at once when N
        is zero, and otherwise scans the closures of the lines of N, in
        the order of the radical's lines.  An uncertified table scans the
        closures of every line instead.  A None from the complete search
        is a definitive nonexistence answer.  A 1-dimensional algebra is
        its own abelian ideal.
        """
        field, n = self.field, self.dim
        if n == 1:
            return Subspace.full(field, 1)
        seen = set()

        def closures(vectors):
            return ((spun, True) for spun in self._proper_closures(vectors, seen, True))

        def candidates():
            # (subspace, whether it is an ideal by construction)
            yield self.center(), True
            ker = self.omega_kernel()
            yield ker, False
            part = self._radical_part()
            if part is not None:
                yield part, False
            lam_set = self.multiplicative_lambda()
            if lam_set is not None:
                for lam in lam_set.points():
                    if not vec_is_zero(field, lam):
                        yield Subspace(field, n, kernel_basis(field, [lam], n)), False
            yield from closures(basis_vector(field, n, i) for i in range(n))
            com = self.commutant()
            yield com, True
            yield com.intersect(ker), False
            if not (field.char and field.char**n <= ENUM_CAP):
                return
            # an OmegaAlgebra was certified when it was built
            if isinstance(self, OmegaAlgebra) or self._first_violation() is None:
                core = self._radical_core()
                if core is not None:
                    yield from closures(span_points(core))
            else:
                # a line that is an ideal is its own closure
                yield from closures(projective_points(field.char, n))

        for sub, ideal in candidates():
            if 0 < sub.dim < n and (ideal or self.is_ideal(sub)):
                if self.is_abelian_subspace(sub):
                    return sub
        return None

    # -- conversions -------------------------------------------------------

    def with_field(self, field):
        """The same tables with scalars coerced into another field."""
        bracket = {
            pair: {k: field.coerce(c) for k, c in row.items()}
            for pair, row in self._bracket.items()
        }
        omega = {pair: field.coerce(c) for pair, c in self._omega.items()}
        return AnticommAlgebra(field, self.dim, bracket, omega)

    def to_json_dict(self):
        field = self.field
        bracket = {}
        for (i, j) in sorted(self._bracket):
            row = self._bracket[(i, j)]
            bracket[f"{i + 1},{j + 1}"] = {
                str(k + 1): field.format(row[k]) for k in sorted(row)
            }
        omega = {
            f"{i + 1},{j + 1}": field.format(self._omega[(i, j)])
            for (i, j) in sorted(self._omega)
        }
        return {
            "field": field.to_json(),
            "dim": self.dim,
            "bracket": bracket,
            "omega": omega,
        }

    def __eq__(self, other):
        return (
            isinstance(other, AnticommAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self._bracket == other._bracket
            and self._omega == other._omega
        )

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dim={self.dim}, field={self.field.tag})"


class OmegaAlgebra(AnticommAlgebra):
    """An algebra known to satisfy the defining law.

    The constructor certifies its tables.  ``validate`` and the trusted
    constructions (a subalgebra, the quotient by an ideal inside the
    radical, a codimension-1 extension of a certified algebra by the
    paper's criterion, a semidirect product of a certified algebra with
    a module; see the module docstring) build one through
    ``_trusted`` without checking again.
    """

    def __init__(self, field, dim, bracket=None, omega=None):
        super().__init__(field, dim, bracket, omega)
        self._certify()

    @classmethod
    def _trusted(cls, field, dim, bracket, omega):
        """An algebra from tables that satisfy the law by construction,
        held as given: the callers build them of nonzero canonical
        scalars on pairs i < j, so no coercion pass runs."""
        out = cls.__new__(cls)
        out._set_tables(field, dim, bracket, omega)
        return out

    def validate(self):
        return self
