"""Exact linear algebra over a field object.

Vectors are plain lists of scalars, matrices are lists of rows.  Linear
maps on the algebra side use the row convention: the matrix row ``i`` is
the image of the ``i``-th basis vector, and a map is applied to a vector
with :func:`vec_mat`.  ``kernel_basis`` and ``solve_affine`` use the
usual column convention ``m @ x``.

Every scalar this module returns is canonical: a ``Fraction`` over Q, an
int in ``[0, p)`` over GF(p).  Code computes with ``+ - *`` and tests for
zero by truthiness, which is exact in both fields; the one step that
depends on the field, an exact value becoming a canonical scalar, is the
private ``_canon``, applied once per result entry.

:class:`Echelon` is the one elimination kernel, for both fields: the
solvers, :class:`Subspace` (a canonical reduced row-echelon basis, so
equal subspaces compare equal) and :func:`rref` read their results
off it.  :class:`SkewProduct` is the matching kernel for an algebra's
bracket and form, and every system and operator read off the bracket
is built from its signed pair table as int rows.  Both keep their
field-specific int forms private; no other module reads them.  Chains
of products run on scaled vectors ``(ints, den)`` (:func:`to_scaled`),
whose ints over GF(p) may stay unreduced until a product,
:func:`from_scaled` or the kernel reduces them, so callers never take
``% p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import gcd, lcm
from operator import add, mul, sub

from .errors import DimensionMismatch, PreconditionFailed
from .fields import same_field

_ZERO = Fraction(0)


def zeros(field, n):
    z = field.zero()
    return [z] * n


def basis_vector(field, n, i):
    v = zeros(field, n)
    v[i] = field.one()
    return v


def _canon(field, values):
    """The canonical scalars of exact values: each reduced mod p over
    GF(p), the values themselves over Q.  The one place where a value
    computed with ``+ - *`` becomes a canonical scalar."""
    p = field.char
    return [x % p for x in values] if p else list(values)


def vec_is_zero(field, v):
    return not any(v)


def vec_add(field, u, v):
    return _canon(field, map(add, u, v))


def vec_sub(field, u, v):
    return _canon(field, map(sub, u, v))


def vec_scale(field, c, v):
    return _canon(field, [c * x for x in v])


def vec_dot(field, u, v):
    return _canon(field, [sum(map(mul, u, v), field.zero())])[0]


def vec_mat(field, v, m):
    """Row vector times matrix: the row-convention application of a map."""
    out = zeros(field, len(m[0]) if m else 0)
    for i, c in enumerate(v):
        if c:
            out = [a + c * b for a, b in zip(out, m[i])]
    return _canon(field, out)


def mat_mul(field, a, b):
    return [vec_mat(field, row, b) for row in a]


def mat_add(field, a, b):
    return [vec_add(field, ra, rb) for ra, rb in zip(a, b)]


def mat_sub(field, a, b):
    return [vec_sub(field, ra, rb) for ra, rb in zip(a, b)]


def mat_scale(field, c, a):
    return [vec_scale(field, c, row) for row in a]


def identity_matrix(field, n):
    return [basis_vector(field, n, i) for i in range(n)]


def zero_matrix(field, rows, cols):
    return [zeros(field, cols) for _ in range(rows)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


# the budget of the exhaustive searches: each enumerates only when its
# own count is at most this, p^n vectors for the ideal and witness scans
# over GF(p), p + 1 hyperplanes over a codimension-2 subspace, and the
# C(n, k) or n^k basis tuples of an identity
ENUM_CAP = 10**6

# the budget of a dense linear system in rows x columns cells: at dim n
# the deformation system has C(n, 3) n x C(n, 2) (n + 1) (2.3e6 at n = 12,
# 1.2e7 at n = 15), the derivation system C(n, 2) n x (n^2 + n) (1.2e5 at
# n = 12, 1.2e7 at n = 30)
SYSTEM_CAP = 10 * ENUM_CAP


def check_system_size(what, rows, cols):
    """Raise :class:`PreconditionFailed`, naming the limit, for a system
    past ``SYSTEM_CAP`` cells; callers check before building any row."""
    if rows * cols > SYSTEM_CAP:
        raise PreconditionFailed(
            f"the {what} system has {rows} x {cols} = {rows * cols} cells, "
            f"past the limit of {SYSTEM_CAP}"
        )


def projective_points(p, k):
    """The nonzero vectors of GF(p)^k up to scale, as int lists whose
    first nonzero entry is 1: lead position ascending, then the tail in
    lexicographic order."""
    for lead in range(k):
        head = [0] * lead + [1]
        for tail in product(range(p), repeat=k - lead - 1):
            yield head + list(tail)


def span_points(sub):
    """The projective points of a :class:`Subspace` over GF(p), each with
    first nonzero entry 1, in the order :func:`projective_points` gives
    them in K^ambient: the point with coefficients ``c`` on the rows
    leads at the pivot of the first nonzero ``c``, and as the rows vanish
    at each other's pivots, points with one lead order as their ``c``."""
    field = sub.field
    for c in projective_points(field.char, sub.dim):
        yield vec_mat(field, c, sub.rows)


class SkewProduct:
    """An alternating bilinear map K^n x K^n -> K^m given on basis pairs.

    ``entries`` maps pairs ``i < j`` to sparse images ``{k: c}``; the
    signed pair table holds both ``(i, j)`` and ``(j, i)``, and a product
    loops only over the nonzero coordinates of its two operands.  Over
    GF(p) the table holds ints, products are accumulated as ints and
    reduced once per output entry.  Over Q the table is scaled to
    integers by a common denominator ``D`` and each operand by its own,
    so the inner loop adds ints and one ``Fraction(v, dx*dy*D)`` is
    built per nonzero output entry.  ``__call__`` takes and returns
    canonical scalars; :meth:`scaled` and :meth:`basis_jacobian` stay in
    scaled vectors (see :func:`to_scaled`).  The images ``[x, e_j]``
    that :meth:`right_images` and the spin of :class:`Echelon` read
    take one pass: :meth:`_packed_images` over GF(p) with p <= 13,
    :meth:`_int_images` otherwise.  Only this class reads the table.
    """

    __slots__ = ("field", "out_dim", "_rows", "_den", "_packed", "_coadjoint")

    def __init__(self, field, dim, out_dim, entries):
        self.field = field
        self.out_dim = out_dim
        self._packed = self._coadjoint = None
        den = 1
        if not field.char:
            den = lcm(*[c.denominator for image in entries.values() for c in image.values()])
        rows = [[()] * dim for _ in range(dim)]
        for (i, j), image in entries.items():
            pairs = tuple((k, c.numerator * (den // c.denominator)) for k, c in image.items())
            rows[i][j] = pairs
            rows[j][i] = tuple((k, -c) for k, c in pairs)
        self._rows = rows
        self._den = den

    def signed_table(self):
        """The signed pair table and its denominator ``D``: ``table[i][j]``
        holds the ``(k, c)`` pairs with ``e_i e_j = sum c/D e_k``, for
        every ordered pair.  Over GF(p) ``D`` is 1 and each ``c`` is a
        residue up to sign.  Callers only read it."""
        return self._rows, self._den

    def coadjoint(self):
        """The coadjoint product of a product of K^n into itself: its pair
        table is the transpose of this one, ``[e_k, e_j]* = sum_i c e_i``
        for each ``(k, c)`` of ``[e_i, e_j]``, so :meth:`Echelon.spin`
        takes a covector ``a`` to the covectors ``a([., e_j])``.  It is
        not alternating, and only the spin reads it.  Built on first use
        and kept on the product."""
        co = self._coadjoint
        if co is None:
            n = len(self._rows)
            rows = [[[] for _ in range(n)] for _ in range(n)]
            for i, row in enumerate(self._rows):
                for j, pairs in enumerate(row):
                    for k, c in pairs:
                        rows[k][j].append((i, c))
            co = self._coadjoint = object.__new__(SkewProduct)
            co.field, co.out_dim, co._den = self.field, n, self._den
            co._packed = co._coadjoint = None
            co._rows = [[tuple(pairs) for pairs in row] for row in rows]
        return co

    def _packed_images(self, pack, coeffs):
        """The products ``[x, e_j]`` for every ``j`` over GF(p), p at most
        13, as bytes: the residue of ``[x, e_j]_k`` in byte ``j * out_dim
        + k``.  ``coeffs`` holds the residues of ``x`` as bytes, and the
        result is one reduced sum ``sum_i x_i Q_i`` (:func:`_combine`)
        over the packed pair table, whose int ``Q_i`` is laid out as the
        result, with ``[e_i, e_j]``.  The table is built on first use and
        kept on the product."""
        table = self._packed
        if table is None:
            p, m = pack[0], self.out_dim
            table = self._packed = [
                sum((c % p) << 8 * (j * m + k) for j, pairs in enumerate(row) for k, c in pairs)
                for row in self._rows
            ]
        return _combine(pack, coeffs, table).to_bytes(len(table) * self.out_dim, "little")

    def image(self, i, j):
        """The product of the basis vectors ``i`` and ``j``, as a scaled
        vector over ``D``: the dense signed pair-table entry."""
        acc = [0] * self.out_dim
        for k, c in self._rows[i][j]:
            acc[k] = c
        return acc, self._den

    def __call__(self, x, y):
        field = self.field
        return from_scaled(field, *self.scaled(to_scaled(field, x), to_scaled(field, y)))

    def scaled(self, x, y):
        """The product of two scaled vectors, as a scaled vector.  Over Q
        its denominator is ``dx*dy*D``, not reduced."""
        (xv, dx), (yv, dy) = x, y
        xs = [(i, a) for i, a in enumerate(xv) if a]
        ys = [(j, b) for j, b in enumerate(yv) if b]
        acc = _accumulate(self._rows, xs, ys, [0] * self.out_dim)
        p = self.field.char
        if p:
            return _canon(self.field, acc), 1
        return acc, dx * dy * self._den

    def basis_jacobian(self, i, j, k):
        """The Jacobian [[e_i,e_j],e_k] + [[e_k,e_i],e_j] + [[e_j,e_k],e_i]
        of three basis vectors, as a scaled vector over ``D**2``: each
        term is the signed pair row of a basis bracket times one unit."""
        rows, acc = self._rows, [0] * self.out_dim
        for a, b, c in ((i, j, k), (k, i, j), (j, k, i)):
            _accumulate(rows, rows[a][b], ((c, 1),), acc)
        p = self.field.char
        if p:
            return _canon(self.field, acc), 1
        return acc, self._den * self._den

    def right_images(self, x):
        """The products ``[x, e_j]`` for every basis vector ``e_j``, in one
        pass over the pair table: the right multiplications of the basis
        applied to ``x``.  Over GF(p) with p <= 13 they are the byte
        slices of one sum of packed ints (:meth:`_packed_images`), else
        the int images of :meth:`_int_images`."""
        field, m = self.field, self.out_dim
        pack = _PACKINGS.get(field.char)
        if pack:
            b = self._packed_images(pack, bytes([a % pack[0] for a in x]))
            return [list(b[j * m : j * m + m]) for j in range(len(self._rows))]
        xs, dx = _int_support(x)
        den = dx * self._den
        return [from_scaled(field, acc, den) for acc in self._int_images(xs)]

    def _int_images(self, xs):
        """The products ``[x, e_j]`` for every ``j`` as int vectors over
        the pair-table denominator ``D``, for ``x`` given by the ``(index,
        int)`` pairs ``xs`` of its nonzero coordinates: the one pass of
        the sparse row form over the signed pair table, which
        :meth:`right_images` and the spin of :class:`Echelon` share.
        Over GF(p) the ints are not reduced."""
        rows = self._rows
        accs = [[0] * self.out_dim for _ in rows]
        for i, a in xs:
            for acc, pairs in zip(accs, rows[i]):
                for k, c in pairs:
                    acc[k] += a * c
        return accs

    def commutes_pairwise(self, vectors):
        """Whether the product vanishes on every pair of the vectors
        (canonical scalars): each vector becomes an int row once, and
        each pair runs the int commute test of :meth:`_commutes`."""
        rows = [dict(_int_support(v)[0]) for v in vectors]
        return all(self._commutes(u, v) for u, v in combinations(rows, 2))

    def _commutes(self, u, v):
        """Whether the product of the int rows ``u`` and ``v`` (``{column:
        int}`` dicts, each at any nonzero scale) is zero: one int
        accumulation through the signed pair table, reduced mod p over
        GF(p)."""
        acc = _accumulate(self._rows, u.items(), v.items(), [0] * self.out_dim)
        p = self.field.char
        return not any(x % p for x in acc) if p else not any(acc)


def _accumulate(rows, xs, ys, acc):
    """Add into ``acc`` the int products of the supports ``xs`` and ``ys``
    (``(index, int)`` pairs) through the signed pair table ``rows``: the
    product loop of :class:`SkewProduct`.  Returns ``acc``."""
    for i, a in xs:
        row = rows[i]
        for j, b in ys:
            pairs = row[j]
            if pairs:
                ab = a * b
                for k, c in pairs:
                    acc[k] += ab * c
    return acc


def to_scaled(field, v):
    """A vector as a scaled vector ``(ints, den)``, meaning ``ints/den``.

    Over Q ``den`` is the least common denominator of the entries; over
    GF(p) the ints are residues and ``den`` is 1.  Products and sums of
    scaled vectors stay in ints, and :func:`from_scaled` turns the result
    back into canonical scalars."""
    p = field.char
    if p:
        return _canon(field, v), 1
    den = lcm(*[a.denominator for a in v])
    return [a.numerator * (den // a.denominator) for a in v], den


def from_scaled(field, ints, den):
    """The canonical scalars of the scaled vector ``ints/den``: one
    ``Fraction`` per nonzero entry over Q, residues over GF(p)."""
    if field.char:
        return _canon(field, ints)
    return [Fraction(v, den) if v else _ZERO for v in ints]


def _int_support(v):
    """The nonzero coordinates of a rational vector as ``(index, int)``
    pairs over their least common denominator, and that denominator.
    A vector of ints comes back as it is, over 1."""
    support = [(i, a) for i, a in enumerate(v) if a]
    den = lcm(*[a.denominator for _, a in support])
    if den == 1:
        return [(i, a.numerator) for i, a in support], 1
    return [(i, a.numerator * (den // a.denominator)) for i, a in support], den


def rref(field, rows):
    """Reduced row-echelon form.  Returns (rref_rows, rank, pivot_columns).

    All ``len(rows)`` rows come back, the zero rows last, every entry a
    canonical scalar of ``field``: the canonical rows of an
    :class:`Echelon` of the rows, padded.
    """
    if not rows:
        return [], 0, []
    ncols = len(rows[0])
    out, pivots = _echelon(field, rows, ncols)._canonical_rows(ncols)
    out = [list(r) for r in out]
    out.extend(zeros(field, ncols) for _ in range(len(rows) - len(pivots)))
    return out, len(pivots), pivots


def _echelon(field, rows, ncols):
    """The :class:`Echelon` of dense rows of length ``ncols``, the solvers'
    entry: it checks every row, also past full rank, where it stops."""
    ech = Echelon(field)
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatch(f"a row of length {len(row)} in a system of {ncols} columns")
        if ech.rank < ncols:
            ech.add(row)
    return ech


def bottom_up(rows):
    """The nonempty ``{column: int}`` rows by descending leading column:
    the order of a system's rows (see :class:`Echelon`)."""
    return sorted(filter(None, rows), key=min, reverse=True)


def _pairs_echelon(field, rows, ncols):
    """The :class:`Echelon` of ``{column: int}`` rows with columns below
    ``ncols``, in the order given; it stops at full rank."""
    ech = Echelon(field)
    for row in rows:
        if ech.rank == ncols:
            break
        ech.add_pairs(row.items())
    return ech


def _clear(v, hits):
    """The primitive int row ``m v - sum t_c r``, over the ``(c, r)`` of
    ``hits``, that vanishes at every column ``c``: ``m`` is the least
    positive multiplier with each ``t_c = m v[c] / r[c]`` an integer.
    Rows are dicts of nonzero entries, and each ``r`` must vanish at the
    other columns of ``hits``."""
    m = 1
    for c, r in hits:
        a = r[c]
        m = lcm(m, a // gcd(a, v[c]))
    out = {k: m * x for k, x in v.items()} if m != 1 else dict(v)
    for c, r in hits:
        t = m * v[c] // r[c]
        for k, y in r.items():
            x = out.get(k, 0) - t * y
            if x:
                out[k] = x
            else:
                del out[k]
    g = gcd(*out.values())
    if g > 1:
        return {k: x // g for k, x in out.items()}
    return out


def _clear_mod(p, v, hits):
    """``v - sum v[c] r`` over the ``(c, r)`` of ``hits``, as residues:
    each ``r`` has entry 1 at ``c`` and vanishes at the other columns of
    ``hits``, so the result vanishes at every ``c``.  Rows are dicts of
    nonzero residues."""
    out = dict(v)
    for c, r in hits:
        t = v[c]
        for k, y in r.items():
            x = (out.get(k, 0) - t * y) % p
            if x:
                out[k] = x
            else:
                del out[k]
    return out


def _packing(p):
    """The constants of packed rows over GF(p): ``p``, the translate
    table that reduces every byte mod p, the inverse of each residue,
    and how many multiply-adds ``a * r`` of residues may pile onto a
    residue before a byte must be reduced, so that none carries."""
    mod = bytes(b % p for b in range(256))
    inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]
    return p, mod, inv, (256 - p) // (p - 1) ** 2


# GF(p) rows are packed one byte per column when a byte holds a residue
# plus one multiply-add, (p - 1) + (p - 1)**2 <= 255: for p <= 13, one
# entry per prime field from GF(5) on
_PACKINGS = {p: _packing(p) for p in (5, 7, 11, 13)}


def _reduce(x, mod):
    """The packed row ``x`` with every byte reduced by the table ``mod``."""
    return int.from_bytes(x.to_bytes((x.bit_length() + 7) >> 3, "little").translate(mod), "little")


def _combine(pack, coeffs, rows):
    """``sum_i coeffs[i] rows[i]`` of packed rows, reduced: ``coeffs`` is
    a bytes of residues, and the bytes are reduced after every
    ``steps`` multiply-adds, before any can carry."""
    _, mod, _, steps = pack
    acc = count = 0
    for a, r in zip(coeffs, rows):
        if a:
            acc += a * r
            count += 1
            if count == steps:
                acc, count = _reduce(acc, mod), 0
    return _reduce(acc, mod) if count else acc


class Echelon:
    """The one elimination kernel: a row space grown one vector at a time.

    The kept rows are keyed by pivot and stay in reduced form: each is
    zero at the pivots of the others.  A row takes one of two forms,
    fixed by the field:

    - *packed*, over GF(p) with p at most 13: one Python int with the
      residue of column c in byte c.  A row is cleared at a kept pivot
      with entry ``t`` by one big-int multiply-add ``x + (p - t) r``,
      and its bytes are reduced mod p by one ``bytes.translate`` pass
      after as many of these as a byte can hold, ``(256 - p) // (p -
      1)**2``: 15 at p = 5, 6 at p = 7, 2 at p = 11, 1 at p = 13.  Past
      13 a residue plus one product, (p - 1) + (p - 1)**2, no longer
      fits in a byte.
    - *sparse*, over Q and the larger primes: a ``{column: int}`` dict
      of the nonzero entries, cleared by :func:`_clear_mod` (residues
      with pivot 1) over GF(p) and by :func:`_clear` (fraction-free,
      primitive) over Q.

    Every row enters through the insert step of its form
    (:meth:`_insert_packed`, :meth:`_insert`): it is cleared at the kept
    pivots it meets and dropped if nothing is left; otherwise its
    leading column becomes a pivot, which is cleared from the kept rows
    in turn.  :meth:`add` feeds it a dense vector, :meth:`add_pairs` an
    int row given as ``(column, int)`` pairs: the form of the
    derivation, deformation and cochain systems, whose builders order
    their rows *bottom-up*, by descending leading column
    (:func:`bottom_up`).  The reduced form does not depend on the order
    of the inserts; in this one a new pivot mostly lies left of the kept
    ones, where they are zero, so few kept rows need the back-clear.
    :meth:`spin`, the one spin kernel, feeds it the images of the kept
    rows under a :class:`SkewProduct` until the span is closed or full,
    and with its commute cut-off gives up at the first kept row that
    fails to commute with an earlier one.  :meth:`subspace`,
    :meth:`kernel` and the augmented-column read-off :meth:`_particular`
    read results off the kept rows; no code outside this class reads
    them.
    """

    __slots__ = ("_field", "_p", "_clear", "_kept", "_pack", "_mask")

    def __init__(self, field):
        self._field = field
        self._p = p = field.char
        self._kept = {}
        if not p:
            self._clear, self._pack = _clear, None
        elif pack := _PACKINGS.get(p):
            self._pack, self._mask = pack, 0  # 255 in the byte of every pivot
        else:
            self._clear, self._pack = partial(_clear_mod, p), None

    @property
    def rank(self):
        return len(self._kept)

    def add(self, v):
        """Clear the dense vector ``v`` (canonical scalars or Python ints)
        into the kept rows; returns whether it raised the rank."""
        pack = self._pack
        if pack:
            p = pack[0]
            x = int.from_bytes(bytes([a % p for a in v]), "little")
            return self._insert_packed(x) is not None
        entries = enumerate(v) if self._p else _int_support(v)[0]
        return self._insert(self._row(entries)) is not None

    def add_pairs(self, entries):
        """Clear the int row given by its ``(column, int)`` pairs
        ``entries``, each column at most once, into the kept rows; returns
        whether it raised the rank.  A packed row is built by shifting
        each residue to its byte, a sparse one by :meth:`_row`."""
        pack = self._pack
        if pack:
            p, x = pack[0], 0
            for c, a in entries:
                x |= a % p << 8 * c
            return self._insert_packed(x) is not None
        return self._insert(self._row(entries)) is not None

    def _row(self, entries):
        """The sparse row of the ``(column, int)`` pairs ``entries`` as
        :meth:`_insert` takes it: the nonzero residues over GF(p), the
        nonzero entries divided by their gcd over Q.  The one normalizer
        of sparse rows, for the vectors of :meth:`add` and the images of
        :meth:`spin`."""
        p = self._p
        if p:
            return {c: y for c, x in entries if (y := x % p)}
        r = {c: x for c, x in entries if x}
        g = gcd(*r.values())
        if g > 1:
            return {c: x // g for c, x in r.items()}
        return r

    def _insert(self, r):
        """Clear the sparse row ``r`` (a dict of nonzero entries: residues
        over GF(p), a primitive row over Q) at the kept pivots it meets
        and keep what is left, its pivot cleared from the kept rows.
        Returns the row as kept, or None when ``r`` lies in the span."""
        kept = self._kept
        hits = [(c, kept[c]) for c in r if c in kept]
        if hits:
            r = self._clear(r, hits)
        if not r:
            return None
        piv = min(r)
        p = self._p
        if p and r[piv] != 1:
            inv = pow(r[piv], p - 2, p)
            r = {c: x * inv % p for c, x in r.items()}
        for c, k in kept.items():
            if piv in k:
                kept[c] = self._clear(k, ((piv, r),))
        kept[piv] = r
        return r

    def _insert_packed(self, x):
        """:meth:`_insert` on a packed row ``x`` of residues.  The kept
        pivots it hits are the set bytes of ``x`` under the pivot mask;
        each is cleared by one multiply-add, which leaves the other hit
        bytes alone, as the kept rows vanish there, and the bytes are
        reduced after every ``steps`` clears, before any can carry.  The
        pivot is the lowest nonzero byte, scaled to 1 by the inverse
        table."""
        p, mod, inv, steps = self._pack
        kept = self._kept
        hit = x & self._mask
        count = 0
        while hit:
            s = ((hit & -hit).bit_length() - 1) & ~7
            t = (hit >> s) & 255
            hit ^= t << s
            x += (p - t) * kept[s >> 3]
            count += 1
            if count == steps:
                x, count = _reduce(x, mod), 0
        if count:
            x = _reduce(x, mod)
        if not x:
            return None
        s = ((x & -x).bit_length() - 1) & ~7
        a = (x >> s) & 255
        if a != 1:
            x = _reduce(x * inv[a], mod)
        for c, k in kept.items():
            t = (k >> s) & 255
            if t:
                kept[c] = _reduce(k + (p - t) * x, mod)
        kept[s >> 3] = x
        self._mask |= 255 << s
        return x

    def spin(self, skew, commute=False):
        """Grow the span to its closure under the right multiplications
        ``x -> [x, e_j]`` of ``skew``, a :class:`SkewProduct` of K^n
        into itself; returns whether the spin ran to the end.

        The spin kernel, one loop for both row forms: each row is spun
        once, as it stood when it was kept (the rows kept so far, then
        each row kept on the way), so the spun rows are a basis of the
        span.  Its n images enter, in the order of ``j``, through the
        insert step, as the vectors of :meth:`add` do.  Packed rows take
        their images from :meth:`SkewProduct._packed_images`, sparse rows
        from :meth:`SkewProduct._int_images` through :meth:`_row`.  A
        row's images are computed once: when it is kept if the cut-off
        is on, else at its turn to be spun.  The spin stops at full rank.

        The cut-off: with ``commute`` on, every newly kept row is tested
        against each row kept before it, and the spin gives up at the
        first pair whose product is nonzero, returning False with the
        span part-grown.  The tested rows are a basis of the span, so a
        spin that runs to the end has an abelian closure, and one that
        gives up does not.  The rows kept before the spin are tested
        pairwise first.  A packed row ``w`` is tested through its images,
        as ``[w, u] = sum_j u_j [w, e_j]`` is zero exactly when that
        combination of them is; a sparse one by
        :meth:`SkewProduct._commutes`."""
        n, pack, kept = skew.out_dim, self._pack, self._kept
        if pack:
            insert = self._insert_packed

            def images(r):
                b = skew._packed_images(pack, r.to_bytes(n, "little"))
                return [int.from_bytes(b[s : s + n], "little") for s in range(0, len(b), n)]

            def commutes(w, ims, rows):
                return not any(_combine(pack, u.to_bytes(n, "little"), ims) for u in rows)
        else:

            def images(r):
                return skew._int_images(r.items())

            def insert(w):
                return self._insert(self._row(enumerate(w)))

            def commutes(w, ims, rows):
                return all(skew._commutes(u, w) for u in rows)

        queue = list(kept.values())
        spun = [None] * len(queue)
        if commute:
            for i, u in enumerate(queue):
                spun[i] = images(u)
                if not commutes(u, spun[i], queue[:i]):
                    return False
        for i, r in enumerate(queue):  # the queue grows while it is read
            if len(kept) == n:
                break
            for w in spun[i] or images(r):
                w = insert(w)
                if w is None:
                    continue
                ims = None
                if commute:
                    ims = images(w)
                    if not commutes(w, ims, queue):
                        return False
                queue.append(w)
                spun.append(ims)
                if len(kept) == n:
                    break
        return True

    def _canonical_rows(self, ncols):
        """The canonical rows of the span, as tuples of ``ncols`` canonical
        scalars in pivot order, and the pivots: each kept row divided by
        its pivot entry.  A packed row is its bytes."""
        p, kept = self._p, self._kept
        pivots = sorted(kept)
        if self._pack:
            return [tuple(kept[c].to_bytes(ncols, "little")) for c in pivots], pivots
        out = []
        for c in pivots:
            dense = [0 if p else _ZERO] * ncols
            r = kept[c]
            if p:
                for k, x in r.items():
                    dense[k] = x
            else:
                a = r[c]
                for k, x in r.items():
                    dense[k] = Fraction(x, a)
            out.append(tuple(dense))
        return out, pivots

    def subspace(self, ambient):
        """The span as a :class:`Subspace` of K^ambient, read off the kept
        rows: equal to ``Subspace(field, ambient, vectors)`` for any
        vectors that span it."""
        rows, pivots = self._canonical_rows(ambient)
        return Subspace._reduced(self._field, ambient, rows, pivots)

    def kernel(self, ncols):
        """A basis of the ``x`` in K^ncols with ``r @ x = 0`` for every kept
        row ``r`` cut to its first ``ncols`` columns, which hold every
        pivot: one vector per free column, in column order, 1 there, 0 at
        the other free columns and minus the row entries at the pivots."""
        p, kept = self._p, self._kept
        zero, one = (0, 1) if p else (_ZERO, Fraction(1))
        free = [c for c in range(ncols) if c not in kept]
        vectors = {c: [zero] * c + [one] + [zero] * (ncols - c - 1) for c in free}
        for piv, r in kept.items():
            a = 1 if p else r[piv]
            if self._pack:  # its bytes, zeros included, which write zeros
                entries = enumerate(r.to_bytes((r.bit_length() + 7) >> 3, "little"))
            else:
                entries = r.items()
            for k, x in entries:
                v = vectors.get(k)
                if v is not None:
                    v[piv] = -x % p if p else Fraction(-x, a)
        return list(vectors.values())

    def _particular(self, ncols):
        """The solution of a system ``[rows | b]`` with its right-hand side
        in column ``ncols``, zero at the free columns, read off that
        column of the kept rows; None when the column is a pivot, that
        is, when the system is inconsistent."""
        p, kept = self._p, self._kept
        if ncols in kept:
            return None
        out = zeros(self._field, ncols)
        for piv, r in kept.items():
            x = (r >> 8 * ncols) & 255 if self._pack else r.get(ncols)
            if x:
                out[piv] = x if p else Fraction(x, r[piv])
        return out


def kernel_basis(field, rows, ncols):
    """Basis of {v : rows @ v = 0} (column convention), canonical order."""
    return _echelon(field, rows, ncols).kernel(ncols)


class Subspace:
    """A subspace of K^n held as a canonical RREF basis."""

    __slots__ = ("field", "ambient", "rows", "_pivots")

    def __init__(self, field, ambient, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows, self._pivots = _echelon(field, vectors, ambient)._canonical_rows(ambient)

    @classmethod
    def _reduced(cls, field, ambient, rows, pivots):
        """A subspace from rows already in canonical reduced form."""
        sub = object.__new__(cls)
        sub.field, sub.ambient, sub.rows, sub._pivots = field, ambient, rows, pivots
        return sub

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient)

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, identity_matrix(field, ambient))

    @property
    def dim(self):
        return len(self.rows)

    @property
    def codim(self):
        return self.ambient - len(self.rows)

    def is_zero(self):
        return not self.rows

    def is_full(self):
        return len(self.rows) == self.ambient

    def basis(self):
        return [list(r) for r in self.rows]

    def reduce(self, v):
        """Canonical representative of v modulo this subspace.  The rows
        vanish at each other's pivots and have pivot 1, so one pass
        clears every pivot; the entries are reduced once, at the end."""
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length does not match the ambient dimension")
        for row, piv in zip(self.rows, self._pivots):
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return _canon(self.field, v)

    def contains(self, v):
        return not any(self.reduce(v))

    def contains_subspace(self, other):
        self._check_compatible(other)
        return all(self.contains(r) for r in other.rows)

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside:
        the rows vanish at each other's pivots, so the coordinates are
        the pivot entries of v."""
        if not self.contains(v):
            return None
        return [v[p] for p in self._pivots]

    def lift(self, coords):
        """The ambient vectors with the given coordinates in the RREF
        basis: the inverse of :meth:`coords`, one vector per entry."""
        out = []
        for c in coords:
            if len(c) != len(self.rows):
                raise DimensionMismatch("coordinate count does not match the dimension")
            if self.rows:
                out.append(vec_mat(self.field, c, self.rows))
            else:  # no row to size the vector by
                out.append(zeros(self.field, self.ambient))
        return out

    def sum(self, other):
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other):
        """Row-space intersection via the coefficient-matching kernel."""
        self._check_compatible(other)
        field = self.field
        a, b = self.basis(), other.basis()
        if not a or not b:
            return Subspace.zero(field, self.ambient)
        # columns: coefficients on a-rows then b-rows; rows: ambient coords
        stacked = []
        for coord in range(self.ambient):
            row = [u[coord] for u in a] + [-v[coord] for v in b]
            stacked.append(row)
        combos = kernel_basis(field, stacked, len(a) + len(b))
        return Subspace(field, self.ambient, self.lift(c[: len(a)] for c in combos))

    def quotient_reps(self):
        """Standard basis vectors at the non-pivot columns: coset
        representatives of a basis of the quotient K^n / W."""
        pivot_set = set(self._pivots)
        return [
            basis_vector(self.field, self.ambient, c)
            for c in range(self.ambient)
            if c not in pivot_set
        ]

    def quotient_coords(self, v):
        """Coordinates of v + W in the basis of K^n / W given by
        :meth:`quotient_reps`."""
        red = self.reduce(v)
        pivot_set = set(self._pivots)
        return [red[c] for c in range(self.ambient) if c not in pivot_set]

    def _check_compatible(self, other):
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, tuple(self.rows)))

    def __repr__(self):
        rows = [[self.field.format(x) for x in r] for r in self.rows]
        return f"Subspace(dim {self.dim} of K^{self.ambient}: {rows})"


@dataclass
class AffineSolution:
    """Solution set {particular + k : k in kernel} of a linear system."""

    particular: list
    kernel: Subspace

    @property
    def dim(self):
        return self.kernel.dim

    @property
    def is_unique(self):
        return self.kernel.dim == 0

    def points(self):
        """Deterministic sample: the particular point, then the particular
        point shifted by each kernel basis vector."""
        field = self.kernel.field
        out = [list(self.particular)]
        for k in self.kernel.rows:
            out.append(vec_add(field, self.particular, k))
        return out

    def contains(self, v):
        if len(v) != len(self.particular):
            raise DimensionMismatch("vector length does not match the number of unknowns")
        return self.kernel.contains(vec_sub(self.kernel.field, v, self.particular))


def solve_affine(field, rows, rhs):
    """Solve rows @ x = rhs.  Returns an AffineSolution or None: one
    elimination of the rows ``[row | b]``, inconsistent exactly when the
    augmented column is a pivot, else read off as the particular point
    (zero at the free columns) and the kernel."""
    if len(rhs) != len(rows):
        raise DimensionMismatch("right-hand side length does not match the number of equations")
    if not rows:
        return AffineSolution([], Subspace.zero(field, 0))
    ncols = len(rows[0])
    ech = _echelon(field, (list(r) + [b] for r, b in zip(rows, rhs)), ncols + 1)
    particular = ech._particular(ncols)
    if particular is None:
        return None
    return AffineSolution(particular, Subspace(field, ncols, ech.kernel(ncols)))
