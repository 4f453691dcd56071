import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from olie import GF, QQ, Subspace
from olie.errors import DimensionMismatch
from olie.linalg import (
    _PACKINGS,
    Echelon,
    _packing,
    _pairs_echelon,
    basis_vector,
    bottom_up,
    identity_matrix,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    projective_points,
    rref,
    solve_affine,
    vec_add,
    vec_dot,
    vec_mat,
    vec_scale,
    vec_sub,
)

from oracles import (
    intersect_reference,
    kernel_reference,
    lift_reference,
    mat_add_reference,
    mat_mul_reference,
    mat_scale_reference,
    mat_sub_reference,
    matrix_rank,
    rank_gf,
    rank_q,
    reduce_reference,
    rref_gf_dense,
    rref_reference,
    vec_add_reference,
    vec_dot_reference,
    vec_mat_reference,
    vec_scale_reference,
    vec_sub_reference,
)
from strategies import FIELDS, assert_canonical, scalars

# the fields of the suite and the last two with packed rows
ECHELON_FIELDS = FIELDS + [GF(11), GF(13)]


def test_rref_identity():
    ident = identity_matrix(QQ, 3)
    red, rank, pivots = rref(QQ, ident)
    assert red == ident and rank == 3 and pivots == [0, 1, 2]


def test_rref_zero():
    z = [[F(0), F(0)], [F(0), F(0)]]
    red, rank, pivots = rref(QQ, z)
    assert rank == 0 and pivots == []


def test_rref_dependent_rows():
    red, rank, _ = rref(QQ, [[F(1), F(2)], [F(2), F(4)]])
    assert rank == 1
    assert red[0] == [F(1), F(2)]
    assert red[1] == [F(0), F(0)]


def test_kernel_of_identity_and_zero():
    assert kernel_basis(QQ, identity_matrix(QQ, 3), 3) == []
    full = kernel_basis(QQ, [[F(0)] * 3, [F(0)] * 3], 3)
    assert len(full) == 3


def test_solve_affine_identity_and_inconsistent():
    sol = solve_affine(QQ, identity_matrix(QQ, 3), [F(1), F(2), F(3)])
    assert sol.particular == [F(1), F(2), F(3)] and sol.kernel.is_zero()
    assert solve_affine(QQ, [[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def test_subspace_ops():
    e1 = basis_vector(QQ, 3, 0)
    e2 = basis_vector(QQ, 3, 1)
    e3 = basis_vector(QQ, 3, 2)
    a = Subspace(QQ, 3, [e1])
    b = Subspace(QQ, 3, [e2])
    assert a.sum(b) == Subspace(QQ, 3, [e1, e2])
    left = Subspace(QQ, 3, [e1, e2])
    right = Subspace(QQ, 3, [e2, e3])
    assert left.intersect(right) == Subspace(QQ, 3, [e2])
    assert left.contains([F(3), F(-2), F(0)])
    assert not left.contains(e3)
    assert left.contains_subspace(a)
    with pytest.raises(DimensionMismatch):
        a.sum(Subspace(QQ, 2, [[F(1), F(0)]]))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_subspace_rejects_vectors_of_the_wrong_length(field):
    """On the line spanned by e_0 in K^3, a 2-entry vector read as
    contained, with coordinates [1], before the length was checked."""
    line = Subspace(field, 3, [[field.one(), field.zero(), field.zero()]])
    for v in ([1, 0], [1, 0, 0, 0]):
        for method in (line.reduce, line.contains, line.coords):
            with pytest.raises(DimensionMismatch):
                method(v)
    assert line.coords([1, 0, 0]) == [1]
    # a short or long spanning vector once became a row of the wrong
    # length, and lift padded short coordinates or raised IndexError
    for ambient, vectors in ((3, [[1, 2]]), (2, [[0, 0, 1]]), (2, [[1, 0], [0, 1], [1]])):
        with pytest.raises(DimensionMismatch):
            Subspace(field, ambient, vectors)
    for coords in ([[]], [[1, 2]]):
        with pytest.raises(DimensionMismatch):
            line.lift(coords)
    assert line.lift([[2]]) == [[field.coerce(2), field.zero(), field.zero()]]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_solvers_reject_rows_of_the_wrong_length(field):
    """A short right-hand side once dropped equations, and a ragged row
    raised IndexError or was cut to length; rows past full rank are
    checked too."""
    calls = [
        lambda: solve_affine(field, [[1, 0], [0, 1]], [1]),
        lambda: solve_affine(field, [[1, 0]], [1, 2]),
        lambda: solve_affine(field, [[1, 0], [0, 1, 1]], [1, 2]),
        lambda: solve_affine(field, [[1, 0], [0, 1], [1]], [1, 2, 3]),
        lambda: kernel_basis(field, [[1, 0]], 3),
        lambda: kernel_basis(field, [[0, 0, 0, 1]], 3),
        lambda: kernel_basis(field, [[1, 0], [0, 1], [1, 1, 1]], 2),
        lambda: rref(field, [[1, 0], [0, 0, 1]]),
        lambda: rref(field, [[1, 0], [0, 1], [1]]),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_affine_solution_rejects_vectors_of_the_wrong_length(field):
    """The particular point was subtracted entry by entry up to the
    shorter length, so an over-long vector read as a solution."""
    sol = solve_affine(field, [[1, 0, 0]], [1])
    assert sol.contains([1, 5, 7])
    for v in ([1, 5], [1, 5, 7, 99]):
        with pytest.raises(DimensionMismatch):
            sol.contains(v)


def test_quotient_reps_complete_basis():
    sub = Subspace(QQ, 4, [[F(1), F(1), F(0), F(0)], [F(0), F(0), F(1), F(-1)]])
    reps = sub.quotient_reps()
    assert len(reps) == 2
    total = Subspace(QQ, 4, sub.basis() + reps)
    assert total.is_full()


def test_canonical_equality():
    a = Subspace(QQ, 2, [[F(2), F(4)]])
    b = Subspace(QQ, 2, [[F(1), F(2)]])
    assert a == b and hash(a) == hash(b)


def test_gram_kernel_of_shipped_4dim_example():
    # skew matrix with entries (2,3) and (2,4) equal to 2 has a 2-dim kernel
    z = F(0)
    g = [
        [z, z, z, z],
        [z, z, F(2), F(2)],
        [z, F(-2), z, z],
        [z, F(-2), z, z],
    ]
    ker = kernel_basis(QQ, g, 4)
    assert len(ker) == 2


def test_dimension_formula_random():
    rng = random.Random(0)
    for field in (QQ, GF(5)):
        for _ in range(40):
            def rand_vec():
                if field is QQ:
                    return [F(rng.randint(-2, 2)) for _ in range(4)]
                return [rng.randrange(5) for _ in range(4)]

            a = Subspace(field, 4, [rand_vec() for _ in range(rng.randint(0, 3))])
            b = Subspace(field, 4, [rand_vec() for _ in range(rng.randint(0, 3))])
            assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


small_vecs = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    min_size=0,
    max_size=3,
)


@given(small_vecs, small_vecs)
def test_dimension_formula_hypothesis(rows_a, rows_b):
    a = Subspace(QQ, 4, [[F(x) for x in r] for r in rows_a])
    b = Subspace(QQ, 4, [[F(x) for x in r] for r in rows_b])
    total = a.sum(b)
    meet = a.intersect(b)
    assert a.dim + b.dim == total.dim + meet.dim
    assert total.contains_subspace(a) and total.contains_subspace(b)
    assert a.contains_subspace(meet) and b.contains_subspace(meet)


@given(small_vecs)
def test_reduce_is_idempotent_and_membership(rows):
    sub = Subspace(QQ, 4, [[F(x) for x in r] for r in rows])
    probe = [F(1), F(-2), F(0), F(3)]
    reduced = sub.reduce(probe)
    assert sub.reduce(reduced) == reduced
    assert sub.contains(probe) == all(x == 0 for x in reduced)


def test_kernel_vectors_annihilate():
    rng = random.Random(1)
    for _ in range(25):
        rows = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        for v in kernel_basis(QQ, rows, 5):
            for row in rows:
                assert sum(c * x for c, x in zip(row, v)) == 0


def test_rank_matches_oracle():
    rng = random.Random(2)
    for field in (QQ, GF(7)):
        for _ in range(25):
            rows = [
                [
                    F(rng.randint(-4, 4)) if field is QQ else rng.randrange(7)
                    for _ in range(4)
                ]
                for _ in range(rng.randint(1, 5))
            ]
            _, rank, _ = rref(field, rows)
            assert rank == matrix_rank(field, rows)


def test_row_convention_apply():
    m = [[F(0), F(1)], [F(2), F(0)]]
    assert vec_mat(QQ, [F(1), F(0)], m) == [F(0), F(1)]
    assert vec_mat(QQ, [F(0), F(1)], m) == [F(2), F(0)]


# -- the rref kernels against the field-generic reference ---------------------

@st.composite
def matrices(draw, field, max_rows=7, max_cols=7):
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    row = st.lists(scalars(field), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


def assert_rref_matches_reference(field, rows):
    red, rank, pivots = rref(field, rows)
    assert (red, rank, pivots) == rref_reference(field, rows)
    assert len(red) == len(rows)
    if field.char:
        assert all(type(x) is int and 0 <= x < field.char for r in red for x in r)
        assert rank == rank_gf(rows, field.char)
    else:
        assert all(type(x) is F for r in red for x in r)
        assert rank == rank_q(rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_rref_kernel_matches_reference(field, data):
    assert_rref_matches_reference(field, data.draw(matrices(field)))


def _derivation_shaped(field, rng, nrows=50, ncols=30, rank=26):
    """Tall sparse system like a dim-5 derivation one: about a quarter
    of the entries nonzero, each row a combination of two of ``rank``
    sparse base rows (rank deficient), mixed denominators over Q."""
    def scalar():
        if field.char:
            return rng.randrange(1, field.char)
        return F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.choice([1, 1, 2, 3, 4, 9]))

    base = []
    for _ in range(rank):
        row = [field.zero()] * ncols
        for c in rng.sample(range(ncols), 4):
            row[c] = scalar()
        base.append(row)
    rows = []
    for _ in range(nrows):
        a, b = rng.sample(base, 2)
        ca, cb = scalar(), scalar()
        rows.append([field.add(field.mul(ca, x), field.mul(cb, y)) for x, y in zip(a, b)])
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_int_rows_give_the_rref_of_their_scalar_rows(field, data):
    """Both kernels take rows of Python ints (the derivation and
    deformation systems are built that way) and return canonical
    scalars, as for the same rows coerced into the field."""
    nrows = data.draw(st.integers(min_value=1, max_value=7))
    ncols = data.draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.integers(min_value=-40, max_value=40))
    ints = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    frozen = [list(r) for r in ints]
    scalar_rows = [[field.coerce(x) for x in r] for r in ints]
    red = rref(field, ints)
    assert red == rref(field, scalar_rows)
    assert all(type(x) is (int if field.char else F) for r in red[0] for x in r)
    assert_rref_matches_reference(field, scalar_rows)
    assert kernel_basis(field, ints, ncols) == kernel_basis(field, scalar_rows, ncols)
    assert ints == frozen


def _omega_shaped(field, rng, nrows=625, ncols=25, rank=18):
    """Tall sparse system like the omega_space one at dim 5: each row a
    combination of two of ``rank`` sparse base rows, a zero column, and
    many zero rows."""
    def scalar():
        if field.char:
            return rng.randrange(1, field.char)
        return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    base = []
    for _ in range(rank):
        row = [field.zero()] * ncols
        for c in rng.sample(range(1, ncols), 3):
            row[c] = scalar()
        base.append(row)
    rows = []
    for i in range(nrows):
        if i % 3 == 0:
            rows.append([field.zero()] * ncols)
            continue
        a, b = rng.sample(base, 2)
        ca, cb = scalar(), scalar()
        rows.append([field.add(field.mul(ca, x), field.mul(cb, y)) for x, y in zip(a, b)])
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_kernel_edge_cases(field):
    z, one = field.zero(), field.one()
    two = field.coerce(2)
    rng = random.Random(7)
    cases = [
        [[z, z, z], [z, z, z]],  # zero rows only
        [[z, one, two], [z, two, one], [z, one, one]],  # a zero column
        [[z, two, z, one, two]],  # 1 x n
        [[two]],
        [[z], [two], [one], [z]],  # n x 1
        [[z], [z]],
        [[one, two], [z, z], [two, field.coerce(4)], [z, one]],  # zero row between
        _omega_shaped(field, rng),
        _derivation_shaped(field, rng),
    ]
    for rows in cases:
        assert_rref_matches_reference(field, rows)


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=str)
@given(data=st.data())
def test_solve_affine_kernel_from_one_elimination(field, data):
    rows = data.draw(matrices(field))
    n = len(rows[0])
    x0 = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    rhs = [vec_dot(field, r, x0) for r in rows]
    sol = solve_affine(field, rows, rhs)
    assert sol.kernel == Subspace(field, n, kernel_basis(field, rows, n))
    assert [vec_dot(field, r, sol.particular) for r in rows] == rhs
    m = len(rows)
    _, rank, _ = rref(field, rows)
    if rank == m:
        # full row rank: every right-hand side is solvable
        assert solve_affine(field, rows, [field.one()] * m) is not None
        return
    # the rows of rref([rows | I]) with a pivot in the identity block carry
    # a y with y @ rows = 0; a right-hand side with y @ rhs != 0 is inconsistent
    aug = [list(r) + basis_vector(field, m, i) for i, r in enumerate(rows)]
    red, _, pivots = rref(field, aug)
    y = next(r[n:] for r, c in zip(red, pivots) if c >= n)
    rhs_bad = [field.zero()] * m
    rhs_bad[next(i for i, c in enumerate(y) if not field.is_zero(c))] = field.one()
    assert solve_affine(field, rows, rhs_bad) is None


@st.composite
def int_rows(draw, p, max_rows=60, max_cols=15, min_rows=1, min_cols=1):
    """Int rows with negative and out-of-range residues, up to tall
    shapes; half the time combinations of a few base rows, so the rank
    falls short of both sides."""
    nrows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    ncols = draw(st.integers(min_value=min_cols, max_value=max_cols))
    entry = st.one_of(st.just(0), st.integers(min_value=-3 * p, max_value=3 * p), st.integers())
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    if draw(st.booleans()):
        return draw(st.lists(row, min_size=nrows, max_size=nrows))
    base = draw(st.lists(row, min_size=1, max_size=min(ncols, 6)))
    coeffs = draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)), min_size=nrows, max_size=nrows))
    return [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)] for cs in coeffs]


# the packed rows end at p = 13; 17 and 1000003 take the sparse ones
GF_PRIMES = [5, 7, 11, 13, 17, 1000003]


def assert_rref_gf_matches_the_dense_kernel(p, rows):
    frozen = [list(r) for r in rows]
    got, want = rref(GF(p), rows), rref_gf_dense(p, rows)
    assert got == want and repr(got) == repr(want)
    assert_canonical(GF(p), [x for r in got[0] for x in r])
    ncols = len(rows[0])
    assert kernel_basis(GF(p), rows, ncols) == kernel_reference(GF(p), rows, ncols)
    assert rows == frozen


@pytest.mark.parametrize("p", GF_PRIMES)
@settings(deadline=None)
@given(data=st.data())
def test_rref_gf_matches_the_dense_kernel(p, data):
    assert_rref_gf_matches_the_dense_kernel(p, data.draw(int_rows(p)))


@pytest.mark.parametrize("p", GF_PRIMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rref_gf_matches_the_dense_kernel_on_wide_systems(p, data):
    # ranks past 15: a row meets more kept pivots than a byte of a packed
    # row takes between reductions, at every packed p
    rows = data.draw(int_rows(p, max_rows=40, max_cols=32, min_rows=20, min_cols=20))
    assert_rref_gf_matches_the_dense_kernel(p, rows)


@pytest.mark.parametrize("p", sorted(_PACKINGS))
def test_packed_clears_reduce_before_a_byte_carries(p):
    """The last row meets m kept pivots, and every kept row holds p - 1
    in the one free column m, where the last row holds p - 1 too: the
    clears pile m products (p - 1)**2 onto that residue, on both sides
    of the reduction bound of the field."""
    steps = _packing(p)[3]
    for m in sorted({1, steps, steps + 1, 2 * steps + 1, 40}):
        rows = [[1 if k == c else p - 1 if k == m else 0 for k in range(m + 1)] for c in range(m)]
        rows.append([1] * m + [p - 1])
        assert_rref_gf_matches_the_dense_kernel(p, rows)


def test_packing_bounds_on_both_sides_of_a_byte():
    """A byte of a packed row holds a residue plus ``steps`` products of
    two residues and carries with one more; GF(13) takes one product and
    GF(17) none, so it stays sparse."""
    for p, want in [(5, 15), (7, 6), (11, 2), (13, 1), (17, 0)]:
        _, mod, inv, steps = _packing(p)
        assert steps == want
        assert (p - 1) + steps * (p - 1) ** 2 <= 255 < (p - 1) + (steps + 1) * (p - 1) ** 2
        assert list(mod) == [b % p for b in range(256)]
        assert all(a * inv[a] % p == 1 for a in range(1, p))
    assert sorted(_PACKINGS) == [5, 7, 11, 13]
    assert not Echelon(GF(17))._pack and not Echelon(QQ)._pack


# -- the incremental echelon and the GF(p) fast paths ---------------------------


def oracle_rank(field, rows):
    if not rows:
        return 0
    return rank_gf(rows, field.char) if field.char else rank_q(rows)


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=str)
@given(data=st.data())
def test_echelon_matches_rank_oracles(field, data):
    rows = data.draw(matrices(field, max_rows=9))
    n = len(rows[0])
    frozen = [list(r) for r in rows]
    ech = Echelon(field)
    for k, row in enumerate(rows):
        grew = oracle_rank(field, rows[: k + 1]) > oracle_rank(field, rows[:k])
        assert ech.add(row) == grew
        assert ech.rank == oracle_rank(field, rows[: k + 1])
    assert rows == frozen
    # the canonical form read off the kept rows is byte-equal to the
    # reference elimination and to the subspace the rows span
    got, want = ech.subspace(n), Subspace(field, n, rows)
    red, rank, pivots = rref_reference(field, rows)
    assert (got.rows, got._pivots) == ([tuple(r) for r in red[:rank]], pivots)
    assert (got.ambient, got.rows, got._pivots) == (want.ambient, want.rows, want._pivots)
    assert [[type(x) for x in r] for r in got.rows] == [[type(x) for x in r] for r in want.rows]
    assert repr(got) == repr(want)
    assert_canonical(field, [x for r in got.rows for x in r])
    # the kernel read off the kept rows is the reference one
    kernel = ech.kernel(n)
    assert kernel == kernel_reference(field, rows, n)
    assert_canonical(field, [x for v in kernel for x in v])
    # the particular point read off the last column, as a system [A | b]
    if n > 1:
        sol = solve_affine(field, [r[:-1] for r in rows], [r[-1] for r in rows])
        if sol is not None:
            assert_canonical(field, sol.particular)
            assert [vec_dot(field, r[:-1], sol.particular) for r in rows] == [r[-1] for r in rows]
    assert rows == frozen


@pytest.mark.parametrize("field", [QQ, GF(5), GF(17)], ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_insert_order_does_not_change_the_echelon(field, data):
    """Int rows given as ``(column, int)`` pairs, inserted in their drawn
    order, shuffled, by descending leading column and as dense vectors,
    leave the same canonical rows, kernel and particular point of the
    system ``[rows | b]``, b in the last column: the reduced form does
    not depend on the order of the inserts."""
    ncols = data.draw(st.integers(1, 12))
    entries = st.dictionaries(st.integers(0, ncols), st.integers(-30, 30), max_size=ncols + 1)
    rows = data.draw(st.lists(entries, max_size=24))
    shuffled = data.draw(st.permutations(rows))
    dense = Echelon(field)
    for row in rows:
        dense.add([row.get(c, 0) for c in range(ncols + 1)])
    echelons = [dense]
    for order in (rows, shuffled, bottom_up(rows)):
        ech = Echelon(field)
        for row in order:
            ech.add_pairs(row.items())
        echelons.append(ech)
    echelons.append(_pairs_echelon(field, bottom_up(rows), ncols + 1))
    want = dense._canonical_rows(ncols + 1), dense.kernel(ncols + 1), dense._particular(ncols)
    for ech in echelons:
        assert ech.rank == dense.rank
        assert (ech._canonical_rows(ncols + 1), ech.kernel(ncols + 1), ech._particular(ncols)) == want
    assert dense.kernel(ncols + 1) == kernel_reference(
        field, [[field.coerce(row.get(c, 0)) for c in range(ncols + 1)] for row in rows], ncols + 1
    )


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=str)
def test_kernel_and_affine_read_off_edge_cases(field):
    """No rows, zero rows only, full rank, and a pivot in the augmented
    column, against the reference elimination."""
    z, one, two = field.zero(), field.one(), field.coerce(2)
    systems = [
        ([], 3),
        ([[z, z, z], [z, z, z]], 3),
        ([[one, two], [two, one]], 2),  # full rank, square
        ([[one, z, two], [z, one, one]], 3),  # full row rank
        ([[two, one], [one, one], [one, two]], 2),  # full rank, past it
    ]
    for rows, n in systems:
        want = kernel_reference(field, rows, n)
        assert kernel_basis(field, rows, n) == want
        assert_canonical(field, [x for v in want for x in v])
        if rows:
            x0 = [field.coerce(k + 1) for k in range(n)]
            sol = solve_affine(field, rows, [vec_dot(field, r, x0) for r in rows])
            assert sol.kernel == Subspace(field, n, want)
            assert [vec_dot(field, r, sol.particular) for r in rows] == [vec_dot(field, r, x0) for r in rows]
            assert_canonical(field, sol.particular)
    assert solve_affine(field, [], []).dim == 0
    # a pivot in the augmented column: zero rows with a nonzero right-hand
    # side, and two parallel rows with different ones
    assert solve_affine(field, [[z, z], [z, z]], [z, one]) is None
    assert solve_affine(field, [[one, two], [two, field.coerce(4)]], [one, one]) is None
    assert solve_affine(field, [[one, two], [two, field.coerce(4)]], [one, two]).dim == 1


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=str)
def test_echelon_edge_cases(field):
    ech = Echelon(field)
    assert not ech.add([]) and ech.rank == 0
    ech = Echelon(field)
    z, one = field.zero(), field.one()
    assert not ech.add([z, z])
    assert ech.add([z, one]) and not ech.add([z, field.coerce(3)])
    assert ech.add([one, one]) and ech.rank == 2
    assert not ech.add([field.coerce(2), z])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_subspace_reduce_matches_reference(field, data):
    rows = data.draw(matrices(field))
    n = len(rows[0])
    sub = Subspace(field, n, rows)
    v = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    want = reduce_reference(field, sub.rows, v)
    got = sub.reduce(v)
    assert got == want
    if field.char:
        assert all(type(x) is int and 0 <= x < field.char for x in got)
    assert sub.contains(v) == all(field.is_zero(x) for x in want)
    assert all(sub.contains(r) for r in rows)


def _projective_recursive(p, k):
    """The recursive enumeration the searches used before ``projective_points``."""
    for lead in range(k):
        tail = k - lead - 1

        def rec(pos, cur):
            if pos == tail:
                yield [0] * lead + [1] + list(cur)
                return
            for v in range(p):
                cur.append(v)
                yield from rec(pos + 1, cur)
                cur.pop()

        yield from rec(0, [])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_points_order(p):
    for k in range(5):
        points = list(projective_points(p, k))
        assert points == list(_projective_recursive(p, k))
        assert len(points) == (p**k - 1) // (p - 1)


# -- the dense helpers against their per-scalar bodies -------------------------


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1000003)], ids=str)
@given(data=st.data())
def test_dense_helpers_match_per_scalar_references(field, data):
    """Exact equality with one field-method call per scalar, and every
    entry canonical: over GF(1000003) products of residues pass p, so a
    result entry left unreduced shows."""
    k, r, m = (data.draw(st.integers(min_value=1, max_value=5)) for _ in range(3))

    def matrix(nrows, ncols):
        row = st.lists(scalars(field), min_size=ncols, max_size=ncols)
        return data.draw(st.lists(row, min_size=nrows, max_size=nrows))

    (u, v), c = matrix(2, k), data.draw(scalars(field))
    a, b, a2 = matrix(r, k), matrix(k, m), matrix(r, k)
    left, right = Subspace(field, k, matrix(r, k)), Subspace(field, k, matrix(m, k))
    coords = matrix(3, left.dim)
    pairs = [
        ([vec_add(field, u, v)], [vec_add_reference(field, u, v)]),
        ([vec_sub(field, u, v)], [vec_sub_reference(field, u, v)]),
        ([vec_scale(field, c, u)], [vec_scale_reference(field, c, u)]),
        ([[vec_dot(field, u, v)]], [[vec_dot_reference(field, u, v)]]),
        ([vec_mat(field, u, b)], [vec_mat_reference(field, u, b)]),
        (mat_mul(field, a, b), mat_mul_reference(field, a, b)),
        (mat_add(field, a, a2), mat_add_reference(field, a, a2)),
        (mat_sub(field, a, a2), mat_sub_reference(field, a, a2)),
        (mat_scale(field, c, a), mat_scale_reference(field, c, a)),
        (kernel_basis(field, a, k), kernel_reference(field, a, k)),
        (
            left.intersect(right).basis(),
            intersect_reference(field, k, left.basis(), right.basis()),
        ),
        (left.lift(coords), lift_reference(field, k, left.basis(), coords)),
    ]
    for got, want in pairs:
        assert got == want
        assert_canonical(field, [x for row in got for x in row])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_lift_through_a_zero_subspace_gives_ambient_zero_vectors(field):
    # a zero subspace has no rows to size the vectors by
    zero = Subspace.zero(field, 3)
    assert zero.lift([[]]) == [[field.zero()] * 3]
    assert zero.lift([[], []]) == [[field.zero()] * 3] * 2
    assert_canonical(field, zero.lift([[]])[0])
    assert Subspace.zero(field, 0).lift([[]]) == [[]]
    with pytest.raises(DimensionMismatch):
        zero.lift([[field.one()]])
