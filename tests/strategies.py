"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import strategies as st

from olie import GF, QQ, AnticommAlgebra
from olie.linalg import basis_vector, mat_mul, rref, vec_dot, vec_mat

FIELDS = [QQ, GF(5), GF(7)]


def nonzero_scalars(field):
    """Nonzero scalars: over Q mixed denominators and signs."""
    if field.char:
        return st.integers(min_value=1, max_value=field.char - 1)
    return st.builds(
        F,
        st.integers(min_value=-9, max_value=9).filter(bool),
        st.integers(min_value=1, max_value=6),
    )


def scalars(field):
    """Scalars with many zeros: over Q mixed denominators and signs."""
    return st.one_of(st.just(field.zero()), nonzero_scalars(field))


@st.composite
def algebras(draw, field, max_dim=5, min_dim=0):
    """A random (not necessarily valid) table with a random form."""
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    bracket, omega = {}, {}
    for pair in combinations(range(n), 2):
        image = draw(st.dictionaries(st.integers(0, n - 1), scalars(field), max_size=n))
        bracket[pair] = image
        omega[pair] = draw(scalars(field))
    return AnticommAlgebra(field, n, bracket, omega)


@st.composite
def multiplicative_data(draw, field):
    """A random table of dimension 0-6 with a random covector lam and the
    form w(x, y) = lam([x, y]), for which lam is multiplicative."""
    table = draw(algebras(field, max_dim=6))
    n = table.dim
    lam = draw(st.lists(scalars(field), min_size=n, max_size=n))
    omega = {
        (i, j): vec_dot(field, table.basis_bracket(i, j), lam)
        for i, j in combinations(range(n), 2)
    }
    return AnticommAlgebra(field, n, table._bracket, omega), lam


@st.composite
def invertible_matrices(draw, field, n):
    """An invertible n x n matrix, as the rows of L U in a drawn order, L
    unit lower triangular and U upper triangular with a nonzero diagonal:
    every invertible matrix is one of these."""
    entries = lambda: draw(st.lists(scalars(field), min_size=n * n, max_size=n * n))
    lower, upper = entries(), entries()
    diagonal = draw(st.lists(nonzero_scalars(field), min_size=n, max_size=n))
    one, zero = field.one(), field.zero()
    L = [[lower[i * n + j] if j < i else one if j == i else zero for j in range(n)] for i in range(n)]
    U = [[upper[i * n + j] if j > i else diagonal[i] if j == i else zero for j in range(n)]
         for i in range(n)]
    rows = mat_mul(field, L, U)
    return [rows[i] for i in draw(st.permutations(range(n)))]


def transport(alg, P):
    """The same algebra in the basis of the rows of the invertible matrix
    ``P`` (written in the basis of ``alg``): the new structure constants
    are the brackets and forms of those rows, the brackets in the new
    coordinates."""
    field, n = alg.field, alg.dim
    augmented = [list(row) + basis_vector(field, n, i) for i, row in enumerate(P)]
    inverse = [row[n:] for row in rref(field, augmented)[0]]
    bracket, omega = {}, {}
    for i, j in combinations(range(n), 2):
        image = vec_mat(field, alg.bracket(P[i], P[j]), inverse)
        bracket[i, j] = {k: c for k, c in enumerate(image) if c}
        omega[i, j] = alg.omega(P[i], P[j])
    return AnticommAlgebra(field, n, bracket, omega)


def assert_canonical(field, values):
    if field.char:
        assert all(type(x) is int and 0 <= x < field.char for x in values)
    else:
        assert all(type(x) is F for x in values)
