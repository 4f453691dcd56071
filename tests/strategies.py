"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import strategies as st

from olie import GF, QQ, AnticommAlgebra
from olie.linalg import vec_dot

FIELDS = [QQ, GF(5), GF(7)]


def scalars(field):
    """Scalars with many zeros: over Q mixed denominators and signs."""
    if field.char:
        nonzero = st.integers(min_value=1, max_value=field.char - 1)
    else:
        nonzero = st.builds(
            F,
            st.integers(min_value=-9, max_value=9).filter(bool),
            st.integers(min_value=1, max_value=6),
        )
    return st.one_of(st.just(field.zero()), nonzero)


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


def assert_canonical(field, values):
    if field.char:
        assert all(type(x) is int and 0 <= x < field.char for x in values)
    else:
        assert all(type(x) is F for x in values)
