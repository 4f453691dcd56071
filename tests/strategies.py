"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import strategies as st

from olie import GF, QQ, AnticommAlgebra

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


def assert_canonical(field, values):
    if field.char:
        assert all(type(x) is int and 0 <= x < field.char for x in values)
    else:
        assert all(type(x) is F for x in values)
