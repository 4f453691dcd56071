import random
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings, strategies as st

from olie import (
    QQ,
    AlphaLambdaDerivation,
    Subspace,
    al_derivation_space,
    alpha0_bracket,
    check_al_derivation,
    ker_alpha_analysis,
)
from olie import catalog
from olie.errors import DimensionMismatch, NotALieAlgebra, PreconditionFailed
from olie.linalg import identity_matrix, kernel_basis, zero_matrix, zeros

from oracles import check_al_derivation_reference, derivation_space_dim, system_rows_reference
from strategies import FIELDS, algebras, scalars


def zero_der(field, n):
    return AlphaLambdaDerivation(zero_matrix(field, n, n), zeros(field, n), zeros(field, n))


def test_sl2_space_is_inner_only(sl2):
    """The solution space over the special linear algebra at lambda = 0 is
    exactly the inner derivations: dimension 3 with vanishing covector."""
    basis = al_derivation_space(sl2, [0, 0, 0])
    assert len(basis) == 3
    for der in basis:
        assert all(x == 0 for x in der.alpha)
        assert check_al_derivation(sl2, der)
    # the adjoint maps themselves are solutions
    for h in range(3):
        e_h = [QQ.one() if t == h else QQ.zero() for t in range(3)]
        ad = AlphaLambdaDerivation(sl2.ad(e_h), zeros(QQ, 3), zeros(QQ, 3))
        assert check_al_derivation(sl2, ad)
    assert derivation_space_dim(sl2, [0, 0, 0]) == 3


def test_n3_space_contains_extension_datum(n3):
    basis = al_derivation_space(n3, [2, 0, 0])
    assert len(basis) == 3 == derivation_space_dim(n3, [2, 0, 0])
    datum = AlphaLambdaDerivation(
        [[F(0), F(0), F(-1)], [F(1), F(0), F(0)], [F(0), F(0), F(0)]],
        [F(0), F(2), F(0)],
        [F(2), F(0), F(0)],
    )
    assert check_al_derivation(n3, datum)
    # membership in the affine span of the computed basis
    flat = [x for row in datum.matrix for x in row] + list(datum.alpha)
    span = Subspace(
        QQ, 12, [[x for row in d.matrix for x in row] + list(d.alpha) for d in basis]
    )
    assert span.contains(flat)


def test_aff1_space_is_all_endomorphisms(aff1):
    basis = al_derivation_space(aff1, [0, 0])
    assert len(basis) == 4 == derivation_space_dim(aff1, [0, 0])
    # membership rule: (a b; c d) is an ordinary derivation iff (b, d) = 0,
    # with covector (-b, -d) otherwise
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    matrix = [[F(a), F(b)], [F(c), F(d)]]
                    der = AlphaLambdaDerivation(matrix, [F(-b), F(-d)], zeros(QQ, 2))
                    assert check_al_derivation(aff1, der)
                    ordinary = AlphaLambdaDerivation(matrix, zeros(QQ, 2), zeros(QQ, 2))
                    assert check_al_derivation(aff1, ordinary) == (b == 0 and d == 0)


def test_check_rejects_identity_on_sl2(sl2):
    ident = AlphaLambdaDerivation(identity_matrix(QQ, 3), zeros(QQ, 3), zeros(QQ, 3))
    assert not check_al_derivation(sl2, ident)


def test_solver_soundness_random(gf5):
    for seed in range(15):
        alg = catalog.random_dim3(gf5, seed)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            basis = al_derivation_space(alg, lam)
            assert len(basis) == derivation_space_dim(alg, lam)
            for der in basis:
                assert check_al_derivation(alg, der)


def test_alpha0_bracket_closure(aff1, gf5):
    rng = random.Random(8)
    basis = al_derivation_space(aff1, [0, 0])
    for _ in range(10):
        def combo():
            matrix = zero_matrix(QQ, 2, 2)
            alpha = zeros(QQ, 2)
            for d in basis:
                c = F(rng.randint(-2, 2))
                for i in range(2):
                    for j in range(2):
                        matrix[i][j] += c * d.matrix[i][j]
                    alpha[i] += c * d.alpha[i]
            return AlphaLambdaDerivation(matrix, alpha, zeros(QQ, 2))

        d1, d2 = combo(), combo()
        out = alpha0_bracket(aff1, d1, d2)
        assert check_al_derivation(aff1, out)
    # bracket with itself vanishes
    d = combo()
    self_bracket = alpha0_bracket(aff1, d, d)
    assert self_bracket.is_zero_map(QQ) and all(x == 0 for x in self_bracket.alpha)


def test_alpha0_bracket_of_ordinary_is_ordinary(sl2):
    basis = al_derivation_space(sl2, [0, 0, 0])
    out = alpha0_bracket(sl2, basis[0], basis[1])
    assert all(x == 0 for x in out.alpha)
    assert check_al_derivation(sl2, out)


def test_alpha0_bracket_preconditions(n3):
    lamder = al_derivation_space(n3, [2, 0, 0])[0]
    with pytest.raises(PreconditionFailed):
        alpha0_bracket(n3, lamder, lamder)


def test_ker_alpha_analysis_family():
    field = QQ
    adx = identity_matrix(field, 3)
    adx[1][1] = F(2)
    adx[2][2] = F(3)
    fmat = zero_matrix(field, 3, 3)
    fmat[1][0] = F(1)  # eigenvector with eigenvalue 1 of the action bracket
    member = catalog.family_iiia(field, 3, adx, 1, fmat)
    # the base Lie algebra is the first 4 coordinates
    base = member.restrict(
        Subspace(field, 5, [[F(1) if t == i else F(0) for t in range(5)] for i in range(4)])
    )
    assert base.is_lie() and base.dim == 4
    sigma = F(1)
    dmat = [[fmat[i][j] + (F(1) if i == j else F(0)) for j in range(3)] + [F(0)] for i in range(3)]
    dmat.append(zeros(field, 4))
    alpha = [F(0), F(0), F(0), -sigma]
    lam = [F(0), F(0), F(0), sigma]
    der = AlphaLambdaDerivation(dmat, alpha, lam)
    assert check_al_derivation(base, der)
    report = ker_alpha_analysis(base, der)
    assert report.kind == "ker_alpha_subalgebra"
    assert report.ker_alpha == Subspace(
        field, 4, [[F(1) if t == i else F(0) for t in range(4)] for i in range(3)]
    )
    assert report.structure.kind == "abelian"


def test_ker_alpha_analysis_trivial_cases(sl2, n3):
    der = AlphaLambdaDerivation(sl2.ad([F(0), F(0), F(1)]), zeros(QQ, 3), zeros(QQ, 3))
    assert ker_alpha_analysis(sl2, der).kind == "alpha_zero"
    small = AlphaLambdaDerivation(identity_matrix(QQ, 3), [F(1), F(0), F(0)], zeros(QQ, 3))
    assert ker_alpha_analysis(sl2, small).kind == "small_dim"
    with pytest.raises(NotALieAlgebra):
        ker_alpha_analysis(n3, der)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solution_space_matches_reference_rows(field, data):
    """The int rows read off the signed pair table (over its common
    denominator, lambda scaled to ints) have the kernel of the dense
    field rows of the index formulas, on random tables and covectors."""
    alg = data.draw(algebras(field))
    n = alg.dim
    lam = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    want = kernel_basis(field, system_rows_reference(alg, lam), n * n + n)
    got = al_derivation_space(alg, lam)
    assert [[x for row in d.matrix for x in row] + d.alpha for d in got] == want
    assert all(d.lam == lam for d in got)


def test_lambda_of_the_wrong_length_is_a_dimension_mismatch(sl2):
    with pytest.raises(DimensionMismatch):
        al_derivation_space(sl2, [0, 0])
    with pytest.raises(DimensionMismatch):
        al_derivation_space(catalog.reduce_mod_p(sl2, 5), [0, 0, 0, 1])


def test_check_rejects_data_of_the_wrong_shape(sl2):
    """D must be n x n and alpha, lambda of length n: a 4 x 3 D once
    passed, and a 2-row D or a 2-entry alpha raised IndexError."""
    ad_h = sl2.ad([F(0), F(0), F(1)])
    bad = [
        AlphaLambdaDerivation(ad_h + [zeros(QQ, 3)], zeros(QQ, 3), zeros(QQ, 3)),
        AlphaLambdaDerivation(ad_h[:2], zeros(QQ, 3), zeros(QQ, 3)),
        AlphaLambdaDerivation(ad_h, zeros(QQ, 2), zeros(QQ, 3)),
        AlphaLambdaDerivation(ad_h, zeros(QQ, 3), zeros(QQ, 2)),
        AlphaLambdaDerivation([row[:2] for row in ad_h], zeros(QQ, 3), zeros(QQ, 3)),
    ]
    for der in bad:
        with pytest.raises(DimensionMismatch):
            check_al_derivation(sl2, der)
    assert check_al_derivation(sl2, AlphaLambdaDerivation(ad_h, zeros(QQ, 3), zeros(QQ, 3)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_check_coerces_its_data(field):
    """Plain ints, negative or past p, read as the field's scalars."""
    sl2 = catalog.builtin_algebra("lie.sl2", field)
    ad_e = [[0, 0, 0], [0, 0, -1], [1 + field.char, 0, 0]]
    assert check_al_derivation(sl2, AlphaLambdaDerivation(ad_e, [0, 0, 0], [0, 0, 0]))
    assert not check_al_derivation(sl2, AlphaLambdaDerivation(ad_e, [0, 0, 1], [0, 0, 0]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_check_matches_the_dense_residual(field, data):
    """The verdict of the rows-based check is that of the dense residual
    on a combination of solutions (which holds) and on the same data
    with one drawn entry of D or alpha shifted (which mostly fails)."""
    alg = data.draw(algebras(field))
    n = alg.dim
    lam = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    flat = [field.zero()] * (n * n + n)
    for sol in al_derivation_space(alg, lam):
        c = data.draw(scalars(field))
        vec = [x for row in sol.matrix for x in row] + sol.alpha
        flat = [field.add(a, field.mul(c, b)) for a, b in zip(flat, vec)]
    if n and data.draw(st.booleans()):
        t = data.draw(st.integers(0, n * n + n - 1))
        flat[t] = field.add(flat[t], data.draw(scalars(field)))
    der = AlphaLambdaDerivation([flat[i * n : i * n + n] for i in range(n)], flat[n * n :], lam)
    got = check_al_derivation(alg, der)
    event(f"verdict {got}")
    assert got is check_al_derivation_reference(alg, der)
