import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from olie import GF, QQ, AnticommAlgebra, OmegaAlgebra, Subspace, Violation
from olie import catalog
from olie.errors import (
    DimensionMismatch,
    FieldMismatch,
    KernelConditionFailed,
    NotASubalgebra,
    PreconditionError,
    PreconditionFailed,
    ZeroVector,
)
from olie.derivations import al_derivation_space
from olie.extensions import extend_codim1
from olie.linalg import (
    Echelon,
    SkewProduct,
    basis_vector,
    from_scaled,
    projective_points,
    to_scaled,
    vec_is_zero,
)
from olie.structure import _abelian_witness

from oracles import (
    ad_reference,
    almost_abelian_decomposition_reference,
    bracket_reference,
    d_omega_reference,
    find_abelian_ideal_reference,
    first_violation_reference,
    four_var_reference,
    ideal_closure_reference,
    is_ideal_reference,
    is_lie_reference,
    jacobi_residual_reference,
    jacobian_reference,
    multiplication_algebra_dim,
    multiplicative_lambda_reference,
    omega_reference,
    omega_space_reference,
    radical_core_reference,
    simplicity_reference,
)
from strategies import FIELDS, algebras, assert_canonical, multiplicative_data, scalars


def vec(field, *entries):
    return [field.coerce(x) for x in entries]


# -- bracket, jacobian, validity -----------------------------------------


def test_bracket_table_rows(s4, sl2):
    e1 = basis_vector(QQ, 4, 0)
    e4 = basis_vector(QQ, 4, 3)
    assert s4.bracket(e1, e4) == vec(QQ, 0, 0, -1, 2)
    e, f = basis_vector(QQ, 3, 0), basis_vector(QQ, 3, 1)
    assert sl2.bracket(e, f) == vec(QQ, 0, 0, 1)


def test_bracket_alternating_random(s4):
    rng = random.Random(3)
    for _ in range(20):
        x = vec(QQ, *[rng.randint(-3, 3) for _ in range(4)])
        assert vec_is_zero(QQ, s4.bracket(x, x))


def test_jacobian_n3(n3):
    e = [basis_vector(QQ, 3, i) for i in range(3)]
    assert n3.jacobian(e[0], e[1], e[2]) == vec(QQ, 2, 0, 0)
    assert vec_is_zero(QQ, n3.jacobian(e[0], e[0], e[1]))


def test_jacobian_vanishes_on_lie(sl2):
    rng = random.Random(4)
    for _ in range(10):
        x, y, z = (vec(QQ, *[rng.randint(-2, 2) for _ in range(3)]) for _ in range(3))
        assert vec_is_zero(QQ, sl2.jacobian(x, y, z))


def test_omega_algebra_rejects_a_violation_as_precondition_failure():
    table = {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}}
    with pytest.raises(PreconditionFailed) as exc:
        OmegaAlgebra(QQ, 3, table, {(1, 2): 1})
    assert isinstance(exc.value, PreconditionError)
    assert str(exc.value).startswith("the defining law fails on basis triple (0, 1, 2)")


# -- the sparse bracket kernels against the dense reference loop ----------------


def vectors(field, n):
    return st.one_of(
        st.just([field.zero()] * n),
        st.lists(scalars(field), min_size=n, max_size=n),
        st.integers(0, max(n - 1, 0)).map(
            lambda i: basis_vector(field, n, i) if n else []
        ),
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_law_terms_match_the_dense_references(field, data):
    """``jacobian``, ``jacobi_residual`` and ``d_omega`` run identity
    programs; the references are six brackets and three forms, one
    field-method call per scalar."""
    alg = data.draw(algebras(field))
    x, y, z = (data.draw(vectors(field, alg.dim)) for _ in range(3))
    jac = alg.jacobian(x, y, z)
    assert jac == jacobian_reference(alg, x, y, z)
    res = alg.jacobi_residual(x, y, z)
    assert res == jacobi_residual_reference(alg, x, y, z)
    dw = alg.d_omega(x, y, z)
    assert dw == d_omega_reference(alg, x, y, z)
    assert_canonical(field, jac + res + [dw])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_bracket_and_omega_match_reference(field, data):
    alg = data.draw(algebras(field))
    n = alg.dim
    x = data.draw(vectors(field, n))
    y = data.draw(vectors(field, n))
    got = alg.bracket(x, y)
    assert got == bracket_reference(alg, x, y)
    assert len(got) == n
    assert_canonical(field, got)
    # the scaled product, converted back, is the same bracket
    ints, den = alg._product.scaled(to_scaled(field, x), to_scaled(field, y))
    assert field.char == 0 or (den == 1 and all(0 <= v < field.char for v in ints))
    assert from_scaled(field, ints, den) == got
    w = alg.omega(x, y)
    assert w == omega_reference(alg, x, y)
    assert_canonical(field, [w])
    for i in range(n):
        for j in range(n):
            image = alg.basis_bracket(i, j)
            e_i, e_j = basis_vector(field, n, i), basis_vector(field, n, j)
            assert image == bracket_reference(alg, e_i, e_j)
            assert_canonical(field, image)


# the fields of the suite and the last two with packed rows in ``linalg``
PACKED_EDGE_FIELDS = FIELDS + [GF(11), GF(13)]
# and two with sparse rows of residues: the first prime past packing,
# and one whose residues take three bytes each
ROW_FORM_FIELDS = PACKED_EDGE_FIELDS + [GF(17), GF(1000003)]


@pytest.mark.parametrize("field", ROW_FORM_FIELDS, ids=str)
@given(data=st.data())
def test_right_images_match_reference(field, data):
    alg = data.draw(algebras(field))
    n = alg.dim
    x = data.draw(vectors(field, n))
    images = SkewProduct(field, n, n, alg._bracket).right_images(x)
    assert len(images) == n
    for j, image in enumerate(images):
        assert image == bracket_reference(alg, x, basis_vector(field, n, j))
        assert_canonical(field, image)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_ad_matches_reference(field, data):
    """One ``right_images`` pass against n brackets of basis vectors."""
    alg = data.draw(algebras(field))
    n = alg.dim
    h = data.draw(vectors(field, n))
    got = alg.ad(h)
    assert got == ad_reference(alg, h)
    assert_canonical(field, [x for row in got for x in row])
    with pytest.raises(DimensionMismatch):
        alg.ad(h + [field.zero()])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_multiplication_algebra_dim_matches_oracle_on_random_tables(field, data):
    alg = data.draw(algebras(field, max_dim=4))
    assert alg.multiplication_algebra_dim() == multiplication_algebra_dim(alg)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_ideal_closure_matches_reference(field, data):
    alg = data.draw(algebras(field))
    n = alg.dim
    gens = data.draw(st.lists(vectors(field, n), max_size=3))
    closure = alg.ideal_closure(gens)
    assert [list(r) for r in closure.rows] == ideal_closure_reference(alg, gens)
    assert closure == Subspace(field, n, closure.basis())
    assert_canonical(field, [x for r in closure.rows for x in r])
    # the searches skip the ideal test on a closure below dimension n
    if closure.dim < n:
        assert is_ideal_reference(alg, closure.rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bracket_kernel_small_dimensions(field):
    for n in (0, 1):
        alg = AnticommAlgebra(field, n)
        z = [field.zero()] * n
        assert alg.bracket(z, z) == z == bracket_reference(alg, z, z)
        assert alg.omega(z, z) == field.zero()
        assert_canonical(field, [alg.omega(z, z)])
    one = [field.one()]
    alg = AnticommAlgebra(field, 1)
    assert alg.bracket(one, one) == [field.zero()] and alg.basis_bracket(0, 0) == [field.zero()]
    assert_canonical(field, alg.bracket(one, one))


def test_validate_catalog(s4, sl2):
    assert isinstance(s4.validate(), OmegaAlgebra)
    assert isinstance(sl2.validate(), OmegaAlgebra)


def test_validate_corrupted_n3():
    bad = AnticommAlgebra(
        QQ,
        3,
        bracket={(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
        omega={(1, 2): 1},
    )
    result = bad.validate()
    assert isinstance(result, Violation)
    assert result.triple == (0, 1, 2)


def test_validate_on_increasing_triples_is_sufficient():
    # compare with full enumeration over all index triples
    rng = random.Random(5)
    for seed in range(15):
        alg = catalog.random_dim3(QQ, seed)
        n = alg.dim
        e = [basis_vector(QQ, n, i) for i in range(n)]
        for i, j, k in product(range(n), repeat=3):
            assert vec_is_zero(QQ, alg.jacobi_residual(e[i], e[j], e[k]))
        # corrupt one form entry and recheck: some increasing triple must fail
        table = dict(alg._omega)
        table[(0, 1)] = QQ.add(table.get((0, 1), QQ.zero()), QQ.one())
        bad = AnticommAlgebra(QQ, n, alg._bracket, table)
        full_bad = any(
            not vec_is_zero(QQ, bad.jacobi_residual(e[i], e[j], e[k]))
            for i, j, k in product(range(n), repeat=3)
        )
        assert full_bad == isinstance(bad.validate(), Violation)


# -- the form: solution space, kernel, rank -------------------------------


def test_omega_space_n3_unique(n3):
    skeleton = AnticommAlgebra(QQ, 3, n3._bracket)
    sol = skeleton.omega_space()
    assert sol.is_unique
    w = sol.particular
    assert w[1 * 3 + 2] == F(2)
    nonzero = [i for i, x in enumerate(w) if x != 0]
    assert nonzero == [1 * 3 + 2, 2 * 3 + 1]


def test_omega_space_sl2_zero(sl2):
    skeleton = AnticommAlgebra(QQ, 3, sl2._bracket)
    sol = skeleton.omega_space()
    assert sol.is_unique
    assert all(x == 0 for x in sol.particular)


def test_omega_space_2dim_abelian():
    sol = AnticommAlgebra(QQ, 2).omega_space()
    assert sol.dim == 1
    k = list(sol.kernel.rows[0])
    assert k[0 * 2 + 0] == 0 and k[1 * 2 + 1] == 0
    assert k[0 * 2 + 1] == -k[1 * 2 + 0]


def test_omega_space_skewness_and_uniqueness_random():
    rng = random.Random(6)
    for field in (QQ, GF(5)):
        for trial in range(40):
            dim = rng.choice([2, 3, 4, 5])
            bracket = {}
            for i, j in combinations(range(dim), 2):
                entry = {}
                for k in range(dim):
                    c = rng.randint(-2, 2) if field is QQ else rng.randrange(5)
                    if c:
                        entry[k] = c
                if entry:
                    bracket[(i, j)] = entry
            alg = AnticommAlgebra(field, dim, bracket)
            sol = alg.omega_space()
            if sol is None:
                assert dim >= 3
                continue
            for point in sol.points():
                for i in range(dim):
                    assert field.is_zero(point[i * dim + i])
                    for j in range(dim):
                        assert field.is_zero(
                            field.add(point[i * dim + j], point[j * dim + i])
                        )
            if dim >= 3:
                assert sol.dim == 0


# -- the law read off the sparse table against the six-bracket loop ------------


@st.composite
def law_tables(draw, field):
    """A random table of dimension 0-6 (sparse to dense, mostly not
    valid), or a plain copy of a certified extension chain of dimension
    3-6."""
    if draw(st.booleans()):
        chain = catalog.random_extension_chain(
            field, draw(st.integers(0, 30)), draw(st.integers(3, 6))
        )
        if not isinstance(chain, catalog.Stuck):
            return AnticommAlgebra(field, chain.dim, chain._bracket, chain._omega)
    return draw(algebras(field, max_dim=6))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_law_checks_match_six_bracket_oracle(field, data):
    alg = data.draw(law_tables(field))
    got, want = alg._first_violation(), first_violation_reference(alg)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.triple, got.residual) == want
        assert_canonical(field, got.residual)
    assert alg.is_lie() == is_lie_reference(alg)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_omega_space_matches_full_system_oracle(field, data):
    alg = data.draw(law_tables(field))
    got, want = alg.omega_space(), omega_space_reference(alg)
    assert (got is None) == (want is None)
    if got is not None:
        particular, kernel = want
        assert got.particular == particular
        assert got.kernel.ambient == alg.dim**2
        assert [list(r) for r in got.kernel.rows] == kernel
        assert_canonical(field, got.particular + [x for r in got.kernel.rows for x in r])


def test_omega_kernel_examples(s4, sl2, sl2e):
    ker = s4.omega_kernel()
    assert ker.dim == 2 and s4.omega_rank() == 2
    assert ker.contains(vec(QQ, 0, 0, 1, -1))
    assert ker.contains(vec(QQ, 1, 0, 0, 0))
    assert sl2.omega_kernel().is_full() and sl2.omega_rank() == 0
    kere = sl2e.omega_kernel()
    assert kere == Subspace(QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 0, 1, 0)])


def test_d_omega(sl2, s4, sl2e):
    e = [basis_vector(QQ, 3, i) for i in range(3)]
    assert sl2.d_omega(e[0], e[1], e[2]) == 0
    b = [basis_vector(QQ, 4, i) for i in range(4)]
    assert s4.d_omega(b[0], b[1], b[2]) == F(4)
    assert sl2e.d_omega(b[1], b[2], b[3]) == F(-1)
    x = vec(QQ, 1, 2, -1, 0)
    assert s4.d_omega(x, x, b[1]) == 0


def test_check_four_var(s4, sl2):
    assert s4.check_four_var()
    assert sl2.check_four_var()
    # corrupted dim-3 extended by a zero row: fails
    bad = AnticommAlgebra(
        QQ,
        4,
        bracket={(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
        omega={(1, 2): 1},
    )
    assert not bad.check_four_var()
    assert not four_var_reference(bad)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_check_four_var_matches_the_dense_law(field, data):
    alg = data.draw(algebras(field, max_dim=6))
    assert alg.check_four_var() == four_var_reference(alg)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_check_four_var_holds_on_certified_chains(field):
    for seed in range(6):
        for dim in (4, 5, 6):
            alg = catalog.random_extension_chain(field, seed, dim)
            if not isinstance(alg, catalog.Stuck):
                assert alg.check_four_var() and four_var_reference(alg)


# -- commutant, spans, ideals ---------------------------------------------


def test_commutant_and_flags(s4, n3):
    assert s4.commutant().is_full()
    abelian = AnticommAlgebra(QQ, 3)
    assert abelian.commutant().is_zero() and abelian.is_abelian()
    assert abelian.is_lie()
    assert not n3.is_lie()


def test_ideal_closure(s4, aff1, sl2e):
    assert s4.ideal_closure([basis_vector(QQ, 4, 0)]).is_full()
    assert aff1.ideal_closure([basis_vector(QQ, 2, 0)]) == Subspace(
        QQ, 2, [vec(QQ, 1, 0)]
    )
    spun = sl2e.ideal_closure([basis_vector(QQ, 4, 0)])
    assert spun == Subspace(
        QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 1, 0, 0), vec(QQ, 0, 0, 1, 0)]
    )


def test_is_ideal_and_subalgebra(s4, sl2e):
    sl2_part = Subspace(
        QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 1, 0, 0), vec(QQ, 0, 0, 1, 0)]
    )
    assert sl2e.is_ideal(sl2_part)
    assert s4.is_subalgebra(sl2_part)
    assert not s4.is_ideal(sl2_part)
    assert s4.is_ideal(Subspace.full(QQ, 4))


def test_quotient_of_semidirect_returns_base(n3):
    from olie import one_dim_module, semidirect

    sd = semidirect(n3, one_dim_module(n3, [2, 0, 0]))
    line = Subspace(QQ, 4, [vec(QQ, 0, 0, 0, 1)])
    assert sd.quotient(line) == n3


def test_quotient_kernel_condition(sl2e):
    sl2_part = Subspace(
        QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 1, 0, 0), vec(QQ, 0, 0, 1, 0)]
    )
    with pytest.raises(KernelConditionFailed):
        sl2e.quotient(sl2_part)


def test_quotient_of_lie_is_lie(aff1):
    line = Subspace(QQ, 2, [vec(QQ, 1, 0)])
    q = aff1.quotient(line)
    assert q.dim == 1 and q.is_lie()


def test_restrict_examples(s4, n3):
    first3 = Subspace(
        QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 1, 0, 0), vec(QQ, 0, 0, 1, 0)]
    )
    assert s4.restrict(first3) == n3
    assert s4.restrict(Subspace.full(QQ, 4)) == s4
    last2 = Subspace(QQ, 4, [vec(QQ, 0, 0, 1, 0), vec(QQ, 0, 0, 0, 1)])
    r = s4.restrict(last2)
    assert r.dim == 2 and r.is_abelian()
    with pytest.raises(NotASubalgebra):
        s4.restrict(Subspace(QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 0, 0, 1)]))


def test_is_abelian_subspace_sees_every_pair():
    # a single nonzero bracket [e_i, e_j] = e_0, for each pair in turn:
    # the whole space is not abelian, the span without e_j is
    for i, j in combinations(range(4), 2):
        alg = AnticommAlgebra(QQ, 4, {(i, j): {0: 1}})
        assert not alg.is_abelian_subspace(Subspace.full(QQ, 4))
        rest = [basis_vector(QQ, 4, k) for k in range(4) if k != j]
        assert alg.is_abelian_subspace(Subspace(QQ, 4, rest))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_is_abelian_subspace_matches_the_restricted_table(field, data):
    alg = data.draw(algebras(field, max_dim=4))
    n = alg.dim
    sub = Subspace(field, n, data.draw(st.lists(vectors(field, n), max_size=3)))
    want = alg.is_subalgebra(sub) and alg.restrict(sub).is_abelian()
    assert alg.is_abelian_subspace(sub) == want


def test_restrict_and_quotient_validate(gf5):
    for seed in range(10):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if isinstance(alg, catalog.Stuck):
            continue
        ker = alg.omega_kernel()
        if ker.dim and alg.is_subalgebra(ker):
            assert isinstance(alg.restrict(ker), OmegaAlgebra)
        ideal = alg.find_abelian_ideal()
        if ideal is not None and alg.omega_kernel().contains_subspace(ideal):
            assert isinstance(alg.quotient(ideal), OmegaAlgebra)


def test_proper_ideals_are_isotropic_and_lie(gf5):
    # discovered ideals: form vanishes on them; codim > 1 puts them in the
    # radical; restriction is a Lie algebra
    for seed in range(12):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if isinstance(alg, catalog.Stuck):
            continue
        verdict = alg.simplicity()
        candidates = []
        if verdict.witness is not None and 0 < verdict.witness.dim < alg.dim:
            candidates.append(verdict.witness)
        found = alg.find_abelian_ideal()
        if found is not None:
            candidates.append(found)
        for ideal in candidates:
            rows = [list(r) for r in ideal.rows]
            for a in rows:
                for b in rows:
                    assert gf5.is_zero(alg.omega(a, b))
            if ideal.codim > 1:
                assert alg.omega_kernel().contains_subspace(ideal)
            assert alg.restrict(ideal).is_lie()


# -- multiplicativity and friends ------------------------------------------


def test_multiplicative_lambda_examples(n3, sl2, s4):
    sol = n3.multiplicative_lambda()
    assert sol.is_unique and sol.particular == vec(QQ, 2, 0, 0)
    sol = sl2.multiplicative_lambda()
    assert sol.is_unique and all(x == 0 for x in sol.particular)
    sol = s4.multiplicative_lambda()
    assert sol.is_unique and sol.particular == vec(QQ, 2, 0, 0, 0)


def test_multiplicative_lambda_inconsistent_exists():
    rng = random.Random(7)
    found = False
    for seed in range(200):
        alg = catalog.random_extension_chain(GF(5), seed, 4)
        if isinstance(alg, catalog.Stuck):
            continue
        # perturb the form away from the bracket image to break the system
        table = dict(alg._omega)
        com = alg.commutant()
        if com.dim == alg.dim:
            continue
        if alg.multiplicative_lambda() is None:
            found = True
            break
    if not found:
        # perturbation route: a valid algebra is not required here, only
        # the affine system's inconsistency on a raw table
        alg = AnticommAlgebra(QQ, 4, {(0, 1): {2: 1}}, {(0, 2): 1})
        assert alg.multiplicative_lambda() is None
        found = True
    assert found


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_multiplicative_lambda_matches_reference(field, data):
    """The int pair-table rows against the earlier dense body, on random
    tables (mostly inconsistent) and on tables whose form is a drawn
    covector on the bracket (always consistent)."""
    if data.draw(st.booleans()):
        alg = data.draw(algebras(field, max_dim=6))
    else:
        alg, _ = data.draw(multiplicative_data(field))
    got, want = alg.multiplicative_lambda(), multiplicative_lambda_reference(alg)
    if want is None:
        assert got is None
    else:
        assert got.particular == want.particular and got.kernel == want.kernel
        assert_canonical(field, got.particular)


@st.composite
def almost_abelian_candidates(draw, field):
    """A random table, or [e_i, e_j] = f(e_j) e_i - f(e_i) e_j for a drawn
    covector f (abelian when f = 0), each with a random form."""
    table = draw(algebras(field))
    if draw(st.booleans()):
        return table
    n = table.dim
    f = draw(st.lists(scalars(field), min_size=n, max_size=n))
    bracket = {(i, j): {i: f[j], j: field.neg(f[i])} for i, j in combinations(range(n), 2)}
    return AnticommAlgebra(field, n, bracket, table._omega)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_almost_abelian_decomposition_matches_reference(field, data):
    alg = data.draw(almost_abelian_candidates(field))
    got = alg.almost_abelian_decomposition()
    assert got == almost_abelian_decomposition_reference(alg)
    if got.lam is not None:
        assert_canonical(field, got.lam + got.x if got.x else got.lam)


def test_normalizer_line(s4, sl2):
    abelian = AnticommAlgebra(QQ, 3)
    assert abelian.normalizer_line(vec(QQ, 1, 1, 0)).is_full()
    h = vec(QQ, 0, 0, 1, -1)
    assert s4.normalizer_line(h).is_full()
    hh = basis_vector(QQ, 3, 2)
    assert sl2.normalizer_line(hh) == Subspace(QQ, 3, [hh])
    with pytest.raises(ZeroVector):
        sl2.normalizer_line(vec(QQ, 0, 0, 0))


def test_quasi_ideal(aff1, sl2):
    assert aff1.is_quasi_ideal(Subspace(QQ, 2, [vec(QQ, 0, 1)]))
    assert not sl2.is_quasi_ideal(Subspace(QQ, 3, [vec(QQ, 1, 0, 0)]))
    # ideals are quasi-ideals
    assert aff1.is_quasi_ideal(Subspace(QQ, 2, [vec(QQ, 1, 0)]))


def test_quasi_ideals_in_radical_are_ideals(gf5):
    # 1-dim quasi-ideals inside the radical of a non-Lie instance are
    # ideals: scan radical lines for the implication, and exercise the
    # positive case on module lines of semidirect products
    from olie import one_dim_module, semidirect

    positives = 0
    for seed in range(40):
        alg = catalog.random_dim3(gf5, seed)
        if alg.is_lie():
            continue
        ker = alg.omega_kernel()
        for row in ker.rows:
            line = Subspace(gf5, 3, [list(row)])
            if alg.is_quasi_ideal(line):
                assert alg.is_ideal(line)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        sd = semidirect(alg, one_dim_module(alg, lam_set.particular))
        module_line = Subspace(gf5, 4, [basis_vector(gf5, 4, 3)])
        assert sd.omega_kernel().contains_subspace(module_line)
        assert sd.is_quasi_ideal(module_line)
        assert sd.is_ideal(module_line)
        positives += 1
    assert positives


def test_almost_abelian_decomposition(aff1, sl2):
    dec = aff1.almost_abelian_decomposition()
    assert dec.kind == "almost_abelian"
    assert dec.abelian_part == Subspace(QQ, 2, [vec(QQ, 1, 0)])
    assert dec.lam == vec(QQ, 0, 1)
    assert AnticommAlgebra(QQ, 3).almost_abelian_decomposition().kind == "abelian"
    assert sl2.almost_abelian_decomposition().kind == "neither"


# -- simplicity -------------------------------------------------------------


def test_simplicity_n3_burnside(n3):
    assert n3.multiplication_algebra_dim() == 9
    verdict = n3.simplicity()
    assert verdict.is_simple and verdict.certificate == "full multiplication algebra"


def test_simplicity_s4_has_line_ideal(s4):
    # the 4-dim table carries the 1-dim ideal spanned by e3 - e4
    verdict = s4.simplicity()
    assert verdict.kind == "not_simple"
    assert verdict.witness == Subspace(QQ, 4, [vec(QQ, 0, 0, 1, -1)])
    assert s4.is_ideal(verdict.witness)
    assert s4.multiplication_algebra_dim() == 13
    # exhaustive confirmation over the GF(5) reduction
    red = catalog.reduce_mod_p(s4, 5)
    verdict5 = red.simplicity()
    assert verdict5.kind == "not_simple"


def test_simplicity_sl2e_and_aff1(sl2e, aff1):
    verdict = sl2e.simplicity()
    assert verdict.kind == "not_simple"
    assert verdict.witness == Subspace(
        QQ, 4, [vec(QQ, 1, 0, 0, 0), vec(QQ, 0, 1, 0, 0), vec(QQ, 0, 0, 1, 0)]
    )
    verdict = aff1.simplicity()
    assert verdict.kind == "not_simple"
    assert verdict.witness == Subspace(QQ, 2, [vec(QQ, 1, 0)])


def test_multiplication_algebra_dim_matches_oracle(gf5):
    algebras = [catalog.builtin_algebra(name) for name in catalog.catalog_names()]
    algebras += [catalog.reduce_mod_p(alg, 5) for alg in algebras]
    for seed in range(4):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if not isinstance(alg, catalog.Stuck):
            algebras.append(alg)
    for alg in algebras:
        assert alg.multiplication_algebra_dim() == multiplication_algebra_dim(alg)


def test_simplicity_exhaustive_gf(n3):
    red = catalog.reduce_mod_p(n3, 5)
    assert red.simplicity().is_simple


def test_find_abelian_ideal_examples(s4, aff1, sl2e):
    assert s4.find_abelian_ideal() == Subspace(QQ, 4, [vec(QQ, 0, 0, 1, -1)])
    assert aff1.find_abelian_ideal() == Subspace(QQ, 2, [vec(QQ, 1, 0)])
    assert sl2e.find_abelian_ideal() is None


def test_find_abelian_ideal_complete_over_gf(gf5):
    # brute-force cross-check of the definitive search on small instances
    from olie.linalg import vec_is_zero as vz

    for seed in range(8):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if isinstance(alg, catalog.Stuck):
            continue
        got = alg.find_abelian_ideal()
        brute = None
        for v in projective_points(5, alg.dim):
            sp = alg.ideal_closure([v])
            if 0 < sp.dim < alg.dim:
                rows = [list(r) for r in sp.rows]
                if all(
                    vz(gf5, alg.bracket(rows[a], rows[b]))
                    for a in range(len(rows))
                    for b in range(a + 1, len(rows))
                ):
                    brute = sp
                    break
        assert (got is None) == (brute is None)


def test_find_abelian_ideal_certifies_only_uncertified_algebras(gf5, monkeypatch):
    # seed 28 at dim 5 has no abelian ideal, so the complete search runs
    alg = catalog.random_extension_chain(gf5, 28, 5)
    assert isinstance(alg, OmegaAlgebra)
    plain = AnticommAlgebra(gf5, alg.dim, alg._bracket, alg._omega)
    calls = []
    original = AnticommAlgebra._first_violation

    def counted(self):
        calls.append(self)
        return original(self)

    # the subalgebras restrict() builds on the way are trusted, so the
    # only certification is that of the uncertified algebra searched
    monkeypatch.setattr(AnticommAlgebra, "_first_violation", counted)
    assert alg.find_abelian_ideal() is None
    assert calls == []
    assert plain.find_abelian_ideal() is None
    assert len(calls) == 1 and calls[0] is plain


def assert_same_verdict(got, want):
    assert (got.kind, got.certificate, got.witness) == (want.kind, want.certificate, want.witness)


@pytest.mark.parametrize("field", [GF(5), GF(7), GF(11)], ids=str)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(3, 6))
def test_searches_match_eager_reference_on_chains(field, seed, dim):
    # verdict, certificate and witness rows as when every candidate was
    # built first and M(L) computed before any was spun; the reference
    # scans every radical line and every hyperplane over the commutant,
    # the search only the lines of the radical's core (over GF(11) the
    # complete branch runs up to dim 5, on radicals of dim 3 and 4)
    alg = catalog.random_extension_chain(field, seed, dim)
    assume(not isinstance(alg, catalog.Stuck))
    assert_same_verdict(alg.simplicity(), simplicity_reference(alg))
    assert alg.find_abelian_ideal() == find_abelian_ideal_reference(alg)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_searches_match_eager_reference_on_random_tables(field, data):
    # uncertified tables take the fallback scan of every line's closure
    alg = data.draw(algebras(field, max_dim=4))
    assert_same_verdict(alg.simplicity(), simplicity_reference(alg))
    assert alg.find_abelian_ideal() == find_abelian_ideal_reference(alg)


# -- the core of the radical -------------------------------------------------

# both row forms of the spin: packed over GF(5) and GF(7), sparse over Q
# and GF(1000003)
CORE_FIELDS = [QQ, GF(5), GF(7), GF(1000003)]


def assert_core_matches_reference(alg):
    core = alg._radical_core()
    got = [] if core is None else [list(r) for r in core.rows]
    assert got == radical_core_reference(alg)
    return got


@pytest.mark.parametrize("field", CORE_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_radical_core_matches_the_fixed_point_on_random_tables(field, data):
    got = assert_core_matches_reference(data.draw(algebras(field, max_dim=5)))
    event(f"core of dim {len(got)}")


@pytest.mark.parametrize("field", CORE_FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(3, 6))
def test_radical_core_matches_the_fixed_point_on_chains(field, seed, dim):
    alg = catalog.random_extension_chain(field, seed, dim)
    assume(not isinstance(alg, catalog.Stuck))
    got = assert_core_matches_reference(alg)
    event(f"core of dim {len(got)}")


def test_radical_core_edge_cases(gf5):
    # a Lie algebra with the zero form: the radical is all of L, an ideal
    sl2 = catalog.builtin_algebra("lie.sl2", gf5)
    assert sl2._radical_core().is_full()
    # a nondegenerate form: the radical is zero, and so is its core
    plane = AnticommAlgebra(gf5, 2, {}, {(0, 1): 1})
    assert plane.omega_kernel().is_zero() and plane._radical_core() is None
    # the coadjoint table is built once per product
    assert sl2._product.coadjoint() is sl2._product.coadjoint()


# -- the spin kernel and its commute cut-off --------------------------------


def abelian_reference(alg, rows):
    field = alg.field
    return all(
        vec_is_zero(field, bracket_reference(alg, list(u), list(v)))
        for u, v in combinations(rows, 2)
    )


def assert_spin_matches_reference(alg, gens):
    """Without the cut-off the spin always runs to the end; with it, it
    gives up exactly when the reference closure is not abelian.  A spin
    that runs to the end has the reference rows."""
    field, n = alg.field, alg.dim
    want = ideal_closure_reference(alg, gens)
    abelian = abelian_reference(alg, want)
    for commute in (False, True):
        span = Echelon(field)
        for v in gens:
            span.add(v)
        done = span.spin(alg._product, commute)
        assert done == (abelian or not commute)
        if done:
            got = span.subspace(n)
            assert [list(r) for r in got.rows] == want
            assert_canonical(field, [x for r in got.rows for x in r])
    # the searches' path to the same spin
    spun = alg._spin(gens, True)
    assert (spun is not None) == abelian
    if spun is not None:
        assert [list(r) for r in spun.subspace(n).rows] == want


@pytest.mark.parametrize("field", ROW_FORM_FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_spin_cut_off_matches_reference_on_random_tables(field, data):
    # several generators, over Q with denominators: the int images of a
    # scaled row must span what the scalar images span
    alg = data.draw(algebras(field))
    n = alg.dim
    gens = data.draw(st.lists(vectors(field, n), min_size=1, max_size=4))
    assert_spin_matches_reference(alg, gens)


@st.composite
def codim1_abelian_ideal_tables(draw, field, min_dim, max_dim):
    """A random table on which span(e_0, ..., e_{n-2}) is an abelian
    ideal, with a generator inside it: the entries are dense and most
    are p - 1, so byte sums of packed rows reach past 255 without their
    reductions."""
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    p = field.char
    heavy = st.sampled_from([p - 1] * 8 + [1, p - 2])
    bracket = {}
    for i in range(n - 1):
        image = draw(st.lists(heavy, min_size=n - 1, max_size=n - 1))
        bracket[(i, n - 1)] = dict(enumerate(image))
    gen = draw(st.lists(heavy, min_size=n - 1, max_size=n - 1)) + [0]
    return AnticommAlgebra(field, n, bracket), gen


@pytest.mark.parametrize("p", [7, 11, 13])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_spin_cut_off_matches_reference_past_a_byte(p, data):
    """Rows of 8 to 10 heavy entries: a packed image sum or commute test
    over GF(7) takes 7 or more products of up to 36, past a byte, so
    only the chunked reduction keeps it exact; GF(11) and GF(13) carry
    within 3 and 2 products.  Both outcomes of the cut-off occur: the
    generator inside the abelian ideal spins to an abelian closure, a
    dense one on a random table mostly does not."""
    field = GF(p)
    if data.draw(st.booleans()):
        alg, gen = data.draw(codim1_abelian_ideal_tables(field, 8, 10))
        gens = [gen]
    else:
        alg = data.draw(algebras(field, min_dim=8, max_dim=9))
        gens = data.draw(st.lists(vectors(field, alg.dim), min_size=1, max_size=2))
    assert_spin_matches_reference(alg, gens)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_packed_images_match_reference_past_a_byte(p):
    # [e_i, e_j] = (p - 1) times the all-ones vector for i < j, and x is
    # p - 1 times it: [x, e_j]_k sums j products (p - 1)**2, up to 19
    field = GF(p)
    for n in (2, 9, 17, 20):
        ones = {k: p - 1 for k in range(n)}
        alg = AnticommAlgebra(field, n, {pair: ones for pair in combinations(range(n), 2)})
        x = [p - 1] * n
        images = alg._product.right_images(x)
        for j, image in enumerate(images):
            assert image == bracket_reference(alg, x, basis_vector(field, n, j))
        assert_spin_matches_reference(alg, [x])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(3, 5), data=st.data())
def test_spin_cut_off_matches_reference_on_chains(field, seed, dim, data):
    # most chains have an abelian ideal, and a vector inside it spins to
    # an abelian closure, so both outcomes of the cut-off occur
    alg = catalog.random_extension_chain(field, seed, dim)
    assume(not isinstance(alg, catalog.Stuck))
    n = alg.dim
    lines = [basis_vector(field, n, i) for i in range(n)]
    for sub in (alg.omega_kernel(), alg.find_abelian_ideal()):
        if sub is not None:
            lines += [list(r) for r in sub.rows]
    gens = data.draw(
        st.lists(st.one_of(st.sampled_from(lines), vectors(field, n)), min_size=1, max_size=3)
    )
    assert_spin_matches_reference(alg, gens)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_commute_test_matches_reference_brackets(field, data):
    alg = data.draw(algebras(field))
    n = alg.dim
    rows = data.draw(st.lists(vectors(field, n), max_size=4))
    assert alg._product.commutes_pairwise(rows) == abelian_reference(alg, rows)


def test_commute_test_reduces_mod_p(gf5):
    # [e0, e1 + e2] = e2 + 4 e2 = 5 e2: zero over GF(5), not in ints
    alg = AnticommAlgebra(gf5, 3, {(0, 1): {2: 1}, (0, 2): {2: 4}})
    u, v = basis_vector(gf5, 3, 0), vec(gf5, 0, 1, 1)
    assert alg._product.commutes_pairwise([u, v])
    assert alg.is_abelian_subspace(Subspace(gf5, 3, [u, v]))
    assert not alg.is_abelian_subspace(Subspace(gf5, 3, [u, basis_vector(gf5, 3, 1)]))


def test_spin_kernel_edge_cases():
    # on every row form: sparse over Q and GF(17), packed over GF(5)
    for field in (QQ, GF(5), GF(17)):
        product = catalog.builtin_algebra("lie.sl2", field)._product
        # nothing kept: nothing to spin
        span = Echelon(field)
        assert span.spin(product, True) and span.rank == 0
        # rows kept before the spin are tested pairwise first
        span = Echelon(field)
        span.add(basis_vector(field, 3, 0))
        span.add(basis_vector(field, 3, 1))
        assert not span.spin(product, True) and span.rank == 2
        # a simple algebra spins any line to the whole space, and stops there
        span = Echelon(field)
        span.add(vec(field, F(1, 2), F(-2, 3), 3))
        assert span.spin(product) and span.rank == 3


# -- the complete abelian-ideal scan -----------------------------------------


@pytest.mark.parametrize("seed", [22, 28, 38, 50])
def test_complete_scan_proves_none_on_dim6_chains(gf5, seed):
    alg = catalog.random_extension_chain(gf5, seed, 6)
    assert isinstance(alg, OmegaAlgebra) and not alg.is_lie()
    # no early candidate hits, so the radical lines and the hyperplanes
    # over the commutant decide
    assert find_abelian_ideal_reference(alg, enum_cap=0) is None
    assert alg.find_abelian_ideal() is None
    assert find_abelian_ideal_reference(alg) is None


def test_complete_scan_finds_an_ideal_among_the_radical_lines(gf5):
    alg = catalog.random_extension_chain(gf5, 1, 6)
    assert isinstance(alg, OmegaAlgebra)
    assert find_abelian_ideal_reference(alg, enum_cap=0) is None
    got = alg.find_abelian_ideal()
    assert got == find_abelian_ideal_reference(alg)
    # a line inside the radical, below the hyperplanes' codimension 1
    assert got.rows == [(1, 0, 0, 1, 4, 1)]
    assert alg.omega_kernel().contains_subspace(got)


# a GF(5) table that fails the law, with an abelian ideal line that no
# early candidate finds: the ideal K e_0 of a table moved to a random basis
UNCERTIFIED_BRACKET = {
    (0, 1): {0: 4, 1: 4, 2: 2, 3: 3, 4: 4},
    (0, 2): {0: 4, 1: 3, 2: 4, 3: 2, 4: 4},
    (0, 3): {0: 3, 1: 4, 2: 1, 3: 4},
    (0, 4): {0: 3, 1: 2, 2: 1, 3: 3, 4: 4},
    (1, 2): {0: 1, 1: 1, 2: 3},
    (1, 3): {0: 4, 2: 2, 3: 3, 4: 4},
    (1, 4): {0: 1, 1: 1, 2: 3, 3: 4, 4: 3},
    (2, 3): {1: 3, 2: 4},
    (2, 4): {1: 2, 2: 1, 3: 1, 4: 2},
    (3, 4): {0: 2, 2: 3, 3: 1, 4: 4},
}
UNCERTIFIED_OMEGA = {
    (0, 1): 1, (0, 2): 2, (0, 4): 2, (1, 2): 4, (1, 3): 2, (2, 3): 2, (2, 4): 3, (3, 4): 3,
}


def test_uncertified_table_takes_the_all_lines_fallback(gf5):
    alg = AnticommAlgebra(gf5, 5, UNCERTIFIED_BRACKET, UNCERTIFIED_OMEGA)
    assert alg._first_violation() is not None
    assert find_abelian_ideal_reference(alg, enum_cap=0) is None
    got = alg.find_abelian_ideal()
    assert got == find_abelian_ideal_reference(alg)
    assert got.rows == [(1, 1, 3, 0, 2)]


def test_subspace_predicates_reject_the_wrong_ambient(gf5):
    alg = catalog.random_extension_chain(gf5, 7001, 5)
    assert alg.dim == 5
    sub = Subspace(gf5, 7, [basis_vector(gf5, 7, 0)])
    for check in (alg.is_subalgebra, alg.is_abelian_subspace, alg.is_ideal, alg.restrict):
        with pytest.raises(DimensionMismatch):
            check(sub)


def test_subspace_predicates_reject_another_field(gf5):
    alg = catalog.builtin_algebra("lie.sl2", gf5)
    sub = Subspace(QQ, 3, [[F(1, 2), F(0), F(0)]])
    checks = (alg.is_ideal, alg.is_abelian_subspace, alg.is_subalgebra, alg.restrict, alg.quotient)
    for check in checks:
        with pytest.raises(FieldMismatch):
            check(sub)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_dimensional_algebra_is_its_own_abelian_ideal(field):
    for alg in (AnticommAlgebra(field, 1), OmegaAlgebra(field, 1)):
        assert alg.find_abelian_ideal() == Subspace.full(field, 1)
    assert AnticommAlgebra(field, 0).find_abelian_ideal() is None


def test_multiplication_algebra_is_computed_only_when_no_candidate_hits(gf5, monkeypatch):
    calls = []
    original = AnticommAlgebra.multiplication_algebra_dim

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(AnticommAlgebra, "multiplication_algebra_dim", counted)
    # a non-simple chain: a candidate line spins to a proper ideal first
    alg = catalog.random_extension_chain(gf5, 0, 5)
    verdict = alg.simplicity()
    assert verdict.kind == "not_simple" and verdict.certificate == "spun ideal"
    assert calls == []
    # simple algebras are still certified by M(L), once each
    for name in ("lie.sl2", "omega.n3"):
        alg = catalog.builtin_algebra(name)
        calls.clear()
        verdict = alg.simplicity()
        assert verdict.is_simple and verdict.certificate == "full multiplication algebra"
        assert calls == [alg]


# -- invariants kept once per algebra -----------------------------------------

INVARIANTS = ("gram", "omega_kernel", "center", "commutant", "_radical_part")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kept_invariants_match_a_fresh_algebra(field, data):
    alg = data.draw(algebras(field, max_dim=4))
    first = {name: getattr(alg, name)() for name in INVARIANTS}
    # the searches and the witness read the kept invariants; none may
    # change them
    alg.simplicity()
    alg.find_abelian_ideal()
    _abelian_witness(alg)
    assert set(alg._cache) == set(INVARIANTS)
    fresh = AnticommAlgebra(field, alg.dim, alg._bracket, alg._omega)
    for name in INVARIANTS:
        again = getattr(alg, name)()
        assert again is first[name]
        assert again == getattr(fresh, name)()


def _keep_all(alg):
    for name in INVARIANTS:
        getattr(alg, name)()
    return alg._cache


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_constructions_start_with_no_kept_invariants(field, data):
    alg = data.draw(algebras(field, max_dim=4))
    assert _keep_all(alg)
    assert alg.restrict(alg.commutant())._cache == {}
    assert alg.with_field(field)._cache == {}
    chain = catalog.random_extension_chain(field, data.draw(st.integers(0, 10**6)), 4)
    assume(not isinstance(chain, catalog.Stuck))
    assert _keep_all(chain)
    lam = chain.multiplicative_lambda().particular
    for der in al_derivation_space(chain, lam)[:2]:
        assert extend_codim1(chain, lam, der.matrix, der.alpha)._cache == {}
    assert chain.quotient(Subspace.zero(field, chain.dim))._cache == {}


# -- serialization -----------------------------------------------------------


def test_edge_dimensions():
    # dims 0..2 never violate the law and have total radical
    for dim in (0, 1, 2):
        alg = AnticommAlgebra(QQ, dim)
        assert isinstance(alg.validate(), OmegaAlgebra)
        assert alg.is_lie()
        assert alg.omega_kernel().dim == dim
    tiny = AnticommAlgebra(QQ, 2, {(0, 1): {0: 1}}, {(0, 1): 1})
    # with only two basis vectors any skew form satisfies the law
    assert isinstance(tiny.validate(), OmegaAlgebra)
    assert tiny.omega_rank() == 2
    lam_set = tiny.multiplicative_lambda()
    assert lam_set.particular == [F(1), F(0)] and lam_set.dim == 1
    solo = AnticommAlgebra(QQ, 1)
    assert solo.simplicity().kind == "not_simple"


def test_json_roundtrip(s4):
    text = catalog.dumps(s4)
    again = catalog.loads(text)
    assert again == s4
    assert catalog.dumps(again) == text


def test_with_field_reduction(s4):
    red = catalog.reduce_mod_p(s4, 5)
    assert red.field == GF(5)
    assert red.is_valid()
