import random
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from olie import (
    GF,
    QQ,
    AnticommAlgebra,
    Cochain,
    OmegaAlgebra,
    Subspace,
    adjoint_maps,
    al_derivation_space,
    check_representation,
    cochain_differential,
    extend_codim1,
    extension_from_cocycle,
    h2_dimension,
    infinitesimal_deformations,
    minus_algebra,
    omega_assoc_space,
    one_dim_module,
    semidirect,
)
from olie import catalog
from olie.errors import (
    DimensionMismatch,
    NotACocycle,
    NotADerivation,
    NotALieAlgebra,
    NotARepresentation,
    NotMultiplicative,
    NotOmegaAssociative,
    PreconditionFailed,
)
from olie.derivations import _system_rows
from olie.extensions import _deformation_rows, _differential_matrix, is_multiplicative_for
from olie.linalg import (
    _pairs_echelon,
    basis_vector,
    bottom_up,
    from_scaled,
    kernel_basis,
    vec_is_zero,
    zero_matrix,
    zeros,
)

from oracles import (
    cochain_differential_reference,
    deformation_dims_oracle,
    deformation_rows_dense,
    deformation_rows_reference,
    differential_matrix_dense,
    differential_matrix_reference,
    check_representation_reference,
    h2_oracle,
    is_multiplicative_for_reference,
    system_rows_dense,
)
from strategies import FIELDS, algebras, assert_canonical, multiplicative_data, scalars


def first_coords(field, n, m):
    return Subspace(
        field, n, [[field.one() if t == i else field.zero() for t in range(n)] for i in range(m)]
    )


# -- codimension-1 extensions -------------------------------------------


def test_extension_reproduces_4dim_table(n3, s4):
    D = [[0, 0, -1], [1, 0, 0], [0, 0, 0]]
    ext = extend_codim1(n3, [2, 0, 0], D, [0, 2, 0])
    assert ext == s4
    assert catalog.dumps(ext) == catalog.dumps(s4)


def test_extension_round_trip(n3):
    D = [[0, 0, -1], [1, 0, 0], [0, 0, 0]]
    ext = extend_codim1(n3, [2, 0, 0], D, [0, 2, 0])
    assert ext.restrict(first_coords(QQ, 4, 3)) == n3


def test_extension_round_trip_randomized(gf5):
    # restrict(extend(A, ...), first n coordinates) == A, bit for bit
    checked = 0
    for seed in range(12):
        alg = catalog.random_dim3(gf5, seed)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            for der in al_derivation_space(alg, lam):
                ext = extend_codim1(alg, lam, der.matrix, der.alpha)
                assert ext.restrict(first_coords(gf5, 4, 3)) == alg
                checked += 1
    assert checked >= 20


def test_extension_by_inner_map_is_lie(sl2):
    ad_h = sl2.ad([F(0), F(0), F(1)])
    ext = extend_codim1(sl2, [0, 0, 0], ad_h, [0, 0, 0])
    assert isinstance(ext, OmegaAlgebra)
    assert ext.dim == 4 and ext.is_lie()


def test_extension_rejects_bad_data(n3, sl2):
    D = [[0, 0, -1], [1, 0, 0], [0, 0, 0]]
    with pytest.raises(NotMultiplicative):
        extend_codim1(n3, [0, 0, 0], D, [0, 2, 0])
    # the printed sl2 tables are not derivations
    h_to_e = zero_matrix(QQ, 3, 3)
    h_to_e[2][0] = F(1)
    with pytest.raises(NotADerivation):
        extend_codim1(sl2, [0, 0, 0], h_to_e, [0, -1, 0])


def test_extension_coerces_its_data_once(gf5, monkeypatch):
    """D, alpha and lambda are coerced once each: the derivation check
    reads the canonical values, as does a wrong-length row of D."""
    n3 = catalog.builtin_algebra("omega.n3", gf5)
    calls = []
    coerce = type(gf5).coerce
    monkeypatch.setattr(type(gf5), "coerce", lambda self, x: calls.append(x) or coerce(self, x))
    with pytest.raises(NotADerivation):
        extend_codim1(n3, [2, 0, 0], [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 2, 0])
    assert len(calls) == 3 * 3 + 2 * 3
    with pytest.raises(DimensionMismatch):
        extend_codim1(n3, [2, 0, 0], [[0, 0, -1], [1, 0], [0, 0, 0]], [0, 2, 0])


def test_extension_of_an_uncertified_base_is_certified(n3):
    # the table of omega.n3 without its form breaks the law on (1,2,3);
    # zero data pass both extension checks, so only the certification
    # of the result catches it
    skeleton = AnticommAlgebra(QQ, 3, n3._bracket)
    assert not skeleton.is_valid()
    with pytest.raises(PreconditionFailed):
        extend_codim1(skeleton, [0, 0, 0], zero_matrix(QQ, 3, 3), [0, 0, 0])
    # a plain table that satisfies the law extends as before
    plain = AnticommAlgebra(QQ, 3, n3._bracket, n3._omega)
    D = [[0, 0, -1], [1, 0, 0], [0, 0, 0]]
    assert extend_codim1(plain, [2, 0, 0], D, [0, 2, 0]) == extend_codim1(
        n3, [2, 0, 0], D, [0, 2, 0]
    )


def test_extension_lie_iff_alpha_zero_and_lambda_kills_commutant(gf5):
    checked_lie = checked_nonlie = 0
    for seed in range(30):
        alg = catalog.random_dim3(gf5, seed)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            for der in al_derivation_space(alg, lam):
                ext = extend_codim1(alg, lam, der.matrix, der.alpha)
                alpha_zero = all(gf5.is_zero(x) for x in der.alpha)
                lam_kills = all(
                    gf5.is_zero(
                        sum(c * lam[k] for k, c in enumerate(alg.basis_bracket(i, j))) % 5
                    )
                    for i, j in combinations(range(3), 2)
                )
                expect_lie = alg.is_lie() and alpha_zero and lam_kills
                assert ext.is_lie() == expect_lie
                checked_lie += expect_lie
                checked_nonlie += not expect_lie
    assert checked_lie and checked_nonlie


def test_section_trivial_extensions_are_never_simple(n3, gf5):
    """Extension data of the shape D = [., w] - lam(.)w with covector
    w(., w) produce the semidirect product in disguise: the line through
    w + v is an ideal, so no such extension is simple (checked over a
    prime field, where the verdict is definitive)."""
    rng = random.Random(9)
    base = catalog.reduce_mod_p(n3, 5)
    lam = [gf5.coerce(2), 0, 0]
    for _ in range(6):
        w = [rng.randrange(5) for _ in range(3)]
        if vec_is_zero(gf5, w):
            continue
        D = [
            [
                gf5.sub(
                    base.bracket(basis_vector(gf5, 3, i), w)[j],
                    gf5.mul(lam[i], w[j]),
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        alpha = [base.omega(basis_vector(gf5, 3, i), w) for i in range(3)]
        ext = extend_codim1(base, lam, D, alpha)
        verdict = ext.simplicity()
        assert verdict.kind == "not_simple"
        line = Subspace(gf5, 4, [[gf5.neg(x) for x in w] + [gf5.one()]])
        assert ext.is_ideal(line)
        # the projection of the base onto the quotient is an isomorphism
        quot = ext.quotient(line)
        assert quot.dim == 3

        def proj(x3):
            return line.quotient_coords(list(x3) + [gf5.zero()])

        for i in range(3):
            for j in range(3):
                ei = basis_vector(gf5, 3, i)
                ej = basis_vector(gf5, 3, j)
                left = proj(base.bracket(ei, ej))
                right = quot.bracket(proj(ei), proj(ej))
                assert left == right
                assert base.omega(ei, ej) == quot.omega(proj(ei), proj(ej))


def test_all_n3_extensions_are_section_trivial(n3):
    # the solution space at the unique multiplicative covector is exactly
    # the section-trivial family, so the 3-dim base has no simple extension
    basis = al_derivation_space(n3, [2, 0, 0])
    lam = [F(2), F(0), F(0)]
    span_rows = []
    for i in range(3):
        w = basis_vector(QQ, 3, i)
        D = [
            [n3.bracket(basis_vector(QQ, 3, a), w)[j] - lam[a] * w[j] for j in range(3)]
            for a in range(3)
        ]
        alpha = [n3.omega(basis_vector(QQ, 3, a), w) for a in range(3)]
        span_rows.append([x for row in D for x in row] + alpha)
    trivial = Subspace(QQ, 12, span_rows)
    assert trivial.dim == 3 == len(basis)
    for der in basis:
        assert trivial.contains([x for row in der.matrix for x in row] + list(der.alpha))


# -- modules and semidirect products --------------------------------------


def test_one_dim_module_law(n3, sl2):
    assert check_representation(n3, one_dim_module(n3, [2, 0, 0]))
    assert not check_representation(n3, one_dim_module(n3, [0, 0, 0]))
    assert check_representation(sl2, adjoint_maps(sl2))
    assert not check_representation(n3, adjoint_maps(n3))


def test_semidirect(n3, sl2):
    sd = semidirect(n3, one_dim_module(n3, [2, 0, 0]))
    assert isinstance(sd, OmegaAlgebra) and sd.dim == 4
    line = Subspace(QQ, 4, [basis_vector(QQ, 4, 3)])
    assert sd.is_ideal(line)
    assert sd.omega_kernel().contains_subspace(line)
    trivial = semidirect(sl2, one_dim_module(sl2, [0, 0, 0]))
    assert trivial.is_lie()
    with pytest.raises(NotARepresentation):
        semidirect(n3, adjoint_maps(n3))


def test_semidirect_on_a_certified_base_is_trusted(n3, sl2, monkeypatch):
    calls = []
    original = AnticommAlgebra._first_violation

    def counted(self):
        calls.append(self)
        return original(self)

    # the module law is the law on the new triples, so nothing is
    # certified again; the autouse recheck still checks the results
    monkeypatch.setattr(AnticommAlgebra, "_first_violation", counted)
    sd = semidirect(n3, one_dim_module(n3, [2, 0, 0]))
    big = semidirect(sl2, adjoint_maps(sl2))
    assert isinstance(sd, OmegaAlgebra) and isinstance(big, OmegaAlgebra)
    assert calls == []


def test_semidirect_of_an_uncertified_base_is_certified(n3):
    # the table of omega.n3 without its form breaks the law on (1,2,3);
    # with a zero form the zero module passes the module law, so only
    # the certification of the result catches it
    skeleton = AnticommAlgebra(QQ, 3, n3._bracket)
    assert not skeleton.is_valid()
    assert check_representation(skeleton, one_dim_module(skeleton, [0, 0, 0]))
    with pytest.raises(PreconditionFailed):
        semidirect(skeleton, one_dim_module(skeleton, [0, 0, 0]))
    # a plain table that satisfies the law builds the same product
    plain = AnticommAlgebra(QQ, 3, n3._bracket, n3._omega)
    module = one_dim_module(n3, [2, 0, 0])
    assert semidirect(plain, module) == semidirect(n3, module)


def test_representation_shape_guard(n3):
    from olie.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        check_representation(n3, [[[F(1)]], [[F(0)]]])  # one matrix short
    with pytest.raises(ShapeMismatch):
        check_representation(
            n3, [[[F(1), F(0)]], [[F(0), F(0)]], [[F(0), F(0)]]]
        )  # not square


def test_semidirect_higher_dim_module(sl2):
    sd = semidirect(sl2, adjoint_maps(sl2))
    assert isinstance(sd, OmegaAlgebra) and sd.dim == 6 and sd.is_lie()


# -- cohomology -------------------------------------------------------------


def test_differential_of_scalar(n3):
    dc = cochain_differential(n3, [2, 0, 0], 3)
    assert dc.degree == 1
    assert dc.data == {(0,): F(6)}


def test_differential_on_abelian_with_zero_form():
    alg = AnticommAlgebra(QQ, 3)
    c = Cochain.from_values(QQ, 3, 1, {(0,): 1, (2,): -2})
    assert not cochain_differential(alg, [0, 0, 0], c).data


def test_differential_requires_multiplicative(n3):
    c = Cochain.from_values(QQ, 3, 1, {(0,): 1})
    with pytest.raises(NotMultiplicative):
        cochain_differential(n3, [0, 0, 0], c)


def test_square_of_differential_on_one_cochains(gf5):
    rng = random.Random(10)
    checked = 0
    for seed in range(30):
        alg = catalog.random_dim3(gf5, seed)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            data = {(i,): rng.randrange(5) for i in range(3)}
            c = Cochain.from_values(gf5, 3, 1, data)
            dd = cochain_differential(alg, lam, cochain_differential(alg, lam, c))
            assert not dd.data
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_differentials_match_per_key_oracle(field, data):
    alg, lam = data.draw(multiplicative_data(field))
    n = alg.dim
    for k in range(4):
        rows, scale = _differential_matrix(alg, lam, k)
        got = [from_scaled(field, _dense(row, comb(n, k + 1)), scale) for row in rows]
        assert got == differential_matrix_reference(alg, lam, k)
        assert_canonical(field, [x for row in got for x in row])
    k = data.draw(st.integers(0, 3))
    values = data.draw(st.lists(scalars(field), min_size=comb(n, k), max_size=comb(n, k)))
    cochain = Cochain.from_values(field, n, k, dict(zip(combinations(range(n), k), values)))
    want = cochain_differential_reference(alg, lam, cochain.data, k)
    assert cochain_differential(alg, lam, cochain).data == want
    c = data.draw(scalars(field))
    assert cochain_differential(alg, lam, c).data == cochain_differential_reference(
        alg, lam, {(): c}, 0
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_is_multiplicative_for_matches_reference(field, data):
    """The int check off the pair tables against the earlier per-scalar
    body, on multiplicative data and on the same table with a random form
    or a random covector (mostly not multiplicative)."""
    alg, lam = data.draw(multiplicative_data(field))
    n = alg.dim
    other = data.draw(algebras(field, min_dim=n, max_dim=n))
    drawn = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    perturbed = AnticommAlgebra(field, n, alg._bracket, other._omega)
    for table, covector in ((alg, lam), (perturbed, lam), (alg, drawn)):
        got = is_multiplicative_for(table, covector)
        assert got == is_multiplicative_for_reference(table, covector)
    assert is_multiplicative_for(alg, lam)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_check_representation_matches_reference(field, data):
    """The module check summed over the pair table against the earlier
    per-scalar body: the 1-dimensional module of a multiplicative form
    (a module), the same with a drawn covector, the adjoint maps and
    drawn 2 x 2 matrices (mostly not modules)."""
    alg, lam = data.draw(multiplicative_data(field))
    n = alg.dim
    drawn = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    square = st.lists(st.lists(scalars(field), min_size=2, max_size=2), min_size=2, max_size=2)
    matrices = data.draw(st.lists(square, min_size=n, max_size=n))
    for maps in (one_dim_module(alg, lam), one_dim_module(alg, drawn), adjoint_maps(alg), matrices):
        assert check_representation(alg, maps) == check_representation_reference(alg, maps)
    assert check_representation(alg, one_dim_module(alg, lam))


@pytest.mark.parametrize("lam", ([0, 0], [0, 0, 0, 0]), ids=["short", "long"])
def test_lambda_length_is_checked(lam):
    """Every entry point that checks multiplicativity rejects a lambda of
    the wrong length: a short one raised IndexError, a long one was read
    as its first n entries."""
    sl2 = catalog.builtin_algebra("lie.sl2", QQ)
    with pytest.raises(DimensionMismatch):
        is_multiplicative_for(sl2, lam)
    with pytest.raises(DimensionMismatch):
        h2_dimension(sl2, lam)
    with pytest.raises(DimensionMismatch):
        cochain_differential(sl2, lam, Cochain.zero(QQ, 3, 1))
    with pytest.raises(DimensionMismatch):
        extension_from_cocycle(sl2, lam, Cochain.zero(QQ, 3, 2))


def test_h2_examples(n3):
    assert h2_dimension(AnticommAlgebra(QQ, 1), [0]) == 0
    assert h2_dimension(n3, [2, 0, 0]) == 0 == h2_oracle(n3, [2, 0, 0])
    abelian = AnticommAlgebra(QQ, 3)
    assert h2_dimension(abelian, [0, 0, 0]) == 3 == h2_oracle(abelian, [0, 0, 0])


def test_h2_matches_oracle_random(gf5):
    for seed in range(20):
        alg = catalog.random_dim3(gf5, seed)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            assert h2_dimension(alg, lam) == h2_oracle(alg, lam)


def test_extension_from_zero_cocycle_is_semidirect(n3):
    sd = semidirect(n3, one_dim_module(n3, [2, 0, 0]))
    ext = extension_from_cocycle(n3, [2, 0, 0], Cochain.zero(QQ, 3, 2))
    assert ext == sd
    line = Subspace(QQ, 4, [basis_vector(QQ, 4, 3)])
    assert ext.quotient(line) == n3


def test_extension_from_coboundary_is_isomorphic_to_semidirect(n3):
    lam = [F(2), F(0), F(0)]
    f = Cochain.from_values(QQ, 3, 1, {(0,): 2, (1,): -1, (2,): 3})
    cob = cochain_differential(n3, lam, f)
    ext = extension_from_cocycle(n3, lam, cob)
    assert isinstance(ext, OmegaAlgebra)
    # explicit change of section x -> x + f(x) m transports the bracket
    # of the cocycle extension onto the semidirect product
    sd = semidirect(n3, one_dim_module(n3, lam))

    def phi(v):
        shift = sum((F(v[i]) * f.data.get((i,), F(0)) for i in range(3)), F(0))
        return [v[0], v[1], v[2], v[3] + shift]

    e = [basis_vector(QQ, 4, i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            left = phi(ext.bracket(e[i], e[j]))
            right = sd.bracket(phi(e[i]), phi(e[j]))
            assert left == right


def test_extension_from_cocycle_rejects_non_cocycle(n3):
    c = Cochain.from_values(QQ, 3, 2, {(0, 1): 1})
    lam = [F(2), F(0), F(0)]
    if cochain_differential(n3, lam, c).data:
        with pytest.raises(NotACocycle):
            extension_from_cocycle(n3, lam, c)


def test_random_cocycle_extensions_validate(gf5):
    rng = random.Random(11)
    built = 0
    for seed in range(25):
        alg = catalog.random_dim3(gf5, seed)
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        lam = lam_set.particular
        from olie.linalg import kernel_basis

        rows, scale = _differential_matrix(alg, lam, 2)
        d2 = [from_scaled(gf5, _dense(row, 1), scale) for row in rows]
        for combo in kernel_basis(gf5, [[row[c] for row in d2] for c in range(len(d2[0]))] if d2 and d2[0] else [], 3):
            c = Cochain.from_values(
                gf5, 3, 2, {key: combo[t] for t, key in enumerate(combinations(range(3), 2))}
            )
            ext = extension_from_cocycle(alg, lam, c)
            assert isinstance(ext, OmegaAlgebra)
            built += 1
    assert built


# -- first-order deformations ------------------------------------------------


def test_deformations_of_abelian():
    alg = AnticommAlgebra(QQ, 3)
    space = infinitesimal_deformations(alg)
    assert len(space.basis) == 9
    assert space.omega1_projection_dim == 0
    assert not space.has_nontrivial_omega1


def test_deformations_zero_phi_slice_forces_zero_form(sl2):
    # with the bilinear part pinned to zero the remaining system on the
    # form has only the zero solution in dimension >= 3
    field, n = sl2.field, sl2.dim
    pairs = list(combinations(range(n), 2))
    rows = []
    for x, y, z in combinations(range(n), 3):
        for l in range(n):
            row = [F(0)] * len(pairs)
            for t, (a, b) in enumerate(pairs):
                for (u, v, w) in ((x, y, z), (z, x, y), (y, z, x)):
                    if (u, v) == (a, b) and w == l:
                        row[t] -= F(1)
                    if (v, u) == (a, b) and w == l:
                        row[t] += F(1)
            rows.append(row)
    from olie.linalg import kernel_basis

    assert kernel_basis(QQ, rows, len(pairs)) == []


def test_deformations_sl2_match_oracle(sl2):
    space = infinitesimal_deformations(sl2)
    assert len(space.basis) == deformation_dims_oracle(sl2)
    # frozen values from the oracle run
    assert len(space.basis) == 9
    assert space.omega1_projection_dim == 3
    assert space.has_nontrivial_omega1


def _pair_positions(n):
    return {pair: t for t, pair in enumerate(combinations(range(n), 2))}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deformation_rows_match_reference(field, data):
    """The int rows read off the signed pair table are the dense field
    rows of the old assembler times the table's denominator D, and so
    have the same kernel; the assembly needs no Lie algebra."""
    alg = data.draw(algebras(field))
    n = alg.dim
    pos = _pair_positions(n)
    nun = len(pos) * (n + 1)
    got, want = deformation_rows_dense(alg, pos), deformation_rows_reference(alg)
    den = field.coerce(alg._product.signed_table()[1])
    assert [[field.coerce(x) for x in r] for r in got] == [
        [field.mul(den, x) for x in r] for r in want
    ]
    ech = _pairs_echelon(field, _deformation_rows(alg, pos), nun)
    assert ech.kernel(nun) == kernel_basis(field, want, nun)


def _dense(row, ncols):
    return [row.get(t, 0) for t in range(ncols)]


def _nonzero_rows(rows):
    """The nonzero entries of each row, the rows as a sorted list."""
    rows = [tuple(sorted((c, x) for c, x in row if x)) for row in rows]
    return sorted(row for row in rows if row)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1000003)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_builders_match_their_dense_oracles(field, data):
    """Each sparse builder gives the rows of the earlier dense builder,
    entry by entry, the rows by descending leading column, and the same
    kernel; the differential keeps one row per cochain key, in key
    order, and :func:`h2_dimension` orders them."""
    alg, lam = data.draw(multiplicative_data(field))
    n = alg.dim
    pos = _pair_positions(n)
    systems = [
        (_system_rows(alg, lam), system_rows_dense(alg, lam), n * n + n),
        (_deformation_rows(alg, pos), deformation_rows_dense(alg, pos), len(pos) * (n + 1)),
    ]
    for k in range(4):
        (rows, scale), (dense, dense_scale) = (
            _differential_matrix(alg, lam, k), differential_matrix_dense(alg, lam, k)
        )
        assert scale == dense_scale
        assert [_dense(row, comb(n, k + 1)) for row in rows] == dense
        systems.append((bottom_up(rows), dense, comb(n, k + 1)))
    for sparse, dense, ncols in systems:
        assert all(sparse) and all(0 <= c < ncols for row in sparse for c in row)
        assert _nonzero_rows(row.items() for row in sparse) == _nonzero_rows(
            enumerate(row) for row in dense
        )
        leads = [min(row) for row in sparse]
        assert leads == sorted(leads, reverse=True)
        ech = _pairs_echelon(field, sparse, ncols)
        assert ech.kernel(ncols) == kernel_basis(field, dense, ncols)


def _grown_lie(field, rng, dim):
    """A Lie algebra over ``field`` grown from the 2-dimensional
    nonabelian one by random derivation extensions (lambda = 0,
    alpha = 0)."""
    alg = catalog.builtin_algebra("lie.aff1", field)
    while alg.dim < dim:
        n = alg.dim
        basis = [
            d for d in al_derivation_space(alg, zeros(field, n)) if vec_is_zero(field, d.alpha)
        ]
        assert basis
        matrix = [zeros(field, n) for _ in range(n)]
        while all(vec_is_zero(field, row) for row in matrix):
            matrix = [zeros(field, n) for _ in range(n)]
            for d in basis:
                c = field.coerce(rng.randint(-2, 2))
                matrix = [
                    [field.add(a, field.mul(c, b)) for a, b in zip(ra, rb)]
                    for ra, rb in zip(matrix, d.matrix)
                ]
        alg = extend_codim1(alg, zeros(field, n), matrix, zeros(field, n))
    return alg


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_deformations_match_oracles_on_lie_algebras(field):
    """On Lie algebras of dims 2-5 the solution space has the kernel of
    the old assembler's rows and the dimension of the probing oracle."""
    rng = random.Random(f"deform/{field}")
    algs = [catalog.builtin_algebra(name, field) for name in ("lie.aff1", "lie.sl2")]
    algs.append(AnticommAlgebra(field, 3))
    algs.extend(_grown_lie(field, rng, dim) for dim in (4, 5))
    for alg in algs:
        n = alg.dim
        pos = _pair_positions(n)
        nun = len(pos) * (n + 1)
        space = infinitesimal_deformations(alg)
        want = kernel_basis(field, deformation_rows_reference(alg), nun)
        assert len(space.basis) == len(want) == deformation_dims_oracle(alg)
        for sol, v in zip(space.basis, want):
            assert sol.phi1 == {
                pair: entry
                for pair, t in pos.items()
                if (entry := {k: v[t * n + k] for k in range(n) if not field.is_zero(v[t * n + k])})
            }
            assert sol.omega1 == {
                pair: v[len(pos) * n + t]
                for pair, t in pos.items()
                if not field.is_zero(v[len(pos) * n + t])
            }


def test_deformations_require_lie(n3):
    with pytest.raises(NotALieAlgebra):
        infinitesimal_deformations(n3)


# -- the two-form associativity law -------------------------------------------


def gl2_product():
    # 2x2 matrix units E11, E12, E21, E22
    def mul(a, b):
        out = [[F(0)] * 2 for _ in range(2)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    out[i][j] += a[i][k] * b[k][j]
        return out

    units = [
        [[F(1), F(0)], [F(0), F(0)]],
        [[F(0), F(1)], [F(0), F(0)]],
        [[F(0), F(0)], [F(1), F(0)]],
        [[F(0), F(0)], [F(0), F(1)]],
    ]

    def flat(m):
        return [m[0][0], m[0][1], m[1][0], m[1][1]]

    return [[flat(mul(a, b)) for b in units] for a in units]


def test_omega_assoc_matrix_algebra():
    product = gl2_product()
    sol = omega_assoc_space(QQ, 4, product)
    zero = [F(0)] * 16
    assert sol is not None and sol.contains(zero + zero)
    out = minus_algebra(QQ, 4, product, zero, zero)
    assert out.is_lie() and out.dim == 4


def test_omega_assoc_rejects_bad_pair():
    product = gl2_product()
    w1 = [F(1)] + [F(0)] * 15
    with pytest.raises(NotOmegaAssociative):
        minus_algebra(QQ, 4, product, w1, [F(0)] * 16)


def test_minus_algebra_rejects_forms_of_the_wrong_length():
    """An over-long pair was cut to length by the solution check and
    read as satisfying the law; a long w1 with a short w2 also misaligns
    the two forms."""
    product = gl2_product()
    zero = [F(0)] * 16
    for w1, w2 in ((zero + [F(7)], zero), (zero, zero + [F(7)]), (zero + [F(0)], zero[1:])):
        with pytest.raises(DimensionMismatch):
            minus_algebra(QQ, 4, product, w1, w2)


def test_omega_assoc_random_dim2_search():
    rng = random.Random(12)
    found = 0
    for _ in range(200):
        product = [
            [[F(rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)]
            for _ in range(2)
        ]
        sol = omega_assoc_space(QQ, 2, product)
        if sol is None:
            continue
        out = minus_algebra(QQ, 2, product, sol.particular[:4], sol.particular[4:])
        assert isinstance(out, OmegaAlgebra)
        found += 1
    assert found
