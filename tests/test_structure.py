import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from olie import (
    GF,
    QQ,
    AnticommAlgebra,
    Subspace,
    alpha_vanishing_scan,
    binomial_identity_check,
    check_root_properties,
    classify,
    filtration,
    fitting_decomposition,
    root_decomposition,
)
from olie import catalog
from olie.errors import NotAbelianSubalgebra, NotASubalgebra, PreconditionFailed
from olie.linalg import basis_vector, vec_add, vec_scale
from olie.structure import _quadratic_roots, _rank2_line_parameters, _rational_roots

from oracles import rational_roots_reference


def span(field, n, *vectors):
    return Subspace(field, n, [[field.coerce(x) for x in v] for v in vectors])


def test_fitting_s4(s4):
    h = span(QQ, 4, (0, 0, 1, -1))
    null, one = fitting_decomposition(s4, h)
    assert null.is_full() and one.is_zero()


def test_fitting_sl2(sl2):
    h = span(QQ, 3, (0, 0, 1))
    null, one = fitting_decomposition(sl2, h)
    assert null == span(QQ, 3, (0, 0, 1))
    assert one == span(QQ, 3, (1, 0, 0), (0, 1, 0))


def test_fitting_abelian():
    alg = AnticommAlgebra(QQ, 3)
    h = span(QQ, 3, (1, 0, 0), (0, 1, 0))
    null, one = fitting_decomposition(alg, h)
    assert null.is_full() and one.is_zero()


def test_fitting_requires_abelian_subalgebra(sl2):
    with pytest.raises(NotAbelianSubalgebra):
        fitting_decomposition(sl2, span(QQ, 3, (1, 0, 0), (0, 1, 0)))


def test_root_decomposition_sl2(sl2):
    h = span(QQ, 3, (0, 0, 1))
    dec = root_decomposition(sl2, h)
    assert dec.split
    values = {vals[0]: space for vals, space in dec.roots}
    assert set(values) == {F(-1), F(0), F(1)}
    assert values[F(-1)] == span(QQ, 3, (1, 0, 0))
    assert values[F(1)] == span(QQ, 3, (0, 1, 0))
    assert values[F(0)] == span(QQ, 3, (0, 0, 1))


def test_root_decomposition_abelian():
    alg = AnticommAlgebra(QQ, 2)
    dec = root_decomposition(alg, span(QQ, 2, (1, 0)))
    assert dec.split and len(dec.roots) == 1
    vals, space = dec.roots[0]
    assert vals == (F(0),) and space.is_full()


def test_root_decomposition_jordan_block():
    # abelian part with a non-semisimple action: eigenvalue 1 has a
    # 2-dimensional generalized eigenspace
    alg = AnticommAlgebra(
        QQ, 4, bracket={(0, 3): {0: 1, 1: 1}, (1, 3): {1: 1}, (2, 3): {2: 2}}
    )
    assert alg.is_lie()
    h = span(QQ, 4, (0, 0, 0, 1))
    dec = root_decomposition(alg, h)
    assert dec.split
    dims = {vals[0]: space.dim for vals, space in dec.roots}
    assert dims == {F(0): 1, F(1): 2, F(2): 1}


def test_root_decomposition_non_split():
    # action by a companion matrix of x^2 + 1 does not split over Q
    alg = AnticommAlgebra(QQ, 3, bracket={(0, 2): {1: 1}, (1, 2): {0: -1}})
    assert alg.is_lie()
    dec = root_decomposition(alg, span(QQ, 3, (0, 0, 1)))
    assert not dec.split
    assert dec.fitting_null is not None


def test_check_root_properties_family():
    # the dim-5 family member: radical is the abelian part, dimension 3
    adx = [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(3)]]
    fmat = [[F(0)] * 3 for _ in range(3)]
    fmat[1][0] = F(1)
    member = catalog.family_iiia(QQ, 3, adx, 1, fmat)
    ker = member.omega_kernel()
    assert ker.dim == 3
    report = check_root_properties(member, ker)
    assert report.ok


def test_check_root_properties_gf_instances(gf5):
    checked = 0
    for seed in range(40):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if isinstance(alg, catalog.Stuck):
            continue
        ker = alg.omega_kernel()
        if ker.dim <= 1 or not alg.is_subalgebra(ker):
            continue
        if not alg.restrict(ker).is_abelian():
            continue
        report = check_root_properties(alg, ker)
        assert report.ok
        checked += 1
    assert checked


def test_check_root_properties_preconditions(s4):
    with pytest.raises(PreconditionFailed):
        check_root_properties(s4, span(QQ, 4, (0, 0, 1, -1)))


def test_binomial_identities_family():
    adx = [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(3)]]
    fmat = [[F(0)] * 3 for _ in range(3)]
    fmat[1][0] = F(1)
    member = catalog.family_iiia(QQ, 3, adx, 1, fmat)
    assert binomial_identity_check(member, member.omega_kernel(), 3)


def test_binomial_identities_lie_and_gf7():
    abelian = AnticommAlgebra(QQ, 4)
    h = span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    assert binomial_identity_check(abelian, h, 4)
    f7 = GF(7)
    adx = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    fmat = [[0] * 3 for _ in range(3)]
    fmat[1][0] = 1
    member = catalog.family_iiia(f7, 3, adx, 1, fmat)
    assert binomial_identity_check(member, member.omega_kernel(), 4)


def test_binomial_reduces_to_pair_skewness(gf5):
    # the degree-1 case is w([x,h],y) + w(x,[y,h]) = 0; spot-check it
    # against the general routine on a chain instance with a usable part
    for seed in range(30):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if isinstance(alg, catalog.Stuck):
            continue
        ker = alg.omega_kernel()
        if ker.dim <= 1 or not alg.is_subalgebra(ker):
            continue
        if not alg.restrict(ker).is_abelian():
            continue
        assert binomial_identity_check(alg, ker, 1)
        for h in ker.rows:
            for i in range(alg.dim):
                for j in range(alg.dim):
                    x = basis_vector(gf5, alg.dim, i)
                    y = basis_vector(gf5, alg.dim, j)
                    left = alg.omega(alg.bracket(x, list(h)), y)
                    right = alg.omega(x, alg.bracket(y, list(h)))
                    assert gf5.is_zero(gf5.add(left, right))
        return
    pytest.skip("no suitable instance in the pool")


def test_filtration_s4(s4):
    start = span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    chain = filtration(s4, start)
    assert chain[0] == start
    assert chain[1] == span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    assert chain[-1].is_zero()


def test_filtration_stabilizes(s4):
    full = Subspace.full(QQ, 4)
    assert filtration(s4, full) == [full]
    abelian = AnticommAlgebra(QQ, 3)
    start = span(QQ, 3, (1, 0, 0))
    assert filtration(abelian, start) == [start]
    with pytest.raises(NotASubalgebra):
        filtration(s4, span(QQ, 4, (1, 0, 0, 0), (0, 0, 0, 1)))


def test_classify_catalog(s4, sl2, n3):
    verdict = classify(s4)
    assert verdict.case == "kernel_codim_two"
    assert verdict.kernel_type == "almost_abelian"
    assert verdict.nilpotent_action
    witness = verdict.abelian_small_codim
    assert witness == span(QQ, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert classify(sl2).case == "lie_algebra"
    assert classify(n3).case == "dim_three"


def test_classify_family_members():
    adx = [[F(1), F(0)], [F(0), F(2)]]
    fmat = [[F(0), F(0)], [F(1), F(0)]]
    member = catalog.family_iiia(QQ, 2, adx, 1, fmat)
    verdict = classify(member)
    assert verdict.case in ("codim_one_lie_subalgebra", "kernel_codim_two")
    assert verdict.abelian_small_codim is not None
    assert verdict.abelian_small_codim.codim <= 3


def test_classify_codim_one_witness_properties(gf5):
    found = 0
    for seed in range(60):
        alg = catalog.random_extension_chain(gf5, seed, 4)
        if isinstance(alg, catalog.Stuck) or alg.is_lie():
            continue
        verdict = classify(alg)
        assert verdict.case in ("codim_one_lie_subalgebra", "kernel_codim_two")
        if verdict.case == "codim_one_lie_subalgebra":
            sub = verdict.witness
            assert sub.dim == alg.dim - 1
            restricted = alg.restrict(sub)
            assert restricted.is_lie()
            # codimension-1 subalgebras are multiplicative
            assert restricted.multiplicative_lambda() is not None
            found += 1
        wit = verdict.abelian_small_codim
        assert wit is not None and wit.codim <= 3
        assert alg.is_subalgebra(wit) and alg.restrict(wit).is_abelian()
    assert found


def test_classify_is_definitive_over_the_rationals():
    # the hyperplane family over a codimension-2 radical is a single
    # parameter, and the closure condition is a quadratic in it, so the
    # witness search is complete over the rationals as well
    for seed in range(25):
        for dim in (4, 5):
            alg = catalog.random_extension_chain(QQ, seed, dim)
            if isinstance(alg, catalog.Stuck) or alg.is_lie():
                continue
            verdict = classify(alg)
            assert verdict.case in ("codim_one_lie_subalgebra", "kernel_codim_two")


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def rational_polys(draw):
    """Ascending rational coefficients: either a raw list (leading zeros
    included, as the rank-2 quadratics can have) or a scaled product of
    linear factors q x - p, repeats included, and a factor of degree up
    to 2 that may have no rational root."""
    small = st.integers(min_value=-9, max_value=9)
    if draw(st.booleans()):
        return [F(a, b) for a, b in draw(st.lists(st.tuples(small, st.integers(1, 6)), min_size=1, max_size=4))]
    poly = draw(st.lists(small, min_size=1, max_size=3).filter(lambda c: c[-1]))
    for p, q in draw(st.lists(st.tuples(small, st.integers(1, 9)), max_size=3)):
        poly = _poly_mul(poly, [-p, q])
    scale = F(draw(small.filter(bool)), draw(st.integers(1, 6)))
    return [scale * c for c in poly]


@settings(max_examples=300, deadline=None)
@given(coeffs=rational_polys())
def test_rational_roots_match_the_fraction_search(coeffs):
    got = _rational_roots(QQ, coeffs)
    assert got == rational_roots_reference(coeffs)
    assert all(type(r) is F for r in got[0])


def test_rational_roots_of_a_rootless_quadratic_with_many_divisors():
    # 735134400 has 1,344 divisors; every reduced candidate is tried
    n = 735134400
    assert _rational_roots(QQ, [F(n), F(n + 1), F(n)]) == ([], True)
    assert _rational_roots(QQ, [F(-n), F(n - 1), F(1)]) == ([F(1), F(-n)], False)


@settings(max_examples=300, deadline=None)
@given(poly=rational_polys().filter(lambda c: len(c) <= 3))
def test_quadratic_roots_match_the_rational_root_search(poly):
    assume(any(poly))
    coeffs = poly + [F(0)] * (3 - len(poly))
    trimmed = list(poly)
    while trimmed[-1] == 0:
        trimmed.pop()
    got = _quadratic_roots(QQ, coeffs)
    assert got == sorted(set(rational_roots_reference(trimmed)[0]))
    assert all(type(t) is F for t in got)


@pytest.mark.parametrize("p", [5, 7, 101])
@settings(deadline=None)
@given(data=st.data())
def test_quadratic_roots_match_every_residue(p, data):
    field = GF(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3))
    assume(any(coeffs))
    c0, c1, c2 = coeffs
    assert _quadratic_roots(field, coeffs) == [
        t for t in range(p) if (c0 + c1 * t + c2 * t * t) % p == 0
    ]


def _scaled_basis(alg, i, c):
    """The same algebra on the basis with e_i replaced by c e_i."""
    s = [F(1)] * alg.dim
    s[i] = F(c)
    bracket = {
        (a, b): {k: v * s[a] * s[b] / s[k] for k, v in row.items()}
        for (a, b), row in alg._bracket.items()
    }
    omega = {(a, b): v * s[a] * s[b] for (a, b), v in alg._omega.items()}
    return AnticommAlgebra(alg.field, alg.dim, bracket, omega).validate()


def test_classify_finds_the_witness_past_the_coefficient_cap():
    # scaling e2 by 735134400 pushes the cleared quadratic past the
    # 10^15 coefficient cap of the rational-root search
    alg = catalog.random_extension_chain(QQ, 2, 4)
    scaled = _scaled_basis(alg, 1, 735134400)
    assert classify(alg).case == "codim_one_lie_subalgebra"
    assert classify(scaled).case == "codim_one_lie_subalgebra"


@pytest.mark.parametrize(
    "dim, seed, want",
    [
        (4, 75, F(-51, 50)),
        (5, 33, F(-4, 3)),
        (5, 34, F(-2, 3)),
        (5, 118, F(-2, 3)),
        (5, 123, F(1, 2)),
        (6, 85, F(-1, 3)),
        (6, 106, F(38, 3)),
    ],
)
def test_rank2_parameters_of_a_linear_condition(dim, seed, want):
    # on these radicals the first condition has a zero t^2 coefficient,
    # which the rational-root search read as a quadratic with no root
    alg = catalog.random_extension_chain(QQ, seed, dim)
    ker = alg.omega_kernel()
    assert _rank2_line_parameters(alg, ker) == [want, None]
    r1, r2 = ker.quotient_reps()
    line = vec_add(QQ, r1, vec_scale(QQ, want, r2))
    assert alg.is_subalgebra(Subspace(QQ, dim, list(ker.rows) + [line]))


def test_rank2_parameters_over_a_large_prime_field():
    # the roots are solved for, not searched among all p residues
    field = GF(1000003)
    alg = catalog.random_extension_chain(QQ, 2, 4).with_field(field).validate()
    start = time.perf_counter()
    verdict = classify(alg)
    assert time.perf_counter() - start < 0.5
    assert verdict.case == "codim_one_lie_subalgebra"


def test_rank_is_always_degenerate(gf5):
    # the form of a valid instance of dimension >= 3 is never nondegenerate
    for seed in range(40):
        for dim in (3, 4, 5):
            alg = catalog.random_extension_chain(gf5, seed, dim)
            if isinstance(alg, catalog.Stuck):
                continue
            assert alg.omega_rank() < alg.dim


def test_alpha_vanishing_scan(n3, gf5, sl2):
    assert alpha_vanishing_scan(n3)
    checked = 0
    for seed in range(200):
        alg = catalog.random_dim3(gf5, seed)
        if alg.is_lie():
            continue
        assert alpha_vanishing_scan(alg)
        checked += 1
    assert checked > 150
    with pytest.raises(PreconditionFailed):
        alpha_vanishing_scan(sl2)
    with pytest.raises(PreconditionFailed):
        alpha_vanishing_scan(AnticommAlgebra(QQ, 4))
