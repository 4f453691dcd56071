import random
import sys
import time
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

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
from olie.errors import NotAbelianSubalgebra, NotASubalgebra, OlieError, PreconditionFailed
from olie import structure
from olie.extensions import one_dim_module, semidirect
from olie.linalg import basis_vector, kernel_basis, projective_points, vec_add, vec_scale
from olie.structure import (
    _abelian_witness,
    _eigenspaces,
    _quadratic_roots,
    _rank2_line_parameters,
    _rational_roots,
)

from oracles import (
    abelian_part_reference,
    abelian_witness_reference,
    bracket_reference,
    classify_reference,
    eigenspaces_reference,
    fitting_decomposition_reference,
    rational_roots_reference,
)
from strategies import FIELDS, algebras, scalars


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


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
def test_rank2_line_parameters_over_a_subalgebra_core(field):
    """Over a codimension-2 core that is a subalgebra, the parameters
    give the hyperplanes over it that are subalgebras, in the order of
    the pencil: t ascending, then the line through r2.  Over GF(5) every
    closure condition vanishes on span(e1, e2, e3), so all six lines
    give subalgebras and t = 0 comes first; over Q two of them do."""
    alg = catalog.random_extension_chain(field, 0, 5)
    e = [basis_vector(field, 5, i) for i in range(5)]
    core = Subspace(field, 5, e[:3])
    assert alg.is_subalgebra(core)

    def closed(a, b):
        line = vec_add(field, vec_scale(field, a, e[3]), vec_scale(field, b, e[4]))
        return alg.is_subalgebra(Subspace(field, 5, e[:3] + [line]))

    params = _rank2_line_parameters(alg, core)
    assert params == ([0, None] if field.char else [F(-4), F(0)])
    assert all(closed(0, 1) if t is None else closed(1, t) for t in params)
    if field.char:
        assert all(closed(a, b) for a, b in projective_points(5, 2))
    else:
        assert not closed(0, 1) and not closed(1, 1)


def _classified_algebras(field, dims, seeds):
    """Non-Lie chains over ``field`` and their semidirect products with
    the 1-dimensional modules of up to two multiplicative forms."""
    out = []
    for dim in dims:
        for seed in seeds:
            alg = catalog.random_extension_chain(field, seed, dim)
            if isinstance(alg, catalog.Stuck):
                continue
            out.append(alg)
            lam_set = alg.multiplicative_lambda()
            points = [] if lam_set is None else lam_set.points() if field.char else [lam_set.particular]
            for lam, _ in zip(points, range(2)):
                out.append(semidirect(alg, one_dim_module(alg, lam)))
    return [alg for alg in out if not alg.is_lie()]


@pytest.mark.parametrize("dim", [4, 5, 6, 7])
@pytest.mark.parametrize("field", [GF(5), GF(7), QQ], ids=str)
def test_classify_matches_the_search_it_replaced(field, dim):
    """Whole verdicts against the earlier classifier, which searched
    every candidate hyperplane, checked each one, and fell back on the
    kernels of alpha covectors over the rationals."""
    cases = set()
    for alg in _classified_algebras(field, [dim], range(12)):
        got = classify(alg)
        assert got.to_json_dict(field) == classify_reference(alg).to_json_dict(field)
        ker = alg.omega_kernel()
        assert alg._abelian_part(ker) == abelian_part_reference(alg, ker)
        if got.witness is not None:
            assert alg._abelian_part(got.witness) == abelian_part_reference(alg, got.witness)
        cases.add(got.case)
    assert "kernel_codim_two" in cases


@pytest.mark.parametrize("field", [GF(5), GF(7), GF(11), QQ], ids=str)
def test_the_law_decides_the_codimension_one_search(field):
    """The lemmas behind ``classify``, on non-Lie chains of dimensions 4
    to 8 and their semidirect products: (C) a radical of codimension 2
    is a subalgebra; (B) every hyperplane of the pencil over it
    restricts to a Lie algebra; (D) the adjoints of the radical's
    abelian part commute, so the Fitting null part is everything exactly
    when each adjoint is nilpotent; (A) over GF(5) in dimension 4, where
    every hyperplane is enumerated (chains of dimension 4, and those of
    dimension 3 with a module), each Lie hyperplane holds the radical
    and the form has rank 2."""
    hyperplanes = 0
    for alg in _classified_algebras(field, range(4, 9), range(6)):
        n, ker = alg.dim, alg.omega_kernel()
        part = alg._radical_part()
        if part is not None:
            null, _ = fitting_decomposition(alg, part)
            powers = [structure._stable_power(field, alg.ad(list(h)), n) for h in part.rows]
            assert null.is_full() == (not any(any(map(any, m)) for m in powers))
        if ker.codim != 2:
            continue
        assert alg.is_subalgebra(ker)
        r1, r2 = ker.quotient_reps()
        for t in _rank2_line_parameters(alg, ker):
            line = r2 if t is None else vec_add(field, r1, vec_scale(field, t, r2))
            assert alg.restrict(Subspace(field, n, list(ker.rows) + [line])).is_lie()
            hyperplanes += 1
    assert hyperplanes
    if field != GF(5):
        return
    lie_hyperplanes = 0
    for alg in _classified_algebras(field, [3, 4], range(12)):
        if alg.dim != 4:
            continue
        for covector in projective_points(5, 4):
            sub = Subspace(field, 4, kernel_basis(field, [covector], 4))
            if alg.is_subalgebra(sub) and alg.restrict(sub).is_lie():
                assert sub.contains_subspace(alg.omega_kernel()) and alg.omega_rank() == 2
                lie_hyperplanes += 1
    assert lie_hyperplanes


def test_classify_certifies_a_plain_table(sl2e, s4):
    # the shortcuts rest on the law, so a table that breaks it is refused
    with pytest.raises(PreconditionFailed, match="defining law fails on basis triple"):
        classify(sl2e)
    plain = AnticommAlgebra(QQ, 4, s4._bracket, s4._omega)
    assert classify(plain).to_json_dict(QQ) == classify(s4).to_json_dict(QQ)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_abelian_part_matches_the_induced_solve(data):
    """On any table and subspace, subalgebra or not, the abelian part
    read off the canonical rows is the one the induced algebra's dense
    solve gave."""
    field = data.draw(st.sampled_from(FIELDS))
    mode = data.draw(st.sampled_from(["catalog radical", "table radical", "table subspace"]))
    if mode == "catalog radical":
        alg = _algebra_from(data.draw, field)
    else:
        alg = data.draw(algebras(field, max_dim=5))
    n = alg.dim
    if mode == "table subspace":
        vectors = data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=n))
        sub = Subspace(field, n, vectors)
    else:
        sub = alg.omega_kernel()
    got = alg._abelian_part(sub)
    assert got == abelian_part_reference(alg, sub)
    event(f"{mode}: {'abelian part' if got is not None else 'none'}")


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


# -- Fitting and abelian witness against the earlier bodies ---------------


def _outcome(fn, *args):
    """The rows a Fitting call returns, or the type of error it raises."""
    try:
        return tuple(sub.rows for sub in fn(*args))
    except OlieError as exc:
        return type(exc)


def _nonzero(field):
    if field.char:
        return st.integers(1, field.char - 1)
    return st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))


def _aff1_cubed(field):
    """lie.aff1 three times over, basis a_0, b_0, a_1, b_1, a_2, b_2 with
    [a_i, b_i] = a_i: the b_i commute and act semisimply, with ad b_i
    having eigenvalue 1 on a_i and 0 elsewhere."""
    bracket = {(2 * i, 2 * i + 1): {2 * i: 1} for i in range(3)}
    return AnticommAlgebra(field, 6, bracket).validate()


def _algebra_from(draw, field):
    """A catalog algebra, lie.aff1 cubed or a chain of dimension 3 to 6
    over ``field``."""
    name = draw(st.sampled_from(["lie.sl2", "family.iiia", "omega.s4", "aff1^3", "chain"]))
    if name == "aff1^3":
        return _aff1_cubed(field)
    if name != "chain":
        return catalog.builtin_algebra(name, field)
    alg = catalog.random_extension_chain(field, draw(st.integers(0, 60)), draw(st.integers(3, 6)))
    assume(not isinstance(alg, catalog.Stuck))
    return alg


def _commuting_basis_span(alg, i):
    """e_i and, greedily, every basis vector commuting with those taken:
    an abelian subalgebra, often outside the radical of the form."""
    field, n = alg.field, alg.dim
    taken = [basis_vector(field, n, i)]
    for j in range(n):
        ej = basis_vector(field, n, j)
        if not any(any(alg.bracket(m, ej)) for m in taken):
            taken.append(ej)
    return Subspace(field, n, taken)


@st.composite
def fitting_inputs(draw):
    """An algebra and a subspace: one drawn vector (abelian, its single
    adjoint commutes with itself, and a non-nilpotent one gives a proper
    L0), or a drawn subspace of dimension 1 to 3 of an abelian
    subalgebra: the radical or its abelian part, where the adjoints
    commute, or a span of commuting basis vectors, where they may not."""
    field = draw(st.sampled_from(FIELDS))
    alg = _algebra_from(draw, field)
    n = alg.dim
    mode = draw(st.sampled_from(["vector", "radical", "basis"]))
    if mode == "vector":
        v = draw(st.lists(scalars(field), min_size=n, max_size=n))
        assume(any(v))
        return alg, Subspace(field, n, [v])
    host = None
    if mode == "radical":
        ker = alg.omega_kernel()
        host = ker if alg.is_abelian_subspace(ker) else alg._abelian_part(ker)
    if host is None:
        host = _commuting_basis_span(alg, draw(st.integers(0, n - 1)))
    rows = host.basis()
    order = draw(st.permutations(range(len(rows))))
    k = draw(st.integers(1, min(3, len(rows))))
    # row order[t] plus multiples of the rows not chosen: k independent vectors
    combos = []
    for t in order[:k]:
        v = list(rows[t])
        for s in order[k:]:
            v = vec_add(field, v, vec_scale(field, draw(scalars(field)), rows[s]))
        combos.append(v)
    return alg, Subspace(field, n, combos)


@settings(max_examples=150, deadline=None)
@given(case=fitting_inputs())
def test_fitting_matches_the_matrix_power_reference(case):
    alg, sub = case
    got = _outcome(fitting_decomposition, alg, sub)
    assert got == _outcome(fitting_decomposition_reference, alg, sub)
    if isinstance(got, tuple):
        event(f"dim {sub.dim}, {'proper' if 0 < len(got[0]) < alg.dim else 'improper'} L0")
    else:
        event(got.__name__)


def test_fitting_reaches_proper_null_components():
    # sl2 by h, single chain basis vectors and one to three of the b_i in
    # lie.aff1 cubed: L0 is neither zero nor L, so the kernel, the lift
    # and the rebuild all run
    proper = 0
    for field in FIELDS:
        sl2 = catalog.builtin_algebra("lie.sl2", field)
        cases = [(sl2, span(field, 3, (0, 0, 1))), (sl2, span(field, 3, (1, 1, 1)))]
        cubed = _aff1_cubed(field)
        b = [basis_vector(field, 6, i) for i in (1, 3, 5)]
        cases += [(cubed, Subspace(field, 6, b[:k])) for k in (1, 2, 3)]
        for seed in range(6):
            alg = catalog.random_extension_chain(field, seed, 5)
            if not isinstance(alg, catalog.Stuck):
                cases += [(alg, span(field, 5, basis_vector(field, 5, i))) for i in range(5)]
        for alg, sub in cases:
            got = _outcome(fitting_decomposition, alg, sub)
            assert got == _outcome(fitting_decomposition_reference, alg, sub)
            null, one = got
            proper += 0 < len(null) < alg.dim
            assert len(null) + len(one) == alg.dim
        # b_0, ..., b_{k-1} move exactly a_0, ..., a_{k-1}
        for k in (1, 2, 3):
            null, one = fitting_decomposition(cubed, Subspace(field, 6, b[:k]))
            assert one == span(field, 6, *(basis_vector(field, 6, 2 * i) for i in range(k)))
            assert null.dim == 6 - k
    assert proper >= 10


def test_fitting_raises_on_an_abelian_pair_outside_the_radical(s4):
    """For [a,b] = 0 the law gives [ad a, ad b](x) = [[x,a],b] - [[x,b],a]
    = J(x,a,b) = w(x,a)b + w(a,b)x + w(b,x)a.  In omega.s4 (basis e_0 to
    e_3) the pair e_2, e_3 brackets to zero, but w(e_1,e_2) = w(e_1,e_3)
    = 2, so neither lies in the radical of the form and
    [ad e_2, ad e_3](e_1) = 2 e_3 - 2 e_2: the adjoints do not commute and
    no Fitting pair is defined.  ``classify`` passes the abelian part of
    the radical, on which every term of J vanishes, so its check always
    passes there."""
    ea, eb = basis_vector(QQ, 4, 2), basis_vector(QQ, 4, 3)
    assert not any(s4.bracket(ea, eb))
    for i in range(4):
        x = basis_vector(QQ, 4, i)
        left = [
            p - q
            for p, q in zip(s4.bracket(s4.bracket(x, ea), eb), s4.bracket(s4.bracket(x, eb), ea))
        ]
        law = [
            s4.omega(x, ea) * u + s4.omega(ea, eb) * v + s4.omega(eb, x) * w
            for u, v, w in zip(eb, x, ea)
        ]
        assert left == law
        if i == 1:
            assert left == [0, 0, -2, 2]
    sub = span(QQ, 4, ea, eb)
    with pytest.raises(PreconditionFailed, match="adjoint maps of the subalgebra do not commute"):
        fitting_decomposition(s4, sub)
    assert _outcome(fitting_decomposition_reference, s4, sub) is PreconditionFailed
    # the abelian part of the radical passes the check
    part = s4._abelian_part(s4.omega_kernel())
    assert fitting_decomposition(s4, part)[0].is_full()


@st.composite
def dense_tables(draw, field, dim):
    """A table in which every basis pair brackets to a nonzero vector, so
    every basis vector commutes only with its own line."""
    bracket, omega = {}, {}
    for pair in combinations(range(dim), 2):
        image = draw(st.dictionaries(st.integers(0, dim - 1), scalars(field), max_size=dim))
        image[draw(st.integers(0, dim - 1))] = draw(_nonzero(field))
        bracket[pair] = image
        omega[pair] = draw(scalars(field))
    return AnticommAlgebra(field, dim, bracket, omega)


def _witness_rows(alg, extra=()):
    """The rows of the witness and of its reference, and whether the
    witness search grew projective lines."""
    with mock.patch.object(
        structure, "_centralizer_points", wraps=structure._centralizer_points
    ) as spy:
        got = _abelian_witness(alg, extra)
    want = abelian_witness_reference(alg, extra)
    rows = [None if s is None else s.rows for s in (got, want)]
    return *rows, spy.called


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_abelian_witness_matches_the_bracket_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    source = data.draw(st.sampled_from(["random", "dense", "dense", "algebra"]))
    if source == "random":
        alg = data.draw(algebras(field, max_dim=5))
    elif source == "dense":
        alg = data.draw(dense_tables(field, 5))
    else:
        alg = _algebra_from(data.draw, field)
    n = alg.dim
    vectors = data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=2))
    extra = [Subspace(field, n, vectors)] if vectors else []
    got, want, fallback = _witness_rows(alg, extra)
    assert got == want
    if fallback:
        event(f"{field!r}: projective lines grown")


def test_abelian_witness_projective_fallback_over_gf5(gf5):
    # on dense dim-5 tables every basis vector commutes with its own line
    # alone, so the fixed candidates often stay at codimension 4 and the
    # projective lines are grown
    grown = 0
    for seed in range(12):
        got, want, fallback = _witness_rows(_seeded_dense_table(gf5, 5, seed))
        assert got == want
        grown += fallback
    assert grown >= 3


@pytest.mark.parametrize("p", [5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_centralizer_points_are_the_filtered_projective_points(p, data):
    # the fallback grows only the points that commute with at least f
    # basis vectors, in projective order; every f from 0 (all points)
    # to n (the center's points) is held to the brute-force filter
    field = GF(p)
    alg = data.draw(dense_tables(field, data.draw(st.integers(2, 5 if p == 5 else 4))))
    n = alg.dim
    e = [basis_vector(field, n, j) for j in range(n)]
    points = list(projective_points(p, n))
    zeros = [sum(not any(bracket_reference(alg, v, ej)) for ej in e) for v in points]
    for f in range(n + 1):
        want = [v for v, z in zip(points, zeros) if z >= f]
        assert structure._centralizer_points(alg, f) == want


def _seeded_dense_table(field, dim, seed):
    """A dense table over a prime field, as ``dense_tables`` draws them."""
    rng = random.Random(seed)
    bracket, omega = {}, {}
    for pair in combinations(range(dim), 2):
        image = {k: rng.randrange(field.char) for k in range(dim) if rng.random() < 0.5}
        image[rng.randrange(dim)] = rng.randrange(1, field.char)
        bracket[pair] = image
        omega[pair] = rng.randrange(field.char)
    return AnticommAlgebra(field, dim, bracket, omega)


def test_classify_computes_the_radical_once(monkeypatch, s4):
    """The radical of the form and its abelian part are computed once per
    algebra, whichever verdict ``classify`` reaches and however often it
    runs, and the candidates grown from basis vectors read the pair
    table, not the bracket."""
    chain = catalog.random_extension_chain(QQ, 0, 5)
    codim_one = catalog.random_extension_chain(QQ, 2, 4)
    calls = []
    for name in ("omega_kernel", "_abelian_part", "bracket"):
        real = getattr(AnticommAlgebra, name)

        def counted(self, *args, _real=real, _name=name):
            # the nearest callers by name; a generator expression sits
            # between a bracket and the function that runs it
            frame = sys._getframe(1)
            callers = {frame.f_code.co_name, frame.f_back.f_code.co_name}
            result = _real(self, *args)
            calls.append((_name, self, args, callers, result))
            return result

        monkeypatch.setattr(AnticommAlgebra, name, counted)
    cases = set()
    for alg in (s4, chain, codim_one):
        ker = alg.omega_kernel()
        for run in range(2):
            calls.clear()
            cases.add(classify(alg).case)
            own = [(name, args, result) for name, who, args, _, result in calls if who is alg]
            # every call returns the radical computed first
            assert all(result is ker for name, _, result in own if name == "omega_kernel")
            # its abelian part is computed by the first verdict only
            parts = sum(name == "_abelian_part" and args == (ker,) for name, args, _ in own)
            assert parts == (1 if run == 0 else 0)
            assert not [c for c in calls if c[0] == "bracket" and "grown" in c[3]]
        # the earlier body grew its candidates by brackets
        calls.clear()
        abelian_witness_reference(alg)
        assert [c for c in calls if c[0] == "bracket" and "grown" in c[3]]
    assert cases == {"kernel_codim_two", "codim_one_lie_subalgebra"}


def _sl2_plus_line(field):
    """lie.sl2 plus a central line e_3: h = e_2 and e_3 span an abelian
    subalgebra of dimension 2, inside the radical of the zero form."""
    sl2 = catalog.builtin_algebra("lie.sl2", field)
    return AnticommAlgebra(field, 4, sl2._bracket).validate()


def test_root_decomposition_is_undecided_past_the_eigenvalue_search():
    # over GF(4099) ad h of sl2 has eigenvalues 0 and +-1, but no prime
    # field above 4096 is searched: the answer is undecided, not "does
    # not split"
    big, small = GF(4099), GF(7)
    dec = root_decomposition(catalog.builtin_algebra("lie.sl2", big), span(big, 3, (0, 0, 1)))
    assert dec.split is None and dec.roots == []
    assert dec.fitting_null == span(big, 3, (0, 0, 1))
    dec = root_decomposition(catalog.builtin_algebra("lie.sl2", small), span(small, 3, (0, 0, 1)))
    assert dec.split is True
    assert sorted(vals[0] for vals, _ in dec.roots) == [0, 1, 6]
    with pytest.raises(PreconditionFailed, match="splitting is undecided"):
        check_root_properties(_sl2_plus_line(big), span(big, 4, (0, 0, 1, 0), (0, 0, 0, 1)))
    assert check_root_properties(
        _sl2_plus_line(small), span(small, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    ).ok
    # over Q a polynomial without rational roots is decided: no split
    alg = AnticommAlgebra(QQ, 3, bracket={(0, 2): {1: 1}, (1, 2): {0: -1}})
    assert root_decomposition(alg, span(QQ, 3, (0, 0, 1))).split is False


def test_root_decomposition_is_undecided_past_the_root_search_cap():
    # ad e_1 on [e_0, e_1] = c e_0 has the rational eigenvalues 0 and c;
    # past the 10^15 cap of the rational-root search the answer is
    # undecided, not "does not split"
    for c, split in ((10**6, True), (10**16, None)):
        alg = AnticommAlgebra(QQ, 3, bracket={(0, 1): {0: c}})
        dec = root_decomposition(alg, span(QQ, 3, (0, 1, 0)))
        assert dec.split is split
        assert _rational_roots(QQ, [F(-c), F(1)]) == (([F(c)], False) if split else ([], None))
        radical_part = span(QQ, 3, (0, 1, 0), (0, 0, 1))
        if split:
            assert sorted(vals[0] for vals, _ in dec.roots) == [0, c]
            assert check_root_properties(alg, radical_part).ok
        else:
            with pytest.raises(PreconditionFailed, match="splitting is undecided"):
                check_root_properties(alg, radical_part)


@st.composite
def square_matrices(draw, field, max_dim=4):
    """A matrix drawn entry by entry, or a triangular one (its
    characteristic polynomial splits, often with repeated roots)
    conjugated by a few elementary matrices I + c E_ij."""
    n = draw(st.integers(1, max_dim))
    m = [[draw(scalars(field)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        m = [[x if j >= i else field.zero() for j, x in enumerate(row)] for i, row in enumerate(m)]
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(scalars(field))
            m[i] = [field.add(a, field.mul(c, b)) for a, b in zip(m[i], m[j])]
            for row in m:
                row[j] = field.sub(row[j], field.mul(c, row[i]))
    return m


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eigenspaces_match_the_dense_powers(field, data):
    matrix = data.draw(square_matrices(field))
    got = _eigenspaces(field, matrix)
    event(f"{len(got)} eigenvalues")
    assert got == eigenspaces_reference(field, matrix)


@pytest.mark.parametrize("p", [101, 4093])
def test_eigenspaces_of_sl2_at_a_large_prime_match_the_dense_powers(p):
    field = GF(p)
    ad_h = catalog.builtin_algebra("lie.sl2", field).ad([0, 0, 1])
    got = _eigenspaces(field, ad_h)
    assert [lam for lam, _ in got] == [0, 1, p - 1]
    assert got == eigenspaces_reference(field, ad_h)
