import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from olie import (
    QQ,
    builtin,
    builtin_names,
    evaluate,
    evaluate_on_vectors,
    find_counterexample,
    holds,
    parse_identity,
)
from olie import GF, AnticommAlgebra, catalog
from olie.errors import (
    ArityMismatch,
    DimensionMismatch,
    IdentitySyntaxError,
    IdentityTypeError,
    NotMultilinear,
    UnknownIdentity,
)
from olie.identities import (
    BRACKET,
    b,
    compile_term,
    format_term,
    max_var,
    minus,
    parse_term,
    plus,
    s,
    var,
    w,
)
from olie.linalg import basis_vector, vec_is_zero

from oracles import d_omega_reference, eval_reference
from strategies import FIELDS, algebras, assert_canonical


def test_parse_vector_term():
    ident = parse_identity("(b (b x1 x2) x3)")
    assert ident.num_vars == 3 and ident.result_type == "vec"


def test_parse_scale_by_form():
    ident = parse_identity("(s (w x1 x2) x3)")
    assert ident.result_type == "vec"
    term = parse_term("(- (s 2 x1) (s 2 x1))")
    assert max_var(term) == 1


def test_parse_rejects_repeated_variable():
    with pytest.raises(NotMultilinear):
        parse_identity("(b x1 x1)")


def test_parse_errors():
    with pytest.raises(IdentitySyntaxError):
        parse_term("(b x1")
    with pytest.raises(IdentitySyntaxError):
        parse_term("(q x1 x2)")
    with pytest.raises(IdentityTypeError):
        parse_term("(b (w x1 x2) x3)")
    with pytest.raises(IdentitySyntaxError):
        parse_term("(b x1 x2) junk")


def test_format_round_trip():
    text = "(+ (b (b x1 x2) x3) (s -1 (s (w x1 x2) x3)))"
    term = parse_term(text)
    assert parse_term(format_term(term)) == term


def test_evaluate_examples(sl2, s4):
    resid = builtin("jacobi-residual")
    for ijk in product(range(3), repeat=3):
        value = evaluate(sl2, resid, ijk)
        assert vec_is_zero(QQ, value)
    tb = builtin("two-basic")
    assert vec_is_zero(QQ, evaluate(s4, tb, (0, 1, 2, 3)))
    engel = builtin("engel")
    assert evaluate(sl2, engel, (2, 0), direct=True) == [F(-1), F(0), F(0)]


def test_evaluate_arity(sl2):
    with pytest.raises(ArityMismatch):
        evaluate(sl2, builtin("engel"), (0, 1, 2))


def test_holds_and_counterexamples(s4, sl2, sl2e, n3):
    assert holds(s4, builtin("two-basic"))
    assert holds(s4, builtin("degree5"))
    assert find_counterexample(sl2, builtin("engel")) is not None
    # on a certified algebra the 4-variable identity is equivalent to the
    # vanishing of dw, so it breaks exactly where dw does
    assert find_counterexample(s4, builtin("four")) == (0, 1, 2, 3)
    assert find_counterexample(sl2e, builtin("four-consequence")) == (1, 2, 3)
    assert find_counterexample(s4, builtin("four-consequence")) == (0, 1, 2)
    assert find_counterexample(n3, builtin("bin-consequence")) is not None
    assert holds(sl2, builtin("jacobi-residual"))
    assert holds(n3, builtin("jacobi-residual"))


def test_jacobi_residual_fails_on_corrupted():
    from olie import AnticommAlgebra

    bad = AnticommAlgebra(
        QQ,
        3,
        bracket={(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
        omega={(1, 2): 1},
    )
    assert find_counterexample(bad, builtin("jacobi-residual")) == (0, 1, 2)


def test_four_consequence_equals_d_omega(s4, sl2e):
    ident = builtin("four-consequence")
    for alg in (s4, sl2e):
        e = [basis_vector(QQ, 4, i) for i in range(4)]
        for i, j, k in product(range(4), repeat=3):
            want = d_omega_reference(alg, e[i], e[j], e[k])
            assert evaluate(alg, ident, (i, j, k)) == alg.d_omega(e[i], e[j], e[k]) == want


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        builtin("nope")
    assert "two-basic" in builtin_names()


def test_abg_parameters(sl2):
    ident = builtin("abg", alpha=1, beta=2, gamma=-1)
    assert ident.num_vars == 4
    # fails on the free-enough Lie algebra? at least evaluable and multilinear
    ce = find_counterexample(sl2, ident)
    value = evaluate(sl2, ident, ce) if ce else None
    assert ce is None or not vec_is_zero(QQ, value)


def test_multilinearity_soundness_random_vectors(n3, gf5):
    # holds on all basis tuples iff zero on random vector tuples
    rng = random.Random(13)
    idents = [builtin("two-basic"), builtin("bin-consequence"), builtin("four-consequence")]
    for alg in (n3, catalog.random_dim3(gf5, 4)):
        field = alg.field
        for ident in idents:
            ok = holds(alg, ident)
            vec_ok = True
            for _ in range(12):
                vectors = [
                    [
                        F(rng.randint(-2, 2)) if field is QQ else rng.randrange(5)
                        for _ in range(alg.dim)
                    ]
                    for _ in range(ident.num_vars)
                ]
                value = evaluate_on_vectors(alg, ident, vectors)
                if isinstance(value, list):
                    if not vec_is_zero(field, value):
                        vec_ok = False
                elif not field.is_zero(value):
                    vec_ok = False
            if ok:
                assert vec_ok
            # a failing identity may still vanish on unlucky samples: only
            # the forward direction is asserted per draw


def test_alternating_flag_matches_full_enumeration(n3, s4):
    # re-check flagged identities by full lexicographic enumeration
    for alg, names in ((n3, ("four-consequence", "jacobi-residual")), (s4, ("two-basic",))):
        field = alg.field
        for name in names:
            ident = builtin(name)
            fast = find_counterexample(alg, ident)
            full = None
            for tup in product(range(alg.dim), repeat=ident.num_vars):
                value = evaluate(alg, ident, tup)
                bad = (
                    not vec_is_zero(field, value)
                    if isinstance(value, list)
                    else not field.is_zero(value)
                )
                if bad:
                    full = tup
                    break
            assert fast == full


def test_degree5_holds_on_dim5_chain(gf5):
    checked = 0
    for seed in range(10):
        alg = catalog.random_extension_chain(gf5, seed, 5)
        if isinstance(alg, catalog.Stuck):
            continue
        assert holds(alg, builtin("degree5"))
        assert holds(alg, builtin("two-basic"))
        checked += 1
    assert checked


def test_engel_and_bin_direct_forms(sl2, n3):
    engel = builtin("engel")
    assert engel.direct is not None
    # [[[y,x],x],x] with y = e, x = h on the special linear algebra
    assert evaluate(sl2, engel, (2, 0), direct=True) == [F(-1), F(0), F(0)]
    b = builtin("bin")
    val = evaluate(n3, b, (0, 1), direct=True)
    assert isinstance(val, list)


# -- compiled node lists against the tree-walking reference --------------------


def test_compiled_degree5_shares_subterms():
    program = builtin("degree5").compiled()
    brackets = [node for node in program.nodes if node[0] == BRACKET]
    # 20 + 60 + 120 + 120 distinct left-normed brackets and 120 products
    # [[[a,b],c],[d,e]], against 960 bracket nodes in the tree
    assert len(brackets) == 440
    assert program.num_vars == 5
    assert builtin("degree5") is builtin("degree5")


def _is_zero_value(field, value):
    return vec_is_zero(field, value) if isinstance(value, list) else field.is_zero(value)


def _lex_tuples(ident, n):
    """The basis tuples in the enumeration order of find_counterexample."""
    k = ident.num_vars
    return combinations(range(n), k) if ident.alternating else product(range(n), repeat=k)


def _test_algebras():
    gf5 = GF(5)
    chain = catalog.random_extension_chain(gf5, 1, 5)
    assert not isinstance(chain, catalog.Stuck)
    yield catalog.builtin_algebra("lie.sl2")
    yield catalog.builtin_algebra("omega.n3")
    yield catalog.builtin_algebra("omega.s4")
    yield catalog.builtin_algebra("omega.sl2e")
    yield catalog.reduce_mod_p(catalog.builtin_algebra("omega.s4"), 7)
    yield chain


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_match_reference(name):
    ident = builtin(name)
    rng = random.Random(f"builtin/{name}")
    for alg in _test_algebras():
        field, n = alg.field, alg.dim
        e = [basis_vector(field, n, i) for i in range(n)]

        def reference(term, tup):
            return eval_reference(alg, term, {k + 1: e[i] for k, i in enumerate(tup)})

        k = ident.num_vars
        order = list(_lex_tuples(ident, n))
        if name == "degree5":  # 960 dense reference brackets a tuple
            for tup in order[:1]:
                assert evaluate(alg, ident, tup) == reference(ident.lhs, tup)
        else:
            for tup in rng.sample(order, min(6, len(order))):
                assert evaluate(alg, ident, tup) == reference(ident.lhs, tup)
            first = next(
                (t for t in order if not _is_zero_value(field, reference(ident.lhs, t))), None
            )
            assert find_counterexample(alg, ident) == first
        if ident.direct is not None:
            for tup in product(range(n), repeat=ident.direct_num_vars):
                assert evaluate(alg, ident, tup, direct=True) == reference(ident.direct, tup)
        vectors = [[field.coerce(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        want = eval_reference(alg, ident.lhs, {j + 1: v for j, v in enumerate(vectors)})
        assert evaluate_on_vectors(alg, ident, vectors) == want


@st.composite
def vector_terms(draw, names):
    """A vector-valued term using each variable of ``names`` once."""
    if len(names) == 1:
        return var(names[0])
    k = draw(st.integers(1, len(names) - 1))
    left, right = names[:k], names[k:]
    if len(left) >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, len(left) - 1))
        form = w(draw(vector_terms(left[:j])), draw(vector_terms(left[j:])))
        return s(form, draw(vector_terms(right)))
    return b(draw(vector_terms(left)), draw(vector_terms(right)))


@st.composite
def multilinear_texts(draw):
    """A random multilinear identity, as text: a sum of monomials in the
    same variables, some scaled, some repeated, vector- or scalar-valued."""
    nvars = draw(st.integers(1, 4))
    scalar = nvars >= 2 and draw(st.booleans())
    monomials = []
    for _ in range(draw(st.integers(1, 3))):
        names = tuple(draw(st.permutations(range(1, nvars + 1))))
        if scalar:
            k = draw(st.integers(1, nvars - 1))
            mono = w(draw(vector_terms(names[:k])), draw(vector_terms(names[k:])))
        else:
            mono = draw(vector_terms(names))
            c = draw(st.integers(-3, 3))
            if c != 1:
                mono = s(c, mono)
        monomials.append(mono)
    if draw(st.booleans()):
        # repeated subterms; a scalar term cannot be scaled by -1
        twice = plus if scalar else minus
        monomials.append(twice(monomials[0], monomials[-1]))
    term = plus(*monomials) if len(monomials) > 1 else monomials[0]
    return format_term(term)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parsed_identities_match_reference(field, data):
    ident = parse_identity(data.draw(multilinear_texts()))
    alg = data.draw(algebras(field, max_dim=4, min_dim=1))
    n = alg.dim
    scalar = st.integers(-4, 4).map(field.coerce)
    if not field.char:
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    vectors = [
        data.draw(st.lists(scalar, min_size=n, max_size=n)) for _ in range(ident.num_vars)
    ]
    env = {k + 1: v for k, v in enumerate(vectors)}
    want = eval_reference(alg, ident.lhs, env)
    got = evaluate_on_vectors(alg, ident, vectors)
    assert got == want
    assert type(got) is type(want)
    assert_canonical(field, got if isinstance(got, list) else [got])
    tup = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=ident.num_vars, max_size=ident.num_vars)))
    e = {k + 1: basis_vector(field, n, i) for k, i in enumerate(tup)}
    got = evaluate(alg, ident, tup)
    assert got == eval_reference(alg, ident.lhs, e)
    assert_canonical(field, got if isinstance(got, list) else [got])
    assert evaluate(alg, ident.lhs, tup) == got
    assert compile_term(ident.lhs) == ident.compiled()


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_find_counterexample_matches_reference(field, data):
    ident = parse_identity(data.draw(multilinear_texts()))
    alg = data.draw(algebras(field, max_dim=4, min_dim=1))
    n = alg.dim
    e = [basis_vector(field, n, i) for i in range(n)]
    first = next(
        (
            tup
            for tup in _lex_tuples(ident, n)
            if not _is_zero_value(
                field, eval_reference(alg, ident.lhs, {k + 1: e[i] for k, i in enumerate(tup)})
            )
        ),
        None,
    )
    assert find_counterexample(alg, ident) == first


def test_degree5_with_growing_denominators():
    # every structure constant and form value has a denominator in 2..6,
    # so the value of each node carries a product of them through the
    # four nested brackets of [[[[a,b],c],d],e]
    rng = random.Random("degree5/denominators")
    n = 5
    coeff = lambda: F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(2, 6))
    bracket = {
        pair: {k: coeff() for k in rng.sample(range(n), 2)} for pair in combinations(range(n), 2)
    }
    omega = {pair: coeff() for pair in combinations(range(n), 2)}
    alg = AnticommAlgebra(QQ, n, bracket, omega)
    ident = builtin("degree5")
    e = {k + 1: basis_vector(QQ, n, k) for k in range(n)}
    got = evaluate(alg, ident, tuple(range(n)))
    assert got == eval_reference(alg, ident.lhs, e)
    assert any(got) and any(x.denominator > 1 for x in got)
    assert_canonical(QQ, got)
    assert find_counterexample(alg, ident) == tuple(range(n))


# -- inputs of the wrong shape --------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["(+ (s 2 (b x1 x2)) (s 3 (b x1 x2)))", "(b (+ (s 2 x1) (s 3 x1)) x2)"],
)
def test_summands_cancelling_only_mod_p(text):
    """Sums and scalings between products run on unreduced ints over
    GF(p); the bracket and the final conversion reduce them, so a sum of
    5 times a bracket vanishes over GF(5) and not over Q."""
    ident = parse_identity(text)
    assert holds(catalog.builtin_algebra("lie.sl2", GF(5)), ident)
    assert not holds(catalog.builtin_algebra("lie.sl2", QQ), ident)


def test_omega_rejects_vectors_of_the_wrong_length(s4):
    e = [basis_vector(QQ, 4, i) for i in range(4)]
    with pytest.raises(DimensionMismatch):
        s4.omega(e[0] + [F(0)], e[1] + [F(0)])
    with pytest.raises(DimensionMismatch):
        s4.omega(e[0], e[1][:3])


def test_evaluate_on_vectors_rejects_vectors_of_the_wrong_length(s4):
    e = [basis_vector(QQ, 4, i) for i in range(4)]
    term = parse_term("(s (w x1 x2) x3)")
    with pytest.raises(DimensionMismatch):
        evaluate_on_vectors(s4, term, [e[0], e[1], [F(1)] * 7])


def test_evaluate_rejects_basis_indices_out_of_range(s4):
    term = parse_term("(b x1 x2)")
    for tup in ((-1, 0), (4, 0)):
        with pytest.raises(DimensionMismatch):
            evaluate(s4, term, tup)
