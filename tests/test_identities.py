import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    PreconditionFailed,
    UnknownIdentity,
)
from olie import identities
from olie.identities import (
    BRACKET,
    INT,
    OMEGA,
    SCALE,
    SUM,
    Identity,
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
from olie.linalg import basis_vector, from_scaled, to_scaled, vec_is_zero

from oracles import (
    compile_term_collected_reference,
    compile_term_reference,
    d_omega_reference,
    eval_reference,
    linearized_reference,
    run_reference,
    tokenize_reference,
)
from strategies import (
    FIELDS,
    algebras,
    assert_canonical,
    invertible_matrices,
    scalars,
    transport,
)


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


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(
        alphabet=st.sampled_from(list("()xbws+-019 \t\n\x0b\x1c\x85\xa0\u2003\u3000\u00e9\u00b2\u0663"))
        | st.characters(),
        max_size=80,
    )
)
def test_tokenize_matches_the_character_loop(text):
    assert identities._tokenize(text) == tokenize_reference(text)


@pytest.mark.parametrize("atom", ["7" * 10**6, "x" + "1" * (10**6 - 1), "a" * 10**6])
def test_a_long_atom_is_a_syntax_error(atom):
    # the tokens come from one regex pass, linear in the text's length
    start = time.perf_counter()
    with pytest.raises(IdentitySyntaxError):
        parse_term(f"(b x1 {atom})")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("text", ["(b x1 x\u00b2)", "(b x1 x" + "0" * 5000 + "2)"])
def test_unreadable_variable_subscripts_are_syntax_errors(text):
    # a superscript digit and a subscript past int's digit limit
    with pytest.raises(IdentitySyntaxError):
        parse_term(text)


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
    assert evaluate(sl2, engel.direct, (2, 0)) == [F(-1), F(0), F(0)]


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
    assert evaluate(sl2, engel.direct, (2, 0)) == [F(-1), F(0), F(0)]
    b = builtin("bin")
    val = evaluate(n3, b.direct, (0, 1))
    assert isinstance(val, list)


def test_a_bare_term_is_compiled_once(sl2):
    compiles = []
    original = identities._compile

    def counted(term, group):
        compiles.append(term)
        return original(term, group)

    direct = builtin("engel").direct
    identities._compiled_term.cache_clear()
    with mock.patch.object(identities, "_compile", counted):
        first = evaluate(sl2, direct, (2, 0))
        assert compiles
        compiled = len(compiles)
        assert evaluate(sl2, direct, (2, 0)) == first
        evaluate_on_vectors(sl2, direct, [[F(1), F(0), F(0)], [F(0), F(1), F(1)]])
        assert len(compiles) == compiled


# -- compiled node lists against the tree-walking reference --------------------


def test_compiled_degree5_shares_subterms():
    ident = builtin("degree5")
    program = ident.compiled()
    brackets = [node for node in program.nodes if node[0] == BRACKET]
    sums = sorted(len(node[1]) for node in program.nodes if node[0] == SUM)
    # modulo anticommutativity [a,b] is one node per pair a < b: 10
    # brackets [a,b] and 30 [[a,b],c].  By bilinearity the 60 products
    # [[[[a,b],c],d],e] over one e become [S_e, e] (5 brackets), S_e the
    # sum of the 4 brackets [T, d] over d != e (20), and the 30 products
    # [[[a,b],c],[d,e]] over one pair d < e become [T', [d,e]] (10); T
    # and T' are sums of the 3 brackets [[a,b],c] on the other three
    # variables
    assert len(brackets) == 10 + 30 + 20 + 5 + 10 == 75
    assert sums == [3] * (20 + 10) + [4] * 5 + [5 + 10]
    assert program.nodes[-1][0] == SUM and len(program.nodes[-1][1]) == 5 + 10
    # collected but not grouped: 10 + 30 + 60 + 60 + 30 = 190 brackets and
    # one sum of the 90 products, against 440 brackets shared only up to
    # syntax and 960 in the tree
    collected = compile_term_collected_reference(ident.lhs)
    assert sum(node[0] == BRACKET for node in collected.nodes) == 190
    assert len(collected.nodes[-1][1]) == 60 + 30
    assert program.num_vars == 5
    assert builtin("degree5") is builtin("degree5")


def assert_canonical_program(program):
    """No bracket or form node with ``i >= j``, no sum part with
    coefficient 0 or out of node order, each node read only after it is
    built, and every node but the root read by a later node."""
    nodes, read = program.nodes, set()
    for at, node in enumerate(nodes):
        tag = node[0]
        if tag == SUM:
            operands = [i for _, i in node[1]]
            assert all(c for c, _ in node[1])
            assert operands == sorted(set(operands))
        elif tag in (BRACKET, OMEGA, SCALE):
            operands = node[1:]
            assert tag == SCALE or node[1] < node[2]
        else:
            operands = ()
        assert all(i < at for i in operands)
        read.update(operands)
    assert read == set(range(len(nodes) - 1))
    assert len(set(nodes)) == len(nodes)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_programs_are_canonical(name):
    ident = builtin(name)
    assert_canonical_program(ident.compiled())
    assert_canonical_program(compile_term(ident.direct or ident.lhs))


def test_cancelling_identity_keeps_its_arity(sl2):
    ident = Identity("z", parse_term("(+ (b x1 x2) (b x2 x1))"))
    assert ident.num_vars == 2
    assert evaluate(sl2, ident, (0, 1)) == [F(0)] * 3
    assert holds(sl2, ident)
    with pytest.raises(ArityMismatch):
        evaluate(sl2, ident, (0,))


def test_compiled_programs_do_not_depend_on_the_hash_seed():
    """Built-in programs compile to equal node lists in fresh interpreters
    with different string-hash seeds."""
    script = (
        "from olie.identities import builtin, builtin_names, compile_term\n"
        "for name in builtin_names():\n"
        "    ident = builtin(name)\n"
        "    print(name, ident.compiled().nodes, compile_term(ident.direct or ident.lhs).nodes)\n"
    )
    src = str(Path(identities.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == len(builtin_names())


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


def _degree5_algebras():
    """Past the dimension-5 chain of :func:`_test_algebras`: a chain of
    dimension 6, on which degree5 holds, and random tables of dimensions
    5 and 6, on which it fails."""
    chain = catalog.random_extension_chain(GF(5), 0, 6)
    assert not isinstance(chain, catalog.Stuck)
    yield chain
    rng = random.Random("degree5/tables")
    for field, n in ((QQ, 5), (GF(7), 6)):
        pairs = list(combinations(range(n), 2))
        bracket = {
            pair: {k: field.coerce(rng.randint(-2, 2)) for k in rng.sample(range(n), 2)}
            for pair in pairs
        }
        omega = {pair: field.coerce(rng.randint(-2, 2)) for pair in pairs}
        yield AnticommAlgebra(field, n, bracket, omega)


def reference_value(alg, term, vectors):
    """The value of a term by the earlier compiler and runner, which share
    subterms only up to syntax."""
    field = alg.field
    args = [to_scaled(field, v) for v in vectors]
    ints, den = run_reference(alg, compile_term_reference(term), args)
    if isinstance(ints, list):
        return from_scaled(field, ints, den)
    return from_scaled(field, [ints], den)[0]


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_match_reference(name):
    ident = builtin(name)
    rng = random.Random(f"builtin/{name}")
    algebras = list(_test_algebras())
    if name == "degree5":
        algebras += _degree5_algebras()
    counterexamples = []
    for alg in algebras:
        field, n = alg.field, alg.dim
        e = [basis_vector(field, n, i) for i in range(n)]

        def reference(term, tup):
            return eval_reference(alg, term, {k + 1: e[i] for k, i in enumerate(tup)})

        k = ident.num_vars
        order = list(_lex_tuples(ident, n))
        if name == "degree5":
            # 960 dense reference brackets a tuple in the tree, so every
            # tuple is checked against the earlier program instead
            reference = lambda term, tup: reference_value(alg, term, [e[i] for i in tup])
        for tup in order if name == "degree5" else rng.sample(order, min(6, len(order))):
            assert evaluate(alg, ident, tup) == reference(ident.lhs, tup)
        first = next(
            (t for t in order if not _is_zero_value(field, reference(ident.lhs, t))), None
        )
        assert find_counterexample(alg, ident) == first
        counterexamples.append(first)
        if ident.direct is not None:
            for tup in product(range(n), repeat=max_var(ident.direct)):
                assert evaluate(alg, ident.direct, tup) == reference(ident.direct, tup)
        vectors = [[field.coerce(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        want = eval_reference(alg, ident.lhs, {j + 1: v for j, v in enumerate(vectors)})
        assert evaluate_on_vectors(alg, ident, vectors) == want
    if name == "degree5":  # the random tables
        assert sum(first is not None for first in counterexamples) == 2


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


@pytest.mark.parametrize(
    "text, root",
    [
        # the 5-variable term that enumerated 12**5 basis tuples at dim 12
        ("(+ (b (b x1 x2) (b x3 (b x4 x5))) (b (b x3 (b x4 x5)) (b x1 x2)))", (SUM, ())),
        ("(+ (w (b x1 x2) x3) (w x3 (b x1 x2)))", (INT, 0)),
        ("(- (s (w x1 x2) x3) (s (w x1 x2) x3))", (SUM, ())),
    ],
)
def test_a_term_compiling_to_zero_holds_without_enumeration(gf5, text, root):
    ident = parse_identity(text)
    assert ident.compiled().nodes == (root,)
    alg = catalog.random_extension_chain(gf5, 0, 6)
    with mock.patch.object(identities, "evaluate", wraps=identities.evaluate) as spy:
        assert find_counterexample(alg, ident) is None
        assert holds(alg, ident)
        assert spy.call_count == 0
        # a term that does not compile to zero is still enumerated
        assert find_counterexample(alg, parse_identity("(b x1 x2)")) == (0, 1)
        assert spy.call_count > 0


def test_enumeration_past_the_limit_is_refused(gf5):
    # 16**5 tuples of a 5-variable term and C(44, 5) increasing ones of
    # degree5 are past ENUM_CAP = 10**6
    term = parse_identity("(b (b (b (b x1 x2) x3) x4) x5)")
    vanishing = parse_identity("(+ (b (b x1 x2) (b x3 (b x4 x5))) (b (b x3 (b x4 x5)) (b x1 x2)))")
    refused = ((AnticommAlgebra(gf5, 16), term), (AnticommAlgebra(gf5, 44), builtin("degree5")))
    with mock.patch.object(identities, "evaluate", wraps=identities.evaluate) as spy:
        for alg, ident in refused:
            with pytest.raises(PreconditionFailed, match="enumeration limit of 1000000"):
                find_counterexample(alg, ident)
        # a term compiling to zero holds at any dimension
        assert holds(AnticommAlgebra(gf5, 64), vanishing)
        assert spy.call_count == 0
    # 15**5 tuples are within the limit: sl2 inside dim 15 is enumerated
    sl2 = catalog.builtin_algebra("lie.sl2", gf5)
    assert find_counterexample(AnticommAlgebra(gf5, 15, sl2._bracket), term) == (0, 1, 0, 1, 0)


@st.composite
def cancelling_terms(draw, kind, depth=3):
    """A well-typed term in x1..x3 of ``kind`` ('vec' or 'scalar') built to
    cancel: t - t, [t,t], [u,v] + [v,u], w(t,t), w(u,v) + w(v,u), 0 t,
    and repeated subterms, between plain brackets, forms and scalings."""
    if depth == 0:
        if kind == "vec":
            return var(draw(st.integers(1, 3)))
        return (INT, draw(st.integers(-2, 2)))

    def sub(kind):
        return draw(cancelling_terms(kind, depth - 1))

    if kind == "scalar":
        shape = draw(st.sampled_from(["int", "w", "w(t,t)", "w+w", "sum", "t+t"]))
        if shape == "int":
            return (INT, draw(st.integers(-2, 2)))
        if shape == "w":
            return w(sub("vec"), sub("vec"))
        if shape == "w(t,t)":
            t = sub("vec")
            return w(t, t)
        if shape == "w+w":
            u, v = sub("vec"), sub("vec")
            return plus(w(u, v), w(v, u))
        if shape == "sum":
            return plus(sub("scalar"), sub("scalar"))
        t = sub("scalar")
        return plus(t, sub("scalar"), t)
    shape = draw(st.sampled_from(["var", "b", "[t,t]", "b+b", "t-t", "k t", "s", "t+t"]))
    if shape == "var":
        return var(draw(st.integers(1, 3)))
    if shape == "b":
        return b(sub("vec"), sub("vec"))
    if shape == "[t,t]":
        t = sub("vec")
        return b(t, t)
    if shape == "b+b":
        u, v = sub("vec"), sub("vec")
        return plus(b(u, v), b(v, u))
    if shape == "t-t":
        t = sub("vec")
        return minus(t, t)
    if shape == "k t":
        return s(draw(st.integers(-2, 2)), sub("vec"))
    if shape == "s":
        return s(sub("scalar"), sub("vec"))
    t = sub("vec")
    return plus(t, sub("vec"), s(-1, t), t)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1000003)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cancelling_terms_match_the_earlier_program(field, data):
    """The compiler merges subterms modulo anticommutativity, collects like
    parts and drops zeros; the values are those of the earlier program,
    which shares subterms only up to syntax."""
    term = data.draw(cancelling_terms(data.draw(st.sampled_from(["vec", "scalar"]))))
    program = compile_term(term)
    assert_canonical_program(program)
    k = program.num_vars
    assert k == compile_term_reference(term).num_vars == max_var(term)
    alg = data.draw(algebras(field, max_dim=4, min_dim=1))
    n = alg.dim
    vectors = [data.draw(st.lists(scalars(field), min_size=n, max_size=n)) for _ in range(k)]
    want = reference_value(alg, term, vectors)
    got = evaluate_on_vectors(alg, term, vectors)
    assert got == want and type(got) is type(want)
    assert_canonical(field, got if isinstance(got, list) else [got])
    tup = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    got = evaluate(alg, term, tup)
    assert got == reference_value(alg, term, [basis_vector(field, n, i) for i in tup])
    assert_canonical(field, got if isinstance(got, list) else [got])


@st.composite
def grouped_terms(draw, kind, names, pool, depth=0):
    """A multilinear term of ``kind`` ('vec' or 'scalar') using each of
    ``names`` once, built so that the products of a sum often share an
    operand (a bracket, form or scaling with one operand drawn once) and
    subterms repeat across sums: ``pool`` keeps the terms drawn so far
    by kind and variables, and one is drawn again now and then."""
    key = kind, frozenset(names)
    if pool.get(key) and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(pool[key]))

    def sub(kind, names):
        return draw(grouped_terms(kind, names, pool, depth + 1))

    def split():
        shuffled = draw(st.permutations(names))
        k = draw(st.integers(1, len(shuffled) - 1))
        return tuple(shuffled[:k]), tuple(shuffled[k:])

    def scaled(t):
        return s(draw(st.sampled_from([-2, -1, 2, 3])), t) if draw(st.booleans()) else t

    if kind == "vec" and len(names) == 1:
        term = scaled(var(names[0]))
    else:
        shape = draw(st.sampled_from(["product", "sum", "shared"] if depth < 3 else ["product"]))
        left, right = split()
        if shape == "sum":
            parts = [sub(kind, names) for _ in range(draw(st.integers(2, 3)))]
            term = plus(*(parts if kind == "scalar" else map(scaled, parts)))
        elif kind == "scalar":
            if shape == "product":
                term = w(sub("vec", left), sub("vec", right))
            else:  # forms sharing the operand x
                x = sub("vec", right)
                parts = [sub("vec", left) for _ in range(draw(st.integers(2, 3)))]
                term = plus(*(w(u, x) if draw(st.booleans()) else w(x, u) for u in parts))
        elif shape == "product":
            if len(left) > 1 and draw(st.booleans()):
                term = scaled(s(sub("scalar", left), sub("vec", right)))
            else:
                term = scaled(b(sub("vec", left), sub("vec", right)))
        else:  # brackets or scalings sharing the operand x
            how = draw(st.sampled_from(["b", "s(k, x)", "s(x, v)"] if len(left) > 1 else ["b"]))
            count = draw(st.integers(2, 3))
            if how == "b":
                x = sub("vec", right)
                parts = [sub("vec", left) for _ in range(count)]
                parts = [b(u, x) if draw(st.booleans()) else b(x, u) for u in parts]
            elif how == "s(k, x)":
                x = sub("vec", right)
                parts = [s(sub("scalar", left), x) for _ in range(count)]
            else:
                x = sub("scalar", left)
                parts = [s(x, sub("vec", right)) for _ in range(count)]
            term = plus(*map(scaled, parts))
    pool.setdefault(key, []).append(term)
    return term


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1000003)], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_grouped_programs_match_the_collected_compiler(field, data):
    """Grouping products by bilinearity keeps every value of the program
    that only collects like terms, and never adds a bracket, form or
    scaling node."""
    kind = data.draw(st.sampled_from(["vec", "scalar"]))
    names = tuple(range(1, data.draw(st.integers(2 if kind == "scalar" else 1, 5)) + 1))
    term = data.draw(grouped_terms(kind, names, {}))
    program, collected = compile_term(term), compile_term_collected_reference(term)
    assert_canonical_program(program)
    for tag in (BRACKET, OMEGA, SCALE):
        count = lambda p: sum(node[0] == tag for node in p.nodes)
        assert count(program) <= count(collected)
    assert program.num_vars == collected.num_vars == len(names)
    alg = data.draw(algebras(field, max_dim=4, min_dim=1))
    n = alg.dim
    args = [
        to_scaled(field, data.draw(st.lists(scalars(field), min_size=n, max_size=n)))
        for _ in names
    ]
    want = identities._canonical(field, identities._run(alg, collected, args))
    assert identities._canonical(field, identities._run(alg, program, args)) == want


def test_a_grouped_product_read_again_later_keeps_the_collected_program():
    # S groups [u,x4] + [v,x4] into [u + v, x4], and the two later sums read
    # [u,x4] and [v,x4] again: grouped, the program would hold all three
    u, v = "(b (b x1 x2) x3)", "(b (b x1 x3) x2)"
    a, bb = f"(b {u} x4)", f"(b {v} x4)"
    s1 = f"(+ {a} (b (b x1 x4) (b x2 x3)))"
    s2 = f"(+ {bb} (b (b x2 x4) (b x1 x3)))"
    term = parse_term(
        f"(+ (b (b (+ {a} {bb}) x5) x6) (b {s1} (b x5 x6)) (s (w x5 x6) {s2}))"
    )
    assert sum(node[0] == BRACKET for node in identities._compile(term, True).nodes) == 16
    assert compile_term(term) == compile_term_collected_reference(term)
    assert sum(node[0] == BRACKET for node in compile_term(term).nodes) == 15


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


# -- built-ins linearized from their direct forms -------------------------------

COPIES = {
    "engel": {1: (2, 3, 4), 2: (1,)},
    "abg": {1: (1, 2), 2: (3,), 3: (4,)},
    "bin": {1: (1, 2), 2: (3, 4)},
    "bin-consequence": {1: (1, 2), 2: (3, 4)},
}
"""The variables of each direct form that carry the linearized term's
variables, as the built-ins state them."""

ABG_PARAMETERS = [{}, dict(alpha=1, beta=2, gamma=-1), dict(alpha=3, beta=0, gamma=5),
                  dict(alpha=0, beta=1, gamma=0), dict(alpha=2, beta=-1, gamma=1)]


def _chains(dim):
    for field in (QQ, GF(5), GF(7)):
        for seed in range(3):
            chain = catalog.random_extension_chain(field, seed, dim)
            if not isinstance(chain, catalog.Stuck):
                yield chain


@pytest.mark.parametrize(
    "name, params",
    [("engel", {}), ("bin", {}), ("bin-consequence", {})]
    + [("abg", params) for params in ABG_PARAMETERS],
)
def test_derived_builtins_match_the_hand_written_terms(name, params, sl2, n3, sl2e):
    """Each derived term takes the value of the hand-written one on random
    vectors, and both give the same first counterexample."""
    ident = builtin(name, **params)
    reference = Identity(name, linearized_reference(name, **params))
    rng = random.Random(f"linearized/{name}/{sorted(params.items())}")
    chains = list(_chains(4)) + list(_chains(5))
    assert len(chains) >= 12
    for alg in chains:
        field, n = alg.field, alg.dim
        for _ in range(3):
            vectors = [[field.coerce(rng.randint(-3, 3)) for _ in range(n)] for _ in range(4)]
            want = eval_reference(alg, reference.lhs, {j + 1: v for j, v in enumerate(vectors)})
            assert evaluate_on_vectors(alg, ident, vectors) == want
    for alg in (sl2, n3, sl2e, *chains):
        assert find_counterexample(alg, ident) == find_counterexample(alg, reference)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linearization_polarizes_to_the_direct_form(data):
    """With every copy of x_v set to one vector u_v, the linearized term is
    prod_v k_v! times the direct form at the u_v, k_v the number of
    copies of x_v: exact over Q, and over GF(p) as p > max k_v."""
    name = data.draw(st.sampled_from(sorted(COPIES)), label="name")
    field = data.draw(st.sampled_from(FIELDS), label="field")
    params = {}
    if name == "abg":
        ints = st.integers(min_value=-3, max_value=3)
        params = dict(zip(("alpha", "beta", "gamma"), data.draw(st.tuples(ints, ints, ints))))
    ident = builtin(name, **params)
    alg = data.draw(algebras(field, min_dim=1, max_dim=4), label="alg")
    n, copies = alg.dim, COPIES[name]
    u = {v: data.draw(st.lists(scalars(field), min_size=n, max_size=n)) for v in sorted(copies)}
    vectors = [None] * ident.num_vars
    for v, targets in copies.items():
        for c in targets:
            vectors[c - 1] = u[v]
    factor = field.coerce(prod(factorial(len(targets)) for targets in copies.values()))
    direct = evaluate_on_vectors(alg, ident.direct, [u[v] for v in sorted(copies)])
    assert evaluate_on_vectors(alg, ident, vectors) == [field.mul(factor, x) for x in direct]


PROGRAM_SIZES = {
    "degree5": (75, 0, 0),
    "two-basic": (6, 18, 10),
    "four": (22, 0, 0),
    "jacobi-residual": (6, 3, 3),
    "four-consequence": (3, 3, 0),
    "engel": (12, 0, 0),
    "abg": (21, 0, 0),
    "bin": (16, 0, 0),
    "bin-consequence": (4, 12, 8),
}
"""The bracket, form and scaling nodes of each compiled built-in."""


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_program_sizes(name):
    nodes = builtin(name).compiled().nodes
    sizes = tuple(sum(node[0] == tag for node in nodes) for tag in (BRACKET, OMEGA, SCALE))
    assert sizes == PROGRAM_SIZES[name]


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from([QQ, GF(5)]),
    dim=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=200),
    data=st.data(),
)
def test_identities_do_not_depend_on_the_basis(field, dim, seed, data):
    """Whether each built-in holds, and whether the law holds, is the same
    in any basis.  A multilinear term vanishes on every vector exactly
    when it vanishes on the basis tuples, so this also checks that each
    built-in term is multilinear."""
    chain = catalog.random_extension_chain(field, seed, dim)
    assume(not isinstance(chain, catalog.Stuck))
    table = data.draw(algebras(field, min_dim=dim, max_dim=dim), label="table")
    for alg in (chain, table):
        moved = transport(alg, data.draw(invertible_matrices(field, dim), label="P"))
        assert moved.is_valid() == alg.is_valid()
        for name in builtin_names():
            assert holds(moved, builtin(name)) == holds(alg, builtin(name)), name
