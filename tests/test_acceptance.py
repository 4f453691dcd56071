"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three criteria quote expected values that exact computation refutes, and
their tests assert the refutation, each with its own independent
evidence:

- criterion 1 quotes a 5-dimensional derivation space for sl2 at zero
  covector, containing the maps h -> e and h -> f; the space is the
  3-dimensional span of the inner derivations, and no covector makes
  either quoted map a derivation;
- criterion 3b quotes the shipped 4-dim table as simple with a
  16-dimensional multiplication algebra; the line through e3 - e4 is an
  ideal, and the multiplication algebra has dimension 13;
- criterion 8b quotes a nonzero abelian ideal in every non-Lie instance of
  dims 5-6; the scan's holdouts have none, which the closures of all
  their lines prove.

Every other criterion is checked at its stated tolerance.  Run with
``-s`` to see the per-criterion report lines.
"""

import json
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from olie import (
    GF,
    QQ,
    AlphaLambdaDerivation,
    Subspace,
    Violation,
    al_derivation_space,
    builtin,
    check_al_derivation,
    cochain_differential,
    extend_codim1,
    find_counterexample,
    h2_dimension,
    holds,
)
from olie import catalog
from olie.cli import main as cli_main
from olie.extensions import Cochain
from olie.linalg import (
    ENUM_CAP,
    basis_vector,
    projective_points,
    vec_add,
    vec_is_zero,
    vec_mat,
    vec_scale,
    vec_sub,
    zeros,
)
from olie.structure import classify

from oracles import derivation_space_dim, h2_oracle, multiplication_algebra_dim

DATA = Path(__file__).parent.parent / "data"

VALID_CATALOG = [
    name for name in catalog.catalog_names() if catalog.catalog_entry(name).valid
]


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number}: {status}  {detail}")


def run_cli_json(args):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["--format", "json"] + args)
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def pool_gf5():
    """500 valid GF(5) instances across dims 3-5, deterministic."""
    field = GF(5)
    out = []
    for dim, count in ((3, 168), (4, 166), (5, 166)):
        seed = 0
        while sum(1 for a in out if a.dim == dim) < count:
            alg = (
                catalog.random_dim3(field, seed)
                if dim == 3
                else catalog.random_extension_chain(field, seed, dim)
            )
            seed += 1
            if isinstance(alg, catalog.Stuck):
                continue
            out.append(alg)
    return out


@pytest.fixture(scope="module")
def pool_q():
    """500 valid rational instances across dims 3-5, deterministic."""
    out = []
    for dim, count in ((3, 168), (4, 166), (5, 166)):
        seed = 0
        while sum(1 for a in out if a.dim == dim) < count:
            alg = (
                catalog.random_dim3(QQ, seed)
                if dim == 3
                else catalog.random_extension_chain(QQ, seed, dim)
            )
            seed += 1
            if isinstance(alg, catalog.Stuck):
                continue
            out.append(alg)
    return out


@pytest.fixture(scope="module")
def structure_scan():
    """One shared classification scan: GF(5), dims 4-6, 200 per dim."""
    start = time.time()
    code, payload = run_cli_json(
        ["scan-structure", "--field", "gf5", "--dims", "4..6", "--count", "200", "--seed", "0"]
    )
    payload["elapsed"] = time.time() - start
    payload["exit_code"] = code
    return payload


def _flat(matrix):
    return [x for row in matrix for x in row]


def test_criterion_1_sl2_derivation_space():
    """Quoted: the derivation space of sl2 at zero covector has dimension 5
    and contains h -> e (alpha = (0,-1,0)) and h -> f (alpha = (1,0,0)).
    Proved: it has dimension 3, spanned by ad(e), ad(f), ad(h) with
    alpha = 0 (sl2 is semisimple, so its derivations are inner).

    By hand, with [e,f] = h, [h,e] = e, [h,f] = -f and D(h) = e, D(e) =
    D(f) = 0, the relation D([x,y]) - [D(x),y] + [D(y),x] = alpha(y) x -
    alpha(x) y reads e = alpha(f) e - alpha(e) f on (e,f) and h =
    alpha(h) f - alpha(f) h on (f,h): alpha(f) would be both 1 and -1.
    Likewise the pairs (e,f) and (e,h) rule out h -> f."""
    start = time.time()
    sl2 = catalog.builtin_algebra("lie.sl2")
    basis = al_derivation_space(sl2, [0, 0, 0])
    e, f, h = (basis_vector(QQ, 3, i) for i in range(3))
    h_to_e = [zeros(QQ, 3), zeros(QQ, 3), e]
    h_to_f = [zeros(QQ, 3), zeros(QQ, 3), f]

    def lhs(matrix, x, y):
        """D([x,y]) - [D(x),y] + [D(y),x] for x, y basis vectors."""
        d = [vec_mat(QQ, v, matrix) for v in (sl2.bracket(x, y), x, y)]
        return vec_add(QQ, vec_sub(QQ, d[0], sl2.bracket(d[1], y)), sl2.bracket(d[2], x))

    # h -> e: (e,f) forces alpha(f) = 1, (f,h) forces alpha(f) = -1
    # h -> f: (e,f) forces alpha(e) = -1, (e,h) forces alpha(e) = 1
    hand_ok = (
        lhs(h_to_e, e, f) == e
        and lhs(h_to_e, f, h) == h
        and lhs(h_to_f, e, f) == f
        and lhs(h_to_f, e, h) == vec_scale(QQ, F(-1), h)
    )
    oracle_dim = derivation_space_dim(sl2, [0, 0, 0])
    inner = Subspace(QQ, 9, [_flat(sl2.ad(v)) for v in (e, f, h)])
    d_parts = Subspace(QQ, 9, [_flat(der.matrix) for der in basis])
    inner_ok = (
        d_parts == inner
        and inner.dim == 3
        and all(vec_is_zero(QQ, der.alpha) for der in basis)
    )
    # not in the D-projection of the solution space: no covector helps
    quoted_out = not d_parts.contains(_flat(h_to_e)) and not d_parts.contains(_flat(h_to_f))
    cand_e = AlphaLambdaDerivation(h_to_e, [F(0), F(-1), F(0)], zeros(QQ, 3))
    cand_f = AlphaLambdaDerivation(h_to_f, [F(1), F(0), F(0)], zeros(QQ, 3))
    quoted_fail = not check_al_derivation(sl2, cand_e) and not check_al_derivation(sl2, cand_f)
    elapsed = time.time() - start
    ok = (
        len(basis) == 3 == oracle_dim
        and inner_ok
        and hand_ok
        and quoted_out
        and quoted_fail
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"solution dimension {len(basis)} (quoted 5, oracle {oracle_dim}); "
        f"span of ad(e), ad(f), ad(h) with alpha = 0: {inner_ok}; quoted h->e, "
        f"h->f derivations for some alpha: {not quoted_out} (quoted true)",
    )
    assert ok, (
        "the derivation space of sl2 at zero covector is the 3-dimensional "
        "inner one, not 5-dimensional: D(h) = e needs alpha(f) = 1 on (e,f) "
        "and alpha(f) = -1 on (f,h), and D(h) = f needs alpha(e) = -1 on "
        "(e,f) and alpha(e) = 1 on (e,h); got dimension "
        f"{len(basis)} (oracle {oracle_dim}), inner span {inner_ok}, hand "
        f"residuals {hand_ok}, quoted maps excluded {quoted_out and quoted_fail}"
    )


def test_criterion_2_aff1_endomorphisms():
    start = time.time()
    aff1 = catalog.builtin_algebra("lie.aff1")
    basis = al_derivation_space(aff1, [0, 0])
    ok = len(basis) == 4
    patterns_ok = True
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    matrix = [[F(a), F(b)], [F(c), F(d)]]
                    with_alpha = AlphaLambdaDerivation(
                        matrix, [F(-b), F(-d)], zeros(QQ, 2)
                    )
                    ordinary = AlphaLambdaDerivation(matrix, zeros(QQ, 2), zeros(QQ, 2))
                    # membership rule: not an ordinary derivation iff the
                    # pair (b, d) is nonzero, with covector (-b, -d)
                    patterns_ok &= check_al_derivation(aff1, with_alpha)
                    patterns_ok &= check_al_derivation(aff1, ordinary) == (
                        b == 0 and d == 0
                    )
    elapsed = time.time() - start
    ok = ok and patterns_ok and elapsed < 1.0
    report(2, ok, f"space dimension {len(basis)}; 16 patterns checked in {elapsed:.2f}s")
    assert ok


def test_criterion_3a_shipped_table_pipeline():
    start = time.time()
    shipped = catalog.loads((DATA / "omega_s4.json").read_text(encoding="utf-8"))
    s4 = shipped.validate()
    ok = not isinstance(s4, Violation)
    rank_ok = s4.omega_rank() == 2
    verdict = classify(s4)
    classify_ok = (
        verdict.case == "kernel_codim_two"
        and verdict.kernel_type == "almost_abelian"
        and verdict.nilpotent_action
        and verdict.abelian_small_codim is not None
        and verdict.abelian_small_codim.codim == 2
    )
    n3 = catalog.builtin_algebra("omega.n3")
    ext = extend_codim1(
        n3, [2, 0, 0], [[0, 0, -1], [1, 0, 0], [0, 0, 0]], [0, 2, 0]
    )
    bit_exact = catalog.dumps(ext) == (DATA / "omega_s4.json").read_text(encoding="utf-8")
    elapsed = time.time() - start
    all_ok = ok and rank_ok and classify_ok and bit_exact and elapsed < 5.0
    report(
        "3a",
        all_ok,
        f"validates {ok}, rank-2 {rank_ok}, verdict {classify_ok}, "
        f"bit-exact {bit_exact} in {elapsed:.2f}s",
    )
    assert all_ok


def test_criterion_3b_shipped_table_simplicity():
    """Quoted: the shipped table omega.s4 (data/omega_s4.json) is simple and
    its multiplication algebra has dimension 16.  Proved: it is not simple
    and its multiplication algebra has dimension 13.

    By hand, u = e3 - e4 has [u,e1] = -2u and [u,e2] = [u,e3] = [u,e4] = 0,
    so span(u) is an ideal.  Every multiplication then preserves a line of
    K^4, and the maps that do form a 13-dimensional subalgebra of gl4, so
    16 is impossible.  Criterion 3a shows the file is exactly the extension
    of omega.n3 by the quoted datum, so the quoted claims contradict each
    other, not the code."""
    s4 = catalog.builtin_algebra("omega.s4")
    verdict = s4.simplicity()
    mdim = s4.multiplication_algebra_dim()
    oracle_mdim = multiplication_algebra_dim(s4)
    red5 = catalog.reduce_mod_p(s4, 5).simplicity()
    u = [F(0), F(0), F(1), F(-1)]
    line = Subspace(QQ, 4, [u])
    images = [s4.bracket(u, basis_vector(QQ, 4, i)) for i in range(4)]
    ideal_ok = images == [vec_scale(QQ, F(-2), u)] + [zeros(QQ, 4)] * 3
    ok = (
        verdict.kind == "not_simple"
        and verdict.witness == line
        and ideal_ok
        and mdim == 13 == oracle_mdim
        and red5.kind == "not_simple"
    )
    report(
        "3b",
        ok,
        f"simplicity verdict {verdict.kind} (quoted simple), witness span(e3-e4) "
        f"{verdict.witness == line}, an ideal {ideal_ok}; multiplication algebra "
        f"dimension {mdim} (quoted 16, oracle {oracle_mdim}); GF(5) spin verdict "
        f"{red5.kind}",
    )
    assert ok, (
        "the shipped table is not simple: [e3-e4, e1] = -2(e3-e4) and e3-e4 "
        "brackets to zero with e2, e3, e4, so span(e3-e4) is an ideal and the "
        "multiplication algebra lies in the 13-dimensional stabilizer of a "
        f"line; got verdict {verdict.kind} with witness {verdict.witness}, "
        f"ideal {ideal_ok}, dimension {mdim} (oracle {oracle_mdim}), GF(5) "
        f"verdict {red5.kind}"
    )


def test_criterion_4_dim3_scan():
    start = time.time()
    code_q, payload_q = run_cli_json(
        ["scan-dim3", "--field", "q", "--count", "500", "--seed", "0"]
    )
    code_g, payload_g = run_cli_json(
        ["scan-dim3", "--field", "gf5", "--count", "200", "--seed", "0"]
    )
    elapsed = time.time() - start
    ok = (
        code_q == 0
        and code_g == 0
        and payload_q["failures"] == []
        and payload_g["failures"] == []
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"Q {payload_q['checked']}/{payload_q['checked']} and GF(5) "
        f"{payload_g['checked']}/{payload_g['checked']} alpha-vanishing, "
        f"extension ranks <= 2, in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_identity_suite(pool_gf5, pool_q):
    start = time.time()
    two_basic = builtin("two-basic")
    degree5 = builtin("degree5")
    catalog_ok = True
    for name in VALID_CATALOG:
        alg = catalog.builtin_algebra(name)
        catalog_ok &= holds(alg, two_basic) and holds(alg, degree5)
    random_ok = True
    for alg in pool_gf5 + pool_q:
        random_ok &= holds(alg, two_basic) and holds(alg, degree5)
    sl2e = catalog.builtin_algebra("omega.sl2e")
    ce = find_counterexample(sl2e, builtin("four-consequence"))
    four_ok = ce == (1, 2, 3)
    bin_conseq = builtin("bin-consequence")
    non_lie = [a for a in pool_gf5 + pool_q if a.dim == 3 and not a.is_lie()]
    failures = sum(1 for a in non_lie if not holds(a, bin_conseq))
    bin_rate = failures / len(non_lie)
    sl2 = catalog.builtin_algebra("lie.sl2")
    engel = builtin("engel")
    engel_ce = find_counterexample(sl2, engel)
    engel_direct = evaluate_direct_engel(sl2)
    elapsed = time.time() - start
    ok = (
        catalog_ok
        and random_ok
        and four_ok
        and bin_rate >= 0.9
        and engel_ce is not None
        and engel_direct
        and elapsed < 120.0
    )
    report(
        5,
        ok,
        f"two-basic+degree5 on {len(pool_gf5) + len(pool_q)} random + catalog; "
        f"four-consequence counterexample {tuple(i + 1 for i in ce)}; "
        f"bin-consequence fails on {bin_rate:.0%} of {len(non_lie)} non-Lie dim-3; "
        f"engel fails at (e,h); {elapsed:.1f}s",
    )
    assert ok


def evaluate_direct_engel(sl2):
    from olie import evaluate

    value = evaluate(sl2, builtin("engel").direct, (2, 0))
    return value == [F(-1), F(0), F(0)]


def test_criterion_6_cohomology(pool_gf5):
    start = time.time()
    checked_pairs = 0
    idx = 0
    while checked_pairs < 100 and idx < len(pool_gf5):
        alg = pool_gf5[idx]
        idx += 1
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            import random as _random

            rng = _random.Random(f"acc6/{idx}")
            data = {(i,): rng.randrange(5) for i in range(alg.dim)}
            c = Cochain.from_values(alg.field, alg.dim, 1, data)
            dd = cochain_differential(alg, lam, cochain_differential(alg, lam, c))
            assert not dd.data
            checked_pairs += 1
    h2_ok = True
    small = [catalog.builtin_algebra(n) for n in VALID_CATALOG]
    small += [a for a in pool_gf5 if a.dim <= 4][:40]
    for alg in small:
        if alg.dim > 4:
            continue
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            continue
        for lam in lam_set.points():
            h2_ok &= h2_dimension(alg, lam) == h2_oracle(alg, lam)
    elapsed = time.time() - start
    ok = checked_pairs >= 100 and h2_ok and elapsed < 30.0
    report(
        6,
        ok,
        f"square of differential zero on {checked_pairs} pairs; h2 matches "
        f"the brute-force oracle on all dim <= 4 instances; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_structure_scan(structure_scan):
    payload = structure_scan
    bad = [
        f
        for f in payload["failures"]
        if not (f["result"]["verdict_ok"] and f["result"]["witness_ok"])
    ]
    counts = {d: payload["dims"][d]["count"] for d in payload["dims"]}
    ok = counts == {"4": 200, "5": 200, "6": 200} and not bad
    ok = ok and payload["elapsed"] < 300.0
    report(
        7,
        ok,
        f"{counts} instances; verdict/witness failures: {len(bad)}; "
        f"{payload['elapsed']:.0f}s",
    )
    assert ok


def test_criterion_8a_no_simple_in_high_dim(structure_scan):
    bad = [
        f
        for f in structure_scan["failures"]
        if not f["result"].get("not_simple_ok", True)
    ]
    report("8a", not bad, f"simple verdicts in dims >= 5: {len(bad)}")
    assert not bad


def _is_abelian_span(alg, sub):
    rows = [list(r) for r in sub.rows]
    return all(
        vec_is_zero(alg.field, alg.bracket(rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


@pytest.fixture(scope="module")
def holdout_closures(structure_scan):
    """The scan's instances without an abelian ideal, each with the ideal
    closures of all its projective lines (distinct, in first-seen order).
    Built once: criterion 8b and the supplementary test both read it."""
    field = GF(5)
    out = []
    for f in structure_scan["failures"]:
        if f["result"].get("abelian_ideal_ok", True):
            continue
        alg = catalog.random_extension_chain(field, f["seed"], f["dim"])
        closures = {}
        for v in projective_points(field.char, alg.dim):
            closure = alg.ideal_closure([v])
            closures.setdefault(tuple(closure.rows), closure)
        out.append((f["dim"], f["seed"], alg, list(closures.values())))
    return out


def test_criterion_8b_abelian_ideals_in_high_dim(structure_scan, holdout_closures):
    """Quoted: every valid non-Lie instance of dims 5-6 has a nonzero
    abelian ideal.  Proved: the scan's holdouts have none.

    A nonzero abelian ideal I would contain, for any v != 0 in I, the ideal
    closure of v, which is then a nonzero abelian ideal too (and I = L is
    excluded, since an abelian L is Lie).  So it suffices that on each
    holdout, a certified instance small enough (5**dim <= ENUM_CAP) for
    the scan's search to be complete, no line has an abelian closure."""
    seeds = [(dim, seed) for dim, seed, _, _ in holdout_closures]
    unproved = [
        (dim, seed)
        for dim, seed, alg, closures in holdout_closures
        if isinstance(alg.validate(), Violation)
        or alg.is_lie()
        or alg.field.char**dim > ENUM_CAP
        or any(_is_abelian_span(alg, c) for c in closures)
    ]
    ok = bool(seeds) and not unproved and structure_scan["exit_code"] == 1
    report(
        "8b",
        ok,
        f"instances with no abelian ideal (quoted none): {len(seeds)} (dim, seed): "
        f"{seeds[:8]}...; proved by line closures on all but {len(unproved)}",
    )
    assert seeds, "the scan found no holdout, so the quoted claim is not refuted"
    assert not unproved, (
        "the scan reports no abelian ideal, but these (dim, seed) holdouts are "
        f"not proved: {unproved} (uncertified, Lie, beyond ENUM_CAP, or some "
        "line closure is abelian)"
    )
    assert structure_scan["exit_code"] == 1


def test_supplementary_solvable_ideals_exist(holdout_closures):
    """Every dim >= 5 non-Lie instance without an abelian ideal has a
    nonzero solvable ideal (radical-style semisimplicity never occurs)."""
    field = GF(5)
    checked = 0
    for dim, seed, alg, closures in holdout_closures:
        sub = None
        for closure in closures:
            if 0 < closure.dim < alg.dim and (sub is None or closure.dim < sub.dim):
                sub = closure
        assert sub is not None
        inner = alg.restrict(sub)
        cur = Subspace.full(field, inner.dim)
        while True:
            rows = [list(r) for r in cur.rows]
            der = Subspace(
                field, inner.dim, [inner.bracket(a, b) for a in rows for b in rows]
            )
            if der.dim == cur.dim:
                break
            cur = der
            if cur.is_zero():
                break
        assert cur.is_zero(), (dim, seed)
        checked += 1
    print(f"[ACCEPTANCE] supplementary: solvable ideals on all {checked} holdouts")
    assert checked > 0


def test_criterion_9_skewness_and_uniqueness():
    import random as _random

    start = time.time()
    rng = _random.Random("criterion9")
    count = 0
    for trial in range(500):
        field = QQ if trial % 2 == 0 else GF(5)
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
        alg = catalog.AnticommAlgebra(field, dim, bracket)
        sol = alg.omega_space()
        if sol is None:
            assert dim >= 3
            count += 1
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
        count += 1
    elapsed = time.time() - start
    ok = count == 500 and elapsed < 30.0
    report(9, ok, f"{count} bracket draws, all solutions skew, unique beyond dim 2; {elapsed:.1f}s")
    assert ok


def test_criterion_10_four_var_and_bracket_span(pool_gf5, pool_q):
    start = time.time()
    instances = [catalog.builtin_algebra(n) for n in VALID_CATALOG]
    instances += pool_gf5 + pool_q
    four_var_ok = all(alg.check_four_var() for alg in instances)
    span_checked = 0
    for alg in instances:
        field = alg.field
        rank = alg.omega_rank()
        if rank < 2:
            continue
        ker = alg.omega_kernel()
        rows = [list(r) for r in ker.rows]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                image = alg.bracket(rows[a], rows[b])
                assert Subspace(field, alg.dim, [rows[a], rows[b]]).contains(image)
                span_checked += 1
        if rank >= 4:  # vacuous on valid instances; asserted if ever reached
            for row in rows:
                for i in range(alg.dim):
                    image = alg.bracket(row, basis_vector(field, alg.dim, i))
                    assert Subspace(
                        field, alg.dim, [row, basis_vector(field, alg.dim, i)]
                    ).contains(image)
    elapsed = time.time() - start
    ok = four_var_ok and elapsed < 120.0
    report(
        10,
        ok,
        f"four-variable law on {len(instances)} instances; bracket-span "
        f"checks on {span_checked} radical pairs; {elapsed:.1f}s",
    )
    assert ok
