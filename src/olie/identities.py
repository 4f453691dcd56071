"""A small multilinear-identity engine with an s-expression term language.

Grammar:  atoms are variables ``x1`` .. ``x9`` and integer scalars; the
forms are ``(b t u)`` for the bracket, ``(w t u)`` for the scalar form,
``(s k t)`` scaling a vector term by an integer or by a ``(w ..)`` term,
``(+ t ...)`` and ``(- t u)``.  Terms are vector- or scalar-valued and
the checker enforces well-typedness; an :class:`Identity` additionally
requires multilinearity (every variable exactly once in each monomial).
The built-ins stated in a non-multilinear form keep it as ``direct``
and check its full linearization (:func:`_linearized`).

``find_counterexample`` enumerates basis assignments: all n^k tuples in
lexicographic order in general, increasing tuples only for identities
flagged alternating (a signed-permutation sum vanishes identically when
two arguments repeat, so the lexicographically first counterexample is
unchanged; this fast path is unit-tested against full enumeration).

Evaluation runs a :class:`Program`: the term compiled once into a node
list with one node per subterm modulo anticommutativity.  ``[u,v]`` and
``-[v,u]`` share a node, ``[u,u]`` vanishes and like terms of a sum are
collected, which every :class:`AnticommAlgebra` allows in every
characteristic.  The bracket, the form and scaling are bilinear, so the
products of a sum that share an operand become one product of a sum,
``c[u,x] + d[v,x] = [cu + dv, x]``, with the same value in every field
(``degree5`` has 960 bracket nodes as a tree, 440 with subterms shared
only up to syntax, 190 with like terms collected into one 90-part sum,
and 75 as a program, 10 + 30 + 20 + 5 + 10 by the subset recursion).
An :class:`Identity` compiles its term once, when it is built (its arity
is that of the term); built-in identities are built once per process.

A program runs on scaled values (``linalg.to_scaled``): every node holds
ints over one denominator, ``ints/den`` over Q and ints with ``den`` 1
over GF(p).  Brackets and forms multiply denominators, a sum brings
its parts to the lcm of theirs, and nothing is reduced on the way (over
GF(p) the bracket and the form return residues; sums and scalings stay
unreduced ints), so the run builds no ``Fraction``; ``evaluate`` and
``evaluate_on_vectors`` turn the root into canonical scalars, one
``Fraction`` per nonzero coordinate.  Both check their inputs' shape
once, on entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from inspect import signature
from itertools import combinations, permutations, product
from math import comb, lcm

from .algebra import AnticommAlgebra
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    IdentitySyntaxError,
    IdentityTypeError,
    NotMultilinear,
    PreconditionFailed,
    UnknownIdentity,
    quoted,
)
from .linalg import ENUM_CAP, from_scaled, to_scaled

# term node tags
VAR, BRACKET, OMEGA, SCALE, SUM, INT = "var", "b", "w", "s", "+", "int"


def var(i):
    return (VAR, i)


def b(t, u):
    return (BRACKET, t, u)


def w(t, u):
    return (OMEGA, t, u)


def s(k, t):
    return (SCALE, k if isinstance(k, tuple) else (INT, k), t)


def plus(*terms):
    return (SUM, tuple(terms))


def minus(t, u):
    return plus(t, s(-1, u))


def term_type(term):
    """'vec' or 'scalar'; raises on ill-typed trees."""
    tag = term[0]
    if tag == VAR:
        return "vec"
    if tag == INT:
        return "scalar"
    if tag == BRACKET:
        if term_type(term[1]) != "vec" or term_type(term[2]) != "vec":
            raise IdentityTypeError("bracket needs vector-valued operands")
        return "vec"
    if tag == OMEGA:
        if term_type(term[1]) != "vec" or term_type(term[2]) != "vec":
            raise IdentityTypeError("the form needs vector-valued operands")
        return "scalar"
    if tag == SCALE:
        if term_type(term[1]) != "scalar":
            raise IdentityTypeError("the first operand of s must be scalar-valued")
        if term_type(term[2]) != "vec":
            raise IdentityTypeError("the second operand of s must be vector-valued")
        return "vec"
    if tag == SUM:
        kinds = {term_type(t) for t in term[1]}
        if len(kinds) != 1:
            raise IdentityTypeError("summands must share one type")
        return kinds.pop()
    raise IdentityTypeError(f"unknown node {tag!r}")


def _monomial_var_multisets(term):
    """Set of per-monomial variable multisets (sorted tuples)."""
    tag = term[0]
    if tag == VAR:
        return {(term[1],)}
    if tag == INT:
        return {()}
    if tag in (BRACKET, OMEGA, SCALE):
        left = _monomial_var_multisets(term[1])
        right = _monomial_var_multisets(term[2])
        return {tuple(sorted(a + bb)) for a in left for bb in right}
    if tag == SUM:
        out = set()
        for t in term[1]:
            out |= _monomial_var_multisets(t)
        return out
    raise IdentityTypeError(f"unknown node {tag!r}")


def check_multilinear(term, num_vars):
    want = tuple(range(1, num_vars + 1))
    for mono in _monomial_var_multisets(term):
        if mono != want:
            for v in mono:
                if mono.count(v) > 1:
                    raise NotMultilinear(
                        f"variable x{v} repeats inside a monomial", variable=v
                    )
            missing = [v for v in want if v not in mono]
            raise NotMultilinear(
                f"a monomial misses variable(s) {missing}",
                variable=missing[0] if missing else None,
            )


def max_var(term):
    tag = term[0]
    if tag == VAR:
        return term[1]
    if tag == INT:
        return 0
    if tag == SUM:
        return max((max_var(t) for t in term[1]), default=0)
    return max(max_var(term[1]), max_var(term[2]))


@dataclass
class Identity:
    """A multilinear term asserted to vanish; arities and result type are
    computed."""

    name: str
    lhs: tuple
    alternating: bool = False
    direct: tuple | None = None  # the term linearized into ``lhs``, if any

    def __post_init__(self):
        term_type(self.lhs)
        self._compiled = compile_term(self.lhs)
        check_multilinear(self.lhs, self.num_vars)

    @property
    def num_vars(self):
        return self._compiled.num_vars

    @property
    def result_type(self):
        return term_type(self.lhs)

    def compiled(self):
        """The compiled ``lhs``."""
        return self._compiled


# -- parsing ---------------------------------------------------------------


_TOKEN = re.compile(r"[()]|[^()\s]+")


def _tokenize(text):
    """The parentheses and the maximal runs of other non-space characters
    of ``text``, each with its start position, in one regex pass."""
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


MAX_NESTING = 200
"""The deepest nesting of forms a parsed term may have; the parser and
the tree walks recurse once per level."""


def _read(tokens, idx, depth=0):
    if idx >= len(tokens):
        raise IdentitySyntaxError("unexpected end of expression", position=None)
    tok, pos = tokens[idx]
    if tok == "(":
        if depth == MAX_NESTING:
            raise IdentitySyntaxError(f"forms nested deeper than {MAX_NESTING}", position=pos)
        items = []
        idx += 1
        while idx < len(tokens) and tokens[idx][0] != ")":
            node, idx = _read(tokens, idx, depth + 1)
            items.append(node)
        if idx >= len(tokens):
            raise IdentitySyntaxError("missing closing parenthesis", position=pos)
        return items, idx + 1
    if tok == ")":
        raise IdentitySyntaxError("unexpected ')'", position=pos)
    return (tok, pos), idx + 1


_BINARY_FORMS = {"b": b, "w": w, "s": s, "-": minus}


def _build(node):
    if isinstance(node, tuple):  # atom
        tok, pos = node
        if tok.startswith("x") and tok[1:].isdecimal():
            try:
                idx = int(tok[1:])
            except ValueError:  # past int's digit limit
                idx = 0
            if not 1 <= idx <= 9:
                raise IdentitySyntaxError(f"variable {quoted(tok)} out of range", position=pos)
            return var(idx)
        try:
            return (INT, int(tok))
        except ValueError:
            raise IdentitySyntaxError(f"bad atom {quoted(tok)}", position=pos) from None
    if not node:
        raise IdentitySyntaxError("empty form")
    head = node[0]
    if not isinstance(head, tuple):
        raise IdentitySyntaxError("form head must be an atom")
    op, pos = head
    args = [_build(x) for x in node[1:]]
    if op in _BINARY_FORMS:
        if len(args) != 2:
            raise IdentitySyntaxError(f"({op} ..) takes two operands", position=pos)
        return _BINARY_FORMS[op](*args)
    if op == "+":
        if not args:
            raise IdentitySyntaxError("(+ ..) needs operands", position=pos)
        return plus(*args)
    raise IdentitySyntaxError(f"unknown operator {quoted(op)}", position=pos)


def parse_term(text):
    tokens = _tokenize(text)
    node, idx = _read(tokens, 0)
    if idx != len(tokens):
        raise IdentitySyntaxError("trailing input", position=tokens[idx][1])
    term = _build(node)
    term_type(term)
    return term


def parse_identity(text, name="anonymous"):
    """Parse a multilinear identity (asserted to vanish identically)."""
    return Identity(name, parse_term(text))


def format_term(term):
    tag = term[0]
    if tag == VAR:
        return f"x{term[1]}"
    if tag == INT:
        return str(term[1])
    if tag == SUM:
        return "(+ " + " ".join(format_term(t) for t in term[1]) + ")"
    return f"({tag} {format_term(term[1])} {format_term(term[2])})"


# -- evaluation ------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A term compiled into a node list, one node per subterm modulo
    anticommutativity.

    Every node comes after the nodes it reads, and every node but the
    root is read by a later one, so the root is last.  A node is a tuple:
    ``(VAR, k)``, ``(INT, k)``, ``(SUM, ((c, i), ...))`` with int
    coefficients ``c`` on node indices ``i``, or ``(tag, i, j)`` for the
    bracket, the form and scaling (``i`` is the scalar), where ``i``,
    ``j`` are node indices.

    The compiler merges what every :class:`AnticommAlgebra` makes equal:
    ``[u,v]`` and ``-[v,u]`` are one bracket node with ``i < j`` (the
    form likewise), ``[u,u]`` and ``w(u,u)`` are zero, integer scalings
    become coefficients, nested sums are flattened with like parts
    collected (parts in node order, none with coefficient 0), and nodes
    the root does not read are dropped.  So an ``INT`` node is ``1``
    inside a sum, or ``0`` as the root of a vanishing scalar term; the
    empty sum is the zero vector.  ``num_vars`` is the largest variable
    of the term, whether the root reads it or not.

    By bilinearity, products of a sum that share an operand become one
    product of a sum whenever that drops product nodes (see
    :func:`compile_term`), so a sum may read a sum.
    """

    nodes: tuple
    num_vars: int


def compile_term(term):
    """Compile a term into a :class:`Program`; subterms equal modulo
    anticommutativity share a node, and products in a sum that share an
    operand become one product of a sum.

    A group counts only the reads made before it, so a product it drops
    may be read again later in the term; where the grouped program has
    more bracket, form or scaling nodes than the one that only collects
    like terms, that one is returned."""
    grouped, collected = _compile(term, True), _compile(term, False)
    count = lambda program, tag: sum(node[0] == tag for node in program.nodes)
    if any(count(grouped, tag) > count(collected, tag) for tag in (BRACKET, OMEGA, SCALE)):
        return collected
    return grouped


def _compile(term, group):
    """:func:`compile_term`, with products grouped if ``group``."""
    nodes, index, readers, dropped = [], {}, [], set()

    def node(key):
        at = index.get(key)
        if at is None:
            at = index[key] = len(nodes)
            nodes.append(key)
            readers.append(0)
            for i in _operands(key):
                readers[i] += 1
        return at

    def parts(t):
        """The term as ``{node: coefficient}``, without zero coefficients."""
        tag = t[0]
        if tag == SUM:
            out = {}
            for u in t[1]:
                for i, c in parts(u).items():
                    out[i] = out.get(i, 0) + c
            return {i: c for i, c in out.items() if c}
        if tag == VAR:
            return {node(t): 1}
        if tag == INT:
            return {node((INT, 1)): t[1]} if t[1] else {}
        if tag not in (BRACKET, OMEGA, SCALE):
            raise IdentityTypeError(f"unknown node {tag!r}")
        return product(tag, parts(t[1]), parts(t[2]))

    def product(tag, left, right):
        """The product of two combinations, as a combination."""
        if tag == SCALE and left.keys() <= {index.get((INT, 1))}:  # an integer
            k = sum(left.values())
            return {i: k * c for i, c in right.items()} if k else {}
        (c, i), (d, j) = single(left), single(right)
        if not c or not d or i == j:
            return {}
        if i > j and tag != SCALE:
            i, j, c = j, i, -c
        return {node((tag, i, j)): c * d}

    def single(combination):
        """A ``{node: coefficient}`` combination as ``(coefficient, node)``,
        with coefficient 0 if it is empty.

        First the products that no node reads are grouped by bilinearity
        while two of them share an operand, the most shared operand first
        (ties in node order): ``c[u,x] + d[v,x]`` becomes ``[cu + dv, x]``,
        the form likewise, and a scaling is grouped by its scalar or by
        its vector.  So each group trades at least two product nodes for
        one, and the new inner sum is grouped in turn."""
        combination = dict(combination)
        while group and len(combination) > 1:
            groups = {}
            for p in sorted(combination):
                tag, *ops = nodes[p]
                if tag in (BRACKET, OMEGA, SCALE) and not readers[p]:
                    for side, x in enumerate(ops):
                        key = tag, side if tag == SCALE else None, x
                        groups.setdefault(key, []).append(p)
            key = max(groups, key=lambda g: len(groups[g]), default=None)
            if key is None or len(groups[key]) < 2:
                break
            (tag, side, x), members = key, groups[key]
            inner = {}
            for p in members:
                c, ops = combination.pop(p), nodes[p][1:]
                if p not in dropped:
                    dropped.add(p)
                    for i in ops:
                        readers[i] -= 1
                at = side if tag == SCALE else ops.index(x)
                inner[ops[1 - at]] = -c if tag != SCALE and at == 0 else c  # [x,u] = -[u,x]
            shared = {x: 1}
            grouped = product(tag, shared, inner) if side == 0 else product(tag, inner, shared)
            for i, c in grouped.items():
                c += combination.get(i, 0)
                if c:
                    combination[i] = c
                else:
                    del combination[i]
        collected = sorted(combination.items())
        if not collected:
            return 0, None
        if len(collected) == 1:
            (i, c), = collected
            return c, i
        return 1, node((SUM, tuple((c, i) for i, c in collected)))

    c, root = single(parts(term))
    num_vars = max((k for tag, k, *_ in nodes if tag == VAR), default=0)
    if c != 1:
        zero = (INT, 0) if term_type(term) == "scalar" else (SUM, ())
        nodes.append((SUM, ((c, root),)) if c else zero)
        root = len(nodes) - 1
    # keep the nodes the root reads, in their order
    live = [False] * root + [True]
    for at in range(root, -1, -1):
        if live[at]:
            for i in _operands(nodes[at]):
                live[i] = True
    kept, new = [], {}
    for at in range(root + 1):
        if live[at]:
            key = nodes[at]
            if key[0] == SUM:
                key = (SUM, tuple((c, new[i]) for c, i in key[1]))
            elif key[0] not in (VAR, INT):
                key = (key[0], new[key[1]], new[key[2]])
            new[at] = len(kept)
            kept.append(key)
    return Program(tuple(kept), num_vars)


def _operands(node):
    """The node indices a program node reads."""
    tag = node[0]
    if tag == SUM:
        return [i for _, i in node[1]]
    return () if tag in (VAR, INT) else node[1:]


def _program(ident):
    """The compiled term of an identity or of a bare term."""
    return ident.compiled() if isinstance(ident, Identity) else compile_term(ident)


def _run(alg: AnticommAlgebra, program, args):
    """The root value of a program with ``x_k`` bound to the scaled vector
    ``args[k - 1]``, as a scaled vector or scalar: ints over one
    denominator, 1 over GF(p).  Sums and scalings are not reduced mod p;
    the bracket, the form and :func:`~olie.linalg.from_scaled` are."""
    vals = []
    for node in program.nodes:
        tag = node[0]
        if tag == BRACKET:
            value = alg.bracket_scaled(vals[node[1]], vals[node[2]])
        elif tag == SCALE:
            (c, dc), (v, dv) = vals[node[1]], vals[node[2]]
            value = [c * x for x in v], dc * dv
        elif tag == SUM:
            parts = [(c, vals[i]) for c, i in node[1]]
            den = lcm(*[d for _, (_, d) in parts])
            parts = [(c * (den // d), v) for c, (v, d) in parts]
            if not parts:  # the zero vector; the zero scalar is (INT, 0)
                value = [0] * alg.dim, 1
            elif isinstance(parts[0][1], list):
                parts = [v if c == 1 else [c * x for x in v] for c, v in parts]
                value = [sum(col) for col in zip(*parts)], den
            else:
                value = sum(c * v for c, v in parts), den
        elif tag == VAR:
            value = args[node[1] - 1]
        elif tag == INT:
            value = node[1], 1
        else:
            value = alg.omega_scaled(vals[node[1]], vals[node[2]])
        vals.append(value)
    return vals[-1]


def _canonical(field, value):
    """A scaled root value as canonical scalars."""
    ints, den = value
    if isinstance(ints, list):
        return from_scaled(field, ints, den)
    return from_scaled(field, [ints], den)[0]


def evaluate(alg: AnticommAlgebra, ident, assignment):
    """Evaluate an identity or a bare term on basis vectors selected by
    0-based indices."""
    program = _program(ident)
    if len(assignment) != program.num_vars:
        raise ArityMismatch(f"need {program.num_vars} indices, got {len(assignment)}")
    n = alg.dim
    if not all(0 <= i < n for i in assignment):
        raise DimensionMismatch(f"basis indices {tuple(assignment)} out of range for dim {n}")
    args = [([0] * i + [1] + [0] * (n - 1 - i), 1) for i in assignment]
    return _canonical(alg.field, _run(alg, program, args))


def evaluate_on_vectors(alg: AnticommAlgebra, ident, vectors):
    program = _program(ident)
    if len(vectors) < program.num_vars:
        raise ArityMismatch(f"need {program.num_vars} vectors, got {len(vectors)}")
    if any(len(v) != alg.dim for v in vectors):
        raise DimensionMismatch("vector length does not match the algebra")
    field = alg.field
    return _canonical(field, _run(alg, program, [to_scaled(field, v) for v in vectors]))


def find_counterexample(alg: AnticommAlgebra, ident: Identity):
    """First basis tuple (lexicographic) where the identity fails, or None.
    A term that compiles to zero vanishes on every algebra, so it is not
    evaluated at all.  Otherwise the C(n, k) or n^k tuples must number
    at most ``ENUM_CAP``; past it, :class:`PreconditionFailed` is raised
    before any is evaluated."""
    if ident.compiled().nodes[-1] in ((SUM, ()), (INT, 0)):
        return None
    n, k = alg.dim, ident.num_vars
    count = comb(n, k) if ident.alternating else n**k
    if count > ENUM_CAP:
        raise PreconditionFailed(
            f"identity {ident.name!r} needs {count} basis tuples at dimension {n}, "
            f"past the enumeration limit of {ENUM_CAP}"
        )
    tuples = (
        combinations(range(n), k) if ident.alternating else product(range(n), repeat=k)
    )
    for assignment in tuples:
        value = evaluate(alg, ident, assignment)
        if (any(value) if isinstance(value, list) else value):
            return assignment
    return None


def holds(alg: AnticommAlgebra, ident: Identity):
    return find_counterexample(alg, ident) is None


# -- built-in identities -----------------------------------------------------


def _jacobian_term(x, y, z):
    return plus(b(b(x, y), z), b(b(z, x), y), b(b(y, z), x))


JACOBIAN = Identity("jacobian", _jacobian_term(var(1), var(2), var(3)), alternating=True)
"""The Jacobian [[x,y],z] + [[z,x],y] + [[y,z],x], built once like a
built-in."""


def _jacobi_residual():
    x, y, z = var(1), var(2), var(3)
    rhs = plus(s(w(x, y), z), s(w(z, x), y), s(w(y, z), x))
    return Identity("jacobi-residual", minus(_jacobian_term(x, y, z), rhs), alternating=True)


def _d_omega_term(x, y, z):
    return plus(w(b(x, y), z), w(b(z, x), y), w(b(y, z), x))


def _two_basic():
    x, y, z, t = (var(i) for i in range(1, 5))
    lhs = plus(
        s(w(z, t), b(x, y)),
        s(w(t, y), b(x, z)),
        s(w(y, z), b(x, t)),
        s(w(x, t), b(y, z)),
        s(w(z, x), b(y, t)),
        s(w(x, y), b(z, t)),
    )
    rhs = plus(
        s(_d_omega_term(t, z, y), x),
        s(_d_omega_term(z, t, x), y),
        s(_d_omega_term(y, x, t), z),
        s(_d_omega_term(x, y, z), t),
    )
    return Identity("two-basic", minus(lhs, rhs), alternating=True)


def _degree5():
    terms = []
    for sigma in permutations(range(1, 6)):
        sign = _perm_sign(sigma)
        a, bb, c, d, e = (var(i) for i in sigma)
        mono = plus(b(b(b(b(a, bb), c), d), e), b(b(b(a, bb), c), b(d, e)))
        terms.append(s(sign, mono))
    return Identity("degree5", plus(*terms), alternating=True)


def _perm_sign(sigma):
    sign = 1
    for i, j in combinations(range(len(sigma)), 2):
        if sigma[i] > sigma[j]:
            sign = -sign
    return sign


def _linearized(name, direct, copies):
    """The full linearization of the term ``direct``, as an identity that
    keeps ``direct``: in each monomial the k-th occurrence of ``x_v`` met
    left to right becomes ``x_{c_k}``, summed over every permutation
    ``(c_1, ..., c_m)`` of ``copies[v]`` for every ``v`` (variables in
    increasing order, permutations in ``itertools`` order).  Each summand
    of a sum starts from the occurrence counts met before the sum."""

    def substitute(term, perm, seen):
        tag = term[0]
        if tag == VAR:
            k = seen[term[1]] = seen.get(term[1], 0) + 1
            return var(perm[term[1]][k - 1])
        if tag == INT:
            return term
        if tag == SUM:
            summands, after = [], seen
            for t in term[1]:
                after = dict(seen)
                summands.append(substitute(t, perm, after))
            seen.update(after)
            return (SUM, tuple(summands))
        return (tag, substitute(term[1], perm, seen), substitute(term[2], perm, seen))

    variables = sorted(copies)
    choices = product(*(permutations(copies[v]) for v in variables))
    terms = [substitute(direct, dict(zip(variables, c)), {}) for c in choices]
    return Identity(name, plus(*terms), direct=direct)


def _engel():
    # [[[y,x],x],x] with x = x1, y = x2
    direct = b(b(b(var(2), var(1)), var(1)), var(1))
    return _linearized("engel", direct, {1: (2, 3, 4), 2: (1,)})


def _abg(alpha=1, beta=1, gamma=1):
    x, y, z = var(1), var(2), var(3)
    direct = plus(
        s(alpha, b(b(x, y), b(x, z))),
        s(beta, minus(b(b(b(x, y), x), z), b(b(b(x, z), x), y))),
        s(gamma, minus(b(b(b(x, y), z), x), b(b(b(x, z), y), x))),
        s(beta + gamma, b(b(b(y, z), x), x)),
    )
    return _linearized("abg", direct, {1: (1, 2), 2: (3,), 3: (4,)})


def _bin():
    x, y = var(1), var(2)
    direct = _jacobian_term(x, y, b(x, y))
    return _linearized("bin", direct, {1: (1, 2), 2: (3, 4)})


def _four():
    x, y, z, t = (var(i) for i in range(1, 5))
    lhs = plus(
        b(_jacobian_term(x, y, z), t),
        s(-1, b(_jacobian_term(t, x, y), z)),
        b(_jacobian_term(z, t, x), y),
        s(-1, b(_jacobian_term(y, z, t), x)),
    )
    return Identity("four", lhs, alternating=True)


def _bin_consequence():
    x, y = var(1), var(2)
    direct = minus(
        s(w(x, y), b(x, y)),
        minus(s(w(b(x, y), y), x), s(w(b(x, y), x), y)),
    )
    return _linearized("bin-consequence", direct, {1: (1, 2), 2: (3, 4)})


def _four_consequence():
    term = _d_omega_term(var(1), var(2), var(3))
    return Identity("four-consequence", term, alternating=True)


_BUILTIN_FACTORIES = {
    "jacobi-residual": _jacobi_residual,
    "two-basic": _two_basic,
    "degree5": _degree5,
    "engel": _engel,
    "abg": _abg,
    "bin": _bin,
    "four": _four,
    "bin-consequence": _bin_consequence,
    "four-consequence": _four_consequence,
}


def builtin_names():
    return sorted(_BUILTIN_FACTORIES)


def builtin_parameters(name):
    """The parameter names of a built-in identity, in order."""
    return tuple(signature(_factory(name)).parameters)


def builtin(name, **params):
    """A built-in identity.  Each is built (and checked for
    multilinearity) once per process and then shared, so callers must
    not mutate it."""
    _factory(name)  # an unknown name raises here, not inside the cache
    return _builtin(name, tuple(sorted(params.items())))


def _factory(name):
    if name not in _BUILTIN_FACTORIES:
        raise UnknownIdentity(
            f"unknown identity {name!r}; known: {', '.join(builtin_names())}"
        )
    return _BUILTIN_FACTORIES[name]


@lru_cache(maxsize=64)
def _builtin(name, params):
    return _BUILTIN_FACTORIES[name](**dict(params))
