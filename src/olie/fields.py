"""Exact scalar arithmetic over the two supported coefficient fields.

Scalars are plain Python values: `fractions.Fraction` over the rationals
(always reduced, positive denominator, so equality is structural) and
`int` residues in ``[0, p)`` over GF(p).  Python's ``+ - *`` give the
exact value of a sum or product in either field, and truthiness is the
zero test of a canonical scalar; only the reduction of an int back into
``[0, p)`` depends on the field, and :mod:`olie.linalg` does it in one
place.  A field object supplies what the operators cannot: the text and
JSON codecs, ``coerce`` (a value entering the library becomes a
canonical scalar), and ``inv``, ``div`` and ``sqrt``, which also take
unreduced ints over GF(p) and return canonical scalars.  Its ``add``,
``sub``, ``mul``, ``neg`` and ``is_zero`` remain as public API and as
the per-scalar reference arithmetic of the tests.  Containers (vectors,
matrices, algebras) carry the field.

Text encoding: rationals print as ``a`` or ``a/b`` with an optional
leading ``-``; prime-field elements print as the decimal residue.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ParseError,
    SchemaError,
    UnsupportedCharacteristic,
    quoted,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461  # Sorenson and Webster, Math. Comp. 2017
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _numerals(text, what):
    """The numerator and denominator ints of a scalar text ``a`` or
    ``a/b``, read by one regex match, the denominator 1 when absent.  A
    text outside the grammar, or with a numeral past the interpreter's
    digit limit, is a :class:`ParseError` that starts with ``what``."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if not match:
        raise ParseError(f"{what} {quoted(text)}: expected a or a/b")
    num, den = match.groups()
    try:
        return int(num), int(den or 1)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{what} {quoted(text)}: a numeral has more than {limit} digits") from None


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases ``_SMALL_PRIMES``, proved exact below
    ``PSI_12``, the least strong pseudoprime to all twelve; refused from it on."""
    if n >= PSI_12:
        raise UnsupportedCharacteristic(
            f"GF(p) with a {n.bit_length()}-bit modulus: primality is proved only "
            f"below psi_12 = {PSI_12}"
        )
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rationals; scalars are Fraction values."""

    char = 0
    tag = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        """Accept int, Fraction or text and return a canonical scalar."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def sqrt(self, a):
        """A square root of a, or None when a is not a square in Q."""
        if a < 0:
            return None
        num, den = isqrt(a.numerator), isqrt(a.denominator)
        if num * num != a.numerator or den * den != a.denominator:
            return None
        return Fraction(num, den)

    def parse(self, text):
        """``a`` or ``a/b``: optionally signed decimal integers, ``b``
        unsigned and nonzero.  No other notation is read, so the size of
        a scalar is bounded by the length of its text."""
        text = text.strip()
        num, den = _numerals(text, "bad rational scalar")
        if den == 1:
            return Fraction(num)
        if not den:
            raise ParseError(f"bad rational scalar {quoted(text)}: zero denominator")
        return Fraction(num, den)

    def format(self, a):
        return str(a)

    def to_json(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """GF(p) for a prime 5 <= p < ``PSI_12``; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise UnsupportedCharacteristic(f"GF({quoted(p)}): modulus must be prime")
        if p < 5:
            raise UnsupportedCharacteristic(
                f"GF({p}): characteristic 2 and 3 are not supported"
            )
        self.p = p
        self.char = p
        self.tag = f"GF{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def sqrt(self, a):
        """A square root of a, or None when a is not a square mod p, by
        Tonelli-Shanks."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    def parse(self, text):
        """``a`` or ``a/b`` as over the rationals, read mod p; ``b`` must
        be nonzero mod p."""
        text, p = text.strip(), self.p
        num, den = _numerals(text, f"bad GF({p}) scalar")
        if den % p == 0:
            raise ParseError(f"bad GF({p}) scalar {quoted(text)}: inverse of zero in GF({p})")
        return num * pow(den, -1, p) % p

    def format(self, a):
        return str(a % self.p)

    def to_json(self):
        return {"GF": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"GF"}:
        return PrimeField(obj["GF"])
    raise ParseError(f"bad field description {quoted(obj)}")


def scalar_from_json(field, value, where):
    """A scalar of a JSON file: a string, or an integer (not a bool)."""
    if isinstance(value, str):
        return field.parse(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return field.coerce(value)
    raise SchemaError(f"{where}: scalar {quoted(value)} must be a string or an integer")


def field_from_tag(tag: str):
    """Parse a CLI field tag: 'q', 'Q', 'gf5', 'GF7', ..."""
    t = tag.strip().lower()
    if t == "q":
        return QQ
    if t.startswith("gf"):
        try:
            return PrimeField(int(t[2:]))
        except ValueError:
            pass
    raise ParseError(f"bad field tag {quoted(tag)} (expected q or gf<p>)")


def same_field(a, b):
    if a != b:
        raise FieldMismatch(f"mixed fields {a!r} and {b!r}")
    return a
