from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from olie import GF, QQ
from olie.errors import DivisionByZero, FieldMismatch, ParseError, UnsupportedCharacteristic
from olie.fields import PSI_12, field_from_json, field_from_tag, is_prime, same_field

from oracles import parse_scalar_reference


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)


def test_rational_inverse_and_quotient_of_ints_are_fractions():
    for got in (QQ.inv(3), QQ.div(1, 3)):
        assert got == Fraction(1, 3) and type(got) is Fraction
    assert type(QQ.div(Fraction(1, 2), 3)) is Fraction


def test_gf_arithmetic():
    f = GF(5)
    assert f.inv(3) == 2
    assert f.add(4, 3) == 2
    assert f.neg(1) == 4
    assert f.div(1, 2) == 3


def test_unsupported_characteristic():
    for p in (2, 3):
        with pytest.raises(UnsupportedCharacteristic):
            GF(p)
    with pytest.raises(UnsupportedCharacteristic):
        GF(6)
    with pytest.raises(UnsupportedCharacteristic):
        GF(1)


def test_moduli_from_psi_12_on_are_refused():
    """psi_12 is a product of two primes that passes Miller-Rabin on all
    twelve bases, so GF(psi_12) would have a non-invertible element;
    every modulus from it on is refused before any round, by a message
    that gives its bit length, not its digits."""
    assert PSI_12 == 399165290221 * 798330580441 and is_prime(PSI_12)
    for p in (PSI_12, PSI_12 + 2, 10**4000 + 1, 10**5000):
        with pytest.raises(UnsupportedCharacteristic) as info:
            GF(p)
        message = str(info.value)
        assert len(message) < 200 and f"{p.bit_length()}-bit" in message and "psi_12" in message
    with pytest.raises(UnsupportedCharacteristic):
        field_from_json({"GF": PSI_12})
    with pytest.raises(ParseError) as info:
        field_from_tag("gf" + "1" * 100_000)
    assert len(str(info.value)) < 200


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF(7).inv(0)


def test_text_roundtrip():
    assert QQ.format(QQ.parse("-3/4")) == "-3/4"
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.format(Fraction(5)) == "5"
    f = GF(5)
    assert f.parse("-1") == 4
    assert f.format(f.parse("12")) == "2"
    with pytest.raises(ParseError):
        QQ.parse("x")


def test_q_text_is_signed_integers_only():
    assert QQ.parse(" +6/4 ") == Fraction(3, 2)
    assert QQ.parse("-0") == Fraction(0)
    for text in ["1e3", "1.5", ".5", "1_0", "3/-4", "1/+2", "1 / 2", "nan", "", "/2", "2/"]:
        with pytest.raises(ParseError):
            QQ.parse(text)


def test_gf_text_is_the_rational_text_mod_p():
    f = GF(5)
    assert f.parse(" +6/4 ") == 4
    assert f.parse("-7") == 3
    for text in ["1_0", "\u0663", "1/ 2", "1e3", "1.5", "3/-4", "0x10", "", "/2", "2/"]:
        with pytest.raises(ParseError):
            f.parse(text)


numerals = st.from_regex(r"\A[0-9]{1,30}\Z")
scalar_texts = st.one_of(
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "+", "-"]),
        numerals,
        st.one_of(st.just(""), numerals.map("/{}".format)),
        st.sampled_from(["", " ", "\n"]),
    ),
    st.text(alphabet="0123456789+-/ ._xe", max_size=12),
)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1000003)], ids=str)
@given(text=scalar_texts)
def test_parse_reads_the_earlier_grammar_and_values(field, text):
    """One regex match gives the scalar the earlier double parse gave,
    and a text it refused is still a parse error."""
    want = parse_scalar_reference(field, text)
    if want is None:
        with pytest.raises(ParseError):
            field.parse(text)
    else:
        got = field.parse(text)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("p", [5, 7, 13, 17, 41, 97, 257, 1009])
def test_gf_sqrt(p):
    f = GF(p)
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        root = f.sqrt(a)
        assert root is None if a not in squares else root * root % p == a


def test_q_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(0)) == 0
    for a in (Fraction(2), Fraction(-1), Fraction(9, 2), Fraction(10**30 + 1)):
        assert QQ.sqrt(a) is None
    assert QQ.sqrt(Fraction(735134400**2, 49)) == Fraction(735134400, 7)


def test_canonical_encoding_unique():
    a = QQ.parse("2/4")
    b = QQ.parse("1/2")
    assert a == b and QQ.format(a) == QQ.format(b)


def test_coerce_fraction_into_gf():
    f = GF(5)
    assert f.coerce(Fraction(1, 2)) == 3
    with pytest.raises(DivisionByZero):
        f.coerce(Fraction(1, 5))


def test_field_json_and_tags():
    assert field_from_json("Q") == QQ
    assert field_from_json({"GF": 7}) == GF(7)
    with pytest.raises(ParseError):
        field_from_json({"GF": 5, "extra": 1})
    assert field_from_tag("q") == QQ
    assert field_from_tag("gf11") == GF(11)
    with pytest.raises(ParseError):
        field_from_tag("r")


def test_same_field_guard():
    with pytest.raises(FieldMismatch):
        same_field(QQ, GF(5))


scalars_q = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars_gf = st.integers(min_value=0, max_value=6)


@given(scalars_q, scalars_q, scalars_q)
def test_field_axioms_q(a, b, c):
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one()


@given(scalars_gf, scalars_gf, scalars_gf)
def test_field_axioms_gf7(a, b, c):
    f = GF(7)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    if a % 7:
        assert f.mul(a, f.inv(a)) == 1
