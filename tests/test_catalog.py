import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from olie import GF, QQ, OmegaAlgebra, Violation
from olie import catalog
from olie.errors import (
    EigenvectorConditionFailed,
    ParseError,
    SchemaError,
    UnknownName,
)
from olie.extensions import extend_codim1


def test_valid_entries_validate():
    for name in catalog.catalog_names():
        entry = catalog.catalog_entry(name)
        alg = catalog.builtin_algebra(name)
        assert alg.is_valid() == entry.valid, name


def test_omega_s4_table(s4):
    assert s4.omega_entry(1, 2) == F(2)
    assert s4.omega_entry(1, 3) == F(2)
    assert s4.omega_entry(0, 1) == 0


def test_lie_entries(sl2, aff1):
    assert sl2.is_lie()
    assert aff1.is_lie()
    y_version = catalog.builtin_algebra("lie.aff1y")
    assert y_version.is_lie()
    assert y_version.basis_bracket(0, 1) == [F(0), F(1)]


def test_sl2_extension_tables_fail_validation(sl2e):
    violation = sl2e.validate()
    assert isinstance(violation, Violation)
    assert violation.triple == (0, 1, 3)
    f_version = catalog.builtin_algebra("omega.sl2f")
    assert isinstance(f_version.validate(), Violation)


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog.builtin_algebra("omega.unknown")


def test_family_iiia_small_entry():
    member = catalog.builtin_algebra("family.iiia")
    assert isinstance(member, OmegaAlgebra)
    assert member.dim == 4 and not member.is_lie()


def test_family_iiia_rejects_bad_data():
    with pytest.raises(EigenvectorConditionFailed):
        catalog.family_iiia(QQ, 1, [[F(1)]], 1, [[F(1)]])
    with pytest.raises(EigenvectorConditionFailed):
        catalog.family_iiia(QQ, 2, [[F(1), F(0)], [F(0), F(2)]], 1, [[F(0), F(0)], [F(0), F(0)]])
    with pytest.raises(EigenvectorConditionFailed):
        # wrong eigenvalue
        catalog.family_iiia(QQ, 2, [[F(1), F(0)], [F(0), F(2)]], 2, [[F(0), F(0)], [F(1), F(0)]])


def test_random_dim3_determinism_and_validity():
    a = catalog.random_dim3(QQ, 1)
    b = catalog.random_dim3(QQ, 1)
    assert a == b
    assert a.is_valid()
    for seed in range(100):
        assert catalog.random_dim3(GF(5), seed).is_valid()


def test_random_dim3_unique_form(gf5):
    for seed in range(20):
        alg = catalog.random_dim3(gf5, seed)
        skeleton = catalog.AnticommAlgebra(gf5, 3, alg._bracket)
        sol = skeleton.omega_space()
        assert sol is not None and sol.is_unique


def test_zero_bracket_draw_is_abelian_lie():
    # some seed draws the zero bracket; construct directly instead of hunting
    alg = catalog.AnticommAlgebra(QQ, 3)
    sol = alg.omega_space()
    assert sol.is_unique is False or all(x == 0 for x in sol.particular)


def test_chain_target3_is_random_dim3(gf5):
    assert catalog.random_extension_chain(gf5, 11, 3) == catalog.random_dim3(gf5, 11)


def test_chain_determinism(gf5):
    a = catalog.random_extension_chain(gf5, 2, 5)
    b = catalog.random_extension_chain(gf5, 2, 5)
    assert not isinstance(a, catalog.Stuck)
    assert a == b


def test_chain_results_are_valid_or_stuck():
    # chains essentially never get stuck at desk scale: the solution
    # space always carries the section-shift family; the Stuck surface
    # stays, reported as a falsy value with a reason
    for seed in range(25):
        out = catalog.random_extension_chain(QQ, seed, 4)
        if isinstance(out, catalog.Stuck):
            assert not out
            assert out.reason in ("not multiplicative", "only the zero derivation")
        else:
            assert out.is_valid() and out.dim == 4
    assert not catalog.Stuck("not multiplicative", 3)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(4, 7))
def test_trusted_chain_steps_equal_extend_codim1(field, seed, dim):
    # the generator extends by its own solved data without extend_codim1's
    # checks; here every step is run through them as well
    steps = []
    trusted = catalog._extension

    def checked(alg, lam, matrix, alpha):
        out = trusted(alg, lam, matrix, alpha)
        steps.append((out, extend_codim1(alg, lam, matrix, alpha)))
        return out

    with mock.patch.object(catalog, "_extension", checked):
        result = catalog.random_extension_chain(field, seed, dim)
    assert steps or isinstance(result, catalog.Stuck)
    for got, want in steps:
        assert got == want
        assert type(got) is type(want) is OmegaAlgebra
    if not isinstance(result, catalog.Stuck):
        assert result is steps[-1][0] and result.dim == dim


def test_save_load_roundtrip(tmp_path, s4):
    path = tmp_path / "alg.json"
    catalog.save(s4, path)
    again = catalog.load(path)
    assert again == s4
    catalog.save(again, tmp_path / "alg2.json")
    assert (tmp_path / "alg.json").read_bytes() == (tmp_path / "alg2.json").read_bytes()


def test_shipped_table_matches_catalog(s4):
    from pathlib import Path

    shipped = Path(__file__).parent.parent / "data" / "omega_s4.json"
    assert catalog.loads(shipped.read_text(encoding="utf-8")) == s4
    assert shipped.read_text(encoding="utf-8") == catalog.dumps(s4)


def test_schema_rejects_bad_keys():
    base = {"field": "Q", "dim": 2, "bracket": {}, "omega": {}}
    bad = dict(base)
    bad["bracket"] = {"2,2": {"1": "1"}}
    with pytest.raises(SchemaError):
        catalog.from_json_dict(bad)
    bad["bracket"] = {"2,1": {"1": "1"}}
    with pytest.raises(SchemaError):
        catalog.from_json_dict(bad)
    bad = dict(base)
    bad["extra"] = 1
    with pytest.raises(SchemaError):
        catalog.from_json_dict(bad)
    bad = dict(base)
    bad["bracket"] = {"1,2": {"3": "1"}}
    with pytest.raises(SchemaError):
        catalog.from_json_dict(bad)
    with pytest.raises(ParseError):
        catalog.loads("{not json")
    with pytest.raises(SchemaError):
        catalog.from_json_dict({"field": "Q"})


def test_gf_file_roundtrip(tmp_path, gf5):
    alg = catalog.random_dim3(gf5, 3)
    path = tmp_path / "gf.json"
    catalog.save(alg, path)
    obj = json.loads(path.read_text())
    assert obj["field"] == {"GF": 5}
    assert catalog.load(path) == alg


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_each_distinct_scalar_text_is_parsed_once(field):
    """A file's scalars are read through one parse per distinct text, and
    an int scalar still goes through the field's coercion."""
    obj = {
        "field": field.to_json(),
        "dim": 3,
        "bracket": {"1,2": {"1": "1/2", "2": "2/4", "3": "1/2"}, "1,3": {"2": "-1", "3": 5}},
        "omega": {"1,2": "1/2", "2,3": "-1"},
    }
    parse = type(field).parse
    with mock.patch.object(type(field), "parse", autospec=True, side_effect=parse) as spy:
        alg = catalog.from_json_dict(obj)
    assert sorted(call.args[1] for call in spy.call_args_list) == ["-1", "1/2", "2/4"]
    half = field.parse("1/2")
    assert alg.basis_bracket(0, 1) == [half, half, half]
    assert alg.basis_bracket(0, 2) == [0, field.coerce(-1), field.coerce(5)]
    assert (alg.omega_entry(0, 1), alg.omega_entry(1, 2)) == (half, field.coerce(-1))
