import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import olie
from olie import GF, QQ, AlphaLambdaDerivation, AnticommAlgebra, catalog
from olie.cli import SCAN_DIMS, SCAN_MAX_COUNT, _scan_structure_one, main
from olie.identities import builtin_names
from olie.errors import InputError, OlieError, ParseError, SchemaError
from oracles import scan_structure_one_reference


def run_cli(args):
    """Invoke the entry point in-process, capturing stdout."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def s4_file(tmp_path):
    path = tmp_path / "s4.json"
    catalog.save(catalog.builtin_algebra("omega.s4"), path)
    return str(path)


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    catalog.save(catalog.builtin_algebra("lie.sl2"), path)
    return str(path)


def test_check_valid(s4_file):
    code, out, _ = run_cli(["check", s4_file])
    assert code == 0 and "valid" in out


def test_check_invalid(tmp_path):
    path = tmp_path / "bad.json"
    catalog.save(catalog.builtin_algebra("omega.sl2e"), path)
    code, out, _ = run_cli(["check", str(path)])
    assert code == 1
    assert "(1,2,4)" in out


def test_check_json_mode(s4_file):
    code, out, _ = run_cli(["--format", "json", "check", s4_file])
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_info(s4_file):
    code, out, _ = run_cli(["--format", "json", "info", s4_file])
    payload = json.loads(out)
    assert payload["dim"] == 4
    assert payload["omega_rank"] == 2
    assert payload["is_lie"] is False
    assert payload["lambda_particular"] == ["2", "0", "0", "0"]


def test_derive(sl2_file):
    code, out, _ = run_cli(["--format", "json", "derive", sl2_file, "--lambda", "0,0,0"])
    payload = json.loads(out)
    assert payload["spaces"][0]["dimension"] == 3


def test_derive_solve_lambda(s4_file):
    code, out, _ = run_cli(["--format", "json", "derive", s4_file, "--solve-lambda"])
    payload = json.loads(out)
    assert payload["spaces"][0]["lambda"] == ["2", "0", "0", "0"]


def test_extend_pipeline(tmp_path):
    base = tmp_path / "n3.json"
    catalog.save(catalog.builtin_algebra("omega.n3"), base)
    der = tmp_path / "der.json"
    der.write_text(
        json.dumps(
            {
                "D": [["0", "0", "-1"], ["1", "0", "0"], ["0", "0", "0"]],
                "alpha": ["0", "2", "0"],
                "lambda": ["2", "0", "0"],
            }
        )
    )
    out_path = tmp_path / "ext.json"
    code, _, _ = run_cli(
        ["extend", str(base), "--derivation", str(der), "-o", str(out_path)]
    )
    assert code == 0
    assert catalog.load(out_path) == catalog.builtin_algebra("omega.s4")
    # bit-exact against the shipped table
    from pathlib import Path

    shipped = Path(__file__).parent.parent / "data" / "omega_s4.json"
    assert out_path.read_bytes() == shipped.read_bytes()


def test_extend_lambda_disagreement(tmp_path):
    base = tmp_path / "n3.json"
    catalog.save(catalog.builtin_algebra("omega.n3"), base)
    der = tmp_path / "der.json"
    der.write_text(
        json.dumps(
            {
                "D": [["0", "0", "-1"], ["1", "0", "0"], ["0", "0", "0"]],
                "alpha": ["0", "2", "0"],
                "lambda": ["2", "0", "0"],
            }
        )
    )
    code, _, err = run_cli(
        [
            "extend",
            str(base),
            "--lambda",
            "0,0,0",
            "--derivation",
            str(der),
            "-o",
            str(base) + ".out",
        ]
    )
    assert code == 4


def test_classify(s4_file):
    code, out, _ = run_cli(["--format", "json", "classify", s4_file])
    payload = json.loads(out)
    assert code == 0
    assert payload["case"] == "kernel_codim_two"
    assert payload["nilpotent_action"] is True
    assert payload["abelian_small_codim"] == [["0", "0", "1", "0"], ["0", "0", "0", "1"]]


def test_identity_name_and_expr(s4_file):
    code, out, _ = run_cli(["identity", s4_file, "--name", "two-basic"])
    assert code == 0 and "holds" in out
    code, out, _ = run_cli(["identity", s4_file, "--name", "four-consequence"])
    assert code == 1 and "(1, 2, 3)" in out
    code, out, _ = run_cli(
        ["identity", s4_file, "--expr", "(b (b x1 x2) x3)"]
    )
    assert code == 1


def test_identity_bad_expr(s4_file):
    code, _, err = run_cli(["identity", s4_file, "--expr", "(b x1 x1)"])
    assert code == 3


def test_h2_and_deform(tmp_path, sl2_file):
    base = tmp_path / "n3.json"
    catalog.save(catalog.builtin_algebra("omega.n3"), base)
    code, out, _ = run_cli(["--format", "json", "h2", str(base), "--lambda", "2,0,0"])
    assert code == 0 and json.loads(out)["h2"] == 0
    code, out, _ = run_cli(["--format", "json", "deform", sl2_file])
    payload = json.loads(out)
    assert payload["dimension"] == 9 and payload["omega1_projection_dim"] == 3


def test_cohomology_selftest(s4_file):
    code, out, _ = run_cli(["cohomology-selftest", s4_file, "--count", "3"])
    assert code == 0


def test_scan_dim3(capsys):
    code, out, _ = run_cli(
        ["--format", "json", "scan-dim3", "--field", "gf5", "--count", "25", "--seed", "0"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["failures"] == []
    assert payload["checked"] + payload["lie_skipped"] == 25


def test_scan_structure_small():
    code, out, _ = run_cli(
        [
            "--format",
            "json",
            "scan-structure",
            "--field",
            "gf5",
            "--dims",
            "4..4",
            "--count",
            "10",
            "--seed",
            "0",
        ]
    )
    payload = json.loads(out)
    assert code == 0 and payload["failures"] == []
    assert payload["dims"]["4"]["count"] == 10


# the seed-0 scan-gf5 benchmark chains (seed s at dim 4 + s % 3) with no
# abelian ideal, on which the scan still runs the simplicity search
NO_ABELIAN_IDEAL_SEEDS = (
    28, 37, 38, 50, 92, 97, 113, 142, 155, 172, 199, 217, 223, 232, 244, 304,
    314, 326, 346, 347, 349, 391, 419, 422, 451, 463, 470, 476, 496, 514, 535,
    541, 547, 559, 574, 590, 592, 613, 629, 635, 643, 670, 676, 677, 688, 710,
    724, 745, 752, 757, 760, 763, 770, 772, 779, 791, 794, 817, 820, 851, 868,
    872, 878, 883,
)
SMALL_CHAINS = [(seed, dim) for seed in range(16) for dim in (4, 5, 6)]


@pytest.mark.parametrize(
    "field_tag, chains, no_ideal",
    [
        ("gf5", SMALL_CHAINS, False),
        ("q", SMALL_CHAINS, False),
        ("gf5", [(seed, 4 + seed % 3) for seed in NO_ABELIAN_IDEAL_SEEDS], True),
    ],
    ids=["gf5", "q", "gf5-no-abelian-ideal"],
)
def test_scan_structure_one_matches_the_two_search_reference(field_tag, chains, no_ideal):
    # the abelian-ideal search answers both verdicts when it finds an
    # ideal; the reference runs both searches on a fresh certified copy
    searched = []
    for seed, dim in chains:
        got = _scan_structure_one(field_tag, seed, dim)
        want = scan_structure_one_reference(field_tag, seed, dim)
        assert list(got.items()) == list(want.items()), (seed, dim)
        if "abelian_ideal_ok" in got:
            searched.append(got["abelian_ideal_ok"])
    assert searched
    if no_ideal:
        assert searched == [False] * len(chains)


def test_workers_do_not_change_output():
    tail = ["scan-dim3", "--field", "gf5", "--count", "12", "--seed", "3"]
    code1, out1, _ = run_cli(["--format", "json"] + tail)
    code2, out2, _ = run_cli(["--format", "json", "--workers", "2"] + tail)
    assert (code1, out1) == (code2, out2)


def test_pool_size_is_bounded_by_cpus_and_items(monkeypatch):
    """``--workers`` asks for at most one process per CPU and per item;
    a fake ``Pool`` records the count it is given and starts none."""
    import multiprocessing

    from olie import cli

    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, items, chunksize=1):
            return [func(*item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    items = [(k, 1) for k in range(10)]
    assert cli._pool_map(pow, items, 10**9) == list(range(10))
    assert cli._pool_map(pow, items[:3], 8) == [0, 1, 2]
    assert cli._pool_map(pow, items, 2) == list(range(10))
    assert asked == [4, 3, 2]
    # one item, one CPU or an unknown CPU count: no pool at all
    assert cli._pool_map(pow, items[:1], 8) == [0]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._pool_map(pow, items, 8) == list(range(10))
    assert asked == [4, 3, 2]
    code, out, _ = run_cli(["--workers", str(10**9), "scan-dim3", "--field", "gf5", "--count", "3"])
    assert code == 0 and asked == [4, 3, 2]


def test_deep_expr_nesting_is_a_parse_error(s4_file):
    deep = "(b " * 3000 + "x1" + " x2)" * 3000
    code, out, err = run_cli_process(["identity", s4_file, "--expr", deep])
    assert code == 3 and "Traceback" not in err and out == ""
    assert "nested deeper than" in err


def test_identity_past_the_enumeration_limit_exits_4(tmp_path):
    # 16**5 basis tuples of a term that does not vanish: refused unrun
    path = tmp_path / "abelian16.json"
    catalog.save(AnticommAlgebra(GF(5), 16), path)
    expr = "(b (b (b (b x1 x2) x3) x4) x5)"
    code, out, err = run_cli_process(["identity", str(path), "--expr", expr])
    assert code == 4 and "Traceback" not in err and out == ""
    assert "enumeration limit of 1000000" in err


def sl2_copies(path, copies, abelian=0):
    """Save the direct sum of ``copies`` copies of sl2 and an abelian
    algebra of dimension ``abelian`` over GF(5), a Lie algebra of
    dimension 3 * copies + abelian, and return its path."""
    sl2 = catalog.builtin_algebra("lie.sl2", GF(5))
    bracket = {
        (3 * c + i, 3 * c + j): {3 * c + k: x for k, x in image.items()}
        for c in range(copies)
        for (i, j), image in sl2._bracket.items()
    }
    catalog.save(AnticommAlgebra(GF(5), 3 * copies + abelian, bracket), path)
    return str(path)


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _sized_command(tmp_path, command, n):
    """``command`` with its placeholders filled in for an algebra of
    dimension ``n``: ``LAMBDA`` the zero covector, ``ZERO_D`` a file of
    the zero derivation, ``OUT`` an output path."""
    zero_d = tmp_path / "zero_d.json"
    zero_d.write_text(json.dumps({"D": [["0"] * n for _ in range(n)]}))
    fill = {"LAMBDA": ",".join(["0"] * n), "ZERO_D": str(zero_d), "OUT": str(tmp_path / "out.json")}
    return [fill.get(word, word) for word in command]


H2 = ["h2", "--lambda", "LAMBDA"]
SELFTEST = ["cohomology-selftest", "--count", "1"]
EXTEND = ["extend", "--derivation", "ZERO_D", "-o", "OUT"]


@pytest.mark.parametrize(
    "command, copies, cells",
    [
        # 48,576 x 6,900 dense cells, which ran out of a 1-GB address space
        (["deform"], 8, "48576 x 6900"),
        # 13,050 x 930: the first sum of copies past the limit
        (["derive", "--solve-lambda"], 10, "13050 x 930"),
        # the derivation check of the extension builds the same rows
        (EXTEND, 10, "13050 x 930"),
        # the degree-2 differential, C(45, 2) x C(45, 3): the first sum of
        # copies past the limit, which holds up to dimension 42
        (H2, 15, "990 x 14190"),
        (SELFTEST, 15, "990 x 14190"),
    ],
)
def test_system_past_the_size_limit_exits_4(tmp_path, command, copies, cells):
    # the system is refused before any row is built
    proc = _run_limited(tmp_path, command, copies)
    assert proc.returncode == 4 and "Traceback" not in proc.stderr and proc.stdout == ""
    assert f"{cells} = " in proc.stderr and "past the limit of 10000000" in proc.stderr


def _run_limited(tmp_path, command, copies, abelian=0):
    """``command`` on the sum of ``copies`` copies of sl2 and an abelian
    algebra of dimension ``abelian``, run in a child process under a
    1-GB address space and a wall-clock limit."""
    path = sl2_copies(tmp_path / "sum.json", copies, abelian)
    n = 3 * copies + abelian
    env = dict(os.environ, PYTHONPATH=str(Path(olie.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "olie.cli", *_sized_command(tmp_path, command, n), path],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize("command", [["derive", "--solve-lambda"], EXTEND])
def test_largest_admitted_derivation_system_runs(tmp_path, command):
    # 9 copies of sl2, dimension 27: the largest sum of copies whose
    # derivation system, 9,477 x 756 cells, is within the limit
    proc = _run_limited(tmp_path, command, 9)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr and proc.stderr == ""


@pytest.mark.parametrize(
    "command, copies, abelian",
    [
        # sl2^4 + K^2, dimension 14: the largest admitted deformation system
        (["deform"], 4, 2),
        # 14 copies, dimension 42: the largest admitted degree-2 differential
        (H2, 14, 0),
        (SELFTEST, 14, 0),
    ],
)
def test_largest_admitted_systems_run(tmp_path, command, copies, abelian):
    proc = _run_limited(tmp_path, command, copies, abelian)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr and proc.stderr == ""


@pytest.mark.parametrize("command", [["deform"], ["derive", "--solve-lambda"], EXTEND, H2, SELFTEST])
def test_system_size_limit_admits_dimension_12(tmp_path, command):
    command = _sized_command(tmp_path, command, 12)
    code, out, _ = run_cli(["--format", "json", *command, sl2_copies(tmp_path / "sum.json", 4)])
    assert code == 0 and json.loads(out)


def test_catalog_commands(tmp_path):
    code, out, _ = run_cli(["catalog", "list"])
    assert code == 0 and "omega.s4" in out
    target = tmp_path / "out.json"
    code, _, _ = run_cli(["catalog", "show", "omega.n3", "-o", str(target)])
    assert code == 0
    assert catalog.load(target) == catalog.builtin_algebra("omega.n3")
    code, out, _ = run_cli(["catalog", "show", "omega.n3"])
    assert code == 0 and json.loads(out)["dim"] == 3


def test_derive_solve_lambda_requires_multiplicative(tmp_path):
    # a raw anticommutative table with no consistent covector
    bad = tmp_path / "nm.json"
    bad.write_text(
        '{"field": "Q", "dim": 4, "bracket": {"1,2": {"3": "1"}}, '
        '"omega": {"1,3": "1"}}'
    )
    code, _, _ = run_cli(["derive", str(bad), "--solve-lambda"])
    assert code == 4


def test_exit_codes(tmp_path, s4_file):
    # usage error -> 2 (argparse)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # schema error -> 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q", "dim": 2, "bracket": {"2,2": {"1": "1"}}}')
    code, _, err = run_cli(["check", str(bad)])
    assert code == 3
    # parse error -> 3
    bad.write_text("{nope")
    code, _, _ = run_cli(["check", str(bad)])
    assert code == 3
    # precondition error -> 4
    code, _, _ = run_cli(["derive", s4_file, "--lambda", "1,2"])
    assert code == 4
    # missing file -> 3
    code, _, _ = run_cli(["check", str(tmp_path / "absent.json")])
    assert code == 3


LONG = 200_000


def _long_inputs(tmp_path):
    """(argv, exit code) of commands whose input carries one very long
    text: a bad scalar of each field, a numeral past the digit limit, a
    zero denominator under a long numerator, long pair keys and
    coefficient indices, a JSON number past the digit limit, a long
    field name, modulus and list in place of a scalar, long atoms,
    variables and operators of an expression, a long lambda, and long
    field tags."""
    digits = "1" * LONG
    bad = "1" * (LONG - 1) + "x"
    cases = []
    tables = [
        ("Q", {"1,2": {"1": bad}}),
        ({"GF": 5}, {"1,2": {"1": bad}}),
        ("Q", {"1,2": {"1": digits}}),
        ({"GF": 7}, {"1,2": {"1": digits}}),
        ("Q", {"1,2": {"1": "1" * 4000 + "/0"}}),
        ("Q", {"1," + digits: {"1": "1"}}),
        ("Q", {"1," + "9" * 4000: {"1": "1"}}),
        ("Q", {"1,2": {digits: "1"}}),
        ("Q", {"1,2": {"9" * 4000: "1"}}),
    ]
    for t, (field, bracket) in enumerate(tables):
        path = tmp_path / f"long{t}.json"
        path.write_text(json.dumps({"field": field, "dim": 2, "bracket": bracket}))
        cases.append((["check", str(path)], 3))
    path = tmp_path / "number.json"
    path.write_text('{"field": "Q", "dim": 2, "bracket": {"1,2": {"1": %s}}}' % digits)
    cases.append((["check", str(path)], 3))
    # a long field name, a 4,000-digit modulus, a long list as a scalar
    for t, table in enumerate(
        [
            {"field": "x" * 100_000, "dim": 2},
            {"field": {"GF": int("1" * 4000)}, "dim": 2},
            {"field": "Q", "dim": 2, "omega": {"1,2": [0] * 50_000}},
        ]
    ):
        path = tmp_path / f"value{t}.json"
        path.write_text(json.dumps(table))
        cases.append((["check", str(path)], 3))
    s4 = tmp_path / "s4.json"
    catalog.save(catalog.builtin_algebra("omega.s4"), s4)
    for expr in (f"(b x1 {bad})", f"(b x1 x{digits})", f"({bad} x1 x2)"):
        cases.append((["identity", str(s4), "--expr", expr], 3))
    cases.append((["derive", str(s4), "--lambda", ",".join([bad] * 4)], 3))
    cases.append((["derive", str(s4), "--lambda", ",".join([bad] * 3)], 4))
    # a field tag past the digit limit, and one whose modulus is too large
    for tag in ("gf" + "1" * 100_000, "gf" + "1" * 4000):
        cases.append((["scan-structure", "--field", tag, "--dims", "4..4", "--count", "1"], 3))
        cases.append((["scan-dim3", "--field", tag, "--count", "1"], 3))
    return cases


def test_long_input_texts_give_short_messages(tmp_path):
    """Each error message quotes at most a bounded prefix of the input and
    its length, and the exit code is that of the error's kind."""
    for argv, want in _long_inputs(tmp_path):
        code, out, err = run_cli(["--format", "json", *argv])
        assert (code, out) == (want, ""), argv[:2]
        message = json.loads(err)["error"]["message"]
        assert 0 < len(message) < 200, message[:300]
        code, out, err = run_cli(argv)
        assert (code, out, err) == (want, "", f"error ({'input' if want == 3 else 'precondition'}): {message}\n")


def run_cli_process(args, **env_vars):
    """Run the console entry point in a fresh interpreter, so that an
    uncaught exception shows as a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(olie.__file__).parents[1]), **env_vars)
    proc = subprocess.run(
        [sys.executable, "-m", "olie.cli", *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("dims", ["4", "4..x", "a..b", "4..5..6"])
def test_scan_structure_bad_dims_is_parse_error(dims):
    code, _, err = run_cli_process(
        ["scan-structure", "--field", "gf5", "--dims", dims, "--count", "1"]
    )
    assert code == 3 and "Traceback" not in err
    assert "--dims" in err


@pytest.mark.parametrize(
    "tail",
    [
        # dims below 3 were scanned as dim-3 chains under the wrong label
        ["scan-structure", "--field", "gf5", "--dims", "0..2", "--count", "1"],
        ["scan-structure", "--field", "gf5", "--dims", "2..4", "--count", "1"],
        # no upper limit: 4..99 ran for minutes
        ["scan-structure", "--field", "gf5", "--dims", f"4..{SCAN_DIMS[-1] + 1}", "--count", "1"],
        ["scan-structure", "--field", "gf5", "--dims", "4..99", "--count", "1"],
        ["scan-structure", "--field", "gf5", "--dims", "5..4", "--count", "1"],
        ["scan-structure", "--field", "gf5", "--dims", "4..4", "--count", "-1"],
        ["scan-structure", "--field", "gf5", "--dims", "4..4", "--count", "0"],
        ["scan-dim3", "--field", "gf5", "--count", "-5"],
        ["scan-dim3", "--field", "gf5", "--count", str(SCAN_MAX_COUNT + 1)],
        # an unsupported characteristic exited 4 with kind "error"
        ["scan-dim3", "--field", "gf4", "--count", "1"],
        ["scan-structure", "--field", "gf6", "--dims", "4..4", "--count", "1"],
        ["scan-dim3", "--field", "gf", "--count", "1"],
    ],
)
def test_scan_arguments_out_of_range_are_input_errors(tail):
    code, out, err = run_cli(["--format", "json", *tail])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["kind"] == "input"


def test_scan_argument_limits_are_inclusive():
    lo = str(SCAN_DIMS[0])
    code, out, _ = run_cli(
        ["--format", "json", "scan-structure", "--field", "gf5", "--dims", f"{lo}..{lo}", "--count", "1"]
    )
    assert code in (0, 1) and json.loads(out)["dims"][lo]["count"] == 1
    code, out, _ = run_cli(["--format", "json", "scan-dim3", "--field", "gf7", "--count", "1"])
    assert code in (0, 1) and json.loads(out)["count"] == 1


@pytest.mark.parametrize("p", [4, 3, 1])
def test_unsupported_characteristic_in_a_file_is_input_error(tmp_path, p):
    bad = tmp_path / "gf.json"
    bad.write_text('{"field": {"GF": %d}, "dim": 2}' % p)
    code, out, err = run_cli(["--format", "json", "check", str(bad)])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["kind"] == "input"


# each drawn around its range: about half the values valid, half not
VALID_FIELD_TAGS = st.sampled_from(["gf5", "GF7", "q", "Q", " gf5 ", "gf11"])
FIELD_TAGS = VALID_FIELD_TAGS | st.sampled_from(
    ["gf4", "gf6", "gf2", "gf1", "gf0", "gf-5", "gf", "gfx", "r", ""]
)
VALID_COUNTS = st.sampled_from([1, 2])
SCAN_COUNTS = VALID_COUNTS | st.sampled_from([-5, -1, 0, SCAN_MAX_COUNT + 1, 10**12])
SEEDS = st.integers(-(10**6), 10**6) | st.sampled_from([2**64, -(2**64)])
DIM_ENDS = st.sampled_from(["3", "4", "5", " 4"]) | st.sampled_from(
    ["-1", "0", "2", str(SCAN_DIMS[-1] + 1), "99", "x", "", "4.5"]
)
VALID_SCALARS = st.sampled_from(["0", "1", "-2", "1/2", "-3/4", "5/5", " 1"])
SCALAR_TEXT = VALID_SCALARS | st.sampled_from(["1/0", "0/0", "x", "", "1e3", "--1", "1/-2"])


@st.composite
def scan_dims(draw, in_range):
    """``--dims`` text around ``a..b``: every range it draws that the
    parser accepts ends at dimension 5 or below."""
    if in_range:
        lo, hi = sorted(draw(st.lists(st.integers(3, 5), min_size=2, max_size=2)))
        return f"{lo}..{hi}"
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=6))
    sep = draw(st.just("..") | st.sampled_from([".", "...", "-"]))
    return draw(DIM_ENDS) + sep + draw(DIM_ENDS)


@st.composite
def identity_names(draw):
    name = draw(st.sampled_from([*builtin_names(), "", "nope", "Two-Basic"]))
    if draw(st.booleans()):
        params = st.sampled_from(["1", "-2", "0", "x", "", "1.5", " 3"])
        name += ":" + ",".join(draw(st.lists(params, max_size=4)))
    return name


@st.composite
def command_lines(draw, files):
    """One ``olie`` command line with its values drawn around the
    ``--lambda``, ``--dims``, ``--count``, ``--seed``, ``--field`` and
    ``--name`` parameters.  Option values go in as ``--opt=value`` so a
    drawn value that starts with ``-`` is not read as an option.  Scans
    the parser accepts have count <= 2 and dims <= 5, and ``--workers``
    is at most 2."""
    lam = draw(
        st.lists(VALID_SCALARS, min_size=3, max_size=4).map(",".join)
        | st.lists(SCALAR_TEXT, max_size=5).map(",".join)
        | st.text(max_size=6)
    )
    command = draw(
        st.sampled_from(
            ["scan-dim3", "scan-structure", "derive", "h2", "extend", "identity",
             "cohomology-selftest", "catalog"]
        )
    )
    if command in ("scan-dim3", "scan-structure"):
        # half the scans are in range, so the drawn seeds reach the scan
        in_range = draw(st.booleans())
        field = draw(VALID_FIELD_TAGS if in_range else FIELD_TAGS)
        count = draw(VALID_COUNTS if in_range else SCAN_COUNTS)
        argv = [command, f"--field={field}", f"--count={count}"]
        if command == "scan-structure":
            argv.append(f"--dims={draw(scan_dims(in_range))}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(SEEDS)}")
        workers = draw(st.sampled_from([None, -1, 0, 1, 2]))
        return argv if workers is None else [f"--workers={workers}", *argv]
    path = files[draw(st.sampled_from(sorted(files)))]
    if command in ("derive", "h2"):
        return [command, path, f"--lambda={lam}"]
    if command == "extend":
        return [
            command, files["n3"], f"--derivation={files['der']}", f"--lambda={lam}",
            f"-o={files['out']}",
        ]
    if command == "identity":
        return [command, path, f"--name={draw(identity_names())}"]
    if command == "cohomology-selftest":
        count = draw(st.sampled_from([-3, 0, 1, 2]))
        return [command, path, f"--seed={draw(SEEDS)}", f"--count={count}"]
    name = draw(st.sampled_from([*catalog.catalog_names(), "", "nope", "omega"]))
    return ["catalog", "show", name]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Algebra files, a zero derivation of omega.n3 (no lambda, so
    ``--lambda`` decides) and an output path; any of them may be drawn
    as a command's input file."""
    tmp = tmp_path_factory.mktemp("fuzz-cli")
    files = {}
    for key, alg in (
        ("s4", catalog.builtin_algebra("omega.s4")),
        ("s4-gf5", catalog.builtin_algebra("omega.s4", GF(5))),
        ("sl2", catalog.builtin_algebra("lie.sl2")),
        ("n3", catalog.builtin_algebra("omega.n3")),
    ):
        files[key] = str(tmp / f"{key}.json")
        catalog.save(alg, files[key])
    files["der"] = str(tmp / "zero-der.json")
    Path(files["der"]).write_text(json.dumps({"D": [["0"] * 3] * 3, "alpha": ["0"] * 3}))
    files["out"] = str(tmp / "out.json")
    return files


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_get_a_documented_exit_code(cli_files, data):
    argv = data.draw(command_lines(cli_files))
    code, _, err = run_cli(["--format", "json", *argv])
    event(f"{next(a for a in argv if not a.startswith('-'))} exit {code}")
    assert code in (0, 1, 3, 4), (argv, err)
    if code in (3, 4):
        assert json.loads(err)["error"]["kind"] in ("input", "precondition", "io")


def test_identity_empty_name_is_input_error(s4_file):
    # an empty --name fell through to the --expr branch and raised a TypeError
    code, out, err = run_cli_process(["identity", s4_file, "--name", ""])
    assert code == 3 and "Traceback" not in err and out == ""


def test_identity_bad_parameters_is_parse_error(s4_file):
    code, _, err = run_cli_process(["identity", s4_file, "--name", "abg:1,x"])
    assert code == 3 and "Traceback" not in err


def test_identity_parameters_to_parameterless_builtin_is_parse_error(s4_file):
    code, out, err = run_cli_process(["identity", s4_file, "--name", "two-basic:1"])
    assert code == 3 and "Traceback" not in err and out == ""
    assert "two-basic" in err


def test_identity_too_many_parameters_is_parse_error(s4_file):
    code, out, err = run_cli_process(["identity", s4_file, "--name", "abg:1,2,3,4"])
    assert code == 3 and "Traceback" not in err and out == ""
    assert "at most 3" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"field": "Q", "dim": 2, "dim": 3}',
        '{"field": "Q", "dim": 3, "bracket": {"1,2": {"3": "1", "3": "2"}}}',
        '{"field": "Q", "dim": 3, "omega": {"1,2": "1", "1,2": "2"}}',
    ],
)
def test_duplicate_json_key_is_schema_error(tmp_path, text):
    bad = tmp_path / "dup.json"
    bad.write_text(text)
    code, out, err = run_cli_process(["info", str(bad)])
    assert code == 3 and "Traceback" not in err and out == ""
    assert "duplicate key" in err
    with pytest.raises(SchemaError):
        catalog.loads(text)


@pytest.mark.parametrize("scalar", ["1.5", "true", "null"])
def test_non_text_scalar_in_file_is_schema_error(tmp_path, scalar):
    for key in ("bracket", "omega"):
        bad = tmp_path / f"{key}.json"
        table = '{"1": %s}' % scalar if key == "bracket" else scalar
        bad.write_text('{"field": "Q", "dim": 3, "%s": {"1,2": %s}}' % (key, table))
        code, _, err = run_cli_process(["check", str(bad)])
        assert code == 3 and "Traceback" not in err
        with pytest.raises(SchemaError):
            catalog.loads(bad.read_text())


@pytest.mark.parametrize("text", ["1e999999999", "1.5", "1_000", "3/-4", "0x10", "inf"])
def test_q_scalar_text_other_than_a_or_a_over_b_is_parse_error(tmp_path, text):
    # "1e999999999" once built an integer of about 415 MB before any check
    bad = tmp_path / "scalar.json"
    bad.write_text('{"field": "Q", "dim": 3, "omega": {"1,2": "%s"}}' % text)
    for argv in (["check", str(bad)], ["h2", str(bad), "--lambda", f"{text},0,0"]):
        code, out, err = run_cli(["--format", "json", *argv])
        assert (code, out) == (3, "")
        assert "expected a or a/b" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("text", ["1_0", "\u0663", "1/ 2"])
def test_gf_scalar_text_other_than_a_or_a_over_b_is_parse_error(tmp_path, text):
    # int() reads all three; the rational text pattern reads none
    bad, good = tmp_path / "scalar.json", tmp_path / "good.json"
    bad.write_text('{"field": {"GF": 5}, "dim": 3, "omega": {"1,2": "%s"}}' % text, encoding="utf-8")
    good.write_text('{"field": {"GF": 5}, "dim": 3}')
    for argv in (["check", str(bad)], ["h2", str(good), "--lambda", f"{text},0,0"]):
        code, out, err = run_cli(["--format", "json", *argv])
        assert (code, out) == (3, "")
        assert "expected a or a/b" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("dim", ["true", "false", "2.0", "-1", '"3"'])
def test_bad_dim_is_schema_error(tmp_path, dim):
    bad = tmp_path / "dim.json"
    bad.write_text('{"field": "Q", "dim": %s}' % dim)
    code, out, err = run_cli_process(["info", str(bad)])
    assert code == 3 and "Traceback" not in err and out == ""
    assert "'dim'" in err
    with pytest.raises(SchemaError):
        catalog.loads(bad.read_text())


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"field": "Q", "dim": 2, "bracket": [1]}', "'bracket'"),
        ('{"field": "Q", "dim": 2, "omega": "x"}', "'omega'"),
    ],
)
def test_non_object_table_is_schema_error(tmp_path, text, key):
    bad = tmp_path / "table.json"
    bad.write_text(text)
    code, out, err = run_cli_process(["info", str(bad)])
    assert code == 3 and "Traceback" not in err and out == ""
    assert key in err
    with pytest.raises(SchemaError):
        catalog.loads(text)


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(["Q", "0", "1", "-1/2", "1/0", "x", "1,2", "2,3", "3"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "2", "1,2", "1,3", "2,3", "GF", "a"]), inner, max_size=3),
    max_leaves=6,
)
PAIR_KEYS = st.sampled_from(["1,2", "1,3", "2,3", "3,4", "2,1", "0,1", "a"])
INDEX_KEYS = st.sampled_from(["1", "2", "3", "4", "0", "x"])
FILE_SCALARS = st.sampled_from(["1", "-2", "1/2", "0", "1/0", "x"]) | JSON_LEAVES


@st.composite
def algebra_files(draw):
    """The data of an algebra file: a table drawn around the schema, with
    one key replaced by an arbitrary JSON value or dropped, or a stray
    key added, or the whole file an arbitrary value."""
    obj = {
        "field": draw(st.sampled_from(["Q", {"GF": 5}, {"GF": 7}])),
        "dim": draw(st.integers(0, 5)),
        "bracket": draw(st.dictionaries(PAIR_KEYS, st.dictionaries(INDEX_KEYS, FILE_SCALARS))),
        "omega": draw(st.dictionaries(PAIR_KEYS, FILE_SCALARS)),
    }
    key = draw(st.sampled_from(["bracket", "omega", "field", "dim", "stray", "file", None]))
    if key == "file":
        return draw(JSON_VALUES)
    if key == "stray":
        obj[draw(st.sampled_from(["x", "alpha"]))] = draw(JSON_VALUES)
    elif key is not None and draw(st.integers(0, 3)):
        obj[key] = draw(JSON_VALUES)
    elif key is not None:
        del obj[key]
    return obj


@settings(max_examples=150, deadline=None)
@given(obj=algebra_files())
def test_fuzzed_algebra_file_gets_a_documented_exit_code(obj):
    text = json.dumps(obj)
    try:
        catalog.loads(text)
        want = (0, 1)
    except OlieError:
        want = (3, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "alg.json"
        path.write_text(text)
        code, _, err = run_cli(["check", str(path)])
    assert code in want, (text, err)


def test_non_integer_olie_workers_is_parse_error():
    tail = ["scan-dim3", "--field", "gf5", "--count", "2"]
    code, out, err = run_cli_process(tail, OLIE_WORKERS="two")
    assert code == 3 and "Traceback" not in err and out == ""
    assert "OLIE_WORKERS" in err
    # an explicit --workers never reads the variable
    code, _, err = run_cli_process(["--workers", "1", *tail], OLIE_WORKERS="two")
    assert code == 0 and "Traceback" not in err
    code, _, _ = run_cli_process(tail, OLIE_WORKERS="1")
    assert code == 0


def test_olie_workers_is_read_at_call_time(monkeypatch):
    tail = ["--format", "json", "scan-dim3", "--field", "gf5", "--count", "2"]
    code, want, _ = run_cli(tail)
    assert code == 0
    # the parser is built once per process, so a default fixed when it
    # was built would ignore the variable set now
    monkeypatch.setenv("OLIE_WORKERS", "x")
    code, out, err = run_cli(tail)
    assert code == 3 and out == "" and "OLIE_WORKERS" in err
    monkeypatch.setenv("OLIE_WORKERS", "1")
    assert run_cli(tail)[:2] == (0, want)


def test_gf_scalar_with_vanishing_denominator_is_parse_error(tmp_path):
    bad = tmp_path / "gf5.json"
    bad.write_text('{"field": {"GF": 5}, "dim": 3, "bracket": {"1,2": {"3": "1/5"}}}')
    code, _, err = run_cli_process(["check", str(bad)])
    assert code == 3 and "Traceback" not in err
    with pytest.raises(ParseError):
        GF(5).parse("1/5")


def test_json_error_payload(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["--format", "json", "check", str(bad)])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["kind"] == "input"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "olie.cli", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "lie.sl2" in proc.stdout


def test_identical_invocations_byte_identical(s4_file):
    args = ["--format", "json", "info", s4_file]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


N3_TO_S4 = {
    "D": [["0", "0", "-1"], ["1", "0", "0"], ["0", "0", "0"]],
    "alpha": ["0", "2", "0"],
    "lambda": ["2", "0", "0"],
}


@pytest.mark.parametrize(
    "text, want",
    [
        ("[]", 3),
        ('{"D": [["0", "0", "-1"], ["1", 1.5, "0"], ["0", "0", "0"]]}', 3),
        ('{"D": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], "alpha": [true, 0, 0]}', 3),
        ('{"D": "ab"}', 3),
        ('{"D": ["abc", "def", "ghi"]}', 3),
        ('{"D": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], "alpha": "000"}', 3),
        ('{"D": [["0", "0"], ["0", "0"]]}', 4),
    ],
)
def test_malformed_derivation_file(tmp_path, text, want):
    base = tmp_path / "n3.json"
    catalog.save(catalog.builtin_algebra("omega.n3"), base)
    der = tmp_path / "der.json"
    der.write_text(text)
    out_path = tmp_path / "out.json"
    code, out, err = run_cli_process(
        ["extend", str(base), "--derivation", str(der), "-o", str(out_path)]
    )
    assert code == want and "Traceback" not in err and out == ""
    assert not out_path.exists()


DER_SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2", "1/0", "x"]) | JSON_LEAVES


@st.composite
def derivation_files(draw):
    """The data of a derivation file for a dimension-3 base: the file
    that extends omega.n3 to omega.s4, or lists drawn around the schema
    (mostly of the right sizes), with one key replaced by an arbitrary
    JSON value or dropped, or a stray key added, or the whole file an
    arbitrary value."""
    sizes = st.sampled_from([3, 3, 3, 2, 4])
    if draw(st.booleans()):
        obj = dict(N3_TO_S4)
    else:
        def row():
            size = draw(sizes)
            return draw(st.lists(DER_SCALARS, min_size=size, max_size=size))

        obj = {"D": [row() for _ in range(draw(sizes))], "alpha": row(), "lambda": row()}
    key = draw(st.sampled_from([None, None, "D", "alpha", "lambda", "stray", "file"]))
    if key == "file":
        return draw(JSON_VALUES)
    if key == "stray":
        obj[draw(st.sampled_from(["x", "alfa", "GF"]))] = draw(JSON_VALUES)
    elif key is not None and draw(st.integers(0, 3)):
        obj[key] = draw(JSON_VALUES)
    elif key is not None:
        del obj[key]
    return obj


@settings(max_examples=150, deadline=None)
@given(obj=derivation_files(), field=st.sampled_from([QQ, GF(5)]))
def test_fuzzed_derivation_file_gets_a_documented_exit_code(obj, field):
    base = catalog.builtin_algebra("omega.n3").with_field(field)
    text = json.dumps(obj)
    try:
        AlphaLambdaDerivation.from_json_dict(field, json.loads(text), base.dim)
        want = (0, 4)
    except InputError:
        want = (3,)
    except OlieError:
        want = (4,)  # well formed, of the wrong size
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        catalog.save(base, tmp / "base.json")
        (tmp / "der.json").write_text(text)
        out_path = tmp / "out.json"
        argv = ["extend", str(tmp / "base.json"), "--derivation", str(tmp / "der.json")]
        code, _, err = run_cli([*argv, "-o", str(out_path)])
        event(f"exit {code}")
        assert code in want, (text, err)
        assert out_path.exists() == (code == 0), (text, err)


def test_unknown_key_in_derivation_file_is_schema_error(tmp_path):
    # the misspelt "alfa" was read as a zero alpha, and the all-zero data
    # are a derivation of the abelian base, so a wrong extension was written
    base = tmp_path / "abelian.json"
    base.write_text('{"field": "Q", "dim": 2}')
    der = tmp_path / "der.json"
    der.write_text('{"D": [["0", "0"], ["0", "0"]], "alfa": ["1", "0"]}')
    out_path = tmp_path / "out.json"
    code, out, err = run_cli_process(
        ["extend", str(base), "--derivation", str(der), "-o", str(out_path)]
    )
    assert code == 3 and "Traceback" not in err and out == ""
    assert "alfa" in err
    assert not out_path.exists()


@pytest.mark.parametrize("dim", [catalog.MAX_DIM + 1, 10**8])
def test_dim_above_the_limit_is_schema_error(tmp_path, dim):
    bad = tmp_path / "big.json"
    bad.write_text('{"field": "Q", "dim": %d}' % dim)
    code, out, err = run_cli_process(["check", str(bad)])
    assert code == 3 and "Traceback" not in err and out == ""
    assert str(catalog.MAX_DIM) in err
    assert catalog.loads('{"field": "Q", "dim": %d}' % catalog.MAX_DIM).dim == catalog.MAX_DIM


@pytest.fixture
def certifications(monkeypatch):
    """The algebras ``_first_violation`` runs on while the test runs."""
    calls = []
    original = olie.AnticommAlgebra._first_violation

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(olie.AnticommAlgebra, "_first_violation", counted)
    return calls


def test_each_command_certifies_its_file_once(tmp_path, s4_file, sl2_file, certifications):
    n3 = tmp_path / "n3.json"
    catalog.save(catalog.builtin_algebra("omega.n3"), n3)
    der = tmp_path / "der.json"
    der.write_text(json.dumps(N3_TO_S4))
    chain = tmp_path / "chain.json"
    catalog.save(catalog.random_extension_chain(GF(5), 0, 5), chain)
    commands = [
        ["check", s4_file],
        ["info", s4_file],
        ["extend", str(n3), "--derivation", str(der), "-o", str(tmp_path / "ext.json")],
        ["classify", s4_file],
        ["classify", str(chain)],
        ["deform", sl2_file],
        ["cohomology-selftest", s4_file],
    ]
    for argv in commands:
        certifications.clear()
        code, _, err = run_cli(argv)
        assert code == 0, err
        assert len(certifications) == 1, argv
