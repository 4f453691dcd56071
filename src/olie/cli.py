"""Deterministic command-line front end.

Exit codes: 0 success (valid / holds / all scans pass), 1 a checked
property fails (invalid file, identity counterexample, scan failure),
2 usage errors, 3 parse or schema errors, 4 precondition failures.
With ``--format json`` results and errors are machine-readable JSON on
stdout and stderr respectively.  Scans accept ``--workers`` (default
from OLIE_WORKERS); results are merged in seed order, so the worker
count never changes the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import catalog
from .algebra import Violation
from .derivations import AlphaLambdaDerivation, al_derivation_space
from .errors import InputError, OlieError, ParseError, PreconditionError
from .extensions import (
    Cochain,
    cochain_differential,
    extend_codim1,
    h2_dimension,
    infinitesimal_deformations,
)
from .fields import field_from_tag
from .identities import (
    builtin,
    builtin_names,
    builtin_parameters,
    find_counterexample,
    parse_identity,
)
from .structure import alpha_vanishing_scan, classify


def _fmt_vec(field, v):
    return [field.format(x) for x in v]


def _fmt_sub(field, sub):
    return [_fmt_vec(field, list(r)) for r in sub.rows]


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_lambda(field, text, dim):
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != dim:
        raise PreconditionError(f"lambda needs {dim} entries, got {len(parts)}")
    return [field.parse(p) for p in parts]


def _load_valid(path, message):
    """The file's algebra, certified once; a violation of the law is a
    precondition error with ``message``."""
    alg = catalog.load(path).validate()
    if isinstance(alg, Violation):
        raise PreconditionError(message)
    return alg


# -- commands ----------------------------------------------------------------


def cmd_check(args):
    alg = catalog.load(args.file)
    result = alg.validate()
    if isinstance(result, Violation):
        i, j, k = result.triple
        payload = {
            "valid": False,
            "triple": [i + 1, j + 1, k + 1],
            "residual": _fmt_vec(alg.field, result.residual),
        }
        _emit(
            args,
            payload,
            [
                f"INVALID at basis triple ({i + 1},{j + 1},{k + 1}); "
                f"residual {_fmt_vec(alg.field, result.residual)}"
            ],
        )
        return 1
    _emit(args, {"valid": True}, ["valid"])
    return 0


def cmd_info(args):
    alg = catalog.load(args.file)
    field = alg.field
    ker = alg.omega_kernel()
    lam_set = alg.multiplicative_lambda()
    dec = alg.almost_abelian_decomposition()
    payload = {
        "dim": alg.dim,
        "field": field.tag,
        "valid": alg.is_valid(),
        "is_lie": alg.is_lie(),
        "omega_rank": alg.omega_rank(),
        "omega_kernel": _fmt_sub(field, ker),
        "commutant": _fmt_sub(field, alg.commutant()),
        "multiplicative": lam_set is not None,
        "lambda_particular": None if lam_set is None else _fmt_vec(field, lam_set.particular),
        "lambda_freedom": None if lam_set is None else lam_set.dim,
        "almost_abelian": dec.kind,
    }
    lines = [
        f"dim {alg.dim} over {field.tag}",
        f"valid: {payload['valid']}",
        f"lie: {payload['is_lie']}",
        f"rank of form: {payload['omega_rank']}",
        f"kernel of form: {payload['omega_kernel']}",
        f"commutant: {payload['commutant']}",
        (
            f"multiplicative: lambda = {payload['lambda_particular']} "
            f"(+ {payload['lambda_freedom']}-dim freedom)"
            if lam_set is not None
            else "multiplicative: no"
        ),
        f"almost abelian shape: {dec.kind}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_derive(args):
    alg = catalog.load(args.file)
    field = alg.field
    if args.solve_lambda:
        lam_set = alg.multiplicative_lambda()
        if lam_set is None:
            raise PreconditionError("the algebra is not multiplicative")
        lams = lam_set.points()
    else:
        lams = [_parse_lambda(field, args.lam, alg.dim)]
    blocks = []
    lines = []
    for lam in lams:
        basis = al_derivation_space(alg, lam)
        encoded = [d.to_json_dict(field) for d in basis]
        blocks.append(
            {
                "lambda": _fmt_vec(field, lam),
                "dimension": len(basis),
                "basis": encoded,
            }
        )
        lines.append(f"lambda = {_fmt_vec(field, lam)}: solution dimension {len(basis)}")
        for t, d in enumerate(encoded):
            lines.append(f"  [{t}] D rows {d['D']} alpha {d['alpha']}")
    _emit(args, {"spaces": blocks}, lines)
    return 0


def cmd_extend(args):
    alg = _load_valid(args.file, "the base algebra is not valid")
    field = alg.field
    with open(args.derivation, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # bad JSON, or a number past the digit limit
            raise InputError(f"bad derivation file: {exc}") from None
    der = AlphaLambdaDerivation.from_json_dict(field, obj, alg.dim)
    lam = der.lam
    if args.lam is not None:
        lam = _parse_lambda(field, args.lam, alg.dim)
        if "lambda" in obj and lam != der.lam:
            raise PreconditionError("--lambda disagrees with the derivation file")
    out = extend_codim1(alg, lam, der.matrix, der.alpha)
    catalog.save(out, args.output)
    _emit(
        args,
        {"written": args.output, "dim": out.dim},
        [f"wrote dim-{out.dim} extension to {args.output}"],
    )
    return 0


def cmd_classify(args):
    alg = _load_valid(args.file, "classification needs a valid algebra")
    verdict = classify(alg)
    payload = verdict.to_json_dict(alg.field)
    lines = [f"case: {verdict.case}"]
    if verdict.kernel_type:
        lines.append(f"kernel type: {verdict.kernel_type}")
        lines.append(f"nilpotent action: {verdict.nilpotent_action}")
    if verdict.witness is not None:
        lines.append(f"witness: {_fmt_sub(alg.field, verdict.witness)}")
    if verdict.abelian_small_codim is not None:
        lines.append(
            f"abelian subalgebra (codim {verdict.abelian_small_codim.codim}): "
            f"{_fmt_sub(alg.field, verdict.abelian_small_codim)}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_identity(args):
    alg = catalog.load(args.file)
    if args.name is not None:
        name = args.name
        params = {}
        if ":" in name:
            name, raw = name.split(":", 1)
            try:
                vals = [int(v) for v in raw.split(",")]
            except ValueError:
                raise ParseError(f"bad identity parameters {raw!r} (expected integers)") from None
            keys = builtin_parameters(name)
            if len(vals) > len(keys):
                raise ParseError(
                    f"identity {name!r} takes at most {len(keys)} parameter(s), got {len(vals)}"
                )
            params = dict(zip(keys, vals))
        ident = builtin(name, **params)
    else:
        ident = parse_identity(args.expr, name="expr")
    ce = find_counterexample(alg, ident)
    if ce is None:
        _emit(args, {"identity": ident.name, "holds": True}, [f"{ident.name}: holds"])
        return 0
    payload = {
        "identity": ident.name,
        "holds": False,
        "counterexample": [i + 1 for i in ce],
    }
    _emit(
        args,
        payload,
        [f"{ident.name}: fails at basis tuple {tuple(i + 1 for i in ce)}"],
    )
    return 1


def cmd_h2(args):
    alg = catalog.load(args.file)
    field = alg.field
    lam = _parse_lambda(field, args.lam, alg.dim)
    value = h2_dimension(alg, lam)
    _emit(args, {"h2": value}, [f"h2 dimension: {value}"])
    return 0


def cmd_deform(args):
    alg = _load_valid(args.file, "the algebra is not valid")
    space = infinitesimal_deformations(alg)
    payload = {
        "dimension": len(space.basis),
        "omega1_projection_dim": space.omega1_projection_dim,
        "has_nontrivial_omega1": space.has_nontrivial_omega1,
    }
    _emit(
        args,
        payload,
        [
            f"deformation direction space: dimension {len(space.basis)}",
            f"projection onto the form part: dimension {space.omega1_projection_dim}",
            f"nontrivial form directions: {space.has_nontrivial_omega1}",
        ],
    )
    return 0


def cmd_cohomology_selftest(args):
    alg = _load_valid(args.file, "the algebra is not valid")
    field, n = alg.field, alg.dim
    lam_set = alg.multiplicative_lambda()
    if lam_set is None:
        _emit(args, {"checked": 0, "ok": True}, ["not multiplicative; nothing to check"])
        return 0
    import random as _random

    rng = _random.Random(f"selftest/{args.seed}")
    checked = 0
    # only the square landing in degree 3 vanishes in general for non-Lie
    # instances; that is the composite second cohomology rests on
    for lam in lam_set.points():
        for _ in range(args.count):
            data1 = {(i,): rng.randint(-3, 3) for i in range(n)}
            c1 = Cochain.from_values(field, n, 1, data1)
            dd = cochain_differential(alg, lam, cochain_differential(alg, lam, c1))
            if dd.data:
                _emit(args, {"ok": False}, ["square of the differential is NOT zero"])
                return 1
            checked += 1
    _emit(
        args,
        {"checked": checked, "ok": True},
        [f"square of the differential vanished on {checked} random 1-cochains"],
    )
    return 0


# -- scans --------------------------------------------------------------------

# chains grow from a random dimension-3 instance, and the cost of one chain
# grows with its dimension (about 0.1 s to build and check a dim-12 chain
# over GF(5) on a 2-core Xeon host, Python 3.11), so a structure scan takes
# dimensions 3..12 only
SCAN_DIMS = range(3, 13)
# instances a scan may ask for; scan-dim3 lists its seeds up front
SCAN_MAX_COUNT = 100_000


def _scan_dim3_one(field_tag, seed):
    field = field_from_tag(field_tag)
    alg = catalog.random_dim3(field, seed)
    if alg.is_lie():
        return {"seed": seed, "lie": True, "alpha_ok": True, "rank_ok": True}
    alpha_ok = alpha_vanishing_scan(alg)
    rank_ok = True
    lam_set = alg.multiplicative_lambda()
    if lam_set is not None:
        for lam in lam_set.points():
            for der in al_derivation_space(alg, lam):
                ext = extend_codim1(alg, lam, der.matrix, der.alpha)
                if ext.omega_rank() > 2:
                    rank_ok = False
    return {"seed": seed, "lie": False, "alpha_ok": alpha_ok, "rank_ok": rank_ok}


def _pool_map(func, items, workers):
    """``func`` on each argument tuple of ``items``, in order, in at most
    ``workers`` processes, never more than the CPU count or the items."""
    workers = min(workers, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [func(*item) for item in items]
    from multiprocessing import Pool

    with Pool(workers) as pool:
        return pool.starmap(func, items, chunksize=8)


def cmd_scan_dim3(args):
    _check_scan_args(args)
    items = [(args.field, args.seed + t) for t in range(args.count)]
    results = _pool_map(_scan_dim3_one, items, args.workers)
    non_lie = [r for r in results if not r["lie"]]
    bad = [r for r in non_lie if not (r["alpha_ok"] and r["rank_ok"])]
    payload = {
        "count": args.count,
        "lie_skipped": args.count - len(non_lie),
        "checked": len(non_lie),
        "failures": [r["seed"] for r in bad],
    }
    _emit(
        args,
        payload,
        [
            f"{len(non_lie) - len(bad)}/{len(non_lie)} alpha-vanishing "
            f"({payload['lie_skipped']} Lie skipped)"
        ],
    )
    return 0 if not bad else 1


def _scan_structure_one(field_tag, seed, dim):
    field = field_from_tag(field_tag)
    result = catalog.random_extension_chain(field, seed, dim)
    if isinstance(result, catalog.Stuck):
        return {"seed": seed, "stuck": result.reason}
    alg = result
    out = {"seed": seed, "stuck": None, "dim": alg.dim, "lie": alg.is_lie()}
    verdict = classify(alg)
    out["case"] = verdict.case
    if out["lie"]:
        return out
    out["verdict_ok"] = verdict.case in (
        "codim_one_lie_subalgebra",
        "kernel_codim_two",
    )
    sub = verdict.abelian_small_codim
    out["witness_ok"] = sub is not None and sub.codim <= 3 and alg.is_abelian_subspace(sub)
    if alg.dim >= 5:
        ideal = alg.find_abelian_ideal()
        # an ideal was found, so the algebra is not simple: "simple" needs
        # M(L) = End(L) or a complete spin, and either excludes the ideal
        out["not_simple_ok"] = ideal is not None or alg.simplicity().kind != "simple"
        out["abelian_ideal_ok"] = ideal is not None
    return out


def _parse_dims(text):
    """An inclusive range ``a..b`` of dimensions inside ``SCAN_DIMS``."""
    try:
        lo, hi = text.split("..")
        dims = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ParseError(f"bad --dims {text!r} (expected a..b, e.g. 4..6)") from None
    if not dims or dims[0] < SCAN_DIMS[0] or dims[-1] > SCAN_DIMS[-1]:
        raise ParseError(
            f"bad --dims {text!r} (expected a..b with "
            f"{SCAN_DIMS[0]} <= a <= b <= {SCAN_DIMS[-1]})"
        )
    return dims


def _check_scan_args(args):
    """Reject a scan's field tag and count before any work starts."""
    field_from_tag(args.field)
    if not 1 <= args.count <= SCAN_MAX_COUNT:
        raise ParseError(f"bad --count {args.count} (expected 1..{SCAN_MAX_COUNT})")


def cmd_scan_structure(args):
    _check_scan_args(args)
    dims = _parse_dims(args.dims)
    all_results = {}
    failures = []
    for dim in dims:
        gathered = []
        attempt = 0
        while len(gathered) < args.count and attempt < 50 * args.count:
            batch = [
                (args.field, args.seed + attempt + t, dim)
                for t in range(min(args.count - len(gathered), 64))
            ]
            attempt += len(batch)
            for r in _pool_map(_scan_structure_one, batch, args.workers):
                if r.get("stuck") is None:
                    gathered.append(r)
                if len(gathered) == args.count:
                    break
        all_results[dim] = gathered
        for r in gathered:
            if r["lie"]:
                continue
            checks = [
                r["verdict_ok"],
                r["witness_ok"],
                r.get("not_simple_ok", True),
                r.get("abelian_ideal_ok", True),
            ]
            if not all(checks):
                failures.append({"dim": dim, "seed": r["seed"], "result": r})
    payload = {
        "dims": {
            str(d): {
                "count": len(rs),
                "non_lie": sum(1 for r in rs if not r["lie"]),
                "cases": {
                    c: sum(1 for r in rs if r.get("case") == c)
                    for c in sorted({r.get("case") for r in rs if r.get("case")})
                },
            }
            for d, rs in all_results.items()
        },
        "results": {str(d): rs for d, rs in all_results.items()},
        "failures": failures,
    }
    lines = []
    for d, rs in all_results.items():
        cases = payload["dims"][str(d)]["cases"]
        lines.append(f"dim {d}: {len(rs)} instances, cases {cases}")
    lines.append(f"failures: {len(failures)}")
    _emit(args, payload, lines)
    return 0 if not failures else 1


def cmd_catalog(args):
    if args.action == "list":
        payload = [
            {
                "name": name,
                "valid": catalog.catalog_entry(name).valid,
                "description": catalog.catalog_entry(name).description,
            }
            for name in catalog.catalog_names()
        ]
        _emit(
            args,
            payload,
            [
                f"{p['name']:14s} valid={str(p['valid']).lower():5s} {p['description']}"
                for p in payload
            ],
        )
        return 0
    alg = catalog.builtin_algebra(args.name)
    if args.output:
        catalog.save(alg, args.output)
        _emit(args, {"written": args.output}, [f"wrote {args.name} to {args.output}"])
        return 0
    print(catalog.dumps(alg), end="")
    return 0


# -- entry point ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="olie",
        description="exact computations with two-form Lie-like algebras",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for scans (default: OLIE_WORKERS, else 1; "
        "at most the CPU count; output is worker-count independent)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("file")

    p = sub.add_parser("info", help="basic invariants of an algebra file")
    p.add_argument("file")

    p = sub.add_parser("derive", help="derivation space for a fixed lambda")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", help="comma-separated covector")
    group.add_argument("--solve-lambda", action="store_true")

    p = sub.add_parser("extend", help="codimension-1 extension")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--derivation", required=True, help="derivation JSON file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("classify", help="structural verdict")
    p.add_argument("file")

    p = sub.add_parser("identity", help="check an identity on an algebra")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", help=f"one of: {', '.join(builtin_names())}")
    group.add_argument("--expr", help="s-expression term")

    p = sub.add_parser("h2", help="second cohomology dimension")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("deform", help="first-order deformation directions")
    p.add_argument("file")

    p = sub.add_parser("cohomology-selftest", help="square-of-differential checks")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)

    p = sub.add_parser("scan-dim3", help="alpha-vanishing scan over random dim-3 instances")
    p.add_argument("--field", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan-structure", help="classification scan over extension chains")
    p.add_argument("--field", required=True)
    p.add_argument("--dims", default="4..6", help="inclusive range, e.g. 4..6")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("catalog", help="named instances")
    psub = p.add_subparsers(dest="action", required=True)
    psub.add_parser("list")
    ps = psub.add_parser("show")
    ps.add_argument("name")
    ps.add_argument("-o", "--output")

    return parser


@cache
def _parser():
    return build_parser()


def _default_workers():
    text = os.environ.get("OLIE_WORKERS", "1")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad OLIE_WORKERS {text!r} (expected an integer)") from None


def main(argv=None):
    args = _parser().parse_args(argv)
    # the parser is built once per process, so the command function is
    # looked up by name when it runs, not bound when the parser was built:
    # a rebinding of ``cmd_<command>`` takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.workers is None:
            args.workers = _default_workers()
        return command(args)
    except InputError as exc:
        _error(args, exc, kind="input")
        return 3
    except PreconditionError as exc:
        _error(args, exc, kind="precondition")
        return 4
    except OlieError as exc:
        _error(args, exc, kind="error")
        return 4
    except OSError as exc:
        _error(args, exc, kind="io")
        return 3


def _error(args, exc, kind):
    if getattr(args, "format", "text") == "json":
        print(
            json.dumps({"error": {"kind": kind, "message": str(exc)}}),
            file=sys.stderr,
        )
    else:
        print(f"error ({kind}): {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
