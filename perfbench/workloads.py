"""The three benchmark workloads: inputs from a seed, op lists, op checks.

An op is one ``olie`` command run in-process through ``olie.cli.main``
(argv list, stdout captured) or one public library call.  Each workload
builds a fixed op list from its seed; a run cycles through that list in
a closed loop with one caller, so a faster program completes more passes
over the same ops.  Library functions are always reached through their
module (``catalog.random_extension_chain``), never bound here by name, so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("scan-gf5", "query-q", "identities")

# the seed whose outputs are recorded in reference.json
REFERENCE_SEED = 0

# op-list sizes: large enough that the mix of inputs, not the seed,
# sets the average cost of a pass
# scan-gf5: 300 chains each of dims 4, 5 and 6, more than a run usually
# completes, so that a run samples as many distinct chains as it can
SCAN_OPS = 900
QUERY_ROUNDS = 48  # query-q: a chain file and a form table a round, a Lie file every fourth
IDENTITY_FILES = 120  # identities: half over GF(5), half over Q
# identities: dims of the files, in turn; with twice as many dim-5 files
# (which also get degree5) the six kinds of op make 10, 20, 10, 20, 20 and
# 20 % of the ops, so the median and p90 fall inside a kind, not between two
IDENTITY_DIMS = (4, 5, 5)

# ops of the traced run: a fixed prefix of the op list, so that counts repeat
TRACE_OPS = {"scan-gf5": 60, "query-q": 24, "identities": 32}


@dataclass
class Op:
    kind: str  # the command name, or "omega_space" for the library call
    argv: list = field(default_factory=list)
    payload: object = None  # expected values the output check needs


@dataclass
class Outcome:
    digest: str
    failure: str | None  # None when the op passed its checks


def _cli(*argv):
    return ["--format", "json", "--workers", "1", *argv]


# -- inputs -----------------------------------------------------------------


def _save(alg, path):
    from olie import catalog

    catalog.save(alg, path)
    return path


def _chain_files(workdir, field_tag, seed_base, dims, count, need_lambda=False):
    """Write ``count`` chain algebras, cycling through ``dims``.

    Seeds whose chain gets stuck, or, with ``need_lambda``, whose result
    has no multiplicative form, are skipped, so every op on the files
    has a defined answer.  Returns (path, dim, lambda text or None).
    """
    from olie import catalog, fields

    field_obj = fields.field_from_tag(field_tag)
    out = []
    seed = seed_base
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        alg = catalog.random_extension_chain(field_obj, seed, dim)
        seed += 1
        if not alg:
            continue
        lam = None
        if need_lambda:
            lam_set = alg.multiplicative_lambda()
            if lam_set is None:
                continue
            lam = ",".join(field_obj.format(x) for x in lam_set.particular)
        path = os.path.join(workdir, f"{field_tag}-d{dim}-s{seed - 1}.json")
        out.append((_save(alg, path), dim, lam))
    return out


def _lie_file(workdir, seed, dim):
    """A Lie algebra of the given dimension over Q, grown from the
    2-dimensional nonabelian one by random derivation extensions
    (lambda = 0, alpha = 0).  ``olie deform`` needs a Lie algebra, and
    the chain generator yields none over Q."""
    from olie import catalog, derivations, extensions, fields, linalg

    qq = fields.QQ
    rng = random.Random(f"perfbench-lie/{seed}/{dim}")
    alg = catalog.builtin_algebra("lie.aff1", qq)
    while alg.dim < dim:
        n = alg.dim
        lam = linalg.zeros(qq, n)
        basis = [
            d
            for d in derivations.al_derivation_space(alg, lam)
            if linalg.vec_is_zero(qq, d.alpha)
        ]
        matrix = [linalg.zeros(qq, n) for _ in range(n)]
        while linalg.vec_is_zero(qq, [x for row in matrix for x in row]):
            matrix = [linalg.zeros(qq, n) for _ in range(n)]
            for d in basis:
                c = qq.coerce(rng.randint(-2, 2))
                matrix = linalg.mat_add(qq, matrix, linalg.mat_scale(qq, c, d.matrix))
        alg = extensions.extend_codim1(alg, lam, matrix, linalg.zeros(qq, n))
    path = os.path.join(workdir, f"lie-d{dim}-s{seed}.json")
    return _save(alg, path)


def _bracket_table(rng, dim):
    """A dense random table over Q, drawn as in acceptance criterion 9."""
    table = {}
    for i, j in combinations(range(dim), 2):
        entry = {k: c for k in range(dim) if (c := rng.randint(-2, 2))}
        if entry:
            table[(i, j)] = entry
    return table


def build_ops(workload, seed, workdir):
    """The op list of a workload for a seed; writes its input files."""
    if workload == "scan-gf5":
        ops = []
        for i in range(SCAN_OPS):
            dim, chain_seed = 4 + i % 3, seed * 1000 + i
            argv = _cli("scan-structure", "--field", "gf5", "--dims", f"{dim}..{dim}",
                        "--count", "1", "--seed", str(chain_seed))
            ops.append(Op("scan-structure", argv, dim))
        return ops
    if workload == "query-q":
        chains = _chain_files(workdir, "q", seed * 1000, (4, 5), QUERY_ROUNDS, need_lambda=True)
        lies = [_lie_file(workdir, seed * 1000 + r, 4 + r % 2) for r in range(QUERY_ROUNDS // 4)]
        rng = random.Random(f"perfbench-omega/{seed}")
        ops = []
        for r, (path, dim, lam) in enumerate(chains):
            ops += [
                Op("derive", _cli("derive", path, "--solve-lambda")),
                Op("classify", _cli("classify", path)),
                Op("info", _cli("info", path), dim),
                Op("h2", _cli("h2", path, f"--lambda={lam}")),
                Op("omega_space", payload=(3 + r % 3, _bracket_table(rng, 3 + r % 3))),
            ]
            if r % 4 == 0:
                ops.append(Op("deform", _cli("deform", lies[r // 4])))
        return ops
    if workload == "identities":
        half = IDENTITY_FILES // 2
        files = _chain_files(workdir, "gf5", seed * 1000, IDENTITY_DIMS, half)
        files += _chain_files(workdir, "q", seed * 1000, IDENTITY_DIMS, half)
        ops = []
        for gf, q in zip(files[:half], files[half:]):
            for path, dim, _lam in (gf, q):
                ops.append(Op("identity", _cli("identity", path, "--name", "two-basic")))
                # degree5 is alternating in five variables: below dim 5
                # it has no basis tuple to evaluate
                if dim >= 5:
                    ops.append(Op("identity", _cli("identity", path, "--name", "degree5")))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- running and checking ops -------------------------------------------------


def run_op(op):
    """Run one op; the caller times this call.  Returns (code, stdout, stderr)."""
    if op.kind == "omega_space":
        from olie import algebra, fields

        dim, table = op.payload
        sol = algebra.AnticommAlgebra(fields.QQ, dim, table).omega_space()
        return 0, _format_solution(sol), ""
    from olie import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _format_solution(sol):
    if sol is None:
        return "null\n"
    from olie import fields

    fmt = fields.QQ.format
    return json.dumps(
        {
            "particular": [fmt(x) for x in sol.particular],
            "kernel": [[fmt(x) for x in row] for row in sol.kernel.rows],
        }
    ) + "\n"


def check_op(op, code, stdout, stderr):
    """Digest of the op's output and the reason it failed, if it did.

    An op fails if it exits outside {0, 1}, prints a traceback, emits
    anything but JSON, or its output contradicts what the op asked for.
    """
    digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
    if code not in (0, 1):
        return Outcome(digest, f"exit code {code}: {stderr.strip()[:200]}")
    if "Traceback" in stderr or "Traceback" in stdout:
        return Outcome(digest, "traceback printed")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return Outcome(digest, f"output is not JSON: {exc}")
    try:
        return Outcome(digest, _semantic_failure(op, code, payload))
    except (KeyError, TypeError, IndexError) as exc:
        return Outcome(digest, f"output lacks an expected field: {exc!r}")


def _semantic_failure(op, code, payload):
    kind = op.kind
    if kind == "scan-structure":
        counts = payload["dims"][str(op.payload)]["count"]
        if counts != 1 or (code == 0) != (not payload["failures"]):
            return "scan-structure result does not match its exit code"
    elif kind == "identity":
        if payload["holds"] != (code == 0):
            return "identity verdict does not match its exit code"
    elif code != 0:
        return f"{kind} exited {code}"
    elif kind == "info" and payload["dim"] != op.payload:
        return "info reports the wrong dimension"
    elif kind == "derive" and not payload["spaces"]:
        return "derive found no multiplicative form"
    elif kind == "h2" and not (isinstance(payload["h2"], int) and payload["h2"] >= 0):
        return "h2 is not a dimension"
    elif kind == "deform" and payload["dimension"] < 0:
        return "deform is not a dimension"
    elif kind == "omega_space" and payload is not None:
        dim = op.payload[0]
        from olie import fields

        w = [fields.QQ.parse(x) for x in payload["particular"]]
        for i in range(dim):
            for j in range(dim):
                if w[i * dim + j] + w[j * dim + i] != 0:
                    return "omega_space solution is not skew"
        if dim >= 3 and payload["kernel"]:
            return "omega_space solution is not unique beyond dimension 2"
    return None
