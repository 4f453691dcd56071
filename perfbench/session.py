"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/session.py --workload W --seed N --seconds S
        [--trace] [--setup-only] [--record-reference]

It sets up (imports olie, writes the inputs, warms up), prints ``READY``
so that the parent can time the set-up from process start, then runs
the workload and prints one JSON line of raw results.  Inputs live in a
private directory under ``.perfbench/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"

# which layers must record calls on which workload (see DESIGN.md)
EXPECTED_LAYERS = {
    "scan-gf5": ("fields", "linalg", "algebra", "structure", "catalog", "cli"),
    "query-q": ("fields", "linalg", "algebra", "derivations", "extensions", "structure", "catalog", "cli"),
    "identities": ("fields", "algebra", "identities", "catalog", "cli"),
}


class Checker:
    """Checks every op, and compares digests with the reference and with
    earlier passes over the same op."""

    def __init__(self, workload, seed):
        self.reference = None
        if seed == workloads.REFERENCE_SEED and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text()).get(workload)
        self.seen = {}
        self.failures = []

    def check(self, index, op, code, stdout, stderr):
        outcome = workloads.check_op(op, code, stdout, stderr)
        reason = outcome.failure
        if reason is None and self.reference is not None:
            if outcome.digest != self.reference[index]:
                reason = "output differs from the reference digest"
        if reason is None and self.seen.setdefault(index, outcome.digest) != outcome.digest:
            reason = "output differs from an earlier pass over the same op"
        if reason is not None:
            self.failures.append(f"op {index} ({' '.join(op.argv) or op.kind}): {reason}")


def run_pass(ops, checker):
    """Run ops once, in order.

    Returns per-op latencies in seconds and the wall time of the pass.
    """
    clock = time.perf_counter
    start = clock()
    latencies = [run_checked(i, op, checker) for i, op in enumerate(ops)]
    return latencies, clock() - start


def run_checked(index, op, checker):
    """Run and check one op; return its latency in seconds."""
    clock = time.perf_counter
    t0 = clock()
    try:
        code, stdout, stderr = workloads.run_op(op)
    except Exception as exc:  # a raising op is a failed op, not a crash
        code, stdout, stderr = -1, "", f"{type(exc).__name__}: {exc}"
    latency = clock() - t0
    checker.check(index, op, code, stdout, stderr)
    return latency


def run_calibrated(ops, checker, seconds):
    """Cycle through ops for ``seconds`` of wall time, probing host speed
    between ops (see calibrate.py).

    Returns per-op latencies scaled to the reference host speed, the
    scaled time the loop spent on ops and their checks, the same two
    unscaled, and the probe times.
    """
    clock = time.perf_counter
    probes = [calibrate.probe()]
    # per op: raw latency, raw time of op plus check, index of the probe before it
    records = []
    deadline = clock() + seconds
    next_probe = clock() + calibrate.PROBE_EVERY_S
    i = 0
    while clock() < deadline:
        t0 = clock()
        latency = run_checked(i % len(ops), ops[i % len(ops)], checker)
        records.append((latency, clock() - t0, len(probes) - 1))
        i += 1
        if clock() >= next_probe:
            probes.append(calibrate.probe())
            next_probe = clock() + calibrate.PROBE_EVERY_S
    probes.append(calibrate.probe())
    # an op is scaled by the mean of the probes on either side of it
    factors = [calibrate.scale((probes[k] + probes[k + 1]) / 2) for k in range(len(probes) - 1)]
    scaled = [latency * factors[k] for latency, _, k in records]
    busy = sum(spent * factors[k] for _, spent, k in records)
    raw = [latency for latency, _, _ in records]
    return scaled, busy, raw, sum(spent for _, spent, _ in records), probes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(ops, checker, seconds):
    latencies, busy, raw, raw_busy, probes = run_calibrated(ops, checker, seconds)

    def p50_p90(xs):
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        return cuts[49], cuts[89]

    p50, p90 = p50_p90(latencies)
    raw_p50, raw_p90 = p50_p90(raw)
    return {
        "attempted": len(latencies),
        "failed": len(checker.failures),
        "failures": checker.failures[:10],
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": p50 * 1000,
        "latency_p90_ms": p90 * 1000,
        "peak_rss_mb": peak_rss_mb(),
        "unscaled": {
            "ops_per_s": len(raw) / raw_busy,
            "latency_p50_ms": raw_p50 * 1000,
            "latency_p90_ms": raw_p90 * 1000,
            "probe_ms": [min(probes) * 1000, statistics.median(probes) * 1000, max(probes) * 1000],
            "first_probe_s": probes[0],
        },
    }


def traced_run(workload, seed, ops, checker, workdir):
    """Fixed-size traced run: untraced, span-traced and scalar-counted
    passes over the same op prefix.  Counts depend only on the seed, not
    on --seconds."""
    ops = ops[: workloads.TRACE_OPS[workload]]
    attempted = 0

    def timed_pass(pass_ops):
        nonlocal attempted
        latencies, wall = run_pass(pass_ops, checker)
        attempted += len(latencies)
        return wall

    untraced = timed_pass(ops)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        regen = workdir / "traced-inputs"
        regen.mkdir()
        workloads.build_ops(workload, seed, str(regen))
        tracer.phase = "ops"
        traced = timed_pass(ops)
    finally:
        tracer.uninstall()
    tracer.count_scalars()
    try:
        timed_pass(ops)
    finally:
        tracer.uninstall()

    summary = tracer.summarize()

    def layer_calls(layer):
        if layer == "fields":
            return sum(tracer.scalar_calls.values())
        return sum(n for name, n in summary["ops"]["calls"].items() if name.startswith(layer + "."))

    missing = [layer for layer in EXPECTED_LAYERS[workload] if not layer_calls(layer)]
    if missing:
        raise RuntimeError(f"traced run recorded no calls for layers {missing} on {workload}")
    metrics = layer_metrics(summary, tracer.scalar_calls)
    metrics["trace.overhead"] = traced / untraced
    spans_path = WORK / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    return {
        "attempted": attempted,
        "failed": len(checker.failures),
        "failures": checker.failures[:10],
        "layer_metrics": metrics,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def layer_metrics(summary, scalar_calls):
    """The per-layer metrics named in BENCHMARK.json, from the spans.

    The catalog layer and the derivation and extension solvers are
    taken over the traced regeneration of the inputs and the ops, since
    they do most of the set-up work; every other layer over the ops.
    """
    ops, everything = summary["ops"], summary["all"]

    def calls(name, scope=ops):
        return scope["calls"].get(name, 0)

    def incl(name, scope=ops):
        return scope["incl"].get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    bracket = "algebra.AnticommAlgebra.bracket"
    closure = "algebra.AnticommAlgebra.ideal_closure"
    chain = "catalog.random_extension_chain"
    return {
        "fields.calls": sum(scalar_calls.values()),
        "fields.inv_calls": scalar_calls["inv"],
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.cells": ops["extra"]["rref.cells"],
        "linalg.rref.self_s": ops["self"].get("linalg.rref", 0.0),
        "linalg.kernel_basis.calls": calls("linalg.kernel_basis"),
        "linalg.solve_affine.calls": calls("linalg.solve_affine"),
        "linalg.subspace.builds": calls("linalg.Subspace.__init__"),
        "algebra.bracket.calls": calls(bracket),
        "algebra.bracket.basis_frac": ratio(ops["extra"]["bracket.basis_pairs"], calls(bracket)),
        "algebra.bracket.self_s": ops["self"].get(bracket, 0.0),
        "algebra.omega_space.s": incl("algebra.AnticommAlgebra.omega_space"),
        "algebra.simplicity.s": incl("algebra.AnticommAlgebra.simplicity"),
        "algebra.multiplication_algebra_dim.s": incl("algebra.AnticommAlgebra.multiplication_algebra_dim"),
        "algebra.find_abelian_ideal.s": incl("algebra.AnticommAlgebra.find_abelian_ideal"),
        "algebra.ideal_closure.calls": calls(closure),
        "algebra.ideal_closure.hit_frac": ratio(ops["extra"]["ideal_closure.proper"], calls(closure)),
        "algebra.certify.calls": calls("algebra.AnticommAlgebra._first_violation"),
        "derivations.al_derivation_space.s": incl("derivations.al_derivation_space", everything),
        "extensions.extend_codim1.s": incl("extensions.extend_codim1", everything),
        "extensions.infinitesimal_deformations.s": incl("extensions.infinitesimal_deformations", everything),
        "extensions.h2_dimension.s": incl("extensions.h2_dimension", everything),
        "structure.classify.s": incl("structure.classify"),
        "structure.classify.self_s": ops["self"].get("structure.classify", 0.0),
        "identities.holds.s": incl("identities.find_counterexample"),
        "identities.evaluate.calls": calls("identities.evaluate"),
        "catalog.random_extension_chain.s": incl(chain, everything),
        "catalog.chain.stuck_frac": ratio(everything["extra"]["chain.stuck"], calls(chain, everything)),
        "catalog.loads.s": incl("catalog.loads", everything),
        "catalog.dumps.s": incl("catalog.dumps", everything),
        "cli.main.self_s": ops["self"].get("cli.main", 0.0),
    }


def record_reference(workload, ops):
    digests = []
    for op in ops:
        code, stdout, stderr = workloads.run_op(op)
        outcome = workloads.check_op(op, code, stdout, stderr)
        if outcome.failure is not None:
            raise RuntimeError(f"cannot record a failing op {op.argv or op.kind}: {outcome.failure}")
        digests.append(outcome.digest)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[workload] = digests
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {"recorded": len(digests)}


def warm_up(ops):
    """Run one op of each kind, so that lazy imports and first-call costs
    land in set-up rather than in the first timed ops."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            workloads.run_op(op)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = workdir / "inputs"
        inputs.mkdir()
        ops = workloads.build_ops(args.workload, args.seed, str(inputs))
        if args.record_reference:
            result = record_reference(args.workload, ops)
        else:
            warm_up(ops)
            print("READY", flush=True)
            if args.setup_only:
                return 0
            checker = Checker(args.workload, args.seed)
            if args.trace:
                result = traced_run(args.workload, args.seed, ops, checker, workdir)
            else:
                result = timed_run(ops, checker, args.seconds)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
