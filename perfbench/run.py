"""The olie benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-gf5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, seed 0
    python3 perfbench/run.py --workload query-q --record-reference

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a fixed-size traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit, the sample counts and the environment.  See
DESIGN.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is timed in this many fresh interpreters and the median reported
SETUP_REPEATS = 5
# every child must end within this budget, so a run ends within 180 s
BUDGET_S = 170.0

def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def child_env():
    env = dict(os.environ)
    # the CLI takes its default worker count from OLIE_WORKERS; every op
    # passes --workers, and the variable is cleared so nothing inherits it
    env.pop("OLIE_WORKERS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Session:
    """A measuring child process, timed from launch to its READY line."""

    def __init__(self, args, deadline, *extra):
        cmd = [
            sys.executable,
            str(HERE / "session.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            *extra,
        ]
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        # a child stuck in set-up would block readline; kill it at the deadline
        self.killer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.killer.daemon = True
        self.killer.start()
        first = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = first.strip() == "READY"
        self.first = first

    def check_ready(self):
        if not self.ready:
            self.wait()
            raise SystemExit("benchmark session did not set up")

    def wait(self):
        """Wait for the child to end; return its standard output lines."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit("benchmark session ran out of time") from None
        finally:
            self.killer.cancel()
        if self.proc.returncode != 0:
            raise SystemExit(f"benchmark session exited with code {self.proc.returncode}")
        return (self.first + out).strip().splitlines()

    def result(self):
        return json.loads(self.wait()[-1])


def measure(args):
    deadline = time.monotonic() + BUDGET_S
    if args.record_reference:
        return Session(args, deadline, "--record-reference").result()
    if args.trace:
        session = Session(args, deadline, "--trace")
        session.check_ready()
        return session.result()
    # each set-up is scaled by the mean of a probe of host speed taken
    # just before it and one taken just after READY: by this process once
    # a set-up-only child has ended, by the measuring child as its timed
    # loop starts
    setups, unscaled = [], []

    def record(session, before, after):
        unscaled.append(session.setup_s)
        setups.append(session.setup_s * calibrate.scale((before + after) / 2))

    for _ in range(SETUP_REPEATS - 1):
        before = calibrate.probe()
        session = Session(args, deadline, "--setup-only")
        session.wait()
        session.check_ready()
        record(session, before, calibrate.probe())
    before = calibrate.probe()
    session = Session(args, deadline)
    session.check_ready()
    result = session.result()
    record(session, before, result["unscaled"]["first_probe_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["unscaled"]["setup_s"] = statistics.median(unscaled)
    return result


def report(args, result):
    """Print the named metrics, then the result line; return the result object.

    Metric names and units come from BENCHMARK.json: ``end_to_end`` with
    tracing off, ``per_layer`` with it on.
    """
    name = f"{args.workload} seed={args.seed}"
    attempted, failed = result["attempted"], result["failed"]
    for failure in result.get("failures", []):
        print(f"{name}: FAILED {failure}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        declared, values = spec["per_layer"], result["layer_metrics"]
        differ = {m["name"] for m in declared} ^ set(values)
        if differ:
            raise SystemExit(f"traced metrics and BENCHMARK.json disagree on {sorted(differ)}")
        print(f"{name}: traced {attempted} ops, {result['spans']} spans in {result['spans_file']}")
    else:
        declared, values = spec["end_to_end"], result
        print(
            f"{name}: {attempted} ops, {result['beyond_p90']} beyond p90; "
            f"set-up samples {['%.4f' % s for s in result['setup_samples']]}"
        )
        unscaled = result["unscaled"]
        print(
            f"{name}: unscaled wall time: setup_s = {unscaled['setup_s']:.6g} s, "
            f"ops_per_s = {unscaled['ops_per_s']:.6g} 1/s, "
            f"latency_p50_ms = {unscaled['latency_p50_ms']:.6g} ms, "
            f"latency_p90_ms = {unscaled['latency_p90_ms']:.6g} ms; probe min/median/max "
            f"{' / '.join('%.3f' % x for x in unscaled['probe_ms'])} ms "
            f"(reference {calibrate.REFERENCE_PROBE_S * 1000:.3f} ms)"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for key, metric in metrics.items():
        print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name}: failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"{name}: environment {json.dumps(environment(), sort_keys=True)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="the olie benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the seed-0 output digests of the workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "olie" / "__init__.py").is_file():
        print(f"no olie sources under {ROOT / 'src'}; run from an olie checkout", file=sys.stderr)
        return 2
    # compile once, so that no timed set-up pays for compiling
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (ROOT / "src" / "olie", HERE)):
        print("the sources do not compile", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        result = measure(one)
        if args.record_reference:
            print(f"{workload}: recorded {result['recorded']} reference digests")
            continue
        results[workload] = report(one, result)
    if args.record_reference:
        return 0
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
