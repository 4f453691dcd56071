"""Binding-aware tracing of the olie module layers.

The layers are the modules of ``src/olie``.  ``Tracer.install`` wraps
every public function of each layer module and every public method of
each public class it defines.  The library imports names directly
(``from .linalg import rref`` in several modules), so a function is
rebound in *every* ``olie`` namespace that holds it, and ``install``
fails if any binding is left unwrapped.

Each wrapped call records a span ``(name, start, end, parent, phase)``.
Spans stay in memory and are written out by ``write_spans`` when the run
ends.  Scalar operations on the field objects run millions of times, so
they are only counted, and only while ``count_scalars`` is active: a
counting wrapper on every scalar call would inflate the self time of
every layer above it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "fields",
    "linalg",
    "algebra",
    "derivations",
    "extensions",
    "structure",
    "identities",
    "catalog",
    "cli",
)

# private names that carry a layer concept the metrics need: subspace
# construction, the certification check and the process fan-out of scans
EXTRA_TARGETS = {
    "linalg": ("Subspace.__init__",),
    "algebra": ("AnticommAlgebra._first_violation",),
    "cli": ("_pool_map",),
}

SCALAR_OPS = ("zero", "one", "coerce", "add", "sub", "mul", "neg", "inv", "div", "is_zero")


def _olie_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "olie" or name.startswith("olie.")]


def _is_basis_vector(v):
    nonzero = [x for x in v if x]
    return len(nonzero) == 1 and nonzero[0] == 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.names = []
        self._name_ids = {}
        self._stack = []
        self.phase = "ops"
        self.extra = Counter()
        self.scalar_calls = Counter()
        self._restore = []
        self._originals = {}

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, raw function, is classmethod)."""
        importlib.import_module("olie")
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"olie.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{layer}.{attr}", mod, attr, obj, False))
                elif inspect.isclass(obj) and layer != "fields":
                    for mname, member in sorted(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        if isinstance(member, classmethod):
                            out.append((f"{layer}.{attr}.{mname}", obj, mname, member.__func__, True))
                        elif inspect.isfunction(member):
                            out.append((f"{layer}.{attr}.{mname}", obj, mname, member, False))
            for extra in EXTRA_TARGETS.get(layer, ()):
                owner = mod
                parts = extra.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                out.append((f"{layer}.{extra}", owner, parts[-1], vars(owner)[parts[-1]], False))
        return out

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function in every namespace that binds it."""
        for name, owner, attr, func, is_cm in self._targets():
            wrapper = self._span_wrapper(name, func)
            self._originals[id(func)] = func
            self._set(owner, attr, classmethod(wrapper) if is_cm else wrapper)
            if inspect.ismodule(owner):
                for mod in _olie_modules():
                    for other, value in list(vars(mod).items()):
                        if value is func and not (mod is owner and other == attr):
                            self._set(mod, other, wrapper)
        self.check_bindings()

    def check_bindings(self):
        """Fail if any olie namespace still holds an unwrapped traced function."""
        missed = []
        for mod in _olie_modules():
            for attr, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    missed.append(f"{mod.__name__}.{attr}")
        if missed:
            raise RuntimeError(f"tracer left bindings unwrapped: {missed}")

    def count_scalars(self):
        """Count scalar operations on the field classes (no spans)."""
        from olie.fields import PrimeField, Rationals

        for cls in (Rationals, PrimeField):
            for op in SCALAR_OPS:
                self._set(cls, op, self._count_wrapper(op, vars(cls)[op]))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name, func):
        tracer = self
        nid = self._name_id(name)
        pre = _PRE.get(name)
        post = _POST.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.phase)
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, op, func):
        counts = self.scalar_calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[op] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def summarize(self):
        """Per-name calls, inclusive and self seconds, and derived counts.

        Two scopes: ``ops`` holds the spans of the ops phase, ``all``
        every phase.  Inclusive time counts only the outermost span of a
        name, so a nested call is not counted twice.  Self time is a
        span's duration minus the durations of its direct child spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, phase in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {"ops": Counter(), "all": Counter()}
        incl = {"ops": Counter(), "all": Counter()}
        self_s = {"ops": Counter(), "all": Counter()}
        for idx, (nid, start, end, parent, phase) in enumerate(spans):
            dur = end - start
            keys = ("all", "ops") if phase == "ops" else ("all",)
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == nid:
                    outer = False
                    break
                p = spans[p][3]
            for key in keys:
                calls[key][nid] += 1
                self_s[key][nid] += dur - child[idx]
                if outer:
                    incl[key][nid] += dur
        extra = {"ops": Counter(), "all": Counter()}
        for (phase, key), value in self.extra.items():
            extra["all"][key] += value
            if phase == "ops":
                extra["ops"][key] += value

        def named(c):
            return Counter({self.names[k]: v for k, v in c.items()})

        return {
            key: {
                "calls": named(calls[key]),
                "incl": named(incl[key]),
                "self": named(self_s[key]),
                "extra": extra[key],
            }
            for key in calls
        }

    def write_spans(self, path):
        """Write every span as JSON lines: a header, then one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "phase"]}) + "\n")
            for nid, start, end, parent, phase in self.spans:
                handle.write(f'[{nid},{start:.9f},{end:.9f},{parent},"{phase}"]\n')


# -- derived counts recorded at the layer boundaries ----------------------


def _rref_cells(tracer, args):
    rows = args[1]
    if rows:
        tracer.extra[tracer.phase, "rref.cells"] += len(rows) * len(rows[0])


def _bracket_basis(tracer, args):
    if _is_basis_vector(args[1]) and _is_basis_vector(args[2]):
        tracer.extra[tracer.phase, "bracket.basis_pairs"] += 1


def _closure_hit(tracer, args, result):
    if 0 < result.dim < args[0].dim:
        tracer.extra[tracer.phase, "ideal_closure.proper"] += 1


def _chain_stuck(tracer, args, result):
    if not result:  # a Stuck result is falsy, an algebra is not
        tracer.extra[tracer.phase, "chain.stuck"] += 1


_PRE = {
    "linalg.rref": _rref_cells,
    "algebra.AnticommAlgebra.bracket": _bracket_basis,
}
_POST = {
    "algebra.AnticommAlgebra.ideal_closure": _closure_hit,
    "catalog.random_extension_chain": _chain_stuck,
}
