"""Per-module spans and counters, recorded from outside the package.

``Tracer.installed()`` wraps the package's public functions in spans and
its three hottest leaf methods (every ``Group.mul``, each weight's
``__call__`` and each Young ``evaluate``) in bare counters, so their time
stays in the caller's self time.  A name is wrapped in every module that
bound it, since ``from x import f`` copies the binding.  Leaving the
context restores every original, so untraced passes run unmodified code.

A span's self time is its duration minus the time its child spans
cover.  Spans stay in memory as (request, name, start, end, parent) and
are written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import time
from collections import Counter

PACKAGE = "orlicz_dynamics"

# (module, attribute, span name).  Classes are given as "Class.method".
SPANS = (
    ("groups", "separation_constant", "groups.separation"),
    *(
        ("translations", f, "translations.orbit")
        for f in (
            "orbit_weights_forward", "orbit_weights_backward",
            "phi_product", "phi_tilde_product", "phi_product_pair", "phi_tilde_product_pair",
            "phi_series_pair", "phi_tilde_series_pair",
        )
    ),
    *(("translations", f, "translations.apply") for f in ("apply_T", "apply_S", "apply_T_n", "apply_S_n")),
    ("criteria", "run_check", "criteria.check"),
    ("criteria", "check_obstructions", "criteria.obstructions"),
    ("orlicz", "luxemburg_norm", "orlicz.norm"),
    ("orlicz", "modular", "orlicz.modular"),
    *(
        ("orlicz", f"OrliczVector.{m}", "orlicz.vector")
        for m in ("__init__", "__add__", "__sub__", "scale", "restrict", "mul_pointwise")
    ),
    ("young", "complementary", "young.complementary"),
    ("young", "delta2_probe", "young.delta2"),
    ("numerics", "bisect_root", "numerics.bisect"),
    ("numerics", "golden_max", "numerics.golden"),
    ("lab", "recurrence_witness_vector", "lab.witness"),
    ("lab", "empirical_return", "lab.witness"),
    ("lab", "chaos_periodic_vector", "lab.periodic"),
    ("lab", "choose_truncation", "lab.truncation"),
    ("lab", "orbit_norm_series", "lab.orbit_norms"),
    ("config", "load_config", "config.load"),
    ("config", "vector_from_file", "config.vector"),
    ("report", "make_envelope", "report.envelope"),
    ("report", "write_envelope", "report.write"),
    ("report", "write_series_csv", "report.write"),
    *(("cli", f, "cli") for f in ("cmd_check", "cmd_simulate", "cmd_norm", "cmd_probe_young", "_emit")),
)

COUNTED = (
    ("groups", ("IntegerGroup", "LatticeGroup", "HeisenbergGroup", "CyclicGroup"), "mul", "groups.mul.calls"),
    (
        "translations",
        ("ConstantWeight", "TwoSidedStepWeight", "HeisenbergDyadicWeight", "TableWeight"),
        "__call__",
        "translations.weight.calls",
    ),
    ("young", ("PowerYoung", "AlphaLogYoung", "TableYoung"), "evaluate", "young.evaluate.calls"),
)

SELF_TIMES = (
    "groups.separation", "translations.orbit", "translations.apply", "criteria.check",
    "criteria.obstructions", "orlicz.norm", "orlicz.modular", "orlicz.vector",
    "young.complementary", "young.delta2", "numerics.bisect", "numerics.golden",
    "lab.witness", "lab.periodic", "lab.truncation", "lab.orbit_norms",
    "config.load", "config.vector", "report.envelope", "report.write", "cli",
)
# Counters kept by the leaf wrappers and the _AFTER hooks.
COUNTS = (
    "groups.mul.calls", "translations.weight.calls", "translations.orbit.calls",
    "translations.orbit.points", "criteria.candidates", "young.evaluate.calls", "report.bytes",
)
# Span names whose call counts are metrics.
CALLS = (
    "translations.apply", "orlicz.norm", "orlicz.modular", "young.complementary",
    "numerics.bisect", "numerics.golden",
)

# Name, unit and which direction is better, for every per-layer metric.
PER_LAYER = (
    ("groups.mul.calls", "count", "lower"),
    ("groups.separation.self_s", "s", "lower"),
    ("translations.weight.calls", "count", "lower"),
    ("translations.orbit.calls", "count", "lower"),
    ("translations.orbit.points", "count", "lower"),
    ("translations.orbit.self_s", "s", "lower"),
    ("translations.apply.calls", "count", "lower"),
    ("translations.apply.self_s", "s", "lower"),
    ("criteria.check.self_s", "s", "lower"),
    ("criteria.obstructions.self_s", "s", "lower"),
    ("criteria.candidates", "count", "lower"),
    ("criteria.witness_per_candidate", "ratio", "higher"),
    ("orlicz.norm.calls", "count", "lower"),
    ("orlicz.norm.self_s", "s", "lower"),
    ("orlicz.norm.support_mean", "entries", "lower"),
    ("orlicz.modular.calls", "count", "lower"),
    ("orlicz.modular.self_s", "s", "lower"),
    ("orlicz.modular_per_norm", "ratio", "lower"),
    ("orlicz.vector.self_s", "s", "lower"),
    ("young.evaluate.calls", "count", "lower"),
    ("young.complementary.calls", "count", "lower"),
    ("young.complementary.self_s", "s", "lower"),
    ("young.delta2.self_s", "s", "lower"),
    ("numerics.bisect.calls", "count", "lower"),
    ("numerics.bisect.self_s", "s", "lower"),
    ("numerics.golden.calls", "count", "lower"),
    ("numerics.golden.self_s", "s", "lower"),
    ("lab.witness.self_s", "s", "lower"),
    ("lab.periodic.self_s", "s", "lower"),
    ("lab.truncation.self_s", "s", "lower"),
    ("lab.orbit_norms.self_s", "s", "lower"),
    ("config.load.self_s", "s", "lower"),
    ("config.vector.self_s", "s", "lower"),
    ("report.envelope.self_s", "s", "lower"),
    ("report.write.self_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._ticks: dict = {}

    def span(self, name: str, fn, after=None):
        spans, open_, child_s, clock = self.spans, self._open, self._child_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                dur = t1 - t0
                self.self_s[name] += dur - child_s.pop()
                self.calls[name] += 1
                if child_s:
                    child_s[-1] += dur
                spans[idx] = (self.request, name, t0, t1, parent)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        # itertools.count ticks in C: about half the cost of a dict update
        # on calls that run millions of times per pass.
        tick = self._ticks.setdefault(key, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        undo = []
        try:
            for mod_name, attr, name in SPANS:
                mod = _module(mod_name)
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    targets = [(getattr(mod, cls_name), leaf)]
                else:
                    orig = getattr(mod, attr)
                    targets = [(m, k) for m in _package_modules() for k, v in list(vars(m).items()) if v is orig]
                wrapped = self.span(name, getattr(*targets[0]), _AFTER.get(attr))
                for owner, key in targets:
                    undo.append((owner, key, getattr(owner, key)))
                    setattr(owner, key, wrapped)
            for mod_name, classes, method, key in COUNTED:
                for cls_name in classes:
                    cls = getattr(_module(mod_name), cls_name)
                    orig = vars(cls)[method]
                    undo.append((cls, method, orig))
                    setattr(cls, method, self.counter(key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)
            for key, ticks in self._ticks.items():
                self.counts[key] += next(ticks)
            self._ticks.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, without trace.overhead_s."""
        c, calls = self.counts, self.calls
        out = {k: c[k] for k in COUNTS}
        out.update({f"{n}.calls": calls[n] for n in CALLS})
        out.update({f"{n}.self_s": self.self_s[n] for n in SELF_TIMES})
        out["criteria.witness_per_candidate"] = _ratio(c["criteria.witnesses"], c["criteria.candidates"])
        out["orlicz.norm.support_mean"] = _ratio(c["orlicz.norm.support"], calls["orlicz.norm"])
        out["orlicz.modular_per_norm"] = _ratio(calls["orlicz.modular"], calls["orlicz.norm"])
        return out

    def exact_counts(self) -> dict[str, int]:
        """Every count of the pass that repeats exactly on the same input.
        report.bytes is left out: reports carry their own run time, whose
        printed length varies by a digit or two."""
        counts = {k: v for k, v in self.counts.items() if k != "report.bytes"}
        return {**counts, **{f"{k}.calls": v for k, v in self.calls.items()}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _after_orbit(counts, args, result):
    counts["translations.orbit.calls"] += 1
    counts["translations.orbit.points"] += len(result)


def _after_check(counts, args, verdict):
    counts["criteria.candidates"] += verdict.budget
    counts["criteria.witnesses"] += len(verdict.witness)


def _after_norm(counts, args, result):
    counts["orlicz.norm.support"] += len(args[0])


def _after_write(counts, args, result):
    counts["report.bytes"] += os.path.getsize(args[0])


_AFTER = {
    "orbit_weights_forward": _after_orbit,
    "orbit_weights_backward": _after_orbit,
    "run_check": _after_check,
    "luxemburg_norm": _after_norm,
    "write_envelope": _after_write,
    "write_series_csv": _after_write,
}


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
