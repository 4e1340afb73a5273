"""Per-layer tracing from outside the program.

Wrappers are installed around hilblat's public functions in every module
namespace that binds them, because ``douady``, ``groups`` and ``cli``
import their kernels from ``core``.  A span's self time is its duration
minus that of the spans it encloses.  ``pairing`` is only counted, not
timed, so its time stays in the self time of its caller (validation).

Counts and times are reported per round, so they do not depend on how many
rounds fitted in the run; the cli.* start-up figures are medians of a few
interpreter starts.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass

# (module, function or Class.method, fields reported).  "calls", "s" and
# "self_s" are counts and times; the other fields are measured from the
# call's arguments or result.
LAYERS = (
    ("core", "isometry_violation", ("calls", "self_s")),
    ("core", "pairing", ("calls",)),
    ("core", "det", ("calls", "self_s")),
    ("core", "Isometry.__post_init__", ("calls", "s")),
    ("core", "hermite_basis", ("calls", "self_s")),
    ("core", "integer_kernel", ("calls", "self_s", "out_max_bits")),
    ("core", "Sublattice.__post_init__", ("calls", "s")),
    ("core", "orthogonal_complement", ("s",)),
    ("core", "signature", ("calls", "self_s")),
    ("core", "mat_mul", ("calls", "self_s")),
    ("groups", "closure", ("calls", "self_s", "elements")),
    ("groups", "invariant_sublattice", ("s",)),
    ("groups", "verify_pair_properties", ("s",)),
    ("groups", "ns_classification", ("s",)),
    ("groups", "symplectic_action_report", ("s",)),
    ("douady", "natural_lift", ("calls", "s")),
    ("douady", "index_invariant", ("calls", "s")),
    ("douady", "pullback_decomposition", ("calls", "s")),
    ("douady", "is_natural_on_lattice", ("calls", "s")),
    ("douady", "extract_surface_isometry", ("calls", "s")),
    ("douady", "index_norm_solutions", ("calls", "s")),
    ("workspace", "load_workspace", ("calls", "s", "bytes")),
    ("cli", "main", ("self_s",)),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s", "out_max_bits": "bits", "elements": "count", "bytes": "bytes"}
# Measured by spawning interpreters, not by wrappers.
STARTUP = ("cli.interpreter_start_s", "cli.import_s")


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = [
        (f"{mod}.{attr.split('.')[0]}.{field}", UNITS[field])
        for mod, attr, fields in LAYERS
        for field in fields
    ]
    return out + [(name, "s") for name in STARTUP]


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    measured: int = 0  # out_max_bits (a maximum), elements or bytes (sums)


def _measure(field, args, result) -> int:
    if field == "out_max_bits":
        return max((abs(x).bit_length() for row in result for x in row), default=0)
    if field == "elements":
        return result.order
    return os.path.getsize(args[0]) if args and args[0] else 0  # bytes


class Tracer:
    """Installs the wrappers when created; ``uninstall`` restores hilblat."""

    def __init__(self, hl):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._undo = []
        modules = {m: importlib.import_module(f"hilblat.{m}") for m in {l[0] for l in LAYERS}}
        namespaces = [hl, *modules.values()]
        for mod, attr, fields in LAYERS:
            name = f"{mod}.{attr.split('.')[0]}"
            stat = self.stats.setdefault(name, Stat())
            make = self._counter(stat) if fields == ("calls",) else self._span(stat, fields)
            self._install(modules[mod], namespaces, attr, make)

    def _install(self, module, namespaces, attr, make):
        if "." in attr:  # a method: patch it on its class
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(original))
            self._undo.append((cls, method, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)
                    self._undo.append((ns, name, original))

    def _span(self, stat, fields):
        stack = self._stack
        clock = time.perf_counter
        extra = next((f for f in fields if f not in ("calls", "s", "self_s")), None)

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if extra == "out_max_bits":
                    stat.measured = max(stat.measured, _measure(extra, args, result))
                elif extra:
                    stat.measured += _measure(extra, args, result)
                return result

            return wrapper

        return make

    @staticmethod
    def _counter(stat):
        def make(fn):
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def uninstall(self):
        for ns, name, original in reversed(self._undo):
            setattr(ns, name, original)
        self._undo.clear()

    def metrics(self, rounds: int, factor: float) -> dict[str, float]:
        """Per-round values, times multiplied by ``factor`` (see hostspeed);
        out_max_bits is the largest seen in the run."""
        out = {}
        for mod, attr, fields in LAYERS:
            name = f"{mod}.{attr.split('.')[0]}"
            stat = self.stats[name]
            values = {
                "calls": stat.calls / rounds,
                "s": stat.total * factor / rounds,
                "self_s": stat.self_time * factor / rounds,
                "out_max_bits": stat.measured,
                "elements": stat.measured / rounds,
                "bytes": stat.measured / rounds,
            }
            for field in fields:
                out[f"{name}.{field}"] = values[field]
        return out
