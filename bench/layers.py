"""Per-layer instrumentation of the sgp package, applied from outside it.

The benchmark never edits the package.  Instead it replaces each wrapped
function with a wrapper in every sgp namespace that holds it: the defining
module, every module that imported the name (``gelfand`` imports ``induce``
and friends, ``chars`` imports ``conjugacy_classes``, the ``sgp`` package
re-exports most names) and, for methods, every alias on the class
(``Cyclotomic.__rmul__`` is ``__mul__``).  `install` then scans every sgp
namespace again and reports any original left behind, so a call cannot
silently bypass the trace.

Two kinds of wrapper exist, used in separate passes:

* `SpanRecorder` times the module boundaries of ``cli``, ``gelfand``,
  ``chars`` and ``groups``.  Each wrapped call is a span with a name, a
  start, an end and a parent span.  Spans are nested (one thread), so each
  is folded into per-(name, parent name) totals as it closes: call count,
  duration, and self time (duration minus the time covered by child spans).
* `CallCounter` counts the ``cyclo`` arithmetic.  Those calls run in the
  millions, and a timing wrapper on them would inflate the self time of
  the ``chars`` spans around them, so they are counted in a pass of their
  own.
"""

from __future__ import annotations

import sys
import time

# metric name -> (module, attribute); "Class.method" patches a method
TIMED = {
    "cli.main": ("sgp.cli", "main"),
    "gelfand.audit": ("sgp.gelfand", "audit"),
    "gelfand.audit_group": ("sgp.gelfand", "audit_group"),
    "gelfand.classify_subgroups": ("sgp.gelfand", "classify_subgroups"),
    "gelfand.is_gelfand": ("sgp.gelfand", "is_gelfand"),
    "gelfand.is_strong_gelfand": ("sgp.gelfand", "is_strong_gelfand"),
    "gelfand.multiplicity_matrix": ("sgp.gelfand", "multiplicity_matrix"),
    "gelfand.multiplicity_by_induction": ("sgp.gelfand", "multiplicity_by_induction"),
    "gelfand.multiplicity_by_restriction": ("sgp.gelfand", "multiplicity_by_restriction"),
    "chars.family_table": ("sgp.chars", "family_table"),
    "chars.subgroup_table": ("sgp.chars", "subgroup_table"),
    "chars.validate_table": ("sgp.chars", "validate_table"),
    "chars.decompose": ("sgp.chars", "decompose"),
    "chars.induce": ("sgp.chars", "induce"),
    "chars.restrict": ("sgp.chars", "restrict"),
    "chars.inner_product": ("sgp.chars", "inner_product"),
    "groups.build_group": ("sgp.groups", "build_group"),
    "groups.conjugacy_classes": ("sgp.groups", "conjugacy_classes"),
    "groups.all_subgroups": ("sgp.groups", "all_subgroups"),
    "groups.Subgroup": ("sgp.groups", "Subgroup.__post_init__"),
    "groups.describe_subgroup": ("sgp.groups", "describe_subgroup"),
    "groups.subgroup_structure": ("sgp.groups", "subgroup_structure"),
}

COUNTED = {
    "cyclo.mul": ("sgp.cyclo", "Cyclotomic.__mul__"),
    "cyclo.add": ("sgp.cyclo", "Cyclotomic.__add__"),
    "cyclo.conj": ("sgp.cyclo", "Cyclotomic.conj"),
    "cyclo.weighted_product_sum": ("sgp.cyclo", "weighted_product_sum"),
    "cyclo.zeta": ("sgp.cyclo", "zeta"),
    "cyclo.as_rational_integer": ("sgp.cyclo", "Cyclotomic.as_rational_integer"),
}

LAYERS = ("cli", "gelfand", "chars", "groups")

# per-layer metric name -> unit; `layer_metrics` emits exactly these
UNITS = {
    "groups.build_group.s": "s",
    "groups.build_group.calls": "count",
    "groups.conjugacy_classes.s": "s",
    "groups.conjugacy_classes.calls": "count",
    "groups.all_subgroups.s": "s",
    "groups.subgroups": "count",
    "groups.Subgroup.s": "s",
    "groups.Subgroup.calls": "count",
    "groups.self_s": "s",
    **{f"chars.{f}.{k}": u
       for f in ("inner_product", "induce", "restrict", "decompose",
                 "family_table", "subgroup_table", "validate_table")
       for k, u in (("s", "s"), ("calls", "count"))},
    "chars.self_s": "s",
    "gelfand.induction_path.s": "s",
    "gelfand.restriction_path.s": "s",
    "gelfand.multiplicity_matrix.calls": "count",
    "gelfand.matrix_cache_hit_ratio": "ratio",
    "gelfand.witness_reverify.s": "s",
    "gelfand.witnesses": "count",
    "gelfand.self_s": "s",
    **{f"{name}.calls": "count" for name in COUNTED},
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _sgp_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sgp" or name.startswith("sgp."))]


def _sgp_namespaces():
    """Every module and class dictionary defined inside the sgp package."""
    spaces = []
    for m in _sgp_modules():
        spaces.append(m)
        spaces.extend(v for v in vars(m).values()
                      if isinstance(v, type) and v.__module__.startswith("sgp"))
    return spaces


def install(targets: dict, make_wrapper) -> list[str]:
    """Replace every target everywhere it is bound; return names left unpatched.

    `make_wrapper(name, original)` builds the replacement.  A method target
    patches every attribute of its class bound to the same function, which
    covers aliases such as ``__rmul__ = __mul__``.
    """
    originals = {}
    for name, (modname, path) in targets.items():
        holder = sys.modules[modname]
        *owner, attr = path.split(".")
        for part in owner:
            holder = getattr(holder, part)
        original = vars(holder)[attr]
        wrapper = make_wrapper(name, original)
        spaces = [holder] if owner else _sgp_modules()
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
        originals[id(original)] = name
    missed = []
    for space in _sgp_namespaces():
        for key, value in vars(space).items():
            if id(value) in originals:
                missed.append(f"{originals[id(value)]} still bound as "
                              f"{space.__name__}.{key}")
    return missed


class SpanRecorder:
    """Times wrapped calls as nested spans folded into per-parent totals."""

    def __init__(self, observers=None):
        # (name, parent name or None) -> [calls, duration, self time]
        self.totals: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        self._observers = observers or {}

    def wrap(self, name, fn):
        stack, totals, clock = self._stack, self.totals, time.perf_counter
        observe = self._observers.get(name)
        counters = self.counters

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                key = (name, parent[0] if parent else None)
                agg = totals.get(key)
                if agg is None:
                    agg = totals[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
            if observe is not None:
                observe(counters, result)
            return result

        span.__wrapped__ = fn
        return span


class CallCounter:
    """Counts calls to wrapped functions, with no clock reads."""

    def __init__(self):
        self._cells: dict[str, list[int]] = {}

    def wrap(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @property
    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}


def _count_subgroups(counters, result):
    counters["groups.subgroups"] = counters.get("groups.subgroups", 0) + len(result)


def _count_witnesses(counters, result):
    # audit_group re-verifies exactly the records that carry a witness
    n = sum(1 for e in result.entries if e.record.witness is not None)
    counters["gelfand.witnesses"] = counters.get("gelfand.witnesses", 0) + n


OBSERVERS = {
    "groups.all_subgroups": _count_subgroups,
    "gelfand.audit_group": _count_witnesses,
}


def calls_by_name(totals) -> dict[str, int]:
    out: dict[str, int] = {}
    for (name, _), (calls, _, _) in totals.items():
        out[name] = out.get(name, 0) + calls
    return out


def layer_metrics(totals, counters, counts, output_bytes) -> dict[str, float]:
    """Every per-layer metric in `UNITS` except the overhead, from one pass each."""
    calls = calls_by_name(totals)

    def self_s(name):
        return sum(agg[2] for (n, _), agg in totals.items() if n == name)

    def total_s(name):
        return sum(agg[1] for (n, _), agg in totals.items() if n == name)

    induction_calls = calls.get("gelfand.multiplicity_by_induction", 0)
    matrix_calls = calls.get("gelfand.multiplicity_matrix", 0)
    # named metrics first; cli.main.s and the two paths include their children
    out: dict[str, float] = {
        "groups.subgroups": counters.get("groups.subgroups", 0),
        "gelfand.induction_path.s": total_s("gelfand.multiplicity_by_induction"),
        "gelfand.restriction_path.s": total_s("gelfand.multiplicity_by_restriction"),
        "gelfand.matrix_cache_hit_ratio":
            1 - induction_calls / matrix_calls if matrix_calls else 0.0,
        "gelfand.witness_reverify.s": sum(
            agg[1] for (n, parent), agg in totals.items()
            if n.startswith("chars.") and parent == "gelfand.audit_group"),
        "gelfand.witnesses": counters.get("gelfand.witnesses", 0),
        "cli.main.s": total_s("cli.main"),
        "cli.output_bytes": output_bytes,
    }
    for name in UNITS:
        base, _, kind = name.rpartition(".")
        if name in out:
            continue
        if kind == "s" and base in TIMED:
            out[name] = self_s(base)
        elif kind == "calls" and base in TIMED:
            out[name] = calls.get(base, 0)
        elif kind == "calls" and base in COUNTED:
            out[name] = counts.get(base, 0)
        elif kind == "self_s" and base in LAYERS:
            out[name] = sum(agg[2] for (n, _), agg in totals.items()
                            if n.startswith(base + "."))
    return out
