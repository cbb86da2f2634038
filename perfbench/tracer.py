"""Spans and counters installed around the package's public functions.

Nothing here changes what the program computes: every wrapper calls the
original object with the same arguments and returns its result.  Spans
are kept in memory as tuples ``(id, name, start, end, parent, run_id)``
and written out once, when the traced pass ends.

A name imported with ``from … import`` is a second binding of the same
object, so each target is replaced wherever the package binds it: as a
module attribute and as a value of a module-level dict (for example
``orders.PRODUCT_FUNCTIONS``).
"""

from __future__ import annotations

import itertools
import sys
import time

PACKAGE = "okubo_e8"

#: (module, function) pairs timed with a span; the span is named
#: "<layer>.<function>" where the layer is the module without underscores.
SPANS = [
    ("algebras", "bridge_identities"),
    ("okubomatrix", "verify_laws"),
    ("okubomatrix", "kaplansky_report"),
    ("okubomatrix", "cross_realization_report"),
    ("orders", "structure_constants"),
    ("orders", "closure_test"),
    ("orders", "units240"),
    ("orders", "scaling_search"),
    ("orders", "scaled_order_verify"),
    ("orders", "parse_structure_constants"),
    ("lattice", "hnf_snf"),
    ("lattice", "_snf_reduce"),  # private, but it is the Smith normal form itself
    ("lattice", "smith_invariants"),
    ("lattice", "discriminant_group"),
    ("lattice", "glue_and_saturate"),
    ("lattice", "short_vectors"),
    ("lattice", "shell_counts_vs_sigma3"),
    ("lattice", "lattice_from_fixture"),
    ("_kernels", "enumerate_short_vectors"),
    ("_kernels", "metric_stabilizers"),
    ("_kernels", "unit_closure_failures"),
    ("stabilizer", "search"),
    ("catalog", "verify_classical"),
    ("checks", "run_all"),
    ("report", "serialize"),
    ("cli", "main"),
]

#: the check_* groups that ``checks.run_all`` calls, in its order
CHECK_GROUPS = [
    "check_basis_forms", "check_unit_loop", "check_para_closure",
    "check_octonion_closure", "check_okubo_obstruction", "check_denominators",
    "check_scaling_search", "check_scaled_order", "check_conductor",
    "check_discriminant", "check_shells", "check_saturation_gluing",
    "check_trace16", "check_stabilizer", "check_tau", "check_tau_membership",
    "check_bridges", "check_matrix_laws", "check_catalog",
]
SPANS += [("checks", name) for name in CHECK_GROUPS]

#: (module, function) pairs that get a call counter only: they are called
#: too often for a span each
COUNTED = [
    ("algebras", "oct_mul"),
    ("algebras", "para_mul"),
    ("algebras", "okubo_mul"),
    ("okubomatrix", "matrix_mul"),
    ("okubomatrix", "kaplansky"),
    ("orders", "coords_in_order_basis"),
]

#: (class, dunder, counter) triples for the exact scalars; ``__rsub__`` is
#: left alone because it calls ``__sub__``, which is counted
DUNDERS = [
    ("QuadExt", "__mul__", "exact.quadext_mul"),
    ("QuadExt", "__rmul__", "exact.quadext_mul"),
    ("QuadExt", "__add__", "exact.quadext_add"),
    ("QuadExt", "__radd__", "exact.quadext_add"),
    ("QuadExt", "__sub__", "exact.quadext_add"),
    ("ComplexQuad", "__mul__", "exact.complexquad_mul"),
    ("ComplexQuad", "__rmul__", "exact.complexquad_mul"),
]


#: counts taken from arguments and results rather than from calls
TALLIES = [
    "kernels.vectors_found", "kernels.unit_pairs", "lattice.smith_invariants_calls",
    "lattice._snf_reduce_calls",
    "stabilizer.candidates", "stabilizer.metric_survivors",
    "stabilizer.product_survivors", "report.bytes", "cli.steps",
]


def layer_name(module: str, func: str) -> str:
    return f"{module.strip('_')}.{func}"


class Tracer:
    """Owns the spans, counters and result tallies of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._counters: dict[str, itertools.count] = {}
        self.tallies: dict[str, int] = {}
        self.span_names: list[str] = []
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _span_wrapper(self, name, fn, on_result=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        run_id = self.run_id

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, run_id))
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name):
        return self._counters.setdefault(name, itertools.count()).__next__

    def _count_wrapper(self, name, fn):
        tick = self._counter(name)

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _add(self, key, amount):
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def counts(self) -> dict[str, int]:
        """Counter values; reading advances each counter by one, so the
        value read is the number of ticks before it."""
        return {name: next(c) for name, c in self._counters.items()}

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace every binding of ``original`` in the package's modules."""
        found = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PACKAGE):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((setattr, mod, attr, original))
                    setattr(mod, attr, replacement)
                    found += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((dict.__setitem__, value, key, original))
                            value[key] = replacement
                            found += 1
        if not found:
            raise LookupError(f"no binding of {original!r} found")

    def install(self):
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m, _ in SPANS + COUNTED}
        self.tallies = dict.fromkeys(TALLIES, 0)
        hooks = {
            "_kernels.enumerate_short_vectors":
                lambda a, r: self._add("kernels.vectors_found", len(r)),
            "_kernels.unit_closure_failures":
                lambda a, r: self._add("kernels.unit_pairs", len(a[0]) ** 2),
            "lattice.smith_invariants":
                lambda a, r: self._add("lattice.smith_invariants_calls", 1),
            "lattice._snf_reduce":
                lambda a, r: self._add("lattice._snf_reduce_calls", 1),
            "stabilizer.search": self._stabilizer_tally,
            "report.serialize":
                lambda a, r: self._add("report.bytes", len(r.encode("utf-8"))),
            "cli.main": lambda a, r: self._add("cli.steps", 1),
        }
        for module, func in SPANS:
            original = getattr(mods[module], func)
            hook = hooks.get(f"{module}.{func}")
            name = layer_name(module, func)
            self.span_names.append(name)
            self._rebind(original, self._span_wrapper(name, original, hook))
        for module, func in COUNTED:
            original = getattr(mods[module], func)
            name = layer_name(module, func) + "_calls"
            self._rebind(original, self._count_wrapper(name, original))
        exact = sys.modules[f"{PACKAGE}.exact"]
        for cls_name, dunder, name in DUNDERS:
            cls = getattr(exact, cls_name)
            original = cls.__dict__[dunder]
            self._restore.append((setattr, cls, dunder, original))
            setattr(cls, dunder, self._count_wrapper(name + "_calls", original))

    def uninstall(self):
        for setter, target, key, original in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()

    def _stabilizer_tally(self, args, report):
        self._add("stabilizer.candidates", report.candidates)
        self._add("stabilizer.metric_survivors", len(report.metric))
        self._add("stabilizer.product_survivors", len(report.product))

    # -- summary --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct child
        spans cover (children of one span never overlap here, since the
        program is single-threaded); 0.0 for a span never entered."""
        child_time: dict[int, float] = {}
        for _sid, _name, start, end, parent, _run in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = dict.fromkeys(self.span_names, 0.0)
        for sid, name, start, end, _parent, _run in self.spans:
            out[name] += (end - start) - child_time.get(sid, 0.0)
        return out

    def total_times(self) -> dict[str, float]:
        """Per span name: duration, counting only the outermost span when
        the function recurses into itself."""
        by_id = {s[0]: s for s in self.spans}
        out: dict[str, float] = {}
        for sid, name, start, end, parent, _run in self.spans:
            p = parent
            nested = False
            while p:
                if by_id[p][1] == name:
                    nested = True
                    break
                p = by_id[p][4]
            if not nested:
                out[name] = out.get(name, 0.0) + (end - start)
        return out
