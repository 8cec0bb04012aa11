"""Spans and counters around pncalc's layers, installed from outside.

The tracer replaces selected pncalc functions by wrappers, in every pncalc
module that holds a reference to them (``schouten`` lives in ``cartan`` but
``poisson_nijenhuis`` and ``jacobi`` import it by name), and puts the
originals back on ``uninstall``. pncalc itself is not edited.

Two kinds of wrapper:

* a *span* per call for the structure-level functions. A span records its
  name, start, end, parent span and check id; its self time is its duration
  minus the time its child spans cover.
* *aggregated ops* for the hot polynomial and linear-algebra operations,
  which run hundreds of thousands of times per check. They only add to
  counters and timers, kept per op and per innermost open span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute[, metric name]); "Class.method" names a method on a
# class. The metric name defaults to module.function.
SPANS = (
    ("document", "load_document"),
    ("report", "Report.render_json", "report.render"),
    ("cartan", "schouten"),
    ("cartan", "wedge"),
    ("cartan", "lie_derivative"),
    ("cartan", "exterior_d"),
    ("poisson_nijenhuis", "is_poisson"),
    ("poisson_nijenhuis", "is_pn_pair"),
    ("poisson_nijenhuis", "hierarchy"),
    ("poisson_nijenhuis", "n_bivector"),
    ("poisson_nijenhuis", "magri_morosi"),
    ("poisson_nijenhuis", "koszul_bracket"),
    ("poisson_nijenhuis", "nijenhuis_torsion"),
    ("algebroid", "section_bracket"),
    ("algebroid", "algebroid_differential"),
    ("algebroid", "gerstenhaber_bracket"),
    ("algebroid", "algebroid_validate"),
    ("algebroid", "dual_linear_poisson"),
    ("algebroid", "compat_check"),
    ("algebroid", "bialgebroid_check"),
    ("jacobi", "is_jacobi"),
    ("jacobi", "twisted_gerstenhaber"),
    ("groupoid_desk", "AffineSubmanifold.restrict"),
    ("groupoid_desk", "pn_groupoid_check"),
    ("groupoid_desk", "base_structure"),
    ("groupoid_desk", "coisotropic_invariant_check"),
)

# op name -> (module, attributes); aliases such as __radd__ count as the op.
OPS = {
    "polyalg.mul": ("polyalg", ("Polynomial.__mul__", "Polynomial.__rmul__")),
    "polyalg.add": ("polyalg", ("Polynomial.__add__", "Polynomial.__radd__")),
    "polyalg.substitute": ("polyalg", ("Polynomial.substitute",)),
    "polyalg.parse": ("polyalg", ("parse_polynomial",)),
    "linalg.mat_mul": ("linalg", ("mat_mul",)),
    "linalg.rref": ("linalg", ("rref",)),
    "linalg.nullspace": ("linalg", ("nullspace",)),
}


def _metric_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Collects spans and op counters while installed; see the module doc."""

    def __init__(self, package):
        self.package = package  # the imported ``pncalc`` package
        self.check_id = None
        self.spans = []  # (id, name, start, end, parent id, check id, self s)
        self.span_totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self s
        self.ops = defaultdict(lambda: [0, 0.0])  # op -> calls, s
        self.ops_by_parent = defaultdict(lambda: [0, 0.0])  # (op, span) -> calls, s
        self.mul_products = 0
        self.mul_zero_operand = 0
        self.max_terms = 0
        self.mat_entries = 0
        self.mat_zero_entries = 0
        self._stack = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._restore = []

    # -- installing -------------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]

    def _replace(self, module_name, attr, make):
        """Swap one function for make(original) wherever pncalc refers to it."""
        module = getattr(self.package, module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        for module_name, attr, *name in SPANS:
            name = name[0] if name else _metric_name(module_name, attr)
            self.span_totals[name]  # report layers that were never entered as zero
            self._replace(module_name, attr, lambda fn, name=name: self._span(name, fn))
        polynomial = self.package.polyalg.Polynomial
        special = {"polyalg.mul": lambda fn: self._mul(fn, polynomial), "linalg.mat_mul": self._mat_mul}
        for op, (module_name, attrs) in OPS.items():
            self.ops[op]
            make = special.get(op, lambda fn, op=op: self._op(op, fn))
            for attr in attrs:
                self._replace(module_name, attr, make)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack, spans, totals, clock = self._stack, self.spans, self.span_totals, time.perf_counter

        def wrapped(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                own = duration - frame[3]
                spans.append(
                    (span_id, name, frame[2], end, parent[0] if parent else None, self.check_id, own)
                )
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += own

        wrapped.__wrapped__ = fn
        return wrapped

    def _count(self, op, seconds):
        stat = self.ops[op]
        stat[0] += 1
        stat[1] += seconds
        parent = self._stack[-1][1] if self._stack else None
        stat = self.ops_by_parent[(op, parent)]
        stat[0] += 1
        stat[1] += seconds

    def _op(self, op, fn):
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._count(op, clock() - start)

        wrapped.__wrapped__ = fn
        return wrapped

    def _mul(self, fn, polynomial):
        clock = time.perf_counter

        def wrapped(a, b):
            start = clock()
            out = fn(a, b)
            self._count("polyalg.mul", clock() - start)
            left = len(a.terms)
            right = len(b.terms) if isinstance(b, polynomial) else (1 if b else 0)
            self.mul_products += left * right
            if not (left and right):
                self.mul_zero_operand += 1
            if out is not NotImplemented and len(out.terms) > self.max_terms:
                self.max_terms = len(out.terms)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _mat_mul(self, fn):
        clock = time.perf_counter

        def wrapped(A, B):
            start = clock()
            out = fn(A, B)
            self._count("linalg.mat_mul", clock() - start)
            for M in (A, B):
                for row in M:
                    for e in row:
                        self.mat_entries += 1
                        if not e.terms:
                            self.mat_zero_entries += 1
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- reporting --------------------------------------------------------------

    def metrics(self):
        """Per-layer values by metric name (see BENCHMARK.json)."""
        ops, spans = self.ops, self.span_totals

        def ratio(num, den):
            return num / den if den else 0.0

        mul_calls = ops["polyalg.mul"][0]
        restrict_calls = spans["groupoid_desk.restrict"][0]
        out = {
            "polyalg.mul.calls": mul_calls,
            "polyalg.mul.term_products": self.mul_products,
            "polyalg.mul.products_per_call": ratio(self.mul_products, mul_calls),
            "polyalg.mul.zero_operand_ratio": ratio(self.mul_zero_operand, mul_calls),
            "polyalg.max_terms": self.max_terms,
            "linalg.mat_mul.zero_entry_ratio": ratio(self.mat_zero_entries, self.mat_entries),
            "trace.spans": len(self.spans),
            "groupoid_desk.rref_per_restrict": ratio(
                self.ops_by_parent[("linalg.rref", "groupoid_desk.restrict")][0], restrict_calls
            ),
        }
        for op, (calls, seconds) in sorted(ops.items()):
            out[f"{op}.calls"] = calls
            out[f"{op}.s"] = seconds
        for name, (calls, seconds, own) in sorted(spans.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
            out[f"{name}.self_s"] = own
        return out

    def write_spans(self, path):
        """One JSON object per line, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, check, own in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "check": check, "self_s": own}
                    )
                    + "\n"
                )
