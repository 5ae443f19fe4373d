"""Spans around the public functions of the stab23 modules, wrapped from outside.

`Tracer.install` replaces each target function (or each public method of a
target class) by a wrapper that records one span per outermost call: name,
start, end, self time and the index of the enclosing span.  Spans stay in
memory; `write` dumps them once the workload has finished, and
`aggregate` sums them into the per-layer metrics named
`<module>.<function>.<quantity>`.

A target that no longer exists in the library is skipped, and its metrics
are absent from `aggregate`; the traced run never fails because a
function was renamed or deleted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter


def _cells(x) -> int:
    """rows x cols of a matrix argument (a list of rows counts too)."""
    shape = getattr(x, "shape", None)
    if shape is None:
        rows = list(x)
        return len(rows) * (len(rows[0]) if rows else 0)
    size = 1
    for n in shape:
        size *= int(n)
    return size


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _elements(args, kwargs) -> int:
    import numpy as np

    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _howell_name(args, kwargs) -> str:
    return "linalg.howell_f3" if _arg(args, kwargs, 1, "m") == 1 else "linalg.howell_zm"


def _howell_cells(args, kwargs) -> int:
    return 0 if _arg(args, kwargs, 1, "m") == 1 else _cells(_arg(args, kwargs, 0, "rows"))


# span name -> (module, attribute paths, work counter).  A span name that
# is a callable picks the name per call; a class target wraps every
# public method of the class under one span.
TARGETS = [
    ("quotients.finite_quotient", "quotients", ["finite_quotient"], None),
    ("quotients.FiniteQuotient.mul", "quotients", ["FiniteQuotient.mul"], _elements),
    ("quotients.FiniteQuotient.cosets", "quotients", ["FiniteQuotient.cosets"], None),
    ("quotients.FiniteQuotient.generators", "quotients",
     ["FiniteQuotient.generators", "FiniteQuotient.sylow_generators"], None),
    ("linalg.rref_f3", "linalg", ["rref_f3"], lambda a, k: _cells(_arg(a, k, 0, "A"))),
    ("linalg.F3Space", "linalg", ["F3Space"], None),
    (_howell_name, "linalg", ["howell"], _howell_cells),
    ("linalg.reduce_mod_span", "linalg", ["reduce_mod_span"], None),
    ("linalg.smith_kernel", "linalg", ["smith_kernel"], lambda a, k: _cells(_arg(a, k, 0, "A"))),
    ("linalg.quotient_invariants", "linalg", ["quotient_invariants"], None),
    ("resolution.prepare_level", "resolution", ["prepare_level"], None),
    ("resolution.construct_complex", "resolution", ["construct_complex"], None),
    ("resolution.verify_chi_summand", "resolution", ["verify_chi_summand"], None),
    ("resolution.homology_cells", "resolution", ["homology_cells"], None),
    ("resolution.nakayama_surjectivity", "resolution", ["nakayama_surjectivity"], None),
    ("resolution.homology_pro_triviality", "resolution", ["homology_pro_triviality"], None),
    ("minres.group_from_indices", "minres", ["group_from_indices"], None),
    ("minres.minimal_resolution", "minres", ["minimal_resolution"], None),
    ("minres.inflation_matrices", "minres", ["inflation_matrices"], None),
    ("invariants.invariant_basis", "invariants", ["invariant_basis"], None),
    ("invariants.apply_gen", "invariants", ["apply_gen"], None),
    ("cohomology.c3_degree", "cohomology", ["c3_degree"], None),
    ("cohomology.invariant_cell", "cohomology", ["invariant_cell"], None),
    ("charts.e_infinity", "charts", ["e_infinity"], None),
    ("charts.tower_chart", "charts", ["tower_chart"], None),
    ("reportio.write_json", "reportio", ["write_json"], None),
]

SPLIT_NAMES = {_howell_name: ("linalg.howell_f3", "linalg.howell_zm")}


PACKAGE = "stab23"


class Tracer:
    def __init__(self):
        self.names: list = []          # span name per id
        self._ids: dict = {}
        self.spans: list = []          # (name id, start, end, self, parent, work)
        self._stack: list = []         # open spans: [name id, start, child time, index]
        self.installed: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span, fn, work):
        stack, spans = self._stack, self.spans
        fixed = None if callable(span) else self._id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(span(args, kwargs))
            if stack and stack[-1][0] == nid:
                # a method of the same layer calling another: one span
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            frame = [nid, perf_counter(), 0.0, len(spans)]
            spans.append(None)  # reserve the slot so children point here
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                w = work(args, kwargs) if work else 0
                spans[frame[3]] = (nid, frame[1], end, dur - frame[2], parent, w)

        return wrapper

    def install(self) -> None:
        for span, modname, paths, work in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                continue
            found = False
            for path in paths:
                *owner_path, attr = path.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part, None)
                target = getattr(owner, attr, None) if owner is not None else None
                if target is None:
                    continue
                found = True
                if inspect.isclass(target):
                    for name, member in list(vars(target).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            setattr(target, name, self._wrap(span, member, work))
                    continue
                wrapped = self._wrap(span, target, work)
                setattr(owner, attr, wrapped)
                if owner is mod:
                    self._rebind(target, wrapped)
            if found:
                self.installed.update(SPLIT_NAMES.get(span, (span,)))
        for name in self.installed:
            self._id(name)

    def _rebind(self, original, wrapped) -> None:
        """Replace names bound by `from ... import` in every loaded module."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def aggregate(self) -> dict:
        """{span name: {calls, total_s, self_s, work}} over every recorded span."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
                   for name in self.installed}
        for nid, start, end, self_s, _parent, work in self.spans:
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            agg["work"] += work
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "self_s", "parent", "work"],
                       "spans": self.spans}, fh)


def layer_metric(aggregates: dict, metric: str):
    """Value of `<span>.<quantity>`, or None when the span was not installed."""
    span, _, quantity = metric.rpartition(".")
    agg = aggregates.get(span)
    if agg is None:
        return None
    return agg["work"] if quantity in ("cells", "elements") else agg[quantity]
