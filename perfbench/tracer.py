"""Layer tracer for walshframes, installed from outside the package.

The tracer wraps named functions and methods of the walshframes modules.
framekit, periodic, harmonic, runner and cli import their collaborators with
``from .x import y``, so a wrapper installed only in the defining module
would miss every call made through those bindings.  ``install`` therefore
replaces each traced function in every loaded walshframes module that binds
it, and patches methods on their class.

Spanned names record one span per call: name, start, end and the index of
the enclosing span.  Spans live in flat arrays in memory and are written
once, by ``write``, when the traced command has ended.  Counted names only
count calls: they are called hundreds of thousands of times, and a span
each would cost more than the work it measures.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array

# (span name, module, qualified name) of every spanned function or method
SPANNED = [
    ("stepfn.inner", "walshframes.stepfn", "inner"),
    ("stepfn.refine", "walshframes.stepfn", "refine"),
    ("stepfn.translate", "walshframes.stepfn", "translate"),
    ("stepfn.dilate", "walshframes.stepfn", "dilate"),
    ("stepfn.periodic_inner", "walshframes.stepfn", "PeriodicStepFunction.inner"),
    ("stepfn.load_csv", "walshframes.stepfn", "load_csv"),
    ("stepfn.dump_csv", "walshframes.stepfn", "dump_csv"),
    ("harmonic.fast_transform", "walshframes.harmonic", "fast_transform"),
    ("harmonic.fast_inverse_transform", "walshframes.harmonic",
     "fast_inverse_transform"),
    ("harmonic.inverse_transform", "walshframes.harmonic", "inverse_transform"),
    ("framekit.coefficient_row", "walshframes.framekit",
     "FrameAnalyzer.coefficient_row"),
    ("framekit.member", "walshframes.framekit", "FrameAnalyzer.member"),
    ("framekit.system_member", "walshframes.framekit", "system_member"),
    ("framekit.two_scale_check", "walshframes.framekit",
     "FrameAnalyzer.two_scale_check"),
    ("framekit.frame_ratio", "walshframes.framekit", "FrameAnalyzer.frame_ratio"),
    ("framekit.derive_generators", "walshframes.framekit", "derive_generators"),
    ("framekit.uep_gram", "walshframes.framekit", "uep_gram"),
    ("periodic.member", "walshframes.periodic", "PeriodicSystemSpec.member"),
    ("periodic.periodize", "walshframes.periodic", "periodize"),
    ("periodic.scan", "walshframes.periodic", "projection_energy_scan"),
    ("periodic.two_scale", "walshframes.periodic", "periodic_two_scale_check"),
    ("periodic.tightness", "walshframes.periodic", "periodic_tightness_check"),
    ("runner.load", "walshframes.runner", "RunConfig.load"),
    ("runner.report", "walshframes.runner", "verify_report"),
    ("runner.report", "walshframes.runner", "periodic_report"),
    ("runner.render", "walshframes.runner", "render_report"),
]

COUNTED = [
    ("algebra.element", "walshframes.algebra", "FieldElement.__init__"),
    ("algebra.uindex", "walshframes.algebra", "uindex"),
    ("algebra.lambda_element", "walshframes.algebra",
     "SystemConfig.lambda_element"),
]


class Tracer:
    """Spans and call counts of one traced process."""

    def __init__(self):
        self.span_names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self._counters: dict[str, itertools.count] = {}

    def _span_wrapper(self, name: str, fn):
        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)
        starts, ends = self.starts, self.ends
        name_ids, parents, stack = self.name_ids, self.parents, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name: str, fn):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced name wherever a loaded walshframes module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "walshframes" or n.startswith("walshframes.")]
        for name, module, qualname in SPANNED:
            _patch(modules, module, qualname,
                   lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, qualname in COUNTED:
            _patch(modules, module, qualname,
                   lambda fn, name=name: self._count_wrapper(name, fn))

    def counts(self) -> dict[str, int]:
        # a fresh itertools.count yields 0, so the next value is the call count
        return {name: next(c) for name, c in self._counters.items()}

    def write(self, path: str) -> None:
        """Write the spans to path + '.spans' and the names and counts to path."""
        with open(path + ".spans", "wb") as fh:
            for arr in (self.starts, self.ends, self.name_ids, self.parents):
                arr.tofile(fh)
        with open(path, "w") as fh:
            json.dump({"span_names": self.span_names,
                       "spans": len(self.name_ids),
                       "counts": self.counts()}, fh)


def _patch(modules, module_name: str, qualname: str, make_wrapper) -> None:
    owner = sys.modules[module_name]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))
        return
    original = getattr(owner, qualname)
    wrapper = make_wrapper(original)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def read_spans(path: str):
    """Load what Tracer.write wrote: (meta, starts, ends, name_ids, parents)."""
    with open(path) as fh:
        meta = json.load(fh)
    n = meta["spans"]
    out = []
    with open(path + ".spans", "rb") as fh:
        for code in ("d", "d", "i", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return (meta, *out)
