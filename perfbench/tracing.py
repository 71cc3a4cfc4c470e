"""Spans around the library's layer boundaries, recorded from outside.

Every public function of a layer module is replaced by a timing wrapper set
as a module attribute. The library calls across (and within) its modules
through module attributes, so the wrappers see nested calls and record one
span each: name, start, end, parent span and op id. Spans stay in memory
and are written once, at the end of a run.

The counting pass adds two recorders whose timings are thrown away: an
`lp.solve` wrapper that records program shape, entry bit-length and
repeats, and a profile hook that counts calls of the `pivot` code object
in lp.py. The hook fires on every call the interpreter makes, every
`Fraction` operation included, so it never runs beside a timed number.

Every recorder here records only inside its `recording` block (the pivot
hook: inside its `with` block), which the benchmark enters around one op
and leaves before it checks that op's output, so LP solves made by the
checks are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "engine", "duality", "sets", "calculus", "semiinf",
          "polyapprox", "lp")


class Tracer:
    """Span recorder for the public functions of the layer modules."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None  # spans are recorded only while an op runs
        self.saved = []

    def install(self):
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            for name, fn in vars(mod).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self.saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self):
        for mod, name, fn in reversed(self.saved):
            setattr(mod, name, fn)
        self.saved = []

    @contextlib.contextmanager
    def recording(self, op):
        """Record the spans of op `op` while the block runs."""
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def self_times(self):
        """Seconds of self time per layer: span time minus child span time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_layer = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            per_layer[name.split(".", 1)[0]] += end - start - inner
        return per_layer

    def call_counts(self):
        return Counter(span[0] for span in self.spans)

    def write(self, path):
        """One line per span: op, name, start and end in microseconds from
        the first span, parent line number (-1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_us\tend_us\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{parent}\n")


def _bits(values, best):
    for v in values:
        num = getattr(v, "numerator", None)
        if num is not None:
            best = max(best, abs(num).bit_length(), v.denominator.bit_length())
    return best


class LPRecorder:
    """Counts for every `lp.solve` call made while an op runs: calls,
    repeats of a program already solved in the same op, tableau input
    shape, and the largest numerator or denominator bit-length in the
    program and its outcome. Calls outside `recording()`, such as those of
    the benchmark's own output checks, pass straight through."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = 0
        self.repeats = 0
        self.rows_max = 0
        self.cols_max = 0
        self.max_bits = 0
        self.seen = None  # programs solved in the current op, if one runs
        self.saved = None

    @contextlib.contextmanager
    def recording(self):
        """Record the `lp.solve` calls of one op while the block runs."""
        self.seen = set()
        try:
            yield
        finally:
            self.seen = None

    def install(self):
        lp = self.lib.lp
        inner = self.saved = lp.solve

        def solve(prog):
            if self.seen is None:
                return inner(prog)
            self.calls += 1
            key = (tuple(prog.c), tuple(map(tuple, prog.G)), tuple(prog.h),
                   tuple(map(tuple, prog.E)), tuple(prog.e),
                   tuple(prog.nonneg))
            if key in self.seen:
                self.repeats += 1
            self.seen.add(key)
            self.rows_max = max(self.rows_max, len(prog.G) + len(prog.E))
            self.cols_max = max(self.cols_max, len(prog.c))
            out = inner(prog)
            bits = _bits(prog.c, self.max_bits)
            for row in prog.G + prog.E:
                bits = _bits(row, bits)
            bits = _bits(prog.h + prog.e, bits)
            for field in (out.x, out.dual_ineq, out.dual_eq, out.ray,
                          out.farkas_ineq, out.farkas_eq):
                bits = _bits(field or (), bits)
            self.max_bits = _bits([out.value], bits)
            return out

        lp.solve = solve

    def uninstall(self):
        self.lib.lp.solve = self.saved


class PivotCounter:
    """Profile hook counting calls of the code object named `pivot` in the
    LP kernel's source file."""

    def __init__(self, lib):
        self.filename = lib.lp.__file__
        self.count = 0

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name == "pivot" and code.co_filename == self.filename:
                self.count += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False
