"""Span tracer installed around slantmodel's public functions from outside.

The library has no tracing of its own yet, so the traced run wraps, from the
benchmark's side:

* every public module-level function of ``laurent``, ``model_space``,
  ``operators``, ``verify`` and ``cli``;
* the class methods the per-layer metrics need (``LaurentPoly.__mul__``,
  ``ModelSpaceBasis.kernel`` and so on);
* ``numpy.linalg.lstsq`` as called by ``operators``, through a proxy for that
  module's ``np`` name, so other callers of numpy are left alone.

``operators``, ``verify`` and ``cli`` import functions by name, so a wrapper
replaces every module-level binding of the original across ``slantmodel.*``.
``install`` and ``uninstall`` swap the wrappers in and out, so the untraced
passes run the library exactly as shipped.

Spans are kept in memory as ``[name, parent, op, start, end, count]`` and
summarised after the pass; nothing is streamed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = ("laurent", "model_space", "operators", "verify", "cli")

# (module, class, attribute, span name).  A missing attribute is skipped so
# the tracer keeps working when a later version of the library drops one.
METHODS = (
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly", "inner", "laurent.inner"),
    ("laurent", "LaurentPoly", "derivative_at", "laurent.derivative_at"),
    ("laurent", "LaurentPoly", "shifted", "laurent.shifted"),
    ("laurent", "LaurentPoly", "truncated", "laurent.truncated"),
    ("model_space", "InnerFunction", "to_laurent", "model_space.to_laurent"),
    ("model_space", "ModelSpaceBasis", "build", "model_space.build"),
    ("model_space", "ModelSpaceBasis", "alpha_expansion", "model_space.alpha_expansion"),
    ("model_space", "ModelSpaceBasis", "project", "model_space.project"),
    ("model_space", "ModelSpaceBasis", "reconstruct", "model_space.reconstruct"),
    ("model_space", "ModelSpaceBasis", "kernel", "model_space.kernel"),
    ("model_space", "ModelSpaceBasis", "conjugate_vector", "model_space.conjugate_vector"),
    ("model_space", "ModelSpaceBasis", "conjugation_matrix", "model_space.conjugation_matrix"),
    ("model_space", "ModelSpaceBasis", "compressed_shift", "model_space.compressed_shift"),
    ("operators", "CompressionSetting", "__init__", "operators.CompressionSetting"),
    ("operators", "CompressionSetting", "stretched_beta_basis", "operators.stretched_beta_basis"),
)

# The maps that move or drop coefficients without multiplying them.
MAPS = ("laurent.decimate", "laurent.stretch", "laurent.conj_on_circle", "laurent.shifted", "laurent.truncated")

# Bytes per entry of the complex128 design matrix handed to lstsq.
COMPLEX_BYTES = 16


def _mul_pairs(args, out):
    a, b = args[0], args[1]
    return len(a) * (len(b) if hasattr(b, "items") else 1)


# Work counted at a span from its positional arguments and its result.
COUNTERS = {
    "laurent.mul": _mul_pairs,
    "numpy.lstsq": lambda args, out: args[0].size * COMPLEX_BYTES,
    "operators.recover_symbol": lambda args, out: len(out),
    "model_space.build": lambda args, out: out.truncation_order,
}


class _Proxy:
    """Attribute-forwarding stand-in with a few names overridden."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Collects spans from wrapped library functions while ``active``."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.active = False
        self._stack = []
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, out)
            return out

        return traced

    def install(self):
        mods = {m: sys.modules[f"slantmodel.{m}"] for m in MODULES}
        holders = [m for n, m in sys.modules.items() if n == "slantmodel" or n.startswith("slantmodel.")]

        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    replaced[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, replaced[id(obj)][1])

        for modname, clsname, attr, span in METHODS:
            cls = getattr(mods[modname], clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__))
            else:
                wrapped = self._wrap(span, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

        ops = mods["operators"]
        np = ops.np
        lstsq = self._wrap("numpy.lstsq", np.linalg.lstsq)
        self._restore.append((ops, "np", np))
        ops.np = _Proxy(np, linalg=_Proxy(np.linalg, lstsq=lstsq))

    def uninstall(self):
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    def clear(self):
        self.spans.clear()
        self._stack.clear()


def summarize(spans):
    """Per-name call counts, counters, outermost total time and self time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[4] - rec[3]
    stats = {}
    for i, (name, parent, _op, start, end, count) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0})
        dur = end - start
        s["calls"] += 1
        s["count"] += count
        s["self_s"] += dur - child[i]
        # Recursive calls (LaurentPoly.inner flips its arguments) would count
        # twice in a plain sum, so total time only takes outermost spans.
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            s["total_s"] += dur
    return stats


def lstsq_bytes_in(spans, caller):
    """Design-matrix bytes of lstsq calls made directly by ``caller``."""
    return sum(rec[5] for rec in spans if rec[0] == "numpy.lstsq" and rec[1] >= 0 and spans[rec[1]][0] == caller)


def layer_metrics(spans):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass.

    Names that never ran read 0, so a layer removed by a later change shows
    as 0 rather than as a missing key.
    """
    st = summarize(spans)
    empty = {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name, key):
        return st.get(name, empty)[key]

    counts = {
        "laurent.mul.calls": get("laurent.mul", "calls"),
        "laurent.mul.pairs": get("laurent.mul", "count"),
        "laurent.inner.calls": get("laurent.inner", "calls"),
        "laurent.derivative_at.calls": get("laurent.derivative_at", "calls"),
        "model_space.build.calls": get("model_space.build", "calls"),
        "model_space.truncation_order": get("model_space.build", "count"),
        "model_space.kernel.calls": get("model_space.kernel", "calls"),
        "operators.membership.design_bytes": lstsq_bytes_in(spans, "operators.membership"),
        "numpy.lstsq.calls": get("numpy.lstsq", "calls"),
        "operators.recovered_support": get("operators.recover_symbol", "count"),
    }
    times = {
        "laurent.mul.self_s": get("laurent.mul", "self_s"),
        "laurent.inner.self_s": get("laurent.inner", "self_s"),
        "laurent.derivative_at.self_s": get("laurent.derivative_at", "self_s"),
        "laurent.maps.self_s": sum(get(n, "self_s") for n in MAPS),
        "model_space.build.total_s": get("model_space.build", "total_s"),
        "model_space.kernel.self_s": get("model_space.kernel", "self_s"),
        "model_space.project.self_s": get("model_space.project", "self_s"),
        "model_space.reconstruct.self_s": get("model_space.reconstruct", "self_s"),
        "model_space.conjugation_matrix.total_s": get("model_space.conjugation_matrix", "total_s"),
        "model_space.compressed_shift.total_s": get("model_space.compressed_shift", "total_s"),
        "operators.membership.self_s": get("operators.membership", "self_s"),
        "operators.membership.total_s": get("operators.membership", "total_s"),
        "numpy.lstsq.total_s": get("numpy.lstsq", "total_s"),
        "operators.build_compression.self_s": get("operators.build_compression", "self_s"),
        "operators.build_compression.total_s": get("operators.build_compression", "total_s"),
        "operators.recover_symbol.total_s": get("operators.recover_symbol", "total_s"),
        "operators.conjugate_operator.total_s": get("operators.conjugate_operator", "total_s"),
        "operators.defect.total_s": get("operators.defect", "total_s"),
        "cli.main.total_s": get("cli.main", "total_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "verify.run_suite.total_s": get("verify.run_suite", "total_s"),
    }
    return counts, times, st


def raw_spans(spans):
    """Compact, JSON-ready copy: names interned, times in microseconds."""
    names = sorted({rec[0] for rec in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][3] if spans else 0.0
    rows = [
        [i, rec[1], rec[2], index[rec[0]], round((rec[3] - t0) * 1e6, 1), round((rec[4] - t0) * 1e6, 1), rec[5]]
        for i, rec in enumerate(spans)
    ]
    return {"names": names, "columns": ["id", "parent", "op", "name", "start_us", "end_us", "count"], "spans": rows}
