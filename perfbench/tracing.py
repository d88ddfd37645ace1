"""The traced run: wrap the public functions of each layer from outside.

Every binding of a wrapped function is patched, not only its defining
module: ``filtered_phi`` and ``characters`` import ``char_poly`` and
friends by value, ``cli.HANDLERS`` holds its own references and classes
alias methods (``JetElement.__rmul__ = __mul__``).  Spans stay in memory;
``Tracer.write`` puts them in one file at the end.  A layer's self time
is the time of its spans minus the time of the wrapped spans they call
directly.  ``cli``'s handlers count as children of ``main``, so
``cli.self_ms`` is ``main`` minus its handlers; the handlers' own glue is
reported apart as ``cli.handlers_self_ms``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, module, qualified name); "count" marks functions whose calls are
# counted without timing, because they are too small and too frequent
TARGETS = [
    ("cli", "cli", "main"),
    ("cli", "cli", "run_batch"),
    *[("cli", "cli", f"run_{c}") for c in ("herbrand", "polygon", "tilt", "jet", "phimod", "char", "sen")],
    ("filtered_phi", "filtered_phi", "FilteredPhiModule.from_json"),
    ("filtered_phi", "filtered_phi", "is_admissible"),
    ("filtered_phi", "filtered_phi", "FilteredPhiModule.induced_hodge_number"),
    ("filtered_phi", "filtered_phi", "FilteredPhiModule.hodge_tate_weights"),
    *[("linalg", "linalg", f) for f in ("char_poly", "rational_roots", "rref", "nullspace", "det",
                                        "intersect_rowspaces", "poly_eval_matrix", "mat_mul", "is_squarefree")],
    *[("characters", "characters", f) for f in ("sen_operator", "hodge_tate_via_sen", "is_trivial_via_sen", "classify")],
    ("tilt", "tilt", "TiltExpr.from_json"),
    *[("tilt", "tilt", f) for f in ("theta", "vflat_sum", "generator_condition_check", "ker_theta_orbit_probe")],
    ("cyclotomic", "cyclotomic", "CycElt.vp"),
    ("cyclotomic", "cyclotomic", "CycElt.__add__"),
    ("cyclotomic", "cyclotomic", "CyclotomicContext.root_power"),
    ("jets", "jets", "verify_cocycle"),
    ("jets", "jets", "gr_generator_check"),
    ("jets", "jets", "JetElement.__mul__"),
    ("jets", "jets", "JetElement.substitute"),
    *[("polygons", "polygons", f) for f in ("epsilon_minus_one_polygon", "t_polygon", "minkowski_sum", "hull")],
    *[("ramification", "ramification", f) for f in ("herbrand_phi", "herbrand_psi", "different_valuation")],
    ("padic", "padic", "lower_hull"),
    ("padic", "padic", "rational_valuation", "count"),
]

HANDLER_PREFIX = "run_"


def _names():
    return [f"{t[0]}.{t[2]}" for t in TARGETS]


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for target, name in zip(TARGETS, _names()):
        out.append((f"{name}.calls", "count"))
        if len(target) == 3:
            out.append((f"{name}.ms", "ms"))
    for layer in dict.fromkeys(t[0] for t in TARGETS):
        out.append((f"{layer}.self_ms", "ms"))
    out.append(("cli.handlers_self_ms", "ms"))
    out.append(("trace.overhead_pct", "%"))
    return out


class Tracer:
    """Patches every binding of the targets on ``install`` and restores
    them on ``remove``; counts, totals and self times accumulate in
    per-function lists indexed like ``TARGETS``."""

    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.own = [0.0] * n
        self.spans = []  # (function index, parent span index, start, end)
        self.keep_spans = False
        self._stack = []
        self._patches = []

    def snapshot(self):
        return list(self.calls), list(self.total), list(self.own)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fid, fn):
        perf = time.perf_counter
        stack, calls, total, own = self._stack, self.calls, self.total, self.own
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                calls[fid] += 1
                total[fid] += dur
                own[fid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if self.keep_spans:
                    spans.append((fid, len(stack), start, end))

        return wrapper

    def _counted(self, fid, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        mods = {n[len("period_lab."):]: m for n, m in sys.modules.items()
                if n.startswith("period_lab.") and m is not None}
        for fid, target in enumerate(TARGETS):
            module = mods[target[1]]
            make = self._counted if len(target) == 4 else self._timed
            if "." in target[2]:
                cls_name, attr = target[2].split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(fid, raw.__func__))
                else:
                    wrapped = make(fid, raw)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._set(cls, key, wrapped)
                continue
            orig = getattr(module, target[2])
            wrapped = make(fid, orig)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
            handlers = mods["cli"].HANDLERS
            for key, value in list(handlers.items()):
                if value is orig:
                    self._set(handlers, key, wrapped)

    def remove(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results --------------------------------------------------------------

    def write(self, path, header: dict):
        names = _names()
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, functions=names)) + "\n")
            for fid, depth, start, end in self.spans:
                fh.write(f"{fid} {depth} {start:.9f} {end:.9f}\n")


def layer_metrics(calls, total_s, own_s) -> dict:
    """Per-layer metrics from per-pass per-function calls, times and self
    times (seconds, already normalized)."""
    out = {}
    layer_self = {}
    handlers_self = 0.0
    for target, name, c, t, o in zip(TARGETS, _names(), calls, total_s, own_s):
        out[f"{name}.calls"] = c
        if len(target) == 3:
            out[f"{name}.ms"] = t * 1000
            layer = target[0]
            if layer == "cli" and target[2].startswith(HANDLER_PREFIX):
                handlers_self += o
            else:
                layer_self[layer] = layer_self.get(layer, 0.0) + o
    for layer in dict.fromkeys(t[0] for t in TARGETS):
        out[f"{layer}.self_ms"] = layer_self.get(layer, 0.0) * 1000
    out["cli.handlers_self_ms"] = handlers_self * 1000
    return out
