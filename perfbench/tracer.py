"""Per-layer tracing of kvquad from outside the package.

The tracer wraps the public functions listed in ``TRACED`` and patches each
wrapper into every ``kvquad`` module namespace (and class) that holds the
original object, so calls through ``from .lie import bracket`` copies are
counted too.  Nothing under ``src/`` changes.

For every wrapped function it records the number of calls, its self time
(wall time minus the time spent in other wrapped calls it made) and its
inclusive time (wall time of outermost calls only, so a recursive call counts
once).  Time spent in unwrapped helpers, ``Fraction`` arithmetic included, is
self time of the nearest wrapped caller.  A module's self time is the sum of
the self times of its wrapped functions.
"""

import functools
import sys
from time import perf_counter

# (module, metric name, attribute path inside the module)
TRACED = [
    ("words", "mul", "mul"),
    ("words", "add", "AssocSeries.__add__"),
    ("words", "log", "log"),
    ("words", "substitute_letter_linear", "substitute_letter_linear"),
    ("lyndon", "lyndon_coordinates", "lyndon_coordinates"),
    ("lyndon", "bracket_expansion", "bracket_expansion"),
    ("lie", "LieElement.expand", "LieElement.expand"),
    ("lie", "bracket", "bracket"),
    ("lie", "log_exp_product", "log_exp_product"),
    ("lie", "apply_operator_series", "apply_operator_series"),
    ("lie", "substitute_many", "substitute_many"),
    ("lie", "directional_derivative", "directional_derivative"),
    ("lie", "univariate_substitute", "univariate_substitute"),
    ("lie", "LieElement.to_json_dict", "LieElement.to_json_dict"),
    ("traces", "tr_quad", "tr_quad"),
    ("traces", "quad_canonical", "quad_canonical"),
    ("traces", "trace_substitute", "trace_substitute"),
    ("traces", "trace_pairing", "trace_pairing"),
    ("tangential", "act", "act"),
    ("tangential", "simplicial", "simplicial"),
    ("tangential", "quadratic_trace_tuple", "quadratic_trace_tuple"),
    ("solver", "kv_rhs", "kv_rhs"),
    ("solver", "factorize", "factorize"),
    ("solver", "ab_to_AB", "ab_to_AB"),
    ("solver", "kv1_residual", "kv1_residual"),
    ("solver", "canonical_solution", "canonical_solution"),
    ("solver", "gauge_family", "gauge_family"),
    ("linalg", "rational_kernel", "rational_kernel"),
    ("linalg", "rational_solve", "rational_solve"),
    ("verify", "verify_kv1", "verify_kv1"),
    ("verify", "verify_theorem", "verify_theorem"),
    ("verify", "check_full_trace_equation", "check_full_trace_equation"),
    ("verify", "verify_prop_U", "verify_prop_U"),
    ("verify", "homo_kernel", "homo_kernel"),
    ("cli", "main", "main"),
]

MODULES = list(dict.fromkeys(module for module, _, _ in TRACED))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in report order."""
    units = {}
    for module, name, _ in TRACED:
        units.update({f"{module}.{name}.calls": "count", f"{module}.{name}.self_s": "s",
                      f"{module}.{name}.incl_s": "s"})
    units.update({f"{module}.self_s": "s" for module in MODULES})
    units.update({"words.mul.terms_out": "count", "lie.log_exp_product.hit_ratio": "ratio",
                  "linalg.rational_kernel.cells": "count", "trace.overhead_ratio": "ratio"})
    return units


def _count_terms_out(stats, args, result):
    stats["words.mul.terms_out"] += len(result.terms)


def _count_cells(stats, args, result):
    rows = args[0]
    stats["linalg.rational_kernel.cells"] += len(rows) * (len(rows[0]) if rows else 0)


_COUNTERS = {"words.mul": _count_terms_out, "linalg.rational_kernel": _count_cells}


class Tracer:
    """Wraps the traced functions of an imported ``kvquad`` while installed."""

    def __init__(self):
        self._stack: list[float] = []  # child time of each active wrapped call
        self._stats: dict[str, list] = {}  # key -> [calls, self_s, incl_s, depth]
        self._extra: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._cache_info = None
        self._cache_before = None

    def install(self):
        """Patch the wrappers in; raises LookupError naming a missing function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._stack.clear()
        self._stats = {f"{m}.{n}": [0, 0.0, 0.0, 0] for m, n, _ in TRACED}
        self._extra = {"words.mul.terms_out": 0, "linalg.rational_kernel.cells": 0}
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "kvquad" or name.startswith("kvquad.")]
        try:
            for module, name, path in TRACED:
                owner, attr, original = self._resolve(module, path)
                key = f"{module}.{name}"
                wrapper = self._wrap(original, self._stats[key], _COUNTERS.get(key))
                if owner is not sys.modules[f"kvquad.{module}"]:
                    self._patch(owner, attr, wrapper)  # a method: patch its class
                    continue
                for ns in namespaces:
                    for ns_name, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, ns_name, wrapper)
        except BaseException:
            self.uninstall()
            raise
        self._cache_info = getattr(sys.modules["kvquad.lie"].log_exp_product.__wrapped__,
                                   "cache_info", None)
        self._cache_before = self._cache_info() if self._cache_info else None

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        """Counts and times since ``install``; call after ``uninstall``."""
        out = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, name, _ in TRACED:
            calls, self_s, incl_s, _ = self._stats[f"{module}.{name}"]
            out[f"{module}.{name}.calls"] = calls
            out[f"{module}.{name}.self_s"] = self_s
            out[f"{module}.{name}.incl_s"] = incl_s
            module_self[module] += self_s
        out.update({f"{module}.self_s": s for module, s in module_self.items()})
        out.update(self._extra)
        hits = lookups = 0
        if self._cache_info:  # 0 when log_exp_product has no lru_cache
            after = self._cache_info()
            hits = after.hits - self._cache_before.hits
            lookups = hits + after.misses - self._cache_before.misses
        out["lie.log_exp_product.hit_ratio"] = hits / lookups if lookups else 0.0
        return out

    @staticmethod
    def _resolve(module, path):
        mod = sys.modules.get(f"kvquad.{module}")
        owner, attr = mod, path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            raise LookupError(f"traced function kvquad.{module}.{path} not found")
        return owner, attr, original

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, stat, counter):
        stack = self._stack
        extra = self._extra

        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stat[1] += elapsed - stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(extra, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)
