"""Layer tracing from outside the package.

Each listed public function is replaced, in every ``ncstat`` module namespace
that binds it, by a wrapper that records a span (parent, section, name, start,
end).  ``numpy.linalg.{eigh,eigvalsh,norm}`` and ``numpy.einsum`` are wrapped
the same way on the numpy modules, so the numpy calls the package makes are
counted too.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import sys
from time import perf_counter

import numpy as np

LAYER_FUNCTIONS = {
    "algebra": (
        "hermitian_eigen",
        "support_projection",
        "absolutely_continuous",
        "hermitian_pinv",
        "validate_state",
    ),
    "maps": (
        "apply_hom",
        "apply_cpu",
        "compose_cpu",
        "cpu_pushforward_state",
        "pushforward_state",
        "choi_from_function",
        "ad_cpu",
        "validate_cpu",
        "hom_from_raw",
    ),
    "hypotheses": (
        "validate_morphism",
        "is_optimal",
        "rectify_morphism",
        "rectify_pair",
        "compose_morphisms",
        "extract_alphas",
        "build_hypothesis_from_alphas",
        "construct_optimal_hypothesis",
    ),
    "entropy": (
        "relative_entropy",
        "re_functor",
        "chain_rule_report",
        "re_expansions",
        "convex_sum_morphisms",
    ),
    "generators": (
        "gen_state",
        "gen_morphism",
        "gen_optimal_morphism",
        "gen_composable_pair",
    ),
    "serialize": ("read_json", "load_any", "write_json"),
}

# numpy entry points: (module, attribute, span name).  ``norm`` is split by
# its ``ord`` argument so that operator-norm calls (each an SVD) count apart.
NUMPY_FUNCTIONS = (
    (np.linalg, "eigh", "numpy.eigh"),
    (np.linalg, "eigvalsh", "numpy.eigvalsh"),
    (np.linalg, "norm", None),
    (np, "einsum", "numpy.einsum"),
)


def _norm_span(args, kwargs) -> str:
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return "numpy.norm2" if order == 2 else "numpy.norm"


class Tracer:
    """Span recorder.  ``active`` pauses recording while the benchmark checks."""

    def __init__(self):
        self.spans: list = []  # (parent, section, name, t0, t1)
        self.stack: list[int] = []
        self.section = ""
        self.active = False
        self.infinite_results = 0
        self._patches: list = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (parent, self.section, span_name, t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_infinite(self, value) -> None:
        if isinstance(value, float) and math.isinf(value):
            self.infinite_results += 1

    def _rebind(self, orig, wrapper) -> None:
        """Point every ncstat module attribute bound to orig at the wrapper."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ncstat" or modname.startswith("ncstat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, orig))

    def install(self) -> None:
        """Wrap every listed function, the numpy kernels and each law entry."""
        for layer, names in LAYER_FUNCTIONS.items():
            mod = importlib.import_module(f"ncstat.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                hook = self._count_infinite if fname == "relative_entropy" else None
                self._rebind(orig, self._wrap(f"{layer}.{fname}", orig, hook))
        for mod, attr, name in NUMPY_FUNCTIONS:
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name or _norm_span, orig))
        laws = importlib.import_module("ncstat.laws")
        self._patches.append((laws, "LAWS", laws.LAWS))
        laws.LAWS = tuple(
            (name, tol, self._wrap(f"laws.{name}", fn)) for name, tol, fn in laws.LAWS
        )

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time (duration minus child spans), in ms."""
        child = [0.0] * len(self.spans)
        for parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, (_, _, name, t0, t1) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (t1 - t0 - child[sid]) * 1e3
        return out

    def calls_in(self, section: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, sec, name, _, _ in self.spans:
            if sec == section:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,section,name,start_s,end_s\n")
            for sid, (parent, section, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{section},{name},{t0!r},{t1!r}\n")
