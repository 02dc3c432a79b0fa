"""Span tracing around exchkit's public functions, from outside the library.

``Tracer.install`` replaces each traced function under every ``exchkit``
module-level name that binds it (modules import with ``from .x import y``,
so ``extend.solve``, ``represent.solve`` and ``ratlp.solve`` are three names
for one function) and ``uninstall`` puts the originals back.  Spans stay in
memory; ``layer_metrics`` turns one pass's spans into the per-layer figures.

Per-element helpers (``UNWRAPPED``: ``urn_coefficient``, ``multiset_count``,
``as_fraction``, the ``subtypes`` generator and the like) are not wrapped:
one call costs about as much as the wrapper, so tracing them would distort
every self time.  Their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction
from types import ModuleType
from typing import Any, Callable, Optional

# The layers, and the public functions of each that are traced: every
# function in the module's ``__all__`` except the per-element helpers.
LAYERS = ("ratlp", "typespace", "measures", "symmetrize", "extend", "represent", "serialize")
UNWRAPPED = {
    "typespace.as_fraction", "typespace.format_fraction", "typespace.parse_fraction",
    "typespace.multiset_count", "typespace.subtypes", "typespace.total_sequences",
    "typespace.type_count", "typespace.type_of", "measures.urn_coefficient",
}


def traced_functions() -> dict[str, Callable]:
    """Span name -> function, for every traced public function."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"exchkit.{layer}"]
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and f"{layer}.{name}" not in UNWRAPPED:
                out[f"{layer}.{name}"] = fn
    out["cli.main"] = sys.modules["exchkit.cli"].main
    return out


# Spans whose arguments or result feed a count; the count is taken after
# the pass, so the wrapper does no extra work inside the timed region.
_KEEP_IO = {
    "ratlp.solve", "extend.check_extendible", "typespace.enumerate_types",
    "symmetrize.apply_U", "extend.mixture_extension", "extend.marginal_matches",
    "extend.staircase_mixture",
}


class Span:
    __slots__ = ("name", "parent", "decision", "start", "end", "io")

    def __init__(self, name: str, parent: int, decision: int, start: float):
        self.name = name
        self.parent = parent
        self.decision = decision
        self.start = start
        self.end = start
        self.io: Optional[tuple[tuple, Any]] = None


class Tracer:
    """Records one span per call of a wrapped function while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.decision = -1
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[ModuleType, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, keep_io = self.spans, self._stack, name in _KEEP_IO
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, self.decision, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep_io:
                span.io = (args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "exchkit" or key.startswith("exchkit."))
        ]
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in traced_functions().items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _bits(values) -> int:
    best = 0
    for v in values or ():
        v = Fraction(v)
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times from the spans of one pass.

    A span's self time is its duration minus the durations of its children
    (calls nest, so children never overlap).  A ``check_extendible`` span is
    classified by what ran under it: a ``mixture_extension`` means the
    staircase path, no ``solve`` means the transport fast path, otherwise
    the LP decided it (``lp`` if extendible, ``refuted`` if not).
    """
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start

    def ancestor(i: int, name: str) -> int:
        j = spans[i].parent
        while j >= 0 and spans[j].name != name:
            j = spans[j].parent
        return j

    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for s, t in zip(spans, self_s):
        calls[s.name] = calls.get(s.name, 0) + 1
        selfs[s.name] = selfs.get(s.name, 0.0) + t

    solves_under: dict[int, int] = {}
    staircase_under: set[int] = set()
    decided_in_probe = 0
    for i, s in enumerate(spans):
        if s.name == "ratlp.solve":
            for owner in ("extend.check_extendible", "represent.signed_mixture"):
                j = ancestor(i, owner)
                if j >= 0:
                    solves_under[j] = solves_under.get(j, 0) + 1
        elif s.name == "extend.mixture_extension":
            j = ancestor(i, "extend.check_extendible")
            if j >= 0:
                staircase_under.add(j)
        elif s.name == "extend.check_extendible":
            decided_in_probe += ancestor(i, "extend.probe_infinite") >= 0

    paths = {"fast": 0, "staircase": 0, "lp": 0, "refuted": 0}
    refutation_solves = 0
    rows = cols = bits = infeasible = 0
    items = {"typespace.enumerate_types": 0, "symmetrize.apply_U": 0,
             "extend.mixture_extension": 0, "extend.marginal_matches": 0}
    hits = 0
    for i, s in enumerate(spans):
        if s.io is None:
            continue
        args, result = s.io
        if s.name == "ratlp.solve":
            lp = args[0]
            rows += len(lp.constraints)
            cols += lp.num_vars
            bits = max(bits, _bits(result.primal), _bits(result.certificate))
            infeasible += result.status.value == "infeasible"
        elif s.name == "extend.check_extendible":
            if i in staircase_under:
                paths["staircase"] += 1
            elif i not in solves_under:
                paths["fast"] += 1
            elif result.verdict.value == "extendible":
                paths["lp"] += 1
            else:
                paths["refuted"] += 1
                refutation_solves += solves_under[i]
        elif s.name == "typespace.enumerate_types":
            items[s.name] += len(result)
        elif s.name == "symmetrize.apply_U":
            items[s.name] += len(result.values)
        elif s.name == "extend.mixture_extension":
            items[s.name] += len(result.weights)
        elif s.name == "extend.marginal_matches":
            items[s.name] += len(args[0].weights)
        elif s.name == "extend.staircase_mixture":
            hits += result is not None
    grid_solves = sum(
        solves_under.get(i, 0)
        for i, s in enumerate(spans) if s.name == "represent.signed_mixture"
    )

    total_self = sum(self_s)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return selfs.get(name, 0.0)

    checks = c("extend.check_extendible")
    out: dict[str, float] = {
        "ratlp.solve.calls": c("ratlp.solve"),
        "ratlp.solve.self_s": t("ratlp.solve"),
        "ratlp.solve.rows_sum": rows,
        "ratlp.solve.cols_sum": cols,
        "ratlp.solve.bits_max": bits,
        "ratlp.solve.infeasible": infeasible,
        "extend.check_extendible.calls": checks,
        "extend.check_extendible.self_s": t("extend.check_extendible"),
        "extend.norm_EN.calls": c("extend.norm_EN"),
        "extend.norm_EN.self_s": t("extend.norm_EN"),
        **{f"extend.path.{p}": v for p, v in paths.items()},
        "extend.fast_path_ratio": (
            (paths["fast"] + paths["staircase"]) / checks if checks else 0.0
        ),
        "extend.solves_per_refutation": (
            refutation_solves / paths["refuted"] if paths["refuted"] else 0.0
        ),
    }
    for name in ("extend.mixture_extension", "extend.marginal_matches"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = t(name)
        out[f"{name}.types"] = items[name]
    out["extend.staircase_mixture.calls"] = c("extend.staircase_mixture")
    out["extend.staircase_mixture.hits"] = hits
    out["extend.probe_infinite.calls"] = c("extend.probe_infinite")
    out["extend.probe_infinite.self_s"] = t("extend.probe_infinite")
    out["extend.probe_infinite.N_decided"] = decided_in_probe
    out["measures.invert_urn.calls"] = c("measures.invert_urn")
    out["measures.invert_urn.self_s"] = t("measures.invert_urn")
    for name in ("typespace.enumerate_types", "symmetrize.apply_U"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.items"] = items[name]
        out[f"{name}.self_s"] = t(name)
    out["represent.signed_mixture.calls"] = c("represent.signed_mixture")
    out["represent.signed_mixture.self_s"] = t("represent.signed_mixture")
    out["represent.signed_mixture.solves"] = grid_solves
    out["cli.main.calls"] = c("cli.main")
    out["cli.main.self_s"] = t("cli.main")
    out["serialize.self_s"] = sum(v for k, v in selfs.items() if k.startswith("serialize."))
    out["trace.total_self_s"] = total_self
    share = (lambda v: v / total_self) if total_self else (lambda v: 0.0)
    out["ratlp.solve.share"] = share(t("ratlp.solve"))
    out["extend.witness.share"] = share(
        t("extend.mixture_extension") + t("extend.marginal_matches")
    )
    return out
