"""Per-layer spans and counts, recorded by wrappers around mgt's functions.

The wrappers live here, in the benchmark, not in mgt. ``install`` wraps every
public function and public method of each traced module, at every place it is
bound by name: the module attribute, the globals of every mgt module that
imported it, the class attribute, and the ``mgt.suite.CHECKS`` entries. A
function that a later refactor deletes or renames is simply not found; the
metrics that depend on it are then reported as ``absent``. The untraced
passes never import this module.

A layer is a module. Its self time is the time inside its functions minus the
time spent in traced functions of other layers called from there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

# Layer name -> module. Every public function and method is wrapped.
LAYERS = {
    "linalg": "mgt.linalg",
    "circuit": "mgt.circuit",
    "tau": "mgt.tau",
    "integration": "mgt.integration",
    "reduction": "mgt.reduction",
    "ops": "mgt.ops",
    "suite": "mgt.suite",
    "optimize": "mgt.optimize",
    "graph": "mgt.graph",
    "fileio": "mgt.fileio",
    "cli": "mgt.cli",
}

# Private names wrapped as well, because a named metric counts them.
EXTRA = {"circuit": ["GraphContext._profile"]}

# Spans that do not count as work for the memo-hit rule: a memoized call that
# only looked up its context and found the value did no work.
LOOKUP_KEYS = frozenset({"circuit.context"})


class Tracer:
    """Accumulates spans and counts for one op; ``take`` hands them over."""

    def __init__(self) -> None:
        self.bound: set[str] = set()
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._seen_contexts: weakref.WeakSet = weakref.WeakSet()
        self._reset()

    def _reset(self) -> None:
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.entries: Counter = Counter()
        self.stats: dict = {"n3_sum": 0, "dim_max": 0, "det_bits_max": 0,
                            "context_misses": 0, "iterations": 0, "exact_reeval_s": 0.0}

    def take(self) -> dict:
        """The raw (unnormalized) record since the last ``take``."""
        snap = {
            "self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
            "calls": dict(self.calls), "hits": dict(self.hits),
            "entries": dict(self.entries), "stats": dict(self.stats),
        }
        self._reset()
        return snap

    def wrap(self, fn, layer: str, key: str, observe=None):
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                self.entries[layer] += 1
            if parent is not None and key not in LOOKUP_KEYS:
                parent[3] = True
            frame = [layer, key, 0.0, False]
            stack.append(frame)
            active[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[key] -= 1
                self.self_s[layer] += dur - frame[2]
                if not active[key]:
                    self.incl_s[key] += dur
                if parent is not None:
                    parent[2] += dur
                    if parent[0] == "optimize" and layer == "tau":
                        self.stats["exact_reeval_s"] += dur
                self.calls[key] += 1
                if not frame[3]:
                    self.hits[key] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        return traced


def _observe_bareiss(tr: Tracer, args, result) -> None:
    m, n = args[0], args[1]
    st = tr.stats
    st["n3_sum"] += n ** 3
    st["dim_max"] = max(st["dim_max"], n)
    if n:
        st["det_bits_max"] = max(st["det_bits_max"], abs(m[n - 1][n - 1]).bit_length())


def _observe_context(tr: Tracer, args, result) -> None:
    if result not in tr._seen_contexts:
        tr._seen_contexts.add(result)
        tr.stats["context_misses"] += 1


def _observe_minimize(tr: Tracer, args, result) -> None:
    tr.stats["iterations"] += result.iteration


OBSERVERS = {
    "linalg.bareiss_forward": _observe_bareiss,
    "circuit.context": _observe_context,
    "optimize.minimize_tau": _observe_minimize,
}


def _plain_functions(owner, module_name: str, names=None):
    for name, obj in list(vars(owner).items()):
        if names is None and name.startswith("_"):
            continue
        if names is not None and name not in names:
            continue
        if (inspect.isfunction(obj) and obj.__module__ == module_name
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


def install(tracer: Tracer, loaded_only: bool = False) -> Tracer:
    """Wrap mgt's functions in place; returns the tracer with ``bound`` filled.

    With ``loaded_only``, modules not imported yet stay unimported, so tracing
    does not add import work to the process it measures.
    """
    targets = []  # (owner, attribute, original, layer, key)
    for layer, module_name in LAYERS.items():
        if loaded_only and module_name not in sys.modules:
            continue
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        tracer.bound.add(layer)
        extra = EXTRA.get(layer, [])
        for name, fn in _plain_functions(module, module_name):
            targets.append((module, name, fn, layer, f"{layer}.{name}"))
        for cname, cls in list(vars(module).items()):
            if not (isinstance(cls, type) and cls.__module__ == module_name):
                continue
            wanted = {e.split(".", 1)[1] for e in extra if e.startswith(cname + ".")}
            found = list(_plain_functions(cls, module_name))
            found += list(_plain_functions(cls, module_name, wanted)) if wanted else []
            for mname, fn in found:
                targets.append((cls, mname, fn, layer, f"{layer}.{cname}.{mname}"))
    wrapped = {}
    for owner, name, fn, layer, key in targets:
        if id(fn) in wrapped:
            continue
        wrapped[id(fn)] = tracer.wrap(fn, layer, key, OBSERVERS.get(key))
        setattr(owner, name, wrapped[id(fn)])
        tracer.bound.add(key)
    # Rebind every import-by-name of a wrapped function in mgt's modules.
    # ``targets`` keeps every original alive, so an id names one function.
    for module in _loaded_mgt_modules():
        namespace = vars(module)
        for name, obj in list(namespace.items()):
            if id(obj) in wrapped:
                namespace[name] = wrapped[id(obj)]
    _wrap_checks(tracer)
    return tracer


def _loaded_mgt_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "mgt" or name.startswith("mgt.")):
            yield module


def _wrap_checks(tracer: Tracer) -> None:
    """Time each identity of the suite catalog under its own key."""
    suite = importlib.import_module("mgt.suite") if "suite" in tracer.bound else None
    checks = getattr(suite, "CHECKS", None)
    if not isinstance(checks, list):
        return
    for i, entry in enumerate(checks):
        cid, fn = entry[0], entry[-1]
        key = f"suite:{cid}"
        checks[i] = (*entry[:-1], tracer.wrap(fn, "suite", key))
        tracer.bound.add(key)


def absorb(totals: dict, snap: dict, factor: float) -> None:
    """Add one op's raw record into ``totals``, times scaled by ``factor``."""
    for part in ("self_s", "incl_s"):
        acc = totals.setdefault(part, {})
        for k, v in snap[part].items():
            acc[k] = acc.get(k, 0.0) + v * factor
    for part in ("calls", "hits", "entries"):
        acc = totals.setdefault(part, {})
        for k, v in snap[part].items():
            acc[k] = acc.get(k, 0) + v
    st = totals.setdefault("stats", {})
    for k, v in snap["stats"].items():
        if k.endswith("_max"):
            st[k] = max(st.get(k, 0), v)
        elif k.endswith("_s"):
            st[k] = st.get(k, 0.0) + v * factor
        else:
            st[k] = st.get(k, 0) + v
