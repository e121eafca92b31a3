"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of every `wfano` module and
puts the wrapper at each name that callers look up: the defining module
and every module that imported the function, such as
`wfano.enumerator.is_representable` or `wfano.classifier.basket`.  Nothing
under `src/` is edited.  A wrapper counts calls and measures total and
self time (its duration minus the time of wrapped calls made inside it);
a few layers also count outcomes.  `uninstall` puts the originals back.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

# outcome counters: layer -> (counter name, function of the result)
_OUTCOMES = {
    "enumerator.is_quasismooth_general": ("passed", bool),
    "enumerator.has_only_terminal_isolated_sings": ("passed", bool),
    "enumerator.enumerate_families": ("accepted", len),
    "classifier.verify_family": ("checks", len),
    "blowup.solve_gram": ("unknowns", lambda gram: len(gram) * (len(gram) + 1) // 2),
    "blowup.is_negative_definite": ("true", lambda verdict: verdict is True),
}
# weight systems examined by these predicates inside enumerate_families
# are the enumeration's candidates
_PREDICATES = ("enumerator.is_quasismooth_general", "enumerator.has_only_terminal_isolated_sings")
_ENUMERATION = "enumerator.enumerate_families"


class Tracer:
    """Per-layer call counts and times, kept in memory."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.candidates: set[tuple[int, ...]] = set()
        self._stack: list[float] = []  # time of wrapped children, per open span
        self._enumerating = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wfano" or n.startswith("wfano."))]
        wrappers = {}
        for module in modules:
            short = module.__name__.removeprefix("wfano.")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def snapshot(self) -> dict[str, dict[str, float]]:
        out = {layer: dict(s) for layer, s in self.stats.items()}
        out["enumerator.candidates"] = {"count": len(self.candidates)}
        return out

    def reset(self):
        for s in self.stats.values():
            for key in s:
                s[key] = 0
        self.candidates.clear()

    def _wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        outcome = _OUTCOMES.get(layer)
        if outcome:
            stats[outcome[0]] = 0
        stack = self._stack
        is_predicate = layer in _PREDICATES
        is_enumeration = layer == _ENUMERATION

        def wrapper(*args, **kwargs):
            if is_predicate and self._enumerating:
                self.candidates.add(tuple(args[0]))
            if is_enumeration:
                self._enumerating += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if is_enumeration:
                    self._enumerating -= 1
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - children
            if outcome:
                stats[outcome[0]] += int(outcome[1](result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
