"""Spans and counters around the public functions of each `pvi` module.

The wrappers live here, not in the program: `Tracer.install` replaces each
public function of a module at every module attribute that refers to it
(so `fuchsian.adaptive_rk` is wrapped as well as `rk.adaptive_rk`), and
`Tracer.uninstall` puts the originals back.  A span is a list
[name, start, end, parent index]; spans of one operation stay in memory
until `take` turns them into per-name totals.  Self time is a span's
duration minus the durations of its direct children.

`rk.adaptive_rk` gets more: its right-hand side `f`, its `max_step`
clamp and its `on_accept` hook are wrapped as child spans, so that its self
time is the integrator's own arithmetic, and the accepted steps are
counted at the hook.  Each call makes one evaluation of `f` up front and
six per attempted step, which gives the rejected steps.
"""

from __future__ import annotations

import inspect
import time
import types
from collections import Counter, defaultdict

RK = "rk.adaptive_rk"
RHS = "rk.rhs"


def _word_letters(word):
    if isinstance(word, str):
        return len(word.replace(",", " ").split())
    return len(word)


# name -> function(args, result) giving (counter, increment); run after the call.
_RESULT_COUNTERS = {
    "flow.integrate": lambda args, result: ("flow.samples", len(result.samples)),
    "modular.apply_word": lambda args, result: ("modular.apply_word.letters", _word_letters(args[0])),
}


class Tracer:
    def __init__(self, package, module_names):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self._patches = []
        modules = [getattr(package, name) for name in module_names]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and (short != "cli" or attr == "main")):
                    wrapped[fn] = self._wrap_rk(fn) if f"{short}.{attr}" == RK else self._span(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrapped:
                    self._patches.append((mod, attr, fn, wrapped[fn]))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = _RESULT_COUNTERS.get(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                key, n = after(args, result)
                counters[key] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_rk(self, fn):
        signature = inspect.signature(fn)
        counters = self.counters
        span_rk = self._span(RK, fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            params = bound.arguments
            params["f"] = self._span(RHS, params["f"])
            if callable(params.get("max_step")):
                params["max_step"] = self._span("rk.max_step", params["max_step"])
            hook = params.get("on_accept")
            hook = None if hook is None else self._span("rk.on_accept", hook)

            def on_accept(*a):
                counters["rk.accepted"] += 1
                if hook is not None:
                    hook(*a)

            params["on_accept"] = on_accept
            return span_rk(*bound.args, **bound.kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """Per-name calls, total and self seconds of the spans so far, and the counters.

        No public function of `pvi` calls itself, directly or through
        another, so summing the durations of all spans of a name counts no
        interval twice.
        """
        child = [0.0] * len(self.spans)
        rhs_children = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name == RHS:
                    rhs_children[parent] += 1
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - c
        counters = Counter(self.counters)
        counters["rk.rhs_evals"] = calls[RHS]
        attempts = sum(max(0, n - 1) // 6 for n in rhs_children.values())
        counters["rk.rejected"] = attempts - counters["rk.accepted"]
        self.spans.clear()
        self.counters.clear()
        return calls, total, self_s, counters
