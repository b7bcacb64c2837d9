"""Span tracer that wraps package functions from outside the package.

A traced function is replaced at every module attribute of the package
that refers to it (``soc_sim.authorize`` and ``token_authority.authorize``
are the same function reached through two modules), or at its class
attribute for a method.  Each call records a span ``[name, start, end,
parent, tag]`` in memory; ``restore`` puts every original attribute back.
Spans are written once, by ``write``, after the measured work.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Optional

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tag: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> Callable:
        """tag(args, kwargs) labels the span; observe(counts, args, kwargs,
        result) updates counters after a call that returned."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, module: str, attr: str, **hooks) -> bool:
        """Trace ``<package>.<module>.<attr>``, where attr is a function name
        or ``Class.method``.  Returns False when the target does not exist."""
        mod = sys.modules.get(f"{self.package}.{module}")
        name = f"{module}.{attr}"
        if mod is None:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(mod, cls_name, None)
            original = vars(cls).get(meth) if isinstance(cls, type) else None
            if not callable(original):
                return False
            self._set(cls, meth, self.wrap(name, original, **hooks))
            return True
        original = getattr(mod, attr, None)
        if not callable(original):
            return False
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == self.package
                                     or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper)
        return True

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def summary(self) -> dict:
        """Per span name: calls, total self time (s), inclusive per-call
        durations (s), and self time per tag."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            entry = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "durations": [],
                                               "self_by_tag": Counter()})
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            entry["durations"].append(dur)
            if rec[TAG] is not None:
                entry["self_by_tag"][rec[TAG]] += dur - child[i]
        return out

    def write(self, path) -> None:
        """All spans as TSV: id, parent, name, tag, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\ttag\tstart_ns\tend_ns\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t{rec[PARENT]}\t{rec[NAME]}\t{rec[TAG] or ''}\t"
                         f"{int(rec[START] * 1e9)}\t{int(rec[END] * 1e9)}\n")


def percentile_us(durations: list[float], q: int) -> float:
    """q-th percentile (1..99) of durations, in microseconds; 0 when empty."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6
