"""Spans around the public functions of each orchnet layer.

The tracer times layers from outside: it replaces every binding of a
boundary function in the ``orchnet.*`` module namespaces (matched by
identity, so ``from .timed import end_to_end`` in another module is
caught too) with a wrapper that records a span.  Methods are wrapped on
their class.  Spans stay in memory, each with its op id and parent span;
``write`` dumps them when the run ends.

A layer's self time is its span minus the time its child spans cover.
Counts are read off return values.  Leaf functions of ``attributes`` and
``specs`` are deliberately not wrapped: they run millions of times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


# (module, qualified name) -> {count name: how to read it off the return value}
BOUNDARIES = {
    ("orchnet.document", "loads"): {},
    ("orchnet.document", "build"): {},
    ("orchnet.nets", "is_sound"): {"markings": lambda r: r.markings_explored},
    ("orchnet.nets", "validate_occurrence_net"): {},
    ("orchnet.nets", "compute_relations"): {},
    ("orchnet.nets", "maximal_configurations"): {"configs": len},
    ("orchnet.unfolding", "unfold"): {"events": lambda r: len(r.unfolding.transitions)},
    ("orchnet.unfolding", "induced_preorchnet"): {},
    ("orchnet.timed", "execute"): {"steps": lambda r: len(r.step_order)},
    ("orchnet.timed", "end_to_end"): {"steps": lambda r: len(r.run.step_order)},
    ("orchnet.timed", "summarize_run"): {},
    ("orchnet.timed", "latency_of_prefix"): {},
    ("orchnet.timed", "PreOrchNet.assignments"): {"members": len},
    ("orchnet.timed", "PreOrchNet.instantiate"): {},
    ("orchnet.monotony", "structural_check"): {},
    ("orchnet.monotony", "brute_force_monotony"): {
        "pairs": lambda r: r.pairs_checked,
        "members": lambda r: r.members_checked,
    },
    ("orchnet.monotony", "synthesize_counterexample"): {},
    ("orchnet.monotony", "verify_counterexample"): {},
}


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('orchnet.')}.{qualname}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.counts: dict[str, dict[str, int]] = {
            span_name(*key): dict.fromkeys(getters, 0) for key, getters in BOUNDARIES.items()
        }
        self.stack: list[int] = []
        self.op = -1
        self.active = False  # off while the benchmark checks an answer
        self.absent: list[str] = []  # boundaries no longer in the code
        self.uncounted: set[str] = set()  # counts whose return value changed shape

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def _wrap(self, name: str, fn, getters):
        spans, stack, counts = self.spans, self.stack, self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id so children sort after it
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if stack and stack[-1] == span_id:
                    stack.pop()
                spans[span_id] = (self.op, span_id, parent, name, start, end)
            for key, getter in getters.items():
                try:
                    counts[key] += getter(result)
                except (AttributeError, TypeError):
                    self.uncounted.add(f"{name}.{key}")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary that still exists; note the ones that do not."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "orchnet" or n.startswith("orchnet.")]
        for (module_name, qualname), getters in BOUNDARIES.items():
            name = span_name(module_name, qualname)
            home = sys.modules.get(module_name)
            owner, attr = home, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(home, cls_name, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if not callable(target):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, target, getters)
            if owner is not home:
                setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is target:
                            setattr(module, key, wrapper)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds, and counts per boundary; an
        absent boundary reads zero everywhere."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[2] >= 0:
                child_time[span[2]] += span[5] - span[4]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.counts
        }
        for span in self.spans:
            if span is None:
                continue
            entry = out[span[3]]
            duration = span[5] - span[4]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span[1]]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def calls_under(self, inner: str, outer: str, ops=None) -> int:
        """Spans named ``inner`` with an ``outer`` span among their ancestors."""
        by_id = {s[1]: s for s in self.spans if s is not None}
        n = 0
        for span in by_id.values():
            if span[3] != inner or (ops is not None and span[0] not in ops):
                continue
            parent = by_id.get(span[2])
            while parent is not None:
                if parent[3] == outer:
                    n += 1
                    break
                parent = by_id.get(parent[2])
        return n

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["op", "id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
