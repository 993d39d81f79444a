"""Layer spans recorded from outside the program.

Each public function of a layer is replaced, at the module attribute its
caller looks it up by (for example ``optimize.rank_strict_less``), with a
wrapper that times the call.  Open spans form a stack, so a span's self time
is its duration minus the time covered by its child spans.  Totals are kept
per span name instead of per span: one weighted replication makes about 60k
ranking calls, and per-span records would cost more memory than the program.
"""

from __future__ import annotations

import time

ROOT = "op"


class Tracer:
    """Span totals per name, plus counters filled by per-span hooks.

    ``totals[name]`` is ``[calls, wall_s, self_s]``.  The bottom of the
    stack is the benchmark's own op span, whose child time is the op wall
    covered by layer spans.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = [[0.0, ROOT]]
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``hook(args, result, parent)`` runs after the span has closed, with
        the name of the span that was open around the call.
        """
        orig = getattr(module, attr)
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entry = [0.0, name]
            stack.append(entry)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - entry[0]
            if hook is not None:
                hook(args, result, parent[1])
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def start_op(self) -> None:
        self._stack[0][0] = 0.0

    def covered_s(self) -> float:
        """Wall time of the current op covered by top-level layer spans."""
        return self._stack[0][0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every span of one layer (name prefix)."""
        return sum(
            t[2] for name, t in self.totals.items() if name.split(".", 1)[0] == layer
        )

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)
