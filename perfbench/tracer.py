"""Spans and counters around the public functions of each affdef layer.

Every wrapper is rebound in each ``affdef`` module that holds the original
(``from .pbw import apply_mode`` copies the name into ``deform``, ``singular``,
``cli`` and the package), so calls made inside the program are seen.  Spans
are kept in memory as ``(name, start, end, parent)``, in process CPU
seconds like the benchmark's op times, and reduced to self times
when the run ends; a span's self time is its duration minus the time its child
spans cover and minus the tracer's own bookkeeping done inside it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name): functions timed as spans.
SPANS = (
    ("affdef.liealg", "validate", "liealg.validate"),
    ("affdef.liealg", "sln", "liealg.sln"),
    ("affdef.pbw", "apply_mode", "pbw.apply_mode"),
    ("affdef.pbw", "normal_order", "pbw.normal_order"),
    ("affdef.deform", "evaluate", "deform.evaluate"),
    ("affdef.deform", "master_commute", "deform.master_commute"),
    ("affdef.rigidity", "integral_pipeline", "rigidity.pipeline"),
    ("affdef.rigidity", "admissible_pipeline", "rigidity.pipeline"),
    ("affdef.rigidity", "cross_check", "rigidity.pipeline"),
    ("affdef.rigidity", "eliminate", "rigidity.eliminate"),
    ("affdef.singular", "is_singular", "singular.is_singular"),
)

# Span names whose call counts are reported.
COUNTED = (
    "liealg.validate",
    "pbw.apply_mode",
    "pbw.normal_order",
    "deform.evaluate",
    "deform.master_commute",
    "rigidity.eliminate",
)

# Span names whose self times are reported.
TIMED = (
    "liealg.validate",
    "liealg.sln",
    "pbw.apply_mode",
    "pbw.normal_order",
    "deform.evaluate",
    "deform.master_commute",
    "rigidity.pipeline",
    "rigidity.eliminate",
    "singular.is_singular",
    "cli.command",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._bookkeeping = defaultdict(float)  # parent span -> tracer time inside it
        self.counts = Counter()
        self._apply_keys = set()
        self.state_terms_max = 0

    # -- spans -------------------------------------------------------------
    def span(self, name, fn, before=None, after=None):
        spans, stack, book, clock = self.spans, self._stack, self._bookkeeping, time.process_time

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                t = clock()
                before(*args, **kwargs)
                book[parent] += clock() - t
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(result)
                book[parent] += clock() - end
            return result

        return wrapper

    def run_span(self, name, fn):
        """Call ``fn()`` inside a span (used for in-process CLI commands)."""
        return self.span(name, fn)()

    def self_times(self) -> dict:
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - covered[idx] - self._bookkeeping.get(idx, 0.0)
        return out

    def dump(self, path):
        """Write every span as one JSON line: id, name, start, end, parent (-1 at the top)."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def span_counts(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    # -- per-layer observations -------------------------------------------
    def _note_apply(self, g, a, m, v, k):
        a_key = a if isinstance(a, int) else tuple(sorted(a.items()))
        self._apply_keys.add((g.basis, a_key, m, hash(frozenset(v.items())), str(k)))

    def _note_state(self, state):
        if len(state) > self.state_terms_max:
            self.state_terms_max = len(state)

    @property
    def apply_distinct(self) -> int:
        return len(self._apply_keys)

    # -- installation -----------------------------------------------------
    def install(self):
        """Rebind every traced function in every loaded affdef module."""
        mods = [m for n, m in list(sys.modules.items()) if n == "affdef" or n.startswith("affdef.")]
        for home, attr, name in SPANS:
            orig = getattr(sys.modules[home], attr)
            before = after = None
            if name == "pbw.apply_mode":
                before, after = self._note_apply, self._note_state
            elif name == "pbw.normal_order":
                after = self._note_state
            wrapped = self.span(name, orig, before, after)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        counts = self.counts
        liealg = sys.modules["affdef.liealg"]
        scalar = sys.modules["affdef.scalar"]
        bracket_elt = liealg.LieAlgebra.bracket_elt
        linform_init = scalar.LinForm.__init__

        def counted_bracket_elt(self_, x, y):
            counts["liealg.bracket_elt"] += 1
            return bracket_elt(self_, x, y)

        def counted_linform_init(self_, *args, **kwargs):
            counts["scalar.linform"] += 1
            linform_init(self_, *args, **kwargs)

        liealg.LieAlgebra.bracket_elt = counted_bracket_elt
        scalar.LinForm.__init__ = counted_linform_init
