"""In-memory spans recorded around calls into splitenc's modules.

The benchmark traces the package from outside: it replaces a module-level
name that splitenc looks up at call time (for example
``splitenc.monte_carlo.simulate_dgp1``) with a wrapper that records one span
per call, and restores the original afterwards.  Nothing in ``src/`` knows
about tracing.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    """Records (id, parent, root, name, start_ns, end_ns) spans in memory.

    Spans nest by call order: a span opened while another is open becomes
    its child, and every span carries the id of its outermost ancestor, so
    the spans of one replication or one CLI call share that identifier.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent, root = stack[-1] if stack else (None, sid)
            stack.append((sid, root))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, root, name, start, end))

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``getattr(owner, attr)`` as span ``name`` for each (owner, attr, name)."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: call count, total and self time in ns.

        Self time is a span's duration minus the durations of its direct
        children.  ``module_ns`` sums self time by the span name's prefix
        (``dgp`` for ``dgp.simulate``); ``top_ns`` sums the spans that have
        no parent.
        """
        child_ns = defaultdict(int)
        for sid, parent, _root, _name, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        top_ns = 0
        for sid, parent, _root, name, start, end in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - child_ns[sid]
            if parent is None:
                top_ns += dur
        module_ns = defaultdict(int)
        for name, ns in self_ns.items():
            module_ns[name.split(".")[0]] += ns
        return {"calls": dict(calls), "total_ns": dict(total), "self_ns": dict(self_ns),
                "module_ns": dict(module_ns), "top_ns": top_ns}

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                     "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")
