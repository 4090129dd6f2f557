"""Spans around the benchmark's calls into the program's layers.

A span is (id, parent id, name, start ns, end ns, tag).  Spans are kept in
memory and written out once, when the traced process ends.  The program
itself is not instrumented: `bind` hands the workload either the layer
functions themselves (untraced, so no span can be recorded) or wrappers
that record one span per call.
"""

import json
import time
from contextlib import contextmanager
from statistics import median
from types import SimpleNamespace

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [0]

    @contextmanager
    def span(self, name, tag=""):
        sid = len(self.spans) + 1
        parent = self._stack[-1]
        record = [sid, parent, name, _clock(), 0, tag]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = _clock()

    def wrap(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def median_of(self, name, parent_tag=None, scale=1.0, tag=None):
        """Median duration in seconds (times `scale`) of the spans called
        `name`, optionally only those carrying `tag` or whose parent
        carries `parent_tag`."""
        spans = self.spans
        values = [(s[4] - s[3]) / 1e9 for s in spans
                  if s[2] == name
                  and (tag is None or s[5] == tag)
                  and (parent_tag is None
                       or (s[1] and spans[s[1] - 1][5] == parent_tag))]
        if not values:
            raise LookupError(f"no span {name!r} with tag {tag!r} under "
                              f"{parent_tag!r}")
        return median(values) * scale

    def write(self, path):
        keys = ("id", "parent", "name", "start_ns", "end_ns", "tag")
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")


def bind(layers, tracer=None):
    """Namespace of layer functions, keyed by function name.

    `layers` maps a layer name to (module, function names).  With a tracer
    each function is wrapped in a span named "<layer>.<function>".
    """
    api = {}
    for layer, (module, names) in layers.items():
        for name in names:
            fn = getattr(module, name)
            api[name] = tracer.wrap(f"{layer}.{name}", fn) if tracer else fn
    return SimpleNamespace(**api)
