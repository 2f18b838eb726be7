"""In-memory span recorder that wraps singcensus functions at layer boundaries.

A span is (name, start, end, parent).  Spans live in flat arrays until the
traced pass ends; ``self_ns`` then charges each span its duration minus the
time covered by its direct children.  Wrapping replaces a function object
everywhere a loaded ``singcensus`` module or class refers to it, so a layer
is traced whichever module calls it; ``restore`` undoes every replacement.
"""

import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self._patches = []
        self.paused_ns = 0
        self.counts = {}

    def now(self):
        """Trace clock: monotonic time minus any paused interval."""
        return time.perf_counter_ns() - self.paused_ns

    def pause(self, fn, *args):
        """Run fn outside the trace: its time is invisible to every span."""
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.paused_ns += time.perf_counter_ns() - t0

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(self.now())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.span_end[idx] = self.now()

    def wrapper(self, name, fn, after=None):
        """A traced stand-in for fn; ``after(result, args)`` may count."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def gen_wrapper(self, name, fn):
        """Traced stand-in for a generator function: one span per item."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, name, fn, after=None):
        """Replace fn in every loaded singcensus module that names it."""
        traced = self.wrapper(name, fn, after)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("singcensus") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)
                    hits += 1
        if not hits:
            raise RuntimeError(f"nothing refers to {name}; cannot trace it")

    def replace(self, owner, attr, new):
        """Set owner.attr to new until ``restore``."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_attr(self, owner, attr, name, after=None, generator=False):
        """Trace owner.attr (a class method or module function)."""
        fn = vars(owner)[attr]
        if generator:
            self.replace(owner, attr, self.gen_wrapper(name, fn))
        else:
            self.replace(owner, attr, self.wrapper(name, fn, after))

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def self_ns(self, duration_names=()):
        """Per-name totals of self time in ns, and the span durations of
        each name in duration_names."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        totals = {}
        durations = {name: [] for name in duration_names}
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            dur = end[i] - start[i]
            totals[name] = totals.get(name, 0) + dur - child[i]
            if name in durations:
                durations[name].append(dur)
        return totals, durations
