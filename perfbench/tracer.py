"""In-memory span recorder for the benchmark's traced run.

The tracer wraps the program's functions at the module attribute their
caller looks up (``deepicf.training.backward``, not
``deepicf.model.backward``), so it sees every call without a change to
the program. A span is (id, parent id, name, run id, start, end); spans
stay in memory and are written out once, when the run ends. A wrapped
name that the program no longer has is recorded as absent and reports
zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets):
        """``targets``: (module name, attribute, span name) triples."""
        self.targets = targets
        self.spans = []
        self.run = None
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._originals = []

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _exit(self, token, name):
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, start = token
        self.spans.append((span_id, parent, name, self.run, start, end))

    def wrap(self, fn, name):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(token, name)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        token = self._enter()
        try:
            yield
        finally:
            self._exit(token, name)

    def install(self):
        self.absent = []
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def installed(self, run):
        self.run = run
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.run = None

    def totals(self):
        """{(run label, span name): [calls, seconds, self seconds]}, where
        the run label is the run id without its repetition number and a
        span's self time excludes the time its child spans cover."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, name, run, start, end in self.spans:
            acc = out[(run[0] if run else None, name)]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[span_id]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("span_id,parent_id,name,run,start_s,end_s\n")
            for span_id, parent, name, run, start, end in self.spans:
                run_id = f"{run[0]}#{run[1]}" if run else ""
                f.write(f"{span_id},{parent},{name},{run_id},{start!r},{end!r}\n")
