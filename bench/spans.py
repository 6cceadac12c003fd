"""Spans around anharm's public functions, recorded from outside the program.

`install` replaces module attributes with timing wrappers and returns a
function that puts the originals back.  Calls inside anharm go through those
module attributes (`engine.compute_series`, `oracle._integrate`, ...), so the
wrappers see them too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

# (module, attribute, span name).  The sweep is private: when a later version
# of the solver has no `_integrate`, the sweep metrics are reported absent.
WRAPPED = (
    ("engine", "compute_series", "engine.compute_series"),
    ("resummation", "partial_sums", "resummation.partial_sums"),
    ("resummation", "divergence_diagnostics", "resummation.divergence_diagnostics"),
    ("resummation", "pade", "resummation.pade"),
    ("oracle", "default_config", "oracle.default_config"),
    ("oracle", "solve_radial", "oracle.solve_radial"),
    ("oracle", "_integrate", "oracle.sweep"),
    ("oracle", "compare_with_series", "oracle.compare_with_series"),
    ("wavefunction", "harmonic_d_coefficients", "wavefunction.harmonic_d_coefficients"),
    ("wavefunction", "node_polynomial", "wavefunction.node_polynomial"),
    ("cli", "main", "cli.main"),
)


def _span_name(base: str, args) -> str:
    """Split compute_series by harmonic potential and cli.main by subcommand."""
    if base == "engine.compute_series" and args and getattr(args[0], "is_harmonic", False):
        return base + ".harmonic"
    if base == "cli.main" and args and args[0]:
        argv = list(args[0])
        return f"{base}.{argv[0]}" + ("-sweep" if "--sweep" in argv else "")
    return base


class Tracer:
    """Records spans as [name, start, end, parent index, job index, thread,
    thread CPU seconds].  Self time is measured in thread CPU time: under the
    interpreter lock a worker thread's wall time also counts the time it
    waited for the lock, which would count the same work once per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.present: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, base: str):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span hangs under the main thread's open span.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            with self._lock:
                index = len(self.spans)
                span = [_span_name(base, args), 0.0, 0.0, parent, self.job,
                        threading.get_ident(), 0.0]
                self.spans.append(span)
            stack.append(index)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[6] = time.thread_time() - cpu
                span[1] = start
                stack.pop()

        return wrapper

    def install(self, modules: dict):
        """Wrap every WRAPPED function that exists; return the undo function."""
        originals = []
        for mod_name, attr, base in WRAPPED:
            module = modules[mod_name]
            func = getattr(module, attr, None)
            if func is None:
                continue
            self.present.add(base)
            originals.append((module, attr, func))
            setattr(module, attr, self.wrap(func, base))

        def restore():
            for module, attr, func in originals:
                setattr(module, attr, func)

        return restore

    def self_times(self) -> list[tuple[str, float, int]]:
        """(name, self seconds, job index) per span: its CPU time minus that of
        its children on the same thread (children on other threads ran on
        their own thread's clock)."""
        nested = defaultdict(float)
        for name, _, _, parent, _, thread, cpu in self.spans:
            if parent >= 0 and self.spans[parent][5] == thread:
                nested[parent] += cpu
        return [(span[0], span[6] - nested[i], span[4]) for i, span in enumerate(self.spans)]
