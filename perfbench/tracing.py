"""Span tracing for the benchmark: timing wrappers around ddiqkd functions.

``Tracer.install`` replaces each traced function in every ddiqkd namespace
that holds it, because callers look functions up in different places:
``verify`` imports ``rho_bob`` by name, while ``rates.optimize_mu`` looks
``key_rate`` up as a module global.  ``Tracer.uninstall`` puts the originals
back.  Spans are recorded only inside ``Tracer.operation``, so the
benchmark's own output checks never appear in a trace.

A span is (name, start ns, end ns, parent span index or -1, operation id).
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "ddiqkd"

# span name -> (module, attribute path) of the traced callable.  keyrate_curve
# and appendix_checks are traced so that cli.main's self time is the CLI's own.
SPANNED = {
    "cli.main": ("cli", "main"),
    "session.run_session": ("session", "run_session"),
    "session.to_dict": ("session", "SessionReport.to_dict"),
    "rates.keyrate_curve": ("rates", "keyrate_curve"),
    "rates.optimize_mu": ("rates", "optimize_mu"),
    "rates.optimize_mu_bb84": ("rates", "optimize_mu_bb84"),
    "rates.key_rate": ("rates", "key_rate"),
    "rates.bb84_reference_rate": ("rates", "bb84_reference_rate"),
    "verify.appendix_checks": ("verify", "appendix_checks"),
    "verify.check_receiver_state_fixed": ("verify", "check_receiver_state_fixed"),
    "verify.check_basis_independence": ("verify", "check_basis_independence"),
    "verify.check_bsm_equivalence": ("verify", "check_bsm_equivalence"),
    "verify.check_flip_table": ("verify", "check_flip_table"),
    "encoding.rho_bob": ("encoding", "rho_bob"),
    "qstate.reduce_density": ("qstate", "reduce_density"),
    "qstate.trace_distance": ("qstate", "trace_distance"),
    "bsm.mode_network_distribution": ("bsm", "mode_network_distribution"),
    "bsm.ideal_bsm_distribution": ("bsm", "ideal_bsm_distribution"),
}

# counted without a span, so their time stays in the caller's self time
COUNTED = {
    "session.shards": ("session", "_run_shard"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for ``ddiqkd.<module>:<path>``."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs timing wrappers and keeps the spans they record in memory."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def operation(self, op_id: int):
        """Record spans and counts of everything called inside the block."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (module, path) in SPANNED.items():
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make_wrapper):
        owner, attr, original = _resolve(module, path)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            # every package namespace that bound the function, by any name
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserved; filled in when the call returns
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, total self time in ns)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + (end - start) - children)
        return out

    def write(self, path):
        """Write every span as a tab-separated line, oldest first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
