"""Per-layer tracing of qotp from outside the package.

Installing a ``Tracer`` wraps the public functions of each layer (the
modules of ``src/qotp``) listed in ``TARGETS``.  A wrapped function reports
its call count, busy time (wall time inside it; only the outermost call
counts when it recurses) and self time (busy time minus the time of the
wrapped functions it called).  ``SPAN`` targets also record one span per
call, with name, start, end, parent span and op id, kept in memory until
the caller writes them out.  ``PER_PHOTON`` targets run once per photon and
keep only the count and summed times; ``COUNT`` targets only count.

Callers import some of these names into their own modules (``from
.adversary import attack_photon``), so a wrapper replaces every attribute of
every loaded ``qotp`` module that is bound to the original function: the
name where each caller looks it up.  A target the package no longer has
reports zero calls.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

PACKAGE = "qotp"
SPAN, PER_PHOTON, COUNT = "span", "per_photon", "count"


def _kernel_work(args, result):
    n = len(result[0])
    # computed, not measured: three int64 input columns and the (n, 3)
    # float64 uniform table the kernel reads, plus the columns it writes
    return n, n * (3 * 8 + 3 * 8) + sum(a.nbytes for a in result)


def _len_first_arg(args, result):
    return (len(args[0]),)


def _len_result(args, result):
    return (len(result),)


# (metric prefix, module, attribute path, kind, work names, work counted per call)
TARGETS = (
    ("cli.main", "cli", "main", SPAN, (), None),
    ("kernels.simulate_photons", "kernels", "simulate_photons", SPAN,
     ("photons", "bytes_computed"), _kernel_work),
    ("analysis.sweep_theta", "analysis", "sweep_theta", SPAN, (), None),
    ("analysis.run_photon_batch", "analysis", "run_photon_batch", SPAN, (), None),
    ("protocol.run_session", "protocol", "run_session", SPAN, (), None),
    ("protocol.build_modified_message", "protocol", "build_modified_message", SPAN, (), None),
    ("protocol.alice_encode", "protocol", "alice_encode", SPAN, (), None),
    ("protocol.eavesdrop_check", "protocol", "eavesdrop_check", SPAN, (), None),
    ("protocol.SessionTranscript.to_json", "protocol", "SessionTranscript.to_json", SPAN,
     ("bytes",), _len_result),
    ("adversary.attack_photon", "adversary", "attack_photon", PER_PHOTON, (), None),
    ("adversary.eve_measure_probe", "adversary", "eve_measure_probe", PER_PHOTON, (), None),
    ("adversary.known_plaintext_infer", "adversary", "known_plaintext_infer", SPAN, (), None),
    ("quantum.measure", "quantum", "measure", PER_PHOTON, (), None),
    ("quantum.measure_photon_of_joint", "quantum", "measure_photon_of_joint", PER_PHOTON, (), None),
    ("quantum.StateVector.constructed", "quantum", "StateVector.__post_init__", COUNT, (), None),
    ("keystore.draw_basis_keys", "keystore", "draw_basis_keys", SPAN,
     ("bits",), lambda args, result: (2 * len(result),)),
    ("keystore.recycle_pad", "keystore", "recycle_pad", SPAN, ("bits",), _len_first_arg),
    ("keystore.generate_pad", "keystore", "generate_pad", SPAN, ("bits",), _len_result),
    ("keystore.pad_from_text", "keystore", "pad_from_text", SPAN, ("bits",), _len_result),
    ("keystore.pad_to_text", "keystore", "pad_to_text", SPAN, ("bits",), _len_first_arg),
    ("rng.make_rng.calls", "rng", "make_rng", COUNT, (), None),
    ("rng.derive_subseed.calls", "rng", "derive_subseed", COUNT, (), None),
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced batch reports, in report order."""
    names = []
    for prefix, _, _, kind, work_names, _ in TARGETS:
        if kind == COUNT:
            names.append(prefix)
            continue
        names += [f"{prefix}.calls", f"{prefix}.busy_s", f"{prefix}.self_s"]
        names += [f"{prefix}.{w}" for w in work_names]
        if "photons" in work_names:
            names.append(f"{prefix}.ns_per_photon")
    return names


class _Stat:
    __slots__ = ("calls", "busy_s", "self_s", "depth", "work")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.work = defaultdict(int)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._ids = itertools.count()
        self._stack: list[list] = []  # [time in wrapped children, enclosing span id]
        self._stats: dict[str, _Stat] = {}
        self._undo: list[tuple] = []

    def install(self) -> None:
        """Wrap every target that exists; statistics start from zero."""
        self._stats = {prefix: _Stat() for prefix, *_ in TARGETS}
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for prefix, module_name, path, kind, work_names, work in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            if kind == COUNT:
                wrapper = self._counter(original, self._stats[prefix])
            else:
                wrapper = self._timer(original, prefix, kind == SPAN, self._stats[prefix],
                                      work_names, work)
            owners = [owner] if owner_name else modules
            for target in owners:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def _counter(self, fn, stat: _Stat):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timer(self, fn, name: str, record_span: bool, stat: _Stat, work_names, work):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            frame = [0.0, next(ids) if record_span else parent_span]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                elapsed = end - start
                if parent is not None:
                    parent[0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stat.depth == 0:
                    stat.busy_s += elapsed
                if record_span:
                    spans.append((frame[1], name, start, end, parent_span, self.op_id))
            if work is not None:
                for key, amount in zip(work_names, work(args, result)):
                    stat.work[key] += amount
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since ``install``."""
        out = {}
        for prefix, _, _, kind, work_names, _ in TARGETS:
            stat = self._stats[prefix]
            if kind == COUNT:
                out[prefix] = stat.calls
                continue
            out[f"{prefix}.calls"] = stat.calls
            out[f"{prefix}.busy_s"] = stat.busy_s
            out[f"{prefix}.self_s"] = stat.self_s
            for w in work_names:
                out[f"{prefix}.{w}"] = stat.work[w]
            if "photons" in work_names:
                photons = stat.work["photons"]
                out[f"{prefix}.ns_per_photon"] = stat.busy_s / photons * 1e9 if photons else 0.0
        return out
