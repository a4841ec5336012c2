"""Span recorder for the traced benchmark run.

Nothing here lives in the library: :func:`install` wraps the public
functions of each ``qcorr`` module from outside, rebinding every name in
every ``qcorr`` namespace that holds the same function object, and wraps
``__post_init__`` of ``DensityMatrix`` and ``CovarianceMatrix`` on the
class. ``scipy.optimize.minimize`` is wrapped separately where
``qcorr.discord`` and ``qcorr.gaussian`` bind it, so the two searches'
refinements get their own spans and evaluation counts.

Spans are kept in memory as ``[name, start, end, parent, call_id]`` and
written out once, at the end, by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("probability", "states", "measurement", "discord", "gaussian", "quench", "cli")
NAME, START, END, PARENT, CALL = range(5)


class Recorder:
    """In-memory spans and counters of one traced pass (single-threaded)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.call_id = None
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.call_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, dumped: dict, call_id):
        """Append spans recorded by another process as one call."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dumped["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, call_id])
        self.counts.update(dumped["counts"])


def _count_discord(counts, result):
    counts["discord.evaluations"] += result.trace.evaluations
    counts["discord.converged"] += int(result.trace.converged)


def _count_nfev(key):
    def hook(counts, result):
        counts[key] += int(result.nfev)

    return hook


HOOKS = {"discord.discord": _count_discord}
# (module, bound name) -> span name and counter for scipy's minimize
REFINEMENTS = {
    ("discord", "minimize"): ("discord.refine", "discord.refine.nfev"),
    ("gaussian", "minimize"): ("gaussian.oracle_refine", "gaussian.oracle.nfev"),
}
CONSTRUCTORS = {("states", "DensityMatrix"), ("gaussian", "CovarianceMatrix")}


def install(recorder: Recorder) -> list:
    """Wrap the library in place; returns what :func:`uninstall` restores."""
    package = importlib.import_module("qcorr")
    modules = {layer: importlib.import_module(f"qcorr.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = recorder.wrap(name, obj, HOOKS.get(name))
    restore = []
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                restore.append((namespace, attr, obj))
                setattr(namespace, attr, wrappers[id(obj)])
    for (layer, attr), (name, counter) in REFINEMENTS.items():
        module = modules[layer]
        original = getattr(module, attr)
        restore.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original, _count_nfev(counter)))
    for layer, cls_name in CONSTRUCTORS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__["__post_init__"]
        restore.append((cls, "__post_init__", original))
        cls.__post_init__ = recorder.wrap(f"{layer}.{cls_name}.__post_init__", original)
    return restore


def uninstall(restore: list):
    for namespace, attr, original in reversed(restore):
        setattr(namespace, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child_time[i] for i, span in enumerate(spans)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, kinds: dict, returned: set) -> dict:
    """Per-layer counts and times of one traced pass. The per-item figures
    divide the spans of the calls in ``returned`` by ``kinds``, the item
    counts (``qubit_state``, ``gaussian_item``, ``cli_call``) of those calls."""
    calls, item_calls, inclusive, own = Counter(), Counter(), Counter(), Counter()
    layer_calls, layer_self = Counter(), Counter()
    for span, self_s in zip(recorder.spans, self_times(recorder.spans)):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        item_calls[name] += span[CALL] in returned
        inclusive[name] += span[END] - span[START]
        own[name] += self_s
        layer_calls[layer] += 1
        layer_self[layer] += self_s
    counts = recorder.counts
    density = "states.DensityMatrix.__post_init__"
    covariance = "gaussian.CovarianceMatrix.__post_init__"
    searches = calls["discord.discord"]
    oracle = calls["gaussian.minimize_gaussian_measurement"]
    return {
        "states.density_ctor.calls": calls[density],
        "states.density_ctor.self_s": own[density],
        "states.density_ctor.per_qubit_state": _ratio(item_calls[density], kinds["qubit_state"]),
        "states.partial_trace.calls": calls["states.partial_trace"],
        "states.von_neumann_entropy.calls": calls["states.von_neumann_entropy"],
        "states.self_s": layer_self["states"],
        "discord.calls": searches,
        "discord.self_s": layer_self["discord"],
        "discord.evaluations": counts["discord.evaluations"],
        "discord.evaluations.per_search": _ratio(counts["discord.evaluations"], searches),
        "discord.refine.calls": calls["discord.refine"],
        "discord.refine.nfev": counts["discord.refine.nfev"],
        "discord.refine.nfev.per_search": _ratio(counts["discord.refine.nfev"], searches),
        "discord.refine.s": inclusive["discord.refine"],
        "discord.converged_frac": _ratio(counts["discord.converged"], searches),
        "gaussian.cov_ctor.calls": calls[covariance],
        "gaussian.cov_ctor.self_s": own[covariance],
        "gaussian.cov_ctor.per_gaussian_item": _ratio(item_calls[covariance], kinds["gaussian_item"]),
        "gaussian.evolution.calls": calls["gaussian.symplectic_evolution"],
        "gaussian.evolution.s": inclusive["gaussian.symplectic_evolution"],
        "gaussian.closed_discord.calls": calls["gaussian.gaussian_discord"],
        "gaussian.closed_discord.s": inclusive["gaussian.gaussian_discord"],
        "gaussian.oracle.calls": oracle,
        "gaussian.oracle.s": inclusive["gaussian.minimize_gaussian_measurement"],
        "gaussian.oracle.nfev": counts["gaussian.oracle.nfev"],
        "gaussian.oracle.nfev.per_call": _ratio(counts["gaussian.oracle.nfev"], oracle),
        "gaussian.mode_entropy.calls": calls["gaussian.mode_entropy"],
        "quench.report.calls": calls["quench.report_at"],
        "quench.self_s": layer_self["quench"],
        "quench.excess.s": inclusive["quench.excess_dissipated_work"],
        "quench.csv.s": inclusive["quench.reports_to_csv"],
        "probability.calls": layer_calls["probability"],
        "probability.self_s": layer_self["probability"],
        "measurement.calls": layer_calls["measurement"],
        "measurement.self_s": layer_self["measurement"],
        "cli.dispatch_s": _ratio(inclusive["cli.main"], kinds["cli_call"]),
    }
