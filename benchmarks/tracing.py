"""Timing spans around the package's public calls, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules (the
names in each module's ``__all__``) and a few public methods with a wrapper
that records one span per call: name, start, end, parent span and op id, plus
an optional note (an index count, node count, draw count...).  Every module
binding of a wrapped function is replaced, so calls between modules are
traced too.  Spans stay in memory until ``write``; nothing in the package is
edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import workloads

LAYERS = ("spectra", "truncation", "metric", "channel", "harness", "cli")

_NAME, _START, _END, _PARENT, _OP, _ERROR, _NOTE = range(7)


def _noise_key(args, kwargs):
    eps = args[1] if len(args) > 1 else kwargs.get("epsilon")
    return (eps, kwargs.get("log2_inv_eps"))


def _draws(args, kwargs):
    channel, trials = args[0], args[1]
    return trials * channel.k_max * (2 if channel.epsilon > 0.0 else 1)


# Notes recorded per span, computed from the call's arguments (labelled
# "computed" in the report: they count requested work, not observed work).
NOTES = {
    "spectra.eigenvalues": lambda a, kw, r: int(np.size(a[1])),
    "spectra.log2_eigenvalues": lambda a, kw, r: int(np.size(a[1])),
    "spectra.nystrom_decompose": lambda a, kw, r: int(a[1] if len(a) > 1
                                                      else kw.get("n_nodes", 2000)),
    "truncation.k0": lambda a, kw, r: _noise_key(a, kw),
    "metric.greedy_packing_count": lambda a, kw, r: (
        workloads.packing_candidates([float(x) for x in a[0]], float(a[2])), r),
    "harness.monte_carlo_mse": lambda a, kw, r: _draws(a, kw),
}
# Public methods traced in addition to the module functions.
METHODS = (("spectra", "SpectrumModel", "eigenvalues", "spectra.eigenvalues"),
           ("spectra", "SpectrumModel", "log2_eigenvalues", "spectra.log2_eigenvalues"),
           ("channel", "GaussianChannel", "__init__", "channel.GaussianChannel"),
           ("harness", "ExperimentResult", "write", "harness.write"),
           ("harness", "TrialStream", "prior_normals", "harness.TrialStream.prior_normals"),
           ("harness", "TrialStream", "noise_normals", "harness.TrialStream.noise_normals"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[_END] = clock()
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True       # count it in the innermost layer
                    rec[_ERROR] = type(exc).__name__
                raise
            else:
                rec[_END] = clock()
                if note is not None:
                    rec[_NOTE] = note(args, kwargs, result)
                return result
            finally:
                stack.pop()
        return traced

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"fredinfo.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
        package = importlib.import_module("fredinfo")
        for mod in (package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"op": s[_OP], "id": i, "parent": s[_PARENT],
                                     "name": s[_NAME], "start": s[_START],
                                     "end": s[_END], "error": s[_ERROR]}) + "\n")


def layer_metrics(spans: list[list], op_seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of one traced pass.

    Returns ``(metrics, errors_by_class)``.  Times are totals over the pass.
    """
    n = len(spans)
    dur = [s[_END] - s[_START] for s in spans]
    child_time = [0.0] * n
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] += dur[i]
            children[s[_PARENT]].append(i)

    time_by = defaultdict(float)
    calls_by = defaultdict(int)
    notes_by = defaultdict(list)
    self_by = defaultdict(float)
    errors = defaultdict(int)
    root_time = 0.0
    for i, s in enumerate(spans):
        name = s[_NAME]
        layer = name.split(".")[0]
        time_by[name] += dur[i]
        calls_by[name] += 1
        self_by[layer] += dur[i] - child_time[i]
        if s[_NOTE] is not None:
            notes_by[name].append(s[_NOTE])
        if s[_ERROR] is not None:
            errors[f"{layer}.{s[_ERROR]}"] += 1
        if s[_PARENT] < 0:
            root_time += dur[i]

    def per(name):
        count = sum(notes_by[name])
        return 1e9 * time_by[name] / count if count else 0.0

    # capacity_interval against one k0 scan per distinct noise level it needs
    scans = 0.0
    for i, s in enumerate(spans):
        if s[_NAME] != "metric.capacity_interval":
            continue
        best: dict = {}
        todo = list(children[i])
        while todo:
            j = todo.pop()
            todo.extend(children[j])
            if spans[j][_NAME] == "truncation.k0":
                key = repr(spans[j][_NOTE])
                best[key] = min(best.get(key, float("inf")), dur[j])
        scans += sum(best.values())

    packing = notes_by["metric.greedy_packing_count"]
    cand = sum(c for c, _ in packing)
    kept = sum(k for _, k in packing if isinstance(k, int))
    normals = sum(notes_by["harness.monte_carlo_mse"])
    mc = time_by["harness.monte_carlo_mse"]
    sweep = time_by["harness.convergence_sweep"]

    m = {
        "spectra.eigenvalues.ns_per_index": per("spectra.eigenvalues"),
        "spectra.log2_eigenvalues.ns_per_index": per("spectra.log2_eigenvalues"),
        "spectra.nystrom_decompose.s": time_by["spectra.nystrom_decompose"],
        "spectra.nystrom_decompose.nodes": sum(notes_by["spectra.nystrom_decompose"]),
        "truncation.k0.s": time_by["truncation.k0"],
        "truncation.k0.calls": calls_by["truncation.k0"],
        "truncation.k0_closed_form.s": time_by["truncation.k0_closed_form"],
        "metric.capacity_interval.s": time_by["metric.capacity_interval"],
        "metric.capacity_interval.k0_ratio": (
            time_by["metric.capacity_interval"] / scans if scans else 0.0),
        "metric.entropy_lower_bound.s": time_by["metric.entropy_lower_bound"],
        "metric.entropy_upper_bound.s": time_by["metric.entropy_upper_bound"],
        "metric.max_message_length_log2.s": time_by["metric.max_message_length_log2"],
        "metric.greedy_packing_count.s": time_by["metric.greedy_packing_count"],
        "metric.greedy_packing_count.candidates": cand,
        "metric.greedy_packing_count.kept_per_candidate": kept / cand if cand else 0.0,
        "channel.GaussianChannel.s": time_by["channel.GaussianChannel"],
        "channel.partition_IN.s": time_by["channel.partition_IN"],
        "channel.total_information.s": time_by["channel.total_information"],
        "channel.k_alpha.s": time_by["channel.k_alpha"],
        "channel.mse_closed_form.s": time_by["channel.mse_closed_form"],
        "channel.component_information.s": time_by["channel.component_information"],
        "harness.convergence_sweep.s": sweep,
        "harness.monte_carlo_mse.s": mc,
        "harness.monte_carlo_mse.normals": normals,
        "harness.TrialStream.ns_per_normal": 1e9 * mc / normals if normals else 0.0,
        "harness.draw_share": mc / sweep if sweep else 0.0,
        "harness.write.s": time_by["harness.write"],
        "trace.coverage": root_time / op_seconds if op_seconds else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by[layer]
        m[f"{layer}.errors"] = sum(v for k, v in errors.items() if k.startswith(layer + "."))
    return m, dict(errors)
