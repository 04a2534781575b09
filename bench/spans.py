"""Span recording around labelpure's public functions, and the per-layer
numbers derived from the spans.

A span is a list ``[name, start, end, parent, error, notes]``: ``start`` and
``end`` are ``time.perf_counter()`` readings, ``parent`` is the index of the
enclosing span in the same list (-1 for none), ``error`` is the exception
type name when the call raised, and ``notes`` is a small dict some wrappers
attach (bytes read, whether a replacement changed a label).

Each wrapper replaces a function at the module attribute its caller looks up.
The purify loop holds its own references to the ipc, eac and data functions,
so they are wrapped on ``labelpure.purifier``; retraining looks up
``labelpure.evaluate.eac_train_step``; the CLI handlers import ``data``,
``noise``, ``purifier`` and ``evaluate`` inside each handler and so see the
module attributes at call time. Spans stay in memory until the caller takes
them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time

# Module -> attributes wrapped there. A span is named "<module>.<attribute>"
# after the module whose attribute was replaced, i.e. the caller's view.
TARGETS = {
    "labelpure.purifier": (
        "purify",
        "loss_and_label_gradient",
        "ipc_step",
        "eac_train_step",
        "classifier_forward",
        "eac_label_update",
        "softmax",
        "save_report",
    ),
    "labelpure.evaluate": (
        "train_linear_ce",
        "train_linear_on_targets",
        "eac_train_step",
        "evaluate_classifier",
    ),
    "labelpure.data": (
        "load_features",
        "load_hard_labels",
        "load_onehot_csv",
        "write_features",
        "write_hard_labels",
        "write_onehot_csv",
    ),
    "labelpure.noise": ("gen_gaussian_mixture_split", "inject_symmetric", "inject_asymmetric"),
    "labelpure.cli": ("dispatch",),
}

NOTE_SPAN = "trace.note"


def _note_replacement(args, kwargs, result):
    import numpy as np

    before = args[0] if args else kwargs["Y_t"]
    changed = bool(np.any(np.argmax(before, axis=1) != np.argmax(result, axis=1)))
    return {"useful": changed}


def _note_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _note_iterations(args, kwargs, result):
    return {"iterations": result[2].summary["iterations"]}


# Notes run after the wrapped call returns, inside a "trace.note" span that is
# a sibling of the call, so their cost leaves the call's own time untouched and
# is excluded from the caller's self time.
NOTES = {
    "purifier.eac_label_update": _note_replacement,
    "data.load_features": _note_file_bytes,
    "purifier.purify": _note_iterations,
}


class Recorder:
    """Collects spans from the wrappers it makes; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                note_span = self._open(NOTE_SPAN)
                try:
                    span[5] = note(args, kwargs, result)
                finally:
                    self._close(note_span)
            return result

        return traced


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install the recorder's wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[-1]
            for attr in attrs:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, recorder.wrap(f"{short}.{attr}", original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------- span algebra


def children(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = children(spans)
    out = []
    for span, own in zip(spans, kids):
        covered = 0.0
        reach = span[1]
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in own):
            lo, hi = max(lo, reach, span[1]), min(hi, span[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[2] - span[1] - covered)
    return out


def _outermost(spans: list[list], names: frozenset) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


# ---------------------------------------------------------------- per-layer metrics

# A unit is one traced piece of a run: {"kind": "setup" | "round" | "check",
# "procs": [(spans, child_wall_s or None), ...]}. Library work records one
# in-process span list with no wall; each CLI child contributes its own spans
# and the wall time the parent measured around it.
UNIT_KINDS = ("round", "setup", "check")


def _select(units: list[dict], names: frozenset) -> list[dict]:
    """The units of the first kind (rounds, then set-up, then the output check)
    in which any of the named spans occur; a layer is measured where the run
    calls it."""
    for kind in UNIT_KINDS:
        picked = [u for u in units if u["kind"] == kind]
        if any(s[0] in names for u in picked for spans, _ in u["procs"] for s in spans):
            return picked
    return []


def _per_unit(units: list[dict], names, measure) -> float:
    names = frozenset([names] if isinstance(names, str) else names)
    picked = _select(units, names)
    if not picked:
        return 0.0
    return float(statistics.median(measure(u, names) for u in picked))


def _seconds(unit: dict, names: frozenset) -> float:
    return sum(
        spans[i][2] - spans[i][1] for spans, _ in unit["procs"] for i in _outermost(spans, names)
    )


def _count(unit: dict, names: frozenset) -> float:
    return float(sum(len(_outermost(spans, names)) for spans, _ in unit["procs"]))


def _self_seconds(unit: dict, names: frozenset) -> float:
    total = 0.0
    for spans, _ in unit["procs"]:
        own = self_times(spans)
        total += sum(own[i] for i, s in enumerate(spans) if s[0] in names)
    return total


def _self_share(unit: dict, names: frozenset) -> float:
    span_s = _seconds(unit, names)
    return _self_seconds(unit, names) / span_s if span_s > 0 else 0.0


def _startup_seconds(unit: dict, names: frozenset) -> float:
    return sum(
        wall - _seconds({"procs": [(spans, wall)]}, names)
        for spans, wall in unit["procs"]
        if wall is not None
    )


def _calls(units: list[dict], name: str) -> list[list]:
    return [
        s for u in _select(units, frozenset([name])) for spans, _ in u["procs"] for s in spans
        if s[0] == name
    ]


def _quantile_ms(units: list[dict], name: str, q: int) -> float:
    durations = sorted((s[2] - s[1]) * 1e3 for s in _calls(units, name))
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0]
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def _errors(units: list[dict], names: tuple[str, ...]) -> float:
    return float(
        sum(1 for u in units for spans, _ in u["procs"] for s in spans if s[0] in names and s[4])
    )


def _useful_ratio(units: list[dict]) -> float:
    notes = [s[5] for s in _calls(units, "purifier.eac_label_update") if s[5]]
    return sum(n["useful"] for n in notes) / len(notes) if notes else 0.0


def _load_mb_per_s(units: list[dict]) -> float:
    calls = _calls(units, "data.load_features")
    seconds = sum(s[2] - s[1] for s in calls)
    megabytes = sum(s[5]["bytes"] for s in calls if s[5]) / 1e6
    return megabytes / seconds if seconds > 0 else 0.0


def _iterations(unit: dict, names: frozenset) -> float:
    return float(
        sum(
            s[5]["iterations"]
            for spans, _ in unit["procs"]
            for s in spans
            if s[0] in names and s[5]
        )
    )


_IPC = ("purifier.loss_and_label_gradient", "purifier.ipc_step")
_EAC = ("purifier.eac_train_step", "purifier.classifier_forward", "purifier.eac_label_update")
_LOAD_LABELS = ("data.load_hard_labels", "data.load_onehot_csv")
_WRITES = ("data.write_features", "data.write_hard_labels", "data.write_onehot_csv")
_TRAIN = ("evaluate.train_linear_ce", "evaluate.train_linear_on_targets")

# name -> (unit, function of the traced units). Times are per unit of the
# kind the layer runs in (see _select), as the median over those units.
LAYER_METRICS = {
    "ipc.grad_calls": ("count", lambda u: _per_unit(u, _IPC[0], _count)),
    "ipc.grad_s": ("s", lambda u: _per_unit(u, _IPC[0], _seconds)),
    "ipc.grad_ms_p50": ("ms", lambda u: _quantile_ms(u, _IPC[0], 50)),
    "ipc.grad_ms_p95": ("ms", lambda u: _quantile_ms(u, _IPC[0], 95)),
    "ipc.step_s": ("s", lambda u: _per_unit(u, _IPC[1], _seconds)),
    "ipc.errors": ("count", lambda u: _errors(u, _IPC)),
    "eac.train_calls": ("count", lambda u: _per_unit(u, _EAC[0], _count)),
    "eac.train_s": ("s", lambda u: _per_unit(u, _EAC[0], _seconds)),
    "eac.train_ms_p50": ("ms", lambda u: _quantile_ms(u, _EAC[0], 50)),
    "eac.forward_calls": ("count", lambda u: _per_unit(u, _EAC[1], _count)),
    "eac.forward_s": ("s", lambda u: _per_unit(u, _EAC[1], _seconds)),
    "eac.blend_s": ("s", lambda u: _per_unit(u, _EAC[2], _seconds)),
    "eac.replace_useful_ratio": ("fraction", _useful_ratio),
    "eac.errors": ("count", lambda u: _errors(u, _EAC)),
    "purifier.iterations": ("count", lambda u: _per_unit(u, "purifier.purify", _iterations)),
    "purifier.replacements": ("count", lambda u: _per_unit(u, _EAC[2], _count)),
    "purifier.self_s": ("s", lambda u: _per_unit(u, "purifier.purify", _self_seconds)),
    "purifier.self_share": ("fraction", lambda u: _per_unit(u, "purifier.purify", _self_share)),
    "purifier.report_write_s": ("s", lambda u: _per_unit(u, "purifier.save_report", _seconds)),
    "data.load_features_s": ("s", lambda u: _per_unit(u, "data.load_features", _seconds)),
    "data.load_features_mb_per_s": ("MB/s", _load_mb_per_s),
    "data.load_labels_s": ("s", lambda u: _per_unit(u, _LOAD_LABELS, _seconds)),
    "data.write_s": ("s", lambda u: _per_unit(u, _WRITES, _seconds)),
    "data.softmax_calls": ("count", lambda u: _per_unit(u, "purifier.softmax", _count)),
    "data.softmax_s": ("s", lambda u: _per_unit(u, "purifier.softmax", _seconds)),
    "noise.gen_s": ("s", lambda u: _per_unit(u, "noise.gen_gaussian_mixture_split", _seconds)),
    "noise.inject_s": (
        "s",
        lambda u: _per_unit(u, ("noise.inject_symmetric", "noise.inject_asymmetric"), _seconds),
    ),
    "evaluate.train_s": ("s", lambda u: _per_unit(u, _TRAIN, _seconds)),
    "evaluate.train_steps": ("count", lambda u: _per_unit(u, "evaluate.eac_train_step", _count)),
    "evaluate.eval_s": ("s", lambda u: _per_unit(u, "evaluate.evaluate_classifier", _seconds)),
    "cli.startup_s": ("s", lambda u: _per_unit(u, "cli.dispatch", _startup_seconds)),
    "cli.self_s": ("s", lambda u: _per_unit(u, "cli.dispatch", _self_seconds)),
}


def layer_metrics(units: list[dict]) -> dict[str, dict]:
    return {
        name: {"value": float(fn(units)), "unit": unit} for name, (unit, fn) in LAYER_METRICS.items()
    }
