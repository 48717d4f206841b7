"""In-memory span tracer that wraps issacsim's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper in *every* module namespace that holds a reference to it:
``simharness`` imports ``scan_angles`` and the channel/estimator functions by
name, ``cli`` keeps its own ``run_sweep``/``collect_trials``/``snr_cdfs``, and
module-internal calls such as ``music_spectrum`` -> ``hermitian_eigendecomposition``
go through the defining module's globals. ``uninstall`` restores the
originals, so traced and untraced runs can alternate in one process.

Each span is ``[name_id, start_ns, end_ns, parent_index, trial_id]``; the
trial id is a serial number assigned on entry to ``run_trial`` (-1 outside
a trial). Counts are taken at the same boundaries: calls that raise, and
work sizes computed from the call's arguments.
"""

from __future__ import annotations

import array
import collections
import functools
import inspect
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

PACKAGE = "issacsim"
LAYERS = ("array_channel", "subspace", "estimators", "simharness", "cli")


def _block_bytes(args) -> Dict[str, int]:
    config = args["config"]
    return {"array_channel.block_bytes":
            len(args["h"]) * (config.pilot_len + config.data_len) * 16}


def _music_macs(args) -> Dict[str, int]:
    return {"subspace.spectrum_macs":
            args["num_sources"] * args["cov"].dim * len(args["grid"])}


def _bartlett_macs(args) -> Dict[str, int]:
    return {"subspace.spectrum_macs": args["cov"].dim ** 2 * len(args["grid"])}


def _grid_points(args) -> Dict[str, int]:
    return {"subspace.grid_points": len(args["grid"])}


# Work sizes computed from arguments at the span boundary.
_ARG_COUNTERS: Dict[str, Callable] = {
    "array_channel.simulate_reception": _block_bytes,
    "subspace.music_spectrum": _music_macs,
    "subspace.bartlett_spectrum": _bartlett_macs,
    "subspace.scan_angles": _grid_points,
}

TRIAL_SPAN = "simharness.run_trial"
SPAN_FIELDS = 5


class Tracer:
    """Span and count recorder; install() to start, uninstall() to stop.

    Spans live in one flat int64 array, five fields per span, so that long
    traced runs stay small in memory.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans = array.array("q")
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[int] = []
        self._trial = -1
        self._next_trial = 0
        self._restore: List[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span_name: str, fn: Callable) -> Callable:
        name_id = self._name_id(span_name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        is_trial = span_name == TRIAL_SPAN
        counter = _ARG_COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts.update(counter(signature.bind(*args, **kwargs).arguments))
            if is_trial:
                tracer._trial = tracer._next_trial
                tracer._next_trial += 1
            base = len(spans)
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1, tracer._trial))
            stack.append(base // SPAN_FIELDS)
            spans[base + 1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[span_name + ".raises"] += 1
                raise
            finally:
                spans[base + 2] = clock()
                stack.pop()
                if is_trial:
                    tracer._trial = -1

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever referenced."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def table(self) -> np.ndarray:
        """Spans as an (n, 5) array: name id, start ns, end ns, parent, trial."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, SPAN_FIELDS).copy()

    def write(self, path: Path) -> None:
        """Save the span table, its name list and the counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 count_names=np.array(list(self.counts)),
                 count_values=np.array(list(self.counts.values()), dtype=np.int64))


class SpanStats:
    """Per-name totals of a finished trace: calls, inclusive and self time."""

    def __init__(self, tracer: Tracer):
        table = tracer.table()
        self.names = tracer.names
        name_id, parent, trial = table[:, 0], table[:, 3], table[:, 4]
        duration = table[:, 2] - table[:, 1]
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(table))
        size = len(self.names)
        self._calls = np.bincount(name_id, minlength=size)
        self._total_ns = np.bincount(name_id, weights=duration, minlength=size)
        self._self_ns = np.bincount(name_id, weights=duration - child_ns, minlength=size)
        self._table = table
        self._duration = duration

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls(self, name: str) -> int:
        i = self._id(name)
        return int(self._calls[i]) if i >= 0 else 0

    def total_ns(self, name: str) -> float:
        i = self._id(name)
        return float(self._total_ns[i]) if i >= 0 else 0.0

    def self_ns(self, name: str) -> float:
        i = self._id(name)
        return float(self._self_ns[i]) if i >= 0 else 0.0

    def per_trial_calls(self, name: str) -> np.ndarray:
        """Calls of ``name`` in each trial, indexed by trial id."""
        trial = self._table[:, 4]
        trials = int(trial.max()) + 1 if trial.size else 0
        hits = self._table[(self._table[:, 0] == self._id(name)) & (trial >= 0), 4]
        return np.bincount(hits, minlength=trials)

    def durations_ns(self, name: str) -> np.ndarray:
        return self._duration[self._table[:, 0] == self._id(name)]
