"""Outside-in span tracer for memstp.

The tracer replaces selected public functions of the memstp modules, where
they live as module attributes, with wrappers that record one span per call
and a few counters taken from the call's arguments and result. Nothing in
``src/`` is changed: calls that go through the module attribute (for example
``dev.apply_pulse(...)`` inside ``protocols``, or ``decay_to(...)`` inside
``device`` itself) reach the wrapper; a name bound by ``from x import f`` does
not. Every original attribute is put back when tracing ends, so untraced
passes measure the bare program.

Spans are kept in memory in flat arrays (name, start, end, parent, pass) and
written out once at the end. A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional

import numpy as np

# Counter hooks: (counts, qualname, args, kwargs, result) -> None. Each reads
# only the call's own arguments and result.


def _count_apply_pulse(counts, name, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    pulse = args[2] if len(args) > 2 else kwargs["pulse"]
    if abs(pulse.v) >= params.v_th:
        counts[name + ".writes"] += 1
    # The accumulator is reset to exactly 0 when the barrier is crossed; a
    # zero-volt sample also leaves it at 0 on a fresh device, so require that
    # the pulse deposited energy.
    if result[0].acc == 0.0 and pulse.v != 0.0:
        counts[name + ".barrier_crossings"] += 1


def _count_run_trace(counts, name, args, kwargs, result):
    current = args[1] if len(args) > 1 else kwargs["current"]
    counts[name + ".samples"] += len(current)
    counts[name + ".spikes"] += len(result[2])


def _count_emit_csv(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += Path(result).stat().st_size


def _count_minimize_simplex(counts, name, args, kwargs, result):
    counts[name + ".iterations"] += result.iterations
    counts[name + ".converged"] += int(result.converged)


# (module, function) -> counter hook or None. These are the layer
# boundaries the per-layer metrics are named after.
WRAPPED: dict[tuple[str, str], Optional[Callable]] = {
    ("cli", "main"): None,
    ("cli", "parse_config"): None,
    ("cli", "emit_csv"): _count_emit_csv,
    ("cli", "write_manifest"): None,
    ("protocols", "run_protocol"): None,
    ("protocols", "apply_train"): None,
    ("protocols", "train_trace"): None,
    ("protocols", "read_conductance"): None,
    ("protocols", "decay_sweep"): None,
    ("device", "apply_pulse"): _count_apply_pulse,
    ("device", "decay_to"): None,
    ("device", "resample_mode_for_train"): None,
    ("device", "initial_state"): None,
    ("device", "iv_sweep"): None,
    ("network", "monte_carlo"): None,
    ("network", "run_trial"): None,
    ("network", "derive_rng"): None,
    ("neuron", "run_trace"): _count_run_trace,
    ("neuron", "step"): None,
    ("tm", "peaks_for_train"): None,
    ("fitting", "minimize_simplex"): _count_minimize_simplex,
    ("fitting", "fit_tm"): None,
    ("fitting", "fit_amplitude_curve"): None,
    ("fitting", "fit_decay"): None,
}

QUALNAMES = [f"{m}.{f}" for m, f in WRAPPED]

# Counters the hooks add, reported as 0 where never incremented.
HOOK_COUNTS = {
    "cli.emit_csv": ("bytes",),
    "device.apply_pulse": ("writes", "barrier_crossings"),
    "neuron.run_trace": ("samples", "spikes"),
    "fitting.minimize_simplex": ("iterations", "converged"),
}


class Tracer:
    """Span and counter store for one traced run.

    ``installed()`` wraps the functions in ``WRAPPED`` for the duration of a
    ``with`` block. ``pass_id`` tags every span and counter with the pass
    that produced it.
    """

    def __init__(self) -> None:
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self._stack: list[int] = []
        self.pass_id = 0
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id

    def _wrap(self, name_id: int, qualname: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, passes, stack = self.span_parent, self.span_pass, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.pass_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter_ns()
                stack.pop()
                self.counts[self.pass_id][qualname + ".errors"] += 1
                raise
            ends[idx] = perf_counter_ns()
            stack.pop()
            if hook is not None:
                hook(self.counts[self.pass_id], qualname, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the block, original attributes after it."""
        saved = []
        try:
            for name_id, ((mod_name, fn_name), hook) in enumerate(WRAPPED.items()):
                module = importlib.import_module(f"memstp.{mod_name}")
                original = getattr(module, fn_name, None)
                if original is None:
                    continue  # function gone from the program: counts stay 0
                saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(
                    name_id, f"{mod_name}.{fn_name}", original, hook))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def pass_summaries(self, pass_ids: list[int]) -> list[dict[str, float]]:
        """Per-function calls, self time (s) and counters of each pass."""
        pass_of = np.array(self.span_pass, dtype=np.int32)
        name_of = np.array(self.span_name, dtype=np.int32)
        own = self_times(np.array(self.span_start, dtype=np.int64),
                         np.array(self.span_end, dtype=np.int64),
                         np.array(self.span_parent, dtype=np.int32))
        summaries = []
        for pass_id in pass_ids:
            sel = pass_of == pass_id
            calls = np.bincount(name_of[sel], minlength=len(QUALNAMES))
            self_ns = np.bincount(name_of[sel], weights=own[sel],
                                  minlength=len(QUALNAMES))
            out: dict[str, float] = {}
            for i, q in enumerate(QUALNAMES):
                out[q + ".calls"] = int(calls[i])
                out[q + ".self_s"] = float(self_ns[i]) * 1e-9
                for name in ("errors", *HOOK_COUNTS.get(q, ())):
                    out[f"{q}.{name}"] = 0
            out.update(self.counts.get(pass_id, {}))
            summaries.append(out)
        return summaries

    def write_spans(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(QUALNAMES),
            name=np.array(self.span_name, dtype=np.int32),
            start_ns=np.array(self.span_start, dtype=np.int64),
            end_ns=np.array(self.span_end, dtype=np.int64),
            parent=np.array(self.span_parent, dtype=np.int32),
            pass_id=np.array(self.span_pass, dtype=np.int32))


def self_times(start, end, parent):
    """Self time of every span: its duration minus its direct children's.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of it and their durations simply add up. ``parent``
    holds the index of the enclosing span, or -1 for a root span.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered
